//! Click-time engine rungs: what a cold click costs below the
//! transport — guard evaluation (`DynamicSite::visit`) by page kind,
//! rendering on top of it, the whole of a cold `handle`, a full
//! `warm()`, and the HTML cache's insert-and-promote.

use super::{share, Measures};
use crate::run::Cfg;
use crate::spans::Recorder;
use crate::workloads::warm_clicks::WarmSite;
use std::sync::Arc;
use std::time::Instant;
use strudel::Site;
use strudel_schema::dynamic::{DynamicSite, Mode, PageKey};
use strudel_serve::{render, router, CachedPage, HtmlCache, SiteService};
use strudel_struql::Parallelism;

/// Article pages visited cold per pass.
const SAMPLE: usize = 200;

fn fresh_engine(site: &Site) -> DynamicSite {
    DynamicSite::new(site.database.clone(), &site.program, Mode::Context)
}

/// Runs the engine rungs over a fresh build of the ladder's site.
pub fn probe(cfg: &Cfg, warm: &WarmSite, rec: &mut Recorder, m: &mut Measures) {
    let site = &warm.site;
    let graph = site.database.graph();
    let key_of = |u: u32| -> PageKey {
        router::parse_page_path(&warm.urls.paths[u as usize], graph).expect("page path parses")
    };
    let articles: Vec<PageKey> = warm
        .urls
        .articles
        .iter()
        .take(SAMPLE)
        .map(|&u| key_of(u))
        .collect();
    let categories: Vec<PageKey> = warm.urls.categories.iter().map(|&u| key_of(u)).collect();
    let front = key_of(warm.urls.front);

    // Guard evaluation alone, each page once on a cold engine.
    let engine = fresh_engine(site);
    for key in &articles {
        rec.time("schema.dynamic.visit_cold.article", |_| {
            engine.visit(key).expect("visit")
        });
    }
    for key in &categories {
        rec.time("schema.dynamic.visit_cold.category", |_| {
            engine.visit(key).expect("visit")
        });
    }
    let counters = engine.metrics();
    m.set(
        "schema.dynamic.rows_per_visit",
        counters.rows_produced as f64 / counters.clicks.max(1) as f64,
    );
    m.set(
        "schema.dynamic.plan_cache_hit_ratio",
        counters.plan_cache_hits as f64
            / (counters.plan_cache_hits + counters.plan_cache_misses).max(1) as f64,
    );
    // The front page exists once; a fresh engine per sample keeps it cold.
    let budget = share(cfg, 0.02);
    let t = Instant::now();
    let mut fronts = 0;
    while fronts < 3 || (t.elapsed() < budget && fronts < 20) {
        let engine = fresh_engine(site);
        rec.time("schema.dynamic.visit_cold.front", |_| {
            engine.visit(&front).expect("visit")
        });
        fronts += 1;
    }
    m.set_from_spans(
        "schema.dynamic.visit_cold_us.article",
        rec,
        "schema.dynamic.visit_cold.article",
        1e3,
    );
    m.set_from_spans(
        "schema.dynamic.visit_cold_us.category",
        rec,
        "schema.dynamic.visit_cold.category",
        1e3,
    );
    m.set_from_spans(
        "schema.dynamic.visit_cold_us.front",
        rec,
        "schema.dynamic.visit_cold.front",
        1e3,
    );

    // Rendering on top: `render_page` visits the page (and its link
    // targets) and runs the template.
    let engine = fresh_engine(site);
    for key in &articles {
        rec.time("serve.render.render_page_cold", |_| {
            render::render_page(&engine, &site.templates, key).expect("render")
        });
    }
    m.set_from_spans(
        "serve.render.render_page_cold_us",
        rec,
        "serve.render.render_page_cold",
        1e3,
    );
    m.set(
        "template.eval.self_us",
        m.get("serve.render.render_page_cold_us") - m.get("schema.dynamic.visit_cold_us.article"),
    );

    // The whole cold click below the transport.
    let service = SiteService::new(site, Mode::Context);
    for &u in warm.urls.articles.iter().take(SAMPLE) {
        let path = &warm.urls.paths[u as usize];
        rec.time("serve.service.handle_cold", |_| service.handle(path));
    }
    m.set_from_spans(
        "serve.service.handle_cold_us",
        rec,
        "serve.service.handle_cold",
        1e3,
    );

    // Warming a whole service.
    for _ in 0..3 {
        let service = SiteService::new(site, Mode::Context);
        rec.time("serve.service.warm", |_| {
            service.warm(Parallelism::Threads(2)).expect("warm")
        });
    }
    m.set_from_spans("serve.service.warm_ms", rec, "serve.service.warm", 1e6);

    // The cache on the insert side: every insert, with the promotion it
    // triggers every `PROMOTE_EVERY`-th time.
    let page = CachedPage {
        html: Arc::from("x".repeat(super::transport::STUB_BODY_BYTES)),
        deps: Arc::from(Vec::new()),
    };
    for _ in 0..5 {
        let cache = HtmlCache::new();
        let open = rec.enter_batch("serve.cache.insert_promote", articles.len() as u32);
        for key in &articles {
            cache.insert_if(key.clone(), page.clone(), || true);
            if cache.needs_promotion() {
                cache.promote_if(|| true);
            }
        }
        rec.exit(open);
    }
    m.set_from_spans(
        "serve.cache.insert_promote_us",
        rec,
        "serve.cache.insert_promote",
        1e3,
    );
}
