//! `warm-clicks`: every click is a hit in the published tier of the
//! HTML cache, so the engine and the store do nothing and the reactor,
//! the pool hand-offs, `proto` and the per-hit body copy do all the
//! work — with ≈1.6 KB article pages and the ≈N-link front page both in
//! the mix.

use crate::clicks::{self, RefTable, Target};
use crate::inputs::{news_builder, InputPin, UrlSet};
use crate::mix::ClickMix;
use crate::procfs;
use crate::run::{server_config, timed_setups, Cfg, Outcome};
use std::sync::Arc;
use strudel::Site;
use strudel_schema::dynamic::Mode;
use strudel_serve::{serve, ServerHandle, SiteService};
use strudel_struql::Parallelism;

/// A warmed news site behind the epoll server.
pub struct WarmSite {
    /// The built site.
    pub site: Site,
    /// The site's page URLs.
    pub urls: UrlSet,
    /// The service, for in-process probes.
    pub service: Arc<SiteService>,
    /// The running server.
    pub server: ServerHandle,
}

impl WarmSite {
    /// From generated article pages to a warmed, listening server.
    pub fn setup(articles: usize) -> WarmSite {
        let site = news_builder(articles).build().expect("news site builds");
        let urls = UrlSet::of_news_site(&site);
        let service = Arc::new(SiteService::new(&site, Mode::Context));
        service
            .warm(Parallelism::Threads(clicks::CONNECTIONS))
            .expect("warm-up renders every page");
        let server = serve(service.clone(), server_config()).expect("server binds");
        WarmSite {
            site,
            urls,
            service,
            server,
        }
    }
}

/// Runs the workload.
pub fn run(cfg: &Cfg) -> Outcome {
    let articles = cfg.scale(4000, 200);
    let (system, setups) = timed_setups(cfg.setup_reps, || WarmSite::setup(articles));
    let addr = system.server.addr();
    let table = RefTable::scout(addr, &system.urls).expect("scout pass");
    let mix = ClickMix::new(
        &system.urls.articles,
        &system.urls.categories,
        system.urls.front,
        cfg.seed,
    );
    let target = Target {
        addr,
        urls: &system.urls,
        table: Some(&table),
        mix: &mix,
        connect_per_click: false,
        span: cfg.traced.then_some(clicks::CLICK_SPAN),
    };
    let r = clicks::run_clicks(
        target,
        cfg.seed,
        cfg.plan(clicks::CLICK_SLICE),
        &procfs::cpu_us_self,
    );
    let cache = system.service.cache().stats();
    let mut violations = Vec::new();
    if cache.misses > 0 {
        // The point of the workload is that nothing renders.
        violations.push(format!("{} clicks missed the warmed cache", cache.misses));
    }
    let peak_rss_mib = procfs::peak_rss_mib_with_children();
    system.server.shutdown();
    Outcome {
        slices: r.slices,
        setups,
        peak_rss_mib,
        bytes: r.bytes,
        violations,
        recorder: r.recorder,
        notes: vec![
            ("urls".into(), system.urls.len() as f64, "count"),
            (
                "cache.published_hits".into(),
                cache.published_hits as f64,
                "count",
            ),
        ],
        pin: InputPin::of_clicks(articles, &system.urls, &mix, cfg.seed),
    }
}
