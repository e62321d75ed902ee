//! Delta-path rungs. Two systems take the same seeded steps:
//!
//! * the **whole** — a store-backed, warmed `SiteService`, timed around
//!   `SiteService::apply_delta` and around the first click on the
//!   affected page afterwards (the re-render);
//! * the **parts** — a standalone `PagedRepo` on a counting VFS, and a
//!   second warmed service with no store whose engine and HTML cache are
//!   driven directly, in the order `SiteService::apply_delta` drives
//!   them: store commit → `DynamicSite::apply_delta` →
//!   `HtmlCache::invalidate`.
//!
//! The parts' medians summed against the whole's median is
//! `budget.delta.residual_ratio`. Kinds are cycled rather than drawn, so
//! every kind has samples in a short probe. Afterwards the whole's store
//! is closed and timed through recovery over the WAL the probe wrote.

use super::vfs::CountingVfs;
use super::{share, Measures};
use crate::deltas::{Kind, Model};
use crate::run::{Cfg, TempDir};
use crate::spans::Recorder;
use crate::workloads::cluster_clicks::Cluster;
use crate::workloads::delta_stream::{wal_bytes, StoredSite};
use std::sync::Arc;
use std::time::Instant;
use strudel_prng::{SeedableRng, SmallRng};
use strudel_repo::{Database, IndexLevel, PagedRepo, PagerConfig};
use strudel_schema::dynamic::Mode;
use strudel_serve::{ShardedService, SiteService};
use strudel_struql::Parallelism;

/// The order kinds are cycled in: mostly retitles, as in the schedule.
const CYCLE: [Kind; 8] = [
    Kind::Retitle,
    Kind::Insert,
    Kind::Retitle,
    Kind::Remove,
    Kind::Retitle,
    Kind::Bulk32,
    Kind::Retitle,
    Kind::Paragraph,
];

fn engine_span(kind: Kind) -> &'static str {
    match kind {
        Kind::Retitle => "schema.dynamic.apply_delta.retitle",
        Kind::Paragraph => "schema.dynamic.apply_delta.paragraph",
        Kind::Insert => "schema.dynamic.apply_delta.insert",
        Kind::Remove => "schema.dynamic.apply_delta.remove",
        Kind::Bulk32 => "schema.dynamic.apply_delta.bulk32",
    }
}

/// Runs the in-process delta rungs.
pub fn probe(cfg: &Cfg, rec: &mut Recorder, m: &mut Measures) {
    let articles = cfg.scale(1000, 100);
    let whole = StoredSite::setup(articles);
    let graph = whole.site.database.graph();

    // The parts: a standalone store on the counting VFS …
    let parts_dir = TempDir::new("delta-parts").expect("temp dir");
    let vfs = Arc::new(CountingVfs::default());
    let counts = vfs.counts.clone();
    let store = PagedRepo::bulk_load_with(vfs, parts_dir.path(), PagerConfig::default(), graph)
        .expect("bulk load");
    // … a storeless warmed service whose engine and cache are driven
    // directly, and a bare in-memory `Database`.
    let parts = SiteService::new(&whole.site, Mode::Context);
    parts.warm(Parallelism::Threads(2)).expect("warm");
    let mut database = Database::from_graph(graph.clone(), IndexLevel::Full);

    let mut model = Model::new(graph, &whole.urls);
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x1adde7);
    let (syncs0, bytes0) = counts.snapshot();
    let counters0 = parts.engine().metrics();
    let (mut steps, mut updated, mut evicted, mut html_evicted) = (0u64, 0usize, 0usize, 0usize);
    let budget = share(cfg, 0.2);
    let t = Instant::now();
    while steps < CYCLE.len() as u64 || t.elapsed() < budget {
        let step = model.step(CYCLE[steps as usize % CYCLE.len()], &mut rng);
        steps += 1;

        let whole_span = match step.kind {
            Kind::Retitle => "serve.service.apply_delta.retitle",
            _ => "serve.service.apply_delta.other",
        };
        rec.time(whole_span, |_| {
            whole
                .service
                .apply_delta(&step.delta)
                .expect("whole applies")
        });
        rec.time("serve.service.rerender_after_delta", |_| {
            whole.service.handle(&step.path)
        });

        let parts_span = match step.kind {
            Kind::Retitle => "budget.delta.parts.retitle",
            _ => "budget.delta.parts.other",
        };
        rec.time(parts_span, |rec| {
            rec.time("repo.pager.apply_delta", |_| {
                store.apply_delta(&step.delta).expect("store commits")
            });
            let outcome = rec.time(engine_span(step.kind), |_| {
                parts
                    .engine()
                    .apply_delta(&step.delta)
                    .expect("engine applies")
            });
            updated += outcome.updated;
            evicted += outcome.evicted;
            html_evicted += rec.time("serve.cache.invalidate", |_| {
                parts.cache().invalidate(&outcome.dirty)
            });
        });
        // Keep the parts service's caches as warm as the whole's.
        parts.handle(&step.path);

        rec.time("repo.database.apply_delta", |_| {
            database.apply_delta(&step.delta).expect("database applies")
        });
    }
    let (syncs1, bytes1) = counts.snapshot();
    let counters1 = parts.engine().metrics();
    let per_step = |x: f64| x / steps as f64;

    m.set_from_spans(
        "repo.pager.apply_delta_us",
        rec,
        "repo.pager.apply_delta",
        1e3,
    );
    m.set(
        "repo.vfs.syncs_per_delta",
        per_step((syncs1 - syncs0) as f64),
    );
    m.set(
        "repo.vfs.bytes_per_delta",
        per_step((bytes1 - bytes0) as f64),
    );
    m.set_from_spans(
        "repo.database.apply_delta_us",
        rec,
        "repo.database.apply_delta",
        1e3,
    );
    for (name, kind) in [
        ("schema.dynamic.apply_delta_us.retitle", Kind::Retitle),
        ("schema.dynamic.apply_delta_us.insert", Kind::Insert),
        ("schema.dynamic.apply_delta_us.remove", Kind::Remove),
        ("schema.dynamic.apply_delta_us.bulk32", Kind::Bulk32),
    ] {
        m.set_from_spans(name, rec, engine_span(kind), 1e3);
    }
    m.set(
        "schema.dynamic.patched_ratio",
        updated as f64 / (updated + evicted).max(1) as f64,
    );
    m.set(
        "schema.dynamic.fallbacks_per_delta",
        per_step((counters1.diff_fallbacks - counters0.diff_fallbacks) as f64),
    );
    m.set_from_spans(
        "serve.cache.invalidate_us",
        rec,
        "serve.cache.invalidate",
        1e3,
    );
    m.set(
        "serve.cache.evicted_per_delta",
        per_step(html_evicted as f64),
    );
    m.set_from_spans(
        "serve.service.apply_delta_us",
        rec,
        "serve.service.apply_delta.retitle",
        1e3,
    );
    m.set_from_spans(
        "serve.service.rerender_after_delta_us",
        rec,
        "serve.service.rerender_after_delta",
        1e3,
    );
    // Budget, on the commonest kind: do the three parts add up to the whole?
    let whole_us = m.get("serve.service.apply_delta_us");
    let mut parts_ns = rec.durations_ns("budget.delta.parts.retitle");
    parts_ns.sort_unstable();
    let parts_us = crate::stats::median(&parts_ns) / 1e3;
    m.set(
        "budget.delta.residual_ratio",
        (parts_us - whole_us).abs() / whole_us.max(1e-9),
    );

    // Two shards: the in-process barrier included.
    let sharded = ShardedService::new(&whole.site, Mode::Context, 2);
    sharded.warm(Parallelism::Threads(2)).expect("warm");
    let mut shard_model = Model::new(graph, &whole.urls);
    for _ in 0..12 {
        let step = shard_model.step(Kind::Retitle, &mut rng);
        rec.time("serve.shard.apply_delta", |_| {
            sharded.apply_delta(&step.delta).expect("shards apply")
        });
    }
    m.set_from_spans(
        "serve.shard.apply_delta_us",
        rec,
        "serve.shard.apply_delta",
        1e3,
    );

    // Recovery over the WAL this probe wrote into the whole's store.
    let pool = whole.service.paged_store().map(|s| s.pool_stats());
    if let Some((_, _, hits, misses, _, _)) = pool {
        m.set(
            "repo.pager.pool_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
    }
    let StoredSite {
        service,
        server,
        store_dir,
        ..
    } = whole;
    server.shutdown();
    drop(service);
    m.set(
        "repo.pager.wal_bytes_end",
        wal_bytes(store_dir.path()) as f64,
    );
    for _ in 0..3 {
        rec.time("repo.pager.replay_committed", |_| {
            strudel_repo::replay_committed(store_dir.path()).expect("replay")
        });
        rec.time("repo.pager.reopen", |_| {
            PagedRepo::open(store_dir.path(), PagerConfig::default()).expect("reopen")
        });
    }
    m.set_from_spans(
        "repo.pager.replay_committed_ms",
        rec,
        "repo.pager.replay_committed",
        1e6,
    );
    m.set_from_spans("repo.pager.reopen_ms", rec, "repo.pager.reopen", 1e6);
    let reopened = PagedRepo::open(store_dir.path(), PagerConfig::default()).expect("reopen");
    rec.time("repo.pager.checkpoint", |_| {
        reopened.checkpoint().expect("checkpoint")
    });
    m.set_from_spans(
        "repo.pager.checkpoint_ms",
        rec,
        "repo.pager.checkpoint",
        1e6,
    );
}

/// The cross-process barrier: commit once, catch both workers up.
pub fn probe_cluster(cluster: &Cluster, rec: &mut Recorder, m: &mut Measures) {
    let mut model = Model::new(cluster.site.database.graph(), &cluster.urls);
    let mut rng = SmallRng::seed_from_u64(0xc1u64);
    for _ in 0..12 {
        let step = model.step(Kind::Retitle, &mut rng);
        let outcome = rec.time("serve.cluster.apply_delta", |_| {
            cluster.cluster.0.apply_delta(&step.delta)
        });
        match outcome {
            Ok(o) if o.caught_up.iter().all(|c| *c) => {}
            Ok(_) => m
                .violations
                .push("a cluster delta left a worker behind".into()),
            Err(e) => m.violations.push(format!("cluster delta failed: {e}")),
        }
    }
    m.set_from_spans(
        "serve.cluster.apply_delta_us",
        rec,
        "serve.cluster.apply_delta",
        1e3,
    );
}
