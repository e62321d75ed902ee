//! Service-front rungs: the router's path functions, the HTML cache's
//! `get`, a warm `handle` through `SiteService` and through a two-shard
//! `ShardedService`, and a click through the cluster — via the router
//! and straight at a worker, whose difference is the proxy hop.

use super::transport::{micro, round_trips};
use super::{share, Measures};
use crate::clicks::RefTable;
use crate::run::Cfg;
use crate::spans::Recorder;
use crate::workloads::cluster_clicks::{worker_binary, Cluster};
use crate::workloads::warm_clicks::WarmSite;
use std::hint::black_box;
use std::time::Duration;
use strudel_schema::dynamic::{Mode, PageKey};
use strudel_serve::{router, ShardedService};
use strudel_struql::Parallelism;

/// The in-process rungs, on the warm site of the transport probe.
pub fn probe_in_process(cfg: &Cfg, warm: &WarmSite, rec: &mut Recorder, m: &mut Measures) {
    let budget = share(cfg, 0.01);
    let db = warm.service.engine().database();
    let graph = db.graph();
    let paths: Vec<&String> = warm
        .urls
        .articles
        .iter()
        .map(|&u| &warm.urls.paths[u as usize])
        .collect();
    let keys: Vec<PageKey> = paths
        .iter()
        .map(|p| router::parse_page_path(p, graph).expect("article path parses"))
        .collect();

    let mut i = 0;
    let mut next = |n: usize| {
        i = (i + 1) % n;
        i
    };
    micro(rec, "serve.router.parse_page_path", 64, budget, || {
        black_box(router::parse_page_path(
            black_box(paths[next(paths.len())]),
            graph,
        ));
    });
    m.set_from_spans(
        "serve.router.parse_page_path_ns",
        rec,
        "serve.router.parse_page_path",
        1.0,
    );
    micro(rec, "serve.router.shard_of_path", 256, budget, || {
        black_box(router::shard_of_path(
            black_box(paths[next(paths.len())]),
            2,
        ));
    });
    m.set_from_spans(
        "serve.router.shard_of_path_ns",
        rec,
        "serve.router.shard_of_path",
        1.0,
    );
    micro(rec, "serve.cache.get", 64, budget, || {
        black_box(warm.service.cache().get(black_box(&keys[next(keys.len())])));
    });
    m.set_from_spans("serve.cache.get_ns", rec, "serve.cache.get", 1.0);
    micro(rec, "serve.service.handle_warm", 16, budget, || {
        black_box(warm.service.handle(black_box(paths[next(paths.len())])));
    });
    m.set_from_spans(
        "serve.service.handle_warm_ns",
        rec,
        "serve.service.handle_warm",
        1.0,
    );

    // The same site behind two hash-routed shards.
    let sharded = ShardedService::new(&warm.site, Mode::Context, 2);
    sharded
        .warm(Parallelism::Threads(2))
        .expect("sharded warm-up renders every page");
    micro(rec, "serve.shard.handle_warm", 16, budget, || {
        black_box(sharded.handle(black_box(paths[next(paths.len())])));
    });
    m.set_from_spans(
        "serve.shard.handle_warm_ns",
        rec,
        "serve.shard.handle_warm",
        1.0,
    );
}

/// Starts the ladder's cluster (supervision tuned to recover fast, as
/// the kill probe needs) and measures a click through it. Returns the
/// cluster for the delta and supervision probes.
pub fn probe_cluster(cfg: &Cfg, rec: &mut Recorder, m: &mut Measures) -> Result<Cluster, String> {
    let binary = worker_binary()?;
    let started = std::time::Instant::now();
    let cluster = Cluster::setup_with(cfg.scale(500, 60), &binary, |c| {
        c.backoff_base = Duration::from_millis(20);
        c.backoff_cap = Duration::from_millis(500);
        c.probe_interval = Duration::from_millis(100);
        c.min_uptime = Duration::from_millis(300);
    })?;
    // Site build and store load included: what `setup_s` of
    // `cluster-clicks` is made of.
    m.set(
        "serve.cluster.start_ready_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );

    let table = RefTable::scout(cluster.server.addr(), &cluster.urls).map_err(|e| e.to_string())?;
    let mut via_router = round_trips(
        cfg,
        rec,
        "serve.cluster.handle",
        cluster.server.addr(),
        &cluster.urls,
        &table,
        false,
    );
    m.set_median("serve.cluster.handle_us", &mut via_router, 1e3);
    // Every worker holds the whole database, so worker 0 can answer the
    // full mix: the same clicks minus the router and its proxy connect.
    let worker = cluster
        .cluster
        .0
        .worker_addr(0)
        .ok_or("worker 0 has no address")?;
    let mut direct = round_trips(
        cfg,
        rec,
        "serve.cluster.worker_direct_rt",
        worker,
        &cluster.urls,
        &table,
        false,
    );
    m.set_median("serve.cluster.worker_direct_rt_us", &mut direct, 1e3);
    m.set(
        "serve.cluster.proxy_hop_us",
        m.get("serve.cluster.handle_us") - m.get("serve.cluster.worker_direct_rt_us"),
    );
    Ok(cluster)
}
