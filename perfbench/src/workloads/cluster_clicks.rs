//! `cluster-clicks`: the warm click mix through the supervised front.
//! A site directory and a bulk-loaded paged store are written to a temp
//! dir, `ClusterService::start` spawns two `strudel shard-worker`
//! processes from the binary beside the harness, and `serve(cluster)` is
//! the router the clients talk to. It is the only workload that crosses
//! `cluster/proxy.rs` (one loopback connect per proxied request) and two
//! reactors per click. A degraded or non-200 answer is a failure.

use crate::clicks::{self, RefTable, Target};
use crate::inputs::{news_builder, InputPin, UrlSet};
use crate::mix::ClickMix;
use crate::procfs;
use crate::run::{server_config, timed_setups, Cfg, Outcome, TempDir};
use crate::sitedir::write_news_site_dir;
use std::path::PathBuf;
use std::sync::Arc;
use strudel::Site;
use strudel_repo::{PagedRepo, PagerConfig};
use strudel_schema::dynamic::Mode;
use strudel_serve::{
    serve, ClickService, ClusterConfig, ClusterService, ServerHandle, SiteService,
};
use strudel_struql::Parallelism;

/// Shard worker processes.
pub const WORKERS: usize = 2;

/// The `strudel` binary beside this one (or one directory up, where
/// Cargo puts binaries relative to its test executables). Its absence is
/// an error, not a skip: the workload cannot be measured without real
/// worker processes.
pub fn worker_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the harness binary: {e}"))?;
    let beside = exe.with_file_name("strudel");
    let above = exe
        .parent()
        .and_then(|d| d.parent())
        .map(|d| d.join("strudel"));
    std::iter::once(beside.clone())
        .chain(above)
        .find(|c| c.is_file())
        .ok_or(format!(
            "no `strudel` binary at {} — build it into the same target directory \
             (cargo build --release -p strudel-serve --bin strudel)",
            beside.display()
        ))
}

/// Shuts the cluster down when dropped, so workers are reaped on every
/// exit path, a panic's unwind included.
pub struct ClusterGuard(pub Arc<ClusterService>);

impl Drop for ClusterGuard {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// A running cluster behind its router.
pub struct Cluster {
    /// The in-process build the store was loaded from.
    pub site: Site,
    /// Its page URLs.
    pub urls: UrlSet,
    /// The router server. Declared before the guard: it stops first.
    pub server: ServerHandle,
    /// The supervised front.
    pub cluster: ClusterGuard,
    /// Site directory and store; removed on drop, after the workers.
    _dir: TempDir,
}

impl Cluster {
    /// Starts the cluster with `tune` applied to the production config.
    pub fn setup_with(
        articles: usize,
        binary: &std::path::Path,
        tune: impl FnOnce(&mut ClusterConfig),
    ) -> Result<Cluster, String> {
        let site = news_builder(articles).build().map_err(|e| e.to_string())?;
        let urls = UrlSet::of_news_site(&site);
        let dir = TempDir::new("cluster").map_err(|e| e.to_string())?;
        let (site_dir, store_dir) = (dir.path().join("site"), dir.path().join("store"));
        write_news_site_dir(&site_dir).map_err(|e| e.to_string())?;
        let store = PagedRepo::bulk_load(&store_dir, PagerConfig::default(), site.database.graph())
            .map_err(|e| format!("bulk load: {e}"))?;
        let mut config = ClusterConfig::new(WORKERS, binary.to_path_buf(), site_dir, store_dir);
        tune(&mut config);
        let cluster = ClusterGuard(
            ClusterService::start(store, config).map_err(|e| format!("cluster start: {e}"))?,
        );
        if cluster.0.ready_workers() != WORKERS {
            return Err(format!(
                "{} of {WORKERS} workers ready",
                cluster.0.ready_workers()
            ));
        }
        ClickService::warm(&*cluster.0, Parallelism::Threads(WORKERS))
            .map_err(|e| format!("cluster warm: {e}"))?;
        let server = serve(cluster.0.clone(), server_config()).map_err(|e| e.to_string())?;
        Ok(Cluster {
            site,
            urls,
            server,
            cluster,
            _dir: dir,
        })
    }

    /// Starts the cluster with the production config.
    pub fn setup(articles: usize, binary: &std::path::Path) -> Result<Cluster, String> {
        Cluster::setup_with(articles, binary, |_| {})
    }
}

/// Runs the workload.
pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let binary = worker_binary()?;
    let articles = cfg.scale(500, 60);
    let (system, setups) = timed_setups(cfg.setup_reps, || Cluster::setup(articles, &binary));
    let system = system?;
    let addr = system.server.addr();
    let table = RefTable::scout(addr, &system.urls).map_err(|e| e.to_string())?;

    // What the workers serve must be what the in-process build serves.
    let mut violations = Vec::new();
    let reference = SiteService::new(&system.site, Mode::Context);
    let bodies: Vec<String> = system
        .urls
        .paths
        .iter()
        .map(|p| reference.handle(p).body)
        .collect();
    let differing = table.mismatches(&RefTable::from_bodies(bodies.iter().map(String::as_str)));
    if let Some(&first) = differing.first() {
        violations.push(format!(
            "{} worker-served pages differ from the in-process build, e.g. {}",
            differing.len(),
            system.urls.paths[first]
        ));
    }
    drop((reference, bodies));

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
    // The workers' pids, found once: a restart in steady state fails the
    // run anyway.
    let workers = procfs::children_of_self();
    let r = clicks::run_clicks(target, cfg.seed, cfg.plan(clicks::CLICK_SLICE), &|| {
        procfs::cpu_us_with(&workers)
    });
    let restarts: u64 = (0..WORKERS)
        .map(|s| system.cluster.0.worker_restarts(s))
        .sum();
    if restarts > 0 {
        violations.push(format!("{restarts} worker restarts in steady state"));
    }
    let peak_rss_mib = procfs::peak_rss_mib_with_children();
    Ok(Outcome {
        slices: r.slices,
        setups,
        peak_rss_mib,
        bytes: r.bytes,
        violations,
        recorder: r.recorder,
        notes: vec![("urls".into(), system.urls.len() as f64, "count")],
        pin: InputPin::of_clicks(articles, &system.urls, &mix, cfg.seed),
    })
}
