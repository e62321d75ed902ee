//! Supervised multi-process serving: a router parent, N crash-isolated
//! shard worker processes, degraded-mode failover.
//!
//! `strudel serve --cluster N --store DIR` runs this module's
//! [`ClusterService`] as the front: a supervisor/router that spawns one
//! `strudel shard-worker` process per shard, routes each request to its
//! owner worker over loopback by the same stable path hash the
//! in-process [`crate::ShardedService`] uses
//! ([`crate::router::shard_of_path`]), and proxies through
//! [`crate::proto`] with a per-request deadline, on kept-alive sockets
//! that belong to one worker incarnation and die with it
//! ([`proxy::Upstream`]). No worker holds
//! durable state: each rebuilds its database by replaying the shared
//! paged store read-only, which is what makes workers disposable — the
//! supervisor's whole recovery story is "kill it and let it replay".
//!
//! **Failover.** A crashed, hung, or restarting worker never surfaces
//! as a connection reset. The router keeps a last-known-good cache of
//! every 200 it has proxied; while a shard is down its routes serve
//! from that cache with `X-Strudel-Degraded: stale`, and only a path
//! with no cached rendition answers 503. Kill any worker under load and
//! every client sees either fresh bytes or a marked-stale copy.
//!
//! **Supervision.** A ready worker is published as its incarnation's
//! [`proxy::Upstream`] and unpublished when it dies, is killed or
//! drains; clicks read that route without the supervisor's lock.
//! Worker health is probed on `/healthz`; crashes
//! restart with exponential backoff + deterministic jitter
//! ([`backoff::Backoff`]); a worker that keeps dying within
//! `min_uptime` of becoming ready trips a crash-loop circuit breaker
//! and stays down ([`supervisor`]).
//!
//! **Writes.** The barrier-epoch semantics of the in-process sharded
//! service survive the process boundary. The router is the only
//! writer: a delta validates and commits once in the shared store
//! (a WAL append — the cross-process form of the shard-0
//! validation gate: rejection happens before any worker sees the
//! delta), then fans out as `GET /internal/catchup?n=<target>` —
//! worker 0 first, the rest in parallel — and the router retries each
//! live worker until it reports the target count. A worker that fails
//! mid-apply is killed and replays the WAL to catch up, so a response
//! can never mix epochs: every live worker is at the barrier, and a
//! worker behind it is not routed to.
//!
//! Torture-testing hooks: [`fault::FaultPlan`] (env-driven exit / panic
//! / stall at the Nth request, Nth delta, or startup) and
//! [`ClusterService::kill_worker`].

pub mod backoff;
pub mod fault;
pub mod proxy;
mod supervisor;
mod worker;

pub use fault::{FaultAction, FaultPlan, FaultTrigger, FAULT_PLAN_ENV};
pub use worker::{run_worker, WorkerOptions, WorkerService};

use crate::metrics::{push_rows, ServerMetrics};
use crate::{
    router, ClickService, DeltaGate, Response, ServeError, ServerStats, TransportCounters,
    WarmupReport,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};
use strudel_graph::GraphDelta;
use strudel_schema::dynamic::Mode;
use strudel_struql::Parallelism;
use supervisor::Slot;

/// Everything that shapes a cluster deployment.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Shard worker processes.
    pub workers: usize,
    /// The `strudel` binary to spawn workers from.
    pub binary: PathBuf,
    /// The site directory workers load templates and the site query from.
    pub site_dir: PathBuf,
    /// The shared paged store directory (router writes, workers replay).
    pub store_dir: PathBuf,
    /// Click-time evaluation mode of every worker. [`Mode::Naive`] is
    /// the tests' reference engine, not a serving mode: workers refuse
    /// it, so [`ClusterService::start`] does too.
    pub mode: Mode,
    /// Extra environment for workers (fault plans ride here, explicitly —
    /// the supervisor never forwards its own ambient environment hooks).
    pub worker_env: Vec<(String, String)>,
    /// End-to-end deadline for one proxied request.
    pub request_deadline: Duration,
    /// Deadline for supervision probes (`/healthz`, readiness catch-up).
    pub probe_deadline: Duration,
    /// How often a ready worker is liveness-probed.
    pub probe_interval: Duration,
    /// How long a spawned worker may take to report ready.
    pub startup_timeout: Duration,
    /// A death within this long of becoming ready counts a strike.
    pub min_uptime: Duration,
    /// Consecutive strikes that trip the crash-loop breaker.
    pub max_strikes: u32,
    /// First restart delay (doubles per strike, jittered).
    pub backoff_base: Duration,
    /// Restart delay ceiling.
    pub backoff_cap: Duration,
    /// How long shutdown waits for SIGTERMed workers before SIGKILL.
    pub drain_timeout: Duration,
}

impl ClusterConfig {
    /// A config with production defaults for the tunables.
    pub fn new(
        workers: usize,
        binary: PathBuf,
        site_dir: PathBuf,
        store_dir: PathBuf,
    ) -> ClusterConfig {
        ClusterConfig {
            workers: workers.max(1),
            binary,
            site_dir,
            store_dir,
            mode: Mode::Context,
            worker_env: Vec::new(),
            request_deadline: Duration::from_secs(5),
            probe_deadline: Duration::from_secs(2),
            probe_interval: Duration::from_millis(500),
            startup_timeout: Duration::from_secs(30),
            min_uptime: Duration::from_secs(2),
            max_strikes: 3,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(3),
            drain_timeout: Duration::from_secs(3),
        }
    }
}

/// The router/supervisor front (see module docs). Implements
/// [`ClickService`], so either transport can carry it unchanged.
pub struct ClusterService {
    config: ClusterConfig,
    /// The single delta writer and the shared store; the router is the
    /// store's only writer.
    gate: DeltaGate,
    /// Ready files live here, under the store directory.
    run_dir: PathBuf,
    slots: Vec<Slot>,
    /// Committed WAL deltas every live worker must have applied — the
    /// cross-process barrier epoch.
    target: AtomicU64,
    /// Pre-built per-shard route labels.
    shard_routes: Vec<String>,
    metrics: ServerMetrics,
    /// Last-known-good responses, per shard.
    lkg: Vec<Lkg>,
    /// Fresh 200s a full [`Lkg`] refused to remember.
    lkg_dropped_total: AtomicU64,
    degraded_total: AtomicU64,
    unavailable_total: AtomicU64,
    proxy_errors_total: AtomicU64,
    transport: TransportCounters,
    stop: AtomicBool,
    monitor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl ClusterService {
    /// Starts the cluster: spawns every worker, runs the monitor
    /// thread, and returns once each slot is ready (or its breaker
    /// tripped). Fails only if *no* worker comes up — a cluster with
    /// some broken shards still serves the rest, degraded.
    pub fn start(
        store: strudel_repo::PagedRepo,
        config: ClusterConfig,
    ) -> Result<Arc<ClusterService>, ServeError> {
        if config.mode == Mode::Naive {
            return Err(ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "cluster workers serve in context or lookahead mode, not naive",
            )));
        }
        let run_dir = config.store_dir.join("cluster");
        std::fs::create_dir_all(&run_dir)?;
        let (_, deltas) = strudel_repo::committed_wal_deltas(&config.store_dir)
            .map_err(|e| ServeError::Io(std::io::Error::other(format!("reading WAL: {e}"))))?;
        let n = config.workers;
        let slots = (0..n)
            .map(|i| {
                Slot::new(
                    i,
                    backoff::Backoff::new(config.backoff_base, config.backoff_cap, i as u64 + 1),
                )
            })
            .collect();
        let service = Arc::new(ClusterService {
            gate: DeltaGate::new(Some(store)),
            run_dir,
            slots,
            target: AtomicU64::new(deltas.len() as u64),
            shard_routes: (0..n).map(|i| format!("shard/{i}")).collect(),
            metrics: ServerMetrics::new(),
            lkg: (0..n).map(|_| Lkg::default()).collect(),
            lkg_dropped_total: AtomicU64::new(0),
            degraded_total: AtomicU64::new(0),
            unavailable_total: AtomicU64::new(0),
            proxy_errors_total: AtomicU64::new(0),
            transport: TransportCounters::default(),
            stop: AtomicBool::new(false),
            monitor: Mutex::new(None),
            config,
        });

        // The monitor holds only a Weak: dropping the last user Arc ends
        // supervision, and Drop below reaps the children.
        let weak: Weak<ClusterService> = Arc::downgrade(&service);
        let monitor = std::thread::Builder::new()
            .name("cluster-monitor".into())
            .spawn(move || loop {
                let Some(svc) = weak.upgrade() else { break };
                if svc.stopping() {
                    break;
                }
                svc.tick();
                drop(svc);
                std::thread::sleep(Duration::from_millis(25));
            })?;
        *service.monitor.lock().unwrap() = Some(monitor);

        // Wait for the fleet: every slot ready or broken.
        let deadline = Instant::now()
            + service.config.startup_timeout
            + service.config.backoff_cap * service.config.max_strikes;
        loop {
            let ready = service.ready_workers();
            let broken = service.broken_workers();
            if ready + broken == service.config.workers || Instant::now() >= deadline {
                if ready == 0 {
                    service.shutdown();
                    return Err(ServeError::Io(std::io::Error::other(
                        "no cluster worker became ready",
                    )));
                }
                return Ok(service);
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    pub(super) fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// The barrier epoch: committed WAL deltas every live worker holds.
    pub fn delta_target(&self) -> u64 {
        self.target.load(Ordering::Acquire)
    }

    /// Workers currently ready.
    pub fn ready_workers(&self) -> usize {
        self.slots.iter().filter(|s| s.is_up()).count()
    }

    /// Workers whose crash-loop breaker is open.
    pub fn broken_workers(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.broken.load(Ordering::Acquire))
            .count()
    }

    /// Restarts (spawns beyond the first) of shard `i`'s worker.
    pub fn worker_restarts(&self, shard: usize) -> u64 {
        self.slots[shard].restarts.load(Ordering::Acquire).saturating_sub(1)
    }

    /// The address shard `i`'s worker serves on, while ready.
    pub fn worker_addr(&self, shard: usize) -> Option<std::net::SocketAddr> {
        self.slots
            .get(shard)
            .and_then(|s| s.upstream())
            .map(|u| u.addr())
    }

    /// Stops supervision and drains the workers (SIGTERM, bounded wait,
    /// SIGKILL stragglers). Idempotent.
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        if let Some(t) = self.monitor.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = t.join();
        }
        self.shutdown_workers();
    }

    /// Applies a delta cluster-wide: commit once in the shared store
    /// (validation and durability), bump the barrier target, then catch
    /// every live worker up — worker 0 first, mirroring the in-process
    /// shard-0 gate ordering, then the rest in parallel. A worker that
    /// cannot reach the target is killed; its restart replays the WAL,
    /// which contains the delta. Returns the workers that were caught
    /// up synchronously.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<ClusterDeltaOutcome, ServeError> {
        let _writer = self.gate.commit(delta)?;
        let target = self.target.fetch_add(1, Ordering::AcqRel) + 1;
        let mut caught_up = vec![false; self.slots.len()];
        caught_up[0] = self.catch_up_worker(0, target);
        if self.slots.len() > 1 {
            let rest: Vec<bool> = std::thread::scope(|scope| {
                let handles: Vec<_> = (1..self.slots.len())
                    .map(|i| scope.spawn(move || self.catch_up_worker(i, target)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or(false))
                    .collect()
            });
            caught_up[1..].copy_from_slice(&rest);
        }
        Ok(ClusterDeltaOutcome { target, caught_up })
    }

    /// Drives one worker to the barrier target. `false` means the
    /// worker is down or was killed for failing — either way its routes
    /// degrade until a replacement replays past the target.
    fn catch_up_worker(&self, shard: usize, target: u64) -> bool {
        const ATTEMPTS: u32 = 3;
        for _ in 0..ATTEMPTS {
            let Some(upstream) = self.slots[shard].upstream() else {
                return false;
            };
            let path = format!("/internal/catchup?n={target}");
            match upstream.fetch(&path, self.config.request_deadline) {
                Ok(resp) if resp.status == 200 => {
                    if supervisor::parse_applied(&resp.body) >= Some(target) {
                        return true;
                    }
                    // Applied but behind: the WAL read raced the commit.
                    std::thread::sleep(Duration::from_millis(10));
                }
                // A non-200 (the worker's panic backstop answered 500) or
                // a transport error (crash, stall past the deadline):
                // this worker failed mid-apply. Kill it — the replay at
                // restart is the one recovery that is always correct.
                _ => {
                    self.kill_worker(shard);
                    return false;
                }
            }
        }
        self.kill_worker(shard);
        false
    }

    /// Serves one request: route by path hash, proxy to the owner
    /// worker, fall back to the last-known-good copy (marked stale)
    /// when the worker can't answer.
    fn dispatch(&self, path: &str) -> (&str, Response) {
        let routed = path.split('?').next().unwrap_or(path);
        match routed {
            "/metrics" => ("metrics", Response::text(self.stats_text())),
            "/healthz" => ("healthz", Response::text("ok\n".into())),
            "/readyz" => {
                let fleet = (self.ready_workers(), self.slots.len());
                ("readyz", self.gate.readyz(Some(fleet)))
            }
            _ => {
                let shard = router::shard_of_path(routed, self.slots.len());
                (self.shard_routes[shard].as_str(), self.proxy_to(shard, routed))
            }
        }
    }

    fn proxy_to(&self, shard: usize, routed: &str) -> Response {
        if let Some(upstream) = self.slots[shard].upstream() {
            match upstream.fetch(routed, self.config.request_deadline) {
                Ok(parsed) => {
                    let response = Response {
                        status: parsed.status,
                        content_type: static_content_type(&parsed.content_type),
                        body: parsed.body,
                        degraded: parsed.degraded,
                    };
                    if response.status == 200
                        && !response.degraded
                        && !self.lkg[shard].remember(routed, &response)
                    {
                        self.lkg_dropped_total.fetch_add(1, Ordering::Relaxed);
                    }
                    return response;
                }
                Err(_) => {
                    self.proxy_errors_total.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        // Degraded path: the worker is down or unreachable. Serve the
        // last fresh copy, marked stale — never a reset.
        if let Some(mut cached) = self.lkg[shard].get(routed) {
            cached.degraded = true;
            self.degraded_total.fetch_add(1, Ordering::Relaxed);
            return cached;
        }
        self.unavailable_total.fetch_add(1, Ordering::Relaxed);
        Response::status_text(503, "shard temporarily unavailable, retry shortly\n".into())
    }

    /// Aggregated stats in the standard [`ServerStats`] shape. Engine
    /// and cache sections are zero — those live in the workers, behind
    /// their own `/metrics`.
    pub fn stats(&self) -> ServerStats {
        ServerStats::assemble(
            &self.metrics,
            Some(&self.transport),
            &[],
            self.delta_target(),
            self.gate.is_poisoned(),
        )
    }

    /// The `/metrics` body: the standard rows plus the cluster rows.
    pub fn stats_text(&self) -> String {
        let mut out = self.stats().to_text();
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        push_rows(
            &mut out,
            &[
                ("strudel_cluster_workers", self.slots.len() as u64),
                ("strudel_cluster_delta_epoch", self.delta_target()),
                ("strudel_cluster_degraded_total", load(&self.degraded_total)),
                ("strudel_cluster_lkg_dropped_total", load(&self.lkg_dropped_total)),
                ("strudel_cluster_unavailable_total", load(&self.unavailable_total)),
                ("strudel_cluster_proxy_errors_total", load(&self.proxy_errors_total)),
            ],
        );
        for (i, slot) in self.slots.iter().enumerate() {
            let row = |name: &str| format!("{name}{{shard=\"{i}\"}}");
            let upstream = &slot.upstream_counters;
            let idle = slot.upstream().map_or(0, |u| u.idle()) as u64;
            let broken = u64::from(slot.broken.load(Ordering::Acquire));
            push_rows(
                &mut out,
                &[
                    (&row("strudel_cluster_worker_up"), u64::from(slot.is_up())),
                    (&row("strudel_cluster_worker_restarts_total"), self.worker_restarts(i)),
                    (&row("strudel_cluster_worker_broken"), broken),
                    (&row("strudel_cluster_upstream_fetches_total"), load(&upstream.fetches)),
                    (&row("strudel_cluster_upstream_connects_total"), load(&upstream.connects)),
                    (&row("strudel_cluster_upstream_reuses_total"), load(&upstream.reuses)),
                    (&row("strudel_cluster_upstream_retries_total"), load(&upstream.retries)),
                    (&row("strudel_cluster_upstream_idle"), idle),
                ],
            );
        }
        out
    }

    /// Crawls the site through the workers to prime the router's
    /// last-known-good cache: BFS over intra-site links from `/`. After
    /// this, degraded mode can serve every reachable page.
    fn crawl_warm(&self) -> Result<WarmupReport, ServeError> {
        const MAX_PAGES: usize = 10_000;
        let start = Instant::now();
        let mut seen: HashSet<String> = HashSet::new();
        let mut queue: VecDeque<(String, usize)> = VecDeque::new();
        let mut pages = 0usize;
        let mut levels = 0usize;
        seen.insert("/".into());
        queue.push_back(("/".into(), 0));
        while let Some((path, level)) = queue.pop_front() {
            if pages >= MAX_PAGES {
                break;
            }
            let shard = router::shard_of_path(&path, self.slots.len());
            let response = self.proxy_to(shard, &path);
            if response.status != 200 {
                continue;
            }
            pages += 1;
            levels = levels.max(level + 1);
            for href in extract_hrefs(&response.body) {
                if seen.insert(href.clone()) {
                    queue.push_back((href, level + 1));
                }
            }
        }
        Ok(WarmupReport {
            pages,
            levels,
            elapsed_us: start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
        })
    }
}

impl Drop for ClusterService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The most paths one shard's [`Lkg`] remembers: room for any site
/// [`ClusterService::crawl_warm`] can prime, and a bound on what
/// percent-encoding variants of valid URLs can make the router hold.
const LKG_CAP: usize = 16 * 1024;

/// One shard's last-known-good responses: path → the latest fresh 200,
/// served marked stale while the shard's worker is down.
#[derive(Default)]
struct Lkg {
    map: Mutex<HashMap<String, Response>>,
}

impl Lkg {
    /// Remembers a fresh 200. A copy already stored byte-identical is
    /// left alone — the warm path pays a compare, not an allocation and
    /// a body copy. Returns `false` when the map is full and `path` is
    /// not in it: the response is not remembered.
    fn remember(&self, path: &str, response: &Response) -> bool {
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(stored) = map.get_mut(path) {
            if stored.body != response.body || stored.content_type != response.content_type {
                *stored = response.clone();
            }
            return true;
        }
        if map.len() >= LKG_CAP {
            return false;
        }
        map.insert(path.to_owned(), response.clone());
        true
    }

    fn get(&self, path: &str) -> Option<Response> {
        self.map
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(path)
            .cloned()
    }
}

/// What [`ClusterService::apply_delta`] did.
#[derive(Clone, Debug)]
pub struct ClusterDeltaOutcome {
    /// The barrier target after this delta.
    pub target: u64,
    /// Per shard: whether the worker confirmed the target synchronously
    /// (`false` = down or killed; it replays on restart).
    pub caught_up: Vec<bool>,
}

impl ClickService for ClusterService {
    fn handle(&self, path: &str) -> Response {
        let start = Instant::now();
        let (route, response) = self.dispatch(path);
        let us = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        self.metrics.record(route, us);
        response
    }
    fn warm(&self, _parallelism: Parallelism) -> Result<WarmupReport, ServeError> {
        self.crawl_warm()
    }
    fn transport(&self) -> Option<&TransportCounters> {
        Some(&self.transport)
    }
}

/// Maps a proxied `Content-Type` back onto the static strings
/// [`Response`] carries (this server only ever emits these two).
fn static_content_type(ct: &str) -> &'static str {
    match ct {
        "text/html; charset=utf-8" => "text/html; charset=utf-8",
        _ => "text/plain; charset=utf-8",
    }
}

/// Intra-site links (`href="/..."`) in a rendered page body. Router-
/// reserved endpoints (`/metrics`, health, debug) are not pages and are
/// never worth a last-known-good copy.
fn extract_hrefs(body: &str) -> Vec<String> {
    const RESERVED: [&str; 4] = ["/metrics", "/healthz", "/readyz", "/debug"];
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(i) = rest.find("href=\"") {
        rest = &rest[i + 6..];
        let Some(end) = rest.find('"') else { break };
        let href = &rest[..end];
        if href.starts_with('/') && !RESERVED.iter().any(|r| href.starts_with(r)) {
            out.push(href.split('#').next().unwrap_or(href).to_owned());
        }
        rest = &rest[end..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hrefs_are_extracted_intra_site_only() {
        let body = r##"<a href="/page/A">a</a> <a href="http://x/">x</a>
                       <a href="/data/n1#frag">n</a>"##;
        assert_eq!(extract_hrefs(body), vec!["/page/A", "/data/n1"]);
    }

    #[test]
    fn an_identical_fresh_copy_is_not_stored_again() {
        let lkg = Lkg::default();
        let page = Response::html("<p>v1</p>".into());
        assert!(lkg.remember("/page/A", &page));
        let stored_at = lkg.map.lock().unwrap()["/page/A"].body.as_ptr();
        assert!(lkg.remember("/page/A", &page.clone()));
        assert_eq!(
            lkg.map.lock().unwrap()["/page/A"].body.as_ptr(),
            stored_at,
            "same bytes: the stored copy was left alone"
        );
        assert!(lkg.remember("/page/A", &Response::html("<p>v2</p>".into())));
        assert_eq!(lkg.get("/page/A").unwrap().body, "<p>v2</p>");
    }

    #[test]
    fn a_full_map_refuses_new_paths_but_still_refreshes_known_ones() {
        let lkg = Lkg::default();
        let page = Response::html("<p>v1</p>".into());
        for i in 0..LKG_CAP {
            assert!(lkg.remember(&format!("/page/A/i:{i}"), &page));
        }
        // One more spelling of a valid URL must not grow the map.
        assert!(!lkg.remember("/page/A/i:%30", &page), "refused at the cap");
        assert_eq!(lkg.map.lock().unwrap().len(), LKG_CAP);
        assert!(lkg.get("/page/A/i:%30").is_none());
        assert!(lkg.remember("/page/A/i:0", &Response::html("<p>v2</p>".into())));
        assert_eq!(lkg.get("/page/A/i:0").unwrap().body, "<p>v2</p>");
    }

    #[test]
    fn content_types_map_onto_the_static_set() {
        assert_eq!(
            static_content_type("text/html; charset=utf-8"),
            "text/html; charset=utf-8"
        );
        assert_eq!(
            static_content_type("application/json"),
            "text/plain; charset=utf-8"
        );
    }

    #[test]
    fn a_naive_cluster_is_refused_before_anything_is_spawned() {
        let store_dir =
            std::env::temp_dir().join(format!("strudel-cluster-naive-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store_dir);
        std::fs::create_dir_all(&store_dir).unwrap();
        let store = strudel_repo::PagedRepo::bulk_load(
            &store_dir,
            strudel_repo::PagerConfig::default(),
            &strudel_graph::Graph::new(),
        )
        .unwrap();
        let mut config = ClusterConfig::new(
            2,
            PathBuf::from("never-run"),
            store_dir.join("site"),
            store_dir.clone(),
        );
        config.mode = Mode::Naive;
        let err = match ClusterService::start(store, config) {
            Ok(_) => panic!("a naive cluster started"),
            Err(e) => e.to_string(),
        };
        assert!(err.contains("not naive"), "{err}");
        // Ready files live in this directory, and it is made before the
        // monitor thread that spawns workers is.
        assert!(!store_dir.join("cluster").exists());
        let _ = std::fs::remove_dir_all(&store_dir);
    }
}
