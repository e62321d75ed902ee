//! Supervised multi-process serving: a router parent, N crash-isolated
//! shard worker processes, degraded-mode failover.
//!
//! `strudel serve --cluster N --store DIR` runs this module's
//! [`ClusterService`] as the front: a supervisor/router that spawns one
//! `strudel shard-worker` process per shard, routes each request to its
//! owner worker over loopback by a stable path hash
//! ([`crate::router::shard_of_path`]), and proxies through
//! [`crate::proto`] with a per-request deadline, on kept-alive sockets
//! that belong to one worker incarnation and die with it
//! ([`proxy::Upstream`]). No worker holds
//! durable state: each rebuilds its database by replaying the shared
//! paged store read-only, which is what makes workers disposable — the
//! supervisor's whole recovery story is "kill it and let it replay".
//!
//! **Forwarding.** A click does not leave the router's reactor thread. [`ClickService::try_forward`] takes an idle
//! kept-alive socket from the owner worker's `Upstream`; the reactor
//! writes the request, waits for the answer in the same `epoll_wait` as
//! its client connections and writes it back ([`Forward`]). It never
//! connects: an empty idle stack, and the one retry a stale socket
//! earns, go to the render pool's blocking `Upstream::fetch` as before.
//! Both paths settle an exchange through one policy — refresh the
//! last-known-good copy on a fresh 200, answer that copy or a 503 on a
//! failure, count the failure, book the route — so they cannot
//! disagree.
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
//! and stays down (`supervisor`).
//!
//! **Writes.** This is the one delta barrier in the crate. The router
//! is the only writer: a delta validates and commits once in the
//! shared store (a WAL append, so rejection happens before any worker
//! sees the delta), then fans out as `GET /internal/catchup?n=<target>` —
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

use crate::crawl::{self, is_reserved};
use crate::metrics::{push_rows, ServerMetrics};
use crate::proto::ParsedResponse;
use crate::server::{Body, Reply};
use crate::{
    router, ClickService, DeltaGate, Response, ServeError, ServerStats, TransportCounters,
    WarmupReport,
};
use proxy::{Failed, Step, Upstream};
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};
use strudel_graph::GraphDelta;
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
/// [`ClickService`], so the reactor serves it as it serves a
/// [`crate::SiteService`].
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
    /// What a proxied exchange comes to; each [`Forward`] holds a share.
    policy: Arc<Policy>,
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
            policy: Arc::new(Policy::new(n)),
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
    /// every live worker up — worker 0 first, then the rest in parallel.
    /// A worker that cannot reach the target is killed; its restart
    /// replays the WAL, which contains the delta. Returns the workers
    /// that were caught up synchronously.
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

    /// Proxies `routed` to the worker that owns it by path hash, on the
    /// calling thread — it may block, up to the request deadline — and
    /// settles the answer: the worker's, or the last-known-good copy
    /// marked stale when the worker can't answer. A click passes when
    /// it `started`, for the route histogram.
    fn proxy_to(&self, routed: &str, started: Option<Instant>) -> Reply {
        let shard = router::shard_of_path(routed, self.slots.len());
        let fetched = self.slots[shard]
            .upstream()
            .map(|upstream| upstream.fetch(routed, self.config.request_deadline));
        self.policy.settle(shard, routed, fetched, started)
    }

    /// Aggregated stats in the standard [`ServerStats`] shape. Engine
    /// and cache sections are zero — those live in the workers, behind
    /// their own `/metrics`.
    pub fn stats(&self) -> ServerStats {
        ServerStats::assemble(
            &self.policy.metrics,
            &self.transport,
            None,
            self.delta_target(),
            self.gate.is_poisoned(),
        )
    }

    /// The `/metrics` body: the standard rows plus the cluster rows.
    pub fn stats_text(&self) -> String {
        let mut out = self.stats().to_text();
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let policy = &self.policy;
        push_rows(
            &mut out,
            &[
                ("strudel_cluster_workers", self.slots.len() as u64),
                ("strudel_cluster_delta_epoch", self.delta_target()),
                ("strudel_cluster_degraded_total", load(&policy.degraded_total)),
                ("strudel_cluster_lkg_dropped_total", load(&policy.lkg_dropped_total)),
                ("strudel_cluster_unavailable_total", load(&policy.unavailable_total)),
                ("strudel_cluster_proxy_errors_total", load(&policy.proxy_errors_total)),
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
                    (&row("strudel_cluster_upstream_forwards_total"), load(&upstream.forwards)),
                ],
            );
        }
        out
    }
}

impl Drop for ClusterService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The most paths one shard's [`Lkg`] remembers: room for any site
/// the warm-up crawl can prime, and a bound on what
/// percent-encoding variants of valid URLs can make the router hold.
const LKG_CAP: usize = 16 * 1024;

/// One shard's last-known-good pages: path → the latest fresh 200,
/// served marked stale while the shard's worker is down. Bodies are
/// shared: a degraded answer costs a refcount under the mutex, not a
/// copy of the page.
#[derive(Default)]
struct Lkg {
    map: Mutex<HashMap<String, LkgPage>>,
}

#[derive(Clone)]
struct LkgPage {
    content_type: &'static str,
    body: Arc<str>,
}

impl Lkg {
    /// Remembers a fresh 200. A copy already stored byte-identical is
    /// left alone — the warm path pays a compare, not an allocation and
    /// a body copy. Returns `false` when the map is full and `path` is
    /// not in it: the response is not remembered.
    fn remember(&self, path: &str, response: &Response) -> bool {
        let page = || LkgPage {
            content_type: response.content_type,
            body: response.body.as_str().into(),
        };
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(stored) = map.get_mut(path) {
            if *stored.body != *response.body || stored.content_type != response.content_type {
                *stored = page();
            }
            return true;
        }
        if map.len() >= LKG_CAP {
            return false;
        }
        map.insert(path.to_owned(), page());
        true
    }

    fn get(&self, path: &str) -> Option<LkgPage> {
        self.map
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(path)
            .cloned()
    }
}

/// What the router makes of a proxied exchange. One function for both
/// paths a click takes — the pool's [`ClusterService::proxy_to`] and the
/// reactor's [`Forward`] — so the two cannot disagree.
struct Policy {
    /// Request totals and the route histogram.
    metrics: ServerMetrics,
    /// Pre-built per-shard route labels.
    shard_routes: Vec<String>,
    /// Last-known-good pages, per shard.
    lkg: Vec<Lkg>,
    /// Fresh 200s a full [`Lkg`] refused to remember.
    lkg_dropped_total: AtomicU64,
    degraded_total: AtomicU64,
    unavailable_total: AtomicU64,
    proxy_errors_total: AtomicU64,
}

impl Policy {
    fn new(shards: usize) -> Policy {
        Policy {
            metrics: ServerMetrics::new(),
            shard_routes: (0..shards).map(|i| format!("shard/{i}")).collect(),
            lkg: (0..shards).map(|_| Lkg::default()).collect(),
            lkg_dropped_total: AtomicU64::new(0),
            degraded_total: AtomicU64::new(0),
            unavailable_total: AtomicU64::new(0),
            proxy_errors_total: AtomicU64::new(0),
        }
    }

    /// Settles one proxied request. `fetched` is the worker's answer or
    /// the exchange's error, `None` when no worker was up to ask. A fresh
    /// 200 of a page refreshes the last-known-good copy; a reserved
    /// endpoint such as `/debug/trace` changes as the worker serves and
    /// is never stored. A failure is counted and answered from that
    /// copy, marked stale — never a reset — or, for a path never seen
    /// fresh, with a 503. A click books its latency since
    /// it `started` under its shard's route; the warm crawl passes `None`.
    fn settle(
        &self,
        shard: usize,
        routed: &str,
        fetched: Option<io::Result<ParsedResponse>>,
        started: Option<Instant>,
    ) -> Reply {
        let reply = match fetched {
            Some(Ok(parsed)) => {
                let response = Response {
                    status: parsed.status,
                    content_type: static_content_type(&parsed.content_type),
                    body: parsed.body,
                    degraded: parsed.degraded,
                };
                if response.status == 200
                    && !response.degraded
                    && !is_reserved(routed)
                    && !self.lkg[shard].remember(routed, &response)
                {
                    self.lkg_dropped_total.fetch_add(1, Ordering::Relaxed);
                }
                response.into()
            }
            failed => {
                if failed.is_some() {
                    self.proxy_errors_total.fetch_add(1, Ordering::Relaxed);
                }
                self.stale_copy(shard, routed)
            }
        };
        if let Some(started) = started {
            self.metrics.record(&self.shard_routes[shard], micros_since(started));
        }
        reply
    }

    fn stale_copy(&self, shard: usize, routed: &str) -> Reply {
        if let Some(page) = self.lkg[shard].get(routed) {
            self.degraded_total.fetch_add(1, Ordering::Relaxed);
            return Reply {
                status: 200,
                content_type: page.content_type,
                body: Body::Shared(page.body),
                degraded: true,
            };
        }
        self.unavailable_total.fetch_add(1, Ordering::Relaxed);
        Response::status_text(503, "shard temporarily unavailable, retry shortly\n".into()).into()
    }
}

/// A click the router's epoll reactor forwards itself
/// ([`ClickService::try_forward`]): an idle kept-alive socket taken from
/// the owner worker's `Upstream`, the exchange on it, and the click it
/// settles. The reactor registers the socket in its epoll set, drives
/// the exchange without waiting and settles it when it ends, fails or
/// runs out of time.
pub struct Forward {
    conn: proxy::Conn,
    exchange: proxy::Exchange,
    click: Click,
}

/// A proxied click apart from its socket: where it goes, by when, and
/// what settles it.
pub(crate) struct Click {
    upstream: Arc<Upstream>,
    shard: usize,
    routed: String,
    until: Instant,
    started: Instant,
    policy: Arc<Policy>,
}

impl Forward {
    /// The upstream socket, for the reactor's epoll set.
    pub(crate) fn socket(&self) -> &std::net::TcpStream {
        self.conn.socket()
    }

    /// Whether request bytes are still to be written: the socket waits
    /// to be writable, not readable.
    pub(crate) fn writing(&self) -> bool {
        !self.exchange.unsent().is_empty()
    }

    /// The click's deadline, which the reactor's sweep enforces.
    pub(crate) fn until(&self) -> Instant {
        self.click.until
    }

    /// Moves the exchange on as far as the socket allows, never waiting.
    pub(crate) fn pump(&mut self) -> Step {
        self.conn.pump(&mut self.exchange)
    }

    /// Ends the forward: `failed` is `None` once [`Forward::pump`] came
    /// to `Done`. A complete exchange returns its socket to the stack; a
    /// failed one drops it. A stale reused socket earns the click its one
    /// retry (`Err`), which connects and so runs on the render pool
    /// ([`Click::refetch`]); everything else is settled here.
    pub(crate) fn settle(self, failed: Option<Failed>) -> Result<Reply, Click> {
        let Forward {
            mut conn,
            exchange,
            click,
        } = self;
        let fetched = match failed {
            None => {
                let done = conn.end(exchange);
                Ok(click.upstream.finish(conn, done))
            }
            Some(failed) => match click.upstream.retry_rule(failed) {
                Ok(()) => return Err(click),
                Err(error) => Err(error),
            },
        };
        Ok(click.settle(Some(fetched)))
    }
}

impl Click {
    /// The retry a stale socket earned: one exchange on a fresh
    /// connection by the click's deadline, blocking — a pool thread's job.
    pub(crate) fn refetch(self) -> Response {
        let fetched = self.upstream.fetch_fresh(&self.routed, self.until);
        self.settle(Some(fetched)).into_response()
    }

    fn settle(&self, fetched: Option<io::Result<ParsedResponse>>) -> Reply {
        self.policy
            .settle(self.shard, &self.routed, fetched, Some(self.started))
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
    /// Serves one request on the calling thread: the router's own
    /// endpoints, or a click proxied with `ClusterService::proxy_to`.
    fn handle(&self, path: &str) -> Response {
        let start = Instant::now();
        let routed = path.split('?').next().unwrap_or(path);
        let (route, response) = match routed {
            "/metrics" => ("metrics", Response::text(self.stats_text())),
            "/healthz" => ("healthz", Response::text("ok\n".into())),
            "/readyz" => {
                let fleet = (self.ready_workers(), self.slots.len());
                ("readyz", self.gate.readyz(Some(fleet)))
            }
            // A click books its own route when it settles.
            _ => return self.proxy_to(routed, Some(start)).into_response(),
        };
        self.policy.metrics.record(route, micros_since(start));
        response
    }
    /// A click to a worker with an idle socket: the reactor forwards it
    /// (see [`Forward`]). The route and idle-stack locks are held for an
    /// `Arc` clone and a pop; nothing here connects or waits.
    fn try_forward(&self, path: &str) -> Option<Forward> {
        let started = Instant::now();
        let routed = path.split('?').next().unwrap_or(path);
        if matches!(routed, "/metrics" | "/healthz" | "/readyz") {
            return None;
        }
        let shard = router::shard_of_path(routed, self.slots.len());
        let upstream = self.slots[shard].upstream()?;
        let mut conn = upstream.take_idle()?;
        Some(Forward {
            exchange: conn.start(routed),
            conn,
            click: Click {
                upstream,
                shard,
                routed: routed.to_owned(),
                until: started + self.config.request_deadline,
                started,
                policy: Arc::clone(&self.policy),
            },
        })
    }
    /// Primes the router's last-known-good copies: the
    /// [`crawl::crawl`] from `/`, each URL fetched through its worker.
    /// After this, degraded mode can serve every page of the site.
    /// `_parallelism` is ignored, as by [`crate::SiteService::warm`].
    fn warm(&self, _parallelism: Parallelism) -> Result<WarmupReport, ServeError> {
        let start = Instant::now();
        let site = crawl::crawl(|url| {
            let reply = self.proxy_to(url, None);
            Ok::<_, ServeError>((reply.status == 200).then_some(reply.body))
        })?;
        Ok(WarmupReport {
            pages: site.urls.len(),
            levels: site.levels,
            elapsed_us: micros_since(start),
        })
    }
    fn transport(&self) -> Option<&TransportCounters> {
        Some(&self.transport)
    }
}

fn micros_since(start: Instant) -> u64 {
    start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

/// Maps a proxied `Content-Type` back onto the static strings
/// [`Response`] carries (this server only ever emits these two).
fn static_content_type(ct: &str) -> &'static str {
    match ct {
        "text/html; charset=utf-8" => "text/html; charset=utf-8",
        _ => "text/plain; charset=utf-8",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(&*lkg.get("/page/A").unwrap().body, "<p>v2</p>");
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
        assert_eq!(&*lkg.get("/page/A/i:0").unwrap().body, "<p>v2</p>");
    }

    #[test]
    fn debug_pages_are_answered_but_never_kept_as_last_known_good() {
        let policy = Policy::new(1);
        let fresh = |body: &str| {
            Some(Ok(ParsedResponse {
                status: 200,
                content_type: "text/plain; charset=utf-8".into(),
                body: body.into(),
                degraded: false,
                keep_alive: true,
            }))
        };
        for path in ["/debug/trace", "/debug/explain", "/debug/explain/A"] {
            let reply = policy.settle(0, path, fresh("trace #1"), None);
            assert_eq!(reply.into_response().body, "trace #1", "{path} is answered");
            assert!(policy.lkg[0].get(path).is_none(), "{path} is not stored");
            // With its worker down, a debug page has no stale copy to serve.
            let down = policy.settle(0, path, None, None).into_response();
            assert_eq!((down.status, down.degraded), (503, false), "{path}");
        }
        assert_eq!(policy.lkg[0].map.lock().unwrap().len(), 0, "no slot taken");
        assert_eq!(policy.lkg_dropped_total.load(Ordering::Relaxed), 0);
        // A page is still remembered.
        policy.settle(0, "/page/A", fresh("<p>a</p>"), None);
        assert!(policy.lkg[0].get("/page/A").is_some());
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
}
