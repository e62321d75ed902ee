//! Sharded epoch-snapshot serving: N per-core service shards behind one
//! front.
//!
//! A [`ShardedService`] owns `n` independent [`SiteService`]s. Every
//! request path is routed to one shard by a stable FNV-1a hash of the
//! path ([`crate::router::shard_of_path`]) — the same page always lands
//! on the same shard, across restarts and deltas. Each shard owns its
//! *own* click-time engine (page-view cache + compiled-guard cache) and
//! its own HTML cache, so shards share **no mutable state** on the read
//! path: a warm click touches only its shard's cache — one uncontended
//! read lock, no cross-core cache-line bouncing. This is the share-nothing horizontal-scaling
//! shape the ROADMAP's cross-process consistent-hash router extends.
//!
//! Writes are the opposite: a single writer serializes every
//! [`GraphDelta`] and broadcasts it to all shards, returning only after
//! the last shard has swapped its snapshot — the *epoch barrier*. The
//! optional paged store commits each delta once, durably, before any
//! shard applies it. During the broadcast a shard is either entirely
//! pre-delta or entirely post-delta (each shard's own apply is atomic
//! with respect to its readers), so every response is a consistent
//! rendering of one epoch — never a mix — and once `apply_delta`
//! returns, all shards serve the new epoch.
//!
//! `/metrics` is answered at the front: aggregated totals in the same
//! `strudel_*` rows an unsharded server emits, plus per-shard
//! `strudel_shard_*` rows.

use crate::metrics::{push_rows, ServerMetrics};
use crate::{
    router, ClickService, DeltaGate, Response, ServeError, ServerStats, ServiceInvalidation,
    SiteService, TransportCounters, WarmHit, WarmupReport,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use strudel_graph::GraphDelta;
use strudel_repo::Database;
use strudel_schema::dynamic::{Mode, PageKey};
use strudel_struql::{Parallelism, Program};
use strudel_template::TemplateSet;

/// The result of broadcasting one delta to every shard.
#[derive(Clone, Debug)]
pub struct ShardedInvalidation {
    /// Per-shard outcomes, in shard order. A shard that failed mid-apply
    /// and was rebuilt contributes a default (empty) outcome.
    pub shards: Vec<ServiceInvalidation>,
    /// Shards that failed (error or panic) after the store and the
    /// shard-0 gate committed, and were rebuilt wholesale from shard 0's
    /// post-delta snapshot instead of diverging an epoch behind.
    pub rebuilt_shards: Vec<usize>,
}

impl ShardedInvalidation {
    /// HTML-cache entries evicted across all shards.
    pub fn html_evicted(&self) -> usize {
        self.shards.iter().map(|s| s.html_evicted).sum()
    }

    /// Cached page views maintained in place across all shards.
    pub fn updated(&self) -> usize {
        self.shards.iter().map(|s| s.engine.updated).sum()
    }

    /// Cached page views evicted across all shards.
    pub fn evicted(&self) -> usize {
        self.shards.iter().map(|s| s.engine.evicted).sum()
    }
}

/// N per-core service shards behind one hash-routing front (see module
/// docs). All methods take `&self`; wrap it in an [`Arc`] and hand it to
/// [`crate::serve`].
pub struct ShardedService {
    shards: Vec<SiteService>,
    /// Pre-built front route labels (`shard/0`…), so routing a request
    /// never allocates a label.
    shard_routes: Vec<String>,
    /// Front metrics: per-shard request counts and latency, plus the
    /// front-answered routes.
    metrics: ServerMetrics,
    /// What the transport reports: its events have no owning shard.
    transport: TransportCounters,
    /// The single delta writer and the optional durable paged store,
    /// committed once per delta before any shard applies it.
    gate: DeltaGate,
    /// Deltas visible on *all* shards (bumped after the epoch barrier).
    deltas: AtomicU64,
}

impl ShardedService {
    /// Builds `shards` independent services from loose parts. Every
    /// shard starts from the same database snapshot (an `Arc` clone, not
    /// a copy) and compiles its own guard cache.
    pub fn from_parts(
        db: Arc<Database>,
        program: &Program,
        templates: TemplateSet,
        root_collection: &str,
        mode: Mode,
        shards: usize,
    ) -> Self {
        let n = shards.max(1);
        let shards: Vec<SiteService> = (0..n)
            .map(|_| {
                SiteService::from_parts(db.clone(), program, templates.clone(), root_collection, mode)
            })
            .collect();
        ShardedService {
            shard_routes: (0..n).map(|i| format!("shard/{i}")).collect(),
            shards,
            metrics: ServerMetrics::new(),
            transport: TransportCounters::default(),
            gate: DeltaGate::new(None),
            deltas: AtomicU64::new(0),
        }
    }

    /// Builds a sharded service from a built [`strudel::Site`].
    pub fn new(site: &strudel::Site, mode: Mode, shards: usize) -> Self {
        Self::from_parts(
            site.database.clone(),
            &site.program,
            site.templates.clone(),
            &site.root_collection,
            mode,
            shards,
        )
    }

    /// Attaches a paged store the delta writer keeps write-through
    /// consistent: each delta commits durably exactly once, before any
    /// shard's in-memory snapshot swaps.
    pub fn with_paged_store(mut self, store: strudel_repo::PagedRepo) -> Self {
        self.gate = DeltaGate::new(Some(store));
        self
    }

    /// Sets every shard's slow-request threshold (builder form).
    pub fn with_slow_threshold_us(self, us: u64) -> Self {
        for s in &self.shards {
            s.set_slow_threshold_us(us);
        }
        self
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a request path routes to.
    pub fn shard_for(&self, path: &str) -> usize {
        let routed = path.split('?').next().unwrap_or(path);
        router::shard_of_path(routed, self.shards.len())
    }

    /// One shard, for tests and aggregation.
    pub fn shard(&self, i: usize) -> &SiteService {
        &self.shards[i]
    }

    /// The stable URL of a page (all shards agree; asks shard 0).
    pub fn url_of(&self, key: &PageKey) -> String {
        self.shards[0].url_of(key)
    }

    /// Deltas visible on every shard (the barrier epoch).
    pub fn delta_epoch(&self) -> u64 {
        self.deltas.load(Ordering::Acquire)
    }

    /// Serves one request path. `/metrics` and `/debug/trace` are
    /// answered at the front (they aggregate across shards); everything
    /// else routes to its owner shard by path hash.
    pub fn handle(&self, path: &str) -> Response {
        let start = Instant::now();
        let routed = path.split('?').next().unwrap_or(path);
        let (route, response) = match routed {
            "/metrics" => ("metrics", Response::text(self.stats_text())),
            "/healthz" => ("healthz", Response::text("ok\n".into())),
            // Readiness is answered at the front: the store lives here,
            // not on the shards, so only the front sees its poisoning.
            "/readyz" => ("readyz", self.gate.readyz(None)),
            "/debug/trace" => ("debug/trace", Response::text(self.debug_trace_text())),
            _ => {
                let idx = router::shard_of_path(routed, self.shards.len());
                let response = self.shards[idx].handle(path);
                (self.shard_routes[idx].as_str(), response)
            }
        };
        let us = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        self.metrics.record(route, us);
        response
    }

    /// The reactor's fast path ([`ClickService::try_warm`]): forwards to
    /// the owner shard's [`SiteService::try_warm`] and records a hit on
    /// the front's per-shard route like [`ShardedService::handle`]. The
    /// front-answered routes are not pages, so the shard declines them.
    pub fn try_warm(&self, path: &str) -> Option<WarmHit> {
        let start = Instant::now();
        let idx = self.shard_for(path);
        let hit = self.shards[idx].try_warm(path)?;
        let us = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        self.metrics.record(&self.shard_routes[idx], us);
        Some(hit)
    }

    /// Pre-renders every reachable page into its *owner shard's* cache —
    /// each page is rendered once, on the shard that will serve it. BFS
    /// level by level from the roots, fanned across `parallelism`
    /// workers.
    pub fn warm(&self, parallelism: Parallelism) -> Result<WarmupReport, ServeError> {
        SiteService::warm_cores(&self.shards, parallelism)
    }

    /// Broadcasts one delta to every shard: the single writer commits it
    /// durably once (if a store is attached), validates it on shard 0,
    /// then applies it to the remaining shards in parallel and returns
    /// only after **all** shards have swapped — the epoch barrier. Any
    /// click served during the broadcast sees one shard's snapshot,
    /// entirely pre- or entirely post-delta; after this returns, every
    /// shard serves the new epoch.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<ShardedInvalidation, ServeError> {
        // A predecessor that panicked mid-broadcast was already repaired
        // below, so the gate lets later deltas proceed.
        let _writer = self.gate.commit(delta)?;
        // Shard 0 is the validation gate: deltas are deterministic over
        // identical graphs, so a delta that applies here applies
        // everywhere — an invalid one is rejected before any other
        // shard (or any reader) sees it.
        let first = self.shards[0].apply_delta(delta)?;
        let mut outcomes = vec![first];
        let mut rebuilt_shards = Vec::new();
        if self.shards.len() > 1 {
            let rest: Vec<_> = std::thread::scope(|scope| {
                let handles: Vec<_> = self.shards[1..]
                    .iter()
                    .map(|s| scope.spawn(move || s.apply_delta(delta)))
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            });
            for (i, r) in rest.into_iter().enumerate() {
                match r {
                    Ok(Ok(outcome)) => outcomes.push(outcome),
                    // Past the gate the delta is committed — the store
                    // and shard 0 already advanced, so a shard that
                    // errors or panics here must not strand the barrier
                    // an epoch behind (its replies would mix epochs with
                    // its siblings'). Rebuild it wholesale from shard
                    // 0's post-delta snapshot and carry on.
                    Ok(Err(_)) | Err(_) => {
                        let idx = i + 1;
                        self.shards[idx].resync_from(&self.shards[0]);
                        outcomes.push(ServiceInvalidation {
                            engine: Default::default(),
                            html_evicted: 0,
                        });
                        rebuilt_shards.push(idx);
                    }
                }
            }
        }
        self.deltas.fetch_add(1, Ordering::Release);
        Ok(ShardedInvalidation {
            shards: outcomes,
            rebuilt_shards,
        })
    }

    /// Aggregated stats in the unsharded [`ServerStats`] shape: front
    /// request totals/latency and transport counters, cache and engine
    /// counters summed over the shards.
    pub fn stats(&self) -> ServerStats {
        ServerStats::assemble(
            &self.metrics,
            Some(&self.transport),
            &self.shards,
            self.delta_epoch(),
            self.gate.is_poisoned(),
        )
    }

    /// The `/metrics` body: the aggregated `strudel_*` rows an unsharded
    /// server emits, followed by per-shard `strudel_shard_*` rows.
    pub fn stats_text(&self) -> String {
        let stats = self.stats();
        let mut out = stats.to_text();
        push_rows(&mut out, &[("strudel_shards", self.shards.len() as u64)]);
        for (i, s) in self.shards.iter().enumerate() {
            let front = stats.routes.iter().find(|r| r.route == self.shard_routes[i]);
            let (requests, p99) = front.map_or((0, 0), |r| (r.requests, r.p99_us));
            let cache = s.cache().stats();
            let row = |name: &str| format!("{name}{{shard=\"{i}\"}}");
            push_rows(
                &mut out,
                &[
                    (&row("strudel_shard_requests_total"), requests),
                    (
                        &format!("strudel_shard_latency_us{{shard=\"{i}\",quantile=\"0.99\"}}"),
                        p99,
                    ),
                    (&row("strudel_shard_epoch"), s.engine().epoch()),
                    (&row("strudel_shard_html_cache_entries"), cache.entries),
                    (&row("strudel_shard_published_hits_total"), cache.published_hits),
                ],
            );
        }
        out
    }

    /// The `/debug/trace` body: the global trace snapshot once, then
    /// every shard's slow-request log.
    pub fn debug_trace_text(&self) -> String {
        SiteService::trace_text(&self.shards)
    }
}

impl ClickService for ShardedService {
    fn handle(&self, path: &str) -> Response {
        ShardedService::handle(self, path)
    }
    fn try_warm(&self, path: &str) -> Option<WarmHit> {
        ShardedService::try_warm(self, path)
    }
    fn warm(&self, parallelism: Parallelism) -> Result<WarmupReport, ServeError> {
        ShardedService::warm(self, parallelism)
    }
    fn transport(&self) -> Option<&TransportCounters> {
        Some(&self.transport)
    }
}
