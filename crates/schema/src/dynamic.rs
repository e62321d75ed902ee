//! Dynamic ("click-time") site evaluation.
//!
//! The prototype of the paper materializes whole site graphs up front,
//! which "is infeasible for sites that are updated frequently" (§2.5).
//! Site schemas are the fix: they "specify, for each node in the site
//! graph, the queries that must be evaluated to compute the node's
//! contents, i.e. its outgoing edges". [`DynamicSite`] is that engine: it
//! materializes one page's out-edges when the page is first visited.
//!
//! Three evaluation modes reproduce the paper's optimization story:
//!
//! * [`Mode::Naive`] — each click evaluates every relevant edge guard from
//!   scratch and filters the result to the visited page. "Naive evaluation
//!   of these queries is costly, because they often recompute information
//!   derived for already browsed pages."
//! * [`Mode::Context`] — the visited page's Skolem arguments seed the
//!   guard evaluation ("we can optimize its incremental query using
//!   contexts derived from the paths that reach the node"), so the planner
//!   starts from bound variables and touches only the relevant slice of
//!   the data.
//! * [`Mode::ContextLookahead`] — additionally "precompute look-ahead
//!   results for queries of reachable nodes": visiting a page prefetches
//!   its children into the cache, so following a link is usually a cache
//!   hit.
//!
//! ## Concurrency
//!
//! The engine is shared: [`DynamicSite::visit`] takes `&self`, so one
//! engine serves a whole worker pool. The page cache lives in sharded
//! read/write locks keyed by [`PageKey`]; the database is a swappable
//! `Arc` snapshot so [`DynamicSite::apply_delta`] can install an updated
//! database while readers keep serving. An epoch counter fences the race
//! between a visit computed against the old snapshot and a concurrent
//! delta: cache inserts carry the epoch they were computed under and are
//! dropped if a delta landed in between. In the other direction, a delta
//! replaces or evicts its dirty cached views inside the critical section
//! that bumps the epoch, and both public epoch reads
//! ([`DynamicSite::snapshot`], [`DynamicSite::epoch`]) serialise against
//! that section, so a reader holding the new epoch never sees a pre-delta
//! view.
//!
//! ## Differential maintenance
//!
//! Each cached page keeps, beside its rendered [`PageView`], the signed
//! bindings rows of every guard that produced it. [`DynamicSite::apply_delta`]
//! then *maintains* dirty cached pages instead of evicting them: the delta
//! is propagated through each touched guard by
//! [`diff_where`](strudel_struql::diff_where), the signed diff is applied
//! to the stored rows with exact count-based retraction, and the view is
//! re-projected — no guard re-evaluation on the next visit. Pages whose
//! state cannot absorb the diff (no stored rows, a count underflow, a
//! variable-layout mismatch) fall back to eviction and full re-evaluation.
//! Two O(site) costs are engineered out of the delta path so maintenance
//! scales with |Δ| rather than site size: a standby twin database is
//! double-buffered across deltas (each swap applies the delta to the twin
//! in O(|Δ|) instead of re-indexing a graph clone), and the optimizer
//! statistics are carried forward with a bounded drift instead of being
//! rescanned.

use crate::invalidate::{self, DirtySet};
use crate::site_schema::SchemaEdge;
use crate::{SchemaNode, SiteSchema};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use strudel_graph::{GraphDelta, Value};
use strudel_repo::Database;
use strudel_struql::{
    apply_diff, diff_where, Condition, DeltaTouch, EvalOptions, Evaluator, ExplainReport,
    LabelTerm, Parallelism, PreparedWhere, Program, SignedRow, StruqlError, StruqlResult, Term,
};

/// Evaluation strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Full guard evaluation per click, filtered to the visited page.
    Naive,
    /// Seed guard evaluation with the page's Skolem arguments.
    Context,
    /// Context seeding plus one level of child prefetch.
    ContextLookahead,
}

/// Identifies a dynamic page: a Skolem symbol applied to data values.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PageKey {
    /// Skolem symbol.
    pub symbol: String,
    /// Fully evaluated arguments (data-graph values).
    pub args: Vec<Value>,
}

/// A link target on a dynamic page.
#[derive(Clone, Debug, PartialEq)]
pub enum DynTarget {
    /// Another dynamic page.
    Page(PageKey),
    /// A data value (possibly a data-graph node).
    Data(Value),
}

/// One materialized page: its outgoing labeled edges.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PageView {
    /// `(label, target)` pairs in derivation order, deduplicated.
    pub edges: Vec<(String, DynTarget)>,
}

/// Work counters across the browsing session (a consistent-enough
/// snapshot of the engine's atomic counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Pages served (including cache hits).
    pub clicks: usize,
    /// Guard evaluations run.
    pub queries_run: usize,
    /// Bindings rows produced by those evaluations.
    pub rows_produced: usize,
    /// Pages served straight from the cache.
    pub cache_hits: usize,
    /// Pages evicted by delta invalidation.
    pub evictions: usize,
    /// Guard evaluations that executed a cached prepared plan.
    pub plan_cache_hits: usize,
    /// Guard evaluations that had to analyze/plan/compile first.
    pub plan_cache_misses: usize,
    /// Cached pages updated in place by differential maintenance.
    pub diff_pages_updated: usize,
    /// Dirty cached pages that fell back to eviction (no stored rows,
    /// count underflow, or a variable-layout mismatch).
    pub diff_fallbacks: usize,
    /// Bindings rows inserted by differential maintenance.
    pub diff_rows_added: usize,
    /// Bindings rows retracted by differential maintenance.
    pub diff_rows_retracted: usize,
}

/// The result of applying a data delta to a live engine.
#[derive(Clone, Debug, Default)]
pub struct InvalidationOutcome {
    /// What the delta dirtied (exact pages + wholesale symbols).
    pub dirty: DirtySet,
    /// How many cached page views were actually evicted.
    pub evicted: usize,
    /// How many cached page views were maintained in place instead of
    /// being evicted.
    pub updated: usize,
}

/// Number of cache shards; a small power of two is plenty — contention
/// is per-key and guard evaluation dominates hold times.
const SHARDS: usize = 16;

/// The compiled-query cache: per guard, the analyzed/planned/NFA-compiled
/// [`PreparedWhere`] valid for one database epoch. A prepared plan bakes
/// in interned label ids and cardinality statistics, so entries from
/// before a delta are unusable — the cache self-invalidates by comparing
/// its epoch stamp against the engine's.
struct PreparedCache {
    /// The epoch every entry in `map` was prepared under.
    epoch: u64,
    /// Keyed by schema-edge index; root collects use
    /// `schema.edges.len() + collect index`.
    map: HashMap<usize, Arc<PreparedWhere>>,
}

/// The signed bindings rows of one schema edge's guard, seeded for one
/// page: the delta-ready state that lets [`DynamicSite::apply_delta`]
/// maintain the page without re-running the guard.
#[derive(Clone, Debug)]
struct EdgeRows {
    /// Index into `schema.edges`.
    ei: usize,
    /// The prepared plan's variable layout (seed names first, then the
    /// guard's variables in textual order); diffs must match it exactly.
    vars: Vec<String>,
    /// Count-annotated bindings rows (count = derivation multiplicity),
    /// in first-derivation order.
    rows: Vec<SignedRow>,
}

/// Everything cached for one page: the served view plus the guard rows
/// it was projected from.
#[derive(Clone, Debug)]
struct Cached {
    view: PageView,
    /// One entry per contributing out-edge (in schema order); `None` in
    /// [`Mode::Naive`], whose unseeded rows span every page of the symbol.
    diff: Option<Vec<EdgeRows>>,
}

/// The double-buffered twin of the served snapshot. After each swap the
/// slot holds the *previous* live `Arc`, behind the live database by the
/// deltas in `lag`; the next [`DynamicSite::apply_delta`] reclaims it
/// (once the last outside reader drops it), catches it up in O(|lag|),
/// and applies the new delta — avoiding the O(site) clone-and-reindex on
/// every delta.
#[derive(Default)]
struct Standby {
    db: Option<Arc<Database>>,
    lag: Vec<GraphDelta>,
}

/// A dynamically evaluated site over a live database, shareable across
/// threads (`visit` takes `&self`).
pub struct DynamicSite {
    db: RwLock<Arc<Database>>,
    schema: SiteSchema,
    mode: Mode,
    parallelism: Parallelism,
    shards: Vec<RwLock<HashMap<PageKey, Cached>>>,
    /// Bumped by every applied delta; fences stale cache inserts.
    epoch: AtomicU64,
    /// Compiled guard plans for the current epoch.
    prepared: RwLock<PreparedCache>,
    /// Standby twin database; the Mutex also serializes delta writers.
    standby: Mutex<Standby>,
    /// Test hook, see [`DynamicSite::arm_swap_probe`].
    swap_probe: OnceLock<Box<dyn Fn() + Send + Sync>>,
    /// Delta ops absorbed since the optimizer statistics were last
    /// recomputed from scratch; bounds stats carry-forward drift.
    stats_drift: AtomicUsize,
    clicks: AtomicUsize,
    queries_run: AtomicUsize,
    rows_produced: AtomicUsize,
    cache_hits: AtomicUsize,
    evictions: AtomicUsize,
    plan_cache_hits: AtomicUsize,
    plan_cache_misses: AtomicUsize,
    diff_pages_updated: AtomicUsize,
    diff_fallbacks: AtomicUsize,
    diff_rows_added: AtomicUsize,
    diff_rows_retracted: AtomicUsize,
}

impl DynamicSite {
    /// Builds the engine for `program` over `db`.
    pub fn new(db: Arc<Database>, program: &Program, mode: Mode) -> Self {
        DynamicSite {
            db: RwLock::new(db),
            schema: SiteSchema::extract(program),
            mode,
            parallelism: Parallelism::default(),
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            epoch: AtomicU64::new(0),
            prepared: RwLock::new(PreparedCache {
                epoch: 0,
                map: HashMap::new(),
            }),
            standby: Mutex::new(Standby::default()),
            swap_probe: OnceLock::new(),
            stats_drift: AtomicUsize::new(0),
            clicks: AtomicUsize::new(0),
            queries_run: AtomicUsize::new(0),
            rows_produced: AtomicUsize::new(0),
            cache_hits: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            plan_cache_hits: AtomicUsize::new(0),
            plan_cache_misses: AtomicUsize::new(0),
            diff_pages_updated: AtomicUsize::new(0),
            diff_fallbacks: AtomicUsize::new(0),
            diff_rows_added: AtomicUsize::new(0),
            diff_rows_retracted: AtomicUsize::new(0),
        }
    }

    /// Sets the worker budget for guard evaluation. Served page views are
    /// identical at any setting (see `strudel_struql::par`); only latency
    /// on guard-heavy pages changes.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The configured worker budget.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    fn evaluator<'db>(&self, db: &'db Database) -> Evaluator<'db> {
        Evaluator::with_options(
            db,
            EvalOptions {
                parallelism: self.parallelism,
                ..Default::default()
            },
        )
    }

    /// Work counters so far.
    pub fn metrics(&self) -> Metrics {
        Metrics {
            clicks: self.clicks.load(Ordering::Relaxed),
            queries_run: self.queries_run.load(Ordering::Relaxed),
            rows_produced: self.rows_produced.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            plan_cache_hits: self.plan_cache_hits.load(Ordering::Relaxed),
            plan_cache_misses: self.plan_cache_misses.load(Ordering::Relaxed),
            diff_pages_updated: self.diff_pages_updated.load(Ordering::Relaxed),
            diff_fallbacks: self.diff_fallbacks.load(Ordering::Relaxed),
            diff_rows_added: self.diff_rows_added.load(Ordering::Relaxed),
            diff_rows_retracted: self.diff_rows_retracted.load(Ordering::Relaxed),
        }
    }

    /// Number of pages currently materialized in the cache.
    pub fn cached_pages(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap().len()).sum()
    }

    /// The current database snapshot.
    pub fn database(&self) -> Arc<Database> {
        self.db.read().unwrap().clone()
    }

    /// The current database snapshot, or `None` rather than waiting when
    /// a delta holds (or queues for) the snapshot lock —
    /// [`DynamicSite::apply_delta`] keeps it write-locked across the
    /// whole view swap, and a caller that must never park behind that
    /// (the serving layer's reactor thread) asks here.
    pub fn try_database(&self) -> Option<Arc<Database>> {
        self.db.try_read().ok().map(|db| db.clone())
    }

    /// The current `(epoch, database)` pair, read consistently: the epoch
    /// is bumped under the database write lock, so holding the read lock
    /// across both reads guarantees the epoch stamps exactly this
    /// snapshot. Prepared plans and cache inserts are keyed by it, and
    /// the serving layer's epoch-published snapshot promotion fences
    /// against it — a snapshot built at one epoch is never published
    /// under another.
    pub fn snapshot(&self) -> (u64, Arc<Database>) {
        let db = self.db.read().unwrap();
        (self.epoch.load(Ordering::Acquire), db.clone())
    }

    /// The prepared plan for guard `key` (a schema-edge index, or
    /// `edges.len() + i` for root collect `i`) at `epoch`, compiling and
    /// caching on miss. An entry prepared under an older epoch is never
    /// returned; an insert races a concurrent delta safely because the
    /// cache's epoch stamp only moves forward.
    fn prepared_for(
        &self,
        epoch: u64,
        ev: &Evaluator<'_>,
        key: usize,
        conds: &[Condition],
        seed_names: &[String],
    ) -> Arc<PreparedWhere> {
        let hit = {
            let c = self.prepared.read().unwrap();
            (c.epoch == epoch).then(|| c.map.get(&key).cloned()).flatten()
        };
        if let Some(p) = hit {
            self.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
            strudel_trace::count("engine.plan.cache.hits", 1);
            return p;
        }
        self.plan_cache_misses.fetch_add(1, Ordering::Relaxed);
        strudel_trace::count("engine.plan.cache.misses", 1);
        let p = Arc::new(ev.prepare_where(conds, seed_names));
        let mut c = self.prepared.write().unwrap();
        if c.epoch < epoch {
            // First prepare after a delta: flush the stale entries.
            c.map.clear();
            c.epoch = epoch;
        }
        if c.epoch == epoch {
            c.map.entry(key).or_insert_with(|| Arc::clone(&p));
        }
        // c.epoch > epoch: a delta landed mid-compute; drop the insert.
        drop(c);
        p
    }

    /// The extracted site schema.
    pub fn schema(&self) -> &SiteSchema {
        &self.schema
    }

    /// The evaluation mode this engine was built with.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The delta epoch: how many deltas have been applied. Read under the
    /// snapshot lock like [`DynamicSite::snapshot`], so it never reports a
    /// delta's epoch while that delta is still replacing cached views.
    pub fn epoch(&self) -> u64 {
        self.snapshot().0
    }

    fn shard_of(&self, key: &PageKey) -> &RwLock<HashMap<PageKey, Cached>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Inserts a computed page unless a delta landed since `epoch`.
    fn insert_if_current(&self, epoch: u64, key: PageKey, cached: Cached) {
        let mut shard = self.shard_of(&key).write().unwrap();
        if self.epoch.load(Ordering::Acquire) == epoch {
            shard.insert(key, cached);
        }
    }

    /// The site's entry points: every page collected by the query, by
    /// collection name.
    pub fn roots(&self, collection: &str) -> StruqlResult<Vec<PageKey>> {
        let (epoch, db) = self.snapshot();
        let ev = self.evaluator(&db);
        let mut out = Vec::new();
        for (ci, (collect, guard)) in self.schema.collects.iter().enumerate() {
            if collect.collection != collection {
                continue;
            }
            let Term::Skolem { symbol, args } = &collect.arg else {
                continue;
            };
            let prepared =
                self.prepared_for(epoch, &ev, self.schema.edges.len() + ci, guard, &[]);
            let rows = ev.eval_where_prepared(guard, &prepared, &[])?;
            self.queries_run.fetch_add(1, Ordering::Relaxed);
            self.rows_produced.fetch_add(rows.len(), Ordering::Relaxed);
            for row in &rows {
                let key = PageKey {
                    symbol: symbol.clone(),
                    args: eval_args(args, prepared.vars(), row)?,
                };
                if !out.contains(&key) {
                    out.push(key);
                }
            }
        }
        Ok(out)
    }

    /// Serves one click: the out-edges of `page`, computed on demand.
    /// Safe to call concurrently from any number of threads.
    pub fn visit(&self, page: &PageKey) -> StruqlResult<PageView> {
        let _span = strudel_trace::span("engine.visit");
        self.clicks.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = self.shard_of(page).read().unwrap().get(page) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            strudel_trace::count("engine.cache.hits", 1);
            return Ok(c.view.clone());
        }
        strudel_trace::count("engine.cache.misses", 1);
        // Epoch and snapshot are read consistently; if a delta lands
        // between compute and insert, the epoch check drops the insert.
        let (epoch, db) = self.snapshot();
        let cached = self.compute(&db, epoch, page)?;
        let view = cached.view.clone();
        self.insert_if_current(epoch, page.clone(), cached);
        if self.mode == Mode::ContextLookahead {
            // One level of look-ahead: materialize children now, while
            // their guards' context is warm.
            let children: Vec<PageKey> = view
                .edges
                .iter()
                .filter_map(|(_, t)| match t {
                    DynTarget::Page(k) => Some(k.clone()),
                    _ => None,
                })
                .collect();
            for child in children {
                if self.shard_of(&child).read().unwrap().contains_key(&child) {
                    continue;
                }
                let v = self.compute(&db, epoch, &child)?;
                self.insert_if_current(epoch, child, v);
            }
        }
        Ok(view)
    }

    /// Applies a data-graph delta: brings the standby twin database up to
    /// date in O(|Δ|), computes the dirty set, *maintains* dirty cached
    /// pages by propagating the delta through their stored guard rows
    /// (see the module docs), then — in one critical section — swaps the
    /// snapshot in, replaces the maintained views and evicts the dirty
    /// pages that could not be maintained. Concurrent `visit`s keep
    /// serving throughout (from the old snapshot until the swap, from the
    /// new one after).
    pub fn apply_delta(&self, delta: &GraphDelta) -> StruqlResult<InvalidationOutcome> {
        let _span = strudel_trace::span("engine.apply_delta");
        // The standby lock serializes delta writers end to end, so the
        // maintenance pass below races only with readers.
        let mut standby = self.standby.lock().unwrap();
        let old_db = self.database();
        // Atomicity: the delta is validated and applied against the twin,
        // and any error returns before the swap below — the twin (equal to
        // the live snapshot at that point) is parked for the next delta. A
        // rejected delta therefore leaves the served snapshot, the epoch,
        // and the page cache untouched.
        let mut twin = self.catch_up_standby(&mut standby, &old_db);
        if let Err(e) = twin.apply_delta(delta) {
            standby.db = Some(Arc::new(twin));
            standby.lag.clear();
            return Err(StruqlError::Eval {
                message: format!("delta does not apply: {e}"),
            });
        }
        self.carry_stats_forward(&old_db, &twin, delta.len());
        let dirty = invalidate::dirty_pages(&self.schema, &old_db, &twin, delta)?;

        // Maintain dirty cached pages against the pre/post databases
        // before the swap; fallbacks are evicted below.
        let touch = DeltaTouch::of(delta);
        let mut maintained: HashMap<PageKey, Cached> = HashMap::new();
        let mut fallbacks = 0usize;
        if !dirty.is_empty() {
            let old_ev = self.evaluator(&old_db);
            let new_ev = self.evaluator(&twin);
            // Enumerate dirty *cached* entries without scanning the whole
            // cache when the dirty set is exact — maintenance cost must
            // track |Δ|, not site size.
            let candidates: Vec<(PageKey, Cached)> = if dirty.symbols.is_empty() {
                dirty
                    .pages
                    .iter()
                    .filter_map(|k| {
                        let shard = self.shard_of(k).read().unwrap();
                        shard.get(k).map(|c| (k.clone(), c.clone()))
                    })
                    .collect()
            } else {
                self.shards
                    .iter()
                    .flat_map(|s| {
                        s.read()
                            .unwrap()
                            .iter()
                            .filter(|(k, _)| dirty.contains(k))
                            .map(|(k, c)| (k.clone(), c.clone()))
                            .collect::<Vec<_>>()
                    })
                    .collect()
            };
            for (key, cached) in candidates {
                match self.maintain_cached(&key, &cached, &old_ev, &new_ev, &touch) {
                    Some(updated) => {
                        maintained.insert(key, updated);
                    }
                    None => fallbacks += 1,
                }
            }
        }
        let updated = maintained.len();

        // Install the new snapshot; the epoch bump (under the same write
        // lock) invalidates in-flight computations against the old one.
        // The previous live Arc becomes the next standby, one delta behind.
        // Dirty views are replaced or evicted before the write lock drops:
        // `snapshot()` serialises against it, so no reader can pair the
        // new epoch with a pre-delta view — a rendition of one would pass
        // the serving layer's epoch fence and stay stale. A racing insert
        // computed against the old snapshot either lands first and is
        // replaced/evicted here, or sees the bumped epoch and is dropped.
        let new_db = Arc::new(twin);
        let mut evicted = 0;
        let new_epoch = {
            let mut db = self.db.write().unwrap();
            let e = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
            let prev = std::mem::replace(&mut *db, new_db);
            standby.db = Some(prev);
            standby.lag.clear();
            standby.lag.push(delta.clone());
            if let Some(probe) = self.swap_probe.get() {
                probe();
            }
            if dirty.symbols.is_empty() {
                for key in &dirty.pages {
                    let mut shard = self.shard_of(key).write().unwrap();
                    match maintained.remove(key) {
                        Some(cached) => {
                            shard.insert(key.clone(), cached);
                        }
                        None => evicted += usize::from(shard.remove(key).is_some()),
                    }
                }
            } else {
                for shard in &self.shards {
                    let mut map = shard.write().unwrap();
                    let before = map.len();
                    map.retain(|key, _| !dirty.contains(key) || maintained.contains_key(key));
                    evicted += before - map.len();
                }
                for (key, cached) in maintained {
                    self.shard_of(&key).write().unwrap().insert(key, cached);
                }
            }
            e
        };
        self.flush_prepared(new_epoch);
        drop(standby);

        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        self.diff_pages_updated.fetch_add(updated, Ordering::Relaxed);
        self.diff_fallbacks.fetch_add(fallbacks, Ordering::Relaxed);
        strudel_trace::count("engine.diff.pages.updated", updated as u64);
        strudel_trace::count("engine.diff.fallbacks", fallbacks as u64);
        strudel_trace::event_with("engine.invalidate", || {
            format!(
                "pages={} symbols={} evicted={evicted} updated={updated}",
                dirty.pages.len(),
                dirty.symbols.len()
            )
        });
        Ok(InvalidationOutcome {
            dirty,
            evicted,
            updated,
        })
    }

    /// Test hook: `probe` runs inside every later
    /// [`DynamicSite::apply_delta`], right after the epoch bump and
    /// snapshot swap and before the dirty cached views are replaced — the
    /// point where a concurrent reader must not be able to observe the new
    /// epoch. Arms once; later calls are ignored.
    #[doc(hidden)]
    pub fn arm_swap_probe(&self, probe: impl Fn() + Send + Sync + 'static) {
        let _ = self.swap_probe.set(Box::new(probe));
    }

    /// Produces an owned database equal to the live snapshot, preferring
    /// the parked standby twin (caught up through its lag deltas in
    /// O(|lag|)) and falling back to a full clone-and-reindex when there
    /// is no twin yet or an outside reader still holds it.
    fn catch_up_standby(&self, standby: &mut Standby, live: &Arc<Database>) -> Database {
        if let Some(arc) = standby.db.take() {
            if let Ok(mut db) = Arc::try_unwrap(arc) {
                let mut ok = true;
                for lagged in &standby.lag {
                    // Lag deltas were validated against exactly this
                    // lineage when they were applied to the live side, so
                    // failure here is a logic error; recover by rebuilding.
                    if db.apply_delta(lagged).is_err() {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    standby.lag.clear();
                    return db;
                }
            }
        }
        standby.lag.clear();
        strudel_trace::count("engine.diff.standby_rebuilds", 1);
        Database::from_graph(live.graph().clone(), live.level())
    }

    /// Seeds the twin's optimizer statistics from the live snapshot's
    /// cached ones, unless the accumulated drift since the last fresh scan
    /// exceeds the cap (then the next `stats()` call rescans). Statistics
    /// only steer join ordering, never results.
    fn carry_stats_forward(&self, old_db: &Database, twin: &Database, delta_ops: usize) {
        let drift =
            self.stats_drift.fetch_add(delta_ops, Ordering::Relaxed) + delta_ops;
        let cap = 256.max(twin.graph().edge_count() / 8);
        if drift <= cap {
            if let Some(stats) = old_db.cached_stats() {
                twin.seed_stats(stats);
            }
        } else {
            self.stats_drift.store(0, Ordering::Relaxed);
        }
    }

    /// Maintains one dirty cached page differentially: diffs every stored
    /// guard the delta touches, applies the signed rows with count-based
    /// retraction, and re-projects the view. `None` means the page must
    /// fall back to eviction (no stored rows, a diff the stored counts
    /// cannot absorb, a variable-layout mismatch, or a projection error).
    fn maintain_cached(
        &self,
        page: &PageKey,
        cached: &Cached,
        old_ev: &Evaluator<'_>,
        new_ev: &Evaluator<'_>,
        touch: &DeltaTouch,
    ) -> Option<Cached> {
        let edges = cached.diff.as_ref()?;
        let mut next: Vec<EdgeRows> = Vec::with_capacity(edges.len());
        let mut added = 0usize;
        let mut retracted = 0usize;
        for er in edges {
            let edge = &self.schema.edges[er.ei];
            if !touch.touches(&edge.guard) {
                next.push(er.clone());
                continue;
            }
            let seeds = self.seed_for_edge(edge, page)?;
            let out = diff_where(old_ev, new_ev, &edge.guard, &seeds, touch).ok()?;
            if out.vars != er.vars {
                return None;
            }
            let mut rows = er.rows.clone();
            if !apply_diff(&mut rows, &out.rows) {
                return None;
            }
            for (_, n) in &out.rows {
                if *n > 0 {
                    added += *n as usize;
                } else {
                    retracted += (-*n) as usize;
                }
            }
            next.push(EdgeRows {
                ei: er.ei,
                vars: er.vars.clone(),
                rows,
            });
        }
        let mut view = PageView::default();
        for er in &next {
            let edge = &self.schema.edges[er.ei];
            for (row, _) in &er.rows {
                match self.project_row(edge, &er.vars, row, page) {
                    Ok(Some(entry)) => {
                        if !view.edges.contains(&entry) {
                            view.edges.push(entry);
                        }
                    }
                    Ok(None) => {}
                    Err(_) => return None,
                }
            }
        }
        self.diff_rows_added.fetch_add(added, Ordering::Relaxed);
        self.diff_rows_retracted.fetch_add(retracted, Ordering::Relaxed);
        strudel_trace::count("engine.diff.rows.added", added as u64);
        strudel_trace::count("engine.diff.rows.retracted", retracted as u64);
        Some(Cached {
            view,
            diff: Some(next),
        })
    }

    /// Replaces the live database wholesale — the recovery path when a
    /// replica rebuilds a shard from the committed store rather than by
    /// incremental deltas. The standby lineage is discarded (its lag no
    /// longer describes the new snapshot), every cached page is dropped,
    /// and the epoch bump invalidates in-flight computations. Locks are
    /// taken poison-tolerantly: this runs precisely when a panic may
    /// have poisoned them, and the guarded state (plain maps/Arcs) stays
    /// structurally sound across a panic.
    pub fn reset_to(&self, db: Arc<Database>) {
        let mut standby = self.standby.lock().unwrap_or_else(|e| e.into_inner());
        let mut evicted = 0;
        let new_epoch = {
            let mut live = self.db.write().unwrap_or_else(|e| e.into_inner());
            let e = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
            *live = db;
            // Inside the write section, as in `apply_delta`: no reader may
            // pair the new epoch with a view of the old database.
            for shard in &self.shards {
                let mut map = shard.write().unwrap_or_else(|e| e.into_inner());
                evicted += map.len();
                map.clear();
            }
            e
        };
        standby.db = None;
        standby.lag.clear();
        drop(standby);
        self.flush_prepared(new_epoch);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Drops every cached page (e.g. after out-of-band database surgery).
    pub fn clear_cache(&self) {
        let mut evicted = 0;
        for shard in &self.shards {
            let mut map = shard.write().unwrap();
            evicted += map.len();
            map.clear();
        }
        let new_epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        self.flush_prepared(new_epoch);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Drops prepared plans older than `new_epoch`. Entries stamped with
    /// `new_epoch` itself are kept: a concurrent visit that already saw
    /// the new snapshot may have repopulated the cache first, and those
    /// plans are valid. The lock is taken poison-tolerantly for
    /// [`DynamicSite::reset_to`]; the map stays structurally sound across
    /// a panic.
    fn flush_prepared(&self, new_epoch: u64) {
        let mut c = self.prepared.write().unwrap_or_else(|e| e.into_inner());
        if c.epoch < new_epoch {
            c.map.clear();
            c.epoch = new_epoch;
        }
    }

    /// Builds the guard seeds for one schema edge when serving `page`.
    /// `None` means the edge provably cannot reach this page (a constant
    /// source argument disagrees, or one variable would need two values)
    /// and must be skipped; nested-Skolem arguments also return `None`
    /// since they cannot be reconstructed into seeds. In [`Mode::Naive`]
    /// the seed list is always empty: the guard runs unseeded and rows
    /// are filtered to the page afterwards.
    fn seed_for_edge(
        &self,
        edge: &SchemaEdge,
        page: &PageKey,
    ) -> Option<Vec<(String, Value)>> {
        let mut seeds: Vec<(String, Value)> = Vec::new();
        if self.mode == Mode::Naive {
            return Some(seeds);
        }
        for (term, value) in edge.src_args.iter().zip(&page.args) {
            match term {
                Term::Var(v) => {
                    if let Some((_, prev)) = seeds.iter().find(|(name, _)| name == v) {
                        if prev != value {
                            return None;
                        }
                    } else {
                        seeds.push((v.clone(), value.clone()));
                    }
                }
                Term::Const(c) => {
                    if c != value {
                        return None;
                    }
                }
                Term::Skolem { .. } => return None, // nested pages: unsupported seed
            }
        }
        Some(seeds)
    }

    /// Projects one bindings row of `edge`'s guard into a page link.
    /// `Ok(None)` means the row belongs to a different page of the same
    /// symbol (Naive mode evaluates unseeded and filters here).
    fn project_row(
        &self,
        edge: &SchemaEdge,
        vars: &[String],
        row: &[Option<Value>],
        page: &PageKey,
    ) -> StruqlResult<Option<(String, DynTarget)>> {
        let src_vals = eval_args(&edge.src_args, vars, row)?;
        if src_vals != page.args {
            return Ok(None);
        }
        let label = match &edge.label {
            LabelTerm::Const(s) => s.clone(),
            LabelTerm::Var(v) => {
                let idx = vars.iter().position(|x| x == v).ok_or_else(|| {
                    StruqlError::Eval {
                        message: format!("arc variable '{v}' missing"),
                    }
                })?;
                match &row[idx] {
                    Some(Value::Str(s)) => s.to_string(),
                    other => {
                        return Err(StruqlError::Eval {
                            message: format!(
                                "arc variable '{v}' bound to {other:?}, not a label"
                            ),
                        })
                    }
                }
            }
        };
        let target = match &self.schema.nodes[edge.to] {
            SchemaNode::Skolem(sym) => DynTarget::Page(PageKey {
                symbol: sym.clone(),
                args: eval_args(&edge.dst_args, vars, row)?,
            }),
            SchemaNode::Ns => {
                let vals = eval_args(&edge.dst_args, vars, row)?;
                DynTarget::Data(vals.into_iter().next().expect("one NS target"))
            }
        };
        Ok(Some((label, target)))
    }

    /// Evaluates the incremental queries for one page against `db` (the
    /// snapshot stamped by `epoch`), executing cached prepared plans. In
    /// the Context modes the guard rows are kept (count-annotated) beside
    /// the view so later deltas can maintain the page in place.
    fn compute(&self, db: &Database, epoch: u64, page: &PageKey) -> StruqlResult<Cached> {
        let _span = strudel_trace::span("engine.compute");
        let Some(node) = self.schema.node_index(&page.symbol) else {
            return Err(StruqlError::Eval {
                message: format!("unknown page symbol '{}'", page.symbol),
            });
        };
        // Naive rows span every page of the symbol — too broad to keep.
        let keep_rows = self.mode != Mode::Naive;
        let ev = self.evaluator(db);
        let mut view = PageView::default();
        let mut diff: Vec<EdgeRows> = Vec::new();
        for (ei, edge) in self.schema.edges.iter().enumerate() {
            if edge.from != node {
                continue;
            }
            // Seed the guard with the page's Skolem arguments (Context
            // modes); Naive evaluates unseeded and filters afterwards.
            // Seed *names* depend only on the edge (they come from the
            // symbol's argument terms), so the prepared plan is valid for
            // every page of this symbol.
            let Some(seeds) = self.seed_for_edge(edge, page) else {
                continue;
            };
            strudel_trace::count("engine.guard.evals", 1);
            let seed_names: Vec<String> = seeds.iter().map(|(n, _)| n.clone()).collect();
            let prepared = self.prepared_for(epoch, &ev, ei, &edge.guard, &seed_names);
            let rows = ev.eval_where_prepared(&edge.guard, &prepared, &seeds)?;
            let vars = prepared.vars();
            self.queries_run.fetch_add(1, Ordering::Relaxed);
            self.rows_produced.fetch_add(rows.len(), Ordering::Relaxed);
            for row in &rows {
                if let Some(entry) = self.project_row(edge, vars, row, page)? {
                    if !view.edges.contains(&entry) {
                        view.edges.push(entry);
                    }
                }
            }
            if keep_rows {
                diff.push(EdgeRows {
                    ei,
                    vars: vars.to_vec(),
                    rows: count_rows(&rows),
                });
            }
        }
        Ok(Cached {
            view,
            diff: keep_rows.then_some(diff),
        })
    }

    /// Explains how `page` would be served: one [`ExplainReport`] per
    /// schema out-edge whose guard would run, with the planner's
    /// cardinality estimates next to the measured per-step row counts and
    /// timings. Skipped edges (see [`Self::seed_for_edge`]) are omitted.
    /// Nothing is cached and no engine counters move.
    pub fn explain(&self, page: &PageKey) -> StruqlResult<Vec<EdgeExplain>> {
        let Some(node) = self.schema.node_index(&page.symbol) else {
            return Err(StruqlError::Eval {
                message: format!("unknown page symbol '{}'", page.symbol),
            });
        };
        let db = self.database();
        let ev = self.evaluator(&db);
        let mut out = Vec::new();
        for edge in self.schema.out_edges(node) {
            let Some(seeds) = self.seed_for_edge(edge, page) else {
                continue;
            };
            let (_, _, report) = ev.explain_where_bindings(&edge.guard, &seeds)?;
            let label = match &edge.label {
                LabelTerm::Const(s) => s.clone(),
                LabelTerm::Var(v) => format!("?{v}"),
            };
            let target = match &self.schema.nodes[edge.to] {
                SchemaNode::Skolem(sym) => sym.clone(),
                SchemaNode::Ns => "NS".to_string(),
            };
            out.push(EdgeExplain {
                label,
                target,
                report,
            });
        }
        Ok(out)
    }
}

/// One schema edge's guard, explained: which link it derives and how the
/// planner's estimates compared to the measured evaluation.
#[derive(Clone, Debug)]
pub struct EdgeExplain {
    /// The link label this edge derives (`?v` for an arc variable).
    pub label: String,
    /// Target page symbol, or `"NS"` for a data target.
    pub target: String,
    /// Per-step estimates vs actuals for the edge's guard.
    pub report: ExplainReport,
}

/// Coalesces plain bindings rows into count-annotated ones (count =
/// derivation multiplicity), preserving first-occurrence order — the form
/// [`apply_diff`] maintains across deltas.
fn count_rows(rows: &[Vec<Option<Value>>]) -> Vec<SignedRow> {
    let mut index: HashMap<&[Option<Value>], usize> = HashMap::new();
    let mut out: Vec<SignedRow> = Vec::new();
    for row in rows {
        match index.get(row.as_slice()) {
            Some(&i) => out[i].1 += 1,
            None => {
                index.insert(row.as_slice(), out.len());
                out.push((row.clone(), 1));
            }
        }
    }
    out
}

/// Evaluates Skolem argument terms against a bindings row.
pub(crate) fn eval_args(
    args: &[Term],
    vars: &[String],
    row: &[Option<Value>],
) -> StruqlResult<Vec<Value>> {
    args.iter()
        .map(|t| match t {
            Term::Var(v) => {
                let idx = vars.iter().position(|x| x == v).ok_or_else(|| {
                    StruqlError::Eval {
                        message: format!("argument variable '{v}' missing"),
                    }
                })?;
                row[idx].clone().ok_or_else(|| StruqlError::Eval {
                    message: format!("argument variable '{v}' unbound"),
                })
            }
            Term::Const(c) => Ok(c.clone()),
            Term::Skolem { .. } => Err(StruqlError::Eval {
                message: "nested Skolem arguments are not supported dynamically".into(),
            }),
        })
        .collect()
}

/// A list of guards usable to estimate per-click work; exposed for tests.
pub fn edge_guards(schema: &SiteSchema) -> Vec<&[Condition]> {
    schema.edges.iter().map(|e| e.guard.as_slice()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use strudel_graph::ddl;
    use strudel_repo::IndexLevel;
    use strudel_struql::parse;

    const QUERY: &str = r#"
        create RootPage()
        where Publications(x)
        create PaperPage(x)
        link RootPage() -> "paper" -> PaperPage(x),
             PaperPage(x) -> "home" -> RootPage()
        collect Roots(RootPage())
        { where x -> "title" -> t
          link PaperPage(x) -> "title" -> t }
        { where x -> "year" -> y
          create YearPage(y)
          link PaperPage(x) -> "year" -> YearPage(y),
               YearPage(y) -> "label" -> y }
    "#;

    fn db() -> Arc<Database> {
        let g = ddl::parse(
            r#"
            object p1 in Publications { title : "Alpha"; year : 1997; }
            object p2 in Publications { title : "Beta"; year : 1998; }
            object p3 in Publications { title : "Gamma"; year : 1997; }
        "#,
        )
        .unwrap();
        Arc::new(Database::from_graph(g, IndexLevel::Full))
    }

    fn root() -> PageKey {
        PageKey {
            symbol: "RootPage".into(),
            args: vec![],
        }
    }

    #[test]
    fn roots_enumerate_collected_pages() {
        let site = DynamicSite::new(db(), &parse(QUERY).unwrap(), Mode::Context);
        let roots = site.roots("Roots").unwrap();
        assert_eq!(roots, vec![root()]);
    }

    #[test]
    fn visiting_root_lists_papers() {
        let site = DynamicSite::new(db(), &parse(QUERY).unwrap(), Mode::Context);
        let view = site.visit(&root()).unwrap();
        let papers: Vec<_> = view
            .edges
            .iter()
            .filter(|(l, _)| l == "paper")
            .collect();
        assert_eq!(papers.len(), 3);
    }

    #[test]
    fn visiting_a_paper_shows_its_attributes_only() {
        let db = db();
        let p1 = Value::Node(db.graph().node_by_name("p1").unwrap());
        let site = DynamicSite::new(db, &parse(QUERY).unwrap(), Mode::Context);
        let view = site
            .visit(&PageKey {
                symbol: "PaperPage".into(),
                args: vec![p1],
            })
            .unwrap();
        let titles: Vec<_> = view
            .edges
            .iter()
            .filter_map(|(l, t)| (l == "title").then_some(t))
            .collect();
        assert_eq!(
            titles,
            vec![&DynTarget::Data(Value::string("Alpha"))],
            "only p1's title, not every paper's"
        );
        assert!(view
            .edges
            .iter()
            .any(|(l, t)| l == "year"
                && matches!(t, DynTarget::Page(k) if k.symbol == "YearPage"
                    && k.args == vec![Value::Int(1997)])));
    }

    #[test]
    fn all_modes_agree_on_content() {
        let db = db();
        let program = parse(QUERY).unwrap();
        let p2 = Value::Node(db.graph().node_by_name("p2").unwrap());
        let key = PageKey {
            symbol: "PaperPage".into(),
            args: vec![p2],
        };
        let mut views = Vec::new();
        for mode in [Mode::Naive, Mode::Context, Mode::ContextLookahead] {
            let site = DynamicSite::new(db.clone(), &program, mode);
            let mut view = site.visit(&key).unwrap();
            view.edges.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
            views.push(view);
        }
        assert_eq!(views[0], views[1]);
        assert_eq!(views[1], views[2]);
    }

    #[test]
    fn context_mode_produces_fewer_rows_than_naive() {
        let db = db();
        let program = parse(QUERY).unwrap();
        let p1 = Value::Node(db.graph().node_by_name("p1").unwrap());
        let key = PageKey {
            symbol: "PaperPage".into(),
            args: vec![p1],
        };
        let naive = DynamicSite::new(db.clone(), &program, Mode::Naive);
        naive.visit(&key).unwrap();
        let ctx = DynamicSite::new(db, &program, Mode::Context);
        ctx.visit(&key).unwrap();
        assert!(
            ctx.metrics().rows_produced < naive.metrics().rows_produced,
            "context {} vs naive {}",
            ctx.metrics().rows_produced,
            naive.metrics().rows_produced
        );
    }

    #[test]
    fn lookahead_turns_follows_into_cache_hits() {
        let program = parse(QUERY).unwrap();
        let site = DynamicSite::new(db(), &program, Mode::ContextLookahead);
        let view = site.visit(&root()).unwrap();
        assert!(site.cached_pages() >= 4, "root + 3 prefetched papers");
        // Follow the first paper link: a cache hit.
        let DynTarget::Page(first) = &view.edges[0].1 else {
            panic!()
        };
        let before = site.metrics().cache_hits;
        site.visit(first).unwrap();
        assert_eq!(site.metrics().cache_hits, before + 1);
    }

    #[test]
    fn repeat_visits_hit_cache_in_every_mode() {
        let db = db();
        let program = parse(QUERY).unwrap();
        for mode in [Mode::Naive, Mode::Context] {
            let site = DynamicSite::new(db.clone(), &program, mode);
            site.visit(&root()).unwrap();
            let q1 = site.metrics().queries_run;
            site.visit(&root()).unwrap();
            assert_eq!(site.metrics().queries_run, q1, "no new queries");
            assert_eq!(site.metrics().cache_hits, 1);
        }
    }

    #[test]
    fn dynamic_matches_static_materialization() {
        // The pages the dynamic engine serves must agree with the
        // statically evaluated site graph.
        let db = db();
        let program = parse(QUERY).unwrap();
        let static_site = Evaluator::new(&db).eval(&program).unwrap();

        let site = DynamicSite::new(db.clone(), &program, Mode::Context);
        let root_view = site.visit(&root()).unwrap();
        let static_root = static_site.skolem_node("RootPage", &[]).unwrap();
        assert_eq!(
            root_view
                .edges
                .iter()
                .filter(|(l, _)| l == "paper")
                .count(),
            static_site.graph.attr_str(static_root, "paper").count()
        );
    }

    #[test]
    fn int_keyed_pages_resolve() {
        let site = DynamicSite::new(db(), &parse(QUERY).unwrap(), Mode::Context);
        let view = site
            .visit(&PageKey {
                symbol: "YearPage".into(),
                args: vec![Value::Int(1997)],
            })
            .unwrap();
        // 1997 has its label edge; papers link *to* year pages, not from.
        assert!(view
            .edges
            .iter()
            .any(|(l, t)| l == "label" && *t == DynTarget::Data(Value::Int(1997))));
    }

    #[test]
    fn nonexistent_page_instance_is_empty_not_error() {
        // YearPage(1890) was never derivable: its incremental queries
        // return no rows, so the page is simply empty.
        let site = DynamicSite::new(db(), &parse(QUERY).unwrap(), Mode::Context);
        let view = site
            .visit(&PageKey {
                symbol: "YearPage".into(),
                args: vec![Value::Int(1890)],
            })
            .unwrap();
        assert!(view.edges.is_empty());
    }

    #[test]
    fn unknown_symbol_is_an_error() {
        let site = DynamicSite::new(db(), &parse(QUERY).unwrap(), Mode::Context);
        assert!(site
            .visit(&PageKey {
                symbol: "Ghost".into(),
                args: vec![]
            })
            .is_err());
    }

    #[test]
    fn concurrent_visits_share_one_engine() {
        // ≥ 4 threads hammer one engine through `&self`; every thread
        // sees identical content and the cache converges to one copy.
        let program = parse(QUERY).unwrap();
        let site = Arc::new(DynamicSite::new(db(), &program, Mode::Context));
        let mut expected = site.visit(&root()).unwrap();
        expected
            .edges
            .sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));

        let mut handles = Vec::new();
        for _ in 0..8 {
            let site = Arc::clone(&site);
            let expected = expected.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let mut v = site.visit(&root()).unwrap();
                    v.edges.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
                    assert_eq!(v, expected);
                    // Also fan out to every paper page.
                    for (_, t) in &expected.edges {
                        if let DynTarget::Page(k) = t {
                            site.visit(k).unwrap();
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let m = site.metrics();
        assert!(m.cache_hits > 0, "warm visits hit the cache: {m:?}");
    }

    #[test]
    fn apply_delta_maintains_dirty_pages_in_place() {
        let db = db();
        let p1 = db.graph().node_by_name("p1").unwrap();
        let p2 = Value::Node(db.graph().node_by_name("p2").unwrap());
        let program = parse(QUERY).unwrap();
        let site = DynamicSite::new(db, &program, Mode::Context);

        let p1_key = PageKey {
            symbol: "PaperPage".into(),
            args: vec![Value::Node(p1)],
        };
        let p2_key = PageKey {
            symbol: "PaperPage".into(),
            args: vec![p2],
        };
        let before = site.visit(&p1_key).unwrap();
        site.visit(&p2_key).unwrap();
        assert_eq!(site.cached_pages(), 2);

        let mut delta = GraphDelta::new();
        delta.remove_edge(p1, "title", Value::string("Alpha"));
        delta.add_edge(p1, "title", Value::string("Alpha (rev)"));
        let outcome = site.apply_delta(&delta).unwrap();
        // p1 is dirty but its cached rows absorb the diff: updated in
        // place, nothing evicted.
        assert!(outcome.dirty.contains(&p1_key), "{:?}", outcome.dirty);
        assert_eq!(outcome.updated, 1, "{:?}", outcome.dirty);
        assert_eq!(outcome.evicted, 0, "{:?}", outcome.dirty);
        assert_eq!(site.cached_pages(), 2, "both pages stay cached");

        // Revisit p1: served from cache with the maintained content.
        let hits_before = site.metrics().cache_hits;
        let queries_before = site.metrics().queries_run;
        let after = site.visit(&p1_key).unwrap();
        assert_eq!(site.metrics().cache_hits, hits_before + 1, "p1 was a hit");
        assert_eq!(site.metrics().queries_run, queries_before, "no guard re-ran");
        assert_ne!(before, after);
        assert!(after.edges.iter().any(|(l, t)| l == "title"
            && *t == DynTarget::Data(Value::string("Alpha (rev)"))));
        assert!(
            !after.edges.iter().any(|(_, t)| *t == DynTarget::Data(Value::string("Alpha"))),
            "old title retracted: {after:?}"
        );

        // Revisit p2: untouched and still served from cache.
        site.visit(&p2_key).unwrap();
        assert_eq!(site.metrics().cache_hits, hits_before + 2);
        let m = site.metrics();
        assert_eq!(m.diff_pages_updated, 1);
        assert_eq!(m.diff_fallbacks, 0);
        assert!(m.diff_rows_added >= 1 && m.diff_rows_retracted >= 1, "{m:?}");
    }

    #[test]
    fn maintained_views_match_fresh_computation() {
        // The maintained cache and a cold engine over the post-delta
        // database must serve identical content for every page.
        let db = db();
        let p1 = db.graph().node_by_name("p1").unwrap();
        let p3 = db.graph().node_by_name("p3").unwrap();
        let program = parse(QUERY).unwrap();
        let site = DynamicSite::new(db, &program, Mode::Context);

        let keys: Vec<PageKey> = [p1, p3]
            .iter()
            .map(|n| PageKey {
                symbol: "PaperPage".into(),
                args: vec![Value::Node(*n)],
            })
            .chain([root()])
            .collect();
        for k in &keys {
            site.visit(k).unwrap();
        }

        // Mixed delta: retitle p1, move p3 to a new year, add a paper.
        let mut delta = GraphDelta::new();
        delta.remove_edge(p1, "title", Value::string("Alpha"));
        delta.add_edge(p1, "title", Value::string("Alpha v2"));
        delta.remove_edge(p3, "year", Value::Int(1997));
        delta.add_edge(p3, "year", Value::Int(1999));
        delta.add_node(Some("p4"));
        let oid = strudel_graph::Oid::from_index(site.database().graph().node_count());
        delta.add_edge(oid, "title", Value::string("Delta"));
        delta.collect("Publications", Value::Node(oid));
        let outcome = site.apply_delta(&delta).unwrap();
        assert!(outcome.updated >= 1, "{outcome:?}");

        let fresh = DynamicSite::new(site.database(), &program, Mode::Context);
        let sort = |mut v: PageView| {
            v.edges.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
            v
        };
        for k in &keys {
            assert_eq!(
                sort(site.visit(k).unwrap()),
                sort(fresh.visit(k).unwrap()),
                "page {k:?}"
            );
        }
    }

    #[test]
    fn irrelevant_delta_neither_updates_nor_evicts() {
        let db = db();
        let p1 = db.graph().node_by_name("p1").unwrap();
        let program = parse(QUERY).unwrap();
        let site = DynamicSite::new(db, &program, Mode::Context);
        site.visit(&root()).unwrap();
        let cached = site.cached_pages();

        // "abstract" appears in no guard: nothing is dirty, nothing moves.
        let mut delta = GraphDelta::new();
        delta.add_edge(p1, "abstract", Value::string("..."));
        let outcome = site.apply_delta(&delta).unwrap();
        assert!(outcome.dirty.pages.is_empty(), "{:?}", outcome.dirty);
        assert!(outcome.dirty.symbols.is_empty(), "{:?}", outcome.dirty);
        assert_eq!(outcome.evicted, 0);
        assert_eq!(outcome.updated, 0);
        assert_eq!(site.cached_pages(), cached);

        let hits = site.metrics().cache_hits;
        site.visit(&root()).unwrap();
        assert_eq!(site.metrics().cache_hits, hits + 1, "still a cache hit");
    }

    #[test]
    fn naive_mode_falls_back_to_eviction() {
        // Naive pages carry no delta-ready rows; dirty ones are evicted
        // and counted as fallbacks.
        let db = db();
        let p1 = db.graph().node_by_name("p1").unwrap();
        let program = parse(QUERY).unwrap();
        let site = DynamicSite::new(db, &program, Mode::Naive);
        let p1_key = PageKey {
            symbol: "PaperPage".into(),
            args: vec![Value::Node(p1)],
        };
        site.visit(&p1_key).unwrap();

        let mut delta = GraphDelta::new();
        delta.remove_edge(p1, "title", Value::string("Alpha"));
        delta.add_edge(p1, "title", Value::string("Alpha (rev)"));
        let outcome = site.apply_delta(&delta).unwrap();
        assert_eq!(outcome.updated, 0);
        assert_eq!(outcome.evicted, 1);
        assert_eq!(site.metrics().diff_fallbacks, 1);

        let after = site.visit(&p1_key).unwrap();
        assert!(after.edges.iter().any(|(l, t)| l == "title"
            && *t == DynTarget::Data(Value::string("Alpha (rev)"))));
    }

    #[test]
    fn standby_twin_absorbs_consecutive_deltas() {
        // Several deltas in a row exercise the standby catch-up path
        // (swap, reclaim, replay lag, re-apply) and must keep serving
        // exactly what a cold engine computes.
        let db = db();
        let p1 = db.graph().node_by_name("p1").unwrap();
        let program = parse(QUERY).unwrap();
        let site = DynamicSite::new(db, &program, Mode::Context);
        let p1_key = PageKey {
            symbol: "PaperPage".into(),
            args: vec![Value::Node(p1)],
        };
        site.visit(&p1_key).unwrap();

        for (i, title) in ["Alpha", "rev 1", "rev 2", "rev 3"].windows(2).enumerate() {
            let mut delta = GraphDelta::new();
            delta.remove_edge(p1, "title", Value::string(title[0]));
            delta.add_edge(p1, "title", Value::string(title[1]));
            let outcome = site.apply_delta(&delta).unwrap();
            assert_eq!(outcome.updated, 1, "delta #{i}");
            assert_eq!(site.epoch(), (i + 1) as u64);
        }
        let view = site.visit(&p1_key).unwrap();
        assert!(view.edges.iter().any(|(l, t)| l == "title"
            && *t == DynTarget::Data(Value::string("rev 3"))));
        let fresh = DynamicSite::new(site.database(), &program, Mode::Context);
        assert_eq!(view, fresh.visit(&p1_key).unwrap());
    }

    #[test]
    fn rejected_delta_parks_the_twin_and_changes_nothing() {
        let db = db();
        let p1 = db.graph().node_by_name("p1").unwrap();
        let program = parse(QUERY).unwrap();
        let site = DynamicSite::new(db, &program, Mode::Context);
        site.visit(&root()).unwrap();
        let epoch = site.epoch();
        let cached = site.cached_pages();

        // Removing an edge that does not exist must be rejected atomically.
        let mut bad = GraphDelta::new();
        bad.remove_edge(p1, "title", Value::string("No Such Title"));
        let err = site.apply_delta(&bad).unwrap_err();
        assert!(err.to_string().contains("delta does not apply"), "{err}");
        assert_eq!(site.epoch(), epoch);
        assert_eq!(site.cached_pages(), cached);

        // And a good delta afterwards still applies cleanly.
        let mut good = GraphDelta::new();
        good.remove_edge(p1, "title", Value::string("Alpha"));
        good.add_edge(p1, "title", Value::string("Alpha (rev)"));
        site.apply_delta(&good).unwrap();
        assert_eq!(site.epoch(), epoch + 1);
    }

    #[test]
    fn delta_visible_to_subsequent_visits() {
        let db = db();
        let program = parse(QUERY).unwrap();
        let site = DynamicSite::new(db.clone(), &program, Mode::Context);
        let n_before = site.visit(&root()).unwrap().edges.len();

        // Add a brand-new publication.
        let mut delta = GraphDelta::new();
        delta.add_node(Some("p4"));
        let oid = strudel_graph::Oid::from_index(db.graph().node_count());
        delta.add_edge(oid, "title", Value::string("Delta"));
        delta.collect("Publications", Value::Node(oid));
        let outcome = site.apply_delta(&delta).unwrap();
        assert!(outcome.dirty.contains(&root()));

        let view = site.visit(&root()).unwrap();
        assert_eq!(
            view.edges.iter().filter(|(l, _)| l == "paper").count(),
            4,
            "new paper listed"
        );
        assert!(view.edges.len() > n_before);
        assert_eq!(site.epoch(), 1);
    }

    #[test]
    fn parallel_engine_serves_identical_views() {
        let db = db();
        let program = parse(QUERY).unwrap();
        let seq = DynamicSite::new(db.clone(), &program, Mode::Context);
        let par = DynamicSite::new(db, &program, Mode::Context)
            .with_parallelism(Parallelism::Threads(4));
        assert_eq!(par.parallelism(), Parallelism::Threads(4));
        let roots = seq.roots("Roots").unwrap();
        assert_eq!(roots, par.roots("Roots").unwrap());
        for key in &roots {
            assert_eq!(seq.visit(key).unwrap(), par.visit(key).unwrap());
        }
    }

    #[test]
    fn plan_cache_hits_on_warm_guards() {
        let db = db();
        let program = parse(QUERY).unwrap();
        let site = DynamicSite::new(db, &program, Mode::Context);
        let p = |n: &str| PageKey {
            symbol: "PaperPage".into(),
            args: vec![Value::Node(site.database().graph().node_by_name(n).unwrap())],
        };
        site.visit(&p("p1")).unwrap();
        let m1 = site.metrics();
        assert!(m1.plan_cache_misses > 0, "cold guards compile: {m1:?}");
        assert_eq!(m1.plan_cache_hits, 0);
        // A *different* page of the same symbol runs the same guards:
        // every plan is served from the cache.
        site.visit(&p("p2")).unwrap();
        let m2 = site.metrics();
        assert_eq!(m2.plan_cache_misses, m1.plan_cache_misses, "no recompiles");
        assert!(m2.plan_cache_hits > 0, "{m2:?}");
    }

    #[test]
    fn delta_flushes_prepared_plans() {
        let db = db();
        let p1 = db.graph().node_by_name("p1").unwrap();
        let p2 = db.graph().node_by_name("p2").unwrap();
        let program = parse(QUERY).unwrap();
        let site = DynamicSite::new(db, &program, Mode::Context);
        let p1_key = PageKey {
            symbol: "PaperPage".into(),
            args: vec![Value::Node(p1)],
        };
        site.visit(&p1_key).unwrap();
        let misses_cold = site.metrics().plan_cache_misses;

        let mut delta = GraphDelta::new();
        delta.remove_edge(p1, "title", Value::string("Alpha"));
        delta.add_edge(p1, "title", Value::string("Alpha II"));
        site.apply_delta(&delta).unwrap();

        // Post-delta plans are prepared against the new snapshot's stats
        // and interner — the old entries must not be served. p1's page was
        // maintained in place (no guard re-runs), so visit a *different*
        // page of the same symbol: its guards were compiled pre-delta and
        // must recompile now.
        site.visit(&PageKey {
            symbol: "PaperPage".into(),
            args: vec![Value::Node(p2)],
        })
        .unwrap();
        assert!(
            site.metrics().plan_cache_misses > misses_cold,
            "stale plans flushed: {:?}",
            site.metrics()
        );
    }

    #[test]
    fn clear_cache_counts_evictions() {
        let site = DynamicSite::new(db(), &parse(QUERY).unwrap(), Mode::ContextLookahead);
        site.visit(&root()).unwrap();
        let cached = site.cached_pages();
        assert!(cached >= 4);
        site.clear_cache();
        assert_eq!(site.cached_pages(), 0);
        assert_eq!(site.metrics().evictions, cached);
    }
}
