//! Dynamic ("click-time") site evaluation.
//!
//! The prototype of the paper materializes whole site graphs up front,
//! which "is infeasible for sites that are updated frequently" (§2.5).
//! Site schemas are the fix: they "specify, for each node in the site
//! graph, the queries that must be evaluated to compute the node's
//! contents, i.e. its outgoing edges". [`DynamicSite`] is that engine: it
//! materializes one page's out-edges when the page is first visited.
//!
//! The engine is the paper's context-seeded evaluation: the visited
//! page's Skolem arguments seed its guards ("we can optimize its
//! incremental query using contexts derived from the paths that reach the
//! node"), so the planner starts from bound variables and touches only the
//! relevant slice of the data. The paper's other two strategies — naive
//! evaluation, which recomputes "information derived for already browsed
//! pages", and look-ahead, which precomputes "results for queries of
//! reachable nodes" — are baselines the E-dynamic experiment runs over
//! this engine, not modes of it.
//!
//! ## Concurrency
//!
//! The engine is shared: [`DynamicSite::visit`] takes `&self`, so one
//! engine serves a whole worker pool. The page cache lives in sharded
//! read/write locks keyed by [`PageKey`]; the one database sits behind a
//! read/write lock, and [`DynamicSite::apply_delta`] changes it in place.
//! Guard evaluation holds an `Arc` snapshot, so readers never wait for
//! each other, and a delta that finds one still held copies the database
//! first ([`Metrics::snapshot_copies`]); brief reads take none
//! ([`DynamicSite::with_database`]). An epoch counter fences the race
//! between a visit computed against the old version and a concurrent
//! delta: cache inserts carry the epoch they were computed under and are
//! dropped if a delta landed in between. In the other direction, a delta
//! replaces or evicts its dirty cached views inside the critical section
//! that bumps the epoch, and both public epoch reads
//! ([`DynamicSite::snapshot`], [`DynamicSite::epoch`]) serialise against
//! that section, so a reader holding the new epoch never sees a
//! pre-delta view.
//!
//! ## Differential maintenance
//!
//! A cached page is a keyed, count-annotated projection of its guards'
//! rows, patched by deltas instead of recomputed. Beside the served
//! [`PageView`] it keeps the bindings rows of every contributing schema
//! edge's guard, seeded for the page — one hash-indexed store `(edge,
//! row) → (count, sequence number)` — and a link table `(label, target)
//! → (supporting rows, first supporter)`. [`DynamicSite::apply_delta`] gets
//! the delta's exact signed rows already grouped by page from
//! [`invalidate::OldHalves::new_half`], re-lays each row from the guard's unseeded
//! slot order to the stored seeds-first order (a permutation fixed per
//! edge when the engine is built), and applies them to whatever copy of
//! the page is cached when the delta commits: a count moves, a row
//! appears or disappears, its link gains or loses one supporter. Nothing
//! proportional to the page is read, copied or scanned, so a retitle
//! costs the same on a front page with a thousand links as on a leaf.
//!
//! **The order contract.** A view lists a page's links by *first
//! supporting row*, rows ordered by (schema edge, insertion into the
//! store): exactly the first-occurrence projection of the stored rows. A
//! patch retracts before it inserts, new rows take the next sequence
//! number, and a link whose first supporter is retracted while others
//! remain — the one case a position can move backwards — rebuilds that
//! page's link table from its rows. The view itself is an
//! `Arc<PageView>` materialised from the link table by the first reader
//! after a patch and shared by every later one; a reader still holding
//! the previous `Arc` keeps the previous contents.
//!
//! **The coercion-class rule.** Page keys match structurally, guards match
//! by coercion: `YearPage(Str "1998")` — what a URL may parse to — is
//! served through the seeded guard from data that says `Int 1998`, while
//! the delta's rows name `YearPage(Int 1998)`. Cached keys with an atomic
//! argument are therefore registered under their symbol and
//! [`coerce::class`]es; when a dirty key's class holds any *other* key,
//! every key of the class is dirtied and evicted, never patched (rows
//! routed by spelling would reach only one of them).
//!
//! Pages whose state cannot absorb a patch (a count underflow, an edge
//! whose seeded layout is not a permutation of the unseeded one, a
//! projection error, a coercion-class alias) fall back to eviction and
//! full re-evaluation, counted in [`Metrics::diff_fallbacks`]. The
//! database itself takes the delta in O(|Δ|) — its index families,
//! optimizer statistics included, are maintained exactly by
//! `Database::apply_delta` — and the diff splits around that apply
//! ([`invalidate::old_half`]), so no second copy of the database is kept.

use crate::invalidate::{self, DirtySet};
use crate::site_schema::SchemaEdge;
use crate::{SchemaNode, SiteSchema};
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use strudel_graph::hash::FastMap;
use strudel_graph::{coerce, GraphDelta, Value};
use strudel_repo::Database;
use strudel_struql::{
    where_vars, Evaluator, ExplainReport, LabelTerm, PreparedWhere, Program, SignedRow,
    StruqlError, StruqlResult, Term,
};

/// The engine's one evaluation strategy: seed guard evaluation with the
/// page's Skolem arguments. Kept only because the perfbench harness still
/// passes it to [`DynamicSite::new`] and the serving constructors, which
/// ignore it; it goes when the harness stops naming it (ROADMAP item 1).
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Context seeding, what every engine does.
    Context,
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
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
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
    /// Dirty cached pages that fell back to eviction (count underflow, a
    /// variable-layout mismatch, or a coercion-class alias).
    pub diff_fallbacks: usize,
    /// Bindings rows inserted by differential maintenance.
    pub diff_rows_added: usize,
    /// Bindings rows retracted by differential maintenance.
    pub diff_rows_retracted: usize,
    /// Deltas that found the database shared — by a caller holding
    /// [`DynamicSite::database`] or a reader mid-evaluation — and copied
    /// it, O(site), before applying in place.
    pub snapshot_copies: usize,
}

/// The result of applying a data delta to a live engine.
#[derive(Clone, Debug, Default)]
pub struct InvalidationOutcome {
    /// The pages the delta dirtied.
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
    /// Indexed by [`Guard::slot`].
    map: Vec<Option<Arc<PreparedWhere>>>,
}

/// A guard the engine runs, and how it is seeded: the five kinds share
/// the prepared-plan cache, one slot each.
#[derive(Clone, Copy, Debug)]
enum Guard {
    /// A schema edge's, seeded by its source page's arguments.
    Out(usize),
    /// A collect's, unseeded: the site's entry points.
    Roots(usize),
    /// A schema edge's, seeded by its target page's arguments: does the
    /// edge derive that page?
    Into(usize),
    /// A collect's, seeded by the collected page's arguments.
    Collects(usize),
    /// A create term's, seeded by the created page's arguments.
    Creates(usize),
}

impl Guard {
    /// The guard's slot in [`PreparedCache::map`], for a schema of
    /// `edges` edges and `collects` collects.
    fn slot(self, edges: usize, collects: usize) -> usize {
        match self {
            Guard::Out(ei) => ei,
            Guard::Roots(ci) => edges + ci,
            Guard::Into(ei) => edges + collects + ei,
            Guard::Collects(ci) => 2 * edges + collects + ci,
            Guard::Creates(i) => 2 * (edges + collects) + i,
        }
    }
}

/// A term that mints pages of one schema node — an edge's target, a
/// collected term or a created term — with how a key of that node seeds
/// the term's guard ([`Guard::Into`], [`Guard::Collects`] or
/// [`Guard::Creates`]).
type Maker = (Guard, Seeding);

/// One link of a page: `(label, target)`. The label is shared with the
/// engine's schema (a constant label) or the data graph (an arc
/// variable's binding): projecting a row copies no string.
type Link = (Arc<str>, DynTarget);

/// One bindings row of a guard.
type Row = Vec<Option<Value>>;

/// Where a stored row sits in its page's projection order: its schema
/// edge's index, then the sequence number the row drew when it entered
/// the store.
type Pos = (u32, u32);

/// What a key argument must satisfy besides filling a seed slot.
#[derive(Debug)]
enum ArgCheck {
    /// Equal to an earlier argument: the variable repeats.
    Same(usize),
    /// Equal to the term's constant.
    Const(Value),
}

/// How a page key's arguments seed a guard, resolved once from the
/// page's Skolem argument terms: a visit fills seed slots by position
/// and builds no name list.
#[derive(Debug)]
struct Seeding {
    /// The number of arguments a key must have.
    arity: usize,
    /// The seed variables in first-occurrence order: the leading slots
    /// of the guard's rows.
    names: Vec<String>,
    /// Per seed slot, the key argument that fills it.
    from: Vec<usize>,
    /// `(argument, check)` for every argument that fills no slot.
    checks: Vec<(usize, ArgCheck)>,
    /// `false` when an argument is a nested Skolem term, which no key
    /// can seed.
    seedable: bool,
}

impl Seeding {
    fn of(args: &[Term]) -> Self {
        let mut seeding = Seeding {
            arity: args.len(),
            names: Vec::new(),
            from: Vec::new(),
            checks: Vec::new(),
            seedable: true,
        };
        for (j, term) in args.iter().enumerate() {
            match term {
                Term::Var(v) => match seeding.names.iter().position(|n| n == v) {
                    Some(slot) => seeding.checks.push((j, ArgCheck::Same(seeding.from[slot]))),
                    None => {
                        seeding.names.push(v.clone());
                        seeding.from.push(j);
                    }
                },
                Term::Const(c) => seeding.checks.push((j, ArgCheck::Const(c.clone()))),
                Term::Skolem { .. } => seeding.seedable = false,
            }
        }
        seeding
    }

    /// The seed values for `key`, by slot. `None` means no row of the
    /// guard can belong to the key: another arity, a constant or a
    /// repeated variable that disagrees, or a nested Skolem argument.
    fn seeds<'k>(&'k self, key: &'k PageKey) -> Option<impl Iterator<Item = &'k Value> + 'k> {
        let args = &key.args;
        let fits = self.seedable
            && args.len() == self.arity
            && self.checks.iter().all(|(j, check)| match check {
                ArgCheck::Same(k) => args[*j] == args[*k],
                ArgCheck::Const(c) => args[*j] == *c,
            });
        fits.then(|| self.from.iter().map(|&j| &args[j]))
    }
}

/// A Skolem argument of a link's source or target, resolved against the
/// edge's stored row layout.
#[derive(Debug)]
enum Arg {
    Slot(usize),
    Const(Value),
    /// Cannot be evaluated; the message says why.
    Invalid(String),
}

impl Arg {
    fn of(term: &Term, vars: &[String]) -> Self {
        match term {
            Term::Var(v) => match vars.iter().position(|x| x == v) {
                Some(slot) => Arg::Slot(slot),
                None => Arg::Invalid(format!("argument variable '{v}' missing")),
            },
            Term::Const(c) => Arg::Const(c.clone()),
            Term::Skolem { .. } => {
                Arg::Invalid("nested Skolem arguments are not supported dynamically".into())
            }
        }
    }

    /// The argument's value in `row`, whose slots are named `vars`.
    fn value<'r>(&'r self, vars: &[String], row: &'r [Option<Value>]) -> StruqlResult<&'r Value> {
        match self {
            Arg::Slot(slot) => row[*slot].as_ref().ok_or_else(|| StruqlError::Eval {
                message: format!("argument variable '{}' unbound", vars[*slot]),
            }),
            Arg::Const(c) => Ok(c),
            Arg::Invalid(message) => Err(StruqlError::Eval {
                message: message.clone(),
            }),
        }
    }
}

/// A link's label, resolved against the edge's stored row layout.
#[derive(Debug)]
enum LinkLabel {
    Const(Arc<str>),
    /// An arc variable's slot: the label is the bound string itself.
    Slot(usize),
    /// An arc variable the layout lacks.
    Missing(String),
}

/// How one schema edge's guard rows are laid out in a cached page and
/// projected to links — a function of the edge, compiled when the engine
/// is built, so projecting a row reads slots and allocates only a page
/// target's key.
struct EdgeLayout {
    /// Variable names of the stored rows' slots: the page's seed
    /// variables first, then the guard's others in textual order
    /// ([`where_vars`]; what every prepared plan of the edge produces).
    vars: Vec<String>,
    /// For each stored slot, the slot of the same variable in the guard's
    /// unseeded layout, which is how [`invalidate::OldHalves::new_half`]
    /// hands rows over. `None` when the two layouts are not permutations
    /// of each other; such an edge's pages are evicted, not patched.
    from_unseeded: Option<Vec<usize>>,
    /// How a source page's key seeds the guard.
    seeding: Seeding,
    /// The source term's arguments, checked against the page's in place.
    src: Vec<Arg>,
    label: LinkLabel,
    /// The target's symbol; `None` for a data (`NS`) target.
    target: Option<String>,
    /// The target term's arguments (the data value, for `NS`).
    dst: Vec<Arg>,
}

impl EdgeLayout {
    fn of(schema: &SiteSchema, edge: &SchemaEdge) -> Self {
        let seeding = Seeding::of(&edge.src_args);
        let vars = where_vars(&edge.guard, &seeding.names);
        let unseeded = where_vars(&edge.guard, &[]);
        let from_unseeded = (vars.len() == unseeded.len())
            .then(|| {
                vars.iter()
                    .map(|v| unseeded.iter().position(|u| u == v))
                    .collect::<Option<Vec<usize>>>()
            })
            .flatten();
        let label = match &edge.label {
            LabelTerm::Const(s) => LinkLabel::Const(s.as_str().into()),
            LabelTerm::Var(v) => match vars.iter().position(|x| x == v) {
                Some(slot) => LinkLabel::Slot(slot),
                None => LinkLabel::Missing(v.clone()),
            },
        };
        let target = match &schema.nodes[edge.to] {
            SchemaNode::Skolem(sym) => Some(sym.clone()),
            SchemaNode::Ns => None,
        };
        EdgeLayout {
            src: edge.src_args.iter().map(|t| Arg::of(t, &vars)).collect(),
            dst: edge.dst_args.iter().map(|t| Arg::of(t, &vars)).collect(),
            target,
            label,
            vars,
            from_unseeded,
            seeding,
        }
    }

    /// Projects one bindings row, in the stored layout, into a page link.
    /// `Ok(None)` means the row belongs to a different page of the same
    /// symbol.
    fn project(&self, row: &[Option<Value>], page: &PageKey) -> StruqlResult<Option<Link>> {
        let vars = &self.vars;
        // Every argument is evaluated before any is compared, so an
        // argument that cannot be evaluated is an error on every page.
        let mut same = self.src.len() == page.args.len();
        for (j, arg) in self.src.iter().enumerate() {
            let v = arg.value(vars, row)?;
            same &= page.args.get(j) == Some(v);
        }
        if !same {
            return Ok(None);
        }
        let label = match &self.label {
            LinkLabel::Const(s) => Arc::clone(s),
            LinkLabel::Slot(slot) => match &row[*slot] {
                Some(Value::Str(s)) => Arc::clone(s),
                other => {
                    return Err(StruqlError::Eval {
                        message: format!(
                            "arc variable '{}' bound to {other:?}, not a label",
                            vars[*slot]
                        ),
                    })
                }
            },
            LinkLabel::Missing(v) => {
                return Err(StruqlError::Eval {
                    message: format!("arc variable '{v}' missing"),
                })
            }
        };
        let target = match &self.target {
            Some(symbol) => DynTarget::Page(PageKey {
                symbol: symbol.clone(),
                args: self
                    .dst
                    .iter()
                    .map(|a| a.value(vars, row).cloned())
                    .collect::<StruqlResult<_>>()?,
            }),
            None => {
                let mut first = None;
                for arg in &self.dst {
                    first.get_or_insert(arg.value(vars, row)?);
                }
                DynTarget::Data(first.expect("one NS target").clone())
            }
        };
        Ok(Some((label, target)))
    }
}

/// A stored guard row's bookkeeping: its derivation multiplicity and the
/// sequence number that orders it among the page's rows.
#[derive(Clone, Copy, Debug)]
struct RowSlot {
    count: i64,
    seq: u32,
}

/// How many stored rows project to a link, and the earliest of them —
/// the link's place in the view.
#[derive(Clone, Copy, Debug)]
struct Support {
    rows: u32,
    first: Pos,
}

/// The delta-ready state of a cached page: the guard rows it was
/// projected from and the projection itself, both indexed so that a
/// signed row is absorbed without reading the rest of the page (see
/// "Differential maintenance" in the module docs).
#[derive(Debug, Default)]
struct PageRows {
    /// The guards' bindings rows, seeded for the page, by schema edge
    /// (index into `schema.edges`) and row in the edge's
    /// [`EdgeLayout::vars`] layout. Stored-row order is sequence-number
    /// order: a new row is appended, a retracted row leaves the others
    /// where they were.
    rows: FastMap<(u32, Row), RowSlot>,
    /// Invariant: exactly the links the stored rows project to, each with
    /// its supporter count and the smallest [`Pos`] among its supporters.
    links: FastMap<Link, Support>,
    next_seq: u32,
}

fn support(links: &mut FastMap<Link, Support>, link: Link, pos: Pos) {
    match links.entry(link) {
        Entry::Occupied(mut held) => {
            let s = held.get_mut();
            s.rows += 1;
            s.first = s.first.min(pos);
        }
        Entry::Vacant(free) => {
            free.insert(Support {
                rows: 1,
                first: pos,
            });
        }
    }
}

impl PageRows {
    /// Adds `count` derivations of `row` (edge index, bindings); a row not
    /// stored yet is appended and supports `link`. `false` when the page
    /// has run out of sequence numbers (evict and recompute).
    fn add(&mut self, row: (u32, Row), count: i64, link: Link) -> bool {
        let ei = row.0;
        match self.rows.entry(row) {
            Entry::Occupied(mut held) => held.get_mut().count += count,
            Entry::Vacant(free) => {
                let seq = self.next_seq;
                let Some(next) = seq.checked_add(1) else {
                    return false;
                };
                self.next_seq = next;
                free.insert(RowSlot { count, seq });
                support(&mut self.links, link, (ei, seq));
            }
        }
        true
    }

    /// Retracts `count` derivations of `row`. `None` when the store does
    /// not hold them (the caller evicts the page); `Some(true)` when the
    /// row was the first supporter of a link other rows still support, so
    /// the link's place must be found again ([`DynamicSite::index_links`]).
    fn retract(&mut self, row: &(u32, Row), count: i64, link: &Link) -> Option<bool> {
        let slot = self.rows.get_mut(row)?;
        slot.count -= count;
        if slot.count > 0 {
            return Some(false);
        }
        if slot.count < 0 {
            return None;
        }
        let pos = (row.0, slot.seq);
        self.rows.remove(row);
        let held = self.links.get_mut(link)?;
        held.rows -= 1;
        if held.rows == 0 {
            self.links.remove(link);
            return Some(false);
        }
        Some(held.first == pos)
    }

    /// The page's links in view order.
    fn view(&self) -> PageView {
        let mut order: Vec<(Pos, &Link)> =
            self.links.iter().map(|(link, s)| (s.first, link)).collect();
        order.sort_unstable_by_key(|(pos, _)| *pos);
        PageView {
            edges: order
                .into_iter()
                .map(|(_, (label, target))| (label.to_string(), target.clone()))
                .collect(),
        }
    }
}

/// Everything cached for one page.
#[derive(Debug)]
struct Cached {
    /// The served view, shared with every reader. Empty until the first
    /// reader materialises it, and again after every patch.
    view: OnceLock<Arc<PageView>>,
    rows: PageRows,
}

impl Cached {
    fn view(&self) -> Arc<PageView> {
        Arc::clone(self.view.get_or_init(|| Arc::new(self.rows.view())))
    }
}

/// One page's share of a delta, ready to apply in place: its signed rows
/// as the store keys them (edge index, bindings in the stored layout),
/// each with the link it projects to.
type PagePatch = Vec<((u32, Row), i64, Link)>;

/// The registry key of a page key with an atomic argument: its symbol and
/// the coercion classes of its arguments. Keys that a seeded guard cannot
/// tell apart share one.
type KeyClass = (String, Vec<coerce::Class>);

fn key_class(key: &PageKey) -> Option<KeyClass> {
    key.args.iter().any(Value::is_atomic).then(|| {
        (
            key.symbol.clone(),
            key.args.iter().map(coerce::class).collect(),
        )
    })
}

/// A dynamically evaluated site over a live database, shareable across
/// threads (`visit` takes `&self`).
pub struct DynamicSite {
    db: RwLock<Arc<Database>>,
    schema: SiteSchema,
    /// Per schema edge, how its guard rows are stored, routed and
    /// projected.
    layouts: Vec<EdgeLayout>,
    /// Per schema node, the terms that mint its pages.
    makers: Vec<Vec<Maker>>,
    /// Per schema node, the collections its pages are collected into, in
    /// schema order.
    collections: Vec<Vec<String>>,
    shards: Vec<RwLock<HashMap<PageKey, Cached>>>,
    /// Cached keys with an atomic argument, by coercion class. A key is
    /// entered *before* the epoch check of its insert and leaves when a
    /// delta finds it dirty and not patchable, so: cached implies
    /// registered; an entry without a cached page costs one over-eviction
    /// at most.
    aliases: Mutex<HashMap<KeyClass, Vec<PageKey>>>,
    /// Bumped by every applied delta; fences stale cache inserts.
    epoch: AtomicU64,
    /// Compiled guard plans for the current epoch.
    prepared: RwLock<PreparedCache>,
    /// Serializes delta writers end to end.
    writer: Mutex<()>,
    /// Test hook, see [`DynamicSite::arm_swap_probe`].
    swap_probe: OnceLock<Box<dyn Fn() + Send + Sync>>,
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
    snapshot_copies: AtomicUsize,
}

impl DynamicSite {
    /// Builds the engine for `program` over `db`. The [`Mode`] is ignored.
    pub fn new(db: Arc<Database>, program: &Program, _mode: Mode) -> Self {
        let schema = SiteSchema::extract(program);
        let mut makers: Vec<Vec<Maker>> = (0..schema.nodes.len()).map(|_| Vec::new()).collect();
        let mut collections = vec![Vec::new(); schema.nodes.len()];
        for (ei, edge) in schema.edges.iter().enumerate() {
            if let SchemaNode::Skolem(_) = schema.nodes[edge.to] {
                makers[edge.to].push((Guard::Into(ei), Seeding::of(&edge.dst_args)));
            }
        }
        let collected = schema.collects.iter().enumerate().map(|(ci, (collect, _))| {
            (&collect.arg, Guard::Collects(ci), Some(&collect.collection))
        });
        let created = schema.creates.iter().enumerate();
        let created = created.map(|(i, (term, _))| (term, Guard::Creates(i), None));
        for (term, guard, collection) in collected.chain(created) {
            let Term::Skolem { symbol, args } = term else {
                continue;
            };
            let Some(node) = schema.node_index(symbol) else {
                continue;
            };
            makers[node].push((guard, Seeding::of(args)));
            collections[node].extend(collection.cloned());
        }
        let guards = 2 * (schema.edges.len() + schema.collects.len()) + schema.creates.len();
        DynamicSite {
            db: RwLock::new(db),
            layouts: schema
                .edges
                .iter()
                .map(|e| EdgeLayout::of(&schema, e))
                .collect(),
            makers,
            collections,
            schema,
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            aliases: Mutex::new(HashMap::new()),
            epoch: AtomicU64::new(0),
            prepared: RwLock::new(PreparedCache {
                epoch: 0,
                map: vec![None; guards],
            }),
            writer: Mutex::new(()),
            swap_probe: OnceLock::new(),
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
            snapshot_copies: AtomicUsize::new(0),
        }
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
            snapshot_copies: self.snapshot_copies.load(Ordering::Relaxed),
        }
    }

    /// Number of pages currently materialized in the cache.
    pub fn cached_pages(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap().len()).sum()
    }

    /// The current database snapshot. Holding it across a delta makes
    /// that delta copy the database ([`Metrics::snapshot_copies`]); a
    /// brief read goes through [`DynamicSite::with_database`] instead.
    pub fn database(&self) -> Arc<Database> {
        self.db.read().unwrap().clone()
    }

    /// `f` over the current database under the read lock, taking no
    /// snapshot, so it never makes a delta copy. `f` must not call back
    /// into the engine, which a queued delta would deadlock.
    pub fn with_database<T>(&self, f: impl FnOnce(&Database) -> T) -> T {
        f(&self.db.read().unwrap())
    }

    /// [`DynamicSite::with_database`], or `None` rather than waiting while
    /// a delta holds (or queues for) the lock, for a caller that must
    /// never park behind one (the serving layer's reactor thread).
    pub fn try_with_database<T>(&self, f: impl FnOnce(&Database) -> T) -> Option<T> {
        self.db.try_read().ok().map(|db| f(&db))
    }

    /// The current `(epoch, database)` pair, read consistently: the epoch
    /// is bumped under the database write lock, so holding the read lock
    /// across both reads guarantees the epoch stamps exactly this
    /// snapshot. Prepared plans and cache inserts are keyed by it. Held
    /// across a delta, it makes that delta copy the database.
    pub fn snapshot(&self) -> (u64, Arc<Database>) {
        let db = self.db.read().unwrap();
        (self.epoch.load(Ordering::Acquire), db.clone())
    }

    /// The prepared plan for `guard`'s conditions seeded by `seed_names` at
    /// `epoch`, compiling and caching on miss. An entry prepared under an
    /// older epoch is never returned; an insert races a concurrent delta
    /// safely because the cache's epoch stamp only moves forward.
    fn prepared_for(
        &self,
        epoch: u64,
        ev: &Evaluator<'_>,
        guard: Guard,
        seed_names: &[String],
    ) -> Arc<PreparedWhere> {
        let key = guard.slot(self.schema.edges.len(), self.schema.collects.len());
        let hit = {
            let c = self.prepared.read().unwrap();
            (c.epoch == epoch).then(|| c.map[key].clone()).flatten()
        };
        if let Some(p) = hit {
            self.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
            strudel_trace::count("engine.plan.cache.hits", 1);
            return p;
        }
        self.plan_cache_misses.fetch_add(1, Ordering::Relaxed);
        strudel_trace::count("engine.plan.cache.misses", 1);
        let conds = match guard {
            Guard::Out(ei) | Guard::Into(ei) => &self.schema.edges[ei].guard,
            Guard::Roots(ci) | Guard::Collects(ci) => &self.schema.collects[ci].1,
            Guard::Creates(i) => &self.schema.creates[i].1,
        };
        let p = Arc::new(ev.prepare_where(conds, seed_names));
        let mut c = self.prepared.write().unwrap();
        if c.epoch < epoch {
            // First prepare after a delta: flush the stale entries.
            c.map.fill(None);
            c.epoch = epoch;
        }
        if c.epoch == epoch {
            c.map[key].get_or_insert_with(|| Arc::clone(&p));
        }
        // c.epoch > epoch: a delta landed mid-compute; drop the insert.
        drop(c);
        p
    }

    /// The extracted site schema.
    pub fn schema(&self) -> &SiteSchema {
        &self.schema
    }

    /// The delta epoch: how many deltas have been applied. Read under the
    /// database lock like [`DynamicSite::snapshot`], so it never reports a
    /// delta's epoch while that delta is still replacing cached views.
    pub fn epoch(&self) -> u64 {
        self.with_database(|_| self.epoch.load(Ordering::Acquire))
    }

    fn shard_of(&self, key: &PageKey) -> &RwLock<HashMap<PageKey, Cached>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Inserts a computed page unless a delta landed since `epoch`.
    fn insert_if_current(&self, epoch: u64, key: PageKey, cached: Cached) {
        // Registered before the epoch check below: a delta that looked the
        // class up too early to find this key has bumped the epoch by
        // then, and the insert is dropped.
        if let Some(class) = key_class(&key) {
            let mut aliases = self.aliases.lock().unwrap();
            let keys = aliases.entry(class).or_default();
            if !keys.contains(&key) {
                keys.push(key.clone());
            }
        }
        let mut shard = self.shard_of(&key).write().unwrap();
        if self.epoch.load(Ordering::Acquire) == epoch {
            shard.insert(key, cached);
        }
    }

    /// The site's entry points: every page collected by the query, by
    /// collection name.
    pub fn roots(&self, collection: &str) -> StruqlResult<Vec<PageKey>> {
        let (epoch, db) = self.snapshot();
        let ev = Evaluator::new(&db);
        let mut out = Vec::new();
        for (ci, (collect, _)) in self.schema.collects.iter().enumerate() {
            if collect.collection != collection {
                continue;
            }
            let Term::Skolem { symbol, args } = &collect.arg else {
                continue;
            };
            let prepared = self.prepared_for(epoch, &ev, Guard::Roots(ci), &[]);
            let rows = ev.eval_where_prepared(&prepared, [])?;
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

    /// Every page reachable from the members of `collection`, breadth
    /// first, each visited (and so cached) on the way.
    pub fn crawl(&self, collection: &str) -> StruqlResult<Vec<PageKey>> {
        let mut order = self.roots(collection)?;
        let mut seen: HashSet<PageKey> = order.iter().cloned().collect();
        let mut at = 0;
        while at < order.len() {
            let view = self.visit(&order[at])?;
            for (_, target) in &view.edges {
                if let DynTarget::Page(child) = target {
                    if seen.insert(child.clone()) {
                        order.push(child.clone());
                    }
                }
            }
            at += 1;
        }
        Ok(order)
    }

    /// Serves one click: the out-edges of `page`, computed on demand, or
    /// `None` when `page` has an atomic argument and the site never
    /// creates it — then nothing is cached, so keys made up by a client
    /// cannot grow the cache. A key whose arguments are all data-graph
    /// objects is served as by [`DynamicSite::visit`]: such keys are
    /// bounded by the graph, and one may name a page a delta took away,
    /// which answers as a page without links. Safe to call concurrently
    /// from any number of threads.
    pub fn lookup(&self, page: &PageKey) -> StruqlResult<Option<Arc<PageView>>> {
        self.serve(page, true)
    }

    /// The out-edges of `page`, computed on demand and cached, whether or
    /// not the site creates the page: one it does not is a page without
    /// links. A page the engine is asked to keep — one a delta emptied,
    /// say — is maintained like any other. Safe to call concurrently from
    /// any number of threads.
    pub fn visit(&self, page: &PageKey) -> StruqlResult<Arc<PageView>> {
        Ok(self
            .serve(page, false)?
            .expect("a visit that does not ask whether the page exists answers"))
    }

    /// [`DynamicSite::lookup`] when `existing`, else
    /// [`DynamicSite::visit`].
    fn serve(&self, page: &PageKey, existing: bool) -> StruqlResult<Option<Arc<PageView>>> {
        let _span = strudel_trace::span("engine.visit");
        self.clicks.fetch_add(1, Ordering::Relaxed);
        // A page with links exists: a link clause with it as source held,
        // so the build mints it. Only an empty one with an atomic argument
        // is asked — cached too, since a delta may have emptied it.
        let ask = |view: &PageView| {
            existing && view.edges.is_empty() && page.args.iter().any(Value::is_atomic)
        };
        let hit = self
            .shard_of(page)
            .read()
            .unwrap()
            .get(page)
            .map(Cached::view);
        if let Some(view) = hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            strudel_trace::count("engine.cache.hits", 1);
            if ask(&view) {
                let (epoch, db) = self.snapshot();
                if !self.derives(&db, epoch, self.node_of(page)?, page)? {
                    return Ok(None);
                }
            }
            return Ok(Some(view));
        }
        strudel_trace::count("engine.cache.misses", 1);
        let node = self.node_of(page)?;
        // Epoch and snapshot are read consistently; if a delta lands
        // between compute and insert, the epoch check drops the insert.
        let (epoch, db) = self.snapshot();
        let cached = self.compute(&db, epoch, node, page)?;
        let view = cached.view();
        if ask(&view) && !self.derives(&db, epoch, node, page)? {
            return Ok(None);
        }
        self.insert_if_current(epoch, page.clone(), cached);
        Ok(Some(view))
    }

    /// The collections pages of `symbol` are collected into, in schema
    /// order.
    pub fn collections_of(&self, symbol: &str) -> &[String] {
        match self.schema.node_index(symbol) {
            Some(node) => &self.collections[node],
            None => &[],
        }
    }

    /// The schema node of `page`'s symbol.
    fn node_of(&self, page: &PageKey) -> StruqlResult<usize> {
        self.schema
            .node_index(&page.symbol)
            .ok_or_else(|| StruqlError::Eval {
                message: format!("unknown page symbol '{}'", page.symbol),
            })
    }

    /// Whether the site creates `page` (of schema node `node`) at all: a
    /// schema edge into its symbol, a collect of it or a create term of
    /// it derives the key — the guard, seeded with the key's arguments,
    /// has a row. A guard that cannot be seeded (a nested Skolem
    /// argument) cannot rule the page out.
    fn derives(
        &self,
        db: &Database,
        epoch: u64,
        node: usize,
        page: &PageKey,
    ) -> StruqlResult<bool> {
        let ev = Evaluator::new(db);
        for (guard, seeding) in &self.makers[node] {
            if !seeding.seedable {
                return Ok(true);
            }
            let Some(seeds) = seeding.seeds(page) else {
                continue;
            };
            let prepared = self.prepared_for(epoch, &ev, *guard, &seeding.names);
            let rows = ev.eval_where_prepared(&prepared, seeds)?;
            self.queries_run.fetch_add(1, Ordering::Relaxed);
            self.rows_produced.fetch_add(rows.len(), Ordering::Relaxed);
            if !rows.is_empty() {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Applies a data-graph delta to the engine's one database, in place:
    /// the old half of the diff ([`invalidate::old_half`]) runs beside
    /// readers; then, under the database write lock, the delta is applied,
    /// the new half routes its signed rows to pages, the epoch is bumped,
    /// and every dirty cached page is patched in place (see the module
    /// docs) or, if it cannot take its patch, evicted. A snapshot still
    /// held then makes the delta copy the database first.
    pub fn apply_delta(&self, delta: &GraphDelta) -> StruqlResult<InvalidationOutcome> {
        let _span = strudel_trace::span("engine.apply_delta");
        // Writers serialize end to end, so the database cannot move
        // between the two halves and the patches race only with readers.
        let _writer = self.writer.lock().unwrap();
        let old = invalidate::old_half(&self.schema, &self.database(), delta)?;

        let mut db = self.db.write().unwrap();
        if Arc::get_mut(&mut db).is_none() {
            // Shared by a snapshot: copy rather than change it under its
            // holder.
            self.snapshot_copies.fetch_add(1, Ordering::Relaxed);
            strudel_trace::count("engine.diff.snapshot_copies", 1);
            *db = Arc::new(Database::from_graph(db.graph().clone(), db.level()));
        }
        let live = Arc::get_mut(&mut db).expect("the database is unshared");
        // The commit point. The apply is all or nothing, so a refused
        // delta leaves the database, the epoch and the page cache as they
        // were. Past it, the new half can raise only the structural errors
        // the old half already would have; should it, no cached view can
        // be trusted.
        live.apply_delta(delta).map_err(|e| StruqlError::Eval {
            message: format!("delta does not apply: {e}"),
        })?;
        let invalidate::RoutedDelta { mut dirty, rows } =
            old.new_half(&self.schema, live).map_err(|e| {
                self.clear_cache();
                e
            })?;
        // A patch per dirty key, cached or not: whether a copy is cached
        // is only known below, and the work here is proportional to the
        // delta's rows either way.
        let patches: HashMap<PageKey, Option<PagePatch>> = rows
            .into_iter()
            .map(|(key, routed)| {
                let patch = self.plan_patch(&key, routed);
                (key, patch)
            })
            .collect();

        // The epoch bump invalidates in-flight computations against the
        // pre-delta version. Dirty pages are patched or evicted before the
        // write lock drops: `snapshot()` serialises against it, so no
        // reader can pair the new epoch with a pre-delta view — a
        // rendition of one would pass the serving layer's epoch fence and
        // stay stale. An insert computed against the old version takes its
        // shard's lock before this section does and is patched like any
        // cached copy, or after and sees the bumped epoch.
        let new_epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        if let Some(probe) = self.swap_probe.get() {
            probe();
        }
        let [updated, evicted, added, retracted] = self.patch_or_evict(&mut dirty, patches);
        drop(db);
        self.flush_prepared(new_epoch);

        // Every eviction here is a dirty cached page that was not patched.
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        self.diff_pages_updated.fetch_add(updated, Ordering::Relaxed);
        self.diff_fallbacks.fetch_add(evicted, Ordering::Relaxed);
        self.diff_rows_added.fetch_add(added, Ordering::Relaxed);
        self.diff_rows_retracted.fetch_add(retracted, Ordering::Relaxed);
        strudel_trace::count("engine.diff.pages.updated", updated as u64);
        strudel_trace::count("engine.diff.fallbacks", evicted as u64);
        strudel_trace::count("engine.diff.rows.added", added as u64);
        strudel_trace::count("engine.diff.rows.retracted", retracted as u64);
        strudel_trace::event_with("engine.invalidate", || {
            format!(
                "pages={} evicted={evicted} updated={updated}",
                dirty.pages.len()
            )
        });
        Ok(InvalidationOutcome {
            dirty,
            evicted,
            updated,
        })
    }

    /// Test hook: `probe` runs inside every later
    /// [`DynamicSite::apply_delta`], right after the apply and the epoch
    /// bump and before the dirty cached pages are patched — the
    /// point where a concurrent reader must not be able to observe the new
    /// epoch. Arms once; later calls are ignored.
    #[doc(hidden)]
    pub fn arm_swap_probe(&self, probe: impl Fn() + Send + Sync + 'static) {
        let _ = self.swap_probe.set(Box::new(probe));
    }

    /// The cache's half of [`DynamicSite::apply_delta`], run inside its
    /// critical section: applies each dirty key's patch to the copy cached
    /// now, evicts the copies that cannot take theirs, and extends `dirty`
    /// by the coercion-class rule. Returns the pages patched, the pages
    /// evicted, and the derivations added and retracted.
    fn patch_or_evict(
        &self,
        dirty: &mut DirtySet,
        mut patches: HashMap<PageKey, Option<PagePatch>>,
    ) -> [usize; 4] {
        let [mut updated, mut evicted, mut added, mut retracted] = [0; 4];
        // Held throughout: inserts register before they take a shard lock
        // and never while holding one.
        let mut aliases = self.aliases.lock().unwrap();
        // The coercion-class rule: a class holding a dirty key and any
        // other key is dirtied whole and never patched.
        let mut aliased: HashSet<PageKey> = HashSet::new();
        for key in &dirty.pages {
            let Some(keys) = key_class(key).and_then(|class| aliases.get(&class)) else {
                continue;
            };
            if keys.iter().any(|k| k != key) {
                aliased.insert(key.clone());
                aliased.extend(keys.iter().cloned());
            }
        }
        for key in aliased {
            patches.remove(&key);
            dirty.pages.insert(key);
        }

        for key in &dirty.pages {
            let patch = patches.remove(key).flatten();
            let mut shard = self.shard_of(key).write().unwrap();
            let patched = shard
                .get_mut(key)
                .map(|cached| patch.and_then(|patch| self.apply_patch(key, cached, patch)));
            match patched {
                Some(Some((plus, minus))) => {
                    updated += 1;
                    added += plus;
                    retracted += minus;
                    continue;
                }
                Some(None) => {
                    shard.remove(key);
                    evicted += 1;
                }
                None => {}
            }
            // Not cached (any more): out of the alias registry.
            if let Some(class) = key_class(key) {
                if let Entry::Occupied(mut keys) = aliases.entry(class) {
                    keys.get_mut().retain(|k| k != key);
                    if keys.get().is_empty() {
                        keys.remove();
                    }
                }
            }
        }
        [updated, evicted, added, retracted]
    }

    /// Turns the rows a delta routed to `page` into a patch: each row
    /// re-laid from its edge's unseeded layout to the stored one and
    /// projected to its link. `None` means a cached copy of the page must
    /// be evicted instead (a layout that is not a permutation, a row that
    /// does not project).
    fn plan_patch(
        &self,
        page: &PageKey,
        routed: Vec<(usize, Vec<SignedRow>)>,
    ) -> Option<PagePatch> {
        let mut patch = Vec::new();
        for (ei, rows) in routed {
            let layout = &self.layouts[ei];
            let slots = layout.from_unseeded.as_ref()?;
            for (mut unseeded, count) in rows {
                let row: Row = slots.iter().map(|&i| unseeded[i].take()).collect();
                let link = layout.project(&row, page).ok()??;
                patch.push(((ei as u32, row), count, link));
            }
        }
        Some(patch)
    }

    /// Applies `patch` to a cached page in place and empties its view
    /// slot; returns the derivations added and retracted. `None` — the
    /// page is then in an unspecified state and must be evicted — when it
    /// cannot absorb a retraction.
    fn apply_patch(
        &self,
        page: &PageKey,
        cached: &mut Cached,
        patch: PagePatch,
    ) -> Option<(usize, usize)> {
        let rows = &mut cached.rows;
        let (mut added, mut retracted) = (0usize, 0usize);
        // Retractions first, across all edges: a retitle's new row then
        // finds its link gone and re-enters it at the end, as a
        // re-projection would — inserted first it would make the old row
        // a retracted first supporter and rebuild the whole link table.
        let mut reindex = false;
        for (row, count, link) in patch.iter().filter(|(_, count, _)| *count < 0) {
            reindex |= rows.retract(row, -count, link)?;
            retracted += (-count) as usize;
        }
        for (row, count, link) in patch.into_iter().filter(|(_, count, _)| *count > 0) {
            if !rows.add(row, count, link) {
                return None;
            }
            added += count as usize;
        }
        if reindex {
            self.index_links(page, rows).ok()?;
        }
        cached.view = OnceLock::new();
        Some((added, retracted))
    }

    /// Rebuilds a page's link table from its stored rows: the one answer
    /// to "where does this link go now" when a link's first supporter was
    /// retracted and others remain. Linear in the page's rows.
    fn index_links(&self, page: &PageKey, rows: &mut PageRows) -> StruqlResult<()> {
        let PageRows { rows, links, .. } = rows;
        links.clear();
        for ((ei, row), slot) in rows.iter() {
            if let Some(link) = self.layouts[*ei as usize].project(row, page)? {
                support(links, link, (*ei, slot.seq));
            }
        }
        Ok(())
    }

    /// Test hook: the guard rows cached for `page` in stored order —
    /// schema edge, row and count, and the link the row projects to
    /// (projected afresh, not read from the link table). `None` when the
    /// page is not cached.
    #[doc(hidden)]
    #[allow(clippy::type_complexity)]
    pub fn stored_rows(
        &self,
        page: &PageKey,
    ) -> Option<Vec<(usize, SignedRow, Option<(String, DynTarget)>)>> {
        let shard = self.shard_of(page).read().unwrap();
        let rows = &shard.get(page)?.rows;
        let mut stored: Vec<(&(u32, Row), &RowSlot)> = rows.rows.iter().collect();
        stored.sort_unstable_by_key(|((ei, _), slot)| (*ei, slot.seq));
        let project = |((ei, row), slot): (&(u32, Row), &RowSlot)| {
            let ei = *ei as usize;
            let link = self.layouts[ei]
                .project(row, page)
                .expect("stored rows project");
            let link = link.map(|(label, target)| (label.to_string(), target));
            (ei, (row.clone(), slot.count), link)
        };
        Some(stored.into_iter().map(project).collect())
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
    /// plans are valid.
    fn flush_prepared(&self, new_epoch: u64) {
        let mut c = self.prepared.write().unwrap();
        if c.epoch < new_epoch {
            c.map.fill(None);
            c.epoch = new_epoch;
        }
    }

    /// Evaluates the incremental queries for one page against `db` (the
    /// snapshot stamped by `epoch`), executing cached prepared plans. The
    /// guard rows are kept (count-annotated) beside the view so later
    /// deltas can maintain the page in place.
    fn compute(
        &self,
        db: &Database,
        epoch: u64,
        node: usize,
        page: &PageKey,
    ) -> StruqlResult<Cached> {
        let _span = strudel_trace::span("engine.compute");
        let ev = Evaluator::new(db);
        let mut rows = PageRows::default();
        for (ei, edge) in self.schema.edges.iter().enumerate() {
            if edge.from != node {
                continue;
            }
            // Seed the guard with the page's Skolem arguments. Seed *names*
            // depend only on the edge (they come from the symbol's argument
            // terms), so the prepared plan is valid for every page of this
            // symbol. A page the edge provably cannot reach skips it.
            let layout = &self.layouts[ei];
            let Some(seeds) = layout.seeding.seeds(page) else {
                continue;
            };
            strudel_trace::count("engine.guard.evals", 1);
            let prepared = self.prepared_for(epoch, &ev, Guard::Out(ei), &layout.seeding.names);
            let evaluated = ev.eval_where_prepared(&prepared, seeds)?;
            debug_assert_eq!(prepared.vars(), layout.vars);
            self.queries_run.fetch_add(1, Ordering::Relaxed);
            self.rows_produced.fetch_add(evaluated.len(), Ordering::Relaxed);
            rows.rows.reserve(evaluated.len());
            for row in evaluated {
                let Some(link) = layout.project(&row, page)? else {
                    continue;
                };
                if !rows.add((ei as u32, row), 1, link) {
                    return Err(StruqlError::Eval {
                        message: format!("page '{}' derives too many rows", page.symbol),
                    });
                }
            }
        }
        Ok(Cached {
            view: OnceLock::new(),
            rows,
        })
    }

    /// Explains how `page` would be served: one [`ExplainReport`] per
    /// schema out-edge whose guard would run, with the planner's
    /// cardinality estimates next to the measured per-step row counts and
    /// timings. Edges that cannot reach the page are omitted.
    /// Nothing is cached and no engine counters move.
    pub fn explain(&self, page: &PageKey) -> StruqlResult<Vec<EdgeExplain>> {
        let node = self.node_of(page)?;
        let db = self.database();
        let ev = Evaluator::new(&db);
        let mut out = Vec::new();
        for (edge, layout) in self.schema.edges.iter().zip(&self.layouts) {
            if edge.from != node {
                continue;
            }
            let seeding = &layout.seeding;
            let Some(seeds) = seeding.seeds(page) else {
                continue;
            };
            let seeds: Vec<(String, Value)> =
                seeding.names.iter().cloned().zip(seeds.cloned()).collect();
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
    fn a_key_of_the_wrong_arity_is_an_empty_page() {
        // `/page/PaperPage` parses to a key with no argument: no edge of
        // the symbol can reach it, and none is evaluated for it.
        let site = DynamicSite::new(db(), &parse(QUERY).unwrap(), Mode::Context);
        let view = site
            .visit(&PageKey {
                symbol: "PaperPage".into(),
                args: vec![],
            })
            .unwrap();
        assert!(view.edges.is_empty());
        assert_eq!(site.metrics().queries_run, 0);
    }

    #[test]
    fn a_page_the_site_never_creates_is_looked_up_as_none_and_not_cached() {
        let site = DynamicSite::new(db(), &parse(QUERY).unwrap(), Mode::Context);
        let year = |y: i64| PageKey {
            symbol: "YearPage".into(),
            args: vec![Value::Int(y)],
        };
        assert!(site.lookup(&year(1890)).unwrap().is_none());
        assert_eq!(site.cached_pages(), 0, "a made-up key is not cached");
        assert!(site.lookup(&year(1997)).unwrap().is_some());
        assert_eq!(site.cached_pages(), 1);
        // A zero-ary page exists through its collect, a paper page
        // through the edge from the root.
        assert!(site.lookup(&root()).unwrap().is_some());
        let db = site.database();
        let p1 = Value::Node(db.graph().node_by_name("p1").unwrap());
        let paper = |arg: Value| PageKey {
            symbol: "PaperPage".into(),
            args: vec![arg],
        };
        assert!(site.lookup(&paper(p1)).unwrap().is_some());
        assert!(site.lookup(&paper(Value::string("p1"))).unwrap().is_none());
        // A key over a data-graph object is bounded by the graph and may
        // name a page a delta took away: an empty page, as `visit` serves.
        let p2 = db.graph().node_by_name("p2").unwrap();
        let year_of_object = PageKey {
            symbol: "YearPage".into(),
            args: vec![Value::Node(p2)],
        };
        assert!(site.lookup(&year_of_object).unwrap().unwrap().edges.is_empty());
        // A cached page a delta empties is gone for `lookup` as for a
        // fresh engine, and still maintained for `visit`.
        assert!(site.lookup(&year(1998)).unwrap().is_some());
        let mut delta = GraphDelta::new();
        delta.remove_edge(p2, "year", Value::Int(1998));
        site.apply_delta(&delta).unwrap();
        assert!(site.lookup(&year(1998)).unwrap().is_none());
        assert!(site.visit(&year(1998)).unwrap().edges.is_empty());
        let fresh = DynamicSite::new(site.database(), &parse(QUERY).unwrap(), Mode::Context);
        assert!(fresh.lookup(&year(1998)).unwrap().is_none());
    }

    #[test]
    fn a_page_only_a_create_clause_makes_exists() {
        // No link leaves or enters a year page and nothing collects one:
        // its `create` term alone mints it, with an empty view.
        let program = parse(
            r#"
            where Publications(x)
            create PaperPage(x)
            { where x -> "year" -> y
              create YearPage(y) }
        "#,
        )
        .unwrap();
        let site = DynamicSite::new(db(), &program, Mode::Context);
        let year = |y: i64| PageKey {
            symbol: "YearPage".into(),
            args: vec![Value::Int(y)],
        };
        let view = site.lookup(&year(1997)).unwrap().expect("a created page exists");
        assert!(view.edges.is_empty());
        assert_eq!(site.cached_pages(), 1);
        assert!(site.lookup(&year(1890)).unwrap().is_none());
        assert_eq!(site.cached_pages(), 1, "a made-up key is not cached");
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
        let mut expected = PageView::clone(&site.visit(&root()).unwrap());
        expected
            .edges
            .sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));

        let mut handles = Vec::new();
        for _ in 0..8 {
            let site = Arc::clone(&site);
            let expected = expected.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let mut v = PageView::clone(&site.visit(&root()).unwrap());
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
                sort(PageView::clone(&site.visit(k).unwrap())),
                sort(PageView::clone(&fresh.visit(k).unwrap())),
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
        assert_eq!(outcome.evicted, 0);
        assert_eq!(outcome.updated, 0);
        assert_eq!(site.cached_pages(), cached);

        let hits = site.metrics().cache_hits;
        site.visit(&root()).unwrap();
        assert_eq!(site.metrics().cache_hits, hits + 1, "still a cache hit");
    }

    fn retitle(site: &DynamicSite, node: strudel_graph::Oid, from: &str, to: &str) {
        let mut delta = GraphDelta::new();
        delta.remove_edge(node, "title", Value::string(from));
        delta.add_edge(node, "title", Value::string(to));
        let outcome = site.apply_delta(&delta).unwrap();
        assert_eq!((outcome.updated, outcome.evicted), (1, 0), "{outcome:?}");
    }

    #[test]
    fn a_reader_parked_mid_visit_across_a_delta_inserts_nothing() {
        let db = db();
        let p1 = db.graph().node_by_name("p1").unwrap();
        let program = parse(QUERY).unwrap();
        let site = DynamicSite::new(db, &program, Mode::Context);
        let key = PageKey {
            symbol: "PaperPage".into(),
            args: vec![Value::Node(p1)],
        };
        // `serve`, step by step: the snapshot is taken, then a delta lands
        // before the view is computed and inserted.
        let (epoch, snapshot) = site.snapshot();
        let mut delta = GraphDelta::new();
        delta.remove_edge(p1, "title", Value::string("Alpha"));
        delta.add_edge(p1, "title", Value::string("Alpha (rev)"));
        site.apply_delta(&delta).unwrap();
        assert_eq!(site.metrics().snapshot_copies, 1, "the reader's snapshot");
        let node = site.node_of(&key).unwrap();
        let stale = site.compute(&snapshot, epoch, node, &key).unwrap();
        assert!(stale
            .view()
            .edges
            .iter()
            .any(|(l, t)| l == "title" && *t == DynTarget::Data(Value::string("Alpha"))));
        site.insert_if_current(epoch, key.clone(), stale);
        drop(snapshot);
        assert_eq!(site.cached_pages(), 0, "the epoch fence dropped the insert");

        let fresh = DynamicSite::new(site.database(), &program, Mode::Context);
        assert_eq!(site.visit(&key).unwrap(), fresh.visit(&key).unwrap());
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
    fn row_store_tracks_counts_and_rejects_underflow() {
        let row = |n: i64| -> (u32, Row) { (0, vec![Some(Value::Int(n))]) };
        let link = |n: i64| -> Link { ("l".into(), DynTarget::Data(Value::Int(n))) };
        let viewed = |n: i64| ("l".to_string(), DynTarget::Data(Value::Int(n)));
        let mut rows = PageRows::default();
        assert!(rows.add(row(1), 2, link(1)));
        assert!(rows.add(row(2), 1, link(2)));
        assert_eq!(rows.retract(&row(1), 1, &link(1)), Some(false));
        assert_eq!(rows.rows[&row(1)].count, 1, "one derivation left");
        assert_eq!(rows.view().edges, vec![viewed(1), viewed(2)]);
        // The last derivation takes the row and its link along.
        assert_eq!(rows.retract(&row(1), 1, &link(1)), Some(false));
        assert_eq!(rows.view().edges, vec![viewed(2)]);
        // A re-derived row is a new row: it goes to the end.
        assert!(rows.add(row(1), 1, link(1)));
        assert_eq!(rows.view().edges, vec![viewed(2), viewed(1)]);
        // Retracting more than the store holds, or a row it never held,
        // signals fallback.
        assert_eq!(rows.retract(&row(2), 2, &link(2)), None);
        assert_eq!(rows.retract(&row(3), 1, &link(3)), None);
    }

    #[test]
    fn first_supporter_retraction_is_reported_only_with_survivors() {
        let row = |ei: u32, n: i64| -> (u32, Row) { (ei, vec![Some(Value::Int(n))]) };
        let shared: Link = ("l".into(), DynTarget::Data(Value::Int(0)));
        let mut rows = PageRows::default();
        // Two edges derive one link: the later row takes over `first`
        // when it sits under the earlier edge.
        assert!(rows.add(row(1, 1), 1, shared.clone()));
        assert!(rows.add(row(0, 2), 1, shared.clone()));
        assert_eq!(rows.links[&shared].first, (0, 1));
        assert_eq!(rows.retract(&row(1, 1), 1, &shared), Some(false));
        assert!(rows.add(row(1, 3), 1, shared.clone()));
        assert_eq!(rows.retract(&row(0, 2), 1, &shared), Some(true));
        assert_eq!(rows.retract(&row(1, 3), 1, &shared), Some(false));
        assert!(rows.links.is_empty());
    }

    #[test]
    fn a_reader_keeps_its_view_across_a_patch() {
        let db = db();
        let p1 = db.graph().node_by_name("p1").unwrap();
        let site = DynamicSite::new(db, &parse(QUERY).unwrap(), Mode::Context);
        let key = PageKey {
            symbol: "PaperPage".into(),
            args: vec![Value::Node(p1)],
        };
        let title = |view: &PageView| {
            view.edges
                .iter()
                .find_map(|(l, t)| (l == "title").then(|| t.clone()))
        };
        let held = site.visit(&key).unwrap();
        retitle(&site, p1, "Alpha", "Alpha (rev)");
        assert_eq!(title(&held), Some(DynTarget::Data(Value::string("Alpha"))));
        let now = site.visit(&key).unwrap();
        assert_eq!(title(&now), Some(DynTarget::Data(Value::string("Alpha (rev)"))));
        assert!(!Arc::ptr_eq(&held, &now));
        assert!(Arc::ptr_eq(&now, &site.visit(&key).unwrap()), "a hit shares the view");
    }

    #[test]
    fn concurrent_first_readers_after_a_patch_share_one_view() {
        let db = db();
        let p1 = db.graph().node_by_name("p1").unwrap();
        let site = DynamicSite::new(db, &parse(QUERY).unwrap(), Mode::Context);
        let key = PageKey {
            symbol: "PaperPage".into(),
            args: vec![Value::Node(p1)],
        };
        site.visit(&key).unwrap();
        retitle(&site, p1, "Alpha", "Alpha (rev)");
        // Both readers are released together onto the emptied view slot.
        let gate = std::sync::Barrier::new(2);
        let (a, b) = std::thread::scope(|scope| {
            let reader = || {
                gate.wait();
                site.visit(&key).unwrap()
            };
            let a = scope.spawn(reader);
            let b = scope.spawn(reader);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(Arc::ptr_eq(&a, &b), "one materialisation, shared");
        assert!(a.edges.iter().any(|(l, t)| l == "title"
            && *t == DynTarget::Data(Value::string("Alpha (rev)"))));
    }

    /// A year page that lists its papers, so that one more paper of the
    /// year changes it.
    const YEARS_QUERY: &str = r#"
        where Publications(x), x -> "year" -> y
        create YearPage(y), PaperPage(x)
        link YearPage(y) -> "paper" -> PaperPage(x)
        collect Years(YearPage(y))
    "#;

    fn sorted_edges(view: &PageView) -> Vec<String> {
        let mut edges: Vec<String> = view.edges.iter().map(|e| format!("{e:?}")).collect();
        edges.sort_unstable();
        edges
    }

    /// The view a fresh engine over `site`'s database serves for `key`.
    fn fresh_view(site: &DynamicSite, key: &PageKey) -> Vec<String> {
        let program = parse(YEARS_QUERY).unwrap();
        let fresh = DynamicSite::new(site.database(), &program, Mode::Context);
        sorted_edges(&fresh.visit(key).unwrap())
    }

    #[test]
    fn a_coercion_alias_of_a_dirty_key_is_evicted_not_left_stale() {
        // `/page/YearPage/s:1998` parses to Str "1998"; the data says
        // Int 1998 and the seeded guard matches it by coercion.
        let db = db();
        let site = DynamicSite::new(db.clone(), &parse(YEARS_QUERY).unwrap(), Mode::Context);
        let alias = PageKey {
            symbol: "YearPage".into(),
            args: vec![Value::string("1998")],
        };
        let exact = PageKey {
            symbol: "YearPage".into(),
            args: vec![Value::Int(1998)],
        };
        assert_eq!(site.visit(&alias).unwrap().edges.len(), 1, "served by coercion");

        // Another 1998 paper: the delta's rows name YearPage(Int 1998).
        let mut delta = GraphDelta::new();
        delta.add_node(Some("p4"));
        let p4 = strudel_graph::Oid::from_index(db.graph().node_count());
        delta.add_edge(p4, "year", Value::Int(1998));
        delta.collect("Publications", Value::Node(p4));
        let outcome = site.apply_delta(&delta).unwrap();
        assert!(outcome.dirty.contains(&exact), "{:?}", outcome.dirty);
        assert!(
            outcome.dirty.contains(&alias),
            "the alias is dirtied for the caches downstream: {:?}",
            outcome.dirty
        );
        assert_eq!(outcome.evicted, 1, "evicted, never patched: {outcome:?}");
        let view = site.visit(&alias).unwrap();
        assert_eq!(view.edges.len(), 2, "the new paper shows: {view:?}");
        assert_eq!(sorted_edges(&view), fresh_view(&site, &alias));

        // With both spellings cached, neither may be patched by rows
        // routed to one of them.
        site.visit(&exact).unwrap();
        let mut delta = GraphDelta::new();
        delta.remove_edge(p4, "year", Value::Int(1998));
        let outcome = site.apply_delta(&delta).unwrap();
        assert_eq!((outcome.updated, outcome.evicted), (0, 2), "{outcome:?}");
        for key in [&alias, &exact] {
            assert_eq!(sorted_edges(&site.visit(key).unwrap()), fresh_view(&site, key));
        }

        // Once the alias has left the cache the exact key is patched again.
        let mut delta = GraphDelta::new();
        delta.add_edge(p4, "year", Value::Int(1998));
        let outcome = site.apply_delta(&delta).unwrap();
        assert_eq!(outcome.evicted, 2, "{outcome:?}");
        site.visit(&exact).unwrap();
        let mut delta = GraphDelta::new();
        delta.remove_edge(p4, "year", Value::Int(1998));
        let outcome = site.apply_delta(&delta).unwrap();
        assert_eq!((outcome.updated, outcome.evicted), (1, 0), "{outcome:?}");
        assert_eq!(sorted_edges(&site.visit(&exact).unwrap()), fresh_view(&site, &exact));
    }

    #[test]
    fn clear_cache_counts_evictions() {
        let site = DynamicSite::new(db(), &parse(QUERY).unwrap(), Mode::Context);
        site.crawl("Roots").unwrap();
        let cached = site.cached_pages();
        assert!(cached >= 4);
        site.clear_cache();
        assert_eq!(site.cached_pages(), 0);
        assert_eq!(site.metrics().evictions, cached);
    }
}
