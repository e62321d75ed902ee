//! The repository façade: an indexed, optionally persistent graph store.

use crate::index::{ExtensionIndex, IndexSet, SchemaIndex};
use crate::stats::Stats;
use crate::vfs::{RealVfs, Vfs};
use crate::wal::{self, Wal};
use crate::{snapshot, RepoError};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use strudel_graph::{DeltaError, DeltaOp, Graph, GraphDelta, Label, Oid, Value};

/// How much indexing the repository maintains.
///
/// The paper's prototype always indexes fully; this knob exists for the
/// E-index ablation (what do the indexes buy in a schemaless store?). The
/// level alone decides whether a probe answers `Some` or `None`; an index
/// the level allows is built by its first probe. A database that is
/// not mutated orders a probe's rows the same whenever the index came to
/// be built (graph order); once it is mutated, a built family appends in
/// mutation order and `swap_remove`s, so two databases with one mutation
/// history agree on each key's rows as a multiset, not on their order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum IndexLevel {
    /// No indexes: every lookup is a graph scan.
    None,
    /// Schema + per-attribute extension indexes, no global value index.
    ExtensionOnly,
    /// Everything, the paper's configuration.
    #[default]
    Full,
}

/// An indexed graph database with optional snapshot + WAL persistence.
///
/// All mutation goes through `Database` methods so the indexes stay
/// consistent with the graph; reads hand out `&Graph` freely.
#[derive(Debug)]
pub struct Database {
    graph: Graph,
    level: IndexLevel,
    indexes: IndexSet,
    // Mutex (not RefCell) so a read-only Database shares across threads:
    // the click-time server hands `Arc<Database>` to its whole pool.
    stats: Mutex<Option<Arc<Stats>>>,
    wal: Option<Wal>,
    dir: Option<PathBuf>,
    vfs: Option<Arc<dyn Vfs>>,
    // When present, persistence is the paged store: deltas commit
    // through its WAL + buffer pool and `checkpoint` writes its
    // manifest; `wal`/`dir` snapshot persistence is unused. The graph
    // stays fully materialized in memory as the read fast path.
    pager: Option<crate::pager::PagedRepo>,
    generation: u64,
    wal_discarded_bytes: u64,
    recovered_stale_wal: bool,
}

impl Default for Database {
    fn default() -> Self {
        Self::new(IndexLevel::Full)
    }
}

impl Database {
    /// An empty in-memory database at the given index level.
    pub fn new(level: IndexLevel) -> Self {
        Self::from_graph(Graph::new(), level)
    }

    /// Wraps an existing graph. No index is built here: each family the
    /// level allows is built from the graph when it is first probed.
    pub fn from_graph(graph: Graph, level: IndexLevel) -> Self {
        Database {
            graph,
            level,
            indexes: IndexSet::default(),
            stats: Mutex::new(None),
            wal: None,
            dir: None,
            vfs: None,
            pager: None,
            generation: 0,
            wal_discarded_bytes: 0,
            recovered_stale_wal: false,
        }
    }

    /// Opens (or creates) a persistent database in directory `dir`: loads
    /// `snapshot.bin` if present, replays `wal.log`, and keeps the WAL open
    /// for appending.
    pub fn open(dir: &Path, level: IndexLevel) -> Result<Self, RepoError> {
        Self::open_with(dir, level, Arc::new(RealVfs))
    }

    /// [`Database::open`] through an explicit [`Vfs`] — the crash-torture
    /// harness passes a fault-injecting one.
    ///
    /// Recovery decides what the WAL means by comparing its header
    /// generation `W` against the snapshot's generation `G`:
    ///
    /// | state                     | meaning                            | action                    |
    /// |---------------------------|------------------------------------|---------------------------|
    /// | `W == G`                  | log extends this snapshot          | replay, repair torn tail  |
    /// | `W < G` or torn header    | crash between a checkpoint's       | discard log (its frames   |
    /// |                           | snapshot rename and WAL truncation | are already in `G`)       |
    /// | `W > G`                   | the snapshot that truncated this   | refuse: precise corrupt   |
    /// |                           | log is missing                     | error                     |
    pub fn open_with(dir: &Path, level: IndexLevel, vfs: Arc<dyn Vfs>) -> Result<Self, RepoError> {
        vfs.create_dir_all(dir)?;
        let snap_path = dir.join("snapshot.bin");
        let wal_path = dir.join("wal.log");
        let snap_tmp = snap_path.with_extension("tmp");
        if vfs.exists(&snap_tmp) {
            // A checkpoint died before its rename; the temp file is
            // unreferenced garbage.
            vfs.remove_file(&snap_tmp)?;
        }
        let (mut graph, snap_gen) = if vfs.exists(&snap_path) {
            snapshot::load_from_path_with(vfs.as_ref(), &snap_path)?
        } else {
            (Graph::new(), 0)
        };
        let wal_existed = vfs.exists(&wal_path);
        let replay_span = strudel_trace::span("repo.wal.replay");
        let report = wal::replay_report_with(vfs.as_ref(), &wal_path)?;
        let mut recovered_stale_wal = false;
        let mut discarded = report.discarded_bytes;
        let mut replayed = 0usize;
        let wal = if report.torn_header || report.generation < snap_gen {
            // Stale log: a crash landed after the checkpoint's snapshot
            // rename but before (or during) the WAL truncation. Every
            // frame it holds is already inside the generation-`snap_gen`
            // snapshot — replaying would double-apply, so discard.
            recovered_stale_wal = wal_existed && !report.torn_header;
            discarded = 0; // nothing user-visible is lost
            Wal::create_with(vfs.as_ref(), &wal_path, snap_gen)?
        } else if report.generation > snap_gen {
            return Err(RepoError::Corrupt {
                what: "wal",
                offset: 8,
                message: format!(
                    "wal generation {} is newer than snapshot generation {snap_gen}: \
                     the snapshot that truncated this log is missing",
                    report.generation
                ),
            });
        } else {
            replayed = report.deltas.len();
            for delta in report.deltas {
                delta.apply(&mut graph)?;
            }
            if report.discarded_bytes > 0 {
                // Chop the torn tail off before reopening for append, or
                // the next frame would land after garbage and be
                // unreplayable.
                let valid = vfs.len(&wal_path)? - report.discarded_bytes;
                vfs.set_len(&wal_path, valid)?;
            }
            Wal::open_append_with(vfs.as_ref(), &wal_path, snap_gen)?
        };
        drop(replay_span);
        strudel_trace::event_with("repo.wal.replay", || {
            format!("deltas={replayed} discarded_bytes={discarded} stale={recovered_stale_wal}")
        });
        let mut db = Self::from_graph(graph, level);
        db.wal = Some(wal);
        db.dir = Some(dir.to_owned());
        db.vfs = Some(vfs);
        db.generation = snap_gen;
        db.wal_discarded_bytes = discarded;
        db.recovered_stale_wal = recovered_stale_wal;
        Ok(db)
    }

    /// Opens (or creates) a database persisted by the paged store
    /// ([`crate::pager::PagedRepo`]) instead of the monolithic snapshot:
    /// deltas commit through the pager's WAL and buffer pool, and
    /// [`Database::checkpoint`] publishes a manifest generation. The
    /// graph is materialized fully in memory at open — the in-memory
    /// fast path for sites that fit — while the paged store remains the
    /// durable authority (and serves out-of-core MVCC snapshots via
    /// [`Database::pager`]).
    pub fn open_paged(
        dir: &Path,
        level: IndexLevel,
        cfg: crate::pager::PagerConfig,
    ) -> Result<Self, RepoError> {
        Self::open_paged_with(dir, level, Arc::new(RealVfs), cfg)
    }

    /// [`Database::open_paged`] through an explicit [`Vfs`].
    pub fn open_paged_with(
        dir: &Path,
        level: IndexLevel,
        vfs: Arc<dyn Vfs>,
        cfg: crate::pager::PagerConfig,
    ) -> Result<Self, RepoError> {
        let pager = crate::pager::PagedRepo::open_with(vfs.clone(), dir, cfg)?;
        let graph = pager.snapshot().materialize()?;
        let mut db = Self::from_graph(graph, level);
        db.dir = Some(dir.to_owned());
        db.vfs = Some(vfs);
        db.generation = pager.generation();
        db.pager = Some(pager);
        Ok(db)
    }

    /// The paged store backing this database, when it was opened with
    /// [`Database::open_paged`].
    pub fn pager(&self) -> Option<&crate::pager::PagedRepo> {
        self.pager.as_ref()
    }

    /// Writes a fresh snapshot and truncates the WAL.
    ///
    /// The checkpoint protocol makes the generation counter do the
    /// bookkeeping: sync the WAL, write the next-generation snapshot
    /// durably (temp + fsync + rename + dir fsync), and only then recreate
    /// the WAL with the new generation in its header. A crash anywhere in
    /// between leaves either the old `(snapshot, log)` pair or a
    /// new-generation snapshot with a stale log that
    /// [`Database::open`] discards — never a double apply.
    pub fn checkpoint(&mut self) -> Result<(), RepoError> {
        if let Some(pager) = &self.pager {
            pager.checkpoint()?;
            self.generation = pager.generation();
            return Ok(());
        }
        let (Some(dir), Some(vfs)) = (self.dir.clone(), self.vfs.clone()) else {
            return Ok(()); // in-memory databases checkpoint trivially
        };
        let result = (|| {
            if let Some(w) = &mut self.wal {
                w.sync()?;
            }
            let next = self.generation + 1;
            snapshot::save_to_path_with(vfs.as_ref(), &self.graph, next, &dir.join("snapshot.bin"))?;
            self.generation = next;
            self.wal = Some(Wal::create_with(vfs.as_ref(), &dir.join("wal.log"), next)?);
            Ok(())
        })();
        if result.is_err() {
            // The WAL handle may now disagree with what is on disk; drop
            // it so further mutations fail fast instead of logging into an
            // inconsistent file. Reopening recovers.
            self.wal = None;
        }
        result
    }

    // ----- reads ---------------------------------------------------------

    /// The underlying graph (read-only).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Consumes the database, returning its graph.
    pub fn into_graph(self) -> Graph {
        self.graph
    }

    /// The configured index level.
    pub fn level(&self) -> IndexLevel {
        self.level
    }

    /// Bytes of a torn trailing WAL record discarded (and truncated away)
    /// when this database was opened; 0 for clean opens and in-memory
    /// databases.
    pub fn wal_discarded_bytes(&self) -> u64 {
        self.wal_discarded_bytes
    }

    /// The checkpoint generation this database is at: 0 until the first
    /// checkpoint, bumped by each successful one. The WAL header always
    /// records the generation of the snapshot it extends.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether opening found (and discarded) a stale WAL from a crash that
    /// landed between a checkpoint's snapshot rename and its WAL
    /// truncation. The discarded frames were already in the snapshot.
    pub fn recovered_stale_wal(&self) -> bool {
        self.recovered_stale_wal
    }

    /// The extension of attribute `label` — all `(source, target)` pairs —
    /// when extension indexes are maintained.
    pub fn extension(&self, label: Label) -> Option<&[(Oid, Value)]> {
        strudel_trace::count("repo.probe.extension", 1);
        self.extension_index().map(|x| x.extension(label))
    }

    /// The sources of edges `x --label--> to`, when extension indexes are
    /// maintained.
    pub fn sources(&self, label: Label, to: &Value) -> Option<&[Oid]> {
        strudel_trace::count("repo.probe.sources", 1);
        self.extension_index().map(|x| x.sources(label, to))
    }

    /// The extension indexes, built now if this is their first use, when
    /// the level maintains them.
    fn extension_index(&self) -> Option<&ExtensionIndex> {
        (self.level != IndexLevel::None).then(|| self.indexes.extension(&self.graph))
    }

    /// Every `(node, label)` location of the atomic value `v`, when the
    /// global value index is maintained.
    pub fn value_locations(&self, v: &Value) -> Option<&[(Oid, Label)]> {
        strudel_trace::count("repo.probe.value_locations", 1);
        (self.level == IndexLevel::Full).then(|| self.indexes.value(&self.graph).locations(v))
    }

    /// The schema index, when maintained.
    pub fn schema_index(&self) -> Option<&SchemaIndex> {
        (self.level != IndexLevel::None).then(|| self.indexes.schema(&self.graph))
    }

    /// Builds a [`DataGuide`](crate::DataGuide) over the node members of
    /// a collection — the discovered schema of that collection's objects.
    /// `None` when the collection is missing or has no node members.
    pub fn dataguide(&self, collection: &str) -> Option<crate::DataGuide> {
        let cid = self.graph.collection_id(collection)?;
        let roots: Vec<Oid> = self
            .graph
            .members(cid)
            .iter()
            .filter_map(Value::as_node)
            .collect();
        if roots.is_empty() {
            return None;
        }
        Some(crate::DataGuide::build(&self.graph, &roots))
    }

    /// A statistics snapshot for the optimizer, computed lazily and cached
    /// until the next mutation.
    pub fn stats(&self) -> Arc<Stats> {
        let mut slot = self.stats.lock().unwrap();
        if let Some(s) = slot.as_ref() {
            return Arc::clone(s);
        }
        let s = Arc::new(Stats::compute(&self.graph));
        *slot = Some(Arc::clone(&s));
        s
    }

    /// The cached statistics snapshot, if one is live — `None` after any
    /// mutation. Unlike [`Database::stats`] this never computes.
    pub fn cached_stats(&self) -> Option<Arc<Stats>> {
        self.stats.lock().unwrap().clone()
    }

    /// Installs a statistics snapshot into the cache without scanning the
    /// graph. The incremental engine carries slightly-stale stats across
    /// small deltas this way: the planner only consumes relative
    /// cardinalities, so a bounded drift changes join orders at worst —
    /// never results. Callers own the staleness bound.
    pub fn seed_stats(&self, stats: Arc<Stats>) {
        *self.stats.lock().unwrap() = Some(stats);
    }

    // ----- mutations -----------------------------------------------------

    /// Creates an anonymous node.
    pub fn add_node(&mut self) -> Result<Oid, RepoError> {
        self.log_one(DeltaOp::AddNode { name: None })?;
        self.invalidate();
        Ok(self.graph.add_node())
    }

    /// Creates (or fetches) a named node.
    pub fn add_named_node(&mut self, name: &str) -> Result<Oid, RepoError> {
        if let Some(oid) = self.graph.node_by_name(name) {
            return Ok(oid); // no-op, nothing to log
        }
        self.log_one(DeltaOp::AddNode {
            name: Some(name.into()),
        })?;
        self.invalidate();
        Ok(self.graph.add_named_node(name))
    }

    /// Adds an edge, maintaining all indexes. Both endpoints must exist:
    /// a dangling edge would be logged but refused by replay (and by the
    /// snapshot loader), poisoning the database's own WAL.
    pub fn add_edge(&mut self, from: Oid, label: &str, to: Value) -> Result<(), RepoError> {
        if !self.graph.contains_node(from) {
            return Err(DeltaError::UnknownNode(from).into());
        }
        if let Some(o) = to.as_node() {
            if !self.graph.contains_node(o) {
                return Err(DeltaError::UnknownNode(o).into());
            }
        }
        self.log_one(DeltaOp::AddEdge {
            from,
            label: label.into(),
            to: to.clone(),
        })?;
        self.apply_add_edge(from, label, to);
        Ok(())
    }

    /// Removes one occurrence of an edge. Returns whether it existed.
    pub fn remove_edge(&mut self, from: Oid, label: &str, to: &Value) -> Result<bool, RepoError> {
        let Some(l) = self.graph.label(label) else {
            return Ok(false);
        };
        if !self.graph.has_edge(from, l, to) {
            return Ok(false);
        }
        self.log_one(DeltaOp::RemoveEdge {
            from,
            label: label.into(),
            to: to.clone(),
        })?;
        self.apply_remove_edge(from, l, to);
        Ok(true)
    }

    /// Adds `member` to a named collection. A node member must exist (see
    /// [`Database::add_edge`] on why a dangling reference cannot be
    /// allowed into the WAL).
    pub fn collect(&mut self, collection: &str, member: Value) -> Result<bool, RepoError> {
        if let Some(o) = member.as_node() {
            if !self.graph.contains_node(o) {
                return Err(DeltaError::UnknownNode(o).into());
            }
        }
        let cid = self.graph.intern_collection(collection);
        if self.graph.in_collection(cid, &member) {
            return Ok(false);
        }
        self.log_one(DeltaOp::Collect {
            collection: collection.into(),
            member: member.clone(),
        })?;
        self.invalidate();
        self.indexes.note_member(collection, 1);
        Ok(self.graph.collect(cid, member))
    }

    /// Removes `member` from a named collection.
    pub fn uncollect(&mut self, collection: &str, member: &Value) -> Result<bool, RepoError> {
        let Some(cid) = self.graph.collection_id(collection) else {
            return Ok(false);
        };
        if !self.graph.in_collection(cid, member) {
            return Ok(false);
        }
        self.log_one(DeltaOp::Uncollect {
            collection: collection.into(),
            member: member.clone(),
        })?;
        self.invalidate();
        self.indexes.note_member(collection, -1);
        Ok(self.graph.uncollect(cid, member))
    }

    /// Applies a whole delta as one WAL record, keeping indexes in sync.
    ///
    /// The delta is validated against the current graph *before* it
    /// reaches the WAL (mirroring [`GraphDelta::apply`]'s semantics,
    /// including intra-delta dependencies like add-node-then-edge-to-it).
    /// A rejected delta therefore leaves graph, indexes, *and log*
    /// untouched — logging first and validating later would durably
    /// record a delta that replay refuses, breaking the next open. A
    /// failed WAL append likewise leaves the in-memory state untouched.
    pub fn apply_delta(&mut self, delta: &GraphDelta) -> Result<Vec<Oid>, RepoError> {
        validate_delta(&self.graph, delta)?;
        self.wal_append(delta)?;
        let mut created = Vec::new();
        for op in delta.ops() {
            match op {
                DeltaOp::AddNode { name } => {
                    let oid = match name {
                        Some(n) => self.graph.add_named_node(n),
                        None => self.graph.add_node(),
                    };
                    created.push(oid);
                }
                DeltaOp::AddEdge { from, label, to } => {
                    if !self.graph.contains_node(*from) {
                        return Err(strudel_graph::DeltaError::UnknownNode(*from).into());
                    }
                    self.apply_add_edge(*from, label, to.clone());
                }
                DeltaOp::RemoveEdge { from, label, to } => {
                    let l = self.graph.label(label).ok_or_else(|| {
                        RepoError::Delta(strudel_graph::DeltaError::MissingEdge {
                            from: *from,
                            label: label.clone(),
                        })
                    })?;
                    if !self.graph.has_edge(*from, l, to) {
                        return Err(strudel_graph::DeltaError::MissingEdge {
                            from: *from,
                            label: label.clone(),
                        }
                        .into());
                    }
                    self.apply_remove_edge(*from, l, to);
                }
                DeltaOp::Collect { collection, member } => {
                    let cid = self.graph.intern_collection(collection);
                    if self.graph.collect(cid, member.clone()) {
                        self.indexes.note_member(collection, 1);
                    }
                }
                DeltaOp::Uncollect { collection, member } => {
                    let cid = self.graph.collection_id(collection).ok_or_else(|| {
                        RepoError::Delta(strudel_graph::DeltaError::MissingMember {
                            collection: collection.clone(),
                        })
                    })?;
                    if self.graph.uncollect(cid, member) {
                        self.indexes.note_member(collection, -1);
                    }
                }
            }
        }
        self.invalidate();
        Ok(created)
    }

    /// Drops every index, so the next probe of each family rebuilds it
    /// from the graph (used after bulk graph surgery and by tests to
    /// cross-check incremental maintenance).
    pub fn rebuild_indexes(&mut self) {
        self.indexes = IndexSet::default();
        self.invalidate();
    }

    // ----- internals ------------------------------------------------------

    fn apply_add_edge(&mut self, from: Oid, label: &str, to: Value) {
        let l = self.graph.intern_label(label);
        self.indexes.note_edge(from, l, &to);
        self.graph.add_edge(from, l, to);
        self.invalidate();
    }

    fn apply_remove_edge(&mut self, from: Oid, l: Label, to: &Value) {
        self.indexes.forget_edge(from, l, to);
        self.graph.remove_edge(from, l, to);
        self.invalidate();
    }

    fn log_one(&mut self, op: DeltaOp) -> Result<(), RepoError> {
        let mut d = GraphDelta::new();
        d.push(op);
        self.wal_append(&d)
    }

    /// Appends `delta` to the WAL, if there is one. A failed append
    /// poisons the log: the frame may sit torn on disk, and appending
    /// after it would turn a recoverable torn *tail* into mid-log
    /// corruption. The database refuses further writes until reopened
    /// (reopen discards the torn frame and resumes cleanly).
    fn wal_append(&mut self, delta: &GraphDelta) -> Result<(), RepoError> {
        if let Some(pager) = &self.pager {
            let _span = strudel_trace::span("repo.wal.append");
            strudel_trace::count("repo.wal.appends", 1);
            // The paged store validates, WAL-appends, and commits the
            // delta to copy-on-write pages in one atomic step.
            return pager.apply_delta(delta);
        }
        let res = match self.wal_mut()? {
            Some(wal) => {
                let _span = strudel_trace::span("repo.wal.append");
                strudel_trace::count("repo.wal.appends", 1);
                wal.append(delta)
            }
            None => Ok(()),
        };
        if res.is_err() {
            self.wal = None;
        }
        res
    }

    /// The WAL to log into: `None` for in-memory databases, an error for
    /// a persistent database whose WAL was dropped by a failed checkpoint
    /// (silently skipping the log there would un-persist mutations).
    fn wal_mut(&mut self) -> Result<Option<&mut Wal>, RepoError> {
        if self.dir.is_some() && self.wal.is_none() && self.pager.is_none() {
            return Err(RepoError::Io(std::io::Error::other(
                "write-ahead log unavailable after a failed checkpoint; reopen the database",
            )));
        }
        Ok(self.wal.as_mut())
    }

    fn invalidate(&mut self) {
        *self.stats.lock().unwrap() = None;
    }
}

/// Dry-runs `delta` against `graph`, reporting the error
/// [`GraphDelta::apply`] would raise — without mutating anything.
///
/// The simulation tracks intra-delta effects with overlays: nodes created
/// earlier in the delta count for later ops, edge add/remove multiplicity
/// nets out, and collection membership follows the collect/uncollect
/// sequence. The invariant that matters: every delta this function
/// accepts must replay cleanly through [`GraphDelta::apply`] on the same
/// graph state, because that is exactly what [`Database::open`] does with
/// the WAL.
fn validate_delta(graph: &Graph, delta: &GraphDelta) -> Result<(), DeltaError> {
    // Virtual node count: graph nodes plus nodes this delta creates.
    // AddNode with an already-taken name fetches the existing node
    // instead of creating one, so names dedupe against both the graph
    // and earlier ops of the delta.
    let mut node_count = graph.node_count();
    let mut new_names: HashSet<&str> = HashSet::new();
    // Net intra-delta edge multiplicity, on top of the graph's count.
    let mut edge_overlay: HashMap<(Oid, &str, &Value), i64> = HashMap::new();
    // Collection membership decided by this delta (collections are sets).
    let mut member_overlay: HashMap<(&str, &Value), bool> = HashMap::new();
    let mut new_collections: HashSet<&str> = HashSet::new();
    let check_node = |count: usize, v: &Value| -> Result<(), DeltaError> {
        if let Some(o) = v.as_node() {
            if o.index() >= count {
                return Err(DeltaError::UnknownNode(o));
            }
        }
        Ok(())
    };
    for op in delta.ops() {
        match op {
            DeltaOp::AddNode { name } => match name {
                Some(n) => {
                    if graph.node_by_name(n).is_none() && new_names.insert(n.as_ref()) {
                        node_count += 1;
                    }
                }
                None => node_count += 1,
            },
            DeltaOp::AddEdge { from, label, to } => {
                if from.index() >= node_count {
                    return Err(DeltaError::UnknownNode(*from));
                }
                check_node(node_count, to)?;
                *edge_overlay.entry((*from, label.as_ref(), to)).or_insert(0) += 1;
            }
            DeltaOp::RemoveEdge { from, label, to } => {
                if from.index() >= node_count {
                    return Err(DeltaError::UnknownNode(*from));
                }
                let base = if from.index() < graph.node_count() {
                    graph
                        .label(label)
                        .map(|l| {
                            graph
                                .edges(*from)
                                .iter()
                                .filter(|e| e.label == l && e.to == *to)
                                .count() as i64
                        })
                        .unwrap_or(0)
                } else {
                    0
                };
                let overlay = edge_overlay.entry((*from, label.as_ref(), to)).or_insert(0);
                if base + *overlay <= 0 {
                    return Err(DeltaError::MissingEdge {
                        from: *from,
                        label: label.clone(),
                    });
                }
                *overlay -= 1;
            }
            DeltaOp::Collect { collection, member } => {
                check_node(node_count, member)?;
                new_collections.insert(collection.as_ref());
                member_overlay.insert((collection.as_ref(), member), true);
            }
            DeltaOp::Uncollect { collection, member } => {
                let exists = graph.collection_id(collection).is_some()
                    || new_collections.contains(collection.as_ref());
                if !exists {
                    return Err(DeltaError::MissingMember {
                        collection: collection.clone(),
                    });
                }
                let present = member_overlay
                    .get(&(collection.as_ref(), member))
                    .copied()
                    .unwrap_or_else(|| {
                        graph
                            .collection_id(collection)
                            .map(|cid| graph.in_collection(cid, member))
                            .unwrap_or(false)
                    });
                if !present {
                    return Err(DeltaError::MissingMember {
                        collection: collection.clone(),
                    });
                }
                member_overlay.insert((collection.as_ref(), member), false);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("strudel-db-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn mutations_keep_indexes_in_sync() {
        let mut db = Database::new(IndexLevel::Full);
        let a = db.add_named_node("a").unwrap();
        db.add_edge(a, "year", Value::Int(1998)).unwrap();
        db.add_edge(a, "year", Value::Int(1997)).unwrap();
        let year = db.graph().label("year").unwrap();
        assert_eq!(db.extension(year).unwrap().len(), 2);
        assert_eq!(db.sources(year, &Value::Int(1998)).unwrap().len(), 1);
        assert_eq!(db.value_locations(&Value::Int(1998)).unwrap().len(), 1);

        db.remove_edge(a, "year", &Value::Int(1998)).unwrap();
        assert_eq!(db.extension(year).unwrap().len(), 1);
        assert_eq!(db.sources(year, &Value::Int(1998)).unwrap().len(), 0);
        assert_eq!(db.value_locations(&Value::Int(1998)).unwrap().len(), 0);
    }

    #[test]
    fn index_level_none_disables_indexes() {
        let mut db = Database::new(IndexLevel::None);
        let a = db.add_node().unwrap();
        db.add_edge(a, "x", Value::Int(1)).unwrap();
        let x = db.graph().label("x").unwrap();
        assert!(db.extension(x).is_none());
        assert!(db.value_locations(&Value::Int(1)).is_none());
        assert!(db.schema_index().is_none());
    }

    #[test]
    fn extension_only_omits_value_index() {
        let mut db = Database::new(IndexLevel::ExtensionOnly);
        let a = db.add_node().unwrap();
        db.add_edge(a, "x", Value::Int(1)).unwrap();
        let x = db.graph().label("x").unwrap();
        assert!(db.extension(x).is_some());
        assert!(db.value_locations(&Value::Int(1)).is_none());
    }

    #[test]
    fn stats_cache_invalidates_on_mutation() {
        let mut db = Database::new(IndexLevel::Full);
        let a = db.add_node().unwrap();
        let s1 = db.stats();
        assert_eq!(s1.edges, 0);
        db.add_edge(a, "x", Value::Int(1)).unwrap();
        let s2 = db.stats();
        assert_eq!(s2.edges, 1);
    }

    #[test]
    fn incremental_indexes_match_rebuilt_indexes() {
        let mut db = Database::new(IndexLevel::Full);
        let a = db.add_named_node("a").unwrap();
        let b = db.add_named_node("b").unwrap();
        db.add_edge(a, "p", Value::Node(b)).unwrap();
        db.add_edge(a, "q", Value::string("s")).unwrap();
        db.add_edge(b, "q", Value::string("s")).unwrap();
        db.remove_edge(a, "q", &Value::string("s")).unwrap();
        db.collect("C", Value::Node(a)).unwrap();

        let q = db.graph().label("q").unwrap();
        let incr_ext: Vec<_> = db.extension(q).unwrap().to_vec();
        let incr_locs = db.value_locations(&Value::string("s")).unwrap().len();
        let incr_coll = db.schema_index().unwrap().collection_size("C");

        db.rebuild_indexes();
        assert_eq!(db.extension(q).unwrap().to_vec(), incr_ext);
        assert_eq!(
            db.value_locations(&Value::string("s")).unwrap().len(),
            incr_locs
        );
        assert_eq!(db.schema_index().unwrap().collection_size("C"), incr_coll);
    }

    #[test]
    fn persistence_round_trip() {
        let dir = tmpdir("persist");
        {
            let mut db = Database::open(&dir, IndexLevel::Full).unwrap();
            let a = db.add_named_node("a").unwrap();
            db.add_edge(a, "title", Value::string("Strudel")).unwrap();
            db.collect("Pubs", Value::Node(a)).unwrap();
        } // drop without checkpoint: state lives in the WAL
        {
            let db = Database::open(&dir, IndexLevel::Full).unwrap();
            let a = db.graph().node_by_name("a").unwrap();
            assert_eq!(
                db.graph().first_attr_str(a, "title").unwrap().as_str(),
                Some("Strudel")
            );
            assert_eq!(db.graph().members_str("Pubs").len(), 1);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_recovers_from_torn_wal_tail_and_appends_cleanly() {
        let dir = tmpdir("torn-tail");
        {
            let mut db = Database::open(&dir, IndexLevel::Full).unwrap();
            let a = db.add_named_node("a").unwrap();
            db.add_edge(a, "v", Value::Int(1)).unwrap();
            db.add_edge(a, "v", Value::Int(2)).unwrap();
        }
        // Simulate a crash mid-append: chop bytes off the last record.
        let wal_path = dir.join("wal.log");
        let full = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &full[..full.len() - 3]).unwrap();
        {
            let mut db = Database::open(&dir, IndexLevel::Full).unwrap();
            assert!(db.wal_discarded_bytes() > 0, "torn tail was reported");
            let a = db.graph().node_by_name("a").unwrap();
            // The torn record (v=2) is gone; the committed one survives.
            assert_eq!(db.graph().attr_str(a, "v").count(), 1);
            // Recovery truncated the garbage, so new appends replay.
            db.add_edge(a, "v", Value::Int(3)).unwrap();
        }
        {
            let db = Database::open(&dir, IndexLevel::Full).unwrap();
            assert_eq!(db.wal_discarded_bytes(), 0, "clean reopen");
            let a = db.graph().node_by_name("a").unwrap();
            assert_eq!(db.graph().attr_str(a, "v").count(), 2);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_compacts_wal() {
        let dir = tmpdir("ckpt");
        {
            let mut db = Database::open(&dir, IndexLevel::Full).unwrap();
            let a = db.add_named_node("a").unwrap();
            db.add_edge(a, "v", Value::Int(1)).unwrap();
            db.checkpoint().unwrap();
            // WAL should now be just the header (magic + generation).
            let wal_len = std::fs::metadata(dir.join("wal.log")).unwrap().len();
            assert_eq!(wal_len, wal::HEADER_LEN);
            assert_eq!(db.generation(), 1);
            db.add_edge(a, "v", Value::Int(2)).unwrap();
        }
        {
            let db = Database::open(&dir, IndexLevel::Full).unwrap();
            let a = db.graph().node_by_name("a").unwrap();
            assert_eq!(db.graph().attr_str(a, "v").count(), 2);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn named_node_is_idempotent_without_duplicate_log() {
        let dir = tmpdir("idem");
        {
            let mut db = Database::open(&dir, IndexLevel::Full).unwrap();
            let a1 = db.add_named_node("a").unwrap();
            let a2 = db.add_named_node("a").unwrap();
            assert_eq!(a1, a2);
        }
        {
            let db = Database::open(&dir, IndexLevel::Full).unwrap();
            assert_eq!(db.graph().node_count(), 1);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn apply_delta_is_one_wal_record() {
        let dir = tmpdir("delta");
        let mut d = GraphDelta::new();
        d.add_node(Some("x"));
        d.add_edge(Oid::from_index(0), "v", Value::Int(1));
        {
            let mut db = Database::open(&dir, IndexLevel::Full).unwrap();
            db.apply_delta(&d).unwrap();
        }
        let records = wal::replay(&dir.join("wal.log")).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dataguide_over_a_collection() {
        let mut db = Database::new(IndexLevel::Full);
        let a = db.add_named_node("a").unwrap();
        db.add_edge(a, "title", Value::string("T")).unwrap();
        db.collect("Pubs", Value::Node(a)).unwrap();
        let guide = db.dataguide("Pubs").unwrap();
        assert_eq!(guide.nodes[0].cardinality, 1);
        assert!(db.dataguide("Ghost").is_none());
        db.collect("Atoms", Value::Int(1)).unwrap();
        assert!(db.dataguide("Atoms").is_none(), "no node members");
    }

    #[test]
    fn open_rejects_corrupt_snapshot() {
        let dir = tmpdir("corrupt-snap");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("snapshot.bin"), b"not a snapshot").unwrap();
        assert!(matches!(
            Database::open(&dir, IndexLevel::Full),
            Err(RepoError::Corrupt { .. }) | Err(RepoError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_discards_torn_wal_tail() {
        let dir = tmpdir("torn-tail-discard");
        {
            let mut db = Database::open(&dir, IndexLevel::Full).unwrap();
            let a = db.add_named_node("a").unwrap();
            db.add_edge(a, "v", Value::Int(1)).unwrap();
            db.add_edge(a, "v", Value::Int(2)).unwrap();
        }
        // Simulate a crash mid-append: chop bytes off the log.
        let wal_path = dir.join("wal.log");
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 3]).unwrap();
        let db = Database::open(&dir, IndexLevel::Full).unwrap();
        let a = db.graph().node_by_name("a").unwrap();
        // The first committed edge survives; the torn one is discarded.
        assert_eq!(db.graph().attr_str(a, "v").count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_snapshot_with_newer_wal_is_a_precise_error() {
        let dir = tmpdir("missing-snap");
        {
            let mut db = Database::open(&dir, IndexLevel::Full).unwrap();
            let a = db.add_named_node("a").unwrap();
            db.add_edge(a, "v", Value::Int(1)).unwrap();
            db.checkpoint().unwrap(); // WAL is now generation 1
        }
        std::fs::remove_file(dir.join("snapshot.bin")).unwrap();
        match Database::open(&dir, IndexLevel::Full) {
            Err(RepoError::Corrupt { what, message, .. }) => {
                assert_eq!(what, "wal");
                assert!(message.contains("snapshot"), "message: {message}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_wal_after_interrupted_truncation_is_not_reapplied() {
        let dir = tmpdir("stale-wal");
        {
            let mut db = Database::open(&dir, IndexLevel::Full).unwrap();
            let a = db.add_named_node("a").unwrap();
            db.add_edge(a, "v", Value::Int(1)).unwrap();
            let old_wal = std::fs::read(dir.join("wal.log")).unwrap();
            db.checkpoint().unwrap();
            drop(db);
            // Crash window: the snapshot rename landed but the WAL reset
            // didn't — the old generation-0 log is still on disk.
            std::fs::write(dir.join("wal.log"), &old_wal).unwrap();
        }
        {
            let mut db = Database::open(&dir, IndexLevel::Full).unwrap();
            assert!(db.recovered_stale_wal(), "stale log was detected");
            let a = db.graph().node_by_name("a").unwrap();
            assert_eq!(db.graph().attr_str(a, "v").count(), 1, "no double apply");
            db.add_edge(a, "v", Value::Int(2)).unwrap();
        }
        {
            let db = Database::open(&dir, IndexLevel::Full).unwrap();
            assert!(!db.recovered_stale_wal());
            let a = db.graph().node_by_name("a").unwrap();
            assert_eq!(db.graph().attr_str(a, "v").count(), 2);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stray_snapshot_tmp_is_cleaned_up_on_open() {
        let dir = tmpdir("stray-tmp");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("snapshot.tmp"), b"half-written junk").unwrap();
        let db = Database::open(&dir, IndexLevel::Full).unwrap();
        assert_eq!(db.graph().node_count(), 0);
        assert!(!dir.join("snapshot.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejected_delta_leaves_graph_and_wal_untouched() {
        let dir = tmpdir("reject-delta");
        {
            let mut db = Database::open(&dir, IndexLevel::Full).unwrap();
            let a = db.add_named_node("a").unwrap();
            db.add_edge(a, "v", Value::Int(1)).unwrap();

            let mut bad = GraphDelta::new();
            bad.add_edge(a, "w", Value::Int(9));
            bad.remove_edge(a, "ghost", Value::Int(0)); // will be rejected
            assert!(db.apply_delta(&bad).is_err());
            assert_eq!(db.graph().attr_str(a, "w").count(), 0, "no partial apply");
        }
        {
            // The rejected delta never reached the log, so replay is clean.
            let db = Database::open(&dir, IndexLevel::Full).unwrap();
            assert_eq!(db.wal_discarded_bytes(), 0);
            let a = db.graph().node_by_name("a").unwrap();
            assert_eq!(db.graph().attr_str(a, "v").count(), 1);
            assert_eq!(db.graph().attr_str(a, "w").count(), 0);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn validate_delta_tracks_intra_delta_effects() {
        let mut db = Database::new(IndexLevel::Full);
        let a = db.add_named_node("a").unwrap();

        // Add-then-remove within one delta is fine.
        let mut d = GraphDelta::new();
        d.add_edge(a, "x", Value::Int(1));
        d.remove_edge(a, "x", Value::Int(1));
        db.apply_delta(&d).unwrap();

        // Removing twice what was added once is not.
        let mut d = GraphDelta::new();
        d.add_edge(a, "y", Value::Int(1));
        d.remove_edge(a, "y", Value::Int(1));
        d.remove_edge(a, "y", Value::Int(1));
        assert!(db.apply_delta(&d).is_err());

        // An edge from a node created earlier in the same delta is fine;
        // an edge to a node the delta never creates is not.
        let mut d = GraphDelta::new();
        d.add_node(Some("b")); // will become index 1
        d.add_edge(Oid::from_index(1), "p", Value::Int(2));
        db.apply_delta(&d).unwrap();
        let mut d = GraphDelta::new();
        d.add_edge(Oid::from_index(999), "p", Value::Int(3));
        assert!(db.apply_delta(&d).is_err());

        // Collect-then-uncollect in one delta; uncollect of a member that
        // was never collected fails.
        let mut d = GraphDelta::new();
        d.collect("C", Value::Node(a));
        d.uncollect("C", Value::Node(a));
        db.apply_delta(&d).unwrap();
        let mut d = GraphDelta::new();
        d.uncollect("C", Value::Int(77));
        assert!(db.apply_delta(&d).is_err());
    }

    #[test]
    fn failed_checkpoint_poisons_the_wal_until_reopen() {
        use crate::vfs::{FaultMode, FaultVfs};
        let dir = tmpdir("poison");
        let vfs = FaultVfs::new();
        let mut db =
            Database::open_with(&dir, IndexLevel::Full, Arc::new(vfs.clone())).unwrap();
        let a = db.add_named_node("a").unwrap();
        db.add_edge(a, "v", Value::Int(1)).unwrap();
        // Transient fault on the next operation (the checkpoint's WAL
        // sync): the checkpoint fails but the process lives on.
        vfs.arm_fault(vfs.op_count(), FaultMode::Fail);
        assert!(db.checkpoint().is_err());
        // Mutations must now refuse rather than go un-logged.
        let err = db.add_edge(a, "v", Value::Int(2)).unwrap_err();
        assert!(
            err.to_string().contains("reopen"),
            "got: {err}"
        );
        drop(db);
        // Reopen recovers everything that was committed.
        let db = Database::open(&dir, IndexLevel::Full).unwrap();
        let a = db.graph().node_by_name("a").unwrap();
        assert_eq!(db.graph().attr_str(a, "v").count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn live_mutations_reject_dangling_references() {
        let mut db = Database::new(IndexLevel::Full);
        let a = db.add_node().unwrap();
        let ghost = Oid::from_index(42);
        assert!(db.add_edge(ghost, "p", Value::Int(1)).is_err());
        assert!(db.add_edge(a, "p", Value::Node(ghost)).is_err());
        assert!(db.collect("C", Value::Node(ghost)).is_err());
        // Nothing leaked into the graph or schema index.
        assert_eq!(db.graph().edge_count(), 0);
        assert!(db.graph().collection_id("C").is_none());
    }

    #[test]
    fn collect_uncollect_updates_schema_index() {
        let mut db = Database::new(IndexLevel::Full);
        let a = db.add_node().unwrap();
        db.collect("C", Value::Node(a)).unwrap();
        assert_eq!(db.schema_index().unwrap().collection_size("C"), 1);
        assert!(!db.collect("C", Value::Node(a)).unwrap(), "duplicate");
        assert_eq!(db.schema_index().unwrap().collection_size("C"), 1);
        db.uncollect("C", &Value::Node(a)).unwrap();
        assert_eq!(db.schema_index().unwrap().collection_size("C"), 0);
    }
}
