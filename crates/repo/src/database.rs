//! The repository façade: an indexed, in-memory graph store.

use crate::index::{ExtensionIndex, IndexSet, SchemaIndex};
use crate::stats::Stats;
use crate::RepoError;
use std::collections::{HashMap, HashSet};
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

/// An indexed graph database, held entirely in memory.
///
/// All mutation goes through `Database` methods so the indexes stay
/// consistent with the graph; reads hand out `&Graph` freely. It never
/// sees a file: a caller that wants durability commits each delta to a
/// [`PagedRepo`](crate::PagedRepo) first and applies it here second.
#[derive(Debug)]
pub struct Database {
    graph: Graph,
    level: IndexLevel,
    indexes: IndexSet,
    // Mutex (not RefCell) so a read-only Database shares across threads:
    // the click-time server hands `Arc<Database>` to its whole pool.
    stats: Mutex<Option<Arc<Stats>>>,
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
        }
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
    /// graph. The click engine's delta path carries slightly-stale stats
    /// across small deltas this way: the planner only consumes relative
    /// cardinalities, so a bounded drift changes join orders at worst —
    /// never results. Callers own the staleness bound.
    pub fn seed_stats(&self, stats: Arc<Stats>) {
        *self.stats.lock().unwrap() = Some(stats);
    }

    // ----- mutations -----------------------------------------------------

    /// Creates an anonymous node.
    pub fn add_node(&mut self) -> Result<Oid, RepoError> {
        self.invalidate();
        Ok(self.graph.add_node())
    }

    /// Creates (or fetches) a named node.
    pub fn add_named_node(&mut self, name: &str) -> Result<Oid, RepoError> {
        if let Some(oid) = self.graph.node_by_name(name) {
            return Ok(oid);
        }
        self.invalidate();
        Ok(self.graph.add_named_node(name))
    }

    /// Adds an edge, maintaining all indexes. Both endpoints must exist:
    /// [`GraphDelta::apply`] refuses a dangling edge, so a graph holding
    /// one could not be rebuilt from the deltas that made it.
    pub fn add_edge(&mut self, from: Oid, label: &str, to: Value) -> Result<(), RepoError> {
        if !self.graph.contains_node(from) {
            return Err(DeltaError::UnknownNode(from).into());
        }
        if let Some(o) = to.as_node() {
            if !self.graph.contains_node(o) {
                return Err(DeltaError::UnknownNode(o).into());
            }
        }
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
        self.apply_remove_edge(from, l, to);
        Ok(true)
    }

    /// Adds `member` to a named collection. A node member must exist (see
    /// [`Database::add_edge`] on why a dangling reference is refused).
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
        self.invalidate();
        self.indexes.note_member(collection, -1);
        Ok(self.graph.uncollect(cid, member))
    }

    /// Applies a whole delta, keeping indexes in sync.
    ///
    /// The delta is validated against the current graph *before* any of
    /// it is applied (`validate_delta`, mirroring [`GraphDelta::apply`]'s
    /// semantics, including intra-delta dependencies like
    /// add-node-then-edge-to-it), so a rejected delta leaves graph and
    /// indexes untouched, and the ops below need no checks of their own.
    pub fn apply_delta(&mut self, delta: &GraphDelta) -> Result<Vec<Oid>, RepoError> {
        validate_delta(&self.graph, delta)?;
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
                    self.apply_add_edge(*from, label, to.clone());
                }
                DeltaOp::RemoveEdge { from, label, to } => {
                    if let Some(l) = self.graph.label(label) {
                        self.apply_remove_edge(*from, l, to);
                    }
                }
                DeltaOp::Collect { collection, member } => {
                    let cid = self.graph.intern_collection(collection);
                    if self.graph.collect(cid, member.clone()) {
                        self.indexes.note_member(collection, 1);
                    }
                }
                DeltaOp::Uncollect { collection, member } => {
                    if let Some(cid) = self.graph.collection_id(collection) {
                        if self.graph.uncollect(cid, member) {
                            self.indexes.note_member(collection, -1);
                        }
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
/// sequence. This is the crate's one delta validator: [`Database`] and
/// [`PagedRepo`](crate::PagedRepo) both call it before mutating anything.
/// The invariant that matters: every delta this function accepts must
/// replay cleanly through [`GraphDelta::apply`] on the same graph state,
/// because that is how the durable store applies it to its head graph and
/// how its recovery replays the WAL the same deltas were committed to.
pub(crate) fn validate_delta(graph: &Graph, delta: &GraphDelta) -> Result<(), DeltaError> {
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
