//! The repository façade: an indexed, in-memory graph store.

use crate::index::{ExtensionIndex, IndexSet, SchemaIndex};
use crate::stats::Stats;
use crate::RepoError;
use std::sync::{Arc, Mutex};
use strudel_graph::{Change, Graph, GraphDelta, Label, Oid, Value};

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
/// It changes only through [`Database::apply_delta`], which keeps the
/// indexes consistent with the graph; reads hand out `&Graph` freely. It
/// never sees a file: a caller that wants durability commits each delta
/// to a [`PagedRepo`](crate::PagedRepo) first and applies it here second.
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

    /// Applies a whole delta with [`GraphDelta::apply_with`], keeping every
    /// built index family in step with each change it makes. All or
    /// nothing: a delta [`GraphDelta::validate`] refuses leaves the graph,
    /// the indexes and the cached statistics untouched.
    pub fn apply_delta(&mut self, delta: &GraphDelta) -> Result<Vec<Oid>, RepoError> {
        let indexes = &mut self.indexes;
        let created = delta.apply_with(&mut self.graph, |change| match change {
            Change::EdgeAdded { from, label, to } => indexes.note_edge(from, label, to),
            Change::EdgeRemoved { from, label, to } => indexes.forget_edge(from, label, to),
            Change::MemberAdded { collection, .. } => indexes.note_member(collection, 1),
            Change::MemberRemoved { collection, .. } => indexes.note_member(collection, -1),
        })?;
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

    fn invalidate(&mut self) {
        *self.stats.lock().unwrap() = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strudel_graph::DeltaError;

    /// Applies the ops `record` writes down as one delta, which must be
    /// accepted; returns the oids its `AddNode` ops name.
    fn apply(db: &mut Database, record: impl FnOnce(&mut GraphDelta)) -> Vec<Oid> {
        let mut d = GraphDelta::new();
        record(&mut d);
        db.apply_delta(&d).unwrap()
    }

    /// A database at `level` holding one anonymous node with `x = 1`.
    fn one_edge(level: IndexLevel) -> Database {
        let mut db = Database::new(level);
        apply(&mut db, |d| {
            d.add_node(None);
            d.add_edge(Oid::from_index(0), "x", Value::Int(1));
        });
        db
    }

    #[test]
    fn mutations_keep_indexes_in_sync() {
        let mut db = Database::new(IndexLevel::Full);
        let a = apply(&mut db, |d| d.add_node(Some("a")))[0];
        apply(&mut db, |d| {
            d.add_edge(a, "year", Value::Int(1998));
            d.add_edge(a, "year", Value::Int(1997));
        });
        let year = db.graph().label("year").unwrap();
        assert_eq!(db.extension(year).unwrap().len(), 2);
        assert_eq!(db.sources(year, &Value::Int(1998)).unwrap().len(), 1);
        assert_eq!(db.value_locations(&Value::Int(1998)).unwrap().len(), 1);

        apply(&mut db, |d| d.remove_edge(a, "year", Value::Int(1998)));
        assert_eq!(db.extension(year).unwrap().len(), 1);
        assert_eq!(db.sources(year, &Value::Int(1998)).unwrap().len(), 0);
        assert_eq!(db.value_locations(&Value::Int(1998)).unwrap().len(), 0);
    }

    #[test]
    fn index_level_none_disables_indexes() {
        let db = one_edge(IndexLevel::None);
        let x = db.graph().label("x").unwrap();
        assert!(db.extension(x).is_none());
        assert!(db.value_locations(&Value::Int(1)).is_none());
        assert!(db.schema_index().is_none());
    }

    #[test]
    fn extension_only_omits_value_index() {
        let db = one_edge(IndexLevel::ExtensionOnly);
        let x = db.graph().label("x").unwrap();
        assert!(db.extension(x).is_some());
        assert!(db.value_locations(&Value::Int(1)).is_none());
    }

    #[test]
    fn stats_cache_invalidates_on_mutation() {
        let mut db = Database::new(IndexLevel::Full);
        let a = apply(&mut db, |d| d.add_node(None))[0];
        let s1 = db.stats();
        assert_eq!(s1.edges, 0);
        apply(&mut db, |d| d.add_edge(a, "x", Value::Int(1)));
        let s2 = db.stats();
        assert_eq!(s2.edges, 1);
    }

    #[test]
    fn incremental_indexes_match_rebuilt_indexes() {
        let mut db = Database::new(IndexLevel::Full);
        let ab = apply(&mut db, |d| {
            d.add_node(Some("a"));
            d.add_node(Some("b"));
        });
        let (a, b) = (ab[0], ab[1]);
        apply(&mut db, |d| d.add_edge(a, "p", Value::Node(b)));
        // Probe every family first, so the delta below maintains them.
        let p = db.graph().label("p").unwrap();
        assert!(db.sources(p, &Value::Node(b)).is_some());
        assert!(db.schema_index().is_some() && db.value_locations(&Value::Int(0)).is_some());
        apply(&mut db, |d| {
            d.add_edge(a, "q", Value::string("s"));
            d.add_edge(b, "q", Value::string("s"));
            d.remove_edge(a, "q", Value::string("s"));
            d.collect("C", Value::Node(a));
        });

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
        let a = apply(&mut db, |d| d.add_node(Some("a")))[0];
        apply(&mut db, |d| {
            d.add_edge(a, "title", Value::string("T"));
            d.collect("Pubs", Value::Node(a));
        });
        let guide = db.dataguide("Pubs").unwrap();
        assert_eq!(guide.nodes[0].cardinality, 1);
        assert!(db.dataguide("Ghost").is_none());
        apply(&mut db, |d| d.collect("Atoms", Value::Int(1)));
        assert!(db.dataguide("Atoms").is_none(), "no node members");
    }

    #[test]
    fn live_mutations_reject_dangling_references() {
        let mut db = Database::new(IndexLevel::Full);
        let a = apply(&mut db, |d| d.add_node(None))[0];
        assert!(db.schema_index().is_some());
        let ghost = Oid::from_index(42);
        let mut d = GraphDelta::new();
        d.add_edge(a, "p", Value::Int(1));
        d.collect("C", Value::Node(a));
        d.add_edge(a, "p", Value::Node(ghost));
        assert!(matches!(
            db.apply_delta(&d),
            Err(RepoError::Delta(DeltaError::UnknownNode(o))) if o == ghost
        ));
        // Nothing leaked into the graph or schema index, not even the ops
        // before the dangling one.
        assert_eq!(db.graph().edge_count(), 0);
        assert!(db.graph().collection_id("C").is_none());
        assert!(db.graph().label("p").is_none());
        assert_eq!(db.schema_index().unwrap().collection_size("C"), 0);
    }

    #[test]
    fn collect_uncollect_updates_schema_index() {
        let mut db = Database::new(IndexLevel::Full);
        let a = apply(&mut db, |d| d.add_node(None))[0];
        apply(&mut db, |d| d.collect("C", Value::Node(a)));
        assert_eq!(db.schema_index().unwrap().collection_size("C"), 1);
        // A duplicate `Collect` is accepted and changes nothing.
        apply(&mut db, |d| d.collect("C", Value::Node(a)));
        assert_eq!(db.schema_index().unwrap().collection_size("C"), 1);
        apply(&mut db, |d| d.uncollect("C", Value::Node(a)));
        assert_eq!(db.schema_index().unwrap().collection_size("C"), 0);
    }
}
