//! The repository façade: an indexed, in-memory graph store.

use crate::index::{ExtensionIndex, IndexSet};
use crate::stats::Stats;
use crate::RepoError;
use strudel_graph::{Change, Graph, GraphDelta, Label, Oid, Value};

/// How much indexing the repository maintains.
///
/// The paper's prototype always indexes fully; this knob exists for the
/// E-index ablation (what do the indexes buy in a schemaless store?). The
/// level alone decides whether a probe answers `Some` or `None`; an index
/// the level allows is built by its first probe. The planner's statistics
/// ([`Database::stats`]) exist at every level, since every level plans. A
/// database that is not mutated orders a probe's rows the same whenever
/// the index came to be built (graph order); once it is mutated, a built
/// family appends in mutation order and `swap_remove`s, so two databases
/// with one mutation history agree on each key's rows as a multiset, not
/// on their order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum IndexLevel {
    /// No indexes: every lookup is a graph scan.
    None,
    /// Per-attribute extension indexes, no global value index.
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

    /// The optimizer's statistics, computed by the first call and kept
    /// exact by every delta after it.
    pub fn stats(&self) -> &Stats {
        self.indexes.stats(&self.graph)
    }

    // ----- mutations -----------------------------------------------------

    /// Applies a whole delta with [`GraphDelta::apply_with`], keeping every
    /// built index family in step with each change it makes. All or
    /// nothing: a delta [`GraphDelta::validate`] refuses leaves the graph
    /// and the indexes untouched.
    pub fn apply_delta(&mut self, delta: &GraphDelta) -> Result<Vec<Oid>, RepoError> {
        self.indexes.before_delta(&self.graph);
        let indexes = &mut self.indexes;
        let created = delta.apply_with(&mut self.graph, |change| match change {
            Change::EdgeAdded { from, label, to } => indexes.note_edge(from, label, to),
            Change::EdgeRemoved { from, label, to } => indexes.forget_edge(from, label, to),
            Change::MemberAdded { .. } | Change::MemberRemoved { .. } => {}
        })?;
        Ok(created)
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
        assert_eq!(
            db.stats().label(x).edges,
            1,
            "statistics exist at every level"
        );
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
        assert_eq!(db.stats(), &Stats::default());
        apply(&mut db, |d| d.add_edge(a, "x", Value::Int(1)));
        let x = db.graph().label("x").unwrap();
        assert_eq!(db.stats().label(x).edges, 1);
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
        let before = db.stats().clone();
        let ghost = Oid::from_index(42);
        let mut d = GraphDelta::new();
        d.add_edge(a, "p", Value::Int(1));
        d.collect("C", Value::Node(a));
        d.add_edge(a, "p", Value::Node(ghost));
        assert!(matches!(
            db.apply_delta(&d),
            Err(RepoError::Delta(DeltaError::UnknownNode(o))) if o == ghost
        ));
        // Nothing leaked into the graph or the statistics, not even the
        // ops before the dangling one.
        assert_eq!(db.graph().edge_count(), 0);
        assert!(db.graph().collection_id("C").is_none());
        assert!(db.graph().label("p").is_none());
        assert_eq!(db.stats(), &before);
    }

    #[test]
    fn collect_uncollect_updates_collection_sizes() {
        let mut db = Database::new(IndexLevel::Full);
        let a = apply(&mut db, |d| d.add_node(None))[0];
        let size = |db: &Database| db.graph().members_str("C").len();
        apply(&mut db, |d| d.collect("C", Value::Node(a)));
        assert_eq!(size(&db), 1);
        // A duplicate `Collect` is accepted and changes nothing.
        apply(&mut db, |d| d.collect("C", Value::Node(a)));
        assert_eq!(size(&db), 1);
        apply(&mut db, |d| d.uncollect("C", Value::Node(a)));
        assert_eq!(size(&db), 0);
    }
}
