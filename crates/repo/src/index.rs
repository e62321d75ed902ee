//! The repository's index structures.
//!
//! Three families, mirroring §2.1 of the paper:
//!
//! * [`Stats`] — "one index contains the names of all the collections
//!   and attributes in the graph": per attribute, its edges and its
//!   distinct sources and targets; collection sizes are the graph's own.
//!   The STRUQL planner reads its cardinalities from here.
//! * [`ExtensionIndex`] — "other indexes contain the extensions for each
//!   collection and attribute": for every attribute label, the full list of
//!   `(source, target)` pairs, plus an inverted map from target value to
//!   sources for value-to-source joins.
//! * [`ValueIndex`] — "indexes on atomic values are global to the graph,
//!   not built per collection or attribute": atomic value → every
//!   `(node, label)` location where it appears.
//!
//! "Fully index everything" (§2.1) does not say "before the first query":
//! a [`Database`](crate::Database) builds each family from the graph when
//! it is first probed ([`IndexSet`]) and maintains it incrementally from
//! then on; a family nobody probes is never built. Within the extension
//! family the inverted map is a second step, derived from the forward
//! extensions by the first `sources` probe; within the statistics, the
//! per-end counts that maintenance needs are a second step, counted by
//! the first delta.

use crate::stats::Stats;
use std::sync::OnceLock;
use strudel_graph::hash::FastMap;
use strudel_graph::{Graph, Label, Oid, Value};

/// `(label, to)` → sources, the inverted half of [`ExtensionIndex`].
type Inverted = FastMap<(Label, Value), Vec<Oid>>;

/// Extension indexes: per-attribute `(source, target)` pairs and the
/// inverted target → sources map.
#[derive(Clone, Debug, Default)]
pub struct ExtensionIndex {
    /// label → all (from, to) pairs, in insertion order.
    forward: FastMap<Label, Vec<(Oid, Value)>>,
    /// Derived from `forward` by the first [`ExtensionIndex::sources`]
    /// probe (it hashes every target value; `forward` hashes none) and
    /// maintained by mutations only once it exists.
    inverted: OnceLock<Inverted>,
}

impl ExtensionIndex {
    /// Builds the extension indexes by scanning `graph`.
    pub fn build(graph: &Graph) -> Self {
        let mut idx = ExtensionIndex::default();
        for oid in graph.node_oids() {
            for e in graph.edges(oid) {
                idx.note_edge(oid, e.label, &e.to);
            }
        }
        idx
    }

    pub(crate) fn note_edge(&mut self, from: Oid, label: Label, to: &Value) {
        self.forward
            .entry(label)
            .or_default()
            .push((from, to.clone()));
        if let Some(inverted) = self.inverted.get_mut() {
            inverted.entry((label, to.clone())).or_default().push(from);
        }
    }

    pub(crate) fn forget_edge(&mut self, from: Oid, label: Label, to: &Value) {
        if let Some(pairs) = self.forward.get_mut(&label) {
            if let Some(pos) = pairs.iter().position(|(f, t)| *f == from && t == to) {
                pairs.swap_remove(pos);
            }
        }
        let Some(inverted) = self.inverted.get_mut() else {
            return;
        };
        if let Some(sources) = inverted.get_mut(&(label, to.clone())) {
            if let Some(pos) = sources.iter().position(|f| *f == from) {
                sources.swap_remove(pos);
            }
        }
    }

    /// The full extension of attribute `label`.
    pub fn extension(&self, label: Label) -> &[(Oid, Value)] {
        self.forward.get(&label).map_or(&[], Vec::as_slice)
    }

    /// The sources `x` of edges `x --label--> to`.
    pub fn sources(&self, label: Label, to: &Value) -> &[Oid] {
        self.inverted()
            .get(&(label, to.clone()))
            .map_or(&[], Vec::as_slice)
    }

    fn inverted(&self) -> &Inverted {
        self.inverted.get_or_init(|| {
            let _span = strudel_trace::span("repo.index.build.inverted");
            let mut inverted = Inverted::default();
            for (&label, pairs) in &self.forward {
                for (from, to) in pairs {
                    inverted.entry((label, to.clone())).or_default().push(*from);
                }
            }
            inverted
        })
    }
}

/// The global value index: atomic value → every `(node, label)` location.
#[derive(Clone, Debug, Default)]
pub struct ValueIndex {
    locations: FastMap<Value, Vec<(Oid, Label)>>,
}

impl ValueIndex {
    /// Builds the value index by scanning `graph`.
    pub fn build(graph: &Graph) -> Self {
        let mut idx = ValueIndex::default();
        for oid in graph.node_oids() {
            for e in graph.edges(oid) {
                idx.note_edge(oid, e.label, &e.to);
            }
        }
        idx
    }

    pub(crate) fn note_edge(&mut self, from: Oid, label: Label, to: &Value) {
        if to.is_atomic() {
            self.locations
                .entry(to.clone())
                .or_default()
                .push((from, label));
        }
    }

    pub(crate) fn forget_edge(&mut self, from: Oid, label: Label, to: &Value) {
        if let Some(locs) = self.locations.get_mut(to) {
            if let Some(pos) = locs.iter().position(|(f, l)| *f == from && *l == label) {
                locs.swap_remove(pos);
            }
        }
    }

    /// Every `(node, label)` where the atomic value `v` appears as an edge
    /// target, regardless of attribute or collection.
    pub fn locations(&self, v: &Value) -> &[(Oid, Label)] {
        self.locations.get(v).map_or(&[], Vec::as_slice)
    }

    /// Number of distinct atomic values indexed.
    pub fn distinct_values(&self) -> usize {
        self.locations.len()
    }
}

/// The index families of one [`Database`](crate::Database), each built
/// from the graph by its first probe. Which families *may* exist is the
/// database's [`IndexLevel`](crate::IndexLevel) alone; this only records
/// which of them have been asked for so far.
#[derive(Debug, Default)]
pub(crate) struct IndexSet {
    stats: OnceLock<Stats>,
    extension: OnceLock<ExtensionIndex>,
    value: OnceLock<ValueIndex>,
}

impl IndexSet {
    pub(crate) fn stats(&self, graph: &Graph) -> &Stats {
        self.stats.get_or_init(|| {
            let _span = strudel_trace::span("repo.index.build.stats");
            Stats::compute(graph)
        })
    }

    pub(crate) fn extension(&self, graph: &Graph) -> &ExtensionIndex {
        self.extension.get_or_init(|| {
            let _span = strudel_trace::span("repo.index.build.extension");
            ExtensionIndex::build(graph)
        })
    }

    pub(crate) fn value(&self, graph: &Graph) -> &ValueIndex {
        self.value.get_or_init(|| {
            let _span = strudel_trace::span("repo.index.build.value");
            ValueIndex::build(graph)
        })
    }

    /// Readies the built families for a delta to `graph`, before its
    /// first change.
    pub(crate) fn before_delta(&mut self, graph: &Graph) {
        if let Some(s) = self.stats.get_mut() {
            s.count_ends(graph);
        }
    }

    /// Tells every family that has been built about a new edge.
    pub(crate) fn note_edge(&mut self, from: Oid, label: Label, to: &Value) {
        if let Some(s) = self.stats.get_mut() {
            s.note_edge(from, label, to);
        }
        if let Some(x) = self.extension.get_mut() {
            x.note_edge(from, label, to);
        }
        if let Some(v) = self.value.get_mut() {
            v.note_edge(from, label, to);
        }
    }

    /// Tells every family that has been built about a removed edge.
    pub(crate) fn forget_edge(&mut self, from: Oid, label: Label, to: &Value) {
        if let Some(s) = self.stats.get_mut() {
            s.forget_edge(from, label, to);
        }
        if let Some(x) = self.extension.get_mut() {
            x.forget_edge(from, label, to);
        }
        if let Some(v) = self.value.get_mut() {
            v.forget_edge(from, label, to);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        let mut g = Graph::new();
        let a = g.add_named_node("a");
        let b = g.add_named_node("b");
        g.add_edge_str(a, "year", Value::Int(1998));
        g.add_edge_str(b, "year", Value::Int(1998));
        g.add_edge_str(b, "year", Value::Int(1997));
        g.add_edge_str(a, "title", Value::string("x"));
        g.add_edge_str(a, "cites", Value::Node(b));
        g.collect_str("Pubs", a);
        g.collect_str("Pubs", b);
        g
    }

    #[test]
    fn extension_index_forward_and_inverted() {
        let g = sample();
        let x = ExtensionIndex::build(&g);
        let year = g.label("year").unwrap();
        assert_eq!(x.extension(year).len(), 3);
        assert_eq!(x.sources(year, &Value::Int(1998)).len(), 2);
        assert_eq!(x.sources(year, &Value::Int(1996)).len(), 0);
    }

    #[test]
    fn extension_index_forget() {
        let g = sample();
        let mut x = ExtensionIndex::build(&g);
        let year = g.label("year").unwrap();
        let a = g.node_by_name("a").unwrap();
        x.forget_edge(a, year, &Value::Int(1998));
        assert_eq!(x.extension(year).len(), 2);
        assert_eq!(x.sources(year, &Value::Int(1998)).len(), 1);
    }

    #[test]
    fn value_index_is_global_and_atomic_only() {
        let g = sample();
        let v = ValueIndex::build(&g);
        // 1998 appears twice, under the same label but different nodes.
        assert_eq!(v.locations(&Value::Int(1998)).len(), 2);
        // Node-valued edges are not in the value index.
        let b = g.node_by_name("b").unwrap();
        assert_eq!(v.locations(&Value::Node(b)).len(), 0);
        assert_eq!(v.distinct_values(), 3); // 1998, 1997, "x"
    }

    #[test]
    fn a_family_exists_only_once_it_has_been_probed() {
        let g = sample();
        let a = g.node_by_name("a").unwrap();
        let year = g.label("year").unwrap();
        let mut set = IndexSet::default();
        // A mutation tells built families only: it builds none.
        set.before_delta(&g);
        set.note_edge(a, year, &Value::Int(1999));
        set.forget_edge(a, year, &Value::Int(1999));
        assert!(set.stats.get().is_none());
        assert!(set.extension.get().is_none());
        assert!(set.value.get().is_none());

        assert_eq!(set.extension(&g).extension(year).len(), 3);
        let x = set.extension.get().expect("built by the probe");
        assert!(x.inverted.get().is_none(), "no `sources` probe yet");
        assert_eq!(x.sources(year, &Value::Int(1998)).len(), 2);
        assert!(x.inverted.get().is_some());
        assert!(set.stats.get().is_none() && set.value.get().is_none());

        assert_eq!(set.value(&g).locations(&Value::Int(1998)).len(), 2);
        assert_eq!(set.stats(&g).label(year).edges, 3);
    }

    #[test]
    fn value_index_forget() {
        let g = sample();
        let mut v = ValueIndex::build(&g);
        let a = g.node_by_name("a").unwrap();
        let year = g.label("year").unwrap();
        v.forget_edge(a, year, &Value::Int(1998));
        assert_eq!(v.locations(&Value::Int(1998)).len(), 1);
    }
}
