//! The repository's index structures.
//!
//! Three families, mirroring §2.1 of the paper:
//!
//! * [`SchemaIndex`] — "one index contains the names of all the collections
//!   and attributes in the graph": per-attribute and per-collection usage
//!   counts plus the set of value types each attribute has been observed
//!   with. STRUQL queries the schema through arc variables, and the
//!   optimizer reads cardinalities from here.
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
//! extensions by the first `sources` probe.

use std::collections::HashMap;
use std::sync::OnceLock;
use strudel_graph::hash::FastMap;
use strudel_graph::{Graph, Label, Oid, Value};

/// Per-attribute schema facts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AttributeInfo {
    /// Number of edges carrying this label.
    pub edge_count: usize,
    /// Names of value types observed as targets, with counts.
    pub value_types: HashMap<&'static str, usize>,
}

/// The schema index: what attribute names and collection names exist, and
/// how heavily each is used.
#[derive(Clone, Debug, Default)]
pub struct SchemaIndex {
    attributes: HashMap<Label, AttributeInfo>,
    collections: HashMap<String, usize>,
}

impl SchemaIndex {
    /// Builds the schema index by scanning `graph`.
    pub fn build(graph: &Graph) -> Self {
        let mut idx = SchemaIndex::default();
        for oid in graph.node_oids() {
            for e in graph.edges(oid) {
                idx.note_edge(e.label, &e.to);
            }
        }
        for (cid, name) in graph.collections() {
            idx.collections
                .insert(name.to_owned(), graph.members(cid).len());
        }
        idx
    }

    pub(crate) fn note_edge(&mut self, label: Label, to: &Value) {
        let info = self.attributes.entry(label).or_default();
        info.edge_count += 1;
        *info.value_types.entry(to.type_name()).or_insert(0) += 1;
    }

    pub(crate) fn forget_edge(&mut self, label: Label, to: &Value) {
        if let Some(info) = self.attributes.get_mut(&label) {
            info.edge_count = info.edge_count.saturating_sub(1);
            if let Some(c) = info.value_types.get_mut(to.type_name()) {
                *c = c.saturating_sub(1);
                if *c == 0 {
                    info.value_types.remove(to.type_name());
                }
            }
        }
    }

    pub(crate) fn note_member(&mut self, collection: &str, delta: isize) {
        let c = self.collections.entry(collection.to_owned()).or_insert(0);
        *c = c.saturating_add_signed(delta);
    }

    /// Facts about one attribute, if any edge carries it.
    pub fn attribute(&self, label: Label) -> Option<&AttributeInfo> {
        self.attributes.get(&label)
    }

    /// Number of edges carrying `label`.
    pub fn edge_count(&self, label: Label) -> usize {
        self.attributes.get(&label).map_or(0, |i| i.edge_count)
    }

    /// Cardinality of the named collection.
    pub fn collection_size(&self, name: &str) -> usize {
        self.collections.get(name).copied().unwrap_or(0)
    }

    /// All attributes present in the graph.
    pub fn attributes(&self) -> impl Iterator<Item = (Label, &AttributeInfo)> + '_ {
        self.attributes.iter().map(|(&l, i)| (l, i))
    }

    /// All collections with their sizes.
    pub fn collections(&self) -> impl Iterator<Item = (&str, usize)> + '_ {
        self.collections.iter().map(|(n, &s)| (n.as_str(), s))
    }
}

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
    schema: OnceLock<SchemaIndex>,
    extension: OnceLock<ExtensionIndex>,
    value: OnceLock<ValueIndex>,
}

impl IndexSet {
    pub(crate) fn schema(&self, graph: &Graph) -> &SchemaIndex {
        self.schema.get_or_init(|| {
            let _span = strudel_trace::span("repo.index.build.schema");
            SchemaIndex::build(graph)
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

    /// Tells every family that has been built about a new edge.
    pub(crate) fn note_edge(&mut self, from: Oid, label: Label, to: &Value) {
        if let Some(s) = self.schema.get_mut() {
            s.note_edge(label, to);
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
        if let Some(s) = self.schema.get_mut() {
            s.forget_edge(label, to);
        }
        if let Some(x) = self.extension.get_mut() {
            x.forget_edge(from, label, to);
        }
        if let Some(v) = self.value.get_mut() {
            v.forget_edge(from, label, to);
        }
    }

    /// Tells the schema index, if built, about a membership change.
    pub(crate) fn note_member(&mut self, collection: &str, delta: isize) {
        if let Some(s) = self.schema.get_mut() {
            s.note_member(collection, delta);
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
    fn schema_index_counts_edges_and_types() {
        let g = sample();
        let s = SchemaIndex::build(&g);
        let year = g.label("year").unwrap();
        assert_eq!(s.edge_count(year), 3);
        assert_eq!(s.attribute(year).unwrap().value_types["int"], 3);
        assert_eq!(s.collection_size("Pubs"), 2);
        assert_eq!(s.collection_size("NoSuch"), 0);
        assert_eq!(s.attributes().count(), 3);
    }

    #[test]
    fn schema_index_forgets_edges() {
        let g = sample();
        let mut s = SchemaIndex::build(&g);
        let year = g.label("year").unwrap();
        s.forget_edge(year, &Value::Int(1998));
        assert_eq!(s.edge_count(year), 2);
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
        set.note_edge(a, year, &Value::Int(1999));
        set.forget_edge(a, year, &Value::Int(1999));
        set.note_member("Pubs", 1);
        assert!(set.schema.get().is_none());
        assert!(set.extension.get().is_none());
        assert!(set.value.get().is_none());

        assert_eq!(set.extension(&g).extension(year).len(), 3);
        let x = set.extension.get().expect("built by the probe");
        assert!(x.inverted.get().is_none(), "no `sources` probe yet");
        assert_eq!(x.sources(year, &Value::Int(1998)).len(), 2);
        assert!(x.inverted.get().is_some());
        assert!(set.schema.get().is_none() && set.value.get().is_none());

        assert_eq!(set.value(&g).locations(&Value::Int(1998)).len(), 2);
        assert_eq!(set.schema(&g).edge_count(year), 3);
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
