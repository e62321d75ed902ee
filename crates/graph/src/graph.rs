//! The labeled directed multigraph with named collections.

use crate::hash::{FastMap, FastSet};
use crate::{Label, LabelInterner, Oid, Value};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// A directed, labeled edge out of a node.
///
/// The target is a [`Value`]: either another internal node or an atomic
/// value, exactly as in the OEM model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Edge {
    /// The interned attribute name labeling the edge.
    pub label: Label,
    /// The edge target.
    pub to: Value,
}

/// A directed, labeled edge into a node, as recorded by the reverse
/// adjacency index.
///
/// Only edges whose target is an internal node appear in the index: atomic
/// values are not objects and have no incoming-edge list. The source is
/// always an [`Oid`] because only nodes carry out-edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InEdge {
    /// The node the edge leaves.
    pub from: Oid,
    /// The interned attribute name labeling the edge.
    pub label: Label,
}

/// An interned collection name.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CollectionId(pub(crate) u32);

impl CollectionId {
    /// Returns the dense index backing this collection id.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a collection id from a dense index previously obtained
    /// from [`CollectionId::index`] against the same graph.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        debug_assert!(index <= u32::MAX as usize, "collection index overflow");
        CollectionId(index as u32)
    }
}

#[derive(Clone, Debug, Default)]
struct NodeData {
    /// Optional symbolic name, for DDL round-trips and debugging.
    name: Option<Arc<str>>,
    edges: Vec<Edge>,
    /// Reverse adjacency: edges targeting this node, in insertion order.
    rev: Vec<InEdge>,
}

#[derive(Clone, Debug)]
struct CollectionData {
    name: Arc<str>,
    /// Members in first-insertion order, deduplicated.
    members: Vec<Value>,
    member_set: FastSet<Value>,
}

/// A labeled directed multigraph over semistructured objects.
///
/// This is the single data structure behind every Strudel artifact: source
/// snapshots produced by wrappers, the integrated data graph, and the site
/// graph produced by a site-definition query. The graph owns its
/// [`LabelInterner`], so labels and collection ids are only meaningful
/// relative to the graph that issued them.
///
/// Nodes are append-only (a node, once created, exists forever); edges and
/// collection memberships can be added and removed, which is the granularity
/// at which [`GraphDelta`](crate::GraphDelta) records mutations.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    labels: LabelInterner,
    nodes: Vec<NodeData>,
    node_names: FastMap<Arc<str>, Oid>,
    collections: Vec<CollectionData>,
    collection_ids: FastMap<Arc<str>, CollectionId>,
    edge_count: usize,
    /// Node records emptied by [`Graph::clear`], reused by the next
    /// nodes added.
    spare_nodes: Vec<NodeData>,
    /// Member lists and sets emptied by [`Graph::clear`], reused by the
    /// next collections interned.
    spare_members: Vec<(Vec<Value>, FastSet<Value>)>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    // ----- labels -------------------------------------------------------

    /// Interns an attribute name.
    pub fn intern_label(&mut self, name: &str) -> Label {
        self.labels.intern(name)
    }

    /// Looks up an attribute name without interning it.
    pub fn label(&self, name: &str) -> Option<Label> {
        self.labels.get(name)
    }

    /// Resolves a label to its attribute name.
    pub fn label_name(&self, label: Label) -> &str {
        self.labels.resolve(label)
    }

    /// The graph's label interner.
    pub fn labels(&self) -> &LabelInterner {
        &self.labels
    }

    // ----- nodes --------------------------------------------------------

    /// Empties the graph for reuse: every node, edge and collection
    /// goes, and oids and collection ids start again from zero. The label
    /// interner and the allocations stay, so a graph rebuilt over and
    /// over interns each label once and allocates only when a rebuild
    /// outgrows every earlier one.
    pub fn clear(&mut self) {
        for mut node in self.nodes.drain(..) {
            node.name = None;
            node.edges.clear();
            node.rev.clear();
            self.spare_nodes.push(node);
        }
        self.node_names.clear();
        for c in self.collections.drain(..) {
            let (mut members, mut member_set) = (c.members, c.member_set);
            members.clear();
            member_set.clear();
            self.spare_members.push((members, member_set));
        }
        self.collection_ids.clear();
        self.edge_count = 0;
    }

    /// A node record for the next node, named `name`.
    fn node_data(&mut self, name: Option<Arc<str>>) -> NodeData {
        let mut data = self.spare_nodes.pop().unwrap_or_default();
        data.name = name;
        data
    }

    /// Creates a fresh anonymous node.
    pub fn add_node(&mut self) -> Oid {
        let oid = Oid::from_index(self.nodes.len());
        let data = self.node_data(None);
        self.nodes.push(data);
        oid
    }

    /// Creates (or returns the existing) node with the symbolic name
    /// `name`. Names are how DDL files and wrappers refer to objects across
    /// statements and files.
    pub fn add_named_node(&mut self, name: &str) -> Oid {
        if let Some(&oid) = self.node_names.get(name) {
            return oid;
        }
        let arc: Arc<str> = name.into();
        let oid = Oid::from_index(self.nodes.len());
        let data = self.node_data(Some(arc.clone()));
        self.nodes.push(data);
        self.node_names.insert(arc, oid);
        oid
    }

    /// Looks up a node by symbolic name.
    pub fn node_by_name(&self, name: &str) -> Option<Oid> {
        self.node_names.get(name).copied()
    }

    /// The symbolic name of a node, if it has one.
    pub fn node_name(&self, oid: Oid) -> Option<&str> {
        self.nodes[oid.index()].name.as_deref()
    }

    /// Assigns a symbolic name to an existing anonymous node. Returns
    /// `false` (and leaves the graph unchanged) if the name is taken by a
    /// different node or the node already has a name.
    pub fn name_node(&mut self, oid: Oid, name: &str) -> bool {
        if let Some(&existing) = self.node_names.get(name) {
            return existing == oid;
        }
        if self.nodes[oid.index()].name.is_some() {
            return false;
        }
        let arc: Arc<str> = name.into();
        self.nodes[oid.index()].name = Some(arc.clone());
        self.node_names.insert(arc, oid);
        true
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Whether `oid` was issued by this graph.
    pub fn contains_node(&self, oid: Oid) -> bool {
        oid.index() < self.nodes.len()
    }

    /// Iterates over all node oids in creation order.
    pub fn node_oids(&self) -> impl Iterator<Item = Oid> + '_ {
        (0..self.nodes.len()).map(Oid::from_index)
    }

    // ----- edges --------------------------------------------------------

    /// Adds a labeled edge `from --label--> to`.
    ///
    /// The graph is a multigraph: adding the same edge twice stores it
    /// twice. Use [`Graph::has_edge`] first when set semantics are wanted.
    pub fn add_edge(&mut self, from: Oid, label: Label, to: Value) {
        debug_assert!(label.index() < self.labels.len(), "foreign label");
        if let Value::Node(target) = &to {
            let target = *target;
            self.nodes[target.index()].rev.push(InEdge { from, label });
        }
        self.nodes[from.index()].edges.push(Edge { label, to });
        self.edge_count += 1;
    }

    /// Reserves room for `additional` more out-edges of `from`, for a
    /// caller that knows how many it is about to add.
    pub fn reserve_edges(&mut self, from: Oid, additional: usize) {
        self.nodes[from.index()].edges.reserve_exact(additional);
    }

    /// Adds an edge, interning the label name.
    pub fn add_edge_str(&mut self, from: Oid, label: &str, to: Value) {
        let l = self.intern_label(label);
        self.add_edge(from, l, to);
    }

    /// Removes one occurrence of the edge `from --label--> to`. Returns
    /// whether an edge was removed.
    pub fn remove_edge(&mut self, from: Oid, label: Label, to: &Value) -> bool {
        let edges = &mut self.nodes[from.index()].edges;
        if let Some(pos) = edges.iter().position(|e| e.label == label && &e.to == to) {
            edges.remove(pos);
            self.edge_count -= 1;
            if let Value::Node(target) = to {
                let rev = &mut self.nodes[target.index()].rev;
                // Parallel in-edges are indistinguishable in the reverse
                // index, so removing the first match keeps it exactly in
                // step with the forward edge list.
                if let Some(rpos) = rev
                    .iter()
                    .position(|ie| ie.from == from && ie.label == label)
                {
                    rev.remove(rpos);
                }
            }
            true
        } else {
            false
        }
    }

    /// Whether the edge `from --label--> to` exists.
    pub fn has_edge(&self, from: Oid, label: Label, to: &Value) -> bool {
        self.nodes[from.index()]
            .edges
            .iter()
            .any(|e| e.label == label && &e.to == to)
    }

    /// All out-edges of a node, in insertion order.
    pub fn edges(&self, oid: Oid) -> &[Edge] {
        &self.nodes[oid.index()].edges
    }

    /// All edges whose target is node `oid`, in insertion order.
    ///
    /// This is the reverse-adjacency mirror of [`Graph::edges`], maintained
    /// incrementally by [`Graph::add_edge`] and [`Graph::remove_edge`] (and
    /// therefore consistent through delta application and WAL replay, which
    /// route through those methods). Edges targeting atomic values are not
    /// indexed; answer those through the value index or an edge scan.
    pub fn edges_in(&self, oid: Oid) -> &[InEdge] {
        &self.nodes[oid.index()].rev
    }

    /// The values of attribute `label` on node `oid`, in insertion order.
    pub fn attr(&self, oid: Oid, label: Label) -> impl Iterator<Item = &Value> + '_ {
        self.nodes[oid.index()]
            .edges
            .iter()
            .filter(move |e| e.label == label)
            .map(|e| &e.to)
    }

    /// The values of attribute `label` (by name) on node `oid`. Yields
    /// nothing when the label has never been interned.
    pub fn attr_str<'g>(&'g self, oid: Oid, label: &str) -> impl Iterator<Item = &'g Value> + 'g {
        let l = self.label(label);
        self.nodes[oid.index()]
            .edges
            .iter()
            .filter(move |e| Some(e.label) == l)
            .map(|e| &e.to)
    }

    /// The first value of attribute `label` on `oid`, if any.
    pub fn first_attr(&self, oid: Oid, label: Label) -> Option<&Value> {
        self.attr(oid, label).next()
    }

    /// The first value of attribute `label` (by name) on `oid`, if any.
    pub fn first_attr_str(&self, oid: Oid, label: &str) -> Option<&Value> {
        self.attr_str(oid, label).next()
    }

    /// Total number of edges in the graph.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    // ----- collections ---------------------------------------------------

    /// Interns a collection name, creating the (empty) collection if new.
    pub fn intern_collection(&mut self, name: &str) -> CollectionId {
        if let Some(&cid) = self.collection_ids.get(name) {
            return cid;
        }
        let arc: Arc<str> = name.into();
        let cid = CollectionId::from_index(self.collections.len());
        let (members, member_set) = self.spare_members.pop().unwrap_or_default();
        self.collections.push(CollectionData {
            name: arc.clone(),
            members,
            member_set,
        });
        self.collection_ids.insert(arc, cid);
        cid
    }

    /// Looks up a collection by name without creating it.
    pub fn collection_id(&self, name: &str) -> Option<CollectionId> {
        self.collection_ids.get(name).copied()
    }

    /// The name of a collection.
    pub fn collection_name(&self, cid: CollectionId) -> &str {
        &self.collections[cid.index()].name
    }

    /// Adds `member` to the collection (set semantics: duplicates are
    /// ignored). Returns whether the member was newly added.
    pub fn collect(&mut self, cid: CollectionId, member: Value) -> bool {
        let c = &mut self.collections[cid.index()];
        if c.member_set.insert(member.clone()) {
            c.members.push(member);
            true
        } else {
            false
        }
    }

    /// Adds `member` to the named collection, creating it if necessary.
    pub fn collect_str(&mut self, name: &str, member: impl Into<Value>) -> bool {
        let cid = self.intern_collection(name);
        self.collect(cid, member.into())
    }

    /// Removes `member` from the collection. Returns whether it was present.
    pub fn uncollect(&mut self, cid: CollectionId, member: &Value) -> bool {
        let c = &mut self.collections[cid.index()];
        if c.member_set.remove(member) {
            let pos = c
                .members
                .iter()
                .position(|m| m == member)
                .expect("member list and set out of sync");
            c.members.remove(pos);
            true
        } else {
            false
        }
    }

    /// The members of a collection in first-insertion order.
    pub fn members(&self, cid: CollectionId) -> &[Value] {
        &self.collections[cid.index()].members
    }

    /// The members of a named collection; empty when the collection does
    /// not exist.
    pub fn members_str(&self, name: &str) -> &[Value] {
        match self.collection_id(name) {
            Some(cid) => self.members(cid),
            None => &[],
        }
    }

    /// Whether `member` belongs to the collection.
    pub fn in_collection(&self, cid: CollectionId, member: &Value) -> bool {
        self.collections[cid.index()].member_set.contains(member)
    }

    /// Number of collections.
    pub fn collection_count(&self) -> usize {
        self.collections.len()
    }

    /// Iterates over all collections as `(id, name)` pairs.
    pub fn collections(&self) -> impl Iterator<Item = (CollectionId, &str)> + '_ {
        self.collections
            .iter()
            .enumerate()
            .map(|(i, c)| (CollectionId::from_index(i), c.name.as_ref()))
    }

    /// Merges collection `from` into collection `into`, emptying `from`.
    /// This is the §6.3 schema-evolution move: "the information about lab
    /// and department directors initially was modeled by two different
    /// collections; over time, we discovered that objects in these
    /// collections shared many common attributes, so we merged the two
    /// collections." Returns how many members were newly added to `into`.
    pub fn merge_collection(&mut self, from: CollectionId, into: CollectionId) -> usize {
        if from == into {
            return 0;
        }
        let members: Vec<Value> = self.collections[from.index()].members.clone();
        let mut moved = 0;
        for m in members {
            self.uncollect(from, &m);
            if self.collect(into, m) {
                moved += 1;
            }
        }
        moved
    }

    // ----- whole-graph operations ----------------------------------------

    /// Imports every node, edge, and collection of `other` into `self`,
    /// returning the oid remapping (indexed by `other`'s oids). Symbolic
    /// node names are kept when unclaimed in `self`; a clash falls back to
    /// an anonymous node, since names are a debugging aid rather than
    /// identity (identity is the oid).
    ///
    /// This is the mediator's warehousing primitive: each wrapped source
    /// graph is imported into the repository's single data graph. Oids and
    /// labels are remapped through dense tables, so an edge costs no hash
    /// lookup; a label is interned when its first edge arrives, which
    /// keeps label ids in first-use order.
    pub fn import_graph(&mut self, other: &Graph) -> Vec<Oid> {
        let oids: Vec<Oid> = other
            .nodes
            .iter()
            .map(|node| match &node.name {
                Some(name) if !self.node_names.contains_key(name.as_ref()) => {
                    self.add_named_node(name)
                }
                _ => self.add_node(),
            })
            .collect();
        let remap = |v: &Value| match v {
            Value::Node(o) => Value::Node(oids[o.index()]),
            atom => atom.clone(),
        };
        let mut labels: Vec<Option<Label>> = vec![None; other.labels.len()];
        for (node, &from) in other.nodes.iter().zip(&oids) {
            self.reserve_edges(from, node.edges.len());
            for e in &node.edges {
                let label = *labels[e.label.index()]
                    .get_or_insert_with(|| self.labels.intern(other.label_name(e.label)));
                self.add_edge(from, label, remap(&e.to));
            }
        }
        for c in &other.collections {
            let cid = self.intern_collection(&c.name);
            for m in &c.members {
                self.collect(cid, remap(m));
            }
        }
        oids
    }

    /// A read-only cursor over one node. Convenience for template
    /// evaluation and tests.
    pub fn node(&self, oid: Oid) -> NodeRef<'_> {
        NodeRef { graph: self, oid }
    }
}

/// A borrowed view of one node of a [`Graph`].
#[derive(Clone, Copy)]
pub struct NodeRef<'g> {
    graph: &'g Graph,
    oid: Oid,
}

impl<'g> NodeRef<'g> {
    /// The node's oid.
    pub fn oid(&self) -> Oid {
        self.oid
    }

    /// The node's symbolic name, if any.
    pub fn name(&self) -> Option<&'g str> {
        self.graph.node_name(self.oid)
    }

    /// The values of the named attribute.
    pub fn attr(&self, label: &str) -> impl Iterator<Item = &'g Value> + 'g {
        self.graph.attr_str(self.oid, label)
    }

    /// The first value of the named attribute.
    pub fn first(&self, label: &str) -> Option<&'g Value> {
        self.graph.first_attr_str(self.oid, label)
    }

    /// All out-edges.
    pub fn edges(&self) -> &'g [Edge] {
        self.graph.edges(self.oid)
    }
}

impl fmt::Debug for NodeRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.name() {
            Some(n) => write!(f, "NodeRef({} {:?})", self.oid, n),
            None => write!(f, "NodeRef({})", self.oid),
        }
    }
}

/// Checks that two graphs agree on node/edge/collection counts, on the
/// multiset of canonicalized edges, and on every collection's
/// canonicalized membership multiset — the equivalence oracle of the
/// construction, pager and crash-recovery tests and experiments.
///
/// Canonicalization renders a node as `&name` when it has one and as an
/// anonymous placeholder otherwise: graphs built along different paths
/// mint Skolem nodes in a different order than a fresh evaluation, so an
/// oid-sensitive comparison would reject equivalent results. Everything
/// else — per-label edge multisets over source/target shape and value,
/// and which members each collection holds — must match exactly.
pub fn graphs_equivalent(a: &Graph, b: &Graph) -> bool {
    if a.node_count() != b.node_count()
        || a.edge_count() != b.edge_count()
        || a.collection_count() != b.collection_count()
    {
        return false;
    }
    fn canon_value(g: &Graph, v: &Value) -> String {
        match v {
            Value::Node(o) => match g.node_name(*o) {
                Some(n) => format!("&{n}"),
                None => "&<anon>".into(),
            },
            other => format!("{other:?}"),
        }
    }
    fn edge_multiset(g: &Graph) -> HashMap<(String, String, String), usize> {
        let mut m = HashMap::new();
        for idx in 0..g.node_count() {
            let oid = Oid::from_index(idx);
            let src = canon_value(g, &Value::Node(oid));
            for e in g.edges(oid) {
                let key = (
                    src.clone(),
                    g.label_name(e.label).to_string(),
                    canon_value(g, &e.to),
                );
                *m.entry(key).or_insert(0) += 1;
            }
        }
        m
    }
    fn membership(g: &Graph, name: &str) -> HashMap<String, usize> {
        let mut m = HashMap::new();
        for v in g.members_str(name) {
            *m.entry(canon_value(g, v)).or_insert(0) += 1;
        }
        m
    }
    if edge_multiset(a) != edge_multiset(b) {
        return false;
    }
    let names_a: HashSet<&str> = a.collections().map(|(_, n)| n).collect();
    let names_b: HashSet<&str> = b.collections().map(|(_, n)| n).collect();
    if names_a != names_b {
        return false;
    }
    names_a
        .iter()
        .all(|name| membership(a, name) == membership(b, name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FileKind;

    fn sample() -> Graph {
        let mut g = Graph::new();
        let p1 = g.add_named_node("pub1");
        let p2 = g.add_named_node("pub2");
        g.add_edge_str(p1, "title", Value::string("Strudel"));
        g.add_edge_str(p1, "year", Value::Int(1998));
        g.add_edge_str(p1, "author", Value::string("mff"));
        g.add_edge_str(p1, "author", Value::string("suciu"));
        g.add_edge_str(p2, "title", Value::string("WebOQL"));
        g.add_edge_str(p2, "cites", Value::Node(p1));
        g.collect_str("Publications", p1);
        g.collect_str("Publications", p2);
        g
    }

    #[test]
    fn named_nodes_are_idempotent() {
        let mut g = Graph::new();
        let a = g.add_named_node("x");
        let b = g.add_named_node("x");
        assert_eq!(a, b);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.node_by_name("x"), Some(a));
        assert_eq!(g.node_name(a), Some("x"));
    }

    #[test]
    fn multi_valued_attributes_preserve_order() {
        let g = sample();
        let p1 = g.node_by_name("pub1").unwrap();
        let authors: Vec<&str> = g.attr_str(p1, "author").filter_map(Value::as_str).collect();
        assert_eq!(authors, ["mff", "suciu"]);
    }

    #[test]
    fn missing_attribute_yields_nothing() {
        let g = sample();
        let p2 = g.node_by_name("pub2").unwrap();
        assert_eq!(g.attr_str(p2, "year").count(), 0);
        assert!(g.first_attr_str(p2, "no-such-label").is_none());
    }

    #[test]
    fn edge_add_remove_round_trip() {
        let mut g = sample();
        let p1 = g.node_by_name("pub1").unwrap();
        let year = g.label("year").unwrap();
        let before = g.edge_count();
        assert!(g.has_edge(p1, year, &Value::Int(1998)));
        assert!(g.remove_edge(p1, year, &Value::Int(1998)));
        assert!(!g.has_edge(p1, year, &Value::Int(1998)));
        assert!(!g.remove_edge(p1, year, &Value::Int(1998)));
        assert_eq!(g.edge_count(), before - 1);
    }

    #[test]
    fn multigraph_stores_duplicate_edges() {
        let mut g = Graph::new();
        let n = g.add_node();
        g.add_edge_str(n, "tag", Value::string("x"));
        g.add_edge_str(n, "tag", Value::string("x"));
        assert_eq!(g.attr_str(n, "tag").count(), 2);
        let tag = g.label("tag").unwrap();
        assert!(g.remove_edge(n, tag, &Value::string("x")));
        assert_eq!(g.attr_str(n, "tag").count(), 1);
    }

    #[test]
    fn collections_have_set_semantics_and_order() {
        let mut g = sample();
        let p1 = g.node_by_name("pub1").unwrap();
        assert!(!g.collect_str("Publications", p1), "duplicate insert");
        let cid = g.collection_id("Publications").unwrap();
        assert_eq!(g.members(cid).len(), 2);
        assert!(g.in_collection(cid, &Value::Node(p1)));
        assert!(g.uncollect(cid, &Value::Node(p1)));
        assert!(!g.in_collection(cid, &Value::Node(p1)));
        assert_eq!(g.members(cid).len(), 1);
    }

    #[test]
    fn collections_may_hold_atomic_values() {
        let mut g = Graph::new();
        g.collect_str("Years", Value::Int(1997));
        g.collect_str("Years", Value::Int(1998));
        assert_eq!(g.members_str("Years").len(), 2);
        assert_eq!(g.members_str("NoSuch").len(), 0);
    }

    #[test]
    fn objects_may_belong_to_multiple_collections() {
        let mut g = sample();
        let p1 = g.node_by_name("pub1").unwrap();
        g.collect_str("Recent", p1);
        let pubs = g.collection_id("Publications").unwrap();
        let recent = g.collection_id("Recent").unwrap();
        assert!(g.in_collection(pubs, &Value::Node(p1)));
        assert!(g.in_collection(recent, &Value::Node(p1)));
    }

    #[test]
    fn merge_collection_moves_members() {
        let mut g = Graph::new();
        let a = g.add_named_node("a");
        let b = g.add_named_node("b");
        let c = g.add_named_node("c");
        let lab = g.intern_collection("LabDirectors");
        let dept = g.intern_collection("DeptDirectors");
        g.collect(lab, Value::Node(a));
        g.collect(lab, Value::Node(b));
        g.collect(dept, Value::Node(b)); // overlap
        g.collect(dept, Value::Node(c));
        let moved = g.merge_collection(lab, dept);
        assert_eq!(moved, 1, "only a was new to DeptDirectors");
        assert_eq!(g.members(lab).len(), 0);
        assert_eq!(g.members(dept).len(), 3);
        assert_eq!(g.merge_collection(dept, dept), 0, "self-merge is a no-op");
        assert_eq!(g.members(dept).len(), 3);
    }

    #[test]
    fn name_node_respects_existing_claims() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_named_node("b");
        assert!(g.name_node(a, "a"));
        assert!(!g.name_node(a, "c"), "already named");
        assert!(g.name_node(b, "b"), "same node, same name is ok");
        let c = g.add_node();
        assert!(!g.name_node(c, "a"), "name taken by another node");
    }

    #[test]
    fn import_remaps_oids_edges_and_collections() {
        let src = sample();
        let mut dst = Graph::new();
        // Pre-populate so remapped oids differ from source oids.
        dst.add_named_node("occupant");
        let map = dst.import_graph(&src);
        assert_eq!(dst.node_count(), 1 + src.node_count());

        let p1_src = src.node_by_name("pub1").unwrap();
        let p2_src = src.node_by_name("pub2").unwrap();
        let p1 = map[p1_src.index()];
        let p2 = map[p2_src.index()];
        assert_ne!(p1, p1_src, "oid must be remapped");
        assert_eq!(dst.node_by_name("pub1"), Some(p1));
        assert_eq!(
            dst.first_attr_str(p2, "cites"),
            Some(&Value::Node(p1)),
            "node-valued edges are remapped"
        );
        let cid = dst.collection_id("Publications").unwrap();
        assert_eq!(dst.members(cid).len(), 2);
        assert_eq!(dst.edge_count(), src.edge_count());
    }

    #[test]
    fn import_with_name_clash_falls_back_to_anonymous() {
        let mut a = Graph::new();
        let ax = a.add_named_node("x");
        a.add_edge_str(ax, "v", Value::Int(1));
        let mut b = Graph::new();
        let bx = b.add_named_node("x");
        b.add_edge_str(bx, "v", Value::Int(2));
        let map = a.import_graph(&b);
        let imported = map[bx.index()];
        assert_ne!(imported, ax);
        assert_eq!(a.node_name(imported), None);
        assert_eq!(a.first_attr_str(imported, "v"), Some(&Value::Int(2)));
        assert_eq!(a.first_attr_str(ax, "v"), Some(&Value::Int(1)));
    }

    #[test]
    fn node_ref_view() {
        let g = sample();
        let p1 = g.node_by_name("pub1").unwrap();
        let n = g.node(p1);
        assert_eq!(n.oid(), p1);
        assert_eq!(n.name(), Some("pub1"));
        assert_eq!(n.first("year"), Some(&Value::Int(1998)));
        assert_eq!(n.attr("author").count(), 2);
        assert_eq!(n.edges().len(), 4);
    }

    #[test]
    fn file_values_live_on_edges() {
        let mut g = Graph::new();
        let p = g.add_node();
        g.add_edge_str(p, "abstract", Value::file(FileKind::Text, "abs/p.txt"));
        let v = g.first_attr_str(p, "abstract").unwrap();
        assert!(v.is_file_kind(FileKind::Text));
    }

    #[test]
    fn edges_in_mirrors_forward_edges() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        let l = g.intern_label("link");
        let m = g.intern_label("ref");
        g.add_edge(a, l, Value::Node(c));
        g.add_edge(b, m, Value::Node(c));
        g.add_edge(a, l, Value::Int(7)); // atomic target: not indexed
        assert_eq!(
            g.edges_in(c),
            &[InEdge { from: a, label: l }, InEdge { from: b, label: m }]
        );
        assert!(g.edges_in(a).is_empty());
        assert!(g.edges_in(b).is_empty());
    }

    #[test]
    fn edges_in_tracks_removal_and_multi_edges() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let l = g.intern_label("link");
        g.add_edge(a, l, Value::Node(b));
        g.add_edge(a, l, Value::Node(b)); // multigraph: stored twice
        assert_eq!(g.edges_in(b).len(), 2);
        assert!(g.remove_edge(a, l, &Value::Node(b)));
        assert_eq!(g.edges_in(b), &[InEdge { from: a, label: l }]);
        assert!(g.remove_edge(a, l, &Value::Node(b)));
        assert!(g.edges_in(b).is_empty());
        assert!(!g.remove_edge(a, l, &Value::Node(b)));
    }

    #[test]
    fn a_cleared_graph_starts_over_but_keeps_its_labels() {
        let mut g = sample();
        let year = g.label("year").unwrap();
        g.clear();
        assert_eq!(
            (g.node_count(), g.edge_count(), g.collection_count()),
            (0, 0, 0)
        );
        assert_eq!(g.node_by_name("pub1"), None);
        assert!(g.members_str("Publications").is_empty());
        assert_eq!(g.label("year"), Some(year), "labels survive a clear");
        // Rebuilt, it is the graph a fresh one would be.
        let fresh = sample();
        let rebuilt = {
            let p1 = g.add_named_node("pub1");
            let p2 = g.add_named_node("pub2");
            g.add_edge_str(p1, "title", Value::string("Strudel"));
            g.add_edge_str(p1, "year", Value::Int(1998));
            g.add_edge_str(p1, "author", Value::string("mff"));
            g.add_edge_str(p1, "author", Value::string("suciu"));
            g.add_edge_str(p2, "title", Value::string("WebOQL"));
            g.add_edge_str(p2, "cites", Value::Node(p1));
            g.collect_str("Publications", p1);
            g.collect_str("Publications", p2);
            g
        };
        assert!(graphs_equivalent(&rebuilt, &fresh));
        let p1 = rebuilt.node_by_name("pub1").unwrap();
        assert_eq!(rebuilt.edges_in(p1).len(), 1);
        assert_eq!(rebuilt.members_str("Publications").len(), 2);
    }

    #[test]
    fn edges_in_consistent_after_import() {
        let g = sample();
        // Rebuild the reverse index by brute force and compare.
        for target in g.node_oids() {
            let mut expect = Vec::new();
            for from in g.node_oids() {
                for e in g.edges(from) {
                    if e.to == Value::Node(target) {
                        expect.push(InEdge {
                            from,
                            label: e.label,
                        });
                    }
                }
            }
            // The index stores global insertion order; compare as sorted
            // multisets since the forward scan can't reconstruct that.
            let mut got = g.edges_in(target).to_vec();
            got.sort_by_key(|ie| (ie.from.index(), ie.label.index()));
            expect.sort_by_key(|ie| (ie.from.index(), ie.label.index()));
            assert_eq!(got, expect);
        }
    }
}
