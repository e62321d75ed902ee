//! Replayable graph mutations.
//!
//! A [`GraphDelta`] is an ordered batch of mutations against a [`Graph`].
//! It is the unit of:
//!
//! * **write-ahead logging** in the repository — every mutating operation
//!   is recorded as a delta op before being applied;
//! * **incremental maintenance** — the schema crate routes a data-graph
//!   delta's signed bindings rows to the click-time pages they change and
//!   patches those pages instead of re-evaluating the query from scratch;
//! * **source refresh** in the mediator — re-wrapping a changed source
//!   yields the delta between old and new snapshots.
//!
//! Labels and collections are recorded *by name* so a delta can be shipped
//! between graphs (and serialized in the WAL); node identity is by oid, so
//! `AddNode` ops must replay in order against a graph with the same node
//! count as when the delta was recorded.

use crate::{Graph, Label, Oid, Value};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// One mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaOp {
    /// Create the next node (its oid is the graph's node count at apply
    /// time), optionally with a symbolic name.
    AddNode {
        /// Symbolic name to attach, if any.
        name: Option<Arc<str>>,
    },
    /// Add `from --label--> to`.
    AddEdge {
        /// Source node.
        from: Oid,
        /// Attribute name.
        label: Arc<str>,
        /// Edge target.
        to: Value,
    },
    /// Remove one occurrence of `from --label--> to`.
    RemoveEdge {
        /// Source node.
        from: Oid,
        /// Attribute name.
        label: Arc<str>,
        /// Edge target.
        to: Value,
    },
    /// Add `member` to the named collection.
    Collect {
        /// Collection name.
        collection: Arc<str>,
        /// The member to add.
        member: Value,
    },
    /// Remove `member` from the named collection.
    Uncollect {
        /// Collection name.
        collection: Arc<str>,
        /// The member to remove.
        member: Value,
    },
}

/// An error applying a delta to a graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// An op referenced an oid the graph has not issued.
    UnknownNode(Oid),
    /// A `RemoveEdge` did not find its edge.
    MissingEdge {
        /// Source node of the missing edge.
        from: Oid,
        /// Attribute name of the missing edge.
        label: Arc<str>,
    },
    /// An `Uncollect` did not find its member.
    MissingMember {
        /// Collection name.
        collection: Arc<str>,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::UnknownNode(o) => write!(f, "delta references unknown node {o}"),
            DeltaError::MissingEdge { from, label } => {
                write!(f, "delta removes missing edge {from} -{label}->")
            }
            DeltaError::MissingMember { collection } => {
                write!(f, "delta removes missing member of collection {collection}")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// An ordered, replayable batch of graph mutations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GraphDelta {
    ops: Vec<DeltaOp>,
}

impl GraphDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an arbitrary op.
    pub fn push(&mut self, op: DeltaOp) {
        self.ops.push(op);
    }

    /// Records a node creation.
    pub fn add_node(&mut self, name: Option<&str>) {
        self.ops.push(DeltaOp::AddNode {
            name: name.map(Into::into),
        });
    }

    /// Records an edge addition.
    pub fn add_edge(&mut self, from: Oid, label: &str, to: Value) {
        self.ops.push(DeltaOp::AddEdge {
            from,
            label: label.into(),
            to,
        });
    }

    /// Records an edge removal.
    pub fn remove_edge(&mut self, from: Oid, label: &str, to: Value) {
        self.ops.push(DeltaOp::RemoveEdge {
            from,
            label: label.into(),
            to,
        });
    }

    /// Records a collection insertion.
    pub fn collect(&mut self, collection: &str, member: Value) {
        self.ops.push(DeltaOp::Collect {
            collection: collection.into(),
            member,
        });
    }

    /// Records a collection removal.
    pub fn uncollect(&mut self, collection: &str, member: Value) {
        self.ops.push(DeltaOp::Uncollect {
            collection: collection.into(),
            member,
        });
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the delta is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The recorded ops in order.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// Appends all ops of `other`.
    pub fn extend(&mut self, other: GraphDelta) {
        self.ops.extend(other.ops);
    }

    /// The edge labels this delta adds or removes, in op order (with
    /// duplicates). Differential maintenance uses these to decide which
    /// query conditions a delta can possibly affect.
    pub fn edge_labels(&self) -> impl Iterator<Item = &str> {
        self.ops.iter().filter_map(|op| match op {
            DeltaOp::AddEdge { label, .. } | DeltaOp::RemoveEdge { label, .. } => {
                Some(label.as_ref())
            }
            _ => None,
        })
    }

    /// The collection names this delta collects into or uncollects from,
    /// in op order (with duplicates).
    pub fn collections(&self) -> impl Iterator<Item = &str> {
        self.ops.iter().filter_map(|op| match op {
            DeltaOp::Collect { collection, .. } | DeltaOp::Uncollect { collection, .. } => {
                Some(collection.as_ref())
            }
            _ => None,
        })
    }

    /// Applies the delta to `graph` all or nothing, returning the oids of
    /// the nodes its `AddNode` ops name, in op order. It first checks the
    /// delta with [`GraphDelta::validate`], the one rule of what a delta
    /// may do: a refused delta leaves `graph` byte-identical. See
    /// [`GraphDelta::apply_with`].
    pub fn apply(&self, graph: &mut Graph) -> Result<Vec<Oid>, DeltaError> {
        self.apply_with(graph, |_| {})
    }

    /// Applies the delta to `graph` all or nothing, reporting each change
    /// it makes to `hook` right after making it.
    ///
    /// The delta is first checked with [`GraphDelta::validate`]: a delta
    /// it refuses leaves `graph` byte-identical and calls no hook. Then
    /// the ops run in order, unchecked. A `Collect` of a member the
    /// collection already holds changes nothing and reports nothing.
    pub fn apply_with(
        &self,
        graph: &mut Graph,
        mut hook: impl FnMut(Change<'_>),
    ) -> Result<Vec<Oid>, DeltaError> {
        self.validate(graph)?;
        let mut created = Vec::new();
        for op in &self.ops {
            match op {
                DeltaOp::AddNode { name } => created.push(match name {
                    Some(n) => graph.add_named_node(n),
                    None => graph.add_node(),
                }),
                DeltaOp::AddEdge { from, label, to } => {
                    let label = graph.intern_label(label);
                    graph.add_edge(*from, label, to.clone());
                    hook(Change::EdgeAdded {
                        from: *from,
                        label,
                        to,
                    });
                }
                DeltaOp::RemoveEdge { from, label, to } => {
                    let label = graph.label(label).expect("validated: the edge exists");
                    graph.remove_edge(*from, label, to);
                    hook(Change::EdgeRemoved {
                        from: *from,
                        label,
                        to,
                    });
                }
                DeltaOp::Collect { collection, member } => {
                    let cid = graph.intern_collection(collection);
                    if graph.collect(cid, member.clone()) {
                        hook(Change::MemberAdded { collection, member });
                    }
                }
                DeltaOp::Uncollect { collection, member } => {
                    let cid = graph
                        .collection_id(collection)
                        .expect("validated: the collection exists");
                    graph.uncollect(cid, member);
                    hook(Change::MemberRemoved { collection, member });
                }
            }
        }
        Ok(created)
    }

    /// Whether the delta applies to `graph`, and if not the error of its
    /// first failing op — without mutating anything. This is the one rule
    /// of what a delta may do: [`GraphDelta::apply`] runs it first, and so
    /// does everything that applies a delta.
    ///
    /// The ops are simulated in order with overlays for their effects on
    /// each other: nodes created earlier in the delta count for later ops,
    /// edge add/remove multiplicity nets out, and collection membership
    /// follows the collect/uncollect sequence.
    pub fn validate(&self, graph: &Graph) -> Result<(), DeltaError> {
        // Virtual node count: graph nodes plus nodes this delta creates.
        // AddNode with an already-taken name fetches the existing node
        // instead of creating one, so names dedupe against both the graph
        // and earlier ops of the delta.
        let mut node_count = graph.node_count();
        let mut new_names: HashSet<&str> = HashSet::new();
        // Net intra-delta edge multiplicity, on top of the graph's count.
        let mut edge_overlay: HashMap<(Oid, &str, &Value), i64> = HashMap::new();
        // Collection membership decided by this delta (collections are
        // sets); a member it decides is in a collection it made exist.
        let mut member_overlay: HashMap<(&str, &Value), bool> = HashMap::new();
        let check_node = |count: usize, v: &Value| -> Result<(), DeltaError> {
            if let Some(o) = v.as_node() {
                if o.index() >= count {
                    return Err(DeltaError::UnknownNode(o));
                }
            }
            Ok(())
        };
        for op in &self.ops {
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
                    let base = match graph.label(label) {
                        Some(l) if from.index() < graph.node_count() => graph
                            .edges(*from)
                            .iter()
                            .filter(|e| e.label == l && e.to == *to)
                            .count()
                            as i64,
                        _ => 0,
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
                    member_overlay.insert((collection.as_ref(), member), true);
                }
                DeltaOp::Uncollect { collection, member } => {
                    let cid = graph.collection_id(collection);
                    let present = member_overlay
                        .get(&(collection.as_ref(), member))
                        .copied()
                        .unwrap_or_else(|| cid.is_some_and(|cid| graph.in_collection(cid, member)));
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
}

/// One change [`GraphDelta::apply_with`] made to a graph, as its hook
/// sees it: the graph already holds it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Change<'a> {
    /// The edge `from --label--> to` was added.
    EdgeAdded {
        /// Source node.
        from: Oid,
        /// The edge's interned label.
        label: Label,
        /// Edge target.
        to: &'a Value,
    },
    /// One occurrence of the edge `from --label--> to` was removed.
    EdgeRemoved {
        /// Source node.
        from: Oid,
        /// The edge's interned label.
        label: Label,
        /// Edge target.
        to: &'a Value,
    },
    /// `member` joined the named collection.
    MemberAdded {
        /// Collection name.
        collection: &'a str,
        /// The new member.
        member: &'a Value,
    },
    /// `member` left the named collection.
    MemberRemoved {
        /// Collection name.
        collection: &'a str,
        /// The former member.
        member: &'a Value,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_builds_a_graph() {
        let mut d = GraphDelta::new();
        d.add_node(Some("pub1"));
        d.add_edge(Oid::from_index(0), "title", Value::string("Strudel"));
        d.collect("Publications", Value::Node(Oid::from_index(0)));

        let mut g = Graph::new();
        let created = d.apply(&mut g).unwrap();
        assert_eq!(created.len(), 1);
        let p = g.node_by_name("pub1").unwrap();
        assert_eq!(g.first_attr_str(p, "title").unwrap().as_str(), Some("Strudel"));
        assert_eq!(g.members_str("Publications").len(), 1);
    }

    #[test]
    fn replay_into_fresh_graph_reproduces_state() {
        let mut d = GraphDelta::new();
        d.add_node(None);
        d.add_node(Some("x"));
        d.add_edge(Oid::from_index(1), "points", Value::Node(Oid::from_index(0)));

        let mut g1 = Graph::new();
        d.apply(&mut g1).unwrap();
        let mut g2 = Graph::new();
        d.apply(&mut g2).unwrap();
        assert_eq!(g1.node_count(), g2.node_count());
        assert_eq!(g1.edge_count(), g2.edge_count());
        assert_eq!(g1.node_by_name("x"), g2.node_by_name("x"));
    }

    #[test]
    fn remove_then_add_round_trip() {
        let mut g = Graph::new();
        let n = g.add_named_node("n");
        g.add_edge_str(n, "v", Value::Int(1));

        let mut d = GraphDelta::new();
        d.remove_edge(n, "v", Value::Int(1));
        d.add_edge(n, "v", Value::Int(2));
        d.apply(&mut g).unwrap();
        assert_eq!(g.first_attr_str(n, "v"), Some(&Value::Int(2)));
        assert_eq!(g.attr_str(n, "v").count(), 1);
    }

    #[test]
    fn unknown_node_is_rejected() {
        let mut d = GraphDelta::new();
        d.add_edge(Oid::from_index(7), "x", Value::Int(1));
        let mut g = Graph::new();
        assert_eq!(
            d.apply(&mut g),
            Err(DeltaError::UnknownNode(Oid::from_index(7)))
        );
    }

    #[test]
    fn unknown_edge_target_is_rejected() {
        let mut g = Graph::new();
        let n = g.add_node();
        let mut d = GraphDelta::new();
        d.add_edge(n, "x", Value::Node(Oid::from_index(9)));
        assert!(matches!(
            d.apply(&mut g),
            Err(DeltaError::UnknownNode(_))
        ));
    }

    #[test]
    fn missing_removals_are_rejected() {
        let mut g = Graph::new();
        let n = g.add_node();
        let mut d = GraphDelta::new();
        d.remove_edge(n, "nope", Value::Int(1));
        assert!(matches!(d.apply(&mut g), Err(DeltaError::MissingEdge { .. })));

        let mut d2 = GraphDelta::new();
        d2.uncollect("NoColl", Value::Int(1));
        assert!(matches!(
            d2.apply(&mut g),
            Err(DeltaError::MissingMember { .. })
        ));
    }

    #[test]
    fn validate_delta_tracks_intra_delta_effects() {
        let mut g = Graph::new();
        let a = g.add_named_node("a");
        // A refused delta is refused by both, and applies none of its ops.
        let check = |g: &mut Graph, d: &GraphDelta, ok: bool| {
            let before = (g.node_count(), g.edge_count(), g.collection_count());
            assert_eq!(d.validate(g).is_ok(), ok, "{:?}", d.ops());
            assert_eq!(d.apply(g).is_ok(), ok, "{:?}", d.ops());
            let after = (g.node_count(), g.edge_count(), g.collection_count());
            assert!(ok || after == before, "{:?}", d.ops());
        };

        // Add-then-remove within one delta is fine.
        let mut d = GraphDelta::new();
        d.add_edge(a, "x", Value::Int(1));
        d.remove_edge(a, "x", Value::Int(1));
        check(&mut g, &d, true);

        // Removing twice what was added once is not.
        let mut d = GraphDelta::new();
        d.add_edge(a, "y", Value::Int(1));
        d.remove_edge(a, "y", Value::Int(1));
        d.remove_edge(a, "y", Value::Int(1));
        check(&mut g, &d, false);

        // An edge from a node created earlier in the same delta is fine;
        // an edge to a node the delta never creates is not.
        let mut d = GraphDelta::new();
        d.add_node(Some("b")); // will become index 1
        d.add_edge(Oid::from_index(1), "p", Value::Int(2));
        check(&mut g, &d, true);
        let mut d = GraphDelta::new();
        d.add_edge(Oid::from_index(999), "p", Value::Int(3));
        check(&mut g, &d, false);

        // A named AddNode of a taken name creates no node, so an edge to
        // the oid after it dangles.
        let mut d = GraphDelta::new();
        d.add_node(Some("a"));
        d.add_edge(a, "p", Value::Node(Oid::from_index(2)));
        check(&mut g, &d, false);

        // Collect-then-uncollect in one delta; uncollect of a member that
        // was never collected fails.
        let mut d = GraphDelta::new();
        d.collect("C", Value::Node(a));
        d.uncollect("C", Value::Node(a));
        check(&mut g, &d, true);
        let mut d = GraphDelta::new();
        d.uncollect("C", Value::Int(77));
        check(&mut g, &d, false);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = GraphDelta::new();
        a.add_node(None);
        let mut b = GraphDelta::new();
        b.add_node(None);
        a.extend(b);
        assert_eq!(a.len(), 2);
    }
}
