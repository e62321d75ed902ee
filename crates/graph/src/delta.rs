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

use crate::{Graph, Oid, Value};
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

    /// Applies the delta to `graph`, returning the oids of nodes it
    /// created. Application stops at the first failing op, leaving the
    /// prior ops applied (the caller owns atomicity, e.g. by applying to a
    /// clone or by replaying a WAL into a fresh graph).
    pub fn apply(&self, graph: &mut Graph) -> Result<Vec<Oid>, DeltaError> {
        let mut created = Vec::new();
        let check = |graph: &Graph, v: &Value| -> Result<(), DeltaError> {
            if let Value::Node(o) = v {
                if !graph.contains_node(*o) {
                    return Err(DeltaError::UnknownNode(*o));
                }
            }
            Ok(())
        };
        for op in &self.ops {
            match op {
                DeltaOp::AddNode { name } => {
                    let oid = match name {
                        Some(n) => graph.add_named_node(n),
                        None => graph.add_node(),
                    };
                    created.push(oid);
                }
                DeltaOp::AddEdge { from, label, to } => {
                    if !graph.contains_node(*from) {
                        return Err(DeltaError::UnknownNode(*from));
                    }
                    check(graph, to)?;
                    graph.add_edge_str(*from, label, to.clone());
                }
                DeltaOp::RemoveEdge { from, label, to } => {
                    if !graph.contains_node(*from) {
                        return Err(DeltaError::UnknownNode(*from));
                    }
                    let l = graph.label(label).ok_or_else(|| DeltaError::MissingEdge {
                        from: *from,
                        label: label.clone(),
                    })?;
                    if !graph.remove_edge(*from, l, to) {
                        return Err(DeltaError::MissingEdge {
                            from: *from,
                            label: label.clone(),
                        });
                    }
                }
                DeltaOp::Collect { collection, member } => {
                    check(graph, member)?;
                    graph.collect_str(collection, member.clone());
                }
                DeltaOp::Uncollect { collection, member } => {
                    let cid = graph.collection_id(collection).ok_or_else(|| {
                        DeltaError::MissingMember {
                            collection: collection.clone(),
                        }
                    })?;
                    if !graph.uncollect(cid, member) {
                        return Err(DeltaError::MissingMember {
                            collection: collection.clone(),
                        });
                    }
                }
            }
        }
        Ok(created)
    }
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
    fn extend_concatenates() {
        let mut a = GraphDelta::new();
        a.add_node(None);
        let mut b = GraphDelta::new();
        b.add_node(None);
        a.extend(b);
        assert_eq!(a.len(), 2);
    }
}
