//! Graph traversal utilities.
//!
//! Reachability over node-valued edges is what site-level integrity
//! constraints talk about ("all pages are reachable from the site's root",
//! §6.2), what the TextOnly copy query of §2.2 computes, and what the
//! dynamic-evaluation engine walks at click time. These helpers share one
//! efficient implementation: a BFS over a dense `Vec<bool>` visited set
//! keyed by oid index.

use crate::{Graph, Oid, Value};

/// A dense set of nodes keyed by oid index, produced by traversals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeSet {
    bits: Vec<bool>,
    len: usize,
}

impl NodeSet {
    /// An empty set sized for `graph`.
    pub fn new(graph: &Graph) -> Self {
        NodeSet {
            bits: vec![false; graph.node_count()],
            len: 0,
        }
    }

    /// Inserts a node; returns whether it was newly inserted.
    pub fn insert(&mut self, oid: Oid) -> bool {
        let slot = &mut self.bits[oid.index()];
        if *slot {
            false
        } else {
            *slot = true;
            self.len += 1;
            true
        }
    }

    /// Whether the set contains `oid`. Oids beyond the set's capacity (from
    /// nodes created after the set) are reported absent.
    pub fn contains(&self, oid: Oid) -> bool {
        self.bits.get(oid.index()).copied().unwrap_or(false)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates members in oid order.
    pub fn iter(&self) -> impl Iterator<Item = Oid> + '_ {
        self.bits
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| Oid::from_index(i))
    }
}

/// The set of nodes reachable from `roots` by following node-valued edges
/// (any label), including the roots themselves.
pub fn reachable(graph: &Graph, roots: &[Oid]) -> NodeSet {
    let mut seen = NodeSet::new(graph);
    let mut queue: Vec<Oid> = Vec::with_capacity(roots.len());
    for &r in roots {
        if seen.insert(r) {
            queue.push(r);
        }
    }
    while let Some(n) = queue.pop() {
        for e in graph.edges(n) {
            if let Value::Node(m) = e.to {
                if seen.insert(m) {
                    queue.push(m);
                }
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> (Graph, Vec<Oid>) {
        // a -> b -> c, d isolated
        let mut g = Graph::new();
        let a = g.add_named_node("a");
        let b = g.add_named_node("b");
        let c = g.add_named_node("c");
        let d = g.add_named_node("d");
        g.add_edge_str(a, "next", Value::Node(b));
        g.add_edge_str(b, "next", Value::Node(c));
        g.add_edge_str(c, "label", Value::string("leaf"));
        (g, vec![a, b, c, d])
    }

    #[test]
    fn reachable_includes_roots_and_descendants() {
        let (g, ns) = chain();
        let r = reachable(&g, &[ns[0]]);
        assert!(r.contains(ns[0]));
        assert!(r.contains(ns[1]));
        assert!(r.contains(ns[2]));
        assert!(!r.contains(ns[3]));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn reachable_handles_cycles() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge_str(a, "x", Value::Node(b));
        g.add_edge_str(b, "x", Value::Node(a));
        let r = reachable(&g, &[a]);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn multiple_roots_union() {
        let (g, ns) = chain();
        let r = reachable(&g, &[ns[2], ns[3]]);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn node_set_iter_in_oid_order() {
        let (g, ns) = chain();
        let r = reachable(&g, &[ns[0]]);
        let got: Vec<Oid> = r.iter().collect();
        assert_eq!(got, vec![ns[0], ns[1], ns[2]]);
    }

    #[test]
    fn node_set_tolerates_later_nodes() {
        let (mut g, ns) = chain();
        let r = reachable(&g, &[ns[0]]);
        let late = g.add_node();
        assert!(!r.contains(late));
    }
}
