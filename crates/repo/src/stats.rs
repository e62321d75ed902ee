//! Cardinality statistics for the query optimizer.
//!
//! The traditional way to pick join orders is schema-derived statistics;
//! with no schema, Strudel derives them from the indexes. [`Stats`] is the
//! read-only summary the STRUQL planner consumes: per-attribute edge
//! counts, distinct source/target counts (for selectivity), collection
//! cardinalities, and graph totals.

use std::collections::HashMap;
use strudel_graph::hash::FastSet;
use strudel_graph::{Graph, Label, Oid, Value};

/// Statistics for one attribute label.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LabelStats {
    /// Total edges with this label.
    pub edges: usize,
    /// Distinct source nodes.
    pub distinct_sources: usize,
    /// Distinct target values.
    pub distinct_targets: usize,
}

impl LabelStats {
    /// Expected number of targets per bound source (fan-out), at least 1.
    pub fn fanout(&self) -> f64 {
        if self.distinct_sources == 0 {
            0.0
        } else {
            self.edges as f64 / self.distinct_sources as f64
        }
    }

    /// Expected number of sources per bound target (fan-in), at least 1.
    pub fn fanin(&self) -> f64 {
        if self.distinct_targets == 0 {
            0.0
        } else {
            self.edges as f64 / self.distinct_targets as f64
        }
    }
}

/// Graph-wide statistics snapshot.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Indexed by label; labels interned after the scan read as unused.
    labels: Vec<LabelStats>,
    collections: HashMap<String, usize>,
    /// Total node count.
    pub nodes: usize,
    /// Total edge count.
    pub edges: usize,
}

impl Stats {
    /// Computes statistics by scanning `graph`.
    ///
    /// The counts are exact, not estimates: the planner orders a block's
    /// conditions by them, that order is the order rows reach the
    /// construction stage, and that order is the order Skolem nodes are
    /// minted and pages named. So a scan that approximated a count could
    /// rename a page.
    ///
    /// One counting pass needs no set for sources: a node's edges are
    /// contiguous, so a source is new to a label exactly when the label
    /// last saw another node. Its edge counts then presize each label's
    /// set of borrowed targets, which never rehashes a target.
    pub fn compute(graph: &Graph) -> Self {
        let mut labels = vec![LabelStats::default(); graph.labels().len()];
        let mut last_source: Vec<Option<Oid>> = vec![None; labels.len()];
        for oid in graph.node_oids() {
            for e in graph.edges(oid) {
                let l = &mut labels[e.label.index()];
                l.edges += 1;
                let last = &mut last_source[e.label.index()];
                if *last != Some(oid) {
                    *last = Some(oid);
                    l.distinct_sources += 1;
                }
            }
        }
        let mut targets: Vec<FastSet<&Value>> = labels
            .iter()
            .map(|l| FastSet::with_capacity_and_hasher(l.edges, Default::default()))
            .collect();
        for oid in graph.node_oids() {
            for e in graph.edges(oid) {
                targets[e.label.index()].insert(&e.to);
            }
        }
        for (l, t) in labels.iter_mut().zip(&targets) {
            l.distinct_targets = t.len();
        }
        let collections = graph
            .collections()
            .map(|(cid, name)| (name.to_owned(), graph.members(cid).len()))
            .collect();
        Stats {
            labels,
            collections,
            nodes: graph.node_count(),
            edges: graph.edge_count(),
        }
    }

    /// Statistics for one label; zeros when the label is unused.
    pub fn label(&self, label: Label) -> LabelStats {
        self.labels.get(label.index()).cloned().unwrap_or_default()
    }

    /// Cardinality of a collection by name.
    pub fn collection_size(&self, name: &str) -> usize {
        self.collections.get(name).copied().unwrap_or(0)
    }

    /// Average out-degree of nodes in the graph, at least a small epsilon.
    pub fn avg_degree(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.edges as f64 / self.nodes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computes_per_label_stats() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge_str(a, "year", Value::Int(1998));
        g.add_edge_str(b, "year", Value::Int(1998));
        g.add_edge_str(b, "year", Value::Int(1997));
        let s = Stats::compute(&g);
        let year = g.label("year").unwrap();
        let ls = s.label(year);
        assert_eq!(ls.edges, 3);
        assert_eq!(ls.distinct_sources, 2);
        assert_eq!(ls.distinct_targets, 2);
        assert!((ls.fanout() - 1.5).abs() < 1e-9);
        assert!((ls.fanin() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn collection_sizes_and_totals() {
        let mut g = Graph::new();
        let a = g.add_node();
        g.collect_str("C", a);
        let s = Stats::compute(&g);
        assert_eq!(s.collection_size("C"), 1);
        assert_eq!(s.collection_size("D"), 0);
        assert_eq!(s.nodes, 1);
        assert_eq!(s.edges, 0);
        assert_eq!(s.avg_degree(), 0.0);
    }

    /// `compute` against a brute force over `BTreeSet`s, per label and
    /// per collection, on seeded graphs with repeated edges, several
    /// labels on one node, equal strings in distinct `Arc`s, node, int
    /// and float targets, and interned labels that carry no edge.
    #[test]
    fn compute_equals_brute_force_on_random_graphs() {
        use std::collections::BTreeSet;
        use strudel_prng::{choose, Rng, SeedableRng, SmallRng};

        const LABELS: [&str; 5] = ["p", "q", "r", "unused", "s"];
        for seed in 0..64u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut g = Graph::new();
            let labels = LABELS.map(|l| g.intern_label(l));
            let nodes: Vec<Oid> = (0..rng.gen_range(0..12usize))
                .map(|_| g.add_node())
                .collect();
            for _ in 0..rng.gen_range(0..80usize) {
                if nodes.is_empty() {
                    break;
                }
                let from = *choose(&mut rng, &nodes);
                let to = match rng.gen_range(0..5u32) {
                    0 => Value::Node(*choose(&mut rng, &nodes)),
                    1 => Value::Int(rng.gen_range(-2..3i64)),
                    2 => Value::Float(*choose(&mut rng, &[0.0, -0.0, 1.5, f64::NAN])),
                    // A fresh `Arc` per edge: equal text, distinct pointers.
                    _ => Value::string(String::from(*choose(&mut rng, &["x", "y", "xy"]))),
                };
                let label = *choose(&mut rng, &labels[..3]);
                // Repeats: the same edge again, or the same target under
                // another label on the same node.
                let copies = rng.gen_range(1..3usize);
                for _ in 0..copies {
                    g.add_edge(from, label, to.clone());
                }
                if rng.gen_bool(0.2) {
                    g.add_edge(from, labels[4], to);
                }
                if rng.gen_bool(0.3) {
                    let collection = *choose(&mut rng, &["C", "D"]);
                    g.collect_str(collection, from);
                }
            }

            let s = Stats::compute(&g);
            for label in labels {
                let mut edges = 0;
                let mut sources = BTreeSet::new();
                let mut targets = BTreeSet::new();
                for oid in g.node_oids() {
                    for e in g.edges(oid).iter().filter(|e| e.label == label) {
                        edges += 1;
                        sources.insert(oid.index());
                        targets.insert(e.to.clone());
                    }
                }
                let want = LabelStats {
                    edges,
                    distinct_sources: sources.len(),
                    distinct_targets: targets.len(),
                };
                assert_eq!(s.label(label), want, "seed {seed}, label {label:?}");
            }
            for name in ["C", "D"] {
                let members: BTreeSet<Value> = g.members_str(name).iter().cloned().collect();
                assert_eq!(
                    s.collection_size(name),
                    members.len(),
                    "seed {seed}, {name}"
                );
            }
            assert_eq!((s.nodes, s.edges), (g.node_count(), g.edge_count()));
        }
    }

    #[test]
    fn unused_label_reports_zeros() {
        let mut g = Graph::new();
        let l = g.intern_label("ghost");
        let s = Stats::compute(&g);
        assert_eq!(s.label(l), LabelStats::default());
        assert_eq!(s.label(l).fanout(), 0.0);
    }
}
