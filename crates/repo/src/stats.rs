//! Cardinality statistics for the query optimizer: §2.1's schema index.
//!
//! The paper's repository keeps "the names of all the collections and
//! attributes in the graph" with their usage counts, and the optimizer
//! reads cardinalities from there. [`Stats`] is that index, as the STRUQL
//! planner reads it: per attribute, its edges and its distinct sources
//! and targets. Collection sizes and graph totals are the
//! [`Graph`]'s own counts, so the planner reads them there.
//!
//! [`Stats`] is one of a [`Database`](crate::Database)'s index families:
//! [`Stats::compute`] builds it in one pass on the first
//! [`Database::stats`](crate::Database::stats) probe, and every delta
//! keeps it exact from then on.

use std::collections::hash_map::Entry;
use std::hash::Hash;
use strudel_graph::hash::{FastMap, FastSet};
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
    /// Expected number of targets per bound source (fan-out); `0.0` for
    /// an unused label.
    pub fn fanout(&self) -> f64 {
        if self.distinct_sources == 0 {
            0.0
        } else {
            self.edges as f64 / self.distinct_sources as f64
        }
    }

    /// Expected number of sources per bound target (fan-in); `0.0` for an
    /// unused label.
    pub fn fanin(&self) -> f64 {
        if self.distinct_targets == 0 {
            0.0
        } else {
            self.edges as f64 / self.distinct_targets as f64
        }
    }
}

/// Per-label statistics of one graph.
///
/// Two tables are equal when their label rows are: the per-end counts
/// below are how a table is kept, not what it says.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Indexed by label, one row per label the graph has interned.
    labels: Vec<LabelStats>,
    /// The edges of each `(label, source)` and `(label, target)`, which
    /// tell a change whether it moves a distinct count. Counted from the
    /// graph by the first delta that maintains the table (see
    /// [`Stats::count_ends`]), so a table that no delta reaches never
    /// holds them.
    ends: Option<EndCounts>,
}

#[derive(Clone, Debug, Default)]
struct EndCounts {
    sources: FastMap<(Label, Oid), u32>,
    targets: FastMap<(Label, Value), u32>,
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
        Stats { labels, ends: None }
    }

    /// Statistics for one label; zeros when the label is unused.
    pub fn label(&self, label: Label) -> LabelStats {
        self.labels.get(label.index()).cloned().unwrap_or_default()
    }

    /// Counts the edges of every `(label, source)` and `(label, target)`
    /// of `graph`, the graph this table describes, unless they are
    /// counted already. A delta calls it before its first change.
    pub(crate) fn count_ends(&mut self, graph: &Graph) {
        if self.ends.is_some() {
            return;
        }
        let _span = strudel_trace::span("repo.index.build.stats_ends");
        let mut ends = EndCounts::default();
        for oid in graph.node_oids() {
            for e in graph.edges(oid) {
                count_in(&mut ends.sources, (e.label, oid));
                count_in(&mut ends.targets, (e.label, e.to.clone()));
            }
        }
        self.ends = Some(ends);
    }

    pub(crate) fn note_edge(&mut self, from: Oid, label: Label, to: &Value) {
        let ends = self.ends.as_mut().expect("ends counted before the delta");
        let new_source = count_in(&mut ends.sources, (label, from));
        let new_target = count_in(&mut ends.targets, (label, to.clone()));
        if self.labels.len() <= label.index() {
            self.labels.resize(label.index() + 1, LabelStats::default());
        }
        let l = &mut self.labels[label.index()];
        l.edges += 1;
        l.distinct_sources += usize::from(new_source);
        l.distinct_targets += usize::from(new_target);
    }

    pub(crate) fn forget_edge(&mut self, from: Oid, label: Label, to: &Value) {
        let ends = self.ends.as_mut().expect("ends counted before the delta");
        let last_source = count_out(&mut ends.sources, (label, from));
        let last_target = count_out(&mut ends.targets, (label, to.clone()));
        let l = &mut self.labels[label.index()];
        l.edges -= 1;
        l.distinct_sources -= usize::from(last_source);
        l.distinct_targets -= usize::from(last_target);
    }
}

impl PartialEq for Stats {
    fn eq(&self, other: &Self) -> bool {
        self.labels == other.labels
    }
}

/// One more edge at `key`; true when it is the key's first.
fn count_in<K: Hash + Eq>(counts: &mut FastMap<K, u32>, key: K) -> bool {
    let c = counts.entry(key).or_insert(0);
    *c += 1;
    *c == 1
}

/// One edge fewer at `key`, which has one; true when it was the last.
fn count_out<K: Hash + Eq>(counts: &mut FastMap<K, u32>, key: K) -> bool {
    let Entry::Occupied(mut c) = counts.entry(key) else {
        unreachable!("a removed edge was counted");
    };
    *c.get_mut() -= 1;
    if *c.get() == 0 {
        c.remove();
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Database, IndexLevel};
    use strudel_graph::GraphDelta;

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

    /// Maintains through `db`'s deltas, checking after each that every
    /// label reads as a fresh `compute` of the graph.
    fn apply(db: &mut Database, record: impl FnOnce(&mut GraphDelta)) {
        let mut d = GraphDelta::new();
        record(&mut d);
        db.apply_delta(&d).unwrap();
        assert_eq!(db.stats(), &Stats::compute(db.graph()), "{:?}", d.ops());
    }

    /// Collection sizes and totals are the graph's own counts: a table
    /// holds none, so membership moves none of its rows.
    #[test]
    fn collection_sizes_and_totals() {
        let mut db = Database::new(IndexLevel::Full);
        apply(&mut db, |d| {
            d.add_node(None);
            d.add_edge(Oid::from_index(0), "x", Value::Int(1));
        });
        let before = db.stats().clone();
        apply(&mut db, |d| d.collect("C", Value::Node(Oid::from_index(0))));
        assert_eq!(db.stats(), &before);
        let g = db.graph();
        assert_eq!(g.members_str("C").len(), 1);
        assert_eq!((g.node_count(), g.edge_count()), (1, 1));
    }

    /// A source (target) counts for a label from its first edge with
    /// that label until its last one goes; a delta may intern the label.
    #[test]
    fn a_delta_moves_distinct_counts_at_first_and_last_edges() {
        let mut db = Database::new(IndexLevel::None);
        apply(&mut db, |d| {
            d.add_node(None);
            d.add_node(None);
        });
        let (a, b) = (Oid::from_index(0), Oid::from_index(1));
        assert!(
            db.stats().ends.is_none(),
            "the probe computes; a delta counts"
        );
        let year = |db: &Database| db.stats().label(db.graph().label("year").unwrap());
        let row = |edges, distinct_sources, distinct_targets| LabelStats {
            edges,
            distinct_sources,
            distinct_targets,
        };
        apply(&mut db, |d| {
            d.add_edge(a, "year", Value::Int(1998));
            d.add_edge(b, "year", Value::Int(1998));
        });
        assert_eq!(year(&db), row(2, 2, 1));
        assert!(db.stats().ends.is_some());
        apply(&mut db, |d| d.add_edge(a, "year", Value::Int(1997)));
        assert_eq!(year(&db), row(3, 2, 2));
        apply(&mut db, |d| d.remove_edge(a, "year", Value::Int(1998)));
        assert_eq!(year(&db), row(2, 2, 2));
        apply(&mut db, |d| d.remove_edge(b, "year", Value::Int(1998)));
        assert_eq!(year(&db), row(1, 1, 1));
    }

    #[test]
    fn forgetting_a_label_s_last_edge_zeroes_its_row() {
        let mut db = Database::new(IndexLevel::Full);
        apply(&mut db, |d| {
            d.add_node(None);
            d.add_edge(Oid::from_index(0), "x", Value::Int(1));
        });
        let _ = db.stats();
        apply(&mut db, |d| {
            d.remove_edge(Oid::from_index(0), "x", Value::Int(1))
        });
        let x = db.graph().label("x").unwrap();
        assert_eq!(db.stats().label(x), LabelStats::default());
    }

    /// `compute` against a brute force over `BTreeSet`s, per label, on
    /// seeded graphs with repeated edges, several labels on one node,
    /// equal strings in distinct `Arc`s, node, int and float targets, and
    /// interned labels that carry no edge.
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
