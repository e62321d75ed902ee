//! Seeded randomized testing of differential plan maintenance.
//!
//! The property: for a random where-clause over a random corpus, holding
//! the clause's bindings relation as count-annotated rows and applying
//! the signed rows `delta_rows` produces for a random mixed
//! insert/retract delta must yield exactly the relation a from-scratch
//! evaluation computes on the post-delta database — same rows, same
//! multiplicities. Clauses include Kleene closures (so retractions must
//! cancel paths exactly), negation (so the diff must handle
//! non-monotonicity), arc variables, and comparisons; deltas mix edge
//! inserts, edge retractions, membership changes, brand-new nodes, and
//! edges inserted and retracted by the same delta. The unseeded chains
//! hold `delta_rows` — the fact-localized form every consumer projects
//! from — to the same multiset difference. The seeded chains hold it to
//! the *routing contract* the click-time engine patches cached pages by:
//! grouped by the value of a seed variable and re-laid seeds-first, its
//! rows are exactly the diff of the clause evaluated with that seed
//! (`diff_where` and `apply_diff`, the former product path, live on here
//! as the oracle). Every chain also splits the diff as the click engine
//! does — `old_half` on one database, the delta applied to that database
//! in place, `new_half` on it — and holds the result to the one-shot
//! `delta_rows` over two databases and to `eval(new) − eval(old)`; the
//! tagged chains add a condition on a label the corpus lacks, so the
//! first delta of every case interns it. Everything reproduces from its
//! seed.

use std::collections::{HashMap, HashSet};

use strudel_graph::{DeltaOp, Graph, GraphDelta, Oid, Value};
use strudel_prng::{Rng, SeedableRng, SmallRng};
use strudel_repo::{Database, IndexLevel};
use strudel_struql::{delta_rows, old_half, where_vars, Condition, Evaluator, SignedRow};

/// A random corpus: `n` nodes in collection `Items`, each with a `cat`
/// string, a `val` int, and 0–2 `link` edges to earlier nodes (so Kleene
/// cones are acyclic and bounded); a `next` chain threads every node.
fn corpus(rng: &mut SmallRng, n: usize) -> Graph {
    let mut g = Graph::new();
    let cats = ["catA", "catB", "catC", "catD"];
    let mut nodes = Vec::with_capacity(n);
    for i in 0..n {
        let node = g.add_named_node(&format!("item{i}"));
        g.collect_str("Items", node);
        g.add_edge_str(
            node,
            "cat",
            Value::string(cats[rng.gen_range(0..cats.len())]),
        );
        g.add_edge_str(node, "val", Value::Int(rng.gen_range(0..100i64)));
        if i > 0 {
            g.add_edge_str(nodes[i - 1], "next", Value::Node(node));
            for _ in 0..rng.gen_range(0..=2usize) {
                let back = rng.gen_range(0..i);
                g.add_edge_str(node, "link", Value::Node(nodes[back]));
            }
        }
        nodes.push(node);
    }
    g
}

/// One random where-clause as STRUQL text (see `differential.rs`); at
/// most one general-regex expansion keeps relation sizes testable.
fn random_clause(rng: &mut SmallRng) -> String {
    let mut conds = vec!["Items(x0)".to_string()];
    let mut node_vars = 1usize;
    let mut fresh = 1usize;
    let mut regexes = 0usize;
    let extra = rng.gen_range(2..=4usize);
    for _ in 0..extra {
        let xi = rng.gen_range(0..node_vars);
        match rng.gen_range(0..8u32) {
            0 => {
                conds.push(format!("x{xi} -> \"link\" -> x{node_vars}"));
                node_vars += 1;
            }
            1 => {
                conds.push(format!("x{xi} -> \"next\" -> x{node_vars}"));
                node_vars += 1;
            }
            2 => {
                conds.push(format!("x{xi} -> l{fresh} -> y{fresh}"));
                fresh += 1;
            }
            3 if regexes == 0 => {
                conds.push(format!("x{xi} -> \"link\"* -> x{node_vars}"));
                node_vars += 1;
                regexes += 1;
            }
            4 if regexes == 0 => {
                conds.push(format!("x{xi} -> \"next\" . \"link\"? -> x{node_vars}"));
                node_vars += 1;
                regexes += 1;
            }
            5 => {
                let k = rng.gen_range(20..80i64);
                conds.push(format!("x{xi} -> \"val\" -> v{fresh}, v{fresh} >= {k}"));
                fresh += 1;
            }
            6 => {
                let cats = ["catA", "catB", "catC", "catD"];
                let c = cats[rng.gen_range(0..cats.len())];
                conds.push(format!("x{xi} -> \"cat\" -> \"{c}\""));
            }
            _ => {
                let inner = if rng.gen_bool(0.5) {
                    format!("x{xi} -> \"link\"* -> x{xi}")
                } else {
                    format!("x{xi} -> \"link\" -> z{fresh}")
                };
                fresh += 1;
                conds.push(format!("not({inner})"));
            }
        }
    }
    format!("where {} create P(x0)", conds.join(", "))
}

/// A random, always-applicable mixed delta over the current graph:
/// new nodes with edges and membership, new `link`/`cat`/`val` edges on
/// existing nodes, retractions of existing edges (including `link` edges
/// feeding Kleene closures), membership removals, and a new node whose
/// `link` edge the same delta inserts and removes again.
fn random_delta(rng: &mut SmallRng, g: &Graph) -> GraphDelta {
    let mut delta = GraphDelta::new();
    let mut next_oid = g.node_count();
    let mut removed: HashSet<(Oid, String, String)> = HashSet::new();
    let mut uncollected: HashSet<String> = HashSet::new();
    for _ in 0..rng.gen_range(1..=4usize) {
        match rng.gen_range(0..6u32) {
            0 => {
                // A brand-new item linked into the graph.
                let oid = Oid::from_index(next_oid);
                next_oid += 1;
                delta.add_node(None);
                delta.add_edge(oid, "cat", Value::string("catA"));
                delta.add_edge(oid, "val", Value::Int(rng.gen_range(0..100i64)));
                let back = Oid::from_index(rng.gen_range(0..g.node_count()));
                delta.add_edge(oid, "link", Value::Node(back));
                delta.collect("Items", Value::Node(oid));
            }
            1 => {
                // A new link edge between existing nodes.
                let from = Oid::from_index(rng.gen_range(0..g.node_count()));
                let to = Oid::from_index(rng.gen_range(0..g.node_count()));
                delta.add_edge(from, "link", Value::Node(to));
            }
            2 => {
                // A new attribute value on an existing node.
                let oid = Oid::from_index(rng.gen_range(0..g.node_count()));
                delta.add_edge(oid, "val", Value::Int(rng.gen_range(0..100i64)));
            }
            3 => {
                // Retract one existing edge (each at most once per delta).
                let mut candidates = Vec::new();
                for idx in 0..g.node_count() {
                    let oid = Oid::from_index(idx);
                    for e in g.edges(oid) {
                        candidates.push((oid, g.label_name(e.label).to_string(), e.to.clone()));
                    }
                }
                if candidates.is_empty() {
                    continue;
                }
                let (oid, label, to) = strudel_prng::choose(rng, &candidates).clone();
                if removed.insert((oid, label.clone(), format!("{to:?}"))) {
                    delta.remove_edge(oid, &label, to);
                }
            }
            4 => {
                // A new member whose only link is retracted again by the
                // same delta: the retraction names an oid the pre-delta
                // graph never issued.
                let oid = Oid::from_index(next_oid);
                next_oid += 1;
                let back = Oid::from_index(rng.gen_range(0..g.node_count()));
                delta.add_node(None);
                delta.add_edge(oid, "link", Value::Node(back));
                delta.collect("Items", Value::Node(oid));
                delta.remove_edge(oid, "link", Value::Node(back));
            }
            _ => {
                // Drop one item from the collection.
                let members = g.members_str("Items");
                if members.is_empty() {
                    continue;
                }
                let member = strudel_prng::choose(rng, members).clone();
                if uncollected.insert(format!("{member:?}")) {
                    delta.uncollect("Items", member);
                }
            }
        }
    }
    delta
}

/// Coalesces plain rows into count-annotated form.
fn count_rows(rows: &[Vec<Option<Value>>]) -> Vec<SignedRow> {
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut out: Vec<SignedRow> = Vec::new();
    for row in rows {
        let key = format!("{row:?}");
        match index.get(&key) {
            Some(&i) => out[i].1 += 1,
            None => {
                index.insert(key, out.len());
                out.push((row.clone(), 1));
            }
        }
    }
    out
}

/// Oracle: applies a coalesced signed diff to a counted row store —
/// positive counts increment (appending unseen rows in diff order),
/// negative counts decrement and drop rows reaching zero. `false` when a
/// retraction targets a row the store does not hold often enough.
fn apply_diff(store: &mut Vec<SignedRow>, diff: &[SignedRow]) -> bool {
    for (row, count) in diff {
        match store.iter_mut().find(|(r, _)| r == row) {
            Some(entry) => {
                entry.1 += count;
                if entry.1 < 0 {
                    return false;
                }
            }
            None => {
                if *count < 0 {
                    return false;
                }
                store.push((row.clone(), *count));
            }
        }
    }
    store.retain(|(_, c)| *c != 0);
    true
}

/// Oracle: the diff of the clause evaluated with `seed` on both sides. A
/// seed naming a node the old graph never issued has an empty old side.
fn diff_where(
    old_db: &Database,
    new_db: &Database,
    conds: &[Condition],
    seed: &[(String, Value)],
) -> Vec<SignedRow> {
    let in_old = seed
        .iter()
        .all(|(_, v)| v.as_node().map_or(true, |n| old_db.graph().contains_node(n)));
    let old = if in_old {
        count_rows(&full_eval(old_db, conds, seed))
    } else {
        Vec::new()
    };
    multiset_difference(&count_rows(&full_eval(new_db, conds, seed)), &old)
}

/// A multiset fingerprint: sorted `row → count` lines.
fn fingerprint(rows: &[SignedRow]) -> Vec<String> {
    let mut keys: Vec<String> = rows.iter().map(|(r, n)| format!("{r:?} x{n}")).collect();
    keys.sort_unstable();
    keys
}

/// `new − old` as signed rows, zero counts dropped.
fn multiset_difference(new: &[SignedRow], old: &[SignedRow]) -> Vec<SignedRow> {
    let mut diff: Vec<SignedRow> = new.to_vec();
    for (row, n) in old {
        match diff.iter_mut().find(|(r, _)| r == row) {
            Some(entry) => entry.1 -= n,
            None => diff.push((row.clone(), -n)),
        }
    }
    diff.retain(|(_, n)| *n != 0);
    diff
}

fn full_eval(
    db: &Database,
    conds: &[Condition],
    seed: &[(String, Value)],
) -> Vec<Vec<Option<Value>>> {
    let (_, rows) = Evaluator::new(db).eval_where_bindings(conds, seed).unwrap();
    rows
}

/// How often the split arm met each case it must cover: a delta that
/// interns a label, one with a fact on a node the pre-delta graph never
/// issued, and one touching a multi-step path, which no fact localizes.
#[derive(Default)]
struct Coverage {
    new_label: usize,
    fresh_node: usize,
    unlocalized: usize,
}

/// Drives one (clause, seed, rounds) maintenance chain: stored rows are
/// carried across every round, diffed, and compared to a from-scratch
/// evaluation on the post-delta database. `tagged` adds a `tag` condition
/// to the clause and a `tag` edge to every delta.
fn run_chain(seed: u64, seeded: bool, tagged: bool) -> Coverage {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut graph = corpus(&mut rng, 60);
    let mut coverage = Coverage::default();

    for case in 0..4 {
        let mut text = random_clause(&mut rng);
        if tagged {
            text = text.replacen(" create", ", x0 -> \"tag\" -> tg create", 1);
        }
        let program =
            strudel_struql::parse(&text).unwrap_or_else(|e| panic!("case {case}: {text}\n{e}"));
        let conds = &program.blocks[0].where_;
        let eval_seed: Vec<(String, Value)> = if seeded {
            // Bind x0 to one item, click-time style.
            let item = rng.gen_range(0..graph.node_count().min(60));
            let node = graph.node_by_name(&format!("item{item}")).unwrap();
            vec![("x0".to_string(), Value::Node(node))]
        } else {
            Vec::new()
        };

        let mut g = graph.clone();
        let mut old_db = Database::from_graph(g.clone(), IndexLevel::Full);
        // The click engine's one database, changed in place every round.
        let mut live = Database::from_graph(g.clone(), IndexLevel::Full);
        let mut stored = count_rows(&full_eval(&old_db, conds, &eval_seed));

        for round in 0..6 {
            let mut delta = random_delta(&mut rng, &g);
            if tagged {
                let node = Oid::from_index(rng.gen_range(0..g.node_count()));
                delta.add_edge(node, "tag", Value::string(format!("t{round}").as_str()));
            }
            let labels: HashSet<&str> = delta.edge_labels().collect();
            coverage.new_label += labels.iter().any(|l| g.label(l).is_none()) as usize;
            coverage.fresh_node += delta.ops().iter().any(|op| {
                matches!(op, DeltaOp::AddEdge { from, .. } | DeltaOp::RemoveEdge { from, .. }
                    if !g.contains_node(*from))
            }) as usize;
            coverage.unlocalized += ((text.contains("\"link\"*") && labels.contains("link"))
                || (text.contains("\"next\" . \"link\"?")
                    && (labels.contains("link") || labels.contains("next"))))
                as usize;
            let split_old = old_half(&Evaluator::new(&live), conds, &delta)
                .unwrap_or_else(|e| panic!("seed {seed} case {case} round {round}: {e}"));
            live.apply_delta(&delta)
                .expect("generated deltas always apply");
            let split = split_old
                .new_half(&Evaluator::new(&live), conds)
                .unwrap_or_else(|e| panic!("seed {seed} case {case} round {round}: {e}"));
            delta.apply(&mut g).expect("generated deltas always apply");
            let new_db = Database::from_graph(g.clone(), IndexLevel::Full);

            let old_ev = Evaluator::new(&old_db);
            let new_ev = Evaluator::new(&new_db);
            let localized = delta_rows(&old_ev, &new_ev, conds, &delta)
                .unwrap_or_else(|e| panic!("seed {seed} case {case} round {round}: {e}"));
            let context = || {
                format!(
                    "seed {seed} case {case} round {round}\nclause: {text}\ndelta: {:?}",
                    delta.ops()
                )
            };
            assert_eq!(split.vars, localized.vars, "{}", context());
            assert_eq!(
                fingerprint(&split.rows),
                fingerprint(&localized.rows),
                "the diff split around an in-place apply is not the one-shot diff: {}",
                context()
            );
            assert_eq!(
                fingerprint(&split.rows),
                fingerprint(&multiset_difference(
                    &count_rows(&full_eval(&new_db, conds, &[])),
                    &count_rows(&full_eval(&old_db, conds, &[])),
                )),
                "the split diff is not eval(new) − eval(old): {}",
                context()
            );
            let fresh = count_rows(&full_eval(&new_db, conds, &eval_seed));
            if seeded {
                // Route every row to the seed it agrees with, re-laid
                // seeds-first: each group is that seed's diff, and a seed
                // no row routes to has an empty one.
                let layout = where_vars(conds, &["x0".to_string()]);
                let slots: Vec<usize> = layout
                    .iter()
                    .map(|v| localized.vars.iter().position(|u| u == v).unwrap())
                    .collect();
                let mut routed: HashMap<Value, Vec<SignedRow>> = HashMap::new();
                for (row, n) in &localized.rows {
                    let row: Vec<Option<Value>> = slots.iter().map(|&i| row[i].clone()).collect();
                    let key = row[0].clone().expect("x0 is bound by Items(x0)");
                    routed.entry(key).or_default().push((row, *n));
                }
                for idx in 0..g.node_count() {
                    let node = Value::Node(Oid::from_index(idx));
                    let one = [("x0".to_string(), node.clone())];
                    let want = diff_where(&old_db, &new_db, conds, &one);
                    let got = routed.remove(&node).unwrap_or_default();
                    assert_eq!(
                        fingerprint(&got),
                        fingerprint(&want),
                        "rows routed to {node:?} are not its seeded diff: {}",
                        context()
                    );
                    if node == eval_seed[0].1 {
                        assert!(apply_diff(&mut stored, &got), "count underflow: {}", context());
                    }
                }
                assert!(routed.is_empty(), "rows routed to no node: {}", context());
            } else {
                let before = stored.clone();
                assert!(
                    apply_diff(&mut stored, &localized.rows),
                    "count underflow: {}",
                    context()
                );
                assert_eq!(
                    fingerprint(&localized.rows),
                    fingerprint(&multiset_difference(&fresh, &before)),
                    "delta_rows is not eval(new) − eval(old): {}",
                    context()
                );
            }
            assert_eq!(
                fingerprint(&stored),
                fingerprint(&fresh),
                "maintained relation diverged from scratch: {}",
                context()
            );
            old_db = new_db;
        }
        // Next case starts from the graph as originally generated.
        graph = corpus(&mut rng, 60);
    }
    coverage
}

/// Runs the chains of `seeds` and checks that the split arm met every
/// case it must cover (a new label only where the chains are tagged).
fn run_chains(seeds: impl Iterator<Item = u64>, seeded: bool, tagged: bool) {
    let mut total = Coverage::default();
    for seed in seeds {
        let c = run_chain(seed, seeded, tagged);
        total.new_label += c.new_label;
        total.fresh_node += c.fresh_node;
        total.unlocalized += c.unlocalized;
    }
    assert!(total.fresh_node > 0, "no delta had a fact on a fresh node");
    assert!(total.unlocalized > 0, "no delta touched a multi-step path");
    assert_eq!(total.new_label > 0, tagged, "deltas interning a label");
}

#[test]
fn maintained_relations_match_from_scratch_unseeded() {
    run_chains((0..4u64).map(|s| 0x_d1ff_0000 + s), false, false);
}

#[test]
fn maintained_relations_match_from_scratch_seeded() {
    run_chains((0..4u64).map(|s| 0x_5eed_0000 + s), true, false);
}

#[test]
fn a_split_diff_sees_labels_its_delta_interns() {
    run_chains((0..2u64).map(|s| 0x_7a90_0000 + s), false, true);
    run_chains((0..2u64).map(|s| 0x_7a91_0000 + s), true, true);
}
