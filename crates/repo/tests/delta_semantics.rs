//! One delta semantics, three appliers: `GraphDelta::apply` on a graph,
//! `Database::apply_delta` and `PagedRepo::apply_delta` must accept and
//! reject the same deltas with the same `DeltaError`, and a rejected
//! delta must change nothing anywhere.
//!
//! A seeded generator draws short deltas over a small graph, legal and
//! illegal mixed: removing an absent edge, uncollecting a non-member or
//! from an unknown collection, an edge to an oid the delta only creates
//! later, a named `AddNode` of a name the graph already has, add then
//! remove and collect then uncollect in one delta. After every delta the
//! three graphs are compared by their `snapshot` bytes, the built index
//! families of a database at each index level with a fresh
//! `Database::from_graph` over its graph (the statistics with a fresh
//! `Stats::compute`), and, on a rejection, the WAL's length with its
//! length before.
//! At the end the store is reopened, and both the reopened head and
//! `replay_committed` must byte-equal the graph the deltas built.

use std::path::{Path, PathBuf};
use strudel_graph::{DeltaError, Graph, GraphDelta, Oid, Value};
use strudel_prng::{Rng, SeedableRng, SmallRng};
use strudel_repo::{
    replay_committed, snapshot, Database, IndexLevel, PagedRepo, PagerConfig, RepoError, Stats,
};

const LABELS: [&str; 3] = ["p", "q", "r"];
const COLLECTIONS: [&str; 2] = ["C", "D"];
const NAMES: [&str; 4] = ["n0", "n1", "fresh", "other"];
const DELTAS: usize = 250;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("strudel-delta-sem-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn bytes(g: &Graph) -> Vec<u8> {
    let mut out = Vec::new();
    snapshot::save_graph(g, &mut out).expect("encode graph");
    out
}

fn wal_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("pager.wal")).expect("wal").len()
}

/// An atomic value, or a node below `nodes`.
fn value(rng: &mut SmallRng, nodes: usize) -> Value {
    match rng.gen_range(0..4u32) {
        0 => Value::Int(rng.gen_range(0..3i64)),
        1 => Value::string(["x", "y"][rng.gen_range(0..2usize)]),
        _ => Value::Node(Oid::from_index(rng.gen_range(0..nodes))),
    }
}

/// A delta of one to three parts against `g`, each part one of the cases
/// the module doc names or a plain op.
fn random_delta(rng: &mut SmallRng, g: &Graph) -> GraphDelta {
    let mut d = GraphDelta::new();
    // Nodes the graph has plus the ones this delta has asked for so far
    // (an upper bound: a named `AddNode` of a taken name creates none).
    let mut nodes = g.node_count();
    for _ in 0..rng.gen_range(1..=3usize) {
        let from = Oid::from_index(rng.gen_range(0..nodes));
        let label = LABELS[rng.gen_range(0..LABELS.len())];
        let coll = COLLECTIONS[rng.gen_range(0..COLLECTIONS.len())];
        match rng.gen_range(0..12u32) {
            0 => {
                let name = rng
                    .gen_bool(0.6)
                    .then(|| NAMES[rng.gen_range(0..NAMES.len())]);
                d.add_node(name);
                nodes += 1;
            }
            1 | 2 => d.add_edge(from, label, value(rng, nodes)),
            // Remove an edge the graph has, when the node drawn has one.
            3 => {
                let src = Oid::from_index(rng.gen_range(0..g.node_count()));
                match g.edges(src) {
                    [] => d.remove_edge(src, label, value(rng, nodes)),
                    edges => {
                        let e = &edges[rng.gen_range(0..edges.len())];
                        d.remove_edge(src, g.label_name(e.label), e.to.clone());
                    }
                }
            }
            // Most likely an absent edge.
            4 => d.remove_edge(from, label, value(rng, nodes)),
            5 => d.collect(coll, value(rng, nodes)),
            // A member, a non-member, or an unknown collection.
            6 => match (rng.gen_range(0..3u32), g.members_str(coll)) {
                (0, [first, ..]) => d.uncollect(coll, first.clone()),
                (1, _) => d.uncollect("Unknown", value(rng, nodes)),
                _ => d.uncollect(coll, value(rng, nodes)),
            },
            // An edge to the oid the next op creates: illegal in this
            // order.
            7 => {
                d.add_edge(from, label, Value::Node(Oid::from_index(nodes)));
                d.add_node(None);
                nodes += 1;
            }
            // The same in the legal order.
            8 => {
                d.add_node(None);
                d.add_edge(from, label, Value::Node(Oid::from_index(nodes)));
                nodes += 1;
            }
            9 => {
                let v = value(rng, nodes);
                d.add_edge(from, label, v.clone());
                d.remove_edge(from, label, v);
            }
            10 => {
                let v = value(rng, nodes);
                d.collect(coll, v.clone());
                d.uncollect(coll, v);
            }
            // A dangling source.
            _ => d.add_edge(Oid::from_index(nodes + 3), label, Value::Int(0)),
        }
    }
    d
}

fn sorted<T: Ord + Clone>(items: &[T]) -> Vec<T> {
    let mut v = items.to_vec();
    v.sort();
    v
}

/// Every family `db`'s level allows answers as a fresh build over its
/// graph (as multisets per key: a removal swap-removes), and its
/// statistics equal a fresh `Stats::compute`.
fn assert_indexes_fresh(db: &Database, at: &str) {
    let g = db.graph();
    let at = format!("{at} at {:?}", db.level());
    let fresh = Database::from_graph(g.clone(), db.level());
    let mut probes: Vec<Value> = vec![Value::Int(0), Value::Int(1), Value::Int(2)];
    probes.extend([Value::string("x"), Value::string("y")]);
    probes.extend(g.node_oids().map(Value::Node));
    for (l, name) in g.labels().iter() {
        assert_eq!(
            db.extension(l).map(sorted),
            fresh.extension(l).map(sorted),
            "{at}: extension of {name}"
        );
        for v in &probes {
            assert_eq!(
                db.sources(l, v).map(sorted),
                fresh.sources(l, v).map(sorted),
                "{at}: sources of {name} -> {v}"
            );
        }
    }
    for v in &probes {
        assert_eq!(
            db.value_locations(v).map(sorted),
            fresh.value_locations(v).map(sorted),
            "{at}: locations of {v}"
        );
    }
    assert_eq!(db.stats(), &Stats::compute(g), "{at}: statistics");
}

fn delta_error(e: RepoError) -> DeltaError {
    match e {
        RepoError::Delta(e) => e,
        other => panic!("expected a delta error, got {other}"),
    }
}

#[test]
fn three_appliers_agree_and_a_rejected_delta_changes_nothing() {
    for seed in [3u64, 45, 1997] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut base = Graph::new();
        let n0 = base.add_named_node("n0");
        let n1 = base.add_named_node("n1");
        for _ in 0..4 {
            base.add_node();
        }
        base.add_edge_str(n0, "p", Value::Node(n1));
        base.add_edge_str(n1, "q", Value::Int(1));
        base.collect_str("C", n0);

        let dir = tmpdir(&format!("{seed}"));
        let store = PagedRepo::bulk_load(&dir, PagerConfig::default(), &base).unwrap();
        let mut dbs = [
            IndexLevel::None,
            IndexLevel::ExtensionOnly,
            IndexLevel::Full,
        ]
        .map(|level| Database::from_graph(base.clone(), level));
        // Build every family now, so every delta maintains all of them.
        for db in &dbs {
            assert_indexes_fresh(db, "start");
        }
        let mut head = base;
        let (mut accepted, mut rejected) = (0usize, 0usize);
        for step in 0..DELTAS {
            let delta = random_delta(&mut rng, &head);
            let at = format!("seed {seed} step {step}: {:?}", delta.ops());
            let before = bytes(&head);
            let wal_before = wal_len(&dir);

            let mut graph = head.clone();
            let by_graph = delta.apply(&mut graph).map(drop);
            for db in &mut dbs {
                let by_db = db.apply_delta(&delta).map(drop).map_err(delta_error);
                assert_eq!(
                    by_graph,
                    by_db,
                    "{at}: GraphDelta::apply vs Database::apply_delta at {:?}",
                    db.level()
                );
            }
            let by_store = store.apply_delta(&delta).map_err(delta_error);
            assert_eq!(
                by_graph, by_store,
                "{at}: GraphDelta::apply vs PagedRepo::apply_delta"
            );

            let after = bytes(&graph);
            let expected = if by_graph.is_ok() { &after } else { &before };
            for db in &dbs {
                assert_eq!(&bytes(db.graph()), expected, "{at}: database graph");
                assert_indexes_fresh(db, &at);
            }
            assert_eq!(
                &bytes(&store.materialize().unwrap()),
                expected,
                "{at}: store head"
            );
            if by_graph.is_ok() {
                accepted += 1;
                head = graph;
            } else {
                rejected += 1;
                assert_eq!(
                    wal_len(&dir),
                    wal_before,
                    "{at}: a rejected delta reached the WAL"
                );
                assert!(
                    after == before,
                    "{at}: GraphDelta::apply left a rejected delta's prefix"
                );
            }
            if step == DELTAS / 2 {
                store.checkpoint().unwrap();
            }
        }
        assert!(
            accepted * 10 >= DELTAS * 3 && rejected * 10 >= DELTAS * 3,
            "seed {seed}: {accepted} accepted, {rejected} rejected of {DELTAS}"
        );

        let head = bytes(&head);
        drop(store);
        let replayed = replay_committed(&dir).unwrap();
        assert!(
            replayed.wal_deltas > 0,
            "seed {seed}: the replay read no WAL delta"
        );
        assert_eq!(
            bytes(&replayed.graph),
            head,
            "seed {seed}: replay_committed"
        );
        let reopened = PagedRepo::open(&dir, PagerConfig::default()).unwrap();
        assert_eq!(
            bytes(&reopened.materialize().unwrap()),
            head,
            "seed {seed}: reopen"
        );
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
