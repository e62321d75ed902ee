//! Lazy index construction is invisible: an index family built by its
//! first probe — whenever that probe comes, before, between or after
//! mutations — answers exactly as one built from the graph right now, and
//! stays that way under every later mutation.
//!
//! A seeded loop interleaves deltas of edge and membership ops, some of
//! which the database must refuse, with the probes in random order, at
//! every index level. The loop itself decides when a family is first
//! asked for; from then on the family is checked after *every* step, a
//! refused delta included, against a fresh `build` over the current graph
//! (as multisets per key: `forget_edge` swap-removes, so maintained and
//! rebuilt order legally differ after a removal). The statistics are
//! checked against `Stats::compute`, and the loop counts the deltas that
//! reach them with a new label or with a label's last edge.

use std::sync::{Arc, Barrier};
use strudel_graph::{Graph, GraphDelta, Label, Oid, Value};
use strudel_prng::{Rng, SeedableRng, SmallRng};
use strudel_repo::{Database, ExtensionIndex, IndexLevel, Stats, ValueIndex};

const LABELS: [&str; 4] = ["p", "q", "r", "s"];
const COLLECTIONS: [&str; 2] = ["C", "D"];
const NODES: usize = 8;

fn value(rng: &mut SmallRng) -> Value {
    match rng.gen_range(0..4u32) {
        0 => Value::Int(rng.gen_range(0..4i64)),
        1 => Value::string(["x", "y", "z"][rng.gen_range(0..3usize)]),
        2 => Value::url(["x", "u"][rng.gen_range(0..2usize)]),
        _ => Value::Node(Oid::from_index(rng.gen_range(0..NODES))),
    }
}

fn sorted<T: Ord + Clone>(items: &[T]) -> Vec<T> {
    let mut v = items.to_vec();
    v.sort();
    v
}

/// Every `(label, target)` the probes could be asked about: the ones in
/// the graph, and some that are not.
fn keys(g: &Graph, rng: &mut SmallRng) -> Vec<(Label, Value)> {
    let mut keys: Vec<(Label, Value)> = g
        .node_oids()
        .flat_map(|o| g.edges(o).iter().map(|e| (e.label, e.to.clone())))
        .collect();
    for (l, _) in g.labels().iter() {
        keys.push((l, value(rng)));
    }
    keys
}

/// Which families the loop has probed so far.
#[derive(Default)]
struct Built {
    stats: bool,
    extension: bool,
    inverted: bool,
    value: bool,
}

fn check(db: &Database, built: &Built, rng: &mut SmallRng, at: &str) {
    let g = db.graph();
    let keys = keys(g, rng);
    if built.extension {
        let fresh = ExtensionIndex::build(g);
        for (l, _) in g.labels().iter() {
            assert_eq!(
                sorted(db.extension(l).unwrap()),
                sorted(fresh.extension(l)),
                "{at}: extension of {}",
                g.label_name(l)
            );
        }
    }
    if built.inverted {
        let fresh = ExtensionIndex::build(g);
        for (l, v) in &keys {
            assert_eq!(
                sorted(db.sources(*l, v).unwrap()),
                sorted(fresh.sources(*l, v)),
                "{at}: sources of {} -> {v}",
                g.label_name(*l)
            );
        }
    }
    if built.value {
        let fresh = ValueIndex::build(g);
        for (_, v) in &keys {
            assert_eq!(
                sorted(db.value_locations(v).unwrap()),
                sorted(fresh.locations(v)),
                "{at}: locations of {v}"
            );
        }
    }
    if built.stats {
        assert_eq!(db.stats(), &Stats::compute(g), "{at}: statistics");
    }
}

/// One to three ops on nodes below `NODES`: edge additions, removals of
/// an edge `db` holds, collects, and ops the database must refuse often
/// (an uncollect of a random value, a removal of a random edge, an edge
/// to a node that does not exist).
fn random_delta(rng: &mut SmallRng, db: &Database) -> GraphDelta {
    let mut d = GraphDelta::new();
    for _ in 0..rng.gen_range(1..=3usize) {
        let node = Oid::from_index(rng.gen_range(0..NODES));
        let label = LABELS[rng.gen_range(0..LABELS.len())];
        let coll = COLLECTIONS[rng.gen_range(0..COLLECTIONS.len())];
        let v = value(rng);
        match rng.gen_range(0..12u32) {
            0..=4 => d.add_edge(node, label, v),
            5..=7 => match db.graph().edges(node) {
                [] => d.remove_edge(node, label, v),
                edges => {
                    let e = &edges[rng.gen_range(0..edges.len())];
                    d.remove_edge(node, db.graph().label_name(e.label), e.to.clone());
                }
            },
            8 | 9 => d.collect(coll, v),
            10 => d.uncollect(coll, v),
            _ => d.add_edge(node, label, Value::Node(Oid::from_index(NODES))),
        }
    }
    d
}

#[test]
fn families_built_at_any_point_equal_a_fresh_build_ever_after() {
    let (mut accepted, mut refused) = (0, 0);
    // Accepted deltas that reached built statistics with a label new to
    // the graph, and with the removal of a label's last edge.
    let (mut new_labels, mut last_edges) = (0, 0);
    for level in [
        IndexLevel::None,
        IndexLevel::ExtensionOnly,
        IndexLevel::Full,
    ] {
        for seed in [1u64, 7, 42, 1998, 0xD1CE, 0xFACADE] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut db = Database::new(level);
            let mut nodes = GraphDelta::new();
            for _ in 0..NODES {
                nodes.add_node(None);
            }
            db.apply_delta(&nodes).unwrap();
            let mut built = Built::default();
            for step in 0..300 {
                let what = match rng.gen_range(0..16u32) {
                    0..=10 => {
                        let delta = random_delta(&mut rng, &db);
                        let labels = db.graph().labels().len();
                        let used = |db: &Database| {
                            let g = db.graph();
                            g.labels()
                                .iter()
                                .filter(|&(l, _)| db.stats().label(l).edges > 0)
                                .count()
                        };
                        let used_before = built.stats.then(|| used(&db));
                        if db.apply_delta(&delta).is_ok() {
                            accepted += 1;
                            if let Some(before) = used_before {
                                new_labels += usize::from(db.graph().labels().len() > labels);
                                last_edges += usize::from(used(&db) < before);
                            }
                            "delta"
                        } else {
                            refused += 1;
                            "refused delta"
                        }
                    }
                    11 => {
                        built.extension = level != IndexLevel::None;
                        "probe extension"
                    }
                    12 => {
                        built.inverted = level != IndexLevel::None;
                        "probe sources"
                    }
                    13 => {
                        built.value = level == IndexLevel::Full;
                        "probe value_locations"
                    }
                    14 => {
                        built.stats = true;
                        "probe stats"
                    }
                    _ => {
                        // Everything is dropped and comes back on demand.
                        db = Database::from_graph(std::mem::take(&mut db).into_graph(), level);
                        "fresh database"
                    }
                };
                check(
                    &db,
                    &built,
                    &mut rng,
                    &format!("{level:?} seed {seed} step {step} ({what})"),
                );
            }
            assert!(built.stats, "{level:?} seed {seed}");
            if level == IndexLevel::Full {
                assert!(
                    built.extension && built.inverted && built.value,
                    "seed {seed}"
                );
            }
        }
    }
    assert!(
        accepted > 0 && refused > 0,
        "{accepted} accepted, {refused} refused"
    );
    assert!(
        new_labels > 0 && last_edges > 0,
        "{new_labels} new labels, {last_edges} last edges"
    );
}

#[test]
fn the_level_alone_decides_whether_a_probe_answers() {
    let mut g = Graph::new();
    let a = g.add_node();
    g.add_edge_str(a, "p", Value::Int(1));
    let p = g.label("p").unwrap();
    for (level, extension, value) in [
        (IndexLevel::None, false, false),
        (IndexLevel::ExtensionOnly, true, false),
        (IndexLevel::Full, true, true),
    ] {
        let db = Database::from_graph(g.clone(), level);
        // Asked twice: the first probe builds, the second must agree.
        for _ in 0..2 {
            assert_eq!(db.extension(p).is_some(), extension, "{level:?}");
            assert_eq!(
                db.sources(p, &Value::Int(1)).is_some(),
                extension,
                "{level:?}"
            );
            assert_eq!(
                db.value_locations(&Value::Int(1)).is_some(),
                value,
                "{level:?}"
            );
            assert_eq!(
                db.stats().label(p).edges,
                1,
                "{level:?}: stats at every level"
            );
        }
    }
}

#[test]
fn two_threads_probing_one_database_share_one_build_of_each_family() {
    let mut g = Graph::new();
    let nodes: Vec<Oid> = (0..64).map(|_| g.add_node()).collect();
    for (i, &n) in nodes.iter().enumerate() {
        g.add_edge_str(n, "p", Value::Int(i as i64 % 4));
        g.add_edge_str(n, "q", Value::Node(nodes[(i + 1) % nodes.len()]));
    }
    let p = g.label("p").unwrap();
    let db = Arc::new(Database::from_graph(g, IndexLevel::Full));
    let gate = Arc::new(Barrier::new(2));
    // Both threads leave the barrier together and race to the first
    // probe of each family; each reports where its answers live.
    let probe = |db: Arc<Database>, gate: Arc<Barrier>| {
        move || {
            gate.wait();
            let ext = db.extension(p).unwrap();
            let src = db.sources(p, &Value::Int(1)).unwrap();
            let loc = db.value_locations(&Value::Int(1)).unwrap();
            let stats: *const Stats = db.stats();
            assert_eq!((ext.len(), src.len(), loc.len()), (64, 16, 16));
            [
                ext.as_ptr() as usize,
                src.as_ptr() as usize,
                loc.as_ptr() as usize,
                stats as usize,
            ]
        }
    };
    let one = std::thread::spawn(probe(db.clone(), gate.clone()));
    let two = std::thread::spawn(probe(db.clone(), gate));
    let one = one.join().expect("first prober");
    let two = two.join().expect("second prober");
    assert_eq!(
        one, two,
        "each family was built once and both threads read that build"
    );
}
