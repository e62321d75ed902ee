//! Property-based tests for the core graph data structures, driven by a
//! deterministic seeded PRNG (every case is reproducible from its seed).

use strudel_graph::ddl;
use strudel_graph::{coerce, FileKind, Graph, GraphDelta, Oid, SkolemTable, Value};
use strudel_prng::{Rng, SeedableRng, SmallRng};

/// A random string drawn from an alphabet, length in `[lo, hi)`.
fn rand_string(rng: &mut SmallRng, alphabet: &[char], lo: usize, hi: usize) -> String {
    let len = rng.gen_range(lo..hi.max(lo + 1));
    (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
        .collect()
}

fn ident_alphabet() -> Vec<char> {
    ('a'..='z').collect()
}

fn text_alphabet() -> Vec<char> {
    let mut a: Vec<char> = ('a'..='z').chain('A'..='Z').chain('0'..='9').collect();
    a.extend([' ', '_', '.', '/', ':', '-']);
    a
}

/// An arbitrary atomic (non-node) value.
fn atomic_value(rng: &mut SmallRng) -> Value {
    match rng.gen_range(0..6) {
        0 => Value::Int(rng.next_u64() as i64),
        1 => Value::Bool(rng.gen_bool(0.5)),
        // Finite floats: NaN deliberately breaks coercing comparability.
        2 => Value::Float(rng.gen_range(-1e12f64..1e12)),
        3 => Value::string(rand_string(rng, &text_alphabet(), 0, 24)),
        4 => Value::url(rand_string(rng, &ident_alphabet(), 1, 24)),
        _ => {
            let kind = [
                FileKind::Text,
                FileKind::Image,
                FileKind::PostScript,
                FileKind::Html,
            ][rng.gen_range(0..4usize)];
            Value::file(kind, rand_string(rng, &ident_alphabet(), 1, 16))
        }
    }
}

/// A recipe for building a random graph: node count plus edge endpoints.
#[derive(Debug, Clone)]
struct GraphRecipe {
    nodes: usize,
    edges: Vec<(usize, String, EdgeTarget)>,
    collections: Vec<(String, usize)>,
}

#[derive(Debug, Clone)]
enum EdgeTarget {
    Node(usize),
    Atomic(Value),
}

fn graph_recipe(rng: &mut SmallRng) -> GraphRecipe {
    let nodes = rng.gen_range(1..20usize);
    let n_edges = rng.gen_range(0..40usize);
    let edges = (0..n_edges)
        .map(|_| {
            let from = rng.gen_range(0..nodes);
            let label = rand_string(rng, &ident_alphabet(), 1, 6);
            let target = if rng.gen_bool(0.5) {
                EdgeTarget::Node(rng.gen_range(0..nodes))
            } else {
                EdgeTarget::Atomic(atomic_value(rng))
            };
            (from, label, target)
        })
        .collect();
    let n_colls = rng.gen_range(0..10usize);
    let collections = (0..n_colls)
        .map(|_| {
            let mut name = rand_string(rng, &ident_alphabet(), 1, 6);
            name[..1].make_ascii_uppercase();
            (name, rng.gen_range(0..nodes))
        })
        .collect();
    GraphRecipe {
        nodes,
        edges,
        collections,
    }
}

fn build(recipe: &GraphRecipe) -> Graph {
    let mut g = Graph::new();
    let oids: Vec<Oid> = (0..recipe.nodes)
        .map(|i| g.add_named_node(&format!("n{i}")))
        .collect();
    for (from, label, target) in &recipe.edges {
        let to = match target {
            EdgeTarget::Node(i) => Value::Node(oids[*i]),
            EdgeTarget::Atomic(v) => v.clone(),
        };
        g.add_edge_str(oids[*from], label, to);
    }
    for (name, member) in &recipe.collections {
        g.collect_str(name.as_str(), oids[*member]);
    }
    g
}

const CASES: u64 = 64;

/// print ∘ parse is the identity up to graph isomorphism: node, edge,
/// and membership counts and per-node attribute multisets survive.
#[test]
fn ddl_round_trip() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let recipe = graph_recipe(&mut rng);
        let g = build(&recipe);
        let text = ddl::print(&g);
        let g2 = ddl::parse(&text).unwrap();
        assert_eq!(g2.node_count(), g.node_count(), "seed {seed}");
        assert_eq!(g2.edge_count(), g.edge_count(), "seed {seed}");
        assert_eq!(g2.collection_count(), g.collection_count(), "seed {seed}");
        for oid in g.node_oids() {
            let name = g.node_name(oid).unwrap();
            let oid2 = g2.node_by_name(name).unwrap();
            assert_eq!(g.edges(oid).len(), g2.edges(oid2).len(), "seed {seed}");
            // Atomic attribute values survive exactly (node targets get
            // remapped oids, so compare only atomics).
            let mut atoms: Vec<(String, Value)> = g
                .edges(oid)
                .iter()
                .filter(|e| e.to.is_atomic())
                .map(|e| (g.label_name(e.label).to_owned(), e.to.clone()))
                .collect();
            let mut atoms2: Vec<(String, Value)> = g2
                .edges(oid2)
                .iter()
                .filter(|e| e.to.is_atomic())
                .map(|e| (g2.label_name(e.label).to_owned(), e.to.clone()))
                .collect();
            atoms.sort();
            atoms2.sort();
            assert_eq!(atoms, atoms2, "seed {seed}");
        }
    }
}

/// Importing a graph into an empty graph preserves structure.
#[test]
fn import_preserves_counts() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let recipe = graph_recipe(&mut rng);
        let g = build(&recipe);
        let mut dst = Graph::new();
        let map = dst.import_graph(&g);
        assert_eq!(dst.node_count(), g.node_count(), "seed {seed}");
        assert_eq!(dst.edge_count(), g.edge_count(), "seed {seed}");
        assert_eq!(map.len(), g.node_count(), "seed {seed}");
        for oid in g.node_oids() {
            assert_eq!(g.edges(oid).len(), dst.edges(map[oid.index()]).len(), "seed {seed}");
        }
    }
}

/// Coercing comparison is antisymmetric and eq is reflexive on
/// comparable values.
#[test]
fn coerce_antisymmetric() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(1_000 + seed);
        let a = atomic_value(&mut rng);
        let b = atomic_value(&mut rng);
        let ab = coerce::compare(&a, &b);
        let ba = coerce::compare(&b, &a);
        assert_eq!(
            ab.map(std::cmp::Ordering::reverse),
            ba,
            "seed {seed}: {a:?} vs {b:?}"
        );
        assert!(coerce::eq(&a, &a), "seed {seed}: {a:?}");
    }
}

/// A value drawn from a small pool of spellings that coerce into each
/// other: small numbers as ints, floats and (padded, exponent) text,
/// booleans and their keywords, one short text as string, URL and file
/// path, and a few nodes.
fn colliding_value(rng: &mut SmallRng) -> Value {
    let n = rng.gen_range(-2..3i64);
    let word = ["p", "q", "true", "false", "nan", "inf", "1998"][rng.gen_range(0..7usize)];
    match rng.gen_range(0..12) {
        0 => Value::Int(n),
        1 => Value::Float(n as f64),
        2 => Value::Float(-0.0),
        3 => Value::string(n.to_string()),
        4 => Value::string(format!(" {n}.0 ")),
        5 => Value::url(format!("{n}e0")),
        6 => Value::Bool(rng.gen_bool(0.5)),
        7 => Value::string(word),
        8 => Value::url(word),
        9 => Value::file(
            [FileKind::Text, FileKind::Image][rng.gen_range(0..2usize)],
            word,
        ),
        10 => Value::Int(1998),
        _ => Value::Node(Oid::from_index(rng.gen_range(0..3usize))),
    }
}

/// `coerce::eq(a, b)` implies `coerce::class(a) == coerce::class(b)` —
/// what lets a class key an index of coercion-equal page arguments.
#[test]
fn coerce_eq_implies_same_class() {
    let mut related = 0;
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(1_500 + seed);
        let mut pool: Vec<Value> = (0..10).map(|_| colliding_value(&mut rng)).collect();
        pool.extend((0..2).map(|_| atomic_value(&mut rng)));
        for a in &pool {
            for b in &pool {
                if coerce::eq(a, b) {
                    related += 1;
                    assert_eq!(
                        coerce::class(a),
                        coerce::class(b),
                        "seed {seed}: {a:?} = {b:?}"
                    );
                }
            }
        }
    }
    assert!(related > 1_000, "the generator must collide: {related}");
}

/// Structural Ord on Value is a total order consistent with Eq/Hash.
#[test]
fn value_total_order() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(2_000 + seed);
        let n = rng.gen_range(1..12usize);
        let mut vs: Vec<Value> = (0..n).map(|_| atomic_value(&mut rng)).collect();
        vs.sort();
        for w in vs.windows(2) {
            assert!(w[0] <= w[1], "seed {seed}");
        }
    }
}

/// Skolem functions are functions: equal argument vectors always map
/// to the oid minted first, distinct vectors to distinct oids.
#[test]
fn skolem_is_functional() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(3_000 + seed);
        let n = rng.gen_range(0..4usize);
        let args: Vec<Value> = (0..n).map(|_| atomic_value(&mut rng)).collect();
        let mut g = Graph::new();
        let mut t = SkolemTable::new();
        let (a, first) = t.apply(&mut g, "F", &args);
        assert!(first, "seed {seed}");
        let (b, again) = t.apply(&mut g, "F", &args);
        assert_eq!(a, b, "seed {seed}");
        assert!(!again, "seed {seed}");
        let (c, _) = t.apply(&mut g, "G", &args);
        assert_ne!(a, c, "seed {seed}");
    }
}

/// A recorded delta replays into an empty graph deterministically.
#[test]
fn delta_replay_is_deterministic() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(4_000 + seed);
        let recipe = graph_recipe(&mut rng);
        let mut d = GraphDelta::new();
        for i in 0..recipe.nodes {
            d.add_node(Some(&format!("n{i}")));
        }
        for (from, label, target) in &recipe.edges {
            let to = match target {
                EdgeTarget::Node(i) => Value::Node(Oid::from_index(*i)),
                EdgeTarget::Atomic(v) => v.clone(),
            };
            d.add_edge(Oid::from_index(*from), label, to);
        }
        let mut g1 = Graph::new();
        let mut g2 = Graph::new();
        d.apply(&mut g1).unwrap();
        d.apply(&mut g2).unwrap();
        assert_eq!(g1.node_count(), g2.node_count(), "seed {seed}");
        assert_eq!(g1.edge_count(), g2.edge_count(), "seed {seed}");
        for oid in g1.node_oids() {
            assert_eq!(g1.edges(oid), g2.edges(oid), "seed {seed}");
        }
    }
}

/// The DDL parser never panics on arbitrary input.
#[test]
fn ddl_parser_total() {
    // A hostile alphabet: printable ASCII plus syntax-adjacent unicode.
    let mut alphabet: Vec<char> = (' '..='~').collect();
    alphabet.extend(['\n', '\t', 'é', 'λ', '→', '\u{1F600}', '"', '\\']);
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(5_000 + seed);
        let s = rand_string(&mut rng, &alphabet, 0, 200);
        let _ = ddl::parse(&s);
    }
}
