//! Seeded differential testing of the runtime constraint checker.
//!
//! Randomly generated constraints over randomly generated small graphs
//! must get the verdict *and* the counterexample of the quantifier walker
//! in `reference/`, which interprets each body atom by atom with its own
//! NFA walk instead of running it through STRUQL's evaluator.
//!
//! The graphs mix node and atomic collection members, atomic members
//! that are coercion aliases of each other (`1` and `"1"`), and an empty
//! collection; the constraints mix one to three quantifiers of both
//! kinds, label, `true`, Kleene and alternation paths, quantified, free
//! and constant targets, and membership atoms. Both verdicts must occur
//! often, so a generator that drifts to one side fails the test.

use strudel_graph::{Graph, Value};
use strudel_prng::{choose, Rng, SeedableRng, SmallRng};
use strudel_repo::{Database, IndexLevel};
use strudel_schema::constraint::{parse_constraint, runtime};

mod reference;

/// Collections a quantifier ranges over; `Empty` has no member.
const COLLECTIONS: [&str; 5] = ["A", "B", "C", "Vals", "Empty"];

/// A random graph of `n` nodes: collections `A`, `B`, `C` of nodes,
/// `Vals` of atomic values (`1` and `"1"` among them), `a` and `b` edges
/// between nodes, and `v` edges from nodes to atomic values.
fn graph(rng: &mut SmallRng, n: usize) -> Graph {
    let atoms = [
        Value::Int(1),
        Value::string("1"),
        Value::string("x"),
        Value::Int(2),
    ];
    let mut g = Graph::new();
    let nodes: Vec<_> = (0..n).map(|i| g.add_named_node(&format!("n{i}"))).collect();
    for &node in &nodes {
        for (coll, p) in [("A", 0.5), ("B", 0.4), ("C", 0.25)] {
            if rng.gen_bool(p) {
                g.collect_str(coll, node);
            }
        }
        for label in ["a", "a", "b"] {
            if rng.gen_bool(0.6) {
                let to = nodes[rng.gen_range(0..n)];
                g.add_edge_str(node, label, Value::Node(to));
            }
        }
        if rng.gen_bool(0.5) {
            g.add_edge_str(node, "v", choose(rng, &atoms).clone());
        }
    }
    for v in atoms.iter().take(rng.gen_range(2..=atoms.len())) {
        let cid = g.intern_collection("Vals");
        g.collect(cid, v.clone());
    }
    g
}

/// One random constraint as text, and whether it has alternating
/// quantifiers.
fn constraint(rng: &mut SmallRng) -> (String, bool) {
    let paths = [
        "\"a\"",
        "\"b\"",
        "\"v\"",
        "true",
        "*",
        "\"a\"*",
        "\"a\"+",
        "(\"a\" | \"b\")",
        "\"a\" . \"b\"",
        "\"a\"* . \"v\"",
    ];
    let constants = ["1", "\"1\"", "\"x\"", "2"];
    let nq = rng.gen_range(1..=3usize);
    let mut prefix = String::new();
    let mut kinds = Vec::new();
    for i in 0..nq {
        let kind = if rng.gen_bool(0.5) {
            "forall"
        } else {
            "exists"
        };
        kinds.push(kind);
        // Atomic members and the empty collection, less often.
        let coll = if rng.gen_bool(0.75) {
            COLLECTIONS[rng.gen_range(0..3usize)]
        } else {
            COLLECTIONS[rng.gen_range(3..5usize)]
        };
        prefix.push_str(&format!("{kind} q{i} in {coll} : "));
    }
    let mut atoms = Vec::new();
    for _ in 0..rng.gen_range(1..=2usize) {
        let src = format!("q{}", rng.gen_range(0..nq));
        if rng.gen_bool(0.15) {
            atoms.push(format!(
                "{src} in {}",
                COLLECTIONS[rng.gen_range(0..4usize)]
            ));
            continue;
        }
        let target = match rng.gen_range(0..3u32) {
            0 => format!("q{}", rng.gen_range(0..nq)),
            // Two free variables, so atoms sometimes share one.
            1 => format!("f{}", rng.gen_range(0..2u32)),
            _ => choose(rng, &constants).to_string(),
        };
        atoms.push(format!("{src} -> {} -> {target}", choose(rng, &paths)));
    }
    let alternating = kinds.windows(2).any(|w| w[0] != w[1]);
    (format!("{prefix}{}", atoms.join(" and ")), alternating)
}

#[test]
fn random_constraints_agree_with_the_reference_walker() {
    let mut rng = SmallRng::seed_from_u64(0xc0257);
    let (mut holds, mut violated, mut alternating) = (0usize, 0usize, 0usize);
    let mut cases = 0usize;
    for _ in 0..40 {
        let n = rng.gen_range(3..=8usize);
        let g = graph(&mut rng, n);
        let db = Database::from_graph(g.clone(), IndexLevel::Full);
        for _ in 0..15 {
            let (text, alt) = constraint(&mut rng);
            let c = parse_constraint(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let got = runtime::check(&db, &c);
            let want = reference::check(&g, &c);
            assert_eq!(got, want, "{text}\non {n} nodes: {g:?}");
            cases += 1;
            holds += usize::from(got.holds);
            violated += usize::from(!got.holds);
            alternating += usize::from(alt);
        }
    }
    // A generator that drifts to one verdict compares only half the
    // checker.
    assert!(
        holds * 10 >= cases * 3 && violated * 10 >= cases * 3,
        "{holds} hold and {violated} violated of {cases} cases"
    );
    assert!(
        alternating * 10 >= cases,
        "{alternating} of {cases} alternate"
    );
}

/// The quantified member itself keys the lookup: `1` and `"1"` are
/// coercion-equal but distinct members, and each is checked as bound.
#[test]
fn coercion_aliases_among_members_are_checked_as_bound() {
    let mut g = Graph::new();
    let n = g.add_named_node("n");
    g.collect_str("A", n);
    g.add_edge_str(n, "v", Value::Int(1));
    let vals = g.intern_collection("Vals");
    for v in [Value::string("1"), Value::Int(1), Value::string("2")] {
        g.collect(vals, v);
    }
    let db = Database::from_graph(g.clone(), IndexLevel::Full);
    for text in [
        r#"forall v in Vals : exists p in A : p -> "v" -> v"#,
        r#"forall p in A : exists v in Vals : p -> "v" -> v"#,
        r#"forall p in A : forall v in Vals : p -> "v" -> v"#,
        r#"forall v in Vals : exists w in Vals : v -> "a"* -> w"#,
    ] {
        let c = parse_constraint(text).unwrap();
        assert_eq!(runtime::check(&db, &c), reference::check(&g, &c), "{text}");
    }
    let c = parse_constraint(r#"forall v in Vals : exists p in A : p -> "v" -> v"#).unwrap();
    assert_eq!(
        runtime::check(&db, &c).counterexample,
        Some(vec![("v".to_string(), Value::string("2"))])
    );
}
