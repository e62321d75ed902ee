//! Seeded differential testing of the where-clause engine.
//!
//! Randomly generated where-clauses over randomly generated corpora must
//! produce the bindings relation of the nested-loop reference evaluator
//! in `reference/`, run in the same plan order:
//!
//! * **byte-identical** without indexes (`IndexLevel::None`), where every
//!   engine probe — reverse-adjacency ones included — emits rows in
//!   forward-scan order, the order the reference finds them in;
//! * **multiset-identical** with full indexes, which may legitimately
//!   reorder rows but never add, drop or repeat one; and the same set
//!   across optimizer on/off and index levels.
//!
//! The random corpus avoids dynamic-coercion collisions (no
//! numeric-looking strings), so its disagreements point at engine bugs
//! rather than coercion ambiguity. Coercion gets its own case:
//! `coercion_equal_values_agree_with_the_reference` adds a label that
//! holds both `1` and `"1"` and probes it from unbound sources with
//! constants and row-bound values of both spellings, through `sources`
//! and the value index, against the coercing reference.

use strudel_graph::{Graph, Value};
use strudel_prng::{Rng, SeedableRng, SmallRng};
use strudel_repo::{Database, IndexLevel};
use strudel_struql::{Condition, EvalOptions, Evaluator};

mod reference;

/// A random corpus: `n` nodes in collection `Items`, about a third of
/// them in `Picked` too, each with a `cat` string, a `val` int, and 0–2
/// `link` edges to earlier nodes (so Kleene cones are acyclic and
/// bounded); a `next` chain threads every node.
fn corpus(rng: &mut SmallRng, n: usize) -> Graph {
    let mut g = Graph::new();
    let cats = ["catA", "catB", "catC", "catD"];
    let mut nodes = Vec::with_capacity(n);
    for i in 0..n {
        let node = g.add_named_node(&format!("item{i}"));
        g.collect_str("Items", node);
        if rng.gen_bool(0.3) {
            g.collect_str("Picked", node);
        }
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

/// The kind each case's first condition is, so that the cases reach
/// every negated step kind, a positive built-in, and every probe of the
/// single-edge step — through a bound source, the reverse adjacency, the
/// value index and the `sources` index — for a label, `true` and an arc
/// variable; `random_clause` draws the rest.
const FIRST_KINDS: [u32; 15] = [10, 11, 12, 13, 14, 15, 16, 17, 8, 9, 18, 19, 20, 21, 22];

/// One random where-clause as STRUQL text, whose first condition after
/// `Items(x0)` is of kind `first`. `x0` ranges over `Items`; at most one
/// general-regex expansion keeps relation sizes testable.
fn random_clause(rng: &mut SmallRng, first: u32) -> String {
    let cats = ["catA", "catB", "catC", "catD"];
    let mut conds = vec!["Items(x0)".to_string()];
    let mut node_vars = 1usize; // x0..x{node_vars-1} bound node variables
    let mut regexes = 0usize;
    let mut rev_probes = 0usize;
    // Unbound-source steps to a constant: each is a cross product with
    // `Items(x0)`, so one per clause.
    let mut crosses = 0usize;
    let extra = rng.gen_range(2..=4usize);
    for n in 0..extra {
        let xi = rng.gen_range(0..node_vars);
        let kind = if n == 0 { first } else { rng.gen_range(0..23u32) };
        // Every other variable a condition introduces is numbered `n + 1`.
        let f = n + 1;
        match kind {
            // Forward single steps.
            0 => {
                conds.push(format!("x{xi} -> \"link\" -> x{node_vars}"));
                node_vars += 1;
            }
            1 => {
                conds.push(format!("x{xi} -> \"next\" -> x{node_vars}"));
                node_vars += 1;
            }
            // Arc variable.
            2 => conds.push(format!("x{xi} -> l{f} -> y{f}")),
            // General regexes (forward, bound source).
            3 if regexes == 0 => {
                conds.push(format!("x{xi} -> \"link\"* -> x{node_vars}"));
                node_vars += 1;
                regexes += 1;
            }
            4 if regexes == 0 => {
                conds.push(format!(
                    "x{xi} -> \"next\" . \"link\"? -> x{node_vars}"
                ));
                node_vars += 1;
                regexes += 1;
            }
            // Unbound source, bound destination: the reverse probes, a
            // general regex and a single step.
            5 if rev_probes == 0 && regexes == 0 => {
                conds.push(format!("x{node_vars} -> \"link\"+ -> x{xi}"));
                node_vars += 1;
                rev_probes += 1;
                regexes += 1;
            }
            8 => {
                conds.push(format!("x{node_vars} -> \"link\" -> x{xi}"));
                node_vars += 1;
            }
            7 => {
                let c = cats[rng.gen_range(0..cats.len())];
                conds.push(format!("x{xi} -> \"cat\" -> \"{c}\""));
            }
            // `true`: unbound source to a bound node (the reverse
            // adjacency), and bound source.
            18 => {
                conds.push(format!("x{node_vars} -> true -> x{xi}"));
                node_vars += 1;
            }
            19 => conds.push(format!("x{xi} -> true -> y{f}")),
            // Arc variable, unbound source to a bound node: the reverse
            // adjacency.
            20 => {
                conds.push(format!("x{node_vars} -> l{f} -> x{xi}"));
                node_vars += 1;
            }
            // Unbound source to a constant: an arc variable (the value
            // index, with full indexes) and a label (`sources`, with
            // indexes).
            21 | 22 if crosses == 0 => {
                let c = cats[rng.gen_range(0..cats.len())];
                let label = if kind == 21 { format!("l{f}") } else { "\"cat\"".to_string() };
                conds.push(format!("x{node_vars} -> {label} -> \"{c}\""));
                node_vars += 1;
                crosses += 1;
            }
            // Built-in type predicates, over values an arc variable reads.
            9 => {
                let pred = if rng.gen_bool(0.5) { "isInt" } else { "isString" };
                conds.push(format!("x{xi} -> l{f} -> y{f}, {pred}(y{f})"));
            }
            // Negations, one per step kind: a label with a local
            // destination, and with an unbound source and a bound
            // destination; an arc variable to a constant; a multi-step
            // regex; a comparison; a negated negation; a membership; a
            // built-in.
            10 => conds.push(format!("not(x{xi} -> \"link\" -> z{f})")),
            11 => conds.push(format!("not(z{f} -> \"link\" -> x{xi})")),
            12 => {
                let c = cats[rng.gen_range(0..cats.len())];
                conds.push(format!("not(x{xi} -> l{f} -> \"{c}\")"));
            }
            13 => conds.push(format!("not(x{xi} -> \"link\" . \"link\" -> z{f})")),
            14 => {
                let k = rng.gen_range(20..80i64);
                conds.push(format!("x{xi} -> \"val\" -> v{f}, not(v{f} < {k})"));
            }
            15 => {
                let c = cats[rng.gen_range(0..cats.len())];
                conds.push(format!("not(not(x{xi} -> \"cat\" -> \"{c}\"))"));
            }
            16 => conds.push(format!("not(Picked(x{xi}))")),
            17 => conds.push(format!("x{xi} -> l{f} -> y{f}, not(isNode(y{f}))")),
            // Attribute + filter; also what a regex draw past the first
            // becomes.
            _ => {
                let k = rng.gen_range(20..80i64);
                conds.push(format!("x{xi} -> \"val\" -> v{f}, v{f} >= {k}"));
            }
        }
    }
    format!("where {} create P(x0)", conds.join(", "))
}

/// The engine's rows for `conds` seeded with `seed`, checked against the
/// reference's: byte for byte without indexes, as multisets with them.
fn checked_eval(
    db: &Database,
    conds: &[Condition],
    seed: &[(String, Value)],
    optimize: bool,
    what: &str,
) -> Vec<Vec<Option<Value>>> {
    let ev = Evaluator::with_options(db, EvalOptions { optimize });
    let (vars, rows) = ev.eval_where_bindings(conds, seed).unwrap();
    let (ref_vars, ref_rows) = reference::eval_where(db, conds, seed, optimize);
    assert_eq!(vars, ref_vars, "{what}: slot layout");
    if db.level() == IndexLevel::None {
        assert_eq!(rows, ref_rows, "{what}: rows differ from the reference");
    } else {
        assert_eq!(
            sorted_debug(&rows),
            sorted_debug(&ref_rows),
            "{what}: rows differ from the reference as multisets"
        );
    }
    rows
}

fn sorted_debug(rows: &[Vec<Option<Value>>]) -> Vec<String> {
    let mut keys: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    keys.sort_unstable();
    keys
}

#[test]
fn random_clauses_agree_across_engine_configurations() {
    let mut rng = SmallRng::seed_from_u64(0xd1ff);
    let graph = corpus(&mut rng, 150);

    let mut with_rows = 0;
    for (case, &kind) in FIRST_KINDS.iter().enumerate() {
        let text = random_clause(&mut rng, kind);
        let program = strudel_struql::parse(&text)
            .unwrap_or_else(|e| panic!("case {case}: {text}\n{e}"));
        let conds = &program.blocks[0].where_;

        let mut cross_config: Vec<(String, Vec<String>)> = Vec::new();
        for level in [IndexLevel::Full, IndexLevel::None] {
            let db = Database::from_graph(graph.clone(), level);
            for optimize in [true, false] {
                let cfg = format!("level={level:?} optimize={optimize}");
                let rows = checked_eval(&db, conds, &[], optimize, &format!("case {case} ({cfg}): {text}"));
                cross_config.push((cfg, sorted_debug(&rows)));
            }
        }
        // Optimizer and index level may reorder rows, never change the set.
        let (first_cfg, first) = &cross_config[0];
        for (cfg, rows) in &cross_config[1..] {
            assert_eq!(
                rows, first,
                "case {case}: {cfg} disagrees with {first_cfg}: {text}"
            );
        }
        with_rows += usize::from(!first.is_empty());
    }
    // A case that yields no row compares nothing past its emptying step.
    assert!(
        with_rows >= 12,
        "only {with_rows} of {} cases yield rows",
        FIRST_KINDS.len()
    );
}

#[test]
fn seeded_evaluation_agrees_with_the_reference() {
    // Seeded (click-time style) evaluation: bind the destination variable
    // up front so reverse probes run under a seed, exactly as the dynamic
    // engine drives them.
    let mut rng = SmallRng::seed_from_u64(0x5eed);
    let graph = corpus(&mut rng, 150);
    let program = strudel_struql::parse(
        r#"where q -> "link"* -> p, q -> "cat" -> "catA" create P(q)"#,
    )
    .unwrap();
    let conds = &program.blocks[0].where_;
    let target = Value::Node(graph.node_by_name("item3").unwrap());
    let seed = vec![("p".to_string(), target)];

    for level in [IndexLevel::Full, IndexLevel::None] {
        let db = Database::from_graph(graph.clone(), level);
        // Textual order probes the Kleene path from its bound end first:
        // the reverse-adjacency fan-out.
        for optimize in [true, false] {
            let what = format!("seeded, level={level:?} optimize={optimize}");
            let rows = checked_eval(&db, conds, &seed, optimize, &what);
            assert!(!rows.is_empty(), "item3 has inbound link cones");
        }
    }
}

#[test]
fn both_bound_regex_rows_agree_with_the_reference() {
    // Both ends bound by memberships, with fewer distinct sources than
    // destinations: in textual order the regex step probes forward and
    // keeps each row whose node destination its source reaches.
    let mut rng = SmallRng::seed_from_u64(0xb0b0);
    let graph = corpus(&mut rng, 150);
    for text in [
        r#"where Picked(x0), Items(x1), x0 -> "link"* -> x1 create P(x0)"#,
        r#"where Picked(x0), Items(x1), x0 -> "next" . "link"? -> x1 create P(x0)"#,
    ] {
        let program = strudel_struql::parse(text).unwrap();
        let conds = &program.blocks[0].where_;
        for level in [IndexLevel::Full, IndexLevel::None] {
            let db = Database::from_graph(graph.clone(), level);
            for optimize in [true, false] {
                let what = format!("{text} level={level:?} optimize={optimize}");
                let rows = checked_eval(&db, conds, &[], optimize, &what);
                assert!(!rows.is_empty(), "{what}: no row");
            }
        }
    }
}

#[test]
fn coercion_equal_values_agree_with_the_reference() {
    // A label holding `1` and `"1"` (and `2` and `"2"`) on one node each
    // in turn. The indexes are exact-match and unification coerces, so an
    // unbound-source probe must ask `sources` (a named label) or the
    // value index (`true`, an arc variable) with every coercion-equal key
    // of the destination: asking fewer drops rows the reference keeps.
    let mut rng = SmallRng::seed_from_u64(0xc0e2);
    let mut graph = corpus(&mut rng, 60);
    let items: Vec<_> = graph
        .members_str("Items")
        .iter()
        .filter_map(Value::as_node)
        .collect();
    for (i, &node) in items.iter().enumerate() {
        let num = match i % 4 {
            0 => Value::Int(1),
            1 => Value::string("1"),
            2 => Value::Int(2),
            _ => Value::string("2"),
        };
        graph.add_edge_str(node, "num", num);
    }
    // Half the items carry a `num` equal to 1 under coercion.
    let ones = items.len() / 2;
    for (text, rows_expected) in [
        (r#"where x -> "num" -> "1" create P(x)"#, Some(ones)),
        (r#"where x -> "num" -> 1 create P(x)"#, Some(ones)),
        (r#"where x -> true -> "1" create P(x)"#, None),
        (r#"where x -> l -> "1" create P(x)"#, None),
        (r#"where x -> l -> 1 create P(x)"#, None),
        // A destination bound by the row, in either spelling.
        (
            r#"where Items(y), y -> "num" -> v, x -> "num" -> v create P(x)"#,
            Some(ones * ones * 2),
        ),
    ] {
        let program = strudel_struql::parse(text).unwrap();
        let conds = &program.blocks[0].where_;
        for level in [IndexLevel::Full, IndexLevel::None] {
            let db = Database::from_graph(graph.clone(), level);
            for optimize in [true, false] {
                let what = format!("{text} level={level:?} optimize={optimize}");
                let rows = checked_eval(&db, conds, &[], optimize, &what);
                match rows_expected {
                    Some(n) => assert_eq!(rows.len(), n, "{what}"),
                    None => assert!(rows.len() >= ones, "{what}: {} rows", rows.len()),
                }
            }
        }
    }
}
