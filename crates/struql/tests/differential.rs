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
//! Every value in the corpus is chosen to avoid dynamic-coercion
//! collisions (no numeric-looking strings), so disagreements point at
//! engine bugs rather than coercion ambiguity.

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

/// The kind each case's first condition is, so that the ten cases reach
/// every negated step kind, the single-step reverse probe and a positive
/// built-in; `random_clause` draws the rest.
const FIRST_KINDS: [u32; 10] = [10, 11, 12, 13, 14, 15, 16, 17, 8, 9];

/// One random where-clause as STRUQL text, whose first condition after
/// `Items(x0)` is of kind `first`. `x0` ranges over `Items`; at most one
/// general-regex expansion keeps relation sizes testable.
fn random_clause(rng: &mut SmallRng, first: u32) -> String {
    let cats = ["catA", "catB", "catC", "catD"];
    let mut conds = vec!["Items(x0)".to_string()];
    let mut node_vars = 1usize; // x0..x{node_vars-1} bound node variables
    let mut regexes = 0usize;
    let mut rev_probes = 0usize;
    let extra = rng.gen_range(2..=4usize);
    for n in 0..extra {
        let xi = rng.gen_range(0..node_vars);
        let kind = if n == 0 { first } else { rng.gen_range(0..18u32) };
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
    assert!(with_rows >= 8, "only {with_rows} of 10 cases yield rows");
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
