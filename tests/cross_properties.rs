//! Cross-crate property tests: randomized data graphs and queries flowing
//! through the whole stack, generated from a deterministic seeded PRNG.

use strudel::repo::{Database, IndexLevel};
use strudel::struql::{EvalOptions, Evaluator};
use strudel_graph::{Graph, Value};
use strudel_prng::{Rng, SeedableRng, SmallRng};

/// A random Publications-like graph: nodes with a random subset of
/// attributes (the irregularity the system exists for).
fn pub_graph(rng: &mut SmallRng) -> Graph {
    const MONTHS: [&str; 12] = [
        "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
    ];
    const CATS: [&str; 4] = ["web", "db", "systems", "theory"];
    let rows = rng.gen_range(1..25usize);
    let mut g = Graph::new();
    for i in 0..rows {
        let node = g.add_named_node(&format!("p{i}"));
        g.add_edge_str(node, "title", Value::string(format!("Title {i}")));
        if rng.gen_bool(0.5) {
            g.add_edge_str(node, "year", Value::Int(rng.gen_range(1990i64..2000)));
        }
        if rng.gen_bool(0.5) {
            let m = rng.gen_range(0..12usize);
            g.add_edge_str(node, "month", Value::string(MONTHS[m]));
        }
        if rng.gen_bool(0.5) {
            let c = rng.gen_range(0..4usize);
            g.add_edge_str(node, "category", Value::string(CATS[c]));
        }
        for a in 0..rng.gen_range(1..4usize) {
            g.add_edge_str(node, "author", Value::string(format!("Author {a}")));
        }
        g.collect_str("Publications", node);
    }
    g
}

const CASES: u64 = 32;

/// The Fig. 3 query never fails on irregular data, and its output obeys
/// the structural invariants: one presentation per publication, one
/// year page per distinct year, presentations copy exactly their
/// publication's edges.
#[test]
fn homepage_query_invariants() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = pub_graph(&mut rng);
        let db = Database::from_graph(g, IndexLevel::Full);
        let program = strudel::struql::parse(strudel::sites::HOMEPAGE_QUERY).unwrap();
        let r = Evaluator::new(&db).eval(&program).unwrap();

        let pubs = db.graph().members_str("Publications").to_vec();
        assert_eq!(
            r.graph.members_str("PaperPages").len(),
            pubs.len(),
            "seed {seed}"
        );

        let mut years = std::collections::HashSet::new();
        for m in &pubs {
            let o = m.as_node().unwrap();
            for v in db.graph().attr_str(o, "year") {
                years.insert(v.clone());
            }
            let pres = r
                .skolem_node("PaperPresentation", std::slice::from_ref(m))
                .unwrap();
            assert_eq!(
                r.graph.edges(pres).len(),
                db.graph().edges(o).len(),
                "seed {seed}"
            );
        }
        assert_eq!(r.graph.members_str("YearPages").len(), years.len(), "seed {seed}");
    }
}

/// Optimized and unoptimized evaluation agree on arbitrary irregular
/// graphs, at every index level.
#[test]
fn plan_and_index_transparency() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(100 + seed);
        let g = pub_graph(&mut rng);
        let program = strudel::struql::parse(
            r#"
            where Publications(x), x -> "year" -> y, y >= 1995
            create P(x), Y(y)
            link Y(y) -> "paper" -> P(x)
            collect Out(P(x))
        "#,
        )
        .unwrap();
        let mut results = Vec::new();
        for level in [IndexLevel::None, IndexLevel::Full] {
            for optimize in [false, true] {
                let db = Database::from_graph(g.clone(), level);
                let r = Evaluator::with_options(&db, EvalOptions { optimize, ..Default::default() })
                    .eval(&program)
                    .unwrap();
                results.push((r.new_nodes.len(), r.graph.members_str("Out").len()));
            }
        }
        assert!(
            results.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: {results:?}"
        );
    }
}

/// Incremental maintenance equals full re-evaluation for arbitrary
/// single-publication inserts.
#[test]
fn incremental_equals_full() {
    use strudel::schema::incremental::incremental_update;
    use strudel_graph::graphs_equivalent;
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(200 + seed);
        let g = pub_graph(&mut rng);
        let year = rng.gen_range(1990i64..2000);
        let db = Database::from_graph(g, IndexLevel::Full);
        let program = strudel::struql::parse(strudel::sites::HOMEPAGE_QUERY).unwrap();
        let old = Evaluator::new(&db).eval(&program).unwrap();

        let base = db.graph().node_count();
        let mut delta = strudel_graph::GraphDelta::new();
        delta.add_node(Some("fresh"));
        let oid = strudel_graph::Oid::from_index(base);
        delta.add_edge(oid, "title", Value::string("Fresh"));
        delta.add_edge(oid, "year", Value::Int(year));
        delta.collect("Publications", Value::Node(oid));

        let inc = incremental_update(&program, &db, &delta, old).unwrap();

        let mut g2 = db.graph().clone();
        delta.apply(&mut g2).unwrap();
        let db2 = Database::from_graph(g2, IndexLevel::Full);
        let full = Evaluator::new(&db2).eval(&program).unwrap();
        assert!(
            graphs_equivalent(&inc.result.graph, &full.graph),
            "seed {seed}"
        );
    }
}

/// DRed deletions agree with full re-evaluation: for every Skolem key
/// the full evaluation produces, the incrementally maintained site has
/// the same out-edges; orphaned pages (keys absent from the full
/// evaluation) carry no derived content.
#[test]
fn dred_deletions_match_full() {
    use strudel::schema::incremental::incremental_update;
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(300 + seed);
        let g = pub_graph(&mut rng);
        let victim_idx = rng.gen_range(0..25usize);
        let pubs = g.members_str("Publications").to_vec();
        let victim = &pubs[victim_idx % pubs.len()];
        let victim_oid = victim.as_node().unwrap();

        let db = Database::from_graph(g.clone(), IndexLevel::Full);
        let program = strudel::struql::parse(strudel::sites::HOMEPAGE_QUERY).unwrap();
        let old = Evaluator::new(&db).eval(&program).unwrap();

        // Delete either the membership or the year edge (when present).
        let mut delta = strudel_graph::GraphDelta::new();
        match db.graph().first_attr_str(victim_oid, "year").cloned() {
            Some(y) => delta.remove_edge(victim_oid, "year", y),
            None => delta.uncollect("Publications", victim.clone()),
        }

        let inc = incremental_update(&program, &db, &delta, old).unwrap();

        let mut g2 = db.graph().clone();
        delta.apply(&mut g2).unwrap();
        let db2 = Database::from_graph(g2, IndexLevel::Full);
        let full = Evaluator::new(&db2).eval(&program).unwrap();

        // Compare per-Skolem-key edge multisets. Node targets are compared
        // through the key correspondence.
        let full_keys: Vec<(String, Vec<Value>)> = full
            .skolem
            .iter()
            .map(|(k, _)| (k.symbol.to_string(), k.args.to_vec()))
            .collect();
        for (symbol, args) in &full_keys {
            let f_oid = full.skolem_node(symbol, args).unwrap();
            let i_oid = inc
                .result
                .skolem_node(symbol, args)
                .expect("incremental site has every live page");
            let mut f_edges: Vec<(String, String)> = full
                .graph
                .edges(f_oid)
                .iter()
                .map(|e| {
                    let target = match &e.to {
                        Value::Node(o) => full
                            .graph
                            .node_name(*o)
                            .map(str::to_owned)
                            .unwrap_or_else(|| format!("{o}")),
                        other => format!("{other}"),
                    };
                    (full.graph.label_name(e.label).to_owned(), target)
                })
                .collect();
            let mut i_edges: Vec<(String, String)> = inc
                .result
                .graph
                .edges(i_oid)
                .iter()
                .map(|e| {
                    let target = match &e.to {
                        Value::Node(o) => inc
                            .result
                            .graph
                            .node_name(*o)
                            .map(str::to_owned)
                            .unwrap_or_else(|| format!("{o}")),
                        other => format!("{other}"),
                    };
                    (inc.result.graph.label_name(e.label).to_owned(), target)
                })
                .collect();
            f_edges.sort();
            i_edges.sort();
            assert_eq!(
                &f_edges, &i_edges,
                "seed {seed}: {symbol}({args:?}) diverged"
            );
        }
        // Orphans: keys the full evaluation no longer creates must be bare.
        for (key, oid) in inc.result.skolem.iter() {
            let alive = full.skolem_node(key.symbol, key.args).is_some();
            if !alive {
                assert_eq!(
                    inc.result.graph.edges(oid).len(),
                    0,
                    "seed {seed}: orphan {key:?} kept content"
                );
            }
        }
    }
}

/// Negation and a Kleene closure in one guard, under chains of random edge
/// deletions: every round equals a fresh evaluation up to site nodes that
/// lost every derivation. Deleting a `link` edge shrinks closures
/// (retracting rows through the middle of paths, orphaning `Seen` nodes);
/// deleting a `hidden` edge flips a `not(…)` (adding rows, re-adopting
/// lingering nodes through the resumed Skolem table).
#[test]
fn negation_and_kleene_stay_incremental_under_edge_deletions() {
    use strudel::schema::incremental::{equivalent_modulo_orphans, incremental_update};
    use strudel_graph::{GraphDelta, Oid};
    let program = strudel::struql::parse(
        r#"
        where Items(x), x -> "link"* -> y, not(y -> "hidden" -> h)
        create Page(x), Seen(y)
        link Page(x) -> "reaches" -> Seen(y)
        collect Pages(Page(x))
    "#,
    )
    .unwrap();
    let mut propagated = 0u64;
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(500 + seed);
        let n = rng.gen_range(4..16usize);
        let mut g = Graph::new();
        for i in 0..n {
            let node = g.add_named_node(&format!("item{i}"));
            g.collect_str("Items", node);
            if rng.gen_bool(0.3) {
                g.add_edge_str(node, "hidden", Value::Bool(true));
            }
            for _ in 0..rng.gen_range(0..3usize) {
                let to = Oid::from_index(rng.gen_range(0..=i));
                g.add_edge_str(node, "link", Value::Node(to));
            }
        }
        let mut db = Database::from_graph(g, IndexLevel::Full);
        let mut site = Evaluator::new(&db).eval(&program).unwrap();
        for round in 0..6 {
            let edges: Vec<(Oid, String, Value)> = db
                .graph()
                .node_oids()
                .flat_map(|o| {
                    let g = db.graph();
                    g.edges(o)
                        .iter()
                        .map(move |e| (o, g.label_name(e.label).to_owned(), e.to.clone()))
                })
                .collect();
            if edges.is_empty() {
                break;
            }
            let mut delta = GraphDelta::new();
            for _ in 0..rng.gen_range(1..=2usize).min(edges.len()) {
                let (from, label, to) = strudel_prng::choose(&mut rng, &edges).clone();
                if !delta.ops().iter().any(|op| {
                    matches!(op, strudel_graph::DeltaOp::RemoveEdge { from: f, label: l, to: t }
                        if *f == from && l.as_ref() == label && *t == to)
                }) {
                    delta.remove_edge(from, &label, to);
                }
            }
            let inc = incremental_update(&program, &db, &delta, site).unwrap();
            propagated += u64::from(inc.rows_recomputed > 0);

            let mut g2 = db.graph().clone();
            delta.apply(&mut g2).unwrap();
            db = Database::from_graph(g2, IndexLevel::Full);
            let full = Evaluator::new(&db).eval(&program).unwrap();
            assert!(
                equivalent_modulo_orphans(&inc.result.graph, &full.graph),
                "seed {seed} round {round}: {:?}",
                delta.ops()
            );
            site = inc.result;
        }
    }
    assert!(propagated > CASES, "most deletions must change some row");
}

/// The HTML generator never panics and always escapes markup from
/// data: rendered pages contain no raw `<script` coming from titles.
#[test]
fn rendering_is_safe_for_hostile_titles() {
    for seed in 0..8u64 {
        let mut rng = SmallRng::seed_from_u64(400 + seed);
        let n = rng.gen_range(1..8usize);
        let mut g = Graph::new();
        let root = g.add_named_node("Root");
        for i in 0..n {
            let p = g.add_named_node(&format!("p{i}"));
            g.add_edge_str(
                p,
                "title",
                Value::string(format!("<script>alert({i})</script>")),
            );
            g.add_edge_str(root, "child", Value::Node(p));
        }
        let mut ts = strudel::template::TemplateSet::new();
        ts.add_template("t", "<h1><SFMT title></h1><SFMT child UL>")
            .unwrap();
        ts.set_default("t");
        let out = strudel::template::HtmlGenerator::new(&g, &ts)
            .generate(&[root])
            .unwrap();
        for p in &out.pages {
            assert!(!p.html.contains("<script>alert"), "seed {seed}");
        }
    }
}
