//! Cross-crate property tests: randomized data graphs and queries flowing
//! through the whole stack, generated from a deterministic seeded PRNG.

use std::collections::HashMap;
use std::sync::Arc;
use strudel::repo::{Database, IndexLevel};
use strudel::schema::dynamic::{DynamicSite, Metrics, Mode, PageKey};
use strudel::struql::{EvalOptions, Evaluator, Program};
use strudel_graph::{Graph, GraphDelta, Oid, Value};
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
                let r = Evaluator::with_options(&db, EvalOptions { optimize })
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

/// `key`'s view, edges sorted: a patched page lists its links by first
/// supporting row, a fresh one by evaluation order.
fn view(site: &DynamicSite, key: &PageKey) -> Vec<String> {
    let view = site.visit(key).unwrap();
    let mut edges: Vec<String> = view.edges.iter().map(|e| format!("{e:?}")).collect();
    edges.sort_unstable();
    edges
}

/// Each reachable page's view.
fn crawl(site: &DynamicSite, root: &str) -> HashMap<PageKey, Vec<String>> {
    let keys = site.crawl(root).unwrap();
    keys.into_iter()
        .map(|key| {
            let edges = view(site, &key);
            (key, edges)
        })
        .collect()
}

/// A fully crawled click engine matches a fresh engine on its current
/// database: the same reachable pages with equal views, and equal views
/// for `known` pages the crawl no longer reaches (no derived content
/// survives its derivations).
fn assert_matches_fresh(
    site: &DynamicSite,
    program: &Program,
    root: &str,
    known: &[PageKey],
    context: &str,
) {
    let fresh = DynamicSite::new(site.database(), program, Mode::Context);
    let expected = crawl(&fresh, root);
    assert_eq!(crawl(site, root), expected, "{context}: reachable pages differ");
    for key in known.iter().filter(|k| !expected.contains_key(*k)) {
        assert_eq!(
            view(site, key),
            view(&fresh, key),
            "{context}: unreachable {key:?} kept content"
        );
    }
}

/// A `Mode::Context` engine over `g` for the Fig. 3 query, fully crawled;
/// the pages the crawl reached.
fn homepage_site(g: Graph) -> (DynamicSite, Program, Vec<PageKey>) {
    let program = strudel::struql::parse(strudel::sites::HOMEPAGE_QUERY).unwrap();
    let db = Arc::new(Database::from_graph(g, IndexLevel::Full));
    let site = DynamicSite::new(db, &program, Mode::Context);
    let known = site.crawl("HomeRoot").unwrap();
    (site, program, known)
}

/// The click engine's patched pages equal a fresh engine's for arbitrary
/// single-publication inserts.
#[test]
fn incremental_equals_full() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(200 + seed);
        let g = pub_graph(&mut rng);
        let year = rng.gen_range(1990i64..2000);
        let base = g.node_count();
        let (site, program, known) = homepage_site(g);

        let mut delta = GraphDelta::new();
        delta.add_node(Some("fresh"));
        let oid = Oid::from_index(base);
        delta.add_edge(oid, "title", Value::string("Fresh"));
        delta.add_edge(oid, "year", Value::Int(year));
        delta.collect("Publications", Value::Node(oid));
        site.apply_delta(&delta).unwrap();

        assert_eq!(site.metrics().diff_fallbacks, 0, "seed {seed}");
        assert_matches_fresh(&site, &program, "HomeRoot", &known, &format!("seed {seed}"));
    }
}

/// Deletions agree with a fresh engine: every reachable page has the
/// same out-edges, and a page that lost its derivations (a year page
/// whose last paper left it, the removed paper's own pages) keeps none.
#[test]
fn dred_deletions_match_full() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(300 + seed);
        let g = pub_graph(&mut rng);
        let victim_idx = rng.gen_range(0..25usize);
        let pubs = g.members_str("Publications").to_vec();
        let victim = &pubs[victim_idx % pubs.len()];
        let victim_oid = victim.as_node().unwrap();

        // Delete either the membership or the year edge (when present).
        let mut delta = GraphDelta::new();
        match g.first_attr_str(victim_oid, "year").cloned() {
            Some(y) => delta.remove_edge(victim_oid, "year", y),
            None => delta.uncollect("Publications", victim.clone()),
        }
        let (site, program, known) = homepage_site(g);
        site.apply_delta(&delta).unwrap();

        assert_eq!(site.metrics().diff_fallbacks, 0, "seed {seed}");
        assert_matches_fresh(&site, &program, "HomeRoot", &known, &format!("seed {seed}"));
    }
}

/// Negation and a Kleene closure in one guard, under chains of random edge
/// deletions: after every round the crawled engine matches a fresh one.
/// Deleting a `link` edge shrinks closures (retracting rows through the
/// middle of paths, cutting `Seen` pages off); deleting a `hidden` edge
/// flips a `not(…)` (adding rows).
#[test]
fn negation_and_kleene_stay_incremental_under_edge_deletions() {
    let program = strudel::struql::parse(
        r#"
        where Items(x), x -> "link"* -> y, not(y -> "hidden" -> h)
        create Page(x), Seen(y)
        link Page(x) -> "reaches" -> Seen(y)
        collect Pages(Page(x))
    "#,
    )
    .unwrap();
    let rows = |m: Metrics| m.diff_rows_added + m.diff_rows_retracted;
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
        let db = Arc::new(Database::from_graph(g, IndexLevel::Full));
        let site = DynamicSite::new(db, &program, Mode::Context);
        for round in 0..6 {
            let known = site.crawl("Pages").unwrap();
            let db = site.database();
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
            // Released before the delta, so the delta applies in place
            // without copying the database.
            drop(db);
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
            let before = rows(site.metrics());
            site.apply_delta(&delta).unwrap();
            propagated += u64::from(rows(site.metrics()) > before);

            let context = format!("seed {seed} round {round}: {:?}", delta.ops());
            assert_eq!(site.metrics().diff_fallbacks, 0, "{context}");
            assert_matches_fresh(&site, &program, "Pages", &known, &context);
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
