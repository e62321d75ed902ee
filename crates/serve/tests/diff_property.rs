//! Seeded randomized deltas against a live, differentially maintained
//! service with a Kleene-closure guard.
//!
//! The property: after any mixed insert/retract delta — including
//! retractions of `rel` edges feeding the `rel*` closure — the live
//! service (which maintains dirty cached pages in place and double-
//! buffers its database) must:
//!
//! * answer every crawled URL with bytes identical to a service built
//!   from scratch on the post-delta graph;
//! * serve engine page views row-equal to a cold engine's (the per-row
//!   oracle); and
//! * hold a database whose statically materialized site graph is
//!   equivalent (`graphs_equivalent`) to one materialized from the
//!   locally accumulated graph — catching any drift in the standby
//!   twin's catch-up lineage.
//!
//! Deltas are generated from `strudel-prng`, so every failure reproduces
//! from its seed. The same delta chains also hold the live service to the
//! static build: after every delta, the site crawled by href is the
//! static rebuild's, byte for byte.

#[path = "common/oracle.rs"]
mod oracle;

use std::collections::HashSet;
use std::sync::Arc;

use oracle::{assert_same_site, served_pages, static_pages};
use strudel_graph::{ddl, graphs_equivalent, Graph, GraphDelta, Oid, Value};
use strudel_prng::{Rng, SeedableRng, SmallRng};
use strudel_repo::{Database, IndexLevel};
use strudel_schema::dynamic::{Mode, PageKey};
use strudel_serve::crawl::site_urls;
use strudel_serve::SiteService;
use strudel_struql::Evaluator;
use strudel_template::TemplateSet;

const QUERY: &str = r#"
    create RootPage()
    where Articles(x)
    create ArticlePage(x)
    link RootPage() -> "story" -> ArticlePage(x)
    collect Roots(RootPage()), ArticlePages(ArticlePage(x))
    { where x -> "title" -> t
      link ArticlePage(x) -> "title" -> t }
    { where x -> "rel"* -> y, Articles(y), y -> "title" -> t
      link ArticlePage(x) -> "related" -> t }
"#;

fn base_graph() -> Graph {
    let g = ddl::parse(
        r#"
        object a1 in Articles { title : "First"; }
        object a2 in Articles { title : "Second"; }
        object a3 in Articles { title : "Third"; }
        object a4 in Articles { title : "Fourth"; }
    "#,
    )
    .unwrap();
    let mut g = g;
    let a1 = g.node_by_name("a1").unwrap();
    let a2 = g.node_by_name("a2").unwrap();
    let a3 = g.node_by_name("a3").unwrap();
    g.add_edge_str(a1, "rel", Value::Node(a2));
    g.add_edge_str(a2, "rel", Value::Node(a3));
    g
}

fn build_service(graph: Graph) -> SiteService {
    let db = Arc::new(Database::from_graph(graph, IndexLevel::Full));
    let program = strudel_struql::parse(QUERY).unwrap();
    let mut templates = TemplateSet::new();
    // Maintained views preserve the edge *set* but may append fresh rows
    // at the end, so rendition must not depend on derivation order:
    // every list is sorted.
    templates
        .add_template(
            "article",
            "<html><h1><SFMT title></h1><SFMT related UL ORDER=ascend></html>",
        )
        .unwrap();
    templates
        .add_template("root", "<html><SFMT story UL ORDER=ascend KEY=title></html>")
        .unwrap();
    templates.assign_object("RootPage", "root");
    templates.assign_collection("ArticlePages", "article");
    SiteService::from_parts(db, &program, templates, "Roots", Mode::Context)
}

/// A random, always-applicable mixed delta: new articles, retitles,
/// `rel` edges added between existing articles (cycles allowed), `rel`
/// retractions feeding the Kleene closure, and membership removals.
fn random_delta(rng: &mut SmallRng, g: &Graph) -> GraphDelta {
    let mut delta = GraphDelta::new();
    let mut next_oid = g.node_count();
    let mut removed: HashSet<(Oid, String, String)> = HashSet::new();
    let mut uncollected: HashSet<String> = HashSet::new();
    for _ in 0..rng.gen_range(1..=3usize) {
        match rng.gen_range(0..6u32) {
            0 => {
                // A brand-new related article.
                let oid = Oid::from_index(next_oid);
                next_oid += 1;
                delta.add_node(None);
                delta.add_edge(
                    oid,
                    "title",
                    Value::string(format!("New {}", rng.gen_range(0..1000u32)).as_str()),
                );
                let other = Oid::from_index(rng.gen_range(0..g.node_count()));
                delta.add_edge(oid, "rel", Value::Node(other));
                delta.collect("Articles", Value::Node(oid));
            }
            1 => {
                // A new rel edge between existing nodes (cycles allowed).
                let from = Oid::from_index(rng.gen_range(0..g.node_count()));
                let to = Oid::from_index(rng.gen_range(0..g.node_count()));
                delta.add_edge(from, "rel", Value::Node(to));
            }
            2 => {
                // Retract one existing rel edge: paths through it must
                // disappear from every rel* cone, exactly.
                let mut candidates = Vec::new();
                for idx in 0..g.node_count() {
                    let oid = Oid::from_index(idx);
                    for e in g.edges(oid) {
                        if g.label_name(e.label) == "rel" {
                            candidates.push((oid, e.to.clone()));
                        }
                    }
                }
                if candidates.is_empty() {
                    continue;
                }
                let (oid, to) = strudel_prng::choose(rng, &candidates).clone();
                if removed.insert((oid, "rel".into(), format!("{to:?}"))) {
                    delta.remove_edge(oid, "rel", to);
                }
            }
            3 => {
                // Retitle an existing node.
                let oid = Oid::from_index(rng.gen_range(0..g.node_count()));
                delta.add_edge(
                    oid,
                    "title",
                    Value::string(format!("Re {}", rng.gen_range(0..1000u32)).as_str()),
                );
            }
            4 => {
                // Retract any one existing edge.
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
            _ => {
                // Drop one article from the collection.
                let members = g.members_str("Articles");
                if members.is_empty() {
                    continue;
                }
                let member = strudel_prng::choose(rng, members).clone();
                if uncollected.insert(format!("{member:?}")) {
                    delta.uncollect("Articles", member);
                }
            }
        }
    }
    delta
}

fn sorted_view(
    v: Arc<strudel_schema::dynamic::PageView>,
) -> Vec<(String, strudel_schema::dynamic::DynTarget)> {
    let mut edges = v.edges.clone();
    edges.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    edges
}

#[test]
fn random_kleene_deltas_keep_maintained_service_equal_to_fresh_build() {
    for seed in 0..4u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut graph = base_graph();
        let live = build_service(graph.clone());
        // Pre-warm so later rounds exercise maintained pages, not misses.
        for url in site_urls(|u| live.handle(u)) {
            live.handle(&url);
        }

        for round in 0..6 {
            let delta = random_delta(&mut rng, &graph);
            delta.apply(&mut graph).expect("generated deltas always apply");
            live.apply_delta(&delta)
                .unwrap_or_else(|e| panic!("seed {seed} round {round}: {e}"));

            let fresh = build_service(graph.clone());

            // Byte-equality over everything reachable.
            let live_urls = site_urls(|u| live.handle(u));
            let fresh_urls = site_urls(|u| fresh.handle(u));
            assert_eq!(
                live_urls, fresh_urls,
                "seed {seed} round {round}: reachable URL sets diverged"
            );
            for url in &live_urls {
                let a = live.handle(url);
                let b = fresh.handle(url);
                assert_eq!(
                    (a.status, a.body),
                    (b.status, b.body),
                    "seed {seed} round {round}: {url} diverged after {:?}",
                    delta.ops()
                );
            }

            // Per-row oracle: maintained page views carry exactly the
            // rows a cold engine derives.
            for key in live.engine().roots("ArticlePages").unwrap() {
                assert_eq!(
                    sorted_view(live.engine().visit(&key).unwrap()),
                    sorted_view(fresh.engine().visit(&key).unwrap()),
                    "seed {seed} round {round}: page {key:?} rows diverged"
                );
            }

            // Lineage oracle: the live database has only ever seen
            // twin catch-ups and swaps; its statically materialized site
            // must be equivalent to one built from the local graph.
            let program = strudel_struql::parse(QUERY).unwrap();
            let live_db = live.engine().database();
            let via_live = Evaluator::new(&live_db).eval(&program).unwrap();
            let reference_db = Database::from_graph(graph.clone(), IndexLevel::Full);
            let via_local = Evaluator::new(&reference_db).eval(&program).unwrap();
            assert!(
                graphs_equivalent(&via_live.graph, &via_local.graph),
                "seed {seed} round {round}: materialized sites diverged"
            );
        }
        let m = live.stats().engine;
        assert!(
            m.diff_pages_updated > 0,
            "seed {seed}: maintenance never engaged: {m:?}"
        );
    }
}

#[test]
fn random_kleene_deltas_keep_served_site_equal_to_static_rebuild() {
    let program = strudel_struql::parse(QUERY).unwrap();
    for seed in 0..4u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut graph = base_graph();
        let live = build_service(graph.clone());
        served_pages(&live);

        for round in 0..6 {
            let delta = random_delta(&mut rng, &graph);
            delta.apply(&mut graph).expect("generated deltas always apply");
            live.apply_delta(&delta)
                .unwrap_or_else(|e| panic!("seed {seed} round {round}: {e}"));

            let db = Database::from_graph(graph.clone(), IndexLevel::Full);
            let built = Evaluator::new(&db).eval(&program).unwrap();
            let roots: Vec<Oid> = built
                .graph
                .members_str("Roots")
                .iter()
                .filter_map(Value::as_node)
                .collect();
            let expected = static_pages(&built.graph, &built.skolem, live.templates(), &roots);
            assert_same_site(
                &served_pages(&live),
                &expected,
                &format!("seed {seed} round {round} after {:?}", delta.ops()),
            );
        }
    }
}

/// A page that embeds its children reads their links too: the title of
/// a paper that only an embedded abstract links is part of the abstracts
/// page, so editing it evicts that page although neither the page nor
/// the abstract is dirty.
#[test]
fn an_edit_to_an_embedded_pages_link_target_evicts_the_embedding_page() {
    const EMBED_QUERY: &str = r#"
        create AbstractsPage()
        collect Roots(AbstractsPage())
        where Publications(x)
        create AbstractPage(x), PaperPage(x)
        link AbstractsPage() -> "Abstract" -> AbstractPage(x),
             AbstractPage(x) -> "Paper" -> PaperPage(x)
        collect AbstractPages(AbstractPage(x))
        { where x -> "title" -> t
          link PaperPage(x) -> "title" -> t }
    "#;
    let mut graph = ddl::parse(
        r#"
        object p1 in Publications { title : "Alpha"; }
        object p2 in Publications { title : "Beta"; }
    "#,
    )
    .unwrap();
    let program = strudel_struql::parse(EMBED_QUERY).unwrap();
    let mut templates = TemplateSet::new();
    templates
        .add_template("abstracts", "<SFMT Abstract EMBED UL ORDER=ascend>")
        .unwrap();
    templates.add_template("abstract", "<p><SFMT Paper></p>").unwrap();
    templates.assign_object("AbstractsPage", "abstracts");
    templates.assign_collection("AbstractPages", "abstract");
    let service = |graph: &Graph| {
        let db = Arc::new(Database::from_graph(graph.clone(), IndexLevel::Full));
        SiteService::from_parts(db, &program, templates.clone(), "Roots", Mode::Context)
    };

    let live = service(&graph);
    let url = "/page/AbstractsPage";
    assert!(live.handle(url).body.contains(">Alpha</a>"));

    let p1 = graph.node_by_name("p1").unwrap();
    let mut delta = GraphDelta::new();
    delta.remove_edge(p1, "title", Value::string("Alpha"));
    delta.add_edge(p1, "title", Value::string("Gamma"));
    delta.apply(&mut graph).unwrap();
    let outcome = live.apply_delta(&delta).unwrap();
    let page = PageKey {
        symbol: "AbstractsPage".into(),
        args: vec![],
    };
    let abstract_page = PageKey {
        symbol: "AbstractPage".into(),
        args: vec![Value::Node(p1)],
    };
    assert!(
        !outcome.engine.dirty.contains(&page) && !outcome.engine.dirty.contains(&abstract_page),
        "only the paper page is dirty: {:?}",
        outcome.engine.dirty
    );
    assert!(outcome.html_evicted >= 1, "the abstracts page is evicted");

    let body = live.handle(url).body;
    assert!(body.contains(">Gamma</a>") && !body.contains("Alpha"), "{body}");
    assert_eq!(body, service(&graph).handle(url).body);
}
