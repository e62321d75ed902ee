//! Seeded randomized deltas against a live service.
//!
//! The property: after any mixed insert/delete delta, the live service
//! (which invalidates incrementally and keeps serving from its caches)
//! must answer every crawled URL with bytes identical to a service built
//! from scratch on the post-delta database. A stale cache entry that
//! invalidation failed to evict, a half-applied snapshot, or a crash in
//! `dirty_pages` all fail this loop. Deltas are generated from
//! `strudel-prng`, so every failure reproduces from its seed.

use std::collections::HashSet;
use std::sync::Arc;

use strudel_graph::{ddl, Graph, GraphDelta, Oid, Value};
use strudel_prng::{Rng, SeedableRng, SmallRng};
use strudel_repo::{Database, IndexLevel};
use strudel_schema::dynamic::Mode;
use strudel_serve::crawl::site_urls;
use strudel_serve::SiteService;
use strudel_template::TemplateSet;

const QUERY: &str = r#"
    create RootPage()
    where Articles(x)
    create ArticlePage(x)
    link RootPage() -> "story" -> ArticlePage(x)
    collect Roots(RootPage()), ArticlePages(ArticlePage(x))
    { where x -> "title" -> t
      link ArticlePage(x) -> "title" -> t }
    { where x -> "body" -> b
      link ArticlePage(x) -> "body" -> b }
"#;

fn base_graph() -> Graph {
    ddl::parse(
        r#"
        object a1 in Articles { title : "First"; body : "alpha"; }
        object a2 in Articles { title : "Second"; body : "beta"; }
        object a3 in Articles { title : "Third"; body : "gamma"; }
        object a4 in Articles { title : "Fourth"; body : "delta"; }
    "#,
    )
    .unwrap()
}

fn build_service(graph: Graph) -> SiteService {
    let db = Arc::new(Database::from_graph(graph, IndexLevel::Full));
    let program = strudel_struql::parse(QUERY).unwrap();
    let mut templates = TemplateSet::new();
    templates
        .add_template("article", "<html><h1><SFMT title></h1><p><SFMT body></p></html>")
        .unwrap();
    templates
        .add_template("root", "<html><SFMT story UL ORDER=ascend KEY=title></html>")
        .unwrap();
    templates.assign_object("RootPage", "root");
    templates.assign_collection("ArticlePages", "article");
    SiteService::from_parts(db, &program, templates, "Roots", Mode::Context)
}

/// A random, always-applicable mixed delta over the current graph.
/// Removals are drawn from edges/members that exist and deduplicated so
/// the delta never fails to apply; one op flavor is the self-cancelling
/// create-link-unlink sequence that used to crash `dirty_pages`.
fn random_delta(rng: &mut SmallRng, g: &Graph) -> GraphDelta {
    let mut delta = GraphDelta::new();
    let mut next_oid = g.node_count();
    let mut removed_edges: HashSet<(Oid, String, String)> = HashSet::new();
    let mut uncollected: HashSet<String> = HashSet::new();
    for _ in 0..rng.gen_range(1..=3usize) {
        match rng.gen_range(0..5u32) {
            0 => {
                // A brand-new article.
                let oid = Oid::from_index(next_oid);
                next_oid += 1;
                delta.add_node(None);
                delta.add_edge(
                    oid,
                    "title",
                    Value::string(format!("New {}", rng.gen_range(0..1000u32)).as_str()),
                );
                if rng.gen_bool(0.5) {
                    delta.add_edge(oid, "body", Value::string("fresh"));
                }
                delta.collect("Articles", Value::Node(oid));
            }
            1 => {
                // A new attribute on an existing node.
                let oid = Oid::from_index(rng.gen_range(0..g.node_count()));
                let label = *strudel_prng::choose(rng, &["title", "body", "note"]);
                delta.add_edge(
                    oid,
                    label,
                    Value::string(format!("v{}", rng.gen_range(0..1000u32)).as_str()),
                );
            }
            2 => {
                // Remove one existing edge (at most once per delta).
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
                if removed_edges.insert((oid, label.clone(), format!("{to:?}"))) {
                    delta.remove_edge(oid, &label, to);
                }
            }
            3 => {
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
            _ => {
                // The self-cancelling sequence: create, link, unlink.
                let oid = Oid::from_index(next_oid);
                next_oid += 1;
                let title = Value::string("Ephemeral");
                delta.add_node(None);
                delta.add_edge(oid, "title", title.clone());
                delta.collect("Articles", Value::Node(oid));
                delta.remove_edge(oid, "title", title);
                delta.uncollect("Articles", Value::Node(oid));
            }
        }
    }
    delta
}

#[test]
fn random_mixed_deltas_keep_live_service_equal_to_fresh_build() {
    for seed in 0..4u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut graph = base_graph();
        let live = build_service(graph.clone());
        // Pre-warm so later rounds exercise cached pages, not just misses.
        for url in site_urls(|u| live.handle(u)) {
            live.handle(&url);
        }

        for round in 0..6 {
            let delta = random_delta(&mut rng, &graph);
            delta.apply(&mut graph).expect("generated deltas always apply");
            live.apply_delta(&delta)
                .unwrap_or_else(|e| panic!("seed {seed} round {round}: {e}"));

            let fresh = build_service(graph.clone());
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
        }
    }
}
