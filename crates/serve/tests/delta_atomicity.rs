//! A delta is atomic per response. While client threads hammer a fixed
//! URL set, the writer applies a delta to the live service. Every
//! response observed concurrently must byte-equal either the pre-delta
//! render or the post-delta render of that URL — never a mix of the two
//! epochs — and once `apply_delta` returns, every URL serves the new
//! epoch. This holds the engine's snapshot swap and the epoch-fenced
//! HTML cache to it, seeded and byte-exact.

use std::sync::atomic::{AtomicBool, Ordering};
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
        object a5 in Articles { title : "Fifth"; body : "epsilon"; }
        object a6 in Articles { title : "Sixth"; body : "zeta"; }
    "#,
    )
    .unwrap()
}

fn templates() -> TemplateSet {
    let mut templates = TemplateSet::new();
    templates
        .add_template(
            "article",
            "<html><h1><SFMT title></h1><p><SFMT body></p></html>",
        )
        .unwrap();
    templates
        .add_template(
            "root",
            "<html><SFMT story UL ORDER=ascend KEY=title></html>",
        )
        .unwrap();
    templates.assign_object("RootPage", "root");
    templates.assign_collection("ArticlePages", "article");
    templates
}

fn build(graph: Graph) -> SiteService {
    let db = Arc::new(Database::from_graph(graph, IndexLevel::Full));
    let program = strudel_struql::parse(QUERY).unwrap();
    SiteService::from_parts(db, &program, templates(), "Roots", Mode::Context)
}

/// A delta that only rewrites titles/bodies of existing articles, so the
/// reachable URL set is stable across its application — the shape the
/// concurrent pre-or-post property needs.
fn mutation_delta(rng: &mut SmallRng, g: &Graph) -> GraphDelta {
    let mut delta = GraphDelta::new();
    for _ in 0..rng.gen_range(1..=3usize) {
        let oid = Oid::from_index(rng.gen_range(0..g.node_count()));
        let label = *strudel_prng::choose(rng, &["title", "body"]);
        delta.add_edge(
            oid,
            label,
            Value::string(format!("rev{}", rng.gen_range(0..1000u32)).as_str()),
        );
    }
    delta
}

#[test]
fn concurrent_clicks_see_pre_or_post_delta_never_a_mix() {
    for seed in 0..3u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut graph = base_graph();
        let live = Arc::new(build(graph.clone()));
        let urls: Arc<Vec<String>> = Arc::new(site_urls(|u| live.handle(u)));
        assert!(urls.len() > 4, "crawl found the article pages");

        for round in 0..4 {
            // Title/body rewrites keep the URL set fixed, so pre/post
            // renders of the same URL are directly comparable.
            let delta = mutation_delta(&mut rng, &graph);
            let pre: Vec<String> = urls.iter().map(|u| live.handle(u).body).collect();
            delta
                .apply(&mut graph)
                .expect("mutation deltas always apply");
            let oracle = build(graph.clone());
            let post: Vec<String> = urls.iter().map(|u| oracle.handle(u).body).collect();

            let stop = Arc::new(AtomicBool::new(false));
            let readers: Vec<_> = (0..4)
                .map(|t| {
                    let live = Arc::clone(&live);
                    let urls = Arc::clone(&urls);
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        let mut observed: Vec<(usize, String)> = Vec::new();
                        let mut pass = 0usize;
                        while !stop.load(Ordering::Acquire) || pass < 2 {
                            for (i, u) in urls.iter().enumerate() {
                                observed.push((i, live.handle(u).body));
                            }
                            pass += 1;
                            if pass > 10_000 {
                                break; // safety valve; the writer is fast
                            }
                        }
                        (t, observed)
                    })
                })
                .collect();

            // Let the readers get going, then swap epochs underneath them.
            std::thread::yield_now();
            live.apply_delta(&delta)
                .unwrap_or_else(|e| panic!("seed {seed} round {round}: {e}"));
            stop.store(true, Ordering::Release);

            for r in readers {
                let (t, observed) = r.join().unwrap();
                for (i, body) in observed {
                    assert!(
                        body == pre[i] || body == post[i],
                        "seed {seed} round {round} reader {t}: {} served bytes \
                         belonging to neither epoch:\n{body}",
                        urls[i]
                    );
                }
            }

            // Once the writer returns, every URL must serve post.
            for (i, u) in urls.iter().enumerate() {
                assert_eq!(
                    live.handle(u).body,
                    post[i],
                    "seed {seed} round {round}: {u} settled on the new epoch"
                );
            }
        }
    }
}
