//! The sharded service must be observationally identical to the single
//! service it replaced.
//!
//! Two properties, both seeded and byte-exact:
//!
//! 1. **Routing is invisible.** For any shard count, every crawled URL
//!    answers with bytes identical to the unsharded service — before and
//!    after every random delta. A shard that misses an invalidation, or
//!    a router that sends a URL to a shard with a stale snapshot, fails
//!    this loop.
//! 2. **Deltas are atomic per response.** While client threads hammer a
//!    fixed URL set, the writer applies a delta. Every response observed
//!    concurrently must byte-equal either the pre-delta render or the
//!    post-delta render of that URL — never a mix of the two epochs.

mod common;

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use strudel_graph::{ddl, Graph, GraphDelta, Oid, Value};
use strudel_prng::{Rng, SeedableRng, SmallRng};
use strudel_repo::{Database, IndexLevel};
use strudel_schema::dynamic::Mode;
use strudel_serve::{ShardedService, SiteService};
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
        .add_template("article", "<html><h1><SFMT title></h1><p><SFMT body></p></html>")
        .unwrap();
    templates
        .add_template("root", "<html><SFMT story UL ORDER=ascend KEY=title></html>")
        .unwrap();
    templates.assign_object("RootPage", "root");
    templates.assign_collection("ArticlePages", "article");
    templates
}

fn build_single(graph: Graph) -> SiteService {
    let db = Arc::new(Database::from_graph(graph, IndexLevel::Full));
    let program = strudel_struql::parse(QUERY).unwrap();
    SiteService::from_parts(db, &program, templates(), "Roots", Mode::Context)
}

fn build_sharded(graph: Graph, shards: usize) -> ShardedService {
    let db = Arc::new(Database::from_graph(graph, IndexLevel::Full));
    let program = strudel_struql::parse(QUERY).unwrap();
    ShardedService::from_parts(db, &program, templates(), "Roots", Mode::Context, shards)
}

/// A random, always-applicable mixed delta (same generator family as
/// `property.rs`: inserts, attribute edits, edge/member removals).
fn random_delta(rng: &mut SmallRng, g: &Graph) -> GraphDelta {
    let mut delta = GraphDelta::new();
    let mut next_oid = g.node_count();
    let mut removed_edges: HashSet<(Oid, String, String)> = HashSet::new();
    let mut uncollected: HashSet<String> = HashSet::new();
    for _ in 0..rng.gen_range(1..=3usize) {
        match rng.gen_range(0..4u32) {
            0 => {
                let oid = Oid::from_index(next_oid);
                next_oid += 1;
                delta.add_node(None);
                delta.add_edge(
                    oid,
                    "title",
                    Value::string(format!("New {}", rng.gen_range(0..1000u32)).as_str()),
                );
                delta.add_edge(oid, "body", Value::string("fresh"));
                delta.collect("Articles", Value::Node(oid));
            }
            1 => {
                let oid = Oid::from_index(rng.gen_range(0..g.node_count()));
                let label = *strudel_prng::choose(rng, &["title", "body", "note"]);
                delta.add_edge(
                    oid,
                    label,
                    Value::string(format!("v{}", rng.gen_range(0..1000u32)).as_str()),
                );
            }
            2 => {
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
            _ => {
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

/// Every URL reachable from `/` by following `/page/…` hrefs, via any
/// `handle`-shaped service.
fn crawl(handle: impl Fn(&str) -> String) -> Vec<String> {
    let mut urls = vec!["/".to_string()];
    let mut i = 0;
    while i < urls.len() {
        let body = handle(&urls[i]);
        for part in body.split("href=\"").skip(1) {
            if let Some(end) = part.find('"') {
                let href = &part[..end];
                if href.starts_with("/page/") && !urls.iter().any(|u| u == href) {
                    urls.push(href.to_string());
                }
            }
        }
        i += 1;
    }
    urls
}

#[test]
fn sharded_service_byte_equals_unsharded_across_deltas() {
    for seed in 0..3u64 {
        for shards in [1usize, 2, 4] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut graph = base_graph();
            let single = build_single(graph.clone());
            let sharded = build_sharded(graph.clone(), shards);

            for round in 0..5 {
                let single_urls = crawl(|u| single.handle(u).body);
                let sharded_urls = crawl(|u| sharded.handle(u).body);
                assert_eq!(
                    single_urls, sharded_urls,
                    "seed {seed} shards {shards} round {round}: URL sets diverged"
                );
                for url in &single_urls {
                    let a = single.handle(url);
                    let b = sharded.handle(url);
                    assert_eq!(
                        (a.status, a.body),
                        (b.status, b.body),
                        "seed {seed} shards {shards} round {round}: {url}"
                    );
                }

                let delta = random_delta(&mut rng, &graph);
                delta.apply(&mut graph).expect("generated deltas always apply");
                single
                    .apply_delta(&delta)
                    .unwrap_or_else(|e| panic!("seed {seed} round {round} single: {e}"));
                sharded
                    .apply_delta(&delta)
                    .unwrap_or_else(|e| panic!("seed {seed} round {round} sharded: {e}"));
                assert_eq!(
                    sharded.delta_epoch(),
                    (round + 1) as u64,
                    "barrier epoch advances once per delta"
                );
            }
        }
    }
}

#[test]
fn sharded_service_serves_over_http_with_shard_metrics() {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use strudel_serve::{serve, ServerConfig};

    for transport in common::transports() {
        let sharded = Arc::new(build_sharded(base_graph(), 4));
        let reference: Vec<(String, String)> = crawl(|u| sharded.handle(u).body)
            .into_iter()
            .map(|u| {
                let body = sharded.handle(&u).body;
                (u, body)
            })
            .collect();
        // Every page into its owner shard's cache: the reactor
        // answers those through the front's `try_warm`.
        sharded.warm(strudel_struql::Parallelism::Threads(2)).unwrap();

        let server = serve(
            Arc::clone(&sharded),
            ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: 2,
                transport,
                ..Default::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        let get = |path: &str| {
            let mut s = TcpStream::connect(addr).unwrap();
            write!(s, "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
                .unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        };

        for (url, body) in &reference {
            let response = get(url);
            assert!(response.starts_with("HTTP/1.1 200"), "{url}: {response}");
            assert_eq!(
                response.split("\r\n\r\n").nth(1).unwrap_or(""),
                body,
                "{url} ({transport:?})"
            );
        }

        let metrics = get("/metrics");
        let inline_hits = match transport {
            strudel_serve::Transport::Epoll => {
                reference.iter().filter(|(u, _)| u.starts_with("/page/")).count()
            }
            strudel_serve::Transport::Threads => 0,
        };
        for needle in [
            format!("strudel_inline_hits_total {inline_hits}\n").as_str(),
            "strudel_shards 4",
            "strudel_shard_requests_total{shard=\"0\"}",
            "strudel_shard_requests_total{shard=\"3\"}",
            "strudel_shard_epoch{shard=\"1\"}",
            "strudel_shard_published_hits_total{shard=\"2\"}",
            "strudel_requests_total",
        ] {
            assert!(metrics.contains(needle), "missing {needle} in:\n{metrics}");
        }
        server.shutdown();
    }
}

#[test]
fn concurrent_clicks_see_pre_or_post_delta_never_a_mix() {
    for seed in 0..3u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut graph = base_graph();
        let sharded = Arc::new(build_sharded(graph.clone(), 3));
        let urls: Arc<Vec<String>> = Arc::new(crawl(|u| sharded.handle(u).body));
        assert!(urls.len() > 4, "crawl found the article pages");

        for round in 0..4 {
            // Title/body rewrites keep the URL set fixed, so pre/post
            // renders of the same URL are directly comparable.
            let delta = mutation_delta(&mut rng, &graph);
            let pre: Vec<String> = urls.iter().map(|u| sharded.handle(u).body).collect();
            delta.apply(&mut graph).expect("mutation deltas always apply");
            let oracle = build_single(graph.clone());
            let post: Vec<String> = urls.iter().map(|u| oracle.handle(u).body).collect();

            let stop = Arc::new(AtomicBool::new(false));
            let readers: Vec<_> = (0..4)
                .map(|t| {
                    let sharded = Arc::clone(&sharded);
                    let urls = Arc::clone(&urls);
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        let mut observed: Vec<(usize, String)> = Vec::new();
                        let mut pass = 0usize;
                        while !stop.load(Ordering::Acquire) || pass < 2 {
                            for (i, u) in urls.iter().enumerate() {
                                observed.push((i, sharded.handle(u).body));
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
            sharded
                .apply_delta(&delta)
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

            // Once the writer returns, every shard must serve post.
            for (i, u) in urls.iter().enumerate() {
                assert_eq!(
                    sharded.handle(u).body,
                    post[i],
                    "seed {seed} round {round}: {u} settled on the new epoch"
                );
            }
        }
    }
}

#[test]
fn a_shard_panicking_mid_apply_is_rebuilt_not_left_an_epoch_behind() {
    let mut rng = SmallRng::seed_from_u64(7);
    let graph = base_graph();
    let single = build_single(graph.clone());
    let sharded = build_sharded(graph.clone(), 3);

    // Shard 2 panics applying the delta — after the store would have
    // committed and after shard 0 (the validation gate) swapped. Before
    // the rebuild path existed this stranded shard 2 an epoch behind its
    // siblings, serving mixed-epoch responses forever.
    let delta = mutation_delta(&mut rng, &graph);
    sharded.shard(2).arm_delta_fault();
    let outcome = sharded.apply_delta(&delta).expect("the broadcast survives");
    assert_eq!(outcome.rebuilt_shards, vec![2], "the panicked shard was rebuilt");
    single.apply_delta(&delta).unwrap();

    // Every shard — including the rebuilt one, asked directly — now
    // byte-equals the never-faulted oracle.
    for url in crawl(|u| single.handle(u).body) {
        let want = single.handle(&url);
        for i in 0..3 {
            let got = sharded.shard(i).handle(&url);
            assert_eq!(
                (got.status, &got.body),
                (want.status, &want.body),
                "shard {i} on {url}"
            );
        }
    }

    // The repaired fleet takes later deltas cleanly.
    let delta = mutation_delta(&mut rng, &graph);
    let outcome = sharded.apply_delta(&delta).unwrap();
    assert!(outcome.rebuilt_shards.is_empty(), "no faults, no rebuilds");
    single.apply_delta(&delta).unwrap();
    for url in crawl(|u| single.handle(u).body) {
        assert_eq!(sharded.handle(&url).body, single.handle(&url).body, "{url}");
    }
}
