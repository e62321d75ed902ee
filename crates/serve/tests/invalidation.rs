//! Delta-driven cache invalidation at the service level: editing article
//! X evicts X's rendition (and the pages whose link text shows X), while
//! untouched pages keep serving straight from the rendered-HTML cache —
//! asserted through the cache hit/miss counters.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use strudel_graph::{ddl, GraphDelta, Value};
use strudel_repo::{Database, IndexLevel};
use strudel_schema::dynamic::{DynamicSite, Mode, PageKey};
use strudel_serve::{render, serve, InlineDecline, ServerConfig, SiteService, Transport};
use strudel_struql::Parallelism;
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

fn service() -> SiteService {
    let g = ddl::parse(
        r#"
        object a1 in Articles { title : "First post"; body : "alpha"; }
        object a2 in Articles { title : "Second post"; body : "beta"; }
        object a3 in Articles { title : "Third post"; body : "gamma"; }
    "#,
    )
    .unwrap();
    let db = Arc::new(Database::from_graph(g, IndexLevel::Full));
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

fn article_key(service: &SiteService, name: &str) -> PageKey {
    let db = service.engine().database();
    PageKey {
        symbol: "ArticlePage".into(),
        args: vec![Value::Node(db.graph().node_by_name(name).unwrap())],
    }
}

#[test]
fn delta_evicts_dirty_article_but_not_neighbors() {
    let service = service();
    let x = article_key(&service, "a1");
    let y = article_key(&service, "a2");
    let x_url = service.url_of(&x);
    let y_url = service.url_of(&y);

    // Cold: both render and cache.
    let x_before = service.handle(&x_url);
    assert_eq!(x_before.status, 200);
    assert!(x_before.body.contains("<h1>First post</h1>"), "{}", x_before.body);
    assert_eq!(service.handle(&y_url).status, 200);
    let warm = service.cache().stats();
    assert_eq!((warm.hits, warm.misses, warm.entries), (0, 2, 2));

    // Warm: second fetches are pure cache hits.
    service.handle(&x_url);
    service.handle(&y_url);
    assert_eq!(service.cache().stats().hits, 2);

    // Edit X's title through a delta.
    let db = service.engine().database();
    let a1 = db.graph().node_by_name("a1").unwrap();
    drop(db);
    let mut delta = GraphDelta::new();
    delta.remove_edge(a1, "title", Value::string("First post"));
    delta.add_edge(a1, "title", Value::string("First post, revised"));
    let outcome = service.apply_delta(&delta).unwrap();
    assert!(outcome.engine.dirty.contains(&x), "{:?}", outcome.engine.dirty);
    assert!(!outcome.engine.dirty.contains(&y));
    // X evicted; the root's rendition shows X's title (KEY + link text),
    // so it would have been evicted too had it been cached — here only X
    // and Y are cached, so exactly one rendition goes.
    assert_eq!(outcome.html_evicted, 1);
    assert_eq!(service.cache().len(), 1);

    // X re-renders with the new content (a miss)...
    let stats = service.cache().stats();
    let x_after = service.handle(&x_url);
    assert!(x_after.body.contains("First post, revised"), "{}", x_after.body);
    assert_eq!(service.cache().stats().misses, stats.misses + 1);
    assert_eq!(service.cache().stats().hits, stats.hits);

    // ...while untouched Y still serves from cache (a hit).
    let y_after = service.handle(&y_url);
    assert!(y_after.body.contains("Second post"));
    assert_eq!(service.cache().stats().hits, stats.hits + 1);
}

#[test]
fn root_rendition_depends_on_listed_articles() {
    let service = service();
    let root = PageKey {
        symbol: "RootPage".into(),
        args: vec![],
    };
    let root_url = service.url_of(&root);
    let first = service.handle(&root_url);
    assert_eq!(first.status, 200);
    assert!(first.body.contains("First post"), "link text: {}", first.body);

    // Editing a1's title dirties ArticlePage(a1); the root page *listed*
    // that title, so its rendition must go too (dependency eviction).
    let db = service.engine().database();
    let a1 = db.graph().node_by_name("a1").unwrap();
    drop(db);
    let mut delta = GraphDelta::new();
    delta.remove_edge(a1, "title", Value::string("First post"));
    delta.add_edge(a1, "title", Value::string("Zeroth post"));
    let outcome = service.apply_delta(&delta).unwrap();
    assert!(outcome.html_evicted >= 1, "root rendition evicted");

    let second = service.handle(&root_url);
    assert!(second.body.contains("Zeroth post"), "{}", second.body);
    assert!(!second.body.contains("First post"));
}

#[test]
fn unrelated_delta_keeps_everything_cached() {
    let service = service();
    let x_url = service.url_of(&article_key(&service, "a1"));
    service.handle(&x_url);

    let db = service.engine().database();
    let a1 = db.graph().node_by_name("a1").unwrap();
    drop(db);
    let mut delta = GraphDelta::new();
    delta.add_edge(a1, "internal-note", Value::string("draft"));
    let outcome = service.apply_delta(&delta).unwrap();
    assert!(outcome.engine.dirty.is_empty());
    assert_eq!(outcome.html_evicted, 0);

    let before = service.cache().stats().hits;
    service.handle(&x_url);
    assert_eq!(service.cache().stats().hits, before + 1, "still cached");
}

#[test]
fn self_cancelling_mixed_delta_served_live() {
    // Regression: a delta that creates an article, links it, and then
    // removes the link again produces delete facts whose oids the
    // pre-delta graph never issued. `invalidate::dirty_pages` used to
    // unify those facts against the old database and index out of
    // bounds, crashing the live server's apply_delta path.
    let service = service();
    let x = article_key(&service, "a1");
    let x_url = service.url_of(&x);
    let before = service.handle(&x_url);
    assert_eq!(before.status, 200);

    let db = service.engine().database();
    let a4 = strudel_graph::Oid::from_index(db.graph().node_count());
    drop(db);
    let mut delta = GraphDelta::new();
    delta.add_node(Some("a4"));
    delta.add_edge(a4, "title", Value::string("Ghost post"));
    delta.collect("Articles", Value::Node(a4));
    delta.remove_edge(a4, "title", Value::string("Ghost post"));
    delta.uncollect("Articles", Value::Node(a4));

    let outcome = service.apply_delta(&delta).unwrap();
    // The net effect is an uncollected, attribute-less node: no existing
    // article's page may be dirtied by it.
    assert!(!outcome.engine.dirty.contains(&x), "{:?}", outcome.engine.dirty);

    // The service keeps serving the same content afterwards.
    let after = service.handle(&x_url);
    assert_eq!(after.status, 200);
    assert_eq!(before.body, after.body);
}

#[test]
fn self_cancelling_delta_with_path_only_guard_served_live() {
    // The sharpest form of the same regression, live: a site query whose
    // guards carry no collection atom. The phantom delete fact's seeds
    // reach `graph.edges()` with the never-issued oid directly, so the
    // unguarded `dirty_pages` panics inside `apply_delta` instead of
    // serving.
    let g = ddl::parse(
        r#"
        object a1 in Articles { title : "First post"; }
        object a2 in Articles { title : "Second post"; }
    "#,
    )
    .unwrap();
    let db = Arc::new(Database::from_graph(g, IndexLevel::Full));
    let program = strudel_struql::parse(
        r#"
        create RootPage()
        where x -> "title" -> t
        create TitlePage(x)
        link RootPage() -> "entry" -> TitlePage(x),
             TitlePage(x) -> "title" -> t
        collect Roots(RootPage()), TitlePages(TitlePage(x))
    "#,
    )
    .unwrap();
    let mut templates = TemplateSet::new();
    templates
        .add_template("entry", "<html><h1><SFMT title></h1></html>")
        .unwrap();
    templates
        .add_template("root", "<html><SFMT entry UL ORDER=ascend KEY=title></html>")
        .unwrap();
    templates.assign_object("RootPage", "root");
    templates.assign_collection("TitlePages", "entry");
    let service = SiteService::from_parts(db, &program, templates, "Roots", Mode::Context);

    let x_url = {
        let db = service.engine().database();
        let a1 = db.graph().node_by_name("a1").unwrap();
        drop(db);
        service.url_of(&PageKey {
            symbol: "TitlePage".into(),
            args: vec![Value::Node(a1)],
        })
    };
    let before = service.handle(&x_url);
    assert_eq!(before.status, 200);

    let db = service.engine().database();
    let ghost = strudel_graph::Oid::from_index(db.graph().node_count());
    drop(db);
    let mut delta = GraphDelta::new();
    delta.add_node(None);
    delta.add_edge(ghost, "title", Value::string("Ghost post"));
    delta.remove_edge(ghost, "title", Value::string("Ghost post"));

    service.apply_delta(&delta).unwrap();
    let after = service.handle(&x_url);
    assert_eq!(after.status, 200);
    assert_eq!(before.body, after.body);
}

#[test]
fn rejected_delta_leaves_service_intact() {
    // Atomicity: a delta that fails mid-application (valid first op,
    // impossible second op) must not swap in a half-applied snapshot —
    // the epoch, the database, and both caches stay exactly as they were.
    let service = service();
    let x = article_key(&service, "a1");
    let x_url = service.url_of(&x);
    let before = service.handle(&x_url);
    assert_eq!(before.status, 200);
    let epoch_before = service.engine().epoch();
    let db_before = service.engine().database();
    let nodes_before = db_before.graph().node_count();
    let edges_before = db_before.graph().edge_count();
    drop(db_before);
    let cached_before = service.cache().len();

    let db = service.engine().database();
    let a1 = db.graph().node_by_name("a1").unwrap();
    drop(db);
    let mut delta = GraphDelta::new();
    delta.add_edge(a1, "note", Value::string("applied first"));
    delta.remove_edge(a1, "no-such-label", Value::string("never existed"));
    assert!(service.apply_delta(&delta).is_err(), "delta must be rejected");

    assert_eq!(service.engine().epoch(), epoch_before, "no epoch bump");
    let db_after = service.engine().database();
    assert_eq!(db_after.graph().node_count(), nodes_before);
    assert_eq!(
        db_after.graph().edge_count(),
        edges_before,
        "the first op must not leak into the served snapshot"
    );
    assert!(
        db_after.graph().attr_str(a1, "note").next().is_none(),
        "half-applied edge absent"
    );
    drop(db_after);
    assert_eq!(service.cache().len(), cached_before, "nothing evicted");

    // And the page still serves byte-identical content, from cache.
    let hits = service.cache().stats().hits;
    let after = service.handle(&x_url);
    assert_eq!(before.body, after.body);
    assert_eq!(service.cache().stats().hits, hits + 1);
}

/// Regression: `DynamicSite::apply_delta` used to bump the epoch and swap
/// the snapshot *before* replacing dirty cached views. A reader taking its
/// epoch in between paired the new epoch with the pre-delta view, and its
/// rendition passed the HTML cache's epoch fence after
/// `HtmlCache::invalidate` had already run — the page stayed stale until
/// some later delta dirtied it again. `read_epoch` is how the reader
/// fences: `snapshot()` as `render_into_cache` does, or `epoch()`.
fn reader_parked_in_the_swap_window(read_epoch: fn(&DynamicSite) -> u64) {
    let service = service();
    let x = article_key(&service, "a1");
    let x_url = service.url_of(&x);
    // X's view sits in the engine cache but its rendition is not in the
    // HTML cache, so the reader below has to render it.
    service.engine().visit(&x).unwrap();

    let (in_window_tx, in_window_rx) = mpsc::channel();
    let (rendered_tx, rendered_rx) = mpsc::channel();
    let rendered_rx = Mutex::new(rendered_rx);
    service.engine().arm_swap_probe(move || {
        in_window_tx.send(()).unwrap();
        // The writer holds the window open until the reader has rendered.
        // With view replacement unobservable under the new epoch the
        // reader cannot get that far — it is parked on the snapshot lock
        // until this section ends — and the wait runs out instead.
        let _ = rendered_rx
            .lock()
            .unwrap()
            .recv_timeout(Duration::from_millis(250));
    });

    let a1 = service.engine().database().graph().node_by_name("a1").unwrap();
    let mut delta = GraphDelta::new();
    delta.remove_edge(a1, "title", Value::string("First post"));
    delta.add_edge(a1, "title", Value::string("First post, revised"));

    let (service, x) = (&service, &x);
    std::thread::scope(|s| {
        let reader = s.spawn(move || {
            in_window_rx.recv().unwrap();
            // `SiteService::render_into_cache`, step by step, so the
            // insert can be held back until invalidation has run.
            let epoch = read_epoch(service.engine());
            let page = render::render_page(service.engine(), service.templates(), x).unwrap();
            rendered_tx.send(()).unwrap();
            (epoch, page)
        });
        service.apply_delta(&delta).unwrap();
        let (epoch, page) = reader.join().unwrap();
        service
            .cache()
            .insert_if(x.clone(), page, || service.engine().epoch() == epoch);
    });

    let after = service.handle(&x_url);
    assert!(
        after.body.contains("First post, revised"),
        "a stale rendition was pinned: {}",
        after.body
    );
}

#[test]
fn reader_parked_in_the_swap_window_cannot_pin_a_stale_rendition() {
    reader_parked_in_the_swap_window(|engine| engine.snapshot().0);
}

#[test]
fn warm_style_epoch_read_in_the_swap_window_cannot_pin_a_stale_rendition() {
    reader_parked_in_the_swap_window(|engine| engine.epoch());
}

/// The reactor answers warm pages on its own thread, and a delta holds
/// the engine's snapshot lock across its whole view swap — so the inline
/// path must *try* that lock and hand the click to the pool when a delta
/// has it, never wait. Parked inside the swap window, a delta must not
/// keep the reactor from answering another connection.
#[test]
fn a_delta_parked_in_the_swap_window_does_not_block_the_reactor() {
    if !common::transports().contains(&Transport::Epoll) {
        return;
    }
    let service = Arc::new(service());
    service.warm(Parallelism::Sequential).unwrap();
    let x_url = service.url_of(&article_key(&service, "a1"));
    let server = serve(
        service.clone(),
        ServerConfig {
            workers: 2,
            transport: Transport::Epoll,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let get = move |path: &str| {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    };
    assert!(get(&x_url).contains("First post"), "warm, and answered inline");
    assert_eq!(service.inline_stats().hits, 1);

    let (in_window_tx, in_window_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = Mutex::new(release_rx);
    service.engine().arm_swap_probe(move || {
        in_window_tx.send(()).unwrap();
        // Holds the snapshot write lock until the test lets go. Were the
        // reactor parked behind it, nothing below could release it: the
        // wait runs out instead and the assertions fail.
        let _ = release_rx.lock().unwrap().recv_timeout(Duration::from_secs(5));
    });

    let a1 = service.engine().database().graph().node_by_name("a1").unwrap();
    let mut delta = GraphDelta::new();
    delta.remove_edge(a1, "title", Value::string("First post"));
    delta.add_edge(a1, "title", Value::string("First post, revised"));

    std::thread::scope(|s| {
        let writer = s.spawn(|| service.apply_delta(&delta).unwrap());
        in_window_rx.recv().unwrap();

        // A click on the warm page: the reactor must decline it — that
        // is the counter ticking — and a pool thread waits out the delta.
        let page = s.spawn(|| get(&x_url));
        let declined = || service.inline_stats().declined[InlineDecline::DeltaInFlight as usize];
        let t0 = Instant::now();
        while declined() == 0 {
            assert!(t0.elapsed() < Duration::from_secs(4), "the reactor never declined the click");
            std::thread::yield_now();
        }

        // With that click parked, the reactor still answers others.
        let t0 = Instant::now();
        let health = get("/healthz");
        let took = t0.elapsed();
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        assert!(took < Duration::from_millis(500), "/healthz waited on the delta: {took:?}");

        // The page click is still out: it completes after the delta.
        assert!(!page.is_finished(), "the click was answered inside the swap window");
        release_tx.send(()).unwrap();
        writer.join().unwrap();
        let page = page.join().unwrap();
        assert!(page.starts_with("HTTP/1.1 200") && page.contains("First post"), "{page}");
    });
    let metrics = get("/metrics");
    assert!(
        metrics.contains("strudel_inline_declined_total{reason=\"delta_in_flight\"} 1\n"),
        "{metrics}"
    );
    server.shutdown();
}

#[test]
fn metrics_report_epoch_and_hit_rate() {
    let service = service();
    let x_url = service.url_of(&article_key(&service, "a1"));
    service.handle(&x_url);
    service.handle(&x_url);
    service.handle("/metrics");
    let stats = service.stats();
    assert_eq!(stats.epoch, 0);
    assert!((stats.html_cache.hit_rate() - 0.5).abs() < 1e-9);
    let text = stats.to_text();
    assert!(text.contains("strudel_route_requests_total{route=\"page/ArticlePage\"} 2"));
}

/// Page keys match structurally, guards by coercion: `/page/YearPage/s:1998`
/// is served from data that says `Int 1998`, and a delta on that year —
/// whose rows name `YearPage(Int 1998)` — must reach the aliased URL's
/// view and rendition too. Before the coercion-class rule the alias stayed
/// stale for good.
#[test]
fn a_delta_reaches_the_page_cached_under_a_coercion_equal_url() {
    const YEARS: &str = r#"
        where Publications(x), x -> "year" -> y, x -> "title" -> t
        create YearPage(y)
        link YearPage(y) -> "paper" -> t
        collect Years(YearPage(y))
    "#;
    let build = |graph: strudel_graph::Graph| {
        let mut templates = TemplateSet::new();
        templates
            .add_template("year", "<html><SFMT paper UL ORDER=ascend></html>")
            .unwrap();
        templates.assign_collection("Years", "year");
        SiteService::from_parts(
            Arc::new(Database::from_graph(graph, IndexLevel::Full)),
            &strudel_struql::parse(YEARS).unwrap(),
            templates,
            "Years",
            Mode::Context,
        )
    };
    let mut graph = ddl::parse(
        r#"
        object p1 in Publications { title : "Alpha"; year : 1997; }
        object p2 in Publications { title : "Beta"; year : 1998; }
    "#,
    )
    .unwrap();
    let live = build(graph.clone());
    let (exact, alias) = ("/page/YearPage/i:1998", "/page/YearPage/s:1998");
    for url in [exact, alias] {
        let r = live.handle(url);
        assert!(r.status == 200 && r.body.contains("Beta"), "{url}: {}", r.body);
    }
    assert_eq!(live.cache().len(), 2, "both spellings are cached");

    let mut delta = GraphDelta::new();
    delta.add_node(Some("p3"));
    let p3 = strudel_graph::Oid::from_index(graph.node_count());
    delta.add_edge(p3, "title", Value::string("Gamma"));
    delta.add_edge(p3, "year", Value::Int(1998));
    delta.collect("Publications", Value::Node(p3));
    delta.apply(&mut graph).unwrap();
    let outcome = live.apply_delta(&delta).unwrap();
    assert_eq!(outcome.html_evicted, 2, "{outcome:?}");

    let fresh = build(graph);
    for url in [exact, alias] {
        let r = live.handle(url);
        assert!(r.body.contains("Gamma"), "{url} is stale: {}", r.body);
        assert_eq!(r.body, fresh.handle(url).body, "{url}");
    }
}
