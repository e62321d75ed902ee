//! A dynamic web site served at "click time" by `strudel-serve` — pages
//! are computed on demand from the site schema's incremental queries
//! (§2.5/§7), rendered with the site's real templates, cached, and
//! invalidated precisely when the data changes. Plain `std::net`, no
//! dependencies.
//!
//! The example starts the server on an ephemeral port with a small worker
//! pool, crawls itself over HTTP (front page → section → article), edits
//! one article through a data delta to show precise cache invalidation,
//! prints the server stats, and exits — so it doubles as an end-to-end
//! check. Pass `--serve` to keep it running and browse it yourself.
//!
//! ```text
//! cargo run --release -p strudel-serve --example serve_dynamic            # self-test
//! cargo run --release -p strudel-serve --example serve_dynamic -- --serve # interactive
//! ```

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use strudel::sites::news_site;
use strudel_schema::dynamic::Mode;
use strudel_serve::{serve, ServerConfig, SiteService};
use strudel_workload::news::{generate, NewsConfig};

fn fetch(addr: std::net::SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    write!(s, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    out
}

/// First `/page/…` href in `html` that differs from `not_this`.
fn first_page_link(html: &str, not_this: &str) -> Option<String> {
    html.split("href=\"")
        .skip(1)
        .filter_map(|rest| {
            let href = &rest[..rest.find('"')?];
            href.starts_with("/page/").then(|| href.to_string())
        })
        .find(|href| href != not_this)
}

fn main() {
    let serve_forever = std::env::args().any(|a| a == "--serve");

    let corpus = generate(&NewsConfig {
        articles: 200,
        ..Default::default()
    });
    let site = news_site(&corpus.pages).build().expect("site builds");
    let service = Arc::new(SiteService::new(&site, Mode::Context));

    let server = serve(
        service.clone(),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.addr();
    println!("dynamic Strudel site at http://{addr}/ (click-time evaluation, nothing pre-rendered)");

    if serve_forever {
        // Park forever; ^C exits.
        loop {
            std::thread::park();
        }
    }

    // Self-test: front page → first section → first story, over HTTP.
    let index = fetch(addr, "/");
    assert!(index.starts_with("HTTP/1.1 200"), "index serves");
    let front_path = first_page_link(&index, "").expect("index links the front page");
    let front = fetch(addr, &front_path);
    assert!(front.starts_with("HTTP/1.1 200"), "front page serves");
    println!("\nGET {front_path} -> {} bytes", front.len());

    let section_path = first_page_link(&front, &front_path).expect("front links a section");
    let section = fetch(addr, &section_path);
    assert!(section.starts_with("HTTP/1.1 200"));
    println!("GET {section_path} -> {} bytes", section.len());

    let article_path = section
        .split("href=\"")
        .skip(1)
        .filter_map(|rest| {
            let href = &rest[..rest.find('"')?];
            href.starts_with("/page/ArticlePage").then(|| href.to_string())
        })
        .next()
        .expect("section links its stories");
    let article = fetch(addr, &article_path);
    assert!(article.starts_with("HTTP/1.1 200"));
    println!("GET {article_path} -> {} bytes", article.len());

    // Edit one article through a delta: its page (and the pages listing
    // it) re-render; everything else keeps serving from cache.
    let db = service.engine().database();
    let key = strudel_serve::router::parse_page_path(&article_path, db.graph())
        .expect("article URL round-trips");
    let strudel::graph::Value::Node(article_oid) = key.args[0].clone() else {
        panic!("article pages are keyed by their data node");
    };
    let old_title = db
        .graph()
        .first_attr_str(article_oid, "title")
        .expect("articles have titles")
        .clone();
    drop(db);
    let mut delta = strudel::graph::GraphDelta::new();
    delta.remove_edge(article_oid, "title", old_title);
    delta.add_edge(
        article_oid,
        "title",
        strudel::graph::Value::string("BREAKING: delta applied"),
    );
    let outcome = service.apply_delta(&delta).expect("delta applies");
    println!(
        "\ndelta: {} page views evicted, {} cached renditions evicted",
        outcome.engine.evicted, outcome.html_evicted
    );
    let re_fetched = fetch(addr, &article_path);
    assert!(
        re_fetched.contains("BREAKING: delta applied"),
        "edited article re-renders with the new title"
    );

    let metrics = fetch(addr, "/metrics");
    assert!(metrics.contains("strudel_requests_total"));
    let stats = service.stats();
    println!(
        "\nserver stats: {} requests (p50 {} µs, p99 {} µs), html cache {:.0}% hit, {} engine queries",
        stats.total.requests,
        stats.total.p50_us,
        stats.total.p99_us,
        stats.html_cache.hit_rate() * 100.0,
        stats.engine.queries_run,
    );

    server.shutdown();
    println!("\nself-test passed: pages served at click time, delta invalidation precise");
}
