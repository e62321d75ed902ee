//! Transport counters reconcile with what a client did. A seeded run
//! over a `SiteService` front — connections opened and held, requests
//! per connection drawn from a seed, late arrivals shed at the
//! connection cap — must leave `strudel_open_connections`,
//! `strudel_keepalive_reuse_total` and `strudel_shed_total` equal to the
//! client's own counts, in the stats struct and on `/metrics` alike. The
//! warm page clicks among its requests are answered inline, so the same
//! run pins the inline books: one count per inline hit, the HTML cache's
//! `try_get` hits, and the pool's share is every other request. And the
//! pool's hand-backs: the seed also sends pipelined pairs and
//! `Connection: close` requests, and only those, when the pool answers
//! them, come back to the reactor to finish — every other pool answer
//! is written whole by its worker (the pages are far smaller than a
//! socket buffer, so no write comes up short).

mod common;

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use common::{read_response, wait_for};

use strudel::sites::news_site;
use strudel_prng::{Rng, SeedableRng, SmallRng};
use strudel_schema::dynamic::Mode;
use strudel_serve::{serve, ServerConfig, SiteService};
use strudel_struql::Parallelism;
use strudel_workload::news::{generate, NewsConfig};

fn service() -> Arc<SiteService> {
    let corpus = generate(&NewsConfig {
        articles: 8,
        ..Default::default()
    });
    let site = news_site(&corpus.pages).build().unwrap();
    let service = SiteService::new(&site, Mode::Context);
    service.warm(Parallelism::Sequential).unwrap();
    Arc::new(service)
}

/// The three rows as `/metrics` prints them (not only as the struct
/// holds them).
fn exposed(service: &SiteService, row: &str) -> u64 {
    row_of(&service.handle("/metrics").body, row)
}

/// One row's value in a `/metrics` body.
fn row_of(text: &str, row: &str) -> u64 {
    let prefix = format!("{row} ");
    text.lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()))
        .unwrap_or_else(|| panic!("no {row} row in:\n{text}"))
        .parse()
        .unwrap()
}

#[test]
fn a_seeded_run_reconciles_with_the_fronts_counters() {
    const HELD: usize = 5;
    const LATE: usize = 3;
    let service = service();
    let server = serve(
        service.clone(),
        ServerConfig {
            workers: 2,
            max_connections: HELD,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let mut rng = SmallRng::seed_from_u64(23);
    let roots = service.engine().roots(service.root_collection()).unwrap();
    let page = service.url_of(&roots[0]);
    let paths = ["/", "/metrics", "/no/such/route", "/healthz", page.as_str()];

    // The client's own books.
    let (mut sent, mut pages) = (0u64, 0u64);
    let mut reuses = 0u64;
    // Pool answers the client's mix sends back to the reactor: a
    // `Connection: close` request, or the first of a pipelined pair,
    // that is not the warm page.
    let mut handbacks = 0u64;
    let request = |path: &str, close: bool| {
        let connection = if close { "Connection: close\r\n" } else { "" };
        format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n{connection}\r\n")
    };

    // Connections that come and go: a few kept-alive requests, then one
    // that closes.
    for _ in 0..HELD {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let requests = rng.gen_range(1..4u64);
        for i in 0..requests {
            let path = paths[rng.gen_range(0..paths.len())];
            let close = i + 1 == requests;
            sent += 1;
            pages += u64::from(path == page);
            handbacks += u64::from(close && path != page);
            (&stream)
                .write_all(request(path, close).as_bytes())
                .unwrap();
            read_response(&mut reader).expect("a framed response");
        }
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "the server closed after the last answer");
        reuses += requests - 1;
    }

    // Held connections: single requests and pipelined pairs, each pair
    // in one write.
    let mut held = Vec::new();
    for _ in 0..HELD {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut requests = 0u64;
        for _ in 0..rng.gen_range(1..6u64) {
            let pair = rng.gen_bool(0.4);
            let burst: Vec<&str> = (0..1 + usize::from(pair))
                .map(|_| paths[rng.gen_range(0..paths.len())])
                .collect();
            let bytes: String = burst.iter().map(|path| request(path, false)).collect();
            (&stream).write_all(bytes.as_bytes()).unwrap();
            for path in &burst {
                let (head, _) = read_response(&mut reader).expect("a framed response");
                assert!(!head.starts_with("HTTP/1.1 503"), "a held seat is served");
                pages += u64::from(*path == page);
            }
            handbacks += u64::from(pair && burst[0] != page);
            requests += burst.len() as u64;
        }
        sent += requests;
        reuses += requests - 1;
        held.push((stream, reader));
    }
    let mut shed = 0u64;
    for _ in 0..LATE {
        let mut refused = String::new();
        let _ = TcpStream::connect(addr)
            .unwrap()
            .read_to_string(&mut refused);
        assert!(
            refused.starts_with("HTTP/1.1 503"),
            "past the cap: {refused}"
        );
        shed += 1;
    }

    let stats = service.stats();
    assert_eq!(stats.open_connections, HELD as u64);
    assert_eq!(stats.keepalive_reuse, reuses);
    assert_eq!(stats.shed, shed);
    assert_eq!(stats.pool_handbacks, handbacks);
    assert_eq!(exposed(&service, "strudel_open_connections"), HELD as u64);
    assert_eq!(exposed(&service, "strudel_keepalive_reuse_total"), reuses);
    assert_eq!(exposed(&service, "strudel_shed_total"), shed);
    assert_eq!(exposed(&service, "strudel_pool_handbacks_total"), handbacks);

    // Every warm page click went inline, counted once, as the cache's
    // published hit; the pool answered every other request.
    assert!(pages > 0, "the seed clicks the warm page");
    assert!(handbacks > 0, "the seed sends what the pool hands back");
    assert_eq!(stats.total.requests, sent);
    assert_eq!(stats.inline.hits, pages);
    assert_eq!(stats.inline.hits, stats.html_cache.published_hits);
    assert_eq!(stats.inline.pool_dispatches, sent - pages);
    let text = service.handle("/metrics").body;
    assert_eq!(
        row_of(&text, "strudel_inline_hits_total"),
        row_of(&text, "strudel_html_cache_published_hits_total")
    );
    assert_eq!(
        row_of(&text, "strudel_pool_dispatches_total"),
        row_of(&text, "strudel_requests_total") - row_of(&text, "strudel_inline_hits_total")
    );

    drop(held);
    wait_for("the gauge to drain", || {
        service.stats().open_connections == 0
    });
    server.shutdown();
}
