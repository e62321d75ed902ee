//! Transport counters reconcile with what a client did. A seeded run
//! over a `SiteService` front — connections opened and held, requests
//! per connection drawn from a seed, late arrivals shed at the
//! connection cap — must leave `strudel_open_connections`,
//! `strudel_keepalive_reuse_total` and `strudel_shed_total` equal to the
//! client's own counts, in the stats struct and on `/metrics` alike.

mod common;

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use common::{read_response, wait_for};

use strudel::sites::news_site;
use strudel_prng::{Rng, SeedableRng, SmallRng};
use strudel_schema::dynamic::Mode;
use strudel_serve::{serve, ServerConfig, SiteService};
use strudel_workload::news::{generate, NewsConfig};

fn service() -> Arc<SiteService> {
    let corpus = generate(&NewsConfig {
        articles: 8,
        ..Default::default()
    });
    let site = news_site(&corpus.pages).build().unwrap();
    Arc::new(SiteService::new(&site, Mode::Context))
}

/// The three rows as `/metrics` prints them (not only as the struct
/// holds them).
fn exposed(service: &SiteService, row: &str) -> u64 {
    let text = service.handle("/metrics").body;
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
    let paths = ["/", "/metrics", "/no/such/route", "/healthz"];

    // The client's own books.
    let mut reuses = 0u64;
    let mut held = Vec::new();
    for _ in 0..HELD {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let requests = rng.gen_range(1..6u64);
        for _ in 0..requests {
            let path = paths[rng.gen_range(0..paths.len())];
            write!(&stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
            let (head, _) = read_response(&mut reader).expect("a framed response");
            assert!(!head.starts_with("HTTP/1.1 503"), "a held seat is served");
        }
        reuses += requests - 1;
        held.push((stream, reader));
    }
    let mut shed = 0u64;
    for _ in 0..LATE {
        let mut refused = String::new();
        let _ = TcpStream::connect(addr).unwrap().read_to_string(&mut refused);
        assert!(refused.starts_with("HTTP/1.1 503"), "past the cap: {refused}");
        shed += 1;
    }

    let stats = service.stats();
    assert_eq!(stats.open_connections, HELD as u64);
    assert_eq!(stats.keepalive_reuse, reuses);
    assert_eq!(stats.shed, shed);
    assert_eq!(exposed(&service, "strudel_open_connections"), HELD as u64);
    assert_eq!(exposed(&service, "strudel_keepalive_reuse_total"), reuses);
    assert_eq!(exposed(&service, "strudel_shed_total"), shed);

    drop(held);
    wait_for("the gauge to drain", || service.stats().open_connections == 0);
    server.shutdown();
}
