//! Failure-mode regression tests: a panicking handler must cost one
//! request (500 + counter), never a worker; a saturated backlog must shed
//! with a `503` + `Retry-After`, never queue unbounded work; and both
//! outcomes must be visible on `/metrics`. Each scenario runs against
//! every supported transport (thread pool and epoll reactor).

mod common;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use strudel::sites::news_site;
use strudel_schema::dynamic::Mode;
use strudel_serve::{serve, ClickService, FaultProbe, ServerConfig, SiteService};
use strudel_struql::Parallelism;
use strudel_workload::news::{generate, NewsConfig};

fn service() -> Arc<SiteService> {
    let corpus = generate(&NewsConfig {
        articles: 8,
        ..Default::default()
    });
    let site = news_site(&corpus.pages).build().unwrap();
    Arc::new(SiteService::new(&site, Mode::Context))
}

/// Warms `svc` and returns one of its pages: cached, so the reactor
/// would answer it inline — unless a probe is armed, which
/// must send every click through `handle` where probes fire.
fn warm_page(svc: &SiteService) -> String {
    svc.warm(Parallelism::Threads(2)).unwrap();
    let roots = svc.engine().roots(svc.root_collection()).unwrap();
    svc.url_of(&roots[0])
}

fn get(addr: SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    // A shed connection may be answered and closed before the request is
    // even written; tolerate the failed write and read what was sent.
    // `Connection: close` keeps `read_to_string` prompt on the reactor.
    let _ = write!(s, "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n");
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    out
}

#[test]
fn a_panicking_handler_costs_one_request_not_the_server() {
    for transport in common::transports() {
        let svc = service();
        let server = serve(
            svc.clone(),
            ServerConfig {
                workers: 2,
                transport,
                ..Default::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        let page = warm_page(&svc);
        assert!(get(addr, "/").starts_with("HTTP/1.1 200"));
        assert!(get(addr, &page).starts_with("HTTP/1.1 200"));

        // A route that does not exist, and a page that is warm.
        for boom in ["/boom", page.as_str()] {
            svc.arm_probe(boom, FaultProbe::Panic);
            for _ in 0..3 {
                let r = get(addr, boom);
                assert!(r.starts_with("HTTP/1.1 500"), "panic answers 500: {r}");
            }
            svc.clear_probes();
        }
        assert_eq!(svc.stats().panics, 6, "every panic counted ({transport:?})");

        // Both workers took a panic; both must still be serving.
        for _ in 0..4 {
            assert!(get(addr, "/").starts_with("HTTP/1.1 200"));
        }
        assert!(get(addr, "/boom").starts_with("HTTP/1.1 404"), "probe cleared");
        assert!(get(addr, &page).starts_with("HTTP/1.1 200"), "probe cleared");

        let metrics = get(addr, "/metrics");
        assert!(
            metrics.contains("strudel_panics_total 6"),
            "panics exposed on /metrics: {metrics}"
        );
        server.shutdown();
    }
}

#[test]
fn a_saturated_backlog_sheds_with_retry_after() {
    for transport in common::transports() {
        let svc = service();
        let server = serve(
            svc.clone(),
            ServerConfig {
                workers: 1,
                max_backlog: 1,
                retry_after_secs: 7,
                transport,
                ..Default::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        let page = warm_page(&svc);
        assert!(get(addr, "/").starts_with("HTTP/1.1 200"));

        // Stall the single worker — on a warm page, which only reaches a
        // worker because a probe is armed — fill the one backlog slot,
        // then watch further connections bounce straight off the accept
        // path.
        svc.arm_probe(&page, FaultProbe::Stall(Duration::from_millis(900)));
        let stalled: Vec<_> = (0..2)
            .map(|_| {
                let page = page.clone();
                let h = std::thread::spawn(move || get(addr, &page));
                std::thread::sleep(Duration::from_millis(150));
                h
            })
            .collect();

        let mut shed = 0;
        for _ in 0..4 {
            let r = get(addr, "/");
            if r.starts_with("HTTP/1.1 503") {
                assert!(r.contains("Retry-After: 7"), "shed names a retry delay: {r}");
                assert!(r.contains("Connection: close"), "{r}");
                shed += 1;
            }
        }
        assert!(shed >= 1, "worker stalled + backlog full must shed ({transport:?})");
        assert!(svc.stats().shed >= shed, "sheds counted");

        // The stalled requests still complete, and once the stall
        // drains the server answers normally again.
        for h in stalled {
            let r = h.join().unwrap();
            assert!(r.starts_with("HTTP/1.1 200"), "stalled request served: {r}");
        }
        svc.clear_probes();
        assert!(get(addr, "/").starts_with("HTTP/1.1 200"));
        let metrics = get(addr, "/metrics");
        assert!(
            metrics.contains("strudel_shed_total"),
            "sheds exposed on /metrics: {metrics}"
        );
        server.shutdown();
    }
}

#[test]
fn an_oversized_shed_request_still_receives_its_503() {
    for transport in common::transports() {
        let svc = service();
        let server = serve(
            svc.clone(),
            ServerConfig {
                workers: 1,
                max_backlog: 1,
                retry_after_secs: 3,
                transport,
                ..Default::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        assert!(get(addr, "/").starts_with("HTTP/1.1 200"));

        // Stall the single worker and fill the backlog, as in the shed
        // test above — but send >1 KiB of request. The old shed path
        // drained at most one 1 KiB read before closing, so the unread
        // tail made the kernel RST the connection and discard the 503 in
        // flight.
        svc.arm_probe("/stall", FaultProbe::Stall(Duration::from_millis(900)));
        let stalled: Vec<_> = (0..2)
            .map(|_| {
                let h = std::thread::spawn(move || get(addr, "/stall"));
                std::thread::sleep(Duration::from_millis(150));
                h
            })
            .collect();

        let mut shed = 0;
        for _ in 0..4 {
            let mut s = TcpStream::connect(addr).unwrap();
            let _ = write!(s, "GET / HTTP/1.1\r\nConnection: close\r\n");
            let filler = format!("X-Pad: {}\r\n", "p".repeat(1015));
            for _ in 0..4 {
                let _ = s.write_all(filler.as_bytes());
            }
            let _ = s.write_all(b"\r\n");
            let mut out = String::new();
            let _ = s.read_to_string(&mut out);
            // Every connection must yield a complete HTTP response — an
            // empty read here is the RST the drain exists to prevent.
            assert!(out.starts_with("HTTP/1.1"), "response lost to a reset: {out:?}");
            if out.starts_with("HTTP/1.1 503") {
                assert!(out.contains("Retry-After: 3"), "{out}");
                shed += 1;
            }
        }
        assert!(shed >= 1, "worker stalled + backlog full must shed ({transport:?})");

        for h in stalled {
            let _ = h.join();
        }
        svc.clear_probes();
        assert!(get(addr, "/").starts_with("HTTP/1.1 200"));
        server.shutdown();
    }
}

#[test]
fn timeout_config_errors_are_counted_not_swallowed() {
    let svc = service();
    assert_eq!(svc.stats().timeout_config_errors, 0);
    let err = std::io::Error::other("setsockopt failed");
    svc.note_timeout_config_error(&err);
    svc.note_timeout_config_error(&err);
    assert_eq!(svc.stats().timeout_config_errors, 2);
    let text = svc.stats().to_text();
    assert!(
        text.contains("strudel_timeout_config_errors_total 2"),
        "{text}"
    );
}

#[test]
fn a_stalled_header_read_answers_408_not_a_dispatch() {
    // A client that opens a connection, sends half a request head, and
    // then stalls past the request timeout must get a 408 — the old
    // thread-transport reader fell through and dispatched the half
    // request as if it were complete.
    for transport in common::transports() {
        let svc = service();
        let server = serve(
            svc.clone(),
            ServerConfig {
                workers: 2,
                timeout: Duration::from_millis(300),
                transport,
                ..Default::default()
            },
        )
        .unwrap();
        let addr = server.addr();

        let mut s = TcpStream::connect(addr).unwrap();
        // Half a head: no terminating blank line, then silence.
        write!(s, "GET / HTTP/1.1\r\nHost: local").unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(
            out.starts_with("HTTP/1.1 408"),
            "stalled head answers 408 ({transport:?}): {out:?}"
        );
        assert!(out.contains("Connection: close"), "{out}");

        // The stalled connection cost nothing: the server still serves.
        assert!(get(addr, "/").starts_with("HTTP/1.1 200"));
        server.shutdown();
    }
}

#[test]
fn a_poisoned_store_degrades_readiness_but_keeps_serving_reads() {
    use strudel_graph::{GraphDelta, Oid, Value};
    use strudel_repo::vfs::{FaultMode, FaultVfs};
    use strudel_repo::{PagedRepo, PagerConfig};

    for transport in common::transports() {
        let dir = std::env::temp_dir().join(format!(
            "strudel-poison-{}-{:?}-{transport:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let corpus = generate(&NewsConfig {
            articles: 8,
            ..Default::default()
        });
        let site = news_site(&corpus.pages).build().unwrap();
        let vfs = Arc::new(FaultVfs::new());
        let store = PagedRepo::bulk_load_with(
            vfs.clone(),
            &dir,
            PagerConfig::default(),
            site.database.graph(),
        )
        .unwrap();
        let svc =
            Arc::new(SiteService::new(&site, Mode::Context).with_paged_store(store));
        let server = serve(
            svc.clone(),
            ServerConfig {
                workers: 2,
                transport,
                ..Default::default()
            },
        )
        .unwrap();
        let addr = server.addr();

        assert!(get(addr, "/").starts_with("HTTP/1.1 200"));
        assert!(get(addr, "/readyz").starts_with("HTTP/1.1 200"), "healthy at first");

        // The next store write fails mid-commit: the WAL/page write that
        // a checkpoint-shaped delta needs dies under live traffic.
        let mut delta = GraphDelta::new();
        delta.add_edge(Oid::from_index(0), "note", Value::string("poison probe"));
        vfs.arm_fault(vfs.op_count(), FaultMode::Fail);
        let err = svc.apply_delta(&delta);
        assert!(err.is_err(), "the failed commit surfaces as an error");
        assert!(svc.store_poisoned(), "the store is poisoned, not limping");

        // Contract: reads keep serving — a poisoned store must never
        // become a 500 loop — while readiness flips so a supervisor can
        // recycle this replica at leisure.
        for _ in 0..5 {
            assert!(
                get(addr, "/").starts_with("HTTP/1.1 200"),
                "reads keep serving ({transport:?})"
            );
        }
        let readyz = get(addr, "/readyz");
        assert!(
            readyz.starts_with("HTTP/1.1 503"),
            "poisoned readiness is 503 ({transport:?}): {readyz}"
        );
        let metrics = get(addr, "/metrics");
        assert!(
            metrics.contains("strudel_store_poisoned 1"),
            "poison visible on /metrics: {metrics}"
        );

        // Later writes refuse cleanly (no panic, no partial commit) and
        // reads still serve after each refusal.
        let mut delta = GraphDelta::new();
        delta.add_edge(Oid::from_index(1), "note", Value::string("after poison"));
        assert!(svc.apply_delta(&delta).is_err(), "writes stay refused");
        assert!(get(addr, "/").starts_with("HTTP/1.1 200"));

        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
