//! Failure-mode regression tests: a panicking handler must cost one
//! request (500 + counter), never a worker; a saturated render queue
//! must shed with a `503` + `Retry-After`, never queue unbounded work;
//! and both outcomes must be visible on `/metrics`. A client that hangs
//! up while the pool renders its page costs that answer and nothing
//! more, and a request still queued for the pool at shutdown is answered
//! or its connection closed, never left hanging.

mod common;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use strudel::sites::news_site;
use strudel_schema::dynamic::Mode;
use strudel_serve::{serve, FaultProbe, ServerConfig, SiteService};
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
    svc.warm(Parallelism::Sequential).unwrap();
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
    let svc = service();
    let server = serve(
        svc.clone(),
        ServerConfig {
            workers: 2,
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
    assert_eq!(svc.stats().panics, 6, "every panic counted");

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

#[test]
fn a_saturated_backlog_sheds_with_retry_after() {
    let svc = service();
    let server = serve(
        svc.clone(),
        ServerConfig {
            workers: 1,
            max_backlog: 1,
            retry_after_secs: 7,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let page = warm_page(&svc);
    assert!(get(addr, "/").starts_with("HTTP/1.1 200"));

    // Stall the single worker — on a warm page, which only reaches a
    // worker because a probe is armed — fill the one queue slot, then
    // watch further requests bounce straight off the full queue.
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
    assert!(shed >= 1, "worker stalled + backlog full must shed");
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

#[test]
fn an_oversized_shed_request_still_receives_its_503() {
    let svc = service();
    let server = serve(
        svc.clone(),
        ServerConfig {
            workers: 1,
            max_backlog: 1,
            retry_after_secs: 3,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    assert!(get(addr, "/").starts_with("HTTP/1.1 200"));

    // Stall the single worker and fill the queue, as in the shed
    // test above — but send >1 KiB of request. A shed that closes with
    // the tail unread makes the kernel RST the connection and discard
    // the 503 in flight; the reactor drains before it closes.
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
    assert!(shed >= 1, "worker stalled + backlog full must shed");

    for h in stalled {
        let _ = h.join();
    }
    svc.clear_probes();
    assert!(get(addr, "/").starts_with("HTTP/1.1 200"));
    server.shutdown();
}

#[test]
fn a_client_that_hangs_up_while_its_page_renders_costs_nothing() {
    let svc = service();
    let server = serve(
        svc.clone(),
        ServerConfig {
            workers: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let page = warm_page(&svc);

    // Each client asks for the page and hangs up while the stalled
    // render runs. Kept alive, the worker writes the answer, re-arms the
    // socket, and the reactor reads the hang-up. With `Connection:
    // close`, the worker hands the connection back and the reactor
    // closes it. Behind an answer the client never read, the hang-up is
    // a reset: the reactor closes the connection while it is still
    // dispatched, and the worker's write fails on the socket it holds.
    let ask = |extra: &str| format!("GET {page} HTTP/1.1\r\nHost: localhost\r\n{extra}\r\n");
    let kept = ask("");
    let closing = ask("Connection: close\r\n");
    let behind_an_unread_answer = "GET / HTTP/1.1\r\nHost: localhost\r\n\r\n".to_string() + &kept;
    svc.arm_probe(&page, FaultProbe::Stall(Duration::from_millis(150)));
    for request in [&kept, &closing, &behind_an_unread_answer] {
        for _ in 0..2 {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(request.as_bytes()).unwrap();
            std::thread::sleep(Duration::from_millis(30));
            drop(s);
        }
    }
    common::wait_for("every hung-up connection to close", || {
        svc.stats().open_connections == 0
    });
    assert_eq!(svc.stats().panics, 0, "a hang-up is not a panic");

    // The server keeps serving, the page included.
    svc.clear_probes();
    assert!(get(addr, &page).starts_with("HTTP/1.1 200"));
    assert!(get(addr, "/").starts_with("HTTP/1.1 200"));
    let metrics = get(addr, "/metrics");
    assert!(metrics.contains("strudel_panics_total 0"), "{metrics}");
    server.shutdown();
}

#[test]
fn requests_queued_at_shutdown_are_answered_or_closed_never_leaked() {
    let svc = service();
    let server = serve(
        svc.clone(),
        ServerConfig {
            workers: 1,
            // The shutdown drain waits this long for dispatched requests.
            timeout: Duration::from_millis(300),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let page = warm_page(&svc);

    // The one worker stalls past the drain window with three requests
    // queued behind it: the reactor closes its side of every connection
    // and exits while the queue still holds them.
    svc.arm_probe(&page, FaultProbe::Stall(Duration::from_millis(1500)));
    let mut clients = Vec::new();
    for path in [page.as_str(), "/", "/", "/"] {
        let path = path.to_string();
        clients.push(std::thread::spawn(move || get(addr, &path)));
        std::thread::sleep(Duration::from_millis(50));
    }
    let t0 = Instant::now();
    server.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "shutdown waited on the queue: {:?}",
        t0.elapsed()
    );

    // Every queued request was answered whole by the worker, which holds
    // its socket until it has written.
    for client in clients {
        let r = client.join().unwrap();
        assert!(
            r.starts_with("HTTP/1.1 200"),
            "queued request answered: {r:?}"
        );
        let (head, body) = r.split_once("\r\n\r\n").expect("a whole head");
        let length = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("a length");
        assert_eq!(
            body.len(),
            length.parse::<usize>().unwrap(),
            "the whole body"
        );
    }
    // No connection, job or thread outlives the server.
    assert_eq!(svc.stats().open_connections, 0);
    assert_eq!(
        Arc::strong_count(&svc),
        1,
        "every server thread let go of the service"
    );
}

#[test]
fn a_stalled_header_read_answers_408_not_a_dispatch() {
    // A client that opens a connection, sends half a request head, and
    // then stalls past the request timeout must get a 408, never a
    // dispatch of the half request as if it were complete.
    let svc = service();
    let server = serve(
        svc.clone(),
        ServerConfig {
            workers: 2,
            timeout: Duration::from_millis(300),
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
        "stalled head answers 408: {out:?}"
    );
    assert!(out.contains("Connection: close"), "{out}");

    // The stalled connection cost nothing: the server still serves.
    assert!(get(addr, "/").starts_with("HTTP/1.1 200"));
    server.shutdown();
}

#[test]
fn a_poisoned_store_degrades_readiness_but_keeps_serving_reads() {
    use strudel_graph::{GraphDelta, Oid, Value};
    use strudel_repo::vfs::{FaultMode, FaultVfs};
    use strudel_repo::{PagedRepo, PagerConfig};

    let dir = std::env::temp_dir().join(format!(
        "strudel-poison-{}-{:?}",
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
            "reads keep serving"
        );
    }
    let readyz = get(addr, "/readyz");
    assert!(
        readyz.starts_with("HTTP/1.1 503"),
        "poisoned readiness is 503: {readyz}"
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
