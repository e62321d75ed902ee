//! The reactor's contract with a service it did not write. A
//! [`ClickService`] implementor outside this crate — the benchmark's
//! stub is one — defines `handle`, `warm` and the seven `note_*` hooks
//! and nothing else. Served by [`ServerConfig::default()`], its own
//! overrides are what the reactor calls: a service that keeps its own
//! books keeps them, whatever the trait provides by default.

mod common;

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use common::{read_response, wait_for};

use strudel_serve::{serve, ClickService, Response, ServeError, ServerConfig, WarmupReport};
use strudel_struql::Parallelism;

/// Counts every hook call in its own fields.
#[derive(Default)]
struct Ledger {
    handled: AtomicU64,
    panics: AtomicU64,
    shed: AtomicU64,
    accept_errors: AtomicU64,
    opened: AtomicU64,
    closed: AtomicU64,
    reused: AtomicU64,
    idle_closed: AtomicU64,
}

impl ClickService for Ledger {
    fn handle(&self, path: &str) -> Response {
        if path == "/boom" {
            panic!("a handler with no backstop of its own");
        }
        self.handled.fetch_add(1, Ordering::Relaxed);
        Response {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            body: format!("echo {path}\n"),
            degraded: false,
        }
    }
    fn warm(&self, _parallelism: Parallelism) -> Result<WarmupReport, ServeError> {
        Ok(WarmupReport::default())
    }
    fn note_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }
    fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }
    fn note_accept_error(&self) {
        self.accept_errors.fetch_add(1, Ordering::Relaxed);
    }
    fn note_conn_opened(&self) {
        self.opened.fetch_add(1, Ordering::Relaxed);
    }
    fn note_conn_closed(&self) {
        self.closed.fetch_add(1, Ordering::Relaxed);
    }
    fn note_keepalive_reuse(&self) {
        self.reused.fetch_add(1, Ordering::Relaxed);
    }
    fn note_idle_closed(&self) {
        self.idle_closed.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn a_foreign_services_own_hooks_are_the_ones_the_transport_calls() {
    let ledger = Arc::new(Ledger::default());
    let server = serve(
        ledger.clone(),
        ServerConfig {
            workers: 2,
            keepalive_timeout: Duration::from_millis(150),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Three requests down one kept-alive connection.
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut connections = 1;
    for i in 0..3 {
        write!(writer, "GET /echo/{i} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let (head, body) = read_response(&mut reader).expect("a framed response");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, format!("echo /echo/{i}\n"));
    }
    assert_eq!(ledger.handled.load(Ordering::Relaxed), 3);
    assert_eq!(
        ledger.reused.load(Ordering::Relaxed),
        2,
        "requests after a connection's first are reuses"
    );

    // A handler that panics is caught by the reactor's backstop,
    // which tells the service — this service.
    let mut stream = TcpStream::connect(addr).unwrap();
    connections += 1;
    write!(stream, "GET /boom HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut sink = String::new();
    let _ = stream.read_to_string(&mut sink);
    wait_for("the panic to be booked", || ledger.panics.load(Ordering::Relaxed) == 1);

    // The kept-alive connection sits idle past the deadline and the
    // reactor closes it; every open is matched by a close.
    wait_for("the idle close", || ledger.idle_closed.load(Ordering::Relaxed) == 1);
    drop((writer, reader));
    wait_for("every connection to close", || {
        ledger.closed.load(Ordering::Relaxed) == connections
    });
    assert_eq!(ledger.opened.load(Ordering::Relaxed), connections);
    for (name, counter) in [("shed", &ledger.shed), ("accept_errors", &ledger.accept_errors)] {
        assert_eq!(counter.load(Ordering::Relaxed), 0, "{name}");
    }
    server.shutdown();
}

#[test]
fn a_full_house_sheds_onto_the_foreign_services_own_counter() {
    let ledger = Arc::new(Ledger::default());
    let server = serve(
        ledger.clone(),
        ServerConfig {
            workers: 1,
            max_connections: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let held = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(held.try_clone().unwrap());
    write!(&held, "GET /held HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
    assert!(read_response(&mut reader).is_some(), "the one seat is taken");

    let mut refused = String::new();
    let _ = TcpStream::connect(addr).unwrap().read_to_string(&mut refused);
    assert!(refused.starts_with("HTTP/1.1 503"), "{refused}");
    assert_eq!(ledger.shed.load(Ordering::Relaxed), 1);
    server.shutdown();
}
