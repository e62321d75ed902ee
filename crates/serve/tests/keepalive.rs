//! Keep-alive conformance for the epoll reactor: responses on a reused
//! connection byte-equal fresh-connection responses, pipelined requests
//! all answer, idle connections close on deadline (and count), slow-loris
//! clients get a 408 without degrading fast clicks, and hundreds of idle
//! connections cost file descriptors, not threads. And for the hits the
//! reactor answers inline: the wire bytes equal the pool path's, a burst
//! of ten thousand pipelined hits neither recurses nor starves another
//! connection, a body larger than the socket buffer survives partial
//! writes, and a panic in `try_warm` falls through to the pool.
//!
//! The whole suite is epoll-specific and self-skips where the transport
//! is unsupported (non-Linux) or excluded via `STRUDEL_TEST_TRANSPORT`.

mod common;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use strudel::sites::news_site;
use strudel_schema::dynamic::Mode;
use strudel_serve::crawl::site_urls;
use strudel_serve::{
    proto, serve, CachedPage, ClickService, Response, ServeError, ServerConfig, SiteService,
    Transport, WarmHit, WarmupReport,
};
use strudel_struql::Parallelism;
use strudel_workload::news::{generate, NewsConfig};

/// Whether this run covers the epoll transport at all.
fn epoll_enabled() -> bool {
    common::transports().contains(&Transport::Epoll)
}

fn start(config: ServerConfig) -> (Arc<SiteService>, strudel_serve::ServerHandle) {
    let corpus = generate(&NewsConfig {
        articles: 12,
        ..Default::default()
    });
    let site = news_site(&corpus.pages).build().unwrap();
    let service = Arc::new(SiteService::new(&site, Mode::Context));
    let server = serve(service.clone(), config).unwrap();
    (service, server)
}

fn epoll_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        transport: Transport::Epoll,
        ..Default::default()
    }
}

/// One complete HTTP response off a (possibly kept-alive) connection:
/// status line + headers up to the blank line, then exactly
/// `Content-Length` body bytes.
fn read_response(reader: &mut BufReader<TcpStream>) -> Option<(String, String)> {
    let mut head = String::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).ok()? == 0 {
            return None; // EOF
        }
        if line == "\r\n" {
            break;
        }
        head.push_str(&line);
    }
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())?;
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).ok()?;
    Some((head, String::from_utf8_lossy(&body).into_owned()))
}

/// One-shot fresh-connection request (`Connection: close`).
fn get_fresh(addr: SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    write!(s, "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n").unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    out
}

fn body_of(response: &str) -> &str {
    response.split("\r\n\r\n").nth(1).unwrap_or("")
}

fn status_of(response: &str) -> &str {
    response.lines().next().unwrap_or("")
}

#[test]
fn sequential_requests_on_one_connection_byte_equal_fresh_connections() {
    if !epoll_enabled() {
        return;
    }
    let (_service, server) = start(epoll_config());
    let addr = server.addr();
    let paths = ["/", "/metrics", "/", "/no/such/route", "/"];

    // Reference: every path over its own fresh connection.
    let fresh: Vec<(String, String)> = paths
        .iter()
        .map(|p| {
            let r = get_fresh(addr, p);
            (status_of(&r).to_string(), body_of(&r).to_string())
        })
        .collect();

    // Same paths over ONE kept-alive connection.
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    for (i, p) in paths.iter().enumerate() {
        write!(writer, "GET {p} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let (head, body) = read_response(&mut reader).expect("connection stayed open");
        assert!(
            head.contains("Connection: keep-alive"),
            "request {i} keeps the connection: {head}"
        );
        assert_eq!(head.lines().next().unwrap(), fresh[i].0, "status for {p}");
        // /metrics bodies move between requests (counters tick); the
        // stable routes must be byte-identical to the fresh fetch.
        if *p != "/metrics" {
            assert_eq!(body, fresh[i].1, "reused-connection body for {p}");
        }
    }
    server.shutdown();
}

#[test]
fn pipelined_requests_all_answer_in_order() {
    if !epoll_enabled() {
        return;
    }
    let (_service, server) = start(epoll_config());
    let addr = server.addr();
    let reference = body_of(&get_fresh(addr, "/")).to_string();

    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    // Six requests in one burst, no waiting between them.
    let mut burst = String::new();
    for _ in 0..6 {
        burst.push_str("GET / HTTP/1.1\r\nHost: localhost\r\n\r\n");
    }
    writer.write_all(burst.as_bytes()).unwrap();
    for i in 0..6 {
        let (head, body) = read_response(&mut reader)
            .unwrap_or_else(|| panic!("pipelined response {i} arrived"));
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, reference, "pipelined response {i} body");
    }
    server.shutdown();
}

#[test]
fn idle_connections_close_on_deadline_and_count() {
    if !epoll_enabled() {
        return;
    }
    let (service, server) = start(ServerConfig {
        keepalive_timeout: Duration::from_millis(200),
        ..epoll_config()
    });
    let addr = server.addr();

    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    write!(writer, "GET / HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
    let (head, _) = read_response(&mut reader).unwrap();
    assert!(head.contains("Connection: keep-alive"), "{head}");

    // Then go quiet past the idle deadline: the reactor must close us.
    let t0 = Instant::now();
    assert!(
        read_response(&mut reader).is_none(),
        "idle connection closed by the server"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "closed by the deadline, not a test timeout: {:?}",
        t0.elapsed()
    );
    assert!(service.stats().idle_closed >= 1, "idle close counted");
    let metrics = get_fresh(addr, "/metrics");
    assert!(metrics.contains("strudel_idle_closed_total"), "{metrics}");
    server.shutdown();
}

#[test]
fn keepalive_reuse_is_counted_and_connection_close_is_honored() {
    if !epoll_enabled() {
        return;
    }
    let (service, server) = start(epoll_config());
    let addr = server.addr();

    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    for _ in 0..3 {
        write!(writer, "GET / HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        read_response(&mut reader).unwrap();
    }
    assert_eq!(service.stats().keepalive_reuse, 2, "3 requests = 2 reuses");

    // An explicit `Connection: close` ends the reuse run.
    write!(writer, "GET / HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n").unwrap();
    let (head, _) = read_response(&mut reader).unwrap();
    assert!(head.contains("Connection: close"), "{head}");
    assert!(read_response(&mut reader).is_none(), "server closed after close");

    // An HTTP/1.0 request (no keep-alive by default) also closes.
    let s10 = TcpStream::connect(addr).unwrap();
    let mut w10 = s10.try_clone().unwrap();
    let mut r10 = BufReader::new(s10);
    write!(w10, "GET / HTTP/1.0\r\nHost: localhost\r\n\r\n").unwrap();
    let (head, _) = read_response(&mut r10).unwrap();
    assert!(head.contains("Connection: close"), "{head}");
    assert!(read_response(&mut r10).is_none(), "1.0 closes after one response");
    server.shutdown();
}

#[test]
fn slow_loris_clients_get_408_without_degrading_fast_clicks() {
    if !epoll_enabled() {
        return;
    }
    let (_service, server) = start(ServerConfig {
        timeout: Duration::from_millis(400),
        ..epoll_config()
    });
    let addr = server.addr();
    assert!(get_fresh(addr, "/").starts_with("HTTP/1.1 200"));

    // Eight clients drip one header byte at a time and never finish.
    let loris: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                let partial = b"GET / HTTP/1.1\r\nX-Slow: ";
                for b in partial {
                    if s.write_all(&[*b]).is_err() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(25));
                }
                // Stall entirely; the server must cut us off with a 408.
                let mut out = String::new();
                let _ = s.read_to_string(&mut out);
                out
            })
        })
        .collect();

    // Meanwhile fast clicks keep answering promptly — the reactor is not
    // blocked inside any loris connection.
    for _ in 0..10 {
        let t0 = Instant::now();
        let r = get_fresh(addr, "/");
        assert!(r.starts_with("HTTP/1.1 200"), "{r}");
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "fast click degraded by loris: {:?}",
            t0.elapsed()
        );
    }

    for h in loris {
        let out = h.join().unwrap();
        assert!(
            out.starts_with("HTTP/1.1 408"),
            "loris answered with a timeout: {out:?}"
        );
    }
    server.shutdown();
}

#[test]
fn hundreds_of_idle_connections_cost_fds_not_threads() {
    if !epoll_enabled() {
        return;
    }
    const IDLE: usize = 200;
    let (service, server) = start(ServerConfig {
        keepalive_timeout: Duration::from_secs(60),
        max_connections: 1024,
        ..epoll_config()
    });
    let addr = server.addr();

    let threads_before = os_thread_count();
    let mut held = Vec::with_capacity(IDLE);
    for i in 0..IDLE {
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        write!(writer, "GET / HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let (head, _) = read_response(&mut reader).unwrap_or_else(|| panic!("conn {i} served"));
        assert!(head.starts_with("HTTP/1.1 200"), "conn {i}: {head}");
        held.push((writer, reader));
    }

    assert!(
        service.stats().open_connections >= IDLE as u64,
        "gauge sees the held connections: {}",
        service.stats().open_connections
    );
    let threads_after = os_thread_count();
    assert!(
        threads_after <= threads_before + 4,
        "idle keep-alive connections must not cost threads: \
         {threads_before} -> {threads_after} with {IDLE} held"
    );

    // The server still answers new clicks with hundreds of idle fds held.
    assert!(get_fresh(addr, "/").starts_with("HTTP/1.1 200"));

    // Every held connection is still live and serves another request.
    for (i, (writer, reader)) in held.iter_mut().enumerate() {
        write!(writer, "GET / HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        assert!(
            read_response(reader).is_some(),
            "held conn {i} serves after the idle hold"
        );
    }
    drop(held);
    server.shutdown();
}

/// This process's OS thread count (Linux: /proc/self/status).
fn os_thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// A warmed server (every page cached, so every page click is an
/// inline hit) and its `/page/…` URLs.
fn start_warm() -> (Arc<SiteService>, strudel_serve::ServerHandle, Vec<String>) {
    let (service, server) = start(epoll_config());
    service.warm(Parallelism::Sequential).unwrap();
    let mut urls = site_urls(|u| service.handle(u));
    urls.retain(|u| u.starts_with("/page/"));
    assert!(urls.len() >= 10, "crawl found pages: {}", urls.len());
    (service, server, urls)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    // A response that comes up short fails the read, not the test run.
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream
}

#[test]
fn inline_hits_are_byte_identical_on_the_wire_to_the_pool_encoding() {
    if !epoll_enabled() {
        return;
    }
    let (service, server, pages) = start_warm();
    let addr = server.addr();
    // Warm pages go inline; the index, an unknown page and an unknown
    // route go through the pool. All must match the one encoder.
    let mut urls = pages.clone();
    urls.extend(["/", "/page/NoSuchPage", "/no/such/route"].map(String::from));

    let hits_before = service.inline_stats().hits;
    for (method, head_only) in [("GET", false), ("HEAD", true)] {
        // Keep-alive: the whole URL set over one connection.
        let mut kept = connect(addr);
        for url in &urls {
            let expected = proto::encode_response(&service.handle(url), head_only, true, None);
            write!(kept, "{method} {url} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
            let mut wire = vec![0u8; expected.len()];
            kept.read_exact(&mut wire).unwrap();
            let got = String::from_utf8_lossy(&wire);
            assert!(wire == expected, "{method} {url} keep-alive:\n{got}");
        }
        // `Connection: close`: one connection each, read to EOF.
        for url in &urls {
            let expected = proto::encode_response(&service.handle(url), head_only, false, None);
            let mut fresh = connect(addr);
            write!(fresh, "{method} {url} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
                .unwrap();
            let mut wire = Vec::new();
            fresh.read_to_end(&mut wire).unwrap();
            let got = String::from_utf8_lossy(&wire);
            assert!(wire == expected, "{method} {url} close:\n{got}");
        }
    }
    let clicks = 4 * pages.len() as u64;
    assert_eq!(
        service.inline_stats().hits - hits_before,
        clicks,
        "every warm page click, and nothing else, was answered inline"
    );
    let metrics = get_fresh(addr, "/metrics");
    assert!(
        metrics.contains(&format!("strudel_inline_hits_total {clicks}\n")),
        "{metrics}"
    );
    server.shutdown();
}

#[test]
fn ten_thousand_pipelined_hits_answer_in_order_and_do_not_starve_a_second_connection() {
    if !epoll_enabled() {
        return;
    }
    const BURST: usize = 10_000;
    let (service, server, pages) = start_warm();
    let addr = server.addr();
    let mix: Vec<(String, String)> = pages
        .iter()
        .take(3)
        .map(|url| (url.clone(), service.handle(url).body))
        .collect();

    let answered = Arc::new(AtomicUsize::new(0));
    let burst = {
        let (mix, answered) = (mix.clone(), answered.clone());
        std::thread::spawn(move || {
            let stream = connect(addr);
            let mut writer = stream.try_clone().unwrap();
            // All ten thousand requests in one write, from a thread of
            // its own: the responses must be read while it is going on.
            let sender = {
                let mix = mix.clone();
                std::thread::spawn(move || {
                    let mut requests = String::new();
                    for i in 0..BURST {
                        let url = &mix[i % mix.len()].0;
                        requests += &format!("GET {url} HTTP/1.1\r\nHost: localhost\r\n\r\n");
                    }
                    writer.write_all(requests.as_bytes()).unwrap();
                })
            };
            let mut reader = BufReader::new(stream);
            for i in 0..BURST {
                let (head, body) = read_response(&mut reader)
                    .unwrap_or_else(|| panic!("pipelined response {i} arrived"));
                assert!(head.starts_with("HTTP/1.1 200"), "response {i}: {head}");
                assert!(body == mix[i % mix.len()].1, "response {i} is out of order");
                answered.fetch_add(1, Ordering::SeqCst);
            }
            sender.join().unwrap();
        })
    };

    // Once the burst is under way, one click on another connection must
    // come back before the burst is through: the reactor leaves a busy
    // connection after each read's worth of answers.
    while answered.load(Ordering::SeqCst) == 0 {
        assert!(!burst.is_finished(), "the burst thread failed");
        std::thread::yield_now();
    }
    let other = get_fresh(addr, &mix[0].0);
    let seen = answered.load(Ordering::SeqCst);
    assert!(other.starts_with("HTTP/1.1 200"), "{other}");
    assert!(seen < BURST, "the single click waited for the whole burst");
    burst.join().unwrap();
    assert_eq!(answered.load(Ordering::SeqCst), BURST);
    server.shutdown();
}

#[test]
fn a_body_larger_than_the_socket_buffer_reaches_a_slow_reader_intact() {
    if !epoll_enabled() {
        return;
    }
    let (service, server, pages) = start_warm();
    let addr = server.addr();
    // Replace one page's rendition with 8 MiB no socket buffer holds,
    // patterned so a misplaced resume offset shows.
    let url = &pages[0];
    let db = service.engine().database();
    let key = strudel_serve::router::parse_page_path(url, db.graph()).unwrap();
    drop(db);
    let big: String = (0..1 << 20).map(|i| format!("{i:07}\n")).collect();
    service.cache().insert_if(
        key,
        CachedPage {
            html: big.as_str().into(),
            deps: Vec::new().into(),
        },
        || true,
    );

    let hits_before = service.inline_stats().hits;
    let stream = connect(addr);
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    write!(writer, "GET {url} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
    // Let the reactor fill the socket and park on EPOLLOUT, then read in
    // the BufReader's 8 KiB sips so it resumes many times.
    std::thread::sleep(Duration::from_millis(200));
    let (head, body) = read_response(&mut reader).unwrap();
    assert!(head.contains(&format!("Content-Length: {}", big.len())), "{head}");
    assert!(body == big, "the body arrived damaged");
    // The connection is in step for the next request.
    write!(writer, "HEAD {url} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n").unwrap();
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    assert!(rest.starts_with("HTTP/1.1 200") && rest.ends_with("\r\n\r\n"), "{rest}");
    assert_eq!(service.inline_stats().hits - hits_before, 2, "both answered inline");
    server.shutdown();
}

/// A service whose fast path is broken: `try_warm` panics on every call.
struct PanickyWarm {
    panics: AtomicUsize,
}

impl ClickService for PanickyWarm {
    fn handle(&self, _path: &str) -> Response {
        Response {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            body: "from the pool\n".into(),
            degraded: false,
        }
    }
    fn try_warm(&self, _path: &str) -> Option<WarmHit> {
        panic!("injected try_warm bug")
    }
    fn warm(&self, _parallelism: Parallelism) -> Result<WarmupReport, ServeError> {
        Ok(WarmupReport::default())
    }
    fn note_panic(&self) {
        self.panics.fetch_add(1, Ordering::SeqCst);
    }
    fn note_shed(&self) {}
    fn note_timeout_config_error(&self, _err: &std::io::Error) {}
    fn note_accept_error(&self) {}
    fn note_conn_opened(&self) {}
    fn note_conn_closed(&self) {}
    fn note_keepalive_reuse(&self) {}
    fn note_idle_closed(&self) {}
}

#[test]
fn a_panic_in_try_warm_is_counted_and_the_pool_answers() {
    if !epoll_enabled() {
        return;
    }
    let service = Arc::new(PanickyWarm {
        panics: AtomicUsize::new(0),
    });
    let server = serve(service.clone(), epoll_config()).unwrap();
    for n in 1..=3 {
        let r = get_fresh(server.addr(), "/page/Any");
        assert!(r.starts_with("HTTP/1.1 200") && r.ends_with("from the pool\n"), "{r}");
        assert_eq!(service.panics.load(Ordering::SeqCst), n, "the reactor survived and counted");
    }
    server.shutdown();
}
