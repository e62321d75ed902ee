//! End-to-end HTTP: a real server on an ephemeral port, hammered by
//! concurrent client threads, checked for identical bodies, correct
//! status codes, live metrics, and a graceful shutdown that drains
//! in-flight requests. Every test runs against each transport the
//! platform supports (thread pool and epoll reactor), so the two can
//! never drift in observable behavior.

mod common;

use std::convert::Infallible;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use strudel::sites::news_site;
use strudel_schema::dynamic::Mode;
use strudel_serve::crawl::crawl;
use strudel_serve::server::MAX_REQUEST_BYTES;
use strudel_serve::{serve, ServerConfig, SiteService, Transport};
use strudel_workload::news::{generate, NewsConfig};

fn start_at(
    addr: &str,
    workers: usize,
    transport: Transport,
) -> (Arc<SiteService>, strudel_serve::ServerHandle) {
    let corpus = generate(&NewsConfig {
        articles: 30,
        ..Default::default()
    });
    let site = news_site(&corpus.pages).build().unwrap();
    let service = Arc::new(SiteService::new(&site, Mode::Context));
    let server = serve(
        service.clone(),
        ServerConfig {
            addr: addr.into(),
            workers,
            transport,
            ..Default::default()
        },
    )
    .unwrap();
    (service, server)
}

fn start(workers: usize, transport: Transport) -> (Arc<SiteService>, strudel_serve::ServerHandle) {
    start_at("127.0.0.1:0", workers, transport)
}

/// One-shot request: `Connection: close` makes `read_to_string` see EOF
/// on either transport (the reactor would otherwise hold the connection
/// open for keep-alive).
fn request(addr: SocketAddr, line: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    write!(s, "{line}\r\nHost: localhost\r\nConnection: close\r\n\r\n").unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    out
}

fn get(addr: SocketAddr, path: &str) -> String {
    request(addr, &format!("GET {path} HTTP/1.1"))
}

fn body_of(response: &str) -> &str {
    response.split("\r\n\r\n").nth(1).unwrap_or("")
}

/// The first `limit` URLs of the site, breadth first from `/`.
fn crawl_urls(addr: SocketAddr, limit: usize) -> Vec<String> {
    let mut fetched = 0;
    let site = crawl(|url| {
        fetched += 1;
        Ok::<_, Infallible>((fetched <= limit).then(|| get(addr, url)))
    });
    site.unwrap().urls
}

#[test]
fn concurrent_clients_get_identical_pages() {
    for transport in common::transports() {
        let (service, server) = start(4, transport);
        let addr = server.addr();
        let urls = Arc::new(crawl_urls(addr, 24));
        assert!(urls.len() >= 10, "crawl found pages: {}", urls.len());

        // Reference bodies fetched serially.
        let reference: Arc<Vec<String>> = Arc::new(
            urls.iter()
                .map(|u| {
                    let response = get(addr, u);
                    assert!(response.starts_with("HTTP/1.1 200"), "{u}: {response}");
                    body_of(&response).to_string()
                })
                .collect(),
        );

        // Eight client threads re-fetch every URL; all bodies must match
        // the serial reference byte for byte (shared engine + cache).
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let urls = Arc::clone(&urls);
                let reference = Arc::clone(&reference);
                std::thread::spawn(move || {
                    for (i, u) in urls.iter().enumerate() {
                        let response = get(addr, u);
                        assert!(response.starts_with("HTTP/1.1 200"), "thread {t}: {u}");
                        assert_eq!(body_of(&response), reference[i], "thread {t}: {u}");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }

        let stats = service.stats();
        // 1 serial pass + 8 threads = 9 fetches per URL, plus the crawl.
        assert!(
            stats.total.requests >= (urls.len() * 9) as u64,
            "all requests counted ({transport:?}): {}",
            stats.total.requests
        );
        assert!(stats.html_cache.hits > 0, "warm fetches hit the cache");
        server.shutdown();
    }
}

#[test]
fn metrics_endpoint_speaks_prometheus() {
    for transport in common::transports() {
        let (_service, server) = start(2, transport);
        let addr = server.addr();
        get(addr, "/");
        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200"));
        assert!(metrics.contains("text/plain"));
        let body = body_of(&metrics);
        for needle in [
            "strudel_requests_total",
            "strudel_request_latency_us{quantile=\"0.5\"}",
            "strudel_request_latency_us{quantile=\"0.99\"}",
            "strudel_html_cache_hits_total",
            "strudel_html_cache_hit_rate",
            "strudel_delta_epoch",
            "strudel_open_connections",
            "strudel_keepalive_reuse_total",
            "strudel_idle_closed_total",
            "strudel_accept_errors_total",
        ] {
            assert!(
                body.contains(needle),
                "missing {needle} ({transport:?}) in:\n{body}"
            );
        }
        server.shutdown();
    }
}

#[test]
fn bad_requests_get_errors_not_crashes() {
    for transport in common::transports() {
        let (service, server) = start(2, transport);
        let addr = server.addr();

        assert!(get(addr, "/no/such/route").starts_with("HTTP/1.1 404"));
        assert!(get(addr, "/page/NoSuchSymbol").starts_with("HTTP/1.1 404"));
        // A known symbol over arguments the site never derives is no page
        // either, and made-up keys must not grow either cache.
        let cached = (service.engine().cached_pages(), service.cache().len());
        for i in 0..40 {
            for url in [
                format!("/page/CategoryPage/s:bogus{i}"),
                format!("/page/ArticlePage/i:{i}"),
            ] {
                let answer = get(addr, &url);
                assert!(answer.starts_with("HTTP/1.1 404"), "{url}: {answer}");
            }
        }
        assert_eq!(
            (service.engine().cached_pages(), service.cache().len()),
            cached,
            "404s were cached ({transport:?})"
        );
        assert!(get(addr, "/page/%zz%bad%escape").starts_with("HTTP/1.1 404"));
        assert!(get(addr, "/data/o:999999").starts_with("HTTP/1.1 404"));

        // 405s name the allowed methods (RFC 9110 §15.5.6).
        let post = request(addr, "POST / HTTP/1.1");
        assert!(post.starts_with("HTTP/1.1 405"), "{post}");
        assert!(post.contains("Allow: GET, HEAD\r\n"), "{post}");
        let put = request(addr, "PUT /page/X HTTP/1.1");
        assert!(put.contains("Allow: GET, HEAD\r\n"), "{put}");

        // HEAD gets headers (with the true length) and no body.
        let head = request(addr, "HEAD / HTTP/1.1");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert_eq!(body_of(&head), "");
        assert!(!head.contains("Content-Length: 0"));

        // A garbage request line must not take a worker down.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"\x00\xffgarbage\r\n\r\n").unwrap();
        drop(s);

        // The server still answers afterwards.
        assert!(get(addr, "/").starts_with("HTTP/1.1 200"));
        server.shutdown();
    }
}

#[test]
fn debug_endpoints_serve_real_data() {
    for transport in common::transports() {
        let (service, server) = start(2, transport);
        let addr = server.addr();
        // Make tracing live and the slow log catch everything (loopback
        // requests still take ≥ 1 µs), then serve some traffic.
        strudel_trace::set_enabled(true);
        service.set_slow_threshold_us(1);
        let urls = crawl_urls(addr, 8);
        for u in &urls {
            get(addr, u);
        }

        // /debug/trace: the span table has real serve.request aggregates
        // and the slow log lists the requests we just made.
        let trace = get(addr, "/debug/trace");
        assert!(trace.starts_with("HTTP/1.1 200"), "{trace}");
        let body = body_of(&trace);
        assert!(body.contains("# strudel-trace snapshot"), "{body}");
        assert!(body.contains("serve.request"), "span recorded: {body}");
        assert!(body.contains("engine.compute"), "engine spans nested: {body}");
        assert!(body.contains("# slow requests"), "{body}");
        assert!(body.contains(" /page/"), "slow log lists page paths: {body}");

        // /metrics now carries the slow counter and trace counters.
        let metrics = body_of(&get(addr, "/metrics")).to_string();
        assert!(metrics.contains("strudel_slow_requests_total"), "{metrics}");
        assert!(
            metrics.contains("strudel_trace_counter{name=\"engine.cache."),
            "{metrics}"
        );

        // /debug/explain: per-edge plans with estimates next to actuals.
        let explain = get(addr, "/debug/explain");
        assert!(explain.starts_with("HTTP/1.1 200"), "{explain}");
        let body = body_of(&explain);
        assert!(body.contains("# explain /page/"), "{body}");
        assert!(body.contains("est/row"), "estimate column present: {body}");

        // …and for one specific page, via the same segment syntax.
        let page = urls.iter().find(|u| u.starts_with("/page/")).unwrap();
        let one = get(addr, &page.replace("/page/", "/debug/explain/"));
        assert!(one.starts_with("HTTP/1.1 200"), "{one}");
        assert!(body_of(&one).contains("edge -"), "{one}");

        // Unknown pages are 404s, not crashes.
        assert!(get(addr, "/debug/explain/NoSuchSymbol").starts_with("HTTP/1.1 404"));

        strudel_trace::set_enabled(false);
        server.shutdown();
    }
}

#[test]
fn oversized_requests_get_431_not_a_hung_worker() {
    for transport in common::transports() {
        let (_service, server) = start(2, transport);
        let addr = server.addr();

        // A request line past the byte budget: the reader must stop at
        // the cap and answer, not buffer the line forever.
        let mut s = TcpStream::connect(addr).unwrap();
        let line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_BYTES as usize));
        s.write_all(line.as_bytes()).unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 431"), "oversized line ({transport:?}): {out}");
        assert!(out.contains("Connection: close"), "{out}");
        drop(s);

        // A normal request line followed by unbounded headers hits the
        // same budget; the 431 must survive the unread tail
        // (drain-before-close).
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET / HTTP/1.1\r\n").unwrap();
        let filler = format!("X-Filler: {}\r\n", "b".repeat(1000));
        for _ in 0..(MAX_REQUEST_BYTES as usize / filler.len() + 2) {
            if s.write_all(filler.as_bytes()).is_err() {
                break; // server may close early; the response read decides
            }
        }
        let _ = s.write_all(b"\r\n");
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 431"), "oversized headers ({transport:?}): {out}");

        // Neither oversized request took the worker down.
        assert!(get(addr, "/").starts_with("HTTP/1.1 200"));
        server.shutdown();
    }
}

#[test]
fn a_two_byte_header_line_does_not_end_the_headers() {
    for transport in common::transports() {
        let (_service, server) = start(2, transport);
        let addr = server.addr();
        let reference = get(addr, "/");

        // "A\n" is a two-byte header line the old `n > 2` predicate
        // misread as the end of the headers; the bytes after it then sat
        // unread in the socket when the server closed, risking an RST
        // that discards the response. Pad generously so the misread is
        // observable.
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET / HTTP/1.1\r\nA\n").unwrap();
        let filler = format!("X-Pad: {}\r\n", "p".repeat(500));
        for _ in 0..8 {
            s.write_all(filler.as_bytes()).unwrap();
        }
        write!(s, "Connection: close\r\nHost: localhost\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 200"), "{out}");
        assert_eq!(body_of(&out), body_of(&reference), "full body delivered");
        server.shutdown();
    }
}

#[test]
fn shutdown_wakes_a_wildcard_bind() {
    for transport in common::transports() {
        // `stop_and_join` wakes the accept path with a connect;
        // connecting to 0.0.0.0 is invalid on some platforms, so the
        // wake must target loopback at the bound port. A hang here is
        // the regression.
        let (_service, server) = start_at("0.0.0.0:0", 2, transport);
        let port = server.addr().port();
        let addr: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();
        assert!(get(addr, "/").starts_with("HTTP/1.1 200"));
        let t0 = Instant::now();
        server.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "shutdown hung waking a wildcard bind ({transport:?}): {:?}",
            t0.elapsed()
        );
    }
}

#[test]
fn shutdown_under_load_joins_cleanly() {
    for transport in common::transports() {
        let (_service, server) = start(4, transport);
        let addr = server.addr();
        assert!(get(addr, "/").starts_with("HTTP/1.1 200"));

        // Keep real requests in flight while the server shuts down;
        // clients tolerate refusals/resets — the server must just join
        // promptly.
        let stop = Arc::new(AtomicBool::new(false));
        let clients: Vec<_> = (0..4)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        if let Ok(mut s) = TcpStream::connect(addr) {
                            let _ =
                                write!(s, "GET / HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
                            let mut out = String::new();
                            let _ = s.read_to_string(&mut out);
                        }
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(80));

        let t0 = Instant::now();
        server.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "shutdown under load hung ({transport:?}): {:?}",
            t0.elapsed()
        );
        stop.store(true, Ordering::Release);
        for c in clients {
            c.join().unwrap();
        }
    }
}

#[test]
fn shutdown_joins_all_threads() {
    for transport in common::transports() {
        let (_service, server) = start(4, transport);
        let addr = server.addr();
        assert!(get(addr, "/").starts_with("HTTP/1.1 200"));
        server.shutdown(); // joins accept + workers; must not hang or panic
        assert!(
            TcpStream::connect(addr)
                .map(|mut s| {
                    let _ = write!(s, "GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
                    let mut out = String::new();
                    let _ = s.read_to_string(&mut out);
                    out.is_empty()
                })
                .unwrap_or(true),
            "no responses after shutdown ({transport:?})"
        );
    }
}
