//! Transport rungs: the loopback floor, `proto` alone, the epoll and
//! thread transports over a stub service, and the epoll transport over
//! the warm site. Every round-trip probe uses the same two-connection
//! closed-loop client as the workloads, so the rungs subtract cleanly.

use super::{share, Measures};
use crate::clicks::{run_clicks, Plan, RefTable, Target, CLICK_SLICE};
use crate::inputs::UrlSet;
use crate::mix::ClickMix;
use crate::run::{server_config, Cfg};
use crate::spans::Recorder;
use crate::workloads::warm_clicks::WarmSite;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use strudel_serve::server::MAX_REQUEST_BYTES;
use strudel_serve::{
    proto, serve, ClickService, Response, ServeError, ServerConfig, Transport, WarmupReport,
};
use strudel_struql::Parallelism;

/// Bytes of the stub body: the size of a typical article page.
pub const STUB_BODY_BYTES: usize = 1600;

/// A `ClickService` that answers every path with one fixed body: the
/// transport with nothing behind it.
pub struct Stub {
    body: String,
}

impl Stub {
    fn new() -> Stub {
        let mut body = String::from("<html><body>");
        while body.len() < STUB_BODY_BYTES - 14 {
            body.push_str("stub ");
        }
        body.truncate(STUB_BODY_BYTES - 14);
        body.push_str("</body></html>");
        Stub { body }
    }

    fn response(&self) -> Response {
        Response {
            status: 200,
            content_type: "text/html; charset=utf-8",
            body: self.body.clone(),
            degraded: false,
        }
    }
}

impl ClickService for Stub {
    fn handle(&self, _path: &str) -> Response {
        self.response()
    }
    fn warm(&self, _parallelism: Parallelism) -> Result<WarmupReport, ServeError> {
        Ok(WarmupReport::default())
    }
    fn note_panic(&self) {}
    fn note_shed(&self) {}
    fn note_timeout_config_error(&self, _err: &std::io::Error) {}
    fn note_accept_error(&self) {}
    fn note_conn_opened(&self) {}
    fn note_conn_closed(&self) {}
    fn note_keepalive_reuse(&self) {}
    fn note_idle_closed(&self) {}
}

/// Bare `TcpStream`s between threads: each accepted connection gets a
/// thread that waits for a request's blank line and writes back fixed
/// bytes. No reactor, no pool, no parsing: the floor under every
/// round-trip rung.
struct LoopbackFloor {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl LoopbackFloor {
    fn start(reply: Vec<u8>) -> std::io::Result<LoopbackFloor> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let reply = Arc::new(reply);
        let acceptor = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut peers = Vec::new();
                for stream in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(mut stream) = stream else { continue };
                    let reply = reply.clone();
                    peers.push(std::thread::spawn(move || {
                        let _ = stream.set_nodelay(true);
                        let mut buf = [0u8; 4096];
                        let mut have = 0;
                        loop {
                            match stream.read(&mut buf[have..]) {
                                Ok(0) | Err(_) => return,
                                Ok(n) => have += n,
                            }
                            if buf[..have].ends_with(b"\r\n\r\n") {
                                have = 0;
                                if stream.write_all(&reply).is_err() {
                                    return;
                                }
                            } else if have == buf.len() {
                                return;
                            }
                        }
                    }));
                }
                // Clients have hung up by now, so every peer thread is
                // at end-of-stream.
                for p in peers {
                    let _ = p.join();
                }
            })
        };
        Ok(LoopbackFloor {
            addr,
            stop,
            acceptor: Some(acceptor),
        })
    }
}

impl Drop for LoopbackFloor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Wake the blocking accept.
        let _ = std::net::TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));
        if let Some(t) = self.acceptor.take() {
            let _ = t.join();
        }
    }
}

/// Round-trip latencies of the two-connection closed loop against
/// `addr`, recorded as spans named `span`.
pub fn round_trips(
    cfg: &Cfg,
    rec: &mut Recorder,
    span: &'static str,
    addr: SocketAddr,
    urls: &UrlSet,
    table: &RefTable,
    connect_per_click: bool,
) -> Vec<u64> {
    let mix = ClickMix::new(&urls.articles, &urls.categories, urls.front, cfg.seed);
    let target = Target {
        addr,
        urls,
        table: Some(table),
        mix: &mix,
        connect_per_click,
        span: Some(span),
    };
    let plan = Plan {
        warmup: share(cfg, 0.02),
        window: share(cfg, 0.1),
        slice: CLICK_SLICE,
    };
    let r = run_clicks(target, cfg.seed, plan, &|| 0);
    rec.absorb(r.recorder);
    r.slices.into_iter().flat_map(|s| s.latencies_ns).collect()
}

/// Times `f` in batches of `reps` for `budget`, as spans named `span`.
pub fn micro(
    rec: &mut Recorder,
    span: &'static str,
    reps: u32,
    budget: Duration,
    mut f: impl FnMut(),
) {
    let t = Instant::now();
    let mut batches = 0;
    while batches < 20 || t.elapsed() < budget {
        rec.time_batch(span, reps, &mut f);
        batches += 1;
    }
}

/// Runs the transport rungs; returns the warm site for the next probes.
pub fn probe(cfg: &Cfg, rec: &mut Recorder, m: &mut Measures) -> WarmSite {
    let stub = Arc::new(Stub::new());
    let stub_urls = UrlSet::single("/page/Stub");
    let stub_table = RefTable::from_bodies(std::iter::once(stub.body.as_str()));
    let stub_wire = proto::encode_response(&stub.response(), false, true, None);

    // The floor.
    {
        let floor = LoopbackFloor::start(stub_wire).expect("loopback listener binds");
        let mut lat = round_trips(
            cfg,
            rec,
            "os.loopback.echo_rt",
            floor.addr,
            &stub_urls,
            &stub_table,
            false,
        );
        m.set_median("os.loopback.echo_rt_us", &mut lat, 1e3);
    }

    // The epoll reactor and the thread pool over the stub.
    for (name, span, transport) in [
        (
            "serve.event.stub_rt_us",
            "serve.event.stub_rt",
            Transport::Epoll,
        ),
        (
            "serve.server.stub_rt_us",
            "serve.server.stub_rt",
            Transport::Threads,
        ),
    ] {
        let config = ServerConfig {
            transport,
            ..server_config()
        };
        let server = serve(stub.clone(), config).expect("stub server binds");
        let per_click = transport == Transport::Threads;
        let mut lat = round_trips(
            cfg,
            rec,
            span,
            server.addr(),
            &stub_urls,
            &stub_table,
            per_click,
        );
        m.set_median(name, &mut lat, 1e3);
        server.shutdown();
    }

    // The epoll reactor over the warm site, on the workloads' click mix.
    let warm = WarmSite::setup(cfg.scale(1000, 100));
    let table = RefTable::scout(warm.server.addr(), &warm.urls).expect("scout pass");
    let mut lat = round_trips(
        cfg,
        rec,
        "serve.event.site_rt",
        warm.server.addr(),
        &warm.urls,
        &table,
        false,
    );
    m.set_median("serve.event.site_rt_us", &mut lat, 1e3);

    // `proto` alone.
    let requests = &warm.urls.requests;
    let mut i = 0;
    micro(
        rec,
        "serve.proto.parse_request",
        64,
        share(cfg, 0.01),
        || {
            i = (i + 1) % requests.len();
            black_box(proto::parse_request(
                black_box(&requests[i]),
                MAX_REQUEST_BYTES as usize,
            ));
        },
    );
    m.set_from_spans(
        "serve.proto.parse_request_ns",
        rec,
        "serve.proto.parse_request",
        1.0,
    );
    let small = stub.response();
    micro(
        rec,
        "serve.proto.encode_response.small",
        16,
        share(cfg, 0.01),
        || {
            black_box(proto::encode_response(black_box(&small), false, true, None));
        },
    );
    let front = warm
        .service
        .handle(&warm.urls.paths[warm.urls.front as usize]);
    micro(
        rec,
        "serve.proto.encode_response.front",
        1,
        share(cfg, 0.01),
        || {
            black_box(proto::encode_response(black_box(&front), false, true, None));
        },
    );
    m.set_from_spans(
        "serve.proto.encode_response_ns.small",
        rec,
        "serve.proto.encode_response.small",
        1.0,
    );
    m.set_from_spans(
        "serve.proto.encode_response_ns.front",
        rec,
        "serve.proto.encode_response.front",
        1.0,
    );
    warm
}
