//! The HTTP front end: two interchangeable transports over a shared
//! click service — a [`crate::SiteService`] or the cluster router
//! ([`crate::ClusterService`]).
//!
//! [`Transport::Threads`] (the default, and the portable baseline) is a
//! plain-`std::net` thread pool: one accept thread feeds accepted
//! connections into a *bounded* `mpsc` channel; `workers` threads drain
//! it, each parsing a minimal `GET`/`HEAD` request through the shared
//! [`crate::proto`] grammar, dispatching into the service, and writing
//! exactly one response (`Connection: close`). [`Transport::Epoll`]
//! (Linux) is the event-driven keep-alive reactor in `crate::event`:
//! thousands of idle connections cost one fd each, not a thread each.
//! Both transports serve byte-identical bodies — they share the parser,
//! the status responses, and the response encoder.
//!
//! Common semantics, either transport:
//!
//! * When every worker is busy and the backlog is full, new work sheds
//!   with a `503` + `Retry-After` instead of queueing unbounded
//!   ([`ServerConfig::max_backlog`]).
//! * A panic escaping a handler is caught — the request answers 500 and
//!   the worker keeps serving.
//! * Total request-head bytes are capped ([`MAX_REQUEST_BYTES`]) — an
//!   endless request line or header block answers `431`.
//! * A client that stalls mid-request is answered `408` (or dropped),
//!   never dispatched with unread bytes on the socket.
//! * Persistent `accept` failures (an EMFILE storm, say) back off and
//!   count on `/metrics` instead of busy-spinning the accept path.
//!
//! Shutdown is graceful: a flag flips, a loopback self-connection wakes
//! the accept path, and every in-flight request drains before the
//! threads join.

use crate::proto::{self, ParseOutcome};
use crate::{Response, ServeError, TransportCounters, WarmupReport};
use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use strudel_struql::Parallelism;

/// Upper bound on total request bytes read per connection (request line
/// plus headers). A request that exceeds it answers
/// `431 Request Header Fields Too Large`.
pub const MAX_REQUEST_BYTES: u64 = 16 * 1024;

/// How long the accept path sleeps after a failed `accept` before
/// retrying, so a persistent error (EMFILE, ENFILE) cannot busy-spin a
/// core while it lasts.
pub const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(20);

/// A page answered from bytes already in hand — always status 200. The
/// body is the cache's own shared allocation: the transport writes it
/// from there, so a hit copies nothing proportional to the page.
#[derive(Clone, Debug)]
pub struct WarmHit {
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// The finished page.
    pub body: Arc<str>,
}

/// A response body the epoll reactor writes from where it already is,
/// after a head it encodes: a cache's shared page, a last-known-good
/// copy, or a page a forwarded exchange just read.
#[derive(Debug)]
pub(crate) enum Body {
    Shared(Arc<str>),
    Owned(String),
}

impl AsRef<str> for Body {
    fn as_ref(&self) -> &str {
        match self {
            Body::Shared(body) => body,
            Body::Owned(body) => body,
        }
    }
}

/// A [`Response`] whose body the reactor need not copy.
#[derive(Debug)]
pub(crate) struct Reply {
    pub(crate) status: u16,
    pub(crate) content_type: &'static str,
    pub(crate) body: Body,
    pub(crate) degraded: bool,
}

impl Reply {
    /// The response the pool and the thread transport encode.
    pub(crate) fn into_response(self) -> Response {
        let body = match self.body {
            Body::Shared(body) => body.to_string(),
            Body::Owned(body) => body,
        };
        Response {
            status: self.status,
            content_type: self.content_type,
            body,
            degraded: self.degraded,
        }
    }
}

impl From<Response> for Reply {
    fn from(response: Response) -> Reply {
        Reply {
            status: response.status,
            content_type: response.content_type,
            body: Body::Owned(response.body),
            degraded: response.degraded,
        }
    }
}

impl From<WarmHit> for Reply {
    fn from(hit: WarmHit) -> Reply {
        Reply {
            status: 200,
            content_type: hit.content_type,
            body: Body::Shared(hit.body),
            degraded: false,
        }
    }
}

/// What the transport needs from a service: request dispatch, optional
/// pre-warming, and failure-mode counters. Implemented by
/// [`crate::SiteService`] (one engine) and [`crate::ClusterService`] (N
/// worker processes) — the transport is identical over both.
pub trait ClickService: Send + Sync + 'static {
    /// Serves one request path.
    fn handle(&self, path: &str) -> Response;
    /// Answers `path` only if that takes no waiting at all: the epoll
    /// reactor calls this on its own thread for every GET/HEAD and
    /// writes a hit straight back, so an implementation must **never
    /// block, never render, never run a fault hook** — anything it
    /// cannot answer from bytes already in hand is `None`, and the
    /// request goes through [`ClickService::handle`] on the render pool
    /// exactly as if this method did not exist (the default).
    fn try_warm(&self, _path: &str) -> Option<WarmHit> {
        None
    }
    /// Hands `path` to the epoll reactor to forward upstream itself,
    /// asked only after [`ClickService::try_warm`] declined. Under the
    /// same contract — **never connect, never block** — a forward is an
    /// idle kept-alive socket already in hand, the route it was taken
    /// from and the routed path; anything else is `None`, and the
    /// request goes through [`ClickService::handle`] on the render pool
    /// (the default). The router ([`crate::ClusterService`]) is the
    /// only implementor.
    fn try_forward(&self, _path: &str) -> Option<crate::cluster::Forward> {
        None
    }
    /// Warms the front before it accepts traffic by the one
    /// [`crate::crawl`] of its site from `/`. `parallelism` is ignored:
    /// the crawl runs on the calling thread.
    fn warm(&self, parallelism: Parallelism) -> Result<WarmupReport, ServeError>;
    /// Where the `note_*` hooks below book what the transport tells
    /// them, unless overridden: the front's own [`TransportCounters`].
    /// `None` (the default) makes every provided hook a no-op, for a
    /// service that keeps no such books or overrides the hooks to keep
    /// its own.
    fn transport(&self) -> Option<&TransportCounters> {
        None
    }
    /// Records a panic caught by the transport's worker backstop.
    fn note_panic(&self) {
        if let Some(t) = self.transport() {
            t.note_panic()
        }
    }
    /// Records a connection shed by the full backlog.
    fn note_shed(&self) {
        if let Some(t) = self.transport() {
            t.note_shed()
        }
    }
    /// Records a failed socket-timeout setup.
    fn note_timeout_config_error(&self, err: &std::io::Error) {
        if let Some(t) = self.transport() {
            t.note_timeout_config_error(err)
        }
    }
    /// Records a failed `accept`.
    fn note_accept_error(&self) {
        if let Some(t) = self.transport() {
            t.note_accept_error()
        }
    }
    /// Records a connection opened (the `strudel_open_connections`
    /// gauge increments).
    fn note_conn_opened(&self) {
        if let Some(t) = self.transport() {
            t.note_conn_opened()
        }
    }
    /// Records a connection closed (the gauge decrements).
    fn note_conn_closed(&self) {
        if let Some(t) = self.transport() {
            t.note_conn_closed()
        }
    }
    /// Records a request served on an already-used connection
    /// (keep-alive reuse; only the epoll transport reuses).
    fn note_keepalive_reuse(&self) {
        if let Some(t) = self.transport() {
            t.note_keepalive_reuse()
        }
    }
    /// Records a keep-alive connection closed by the idle deadline.
    fn note_idle_closed(&self) {
        if let Some(t) = self.transport() {
            t.note_idle_closed()
        }
    }
}

/// Which HTTP front end carries the traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Transport {
    /// The portable blocking thread pool: one worker thread per
    /// in-flight connection, `Connection: close` on every response.
    /// The bench baseline.
    #[default]
    Threads,
    /// The event-driven epoll reactor (`crate::event`, Linux only):
    /// HTTP/1.1 keep-alive, idle-connection deadlines, warm hits
    /// answered on the reactor thread and a render pool for the rest —
    /// idle connections cost an fd, not a thread.
    Epoll,
}

impl Transport {
    /// Whether this transport can run on the current platform
    /// ([`Transport::Epoll`] requires Linux).
    pub fn is_supported(self) -> bool {
        match self {
            Transport::Threads => true,
            Transport::Epoll => strudel_epoll::supported(),
        }
    }
}

/// Server knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads handling requests (the render pool, under the
    /// epoll transport).
    pub workers: usize,
    /// Per-request socket read/write timeout (threads transport), and
    /// the budget a reactor connection has to deliver a complete
    /// request head before it is answered `408` (epoll transport).
    pub timeout: Duration,
    /// Accepted connections that may wait for a worker. When the backlog
    /// is full the accept path sheds new work with a `503` and a
    /// `Retry-After` header instead of queueing unbounded work.
    pub max_backlog: usize,
    /// The `Retry-After` value (seconds) sent on shed connections.
    pub retry_after_secs: u64,
    /// Which front end carries the traffic.
    pub transport: Transport,
    /// Epoll transport: how long a keep-alive connection may sit idle
    /// between requests before the reactor closes it.
    pub keepalive_timeout: Duration,
    /// Epoll transport: at this many open connections, new ones are
    /// shed with a `503` instead of registered.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            timeout: Duration::from_secs(10),
            max_backlog: 1024,
            retry_after_secs: 1,
            transport: Transport::Threads,
            keepalive_timeout: Duration::from_secs(5),
            max_connections: 4096,
        }
    }
}

/// A running server; dropping it shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    pub(crate) fn new(
        addr: SocketAddr,
        stop: Arc<AtomicBool>,
        accept: JoinHandle<()>,
        workers: Vec<JoinHandle<()>>,
    ) -> Self {
        ServerHandle {
            addr,
            stop,
            accept: Some(accept),
            workers,
        }
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains in-flight requests, joins every thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            // Wake the blocking accept (or the reactor's epoll_wait)
            // with a throwaway connection. The listener may be bound to
            // an unspecified address (0.0.0.0 / ::), which is not
            // connectable — aim at loopback on the bound port instead,
            // and bound the wake so a filtered loopback can't turn
            // shutdown into a hang.
            let ip: IpAddr = if self.addr.ip().is_unspecified() {
                match self.addr {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                }
            } else {
                self.addr.ip()
            };
            let wake = SocketAddr::new(ip, self.addr.port());
            let _ = TcpStream::connect_timeout(&wake, Duration::from_millis(500));
        }
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Starts serving `service` per `config`. Returns once the socket is
/// bound and the worker pool (or reactor) is up.
pub fn serve<S: ClickService>(
    service: Arc<S>,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    match config.transport {
        Transport::Threads => serve_threads(service, config, listener),
        Transport::Epoll => crate::event::serve_epoll(service, config, listener),
    }
}

fn serve_threads<S: ClickService>(
    service: Arc<S>,
    config: ServerConfig,
    listener: TcpListener,
) -> std::io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));

    let (tx, rx) = mpsc::sync_channel::<TcpStream>(config.max_backlog.max(1));
    let rx = Arc::new(Mutex::new(rx));

    let mut workers = Vec::with_capacity(config.workers.max(1));
    for i in 0..config.workers.max(1) {
        let rx = Arc::clone(&rx);
        let service = Arc::clone(&service);
        let timeout = config.timeout;
        workers.push(
            std::thread::Builder::new()
                .name(format!("strudel-serve-worker-{i}"))
                .spawn(move || loop {
                    // Hold the receiver lock only for the dequeue, never
                    // across a request.
                    let stream = rx.lock().unwrap().recv();
                    match stream {
                        Ok(stream) => {
                            service.note_conn_opened();
                            // Backstop for panics outside the service's own
                            // handler (request parsing, response writing): the
                            // connection drops but the worker survives.
                            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                                handle_connection(stream, &*service, timeout)
                            }));
                            if caught.is_err() {
                                service.note_panic();
                            }
                            service.note_conn_closed();
                        }
                        Err(_) => break, // channel closed: shutting down
                    }
                })?,
        );
    }

    let accept_stop = Arc::clone(&stop);
    let accept_service = Arc::clone(&service);
    let retry_after_secs = config.retry_after_secs;
    let accept = std::thread::Builder::new()
        .name("strudel-serve-accept".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let stream = match stream {
                    Ok(s) => s,
                    Err(_) => {
                        // A failed accept with nothing accepted —
                        // typically fd exhaustion. Count it and back
                        // off briefly: the error is persistent for as
                        // long as the cause lasts, and an instant retry
                        // would busy-spin this thread at 100% while
                        // delivering nothing.
                        accept_service.note_accept_error();
                        std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                        continue;
                    }
                };
                match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(mpsc::TrySendError::Full(stream)) => {
                        // Saturated: answer from the accept thread so the
                        // client learns to back off instead of queueing.
                        accept_service.note_shed();
                        shed_connection(stream, retry_after_secs);
                    }
                    Err(mpsc::TrySendError::Disconnected(_)) => break,
                }
            }
            // tx drops here; workers drain the queue and exit.
        })?;

    Ok(ServerHandle::new(addr, stop, accept, workers))
}

/// What reading one request head off a blocking socket produced.
enum HeadRead {
    /// A complete head (possibly with pipelined bytes left unread — the
    /// thread transport answers one request per connection and closes).
    Request(proto::ParsedRequest),
    /// The head outgrew [`MAX_REQUEST_BYTES`].
    TooLarge,
    /// The client stalled mid-head (read timeout) with bytes already
    /// buffered: answer `408` rather than dispatching a half request.
    TimedOut,
    /// Nothing useful arrived (clean EOF, instant error): just close.
    Drop,
}

fn read_request_head(stream: &TcpStream) -> HeadRead {
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut scratch = [0u8; 2048];
    loop {
        match proto::parse_request(&buf, MAX_REQUEST_BYTES as usize) {
            ParseOutcome::Complete { request, .. } => return HeadRead::Request(request),
            ParseOutcome::TooLarge => return HeadRead::TooLarge,
            ParseOutcome::Incomplete => {}
        }
        match (&mut (&*stream)).read(&mut scratch) {
            Ok(0) => return HeadRead::Drop, // EOF before a full head
            Ok(n) => buf.extend_from_slice(&scratch[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // The per-request socket timeout fired mid-head. The
                // old code dispatched whatever had parsed so far — with
                // the rest of the head still unread on the socket, the
                // response would race a TCP reset. Answer 408 instead.
                return if buf.is_empty() {
                    HeadRead::Drop
                } else {
                    HeadRead::TimedOut
                };
            }
            Err(_) => return HeadRead::Drop,
        }
    }
}

/// Parses one request and writes the service's response. Errors are
/// answered with a 400/408/431 where possible and otherwise dropped — a
/// broken client must never take a worker down.
fn handle_connection<S: ClickService>(stream: TcpStream, service: &S, timeout: Duration) {
    // A failed timeout setup means this connection could hold its worker
    // indefinitely. Serve it anyway, but never silently: the service logs
    // the first failure and counts every one.
    if let Err(e) = stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
    {
        service.note_timeout_config_error(&e);
    }
    let (response, head_only, must_drain) = match read_request_head(&stream) {
        HeadRead::Drop => return,
        HeadRead::TooLarge => (proto::response_431(MAX_REQUEST_BYTES), false, true),
        HeadRead::TimedOut => (proto::response_408(), false, true),
        HeadRead::Request(request) => match request.refusal() {
            Some(refused) => (refused, false, false),
            None => (service.handle(&request.path), request.head_only(), false),
        },
    };
    // The thread transport is strictly one request per connection: every
    // response closes, keeping it the clean connection-per-request
    // baseline next to the reactor's keep-alive.
    let bytes = proto::encode_response(&response, head_only, false, None);
    let mut stream = stream;
    if stream.write_all(&bytes).and_then(|()| stream.flush()).is_ok() && must_drain {
        // The client may still be mid-send; drain briefly so closing
        // with unread data doesn't RST the response away.
        drain_before_close(&mut stream, Duration::from_millis(100));
    }
}

/// Answers a connection the backlog has no room for: a `503` with a
/// `Retry-After` header, written from the accept thread under short
/// timeouts so a slow client cannot stall accepting.
fn shed_connection(mut stream: TcpStream, retry_after_secs: u64) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let bytes =
        proto::encode_response(&proto::response_503(), false, false, Some(retry_after_secs));
    let _ = stream.write_all(&bytes);
    let _ = stream.flush();
    drain_before_close(&mut stream, Duration::from_millis(100));
}

/// Drains whatever request bytes arrived, until EOF or the deadline.
/// Closing with unread data makes TCP reset the connection, which would
/// discard the response sitting in the client's receive buffer — and one
/// 1024-byte read is not enough for a request larger than 1 KiB.
fn drain_before_close(stream: &mut TcpStream, max_wait: Duration) {
    let deadline = Instant::now() + max_wait;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
    let mut scratch = [0u8; 1024];
    loop {
        match stream.read(&mut scratch) {
            Ok(0) => break, // client closed its half: nothing left unread
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => break,
        }
        if Instant::now() >= deadline {
            break;
        }
    }
}
