//! The HTTP front end: one connection loop, the epoll reactor in
//! `crate::event`, over a click service — a [`crate::SiteService`] or
//! the cluster router ([`crate::ClusterService`]).
//!
//! This module holds what the reactor and the fronts share: the
//! [`ClickService`] trait the reactor dispatches into, the knobs
//! ([`ServerConfig`]), the handle that shuts a server down, and the
//! body types a reply is written from. The reactor's semantics:
//!
//! * HTTP/1.1 keep-alive; a warm hit is answered on the reactor thread
//!   and everything else on a render pool of [`ServerConfig::workers`]
//!   threads, whose worker writes the answer it rendered.
//! * When the render pool's queue is full ([`ServerConfig::max_backlog`])
//!   or the connection cap is reached ([`ServerConfig::max_connections`]),
//!   new work sheds with a `503` + `Retry-After` instead of queueing
//!   unbounded.
//! * A panic escaping a handler is caught — the request answers 500 and
//!   the worker keeps serving.
//! * Total request-head bytes are capped ([`MAX_REQUEST_BYTES`]) — an
//!   endless request line or header block answers `431`.
//! * A client that stalls mid-head past [`ServerConfig::timeout`] is
//!   answered `408`, never dispatched with unread bytes on the socket.
//! * Persistent `accept` failures (an EMFILE storm, say) back off and
//!   count on `/metrics` instead of busy-spinning the accept path.
//!
//! Shutdown is graceful: a flag flips, a loopback self-connection wakes
//! the reactor, and every in-flight request drains before the threads
//! join. The reactor needs epoll, so [`serve`] fails on a platform
//! without it; the rest of the crate is portable.

use crate::{Response, ServeError, TransportCounters, WarmupReport};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use strudel_struql::Parallelism;

/// Upper bound on total request bytes read per connection (request line
/// plus headers). A request that exceeds it answers
/// `431 Request Header Fields Too Large`.
pub const MAX_REQUEST_BYTES: u64 = 16 * 1024;

/// How long the reactor leaves the listener deregistered after a failed
/// `accept` before retrying, so a persistent error (EMFILE, ENFILE)
/// cannot busy-spin a core while it lasts.
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

/// A response body written from where it already is, after a head
/// encoded for it: a cache's shared page, a last-known-good copy, a
/// page a forwarded exchange just read, or a page the render pool just
/// rendered.
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
    /// The response the router's render-pool path returns.
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
    /// Records a request shed by the full render queue, or a connection
    /// shed at the connection cap.
    fn note_shed(&self) {
        if let Some(t) = self.transport() {
            t.note_shed()
        }
    }
    /// Never called: the reactor sets no per-socket timeouts. Kept so
    /// that implementations which override it still compile.
    #[doc(hidden)]
    fn note_timeout_config_error(&self, _err: &std::io::Error) {}
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
    /// (keep-alive reuse).
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
    /// Records a pool answer its worker handed back to the reactor
    /// instead of finishing it: a partial write, a connection that
    /// closes or has a request buffered, or a failed re-arm.
    fn note_handback(&self) {
        if let Some(t) = self.transport() {
            t.note_handback()
        }
    }
}

/// Ignored: both variants are served by the epoll reactor. Kept so
/// that callers naming a transport still compile.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Transport {
    #[default]
    Threads,
    Epoll,
}

/// Server knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Render-pool threads: they run what the reactor does not answer
    /// inline.
    pub workers: usize,
    /// The budget a connection has to deliver a complete request head
    /// (and to take a response) before it is answered `408` (or cut
    /// off).
    pub timeout: Duration,
    /// Requests that may wait for a render-pool thread. When the queue
    /// is full the reactor sheds new work with a `503` and a
    /// `Retry-After` header instead of queueing unbounded work.
    pub max_backlog: usize,
    /// The `Retry-After` value (seconds) sent on shed connections.
    pub retry_after_secs: u64,
    /// Ignored: every server runs the epoll reactor.
    #[doc(hidden)]
    pub transport: Transport,
    /// How long a keep-alive connection may sit idle between requests
    /// before the reactor closes it.
    pub keepalive_timeout: Duration,
    /// At this many open connections, new ones are shed with a `503`
    /// instead of registered.
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
            // Wake the reactor's epoll_wait with a throwaway
            // connection. The listener may be bound to
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

/// Starts serving `service` per `config` on the epoll reactor. Returns
/// once the socket is bound and the reactor and render pool are up; on
/// a platform without epoll, fails naming it.
pub fn serve<S: ClickService>(
    service: Arc<S>,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    crate::event::serve_epoll(service, config, listener)
}
