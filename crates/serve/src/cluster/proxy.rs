//! The router's loopback HTTP client: one [`Upstream`] per worker
//! incarnation, one deadline per exchange, one [`Exchange`] for both of
//! its I/O loops.
//!
//! **The lifetime rule.** An `Upstream` owns a worker's address and a
//! LIFO stack of idle kept-alive sockets to it. The supervisor creates
//! one when a spawned worker catches up (the socket of that catch-up is
//! the stack's first) and unpublishes it when the worker dies, is
//! killed or drains; a replacement worker gets a new `Upstream` with an
//! empty stack. A socket therefore cannot outlive the process it was
//! opened to, and no response is ever read from a socket opened to an
//! earlier incarnation — a crash cannot poison the pool because the
//! pool dies with the crash. What is kept is sockets, never bytes: every
//! fetch is answered by the worker, so the delta barrier's guarantee
//! (no response mixes epochs) is untouched.
//!
//! **One exchange, two I/O loops.** An [`Exchange`] is the protocol
//! without the socket: it encodes the request, takes the response in
//! whatever pieces it arrives, and comes to pending, done (with the
//! reuse verdict) or failed (with the stale verdict). [`Upstream::fetch`]
//! drives it blocking under socket timeouts — the barrier's catch-ups,
//! the warm crawl, the `/healthz` probes and every click the reactor did
//! not take. The router's epoll reactor drives it non-blocking
//! ([`Conn::pump`]) on an idle socket it took with
//! [`Upstream::take_idle`], which never connects and never waits. Both
//! loops return sockets to the one stack, so the head parser, the
//! reuse rule and the stale rule below are each written once.
//!
//! **The retry rule.** A socket can still go bad while idle within one
//! incarnation: the worker closes connections idle past its
//! `keepalive_timeout`. A request on a *reused* socket that fails before
//! the first response byte, with anything but a timeout, is retried
//! exactly once on a fresh connection inside the same deadline (for a
//! click the reactor forwarded, on the render pool: the reactor never
//! connects). Nothing else is retried — a timeout, a failure after the
//! first byte and any failure on a fresh connection are the `io::Error`
//! the caller sees, and the caller decides between degraded service and
//! a kill. A socket goes back on the stack only after a complete
//! response that says `Connection: keep-alive` and brought no bytes
//! beyond its `Content-Length`.
//!
//! Every stage of a blocking exchange (connect, write, each read)
//! charges against the fetch's one deadline: the socket timeouts are
//! armed once per exchange with what is left of it, and the deadline is
//! checked again before every read, so a stalled worker costs the
//! router a bounded wait, not a thread. The reactor's sweep holds a
//! forwarded exchange to the same deadline.

use crate::proto::{self, HeadOutcome, ParsedResponse};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The most idle sockets one [`Upstream`] keeps. Only a thread that
/// just finished an exchange returns one — the router's reactor or
/// render pool, the monitor, a delta writer — so this is a backstop, not
/// a tunable.
const MAX_IDLE: usize = 32;

/// A pooled socket's buffer is kept up to this size; one that grew to
/// hold a large page is not worth holding per idle socket.
const BUF_KEEP: usize = 16 * 1024;

/// Bytes one `read` of a response takes.
const READ_CHUNK: usize = 8192;

/// One shard's exchange counters. They outlive incarnations: the slot
/// owns them and hands each new [`Upstream`] a share. At rest,
/// `connects + reuses == fetches + retries` — both sides count the
/// exchanges attempted.
#[derive(Debug, Default)]
pub struct UpstreamCounters {
    /// Calls to [`Upstream::fetch`], and sockets the reactor took.
    pub fetches: AtomicU64,
    /// Exchanges attempted on a fresh connection (the stack's miss, and
    /// every retry).
    pub connects: AtomicU64,
    /// Exchanges attempted on a socket taken from the idle stack.
    pub reuses: AtomicU64,
    /// Reused sockets found dead before the first response byte, whose
    /// request was sent again on a fresh connection.
    pub retries: AtomicU64,
    /// Exchanges the router's reactor drove, each also a fetch and a
    /// reuse: the clicks [`Upstream::take_idle`] found a socket for.
    pub forwards: AtomicU64,
}

/// The client for one worker incarnation (see module docs).
#[derive(Debug)]
pub struct Upstream {
    addr: SocketAddr,
    idle: Mutex<Vec<Conn>>,
    counters: Arc<UpstreamCounters>,
}

impl Upstream {
    /// A client for the worker listening at `addr`, with no socket yet.
    pub fn new(addr: SocketAddr, counters: Arc<UpstreamCounters>) -> Upstream {
        Upstream {
            addr,
            idle: Mutex::new(Vec::new()),
            counters,
        }
    }

    /// The worker's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Idle sockets on the stack right now.
    pub fn idle(&self) -> usize {
        self.stack().len()
    }

    fn stack(&self) -> std::sync::MutexGuard<'_, Vec<Conn>> {
        // A push or pop cannot leave the stack half-updated.
        self.idle.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fetches `path` from the worker with GET, within `deadline` end to
    /// end, on an idle socket when there is one (see the module docs for
    /// the retry rule). Any error — connect refused, timeout, a torn or
    /// malformed response — comes back as `io::Error`.
    pub fn fetch(&self, path: &str, deadline: Duration) -> io::Result<ParsedResponse> {
        let until = Instant::now() + deadline;
        self.counters.fetches.fetch_add(1, Ordering::Relaxed);
        // Popped in a statement of its own: the guard must be gone before
        // the exchange, not live through the `if let`.
        let reused = self.stack().pop();
        if let Some(mut conn) = reused {
            self.counters.reuses.fetch_add(1, Ordering::Relaxed);
            match conn.exchange(path, until) {
                Ok(done) => return Ok(self.finish(conn, done)),
                Err(failed) => self.retry_rule(failed)?,
            }
        }
        self.fetch_fresh(path, until)
    }

    /// An exchange on a new connection, by `until`: the idle stack's
    /// miss, and the one retry a stale reused socket earns — for a click
    /// the reactor forwarded, run on the render pool.
    pub(crate) fn fetch_fresh(&self, path: &str, until: Instant) -> io::Result<ParsedResponse> {
        self.counters.connects.fetch_add(1, Ordering::Relaxed);
        let stream = TcpStream::connect_timeout(&self.addr, time_left(until)?)?;
        stream.set_nodelay(true)?;
        let mut conn = Conn {
            stream,
            buf: Vec::new(),
            nonblocking: false,
        };
        let done = conn.exchange(path, until).map_err(|failed| failed.error)?;
        Ok(self.finish(conn, done))
    }

    /// The retry rule, for both loops: a reused socket that failed
    /// stale earns one more exchange on a fresh connection (`Ok`, and
    /// counted); any other failure is final.
    pub(crate) fn retry_rule(&self, failed: Failed) -> io::Result<()> {
        if !failed.stale {
            return Err(failed.error);
        }
        self.counters.retries.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// An idle socket for the reactor to drive one exchange on, counted
    /// as a fetch, a reuse and a forward. Never connects, never blocks:
    /// `None` when the stack is empty, and the click goes to the pool's
    /// [`Upstream::fetch`], which connects and leaves its socket here.
    pub(crate) fn take_idle(&self) -> Option<Conn> {
        let mut conn = self.stack().pop()?;
        // A socket that cannot change modes is dropped, not driven.
        conn.set_nonblocking(true).ok()?;
        let c = &self.counters;
        for counter in [&c.fetches, &c.reuses, &c.forwards] {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        Some(conn)
    }

    /// Returns a socket whose exchange left it clean to the stack.
    pub(crate) fn finish(&self, mut conn: Conn, done: Exchanged) -> ParsedResponse {
        if done.reusable {
            if conn.buf.capacity() > BUF_KEEP {
                conn.buf = Vec::new();
            }
            let mut stack = self.stack();
            if stack.len() < MAX_IDLE {
                stack.push(conn);
            }
        }
        done.response
    }
}

/// One connection to the worker, and the buffer that travels with it:
/// each exchange encodes its request into it, then reads the response
/// into it.
#[derive(Debug)]
pub(crate) struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Whether `stream` is in the reactor's non-blocking mode. Each
    /// loop switches it only when it finds it in the other's.
    nonblocking: bool,
}

/// One GET on one connection, without the connection (see the module
/// docs). The request is encoded into the buffer; once a loop has
/// written it ([`Exchange::wrote`]) the same buffer takes the response.
#[derive(Debug)]
pub(crate) struct Exchange {
    buf: Vec<u8>,
    /// Request bytes written so far; `None` once all of them are.
    sent: Option<usize>,
    /// The response head, once complete.
    head: Option<Head>,
}

#[derive(Debug)]
struct Head {
    /// The head's fields; [`Exchange::finish`] fills in the body.
    response: ParsedResponse,
    body_at: usize,
    /// Where the body ends, by its `Content-Length`.
    end: usize,
}

/// Where an [`Exchange`] stands after the bytes it was given.
#[derive(Debug)]
pub(crate) enum Step {
    /// More response bytes are needed.
    Pending,
    /// The response is complete: [`Conn::end`] hands it over with the
    /// reuse verdict. Bytes fed after this only make the socket
    /// unreusable.
    Done,
    /// The exchange failed, stale or not.
    Failed(Failed),
}

/// A completed exchange.
#[derive(Debug)]
pub(crate) struct Exchanged {
    response: ParsedResponse,
    /// The worker keeps the connection open and nothing of a next
    /// response is already on it.
    reusable: bool,
}

/// A failed exchange.
#[derive(Debug)]
pub(crate) struct Failed {
    error: io::Error,
    /// Failed before the first response byte and not by timeout: what a
    /// socket closed by the peer while idle looks like.
    stale: bool,
}

impl Failed {
    /// A failure no retry mends: a malformed response, or one of the
    /// reactor's own.
    pub(crate) fn not_stale(error: io::Error) -> Failed {
        Failed {
            stale: false,
            error,
        }
    }

    /// The deadline passed before the exchange finished: never stale.
    pub(crate) fn timed_out() -> Failed {
        Failed::not_stale(deadline_exhausted())
    }
}

impl Conn {
    /// The socket, for the reactor's epoll set.
    pub(crate) fn socket(&self) -> &TcpStream {
        &self.stream
    }

    /// Starts an exchange for `path` in this connection's buffer.
    pub(crate) fn start(&mut self, path: &str) -> Exchange {
        Exchange::new(path, std::mem::take(&mut self.buf))
    }

    /// Ends an exchange its loop saw `Done`, taking the buffer back.
    pub(crate) fn end(&mut self, exchange: Exchange) -> Exchanged {
        let (done, buf) = exchange.finish();
        self.buf = buf;
        done
    }

    fn set_nonblocking(&mut self, on: bool) -> io::Result<()> {
        if self.nonblocking != on {
            self.stream.set_nonblocking(on)?;
            self.nonblocking = on;
        }
        Ok(())
    }

    /// The blocking loop: one whole exchange by `until`.
    fn exchange(&mut self, path: &str, until: Instant) -> Result<Exchanged, Failed> {
        let mut exchange = self.start(path);
        self.drive(&mut exchange, until)?;
        Ok(self.end(exchange))
    }

    fn drive(&mut self, exchange: &mut Exchange, until: Instant) -> Result<(), Failed> {
        let left = time_left(until).map_err(|e| exchange.fail(e))?;
        self.set_nonblocking(false)
            .and_then(|()| self.stream.set_write_timeout(Some(left)))
            .and_then(|()| self.stream.set_read_timeout(Some(left)))
            .map_err(|e| exchange.fail(e))?;
        let request = exchange.unsent().len();
        (&self.stream)
            .write_all(exchange.unsent())
            .map_err(|e| exchange.fail(e))?;
        exchange.wrote(request);
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            // The socket's timeout bounds this read; the check before it
            // bounds their sum.
            let n = time_left(until)
                .and_then(|_| (&self.stream).read(&mut chunk))
                .map_err(|e| exchange.fail(e))?;
            match exchange.feed(&chunk[..n]) {
                Step::Pending => {}
                Step::Done => return Ok(()),
                Step::Failed(failed) => return Err(failed),
            }
        }
    }

    /// The non-blocking loop, run by the reactor on a socket from
    /// [`Upstream::take_idle`]: writes what is left of the request,
    /// reads what has arrived, and is `Pending` the moment the socket
    /// would block. It never waits.
    pub(crate) fn pump(&mut self, exchange: &mut Exchange) -> Step {
        let mut stream = &self.stream;
        while !exchange.unsent().is_empty() {
            match stream.write(exchange.unsent()) {
                Ok(0) => return Step::Failed(exchange.fail(io::ErrorKind::WriteZero.into())),
                Ok(n) => exchange.wrote(n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Step::Pending,
                Err(e) => return Step::Failed(exchange.fail(e)),
            }
        }
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match stream.read(&mut chunk) {
                Ok(n) => match exchange.feed(&chunk[..n]) {
                    Step::Pending => {}
                    step => return step,
                },
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Step::Pending,
                Err(e) => return Step::Failed(exchange.fail(e)),
            }
        }
    }
}

impl Exchange {
    fn new(path: &str, mut buf: Vec<u8>) -> Exchange {
        buf.clear();
        proto::encode_request(&mut buf, "GET", path, true);
        Exchange {
            buf,
            sent: Some(0),
            head: None,
        }
    }

    /// Request bytes not written yet.
    pub(crate) fn unsent(&self) -> &[u8] {
        self.sent.map_or(&[][..], |sent| &self.buf[sent..])
    }

    /// `n` more request bytes were written; after the last of them the
    /// buffer turns to the response.
    pub(crate) fn wrote(&mut self, n: usize) {
        let Some(sent) = self.sent.map(|sent| sent + n) else {
            return;
        };
        self.sent = (sent < self.buf.len()).then_some(sent);
        if self.sent.is_none() {
            self.buf.clear();
        }
    }

    /// Takes the next response bytes; an empty slice is the peer's EOF.
    pub(crate) fn feed(&mut self, bytes: &[u8]) -> Step {
        if bytes.is_empty() && !self.is_done() {
            return Step::Failed(self.fail(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "worker closed mid-response",
            )));
        }
        self.buf.extend_from_slice(bytes);
        if self.head.is_none() {
            match proto::parse_response_head(&self.buf) {
                HeadOutcome::Incomplete => return Step::Pending,
                HeadOutcome::Malformed => {
                    return Step::Failed(Failed::not_stale(invalid(
                        "malformed response from worker",
                    )))
                }
                HeadOutcome::Complete {
                    response,
                    body_len,
                    consumed,
                } => {
                    let Some(end) = consumed.checked_add(body_len) else {
                        return Step::Failed(Failed::not_stale(invalid(
                            "Content-Length overflows",
                        )));
                    };
                    // The length is the worker's word: believe it for a
                    // megabyte of allocation, and let the bytes that
                    // arrive pay for the rest.
                    self.buf.reserve(end.saturating_sub(self.buf.len()).min(1 << 20));
                    self.head = Some(Head {
                        response,
                        body_at: consumed,
                        end,
                    });
                }
            }
        }
        if self.is_done() {
            Step::Done
        } else {
            Step::Pending
        }
    }

    fn is_done(&self) -> bool {
        self.head.as_ref().is_some_and(|h| self.buf.len() >= h.end)
    }

    /// What an I/O error on this exchange comes to — the stale rule: a
    /// failure before the first response byte, by anything but a
    /// timeout, is what a socket the peer closed while idle looks like.
    pub(crate) fn fail(&self, error: io::Error) -> Failed {
        let before_first_byte = self.sent.is_some() || self.buf.is_empty();
        Failed {
            stale: before_first_byte && !is_timeout(&error),
            error,
        }
    }

    /// The response of an exchange that came to `Done`, with its reuse
    /// verdict, and the buffer back.
    fn finish(self) -> (Exchanged, Vec<u8>) {
        let Head {
            mut response,
            body_at,
            end,
        } = self.head.expect("an exchange is finished only once it is done");
        response.body = String::from_utf8_lossy(&self.buf[body_at..end]).into_owned();
        let reusable = response.keep_alive && self.buf.len() == end;
        (Exchanged { response, reusable }, self.buf)
    }
}

/// What is left of the deadline, or `TimedOut` when nothing is.
fn time_left(until: Instant) -> io::Result<Duration> {
    let left = until.saturating_duration_since(Instant::now());
    if left.is_zero() {
        Err(deadline_exhausted())
    } else {
        Ok(left)
    }
}

fn deadline_exhausted() -> io::Error {
    io::Error::new(io::ErrorKind::TimedOut, "proxy deadline exhausted")
}

/// A socket timeout surfaces as `WouldBlock` on Linux.
fn is_timeout(error: &io::Error) -> bool {
    matches!(
        error.kind(),
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}

fn invalid(what: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::mpsc;

    /// A listener for a scripted worker and the client pointed at it.
    fn peer() -> (TcpListener, Upstream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream = Upstream::new(listener.local_addr().unwrap(), Arc::default());
        (listener, upstream)
    }

    /// Reads one request head off `s`.
    fn read_request(s: &mut TcpStream) -> String {
        let mut req = Vec::new();
        let mut chunk = [0u8; 1024];
        while !req.windows(4).any(|w| w == b"\r\n\r\n") {
            let n = s.read(&mut chunk).unwrap();
            assert!(n > 0, "client closed mid-request");
            req.extend_from_slice(&chunk[..n]);
        }
        String::from_utf8(req).unwrap()
    }

    /// Reads one request and answers it with `body`, then `trailer`.
    fn answer(s: &mut TcpStream, body: &str, connection: &str, trailer: &str) -> String {
        let req = read_request(s);
        let wire = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\n\
             Content-Length: {}\r\nConnection: {connection}\r\n\r\n{body}{trailer}",
            body.len()
        );
        s.write_all(wire.as_bytes()).unwrap();
        req
    }

    /// `(fetches, connects, reuses, retries)`, after checking the
    /// identity that ties them.
    fn counts(upstream: &Upstream) -> (u64, u64, u64, u64) {
        let c = &upstream.counters;
        let [fetches, connects, reuses, retries] =
            [&c.fetches, &c.connects, &c.reuses, &c.retries].map(|a| a.load(Ordering::Relaxed));
        assert_eq!(
            connects + reuses,
            fetches + retries,
            "both sides count exchanges attempted"
        );
        (fetches, connects, reuses, retries)
    }

    const DEADLINE: Duration = Duration::from_secs(2);

    #[test]
    fn fetch_round_trips_against_a_scripted_peer() {
        let (listener, upstream) = peer();
        let peer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            answer(&mut s, "<p>w</p>", "keep-alive", "")
        });
        let resp = upstream.fetch("/page/X", DEADLINE).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, "text/html; charset=utf-8");
        assert_eq!(resp.body, "<p>w</p>");
        let seen = peer.join().unwrap();
        assert!(seen.starts_with("GET /page/X HTTP/1.1\r\n"), "{seen}");
        assert!(seen.contains("Connection: keep-alive"), "{seen}");
        assert_eq!(upstream.idle(), 1, "the socket is kept");
        assert_eq!(counts(&upstream), (1, 1, 0, 0));
    }

    #[test]
    fn a_stalled_peer_times_out_instead_of_hanging() {
        let (listener, upstream) = peer();
        let (done, hold) = mpsc::channel::<()>();
        let peer = std::thread::spawn(move || {
            // Accept, then say nothing until the client gives up.
            let (_s, _) = listener.accept().unwrap();
            let _ = hold.recv();
        });
        let start = Instant::now();
        let err = upstream.fetch("/", Duration::from_millis(150)).unwrap_err();
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "deadline respected"
        );
        assert!(is_timeout(&err), "{err:?}");
        assert_eq!(upstream.idle(), 0);
        assert_eq!(counts(&upstream), (1, 1, 0, 0));
        drop(done);
        peer.join().unwrap();
    }

    #[test]
    fn refused_connections_error_immediately() {
        // Bind then drop to find a port with nothing listening.
        let (listener, upstream) = peer();
        drop(listener);
        assert!(upstream.fetch("/", Duration::from_millis(500)).is_err());
        assert_eq!(counts(&upstream), (1, 1, 0, 0));
    }

    #[test]
    fn two_fetches_share_one_accepted_connection() {
        let (listener, upstream) = peer();
        let peer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            answer(&mut s, "one", "keep-alive", "");
            answer(&mut s, "two", "keep-alive", "");
        });
        assert_eq!(upstream.fetch("/1", DEADLINE).unwrap().body, "one");
        assert_eq!(upstream.fetch("/2", DEADLINE).unwrap().body, "two");
        peer.join().unwrap();
        assert_eq!(upstream.idle(), 1);
        assert_eq!(counts(&upstream), (2, 1, 1, 0));
    }

    #[test]
    fn a_socket_closed_while_idle_is_retried_once_on_a_fresh_connection() {
        let (listener, upstream) = peer();
        let (closed, wait_closed) = mpsc::channel();
        let peer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            answer(&mut s, "one", "keep-alive", "");
            // The worker's keep-alive timeout, in effect.
            drop(s);
            closed.send(()).unwrap();
            let (mut s, _) = listener.accept().unwrap();
            answer(&mut s, "two", "keep-alive", "");
        });
        assert_eq!(upstream.fetch("/1", DEADLINE).unwrap().body, "one");
        wait_closed.recv().unwrap();
        assert_eq!(upstream.idle(), 1, "the client cannot know yet");
        assert_eq!(upstream.fetch("/2", DEADLINE).unwrap().body, "two");
        peer.join().unwrap();
        assert_eq!(upstream.idle(), 1, "the fresh socket took its place");
        assert_eq!(counts(&upstream), (2, 2, 1, 1));
    }

    #[test]
    fn a_response_torn_after_its_first_byte_is_an_error_not_a_retry() {
        let (listener, upstream) = peer();
        let peer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            answer(&mut s, "one", "keep-alive", "");
            read_request(&mut s);
            s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhalf-")
                .unwrap();
        });
        assert_eq!(upstream.fetch("/1", DEADLINE).unwrap().body, "one");
        let err = upstream.fetch("/2", DEADLINE).unwrap_err();
        assert!(!is_timeout(&err), "{err:?}");
        peer.join().unwrap();
        assert_eq!(upstream.idle(), 0, "the torn socket is gone");
        assert_eq!(counts(&upstream), (2, 1, 1, 0));
    }

    #[test]
    fn a_timeout_on_a_reused_socket_is_not_retried() {
        let (listener, upstream) = peer();
        let (done, hold) = mpsc::channel::<()>();
        let peer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            answer(&mut s, "one", "keep-alive", "");
            read_request(&mut s);
            let _ = hold.recv();
        });
        assert_eq!(upstream.fetch("/1", DEADLINE).unwrap().body, "one");
        let start = Instant::now();
        let err = upstream
            .fetch("/2", Duration::from_millis(150))
            .unwrap_err();
        assert!(start.elapsed() < Duration::from_millis(500));
        assert!(is_timeout(&err), "{err:?}");
        assert_eq!(upstream.idle(), 0, "the stalled socket is gone");
        assert_eq!(counts(&upstream), (2, 1, 1, 0));
        drop(done);
        peer.join().unwrap();
    }

    #[test]
    fn the_retry_spends_what_the_first_attempt_left_of_the_deadline() {
        let (listener, upstream) = peer();
        let (done, hold) = mpsc::channel::<()>();
        let peer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            answer(&mut s, "one", "keep-alive", "");
            // Take the second request, sit on it, then reset; stall the
            // retry's connection for good.
            read_request(&mut s);
            std::thread::sleep(Duration::from_millis(400));
            drop(s);
            let (_s, _) = listener.accept().unwrap();
            let _ = hold.recv();
        });
        assert_eq!(upstream.fetch("/1", DEADLINE).unwrap().body, "one");
        let start = Instant::now();
        let err = upstream
            .fetch("/2", Duration::from_millis(600))
            .unwrap_err();
        let took = start.elapsed();
        assert!(is_timeout(&err), "{err:?}");
        assert!(
            took < Duration::from_millis(900),
            "400 ms + a fresh 600 ms would be 1 s; took {took:?}"
        );
        assert_eq!(upstream.idle(), 0);
        assert_eq!(counts(&upstream), (2, 2, 1, 1));
        drop(done);
        peer.join().unwrap();
    }

    #[test]
    fn a_connection_the_peer_closes_or_overruns_is_not_pooled() {
        for (connection, trailer) in [("close", ""), ("keep-alive", "HTTP/1.1 200 stray")] {
            let (listener, upstream) = peer();
            let peer = std::thread::spawn(move || {
                for body in ["one", "two"] {
                    let (mut s, _) = listener.accept().unwrap();
                    answer(&mut s, body, connection, trailer);
                }
            });
            assert_eq!(upstream.fetch("/1", DEADLINE).unwrap().body, "one");
            assert_eq!(upstream.idle(), 0, "{connection:?} {trailer:?}");
            assert_eq!(upstream.fetch("/2", DEADLINE).unwrap().body, "two");
            peer.join().unwrap();
            assert_eq!(counts(&upstream), (2, 2, 0, 0));
        }
    }

    /// A response and its reuse verdict, or a failure's stale verdict
    /// and kind.
    type Verdict = Result<(ParsedResponse, bool), (bool, io::ErrorKind)>;

    /// Feeds `wire` to a fresh exchange in the pieces `cuts` marks. The
    /// pieces keep coming after `Done` — a loop stops reading there,
    /// and the verdict must not depend on where it stopped — and an
    /// exchange still pending at the end gets the peer's EOF.
    fn feed_in_pieces(wire: &[u8], cuts: &[usize]) -> Verdict {
        let mut exchange = Exchange::new("/page/X", Vec::new());
        let request = exchange.unsent().len();
        exchange.wrote(request);
        let bounds: Vec<usize> = std::iter::once(0)
            .chain(cuts.iter().copied())
            .chain(std::iter::once(wire.len()))
            .collect();
        let mut done = false;
        for piece in bounds.windows(2).map(|w| &wire[w[0]..w[1]]) {
            // An empty slice is EOF, not a piece.
            if piece.is_empty() {
                continue;
            }
            match exchange.feed(piece) {
                Step::Pending => {}
                Step::Done => done = true,
                Step::Failed(failed) => return Err((failed.stale, failed.error.kind())),
            }
        }
        if !done {
            match exchange.feed(&[]) {
                Step::Failed(failed) => return Err((failed.stale, failed.error.kind())),
                step => panic!("EOF on a pending exchange came to {step:?}"),
            }
        }
        let (exchanged, _) = exchange.finish();
        Ok((exchanged.response, exchanged.reusable))
    }

    #[test]
    fn every_chunking_of_a_response_comes_to_the_whole_feed_verdict() {
        let wire = |body: &str, connection: &str, trailer: &str| {
            format!(
                "HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\n\
                 Content-Length: {}\r\nConnection: {connection}\r\n\r\n{body}{trailer}",
                body.len()
            )
            .into_bytes()
        };
        let page = |body: &str, keep_alive: bool| ParsedResponse {
            status: 200,
            content_type: "text/html; charset=utf-8".into(),
            body: body.into(),
            degraded: false,
            keep_alive,
        };
        let torn = wire("<p>w</p>", "keep-alive", "");
        let cases: [(&str, Vec<u8>, Verdict); 7] = [
            (
                "a kept-alive page",
                wire("<p>w</p>", "keep-alive", ""),
                Ok((page("<p>w</p>", true), true)),
            ),
            (
                "Content-Length: 0",
                wire("", "keep-alive", ""),
                Ok((page("", true), true)),
            ),
            (
                "Connection: close",
                wire("<p>w</p>", "close", ""),
                Ok((page("<p>w</p>", false), false)),
            ),
            (
                "bytes beyond Content-Length",
                wire("<p>w</p>", "keep-alive", "HTTP/1.1 200 stray"),
                Ok((page("<p>w</p>", true), false)),
            ),
            (
                "a head over 16 KiB",
                format!("HTTP/1.1 200 OK\r\nX-Pad: {}\r\n\r\n", "p".repeat(16 * 1024))
                    .into_bytes(),
                Err((false, io::ErrorKind::InvalidData)),
            ),
            (
                "EOF before the first byte",
                Vec::new(),
                Err((true, io::ErrorKind::UnexpectedEof)),
            ),
            (
                "EOF mid-body",
                torn[..torn.len() - 3].to_vec(),
                Err((false, io::ErrorKind::UnexpectedEof)),
            ),
        ];
        for (name, wire, expected) in cases {
            let whole = feed_in_pieces(&wire, &[]);
            assert_eq!(whole, expected, "{name}: the whole-buffer feed");
            let byte_by_byte: Vec<usize> = (1..wire.len()).collect();
            assert_eq!(feed_in_pieces(&wire, &byte_by_byte), whole, "{name}: byte by byte");
            // Every split in two, head/body boundary included; every
            // 97th across the 16 KiB head, which byte by byte covers.
            let stride = if wire.len() > 4096 { 97 } else { 1 };
            for cut in (1..wire.len()).step_by(stride) {
                assert_eq!(feed_in_pieces(&wire, &[cut]), whole, "{name}: split at {cut}");
            }
        }
    }
}
