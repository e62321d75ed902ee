//! The router's loopback HTTP client: one [`Upstream`] per worker
//! incarnation, one deadline per fetch.
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
//! **The retry rule.** A socket can still go bad while idle within one
//! incarnation: the worker closes connections idle past its
//! `keepalive_timeout`. A request on a *reused* socket that fails before
//! the first response byte, with anything but a timeout, is retried
//! exactly once on a fresh connection inside the same deadline. Nothing
//! else is retried — a timeout, a failure after the first byte and any
//! failure on a fresh connection are the `io::Error` the caller sees,
//! and the caller decides between degraded service and a kill. A socket
//! goes back on the stack only after a complete response that says
//! `Connection: keep-alive` and brought no bytes beyond its
//! `Content-Length`.
//!
//! Every stage (connect, write, each read) charges against the fetch's
//! one deadline: the socket timeouts are armed once per exchange with
//! what is left of it, and the deadline is checked again before every
//! read, so a stalled worker costs the router a bounded wait, not a
//! thread.

use crate::proto::{self, HeadOutcome, ParsedResponse};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The most idle sockets one [`Upstream`] keeps. Only a thread that
/// just finished an exchange returns one — the router's render pool,
/// the monitor, a delta writer — so this is a backstop, not a tunable.
const MAX_IDLE: usize = 32;

/// A pooled socket's buffer is kept up to this size; one that grew to
/// hold a large page is not worth holding per idle socket.
const BUF_KEEP: usize = 16 * 1024;

/// One shard's exchange counters. They outlive incarnations: the slot
/// owns them and hands each new [`Upstream`] a share. At rest,
/// `connects + reuses == fetches + retries` — both sides count the
/// exchanges attempted.
#[derive(Debug, Default)]
pub struct UpstreamCounters {
    /// Calls to [`Upstream::fetch`].
    pub fetches: AtomicU64,
    /// Exchanges attempted on a fresh connection (the stack's miss, and
    /// every retry).
    pub connects: AtomicU64,
    /// Exchanges attempted on a socket taken from the idle stack.
    pub reuses: AtomicU64,
    /// Reused sockets found dead before the first response byte, whose
    /// request was sent again on a fresh connection.
    pub retries: AtomicU64,
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
                Err(failed) if failed.stale => {
                    self.counters.retries.fetch_add(1, Ordering::Relaxed);
                }
                Err(failed) => return Err(failed.error),
            }
        }
        self.counters.connects.fetch_add(1, Ordering::Relaxed);
        let stream = TcpStream::connect_timeout(&self.addr, time_left(until)?)?;
        stream.set_nodelay(true)?;
        let mut conn = Conn {
            stream,
            buf: Vec::new(),
        };
        let done = conn.exchange(path, until).map_err(|failed| failed.error)?;
        Ok(self.finish(conn, done))
    }

    /// Returns a socket whose exchange left it clean to the stack.
    fn finish(&self, mut conn: Conn, done: Exchanged) -> ParsedResponse {
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
/// the request is encoded into it, then the response is read into it.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// A completed exchange.
struct Exchanged {
    response: ParsedResponse,
    /// The worker keeps the connection open and nothing of a next
    /// response is already on it.
    reusable: bool,
}

/// A failed exchange.
struct Failed {
    error: io::Error,
    /// Failed before the first response byte and not by timeout: what a
    /// socket closed by the peer while idle looks like.
    stale: bool,
}

impl Failed {
    fn before_first_byte(error: io::Error) -> Failed {
        Failed {
            stale: !is_timeout(&error),
            error,
        }
    }

    fn mid_response(error: io::Error) -> Failed {
        Failed {
            stale: false,
            error,
        }
    }
}

impl Conn {
    fn exchange(&mut self, path: &str, until: Instant) -> Result<Exchanged, Failed> {
        let Conn { stream, buf } = self;

        let left = time_left(until).map_err(Failed::before_first_byte)?;
        stream
            .set_write_timeout(Some(left))
            .and_then(|()| stream.set_read_timeout(Some(left)))
            .map_err(Failed::before_first_byte)?;
        buf.clear();
        proto::encode_request(buf, "GET", path, true);
        stream.write_all(buf).map_err(Failed::before_first_byte)?;

        buf.clear();
        let mut chunk = [0u8; 8192];
        let (mut response, body_at, body_len) = loop {
            let fail = if buf.is_empty() {
                Failed::before_first_byte
            } else {
                Failed::mid_response
            };
            read_more(stream, &mut chunk, buf, until).map_err(fail)?;
            match proto::parse_response_head(buf) {
                HeadOutcome::Incomplete => continue,
                HeadOutcome::Malformed => {
                    return Err(Failed::mid_response(invalid(
                        "malformed response from worker",
                    )))
                }
                HeadOutcome::Complete {
                    response,
                    body_len,
                    consumed,
                } => break (response, consumed, body_len),
            }
        };
        let end = body_at
            .checked_add(body_len)
            .ok_or_else(|| Failed::mid_response(invalid("Content-Length overflows")))?;
        // The length is the worker's word: believe it for a megabyte of
        // allocation, and let the bytes that arrive pay for the rest.
        buf.reserve(end.saturating_sub(buf.len()).min(1 << 20));
        while buf.len() < end {
            read_more(stream, &mut chunk, buf, until).map_err(Failed::mid_response)?;
        }
        response.body = String::from_utf8_lossy(&buf[body_at..end]).into_owned();
        Ok(Exchanged {
            reusable: response.keep_alive && buf.len() == end,
            response,
        })
    }
}

/// One `read` appended to `buf`. The socket's timeout bounds this read;
/// the check before it bounds their sum.
fn read_more(
    mut stream: &TcpStream,
    chunk: &mut [u8],
    buf: &mut Vec<u8>,
    until: Instant,
) -> io::Result<()> {
    time_left(until)?;
    let n = stream.read(chunk)?;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "worker closed mid-response",
        ));
    }
    buf.extend_from_slice(&chunk[..n]);
    Ok(())
}

/// What is left of the deadline, or `TimedOut` when nothing is.
fn time_left(until: Instant) -> io::Result<Duration> {
    let left = until.saturating_duration_since(Instant::now());
    if left.is_zero() {
        Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "proxy deadline exhausted",
        ))
    } else {
        Ok(left)
    }
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
}
