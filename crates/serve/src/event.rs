//! The connection loop: one epoll reactor thread owns every
//! connection and answers warm hits itself; a render pool runs
//! everything else. [`crate::server::serve`] runs it for every server.
//! A thread per connection would make N browsers holding connections
//! open cost N threads, and a close after every response would make
//! every click pay a TCP handshake. The reactor avoids both:
//!
//! * **One reactor thread** multiplexes all sockets through
//!   `epoll_wait` (via the safe [`strudel_epoll`] bindings — this crate
//!   keeps its `forbid(unsafe_code)`). An idle keep-alive connection is
//!   one registered fd and a couple hundred bytes of state; thousands
//!   of them cost no threads at all.
//! * **HTTP/1.1 keep-alive**: after a response, the connection goes
//!   back to reading and the next request skips the handshake.
//!   Pipelined requests already buffered are parsed immediately.
//! * **A warm hit is answered where it is read.** For every complete
//!   GET/HEAD the reactor first asks [`ClickService::try_warm`] on its
//!   own thread. A hit — a page in the HTML cache — is written
//!   right there: the head is encoded into the connection's reused
//!   buffer, the body stays the cache's shared `Arc<str>`, and one
//!   `writev` sends both. A warm click on a kept-alive connection is
//!   `epoll_wait`, `read`, `writev`: no `epoll_ctl`, no channel, no
//!   `eventfd`, no cross-thread wake-up, no copy of the page.
//! * **A proxied click is forwarded where it is read.** What `try_warm`
//!   declines the reactor offers [`ClickService::try_forward`]; the
//!   cluster router answers with an idle kept-alive socket to the owner
//!   worker. The socket joins the epoll set under a token of its own,
//!   the reactor writes the request, and the worker's answer is read
//!   and written back like a hit — head encoded, body written from
//!   where it was read. A proxied click is `read`, `write` upstream,
//!   `epoll_wait`, `read` upstream, `writev`: no channel, no `eventfd`,
//!   no render thread.
//! * **A render pool** ([`ServerConfig::workers`] threads) runs
//!   [`ClickService::handle`] for whatever both declined — renders,
//!   proxies without an idle socket, `/metrics`, `/debug/*`, misses —
//!   so a slow page render never stalls the event loop, and it runs the
//!   one retry a stale forwarded socket earns, because that connects.
//!   The worker that rendered the answer writes it: the head encoded,
//!   the body written from the `String` it was rendered into, one
//!   `writev` for both on the client socket. When the whole answer went
//!   out on a kept-alive connection with nothing buffered behind it,
//!   the worker queues a completion and then re-arms the socket for
//!   reading itself: no `eventfd`, no reactor wake-up. Anything it
//!   cannot finish — a partial write, `Connection: close`, a pipelined
//!   request already read, EOF, a failed re-arm — goes back to the
//!   reactor over the same queue and an `eventfd` wakeup, with head,
//!   body and the bytes already written, and the reactor resumes it as
//!   it resumes an inline hit (counted as
//!   `strudel_pool_handbacks_total`). Each idle worker waits on the
//!   pool's queue itself, so a dispatched request wakes one worker and
//!   no other. When that bounded queue ([`ServerConfig::max_backlog`])
//!   is full, the request sheds with `503` + `Retry-After`; so does a
//!   connection past [`ServerConfig::max_connections`]. At shutdown the
//!   workers answer what is still queued before they exit.
//!
//! The reactor thread is the one thread nothing else can stand in for,
//! so it may only run code that cannot wait. That is the `try_warm`
//! contract — *never block, never render, never run a fault hook* —
//! stated on the trait method; what [`crate::SiteService::try_warm`]
//! touches (and why the engine's snapshot lock is a `try_read`) is
//! stated there. `try_forward` holds to the same contract — *never
//! connect, never block*: the locks it takes (the shard's route, the
//! idle stack) and the last-known-good mutex a forward settles under
//! are held only for an `Arc` clone, a pop or push, or a compare. Both
//! run under `catch_unwind`: a panic is counted and the request falls
//! through to the pool.
//!
//! Per-connection lifecycle:
//!
//! ```text
//! Reading ──► inline hit ─────────────► Writing ──► Reading (keep-alive)
//!  ▲ │                                   ▲    ├─► Draining ──► closed
//!  │ ├──────► Forwarding (upstream) ─────┤    └─► closed
//!  │ │             │ stale socket: retry │ handed back
//!  │ │             ▼                     │
//!  │ └──────► Dispatched (render pool) ──┘
//!  │                    │ written whole by its worker
//!  └────────────────────┘
//! ```
//!
//! `Reading` accumulates and incrementally parses a head; `Forwarding`
//! means an upstream exchange the reactor drives owns the request (a
//! stale socket's retry goes on to `Dispatched`); `Dispatched` means
//! the render pool owns the request and writes its answer; `Writing`
//! flushes head and body, resuming a partial write on `EPOLLOUT`
//! wherever it stopped; `Draining` sinks the client's unread bytes
//! briefly so closing doesn't RST the response away. A worker that
//! wrote its answer whole re-arms the socket only after queueing the
//! completion that puts the connection back in `Reading`, and every
//! tick drains completions before it dispatches its events, so the
//! socket's next event finds the connection `Reading`. One flat loop
//! (`advance`) walks a connection through these states until it has to
//! wait, so pipelined requests answered inline chain without recursion.
//! A readable event reads once (the socket is level-triggered: what is
//! left reports again) and answers what that read delivered, which
//! bounds the requests one connection can answer per wake-up before the
//! reactor moves on to the next ready connection.
//!
//! Deadlines bound every state, swept once per tick rather than per
//! wake-up: an idle keep-alive connection closes after
//! [`ServerConfig::keepalive_timeout`] (counted on `/metrics`), a
//! partial head older than [`ServerConfig::timeout`] answers `408`
//! (slow-loris), a forward past its request deadline settles as a
//! failed exchange, a stalled response write is cut off, and a failed
//! `accept` deregisters the listener for
//! [`crate::server::ACCEPT_ERROR_BACKOFF`] instead of spinning.

use crate::server::ClickService;

#[cfg(target_os = "linux")]
mod imp {
    use super::ClickService;
    use crate::cluster::proxy::{Failed, Step};
    use crate::cluster::{Click, Forward};
    use crate::proto::{self, ParseOutcome};
    use crate::server::{
        Body, Reply, ServerConfig, ServerHandle, ACCEPT_ERROR_BACKOFF, MAX_REQUEST_BYTES,
    };
    use crate::Response;
    use std::collections::VecDeque;
    use std::io::{self, IoSlice, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::{AsRawFd, RawFd};
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};
    use strudel_epoll::{Epoll, Event, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

    /// Reactor tick: the longest `epoll_wait` blocks, and how often
    /// deadlines (idle close, 408, drain, accept re-arm) are swept.
    const TICK_MS: i32 = 50;
    /// Bytes one readable event reads off a connection: the per-wakeup
    /// budget of requests it may answer (see [`Reactor::readable`]).
    const READ_CHUNK: usize = 4096;
    /// The largest `out` buffer a connection keeps between responses:
    /// room for any head, never a page.
    const OUT_KEEP: usize = 1024;
    /// How long a closing connection drains unread request bytes.
    const DRAIN_WINDOW: Duration = Duration::from_millis(100);
    /// Token of the listening socket.
    const LISTENER: u64 = u64::MAX;
    /// Token of the wakeup eventfd.
    const WAKEUP: u64 = u64::MAX - 1;
    /// Connection tokens are `generation << 32 | slot`; the generation
    /// keeps 30 bits so no token can collide with the two above.
    const GEN_MASK: u32 = 0x3fff_ffff;
    /// Set on the token of a forward's upstream socket, beside its
    /// client connection's token: the slot's generation check rejects
    /// its stale events too.
    const UPSTREAM: u64 = 1 << 62;

    fn token_for(idx: usize, gen: u32) -> u64 {
        (((gen & GEN_MASK) as u64) << 32) | idx as u64
    }

    /// A request handed to the render pool.
    struct Job {
        token: u64,
        /// The client socket, which the worker writes the answer on.
        /// Shared, so a connection the reactor closes meanwhile keeps
        /// its fd until the worker is done: the number is not reused
        /// under it, and its re-arm finds the fd gone from the epoll
        /// set.
        stream: Arc<TcpStream>,
        path: String,
        /// A forwarded click whose stale socket earned it a retry on a
        /// fresh connection: the pool runs that instead of `handle`.
        refetch: Option<Click>,
        head_only: bool,
        keep_alive: bool,
        /// Whether the connection may go straight back to reading once
        /// the answer is out: it is kept alive, no further request is
        /// buffered and the client has not closed its half. While
        /// `Dispatched` the reactor reads nothing, so this holds until
        /// the answer is written.
        rearm: bool,
    }

    /// The render pool's bounded job queue ([`ServerConfig::max_backlog`]).
    /// Every idle worker waits on `ready` itself, so a queued job wakes
    /// exactly one of them.
    struct JobQueue {
        state: Mutex<Jobs>,
        ready: Condvar,
        capacity: usize,
    }

    struct Jobs {
        queued: VecDeque<Job>,
        /// Set when the reactor stops: the workers answer what is still
        /// queued, then exit.
        closed: bool,
    }

    impl JobQueue {
        fn new(capacity: usize) -> Self {
            JobQueue {
                state: Mutex::new(Jobs {
                    queued: VecDeque::new(),
                    closed: false,
                }),
                ready: Condvar::new(),
                capacity,
            }
        }

        fn jobs(&self) -> std::sync::MutexGuard<'_, Jobs> {
            self.state
                .lock()
                .expect("nothing panics holding the job queue")
        }

        /// Queues `job` and wakes one idle worker; `false`, with the job
        /// dropped, when the queue is full.
        fn push(&self, job: Job) -> bool {
            let mut jobs = self.jobs();
            if jobs.queued.len() >= self.capacity {
                return false;
            }
            jobs.queued.push_back(job);
            // Woken after the unlock, the worker does not wait again for
            // the lock this thread still holds.
            drop(jobs);
            self.ready.notify_one();
            true
        }

        /// The next job, waiting for one; `None` once the queue is closed
        /// and empty.
        fn pop(&self) -> Option<Job> {
            let mut jobs = self.jobs();
            loop {
                if let Some(job) = jobs.queued.pop_front() {
                    return Some(job);
                }
                if jobs.closed {
                    return None;
                }
                jobs = self
                    .ready
                    .wait(jobs)
                    .expect("nothing panics holding the job queue");
            }
        }
    }

    /// The reactor's end of the job queue. Dropped — when the reactor
    /// returns or unwinds — it closes the queue, so the workers drain it
    /// and exit and the server's join never waits on an idle worker.
    struct JobSender(Arc<JobQueue>);

    impl Drop for JobSender {
        fn drop(&mut self) {
            self.0.jobs().closed = true;
            self.0.ready.notify_all();
        }
    }

    /// A click the reactor is forwarding, and how to answer it.
    struct Forwarding {
        forward: Forward,
        /// The epoll interest its upstream socket is registered with.
        interest: u32,
        head_only: bool,
        keep_alive: bool,
    }

    /// A dispatched connection coming back from the pool.
    struct Completion {
        token: u64,
        finish: Finish,
    }

    enum Finish {
        /// The worker wrote the whole answer and re-arms the socket for
        /// reading itself: the connection is `Reading` again.
        Done,
        /// What the worker could not finish, for the reactor to resume
        /// in `Writing`: the head, the body, and how many bytes of the
        /// two are already written.
        Resume {
            head: Vec<u8>,
            body: Option<Body>,
            written: usize,
            keep_alive: bool,
        },
        /// The worker's re-arm failed after its `Done`: the reactor
        /// registers the socket again, or closes it.
        Rearm,
    }

    enum State {
        /// Accumulating request bytes; parse on every read.
        Reading,
        /// An upstream exchange the reactor drives owns the request. The
        /// client socket has no interest, as when `Dispatched`; a
        /// hangup closes it and drops the upstream socket.
        Forwarding(Box<Forwarding>),
        /// The render pool owns the request; no socket interest (errors
        /// and hangups are still delivered and close the connection).
        Dispatched,
        /// Flushing `out`, then `body`.
        Writing,
        /// Response flushed, close pending: sink the client's unread
        /// bytes until EOF or the deadline so close doesn't RST.
        Draining(Instant),
    }

    struct Conn {
        stream: Arc<TcpStream>,
        fd: RawFd,
        gen: u32,
        state: State,
        /// Unparsed request bytes.
        buf: Vec<u8>,
        /// The encoded head being written (the allocation is reused from
        /// one head to the next, except a head the pool hands back).
        out: Vec<u8>,
        /// The body, written after `out` from where it already is.
        body: Option<Body>,
        /// Bytes of `out` + `body` already written.
        out_pos: usize,
        /// Whether the connection survives the current response.
        keep_alive_after: bool,
        /// Whether the current response is followed by a drain (the
        /// request was cut short, so unread bytes may be in flight).
        drain_after: bool,
        /// Client closed its sending half.
        eof: bool,
        /// Requests served on this connection.
        served: u64,
        /// Last byte of progress in either direction.
        last_activity: Instant,
        /// When the first byte of the pending request arrived.
        request_started: Option<Instant>,
        /// Currently registered epoll interest.
        interest: u32,
    }

    impl Conn {
        /// Starts writing a response: what is in `out`, then `body`.
        fn queue(&mut self, body: Option<Body>, keep_alive: bool, drain: bool) {
            self.body = body;
            self.out_pos = 0;
            self.keep_alive_after = keep_alive;
            self.drain_after = drain;
            self.state = State::Writing;
        }
    }

    struct Reactor<S: ClickService> {
        epoll: Arc<Epoll>,
        wakeup: Arc<EventFd>,
        listener: TcpListener,
        listener_fd: RawFd,
        /// When a failed accept deregistered the listener, the instant
        /// to re-register it.
        accept_rearm: Option<Instant>,
        /// When deadlines are next swept.
        next_sweep: Instant,
        service: Arc<S>,
        conns: Vec<Option<Conn>>,
        /// Free slots in `conns`.
        free: Vec<usize>,
        /// Per-slot generation, bumped on close so stale events and
        /// completions for a recycled slot are ignored.
        generations: Vec<u32>,
        open: usize,
        jobs: JobSender,
        completions: Arc<Mutex<VecDeque<Completion>>>,
        stop: Arc<AtomicBool>,
        request_timeout: Duration,
        keepalive_timeout: Duration,
        max_connections: usize,
        retry_after_secs: u64,
    }

    pub(crate) fn serve_epoll<S: ClickService>(
        service: Arc<S>,
        config: ServerConfig,
        listener: TcpListener,
    ) -> io::Result<ServerHandle> {
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let epoll = Arc::new(Epoll::new()?);
        let wakeup = Arc::new(EventFd::new()?);
        epoll.add(listener.as_raw_fd(), EPOLLIN, LISTENER)?;
        epoll.add(wakeup.as_raw_fd(), EPOLLIN, WAKEUP)?;

        let stop = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(JobQueue::new(config.max_backlog.max(1)));
        let completions = Arc::new(Mutex::new(VecDeque::new()));

        let mut workers = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let queue = Arc::clone(&queue);
            let worker = Worker {
                service: Arc::clone(&service),
                epoll: Arc::clone(&epoll),
                completions: Arc::clone(&completions),
                wakeup: Arc::clone(&wakeup),
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("strudel-render-{i}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            worker.answer(job);
                        }
                    })?,
            );
        }

        let listener_fd = listener.as_raw_fd();
        let mut reactor = Reactor {
            epoll,
            wakeup,
            listener,
            listener_fd,
            accept_rearm: None,
            next_sweep: Instant::now(),
            service,
            conns: Vec::new(),
            free: Vec::new(),
            generations: Vec::new(),
            open: 0,
            jobs: JobSender(queue),
            completions,
            stop: Arc::clone(&stop),
            request_timeout: config.timeout,
            keepalive_timeout: config.keepalive_timeout,
            max_connections: config.max_connections.max(1),
            retry_after_secs: config.retry_after_secs,
        };
        let reactor_thread = std::thread::Builder::new()
            .name("strudel-serve-reactor".into())
            .spawn(move || reactor.run())?;

        Ok(ServerHandle::new(addr, stop, reactor_thread, workers))
    }

    /// A render-pool thread's share of the reactor: the service it
    /// renders with, the epoll set it re-arms sockets in, and the queue
    /// and wakeup it hands connections back through.
    struct Worker<S> {
        service: Arc<S>,
        epoll: Arc<Epoll>,
        completions: Arc<Mutex<VecDeque<Completion>>>,
        wakeup: Arc<EventFd>,
    }

    impl<S: ClickService> Worker<S> {
        /// Renders one request and writes the answer on its socket. An
        /// answer written whole on a connection that may go on goes
        /// back to `Reading` without waking the reactor; anything else
        /// is handed back.
        fn answer(&self, job: Job) {
            // Backstop: the service catches its own render panics, so
            // anything escaping here is a bug in the dispatch plumbing —
            // answer 500, count it, keep the worker.
            let rendered = std::panic::catch_unwind(AssertUnwindSafe(|| match job.refetch {
                Some(click) => click.refetch(),
                None => self.service.handle(&job.path),
            }));
            let (response, keep_alive) = match rendered {
                Ok(r) => (r, job.keep_alive),
                Err(_) => {
                    self.service.note_panic();
                    (Response::status_text(500, "internal error\n".into()), false)
                }
            };
            let mut head = Vec::with_capacity(OUT_KEEP);
            proto::encode_head(
                &mut head,
                response.status,
                response.content_type,
                response.body.len(),
                response.degraded,
                keep_alive,
                None,
            );
            let body = (!job.head_only).then_some(Body::Owned(response.body));
            let mut written = 0;
            let whole = matches!(
                write_out(&job.stream, &head, body.as_ref(), &mut written),
                Ok(true)
            );
            if whole && keep_alive && job.rearm {
                // The completion goes first: the re-arm lets the next
                // request's event in, and that event must find the
                // connection `Reading`.
                self.complete(job.token, Finish::Done);
                let fd = job.stream.as_raw_fd();
                match self.epoll.modify(fd, EPOLLIN | EPOLLRDHUP, job.token) {
                    Ok(()) => {}
                    // The reactor closed the connection meanwhile and
                    // took the fd out of the epoll set.
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(_) => self.hand_back(job.token, Finish::Rearm),
                }
            } else {
                self.hand_back(
                    job.token,
                    Finish::Resume {
                        head,
                        body,
                        written,
                        keep_alive,
                    },
                );
            }
        }

        fn complete(&self, token: u64, finish: Finish) {
            self.completions
                .lock()
                .expect("nothing panics holding the completion queue")
                .push_back(Completion { token, finish });
        }

        /// Gives the connection back to the reactor, and wakes it.
        fn hand_back(&self, token: u64, finish: Finish) {
            self.service.note_handback();
            self.complete(token, finish);
            self.wakeup.notify();
        }
    }

    /// Writes `head` then `body` on `stream` from byte `*pos` of the two
    /// on, one `writev` per round, until both are out (`Ok(true)`) or
    /// the socket is full (`Ok(false)`); `*pos` is left where it
    /// stopped, so the next call resumes there, across the boundary.
    fn write_out(
        stream: &TcpStream,
        head: &[u8],
        body: Option<&Body>,
        pos: &mut usize,
    ) -> io::Result<bool> {
        let mut stream = stream;
        let body = body.map_or(&[][..], |body| body.as_ref().as_bytes());
        loop {
            let rest_of_head = &head[(*pos).min(head.len())..];
            let rest_of_body = &body[pos.saturating_sub(head.len())..];
            if rest_of_head.is_empty() && rest_of_body.is_empty() {
                return Ok(true);
            }
            let slices = [IoSlice::new(rest_of_head), IoSlice::new(rest_of_body)];
            match stream.write_vectored(&slices) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => *pos += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
    }

    impl<S: ClickService> Reactor<S> {
        fn run(&mut self) {
            let mut events = vec![Event::default(); 256];
            while !self.stop.load(Ordering::SeqCst) {
                self.tick(&mut events);
            }
            self.shutdown_drain(&mut events);
            // Dropping the reactor closes the job queue; the render
            // workers drain it and exit.
        }

        fn tick(&mut self, events: &mut [Event]) {
            let n = self.epoll.wait(events, TICK_MS).unwrap_or(0);
            // Before the events: a worker queues its completion before
            // it re-arms the socket, so any event the re-arm let in
            // finds the connection back in `Reading`.
            self.drain_completions();
            for ev in events.iter().take(n) {
                match ev.token {
                    LISTENER => self.accept_ready(),
                    WAKEUP => self.wakeup.drain(),
                    token if token & UPSTREAM != 0 => self.upstream_event(token ^ UPSTREAM),
                    token => self.conn_event(token, ev.events),
                }
            }
            // Deadlines are TICK_MS-grained, so walking every connection
            // more often than that is work a click would pay for.
            let now = Instant::now();
            if now >= self.next_sweep {
                self.next_sweep = now + Duration::from_millis(TICK_MS as u64);
                self.sweep(now);
            }
        }

        /// After stop flips: keep ticking briefly so responses already
        /// dispatched to the render pool still reach their clients,
        /// then close everything.
        fn shutdown_drain(&mut self, events: &mut [Event]) {
            let _ = self.epoll.del(self.listener_fd);
            self.accept_rearm = None;
            let deadline = Instant::now() + self.request_timeout.min(Duration::from_secs(2));
            while Instant::now() < deadline {
                let busy = self.conns.iter().flatten().any(|c| {
                    matches!(
                        c.state,
                        State::Forwarding(_) | State::Dispatched | State::Writing
                    )
                });
                if !busy {
                    break;
                }
                self.tick(events);
            }
            for idx in 0..self.conns.len() {
                if self.conns[idx].is_some() {
                    self.close(idx);
                }
            }
        }

        // ---- accept path -------------------------------------------------

        fn accept_ready(&mut self) {
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if self.open >= self.max_connections {
                            self.service.note_shed();
                            self.shed(stream);
                            continue;
                        }
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        self.register(stream);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        // Persistent accept failure (EMFILE and friends).
                        // Level-triggered epoll would report the listener
                        // ready every tick, so counting and continuing
                        // becomes a busy spin; deregister it and re-arm
                        // after a beat instead.
                        self.service.note_accept_error();
                        let _ = self.epoll.del(self.listener_fd);
                        self.accept_rearm = Some(Instant::now() + ACCEPT_ERROR_BACKOFF);
                        break;
                    }
                }
            }
        }

        /// Best-effort `503` to a connection there is no room for,
        /// written from the reactor under a short timeout.
        fn shed(&self, mut stream: TcpStream) {
            let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
            let bytes = proto::encode_response(
                &proto::response_503(),
                false,
                false,
                Some(self.retry_after_secs),
            );
            let _ = stream.write_all(&bytes);
        }

        fn register(&mut self, stream: TcpStream) {
            // Keep-alive turnarounds are small writes on both sides; with
            // Nagle on, each click eats a delayed-ACK stall (~40ms).
            let _ = stream.set_nodelay(true);
            let fd = stream.as_raw_fd();
            let idx = self.free.pop().unwrap_or_else(|| {
                self.conns.push(None);
                self.generations.push(0);
                self.conns.len() - 1
            });
            let gen = self.generations[idx];
            let interest = EPOLLIN | EPOLLRDHUP;
            if self.epoll.add(fd, interest, token_for(idx, gen)).is_err() {
                self.free.push(idx);
                return;
            }
            self.service.note_conn_opened();
            self.open += 1;
            self.conns[idx] = Some(Conn {
                stream: Arc::new(stream),
                fd,
                gen,
                state: State::Reading,
                buf: Vec::new(),
                out: Vec::new(),
                body: None,
                out_pos: 0,
                keep_alive_after: false,
                drain_after: false,
                eof: false,
                served: 0,
                last_activity: Instant::now(),
                request_started: None,
                interest,
            });
        }

        fn close(&mut self, idx: usize) {
            let Some(conn) = self.conns[idx].take() else {
                return;
            };
            let _ = self.epoll.del(conn.fd);
            if let State::Forwarding(f) = &conn.state {
                // The exchange is abandoned mid-way: its socket closes
                // with it and never goes back on the stack.
                let _ = self.epoll.del(f.forward.socket().as_raw_fd());
            }
            self.generations[idx] = conn.gen.wrapping_add(1) & GEN_MASK;
            self.free.push(idx);
            self.open -= 1;
            self.service.note_conn_closed();
            // conn.stream drops here, closing the socket unless a render
            // worker still holds it.
        }

        // ---- connection events -------------------------------------------

        /// Looks up the live connection a token refers to, if any.
        fn resolve(&self, token: u64) -> Option<usize> {
            let idx = (token & 0xffff_ffff) as usize;
            let gen = (token >> 32) as u32;
            let conn = self.conns.get(idx)?.as_ref()?;
            (conn.gen & GEN_MASK == gen).then_some(idx)
        }

        fn conn_event(&mut self, token: u64, bits: u32) {
            let Some(idx) = self.resolve(token) else {
                return; // stale event for a recycled slot
            };
            if bits & (EPOLLERR | EPOLLHUP) != 0 {
                self.close(idx);
                return;
            }
            if bits & (EPOLLIN | EPOLLRDHUP) != 0 {
                self.readable(idx);
            }
            if bits & EPOLLOUT != 0 {
                self.advance(idx);
            }
        }

        fn set_interest(&mut self, idx: usize, interest: u32) {
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            if conn.interest == interest {
                return;
            }
            let (fd, token) = (conn.fd, token_for(idx, conn.gen));
            conn.interest = interest;
            if self.epoll.modify(fd, interest, token).is_err() {
                self.close(idx);
            }
        }

        /// One `read` per readable event, then answer what it delivered.
        /// The socket is level-triggered, so bytes left in the kernel
        /// (a short read means there are none) report again at the next
        /// `epoll_wait` — after every other ready connection had its
        /// turn. That makes [`READ_CHUNK`] the per-wakeup budget: one
        /// connection answers at most the requests one chunk holds
        /// before the reactor moves on, however many were pipelined.
        fn readable(&mut self, idx: usize) {
            let mut scratch = [0u8; READ_CHUNK];
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            match conn.state {
                State::Reading => {}
                State::Draining(_) => {
                    self.sink_unread(idx);
                    return;
                }
                // Only the worker re-arms a dispatched socket, after its
                // completion is queued, and completions drain before
                // events: a readable event here means that order broke.
                // Close rather than spin on an event only the worker's
                // completion could clear.
                State::Dispatched => {
                    self.close(idx);
                    return;
                }
                // Forwarding/Writing don't ask for EPOLLIN; a stray
                // readable event is ignored (bytes stay in the
                // kernel buffer until we come back to Reading).
                _ => return,
            }
            let read = loop {
                match (&*conn.stream).read(&mut scratch) {
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    other => break other,
                }
            };
            match read {
                Ok(0) => conn.eof = true,
                Ok(n) => {
                    let now = Instant::now();
                    if conn.buf.is_empty() {
                        conn.request_started = Some(now);
                    }
                    conn.last_activity = now;
                    conn.buf.extend_from_slice(&scratch[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    self.close(idx);
                    return;
                }
            }
            self.advance(idx);
        }

        /// `Draining`: discards whatever the client still sends, until
        /// it closes its half or the socket runs dry.
        fn sink_unread(&mut self, idx: usize) {
            let mut scratch = [0u8; READ_CHUNK];
            loop {
                let Some(conn) = self.conns[idx].as_ref() else {
                    return;
                };
                match (&*conn.stream).read(&mut scratch) {
                    Ok(0) => self.close(idx), // client done: clean close
                    Ok(_) => continue,        // discard and keep draining
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(_) => self.close(idx),
                }
                return;
            }
        }

        /// Drives one connection as far as it goes without waiting:
        /// answer the next buffered request, flush the answer, repeat —
        /// until it needs more bytes, the render pool, socket space, or
        /// is closed. A flat loop: pipelined requests answered inline
        /// chain here, not on the stack.
        fn advance(&mut self, idx: usize) {
            loop {
                let Some(conn) = self.conns[idx].as_ref() else {
                    return;
                };
                let goes_on = match conn.state {
                    State::Reading => self.next_request(idx),
                    State::Writing => self.flush(idx),
                    State::Forwarding(_) | State::Dispatched | State::Draining(_) => false,
                };
                if !goes_on {
                    return;
                }
            }
        }

        /// `Reading`: parses the next request out of the buffer and
        /// starts answering it — a cache hit and protocol
        /// errors right here, everything else on the render pool.
        /// Returns whether a response is now queued (`Writing`).
        fn next_request(&mut self, idx: usize) -> bool {
            let Some(conn) = self.conns[idx].as_mut() else {
                return false;
            };
            match proto::parse_request(&conn.buf, MAX_REQUEST_BYTES as usize) {
                ParseOutcome::Incomplete => {
                    if conn.eof {
                        // EOF mid-head (or a clean close between
                        // requests): nothing to answer.
                        self.close(idx);
                    }
                    false
                }
                ParseOutcome::TooLarge => {
                    let too_large = proto::response_431(MAX_REQUEST_BYTES);
                    self.queue_response(idx, &too_large, false, true, None)
                }
                ParseOutcome::Complete { request, consumed } => {
                    conn.buf.drain(..consumed);
                    if let Some(refused) = request.refusal() {
                        return self.queue_response(idx, &refused, false, false, None);
                    }
                    if conn.served > 0 {
                        self.service.note_keepalive_reuse();
                    }
                    conn.served += 1;
                    conn.request_started = None;
                    let (head_only, keep_alive) = (request.head_only(), request.keep_alive);
                    // `try_warm` and `try_forward` promise not to block;
                    // they cannot promise not to panic, and the reactor
                    // must outlive a bug in them: count it and let the
                    // pool answer.
                    let inline = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        let service = &self.service;
                        match service.try_warm(&request.path) {
                            Some(hit) => Some(Ok(hit)),
                            None => service.try_forward(&request.path).map(Err),
                        }
                    }))
                    .unwrap_or_else(|_| {
                        self.service.note_panic();
                        None
                    });
                    match inline {
                        Some(Ok(hit)) => self.queue_reply(idx, hit.into(), head_only, keep_alive),
                        Some(Err(forward)) => self.forward(idx, forward, head_only, keep_alive),
                        None => self.dispatch(idx, request.path, None, head_only, keep_alive),
                    }
                }
            }
        }

        /// Starts forwarding a click (`Forwarding`): sends the request
        /// and registers the upstream socket for the answer. Returns
        /// whether a response is queued — when the exchange is already
        /// over.
        fn forward(
            &mut self,
            idx: usize,
            mut forward: Forward,
            head_only: bool,
            keep_alive: bool,
        ) -> bool {
            let Some(conn) = self.conns[idx].as_mut() else {
                return false;
            };
            let step = forward.pump();
            let interest = if forward.writing() { EPOLLOUT } else { EPOLLIN };
            let (fd, token) = (forward.socket().as_raw_fd(), UPSTREAM | token_for(idx, conn.gen));
            conn.state = State::Forwarding(Box::new(Forwarding {
                forward,
                interest,
                head_only,
                keep_alive,
            }));
            let failed = match step {
                Step::Pending => match self.epoll.add(fd, interest, token) {
                    Ok(()) => {
                        // Like `Dispatched`, the client socket waits with
                        // no interest.
                        self.set_interest(idx, 0);
                        return false;
                    }
                    // Unwatchable is not stale: the click degrades like
                    // any exchange that could not finish.
                    Err(e) => Some(Failed::not_stale(e)),
                },
                Step::Done => None,
                Step::Failed(failed) => Some(failed),
            };
            self.settle_forward(idx, failed)
        }

        /// An event on a forward's upstream socket: move the exchange on,
        /// and settle it once it is over.
        fn upstream_event(&mut self, token: u64) {
            let Some(idx) = self.resolve(token) else {
                return; // the client closed: the socket went with it
            };
            let Some(State::Forwarding(f)) = self.conns[idx].as_mut().map(|c| &mut c.state) else {
                return;
            };
            let failed = match f.forward.pump() {
                Step::Pending => {
                    let interest = if f.forward.writing() { EPOLLOUT } else { EPOLLIN };
                    if interest != f.interest {
                        f.interest = interest;
                        let fd = f.forward.socket().as_raw_fd();
                        if self.epoll.modify(fd, interest, UPSTREAM | token).is_err() {
                            self.close(idx);
                        }
                    }
                    return;
                }
                Step::Done => None,
                Step::Failed(failed) => Some(failed),
            };
            if self.settle_forward(idx, failed) {
                self.advance(idx);
            }
        }

        /// Ends a forward — done, failed, or past its deadline — and
        /// answers the click: the worker's response or the router's
        /// fallback, queued as head plus body, or the stale socket's one
        /// retry dispatched to the pool. Returns whether a response is
        /// queued.
        fn settle_forward(&mut self, idx: usize, failed: Option<Failed>) -> bool {
            let Some(conn) = self.conns[idx].as_mut() else {
                return false;
            };
            let State::Forwarding(f) = std::mem::replace(&mut conn.state, State::Dispatched)
            else {
                return false;
            };
            let Forwarding {
                forward,
                head_only,
                keep_alive,
                ..
            } = *f;
            // Out of the epoll set before the socket can go back on the
            // stack, where another thread may take it.
            let _ = self.epoll.del(forward.socket().as_raw_fd());
            match forward.settle(failed) {
                Ok(reply) => self.queue_reply(idx, reply, head_only, keep_alive),
                Err(click) => self.dispatch(idx, String::new(), Some(click), head_only, keep_alive),
            }
        }

        /// Hands a request to the render pool (`Dispatched`), or sheds
        /// it when the pool's queue is full. Returns whether a response
        /// is queued — only the shed `503` is.
        fn dispatch(
            &mut self,
            idx: usize,
            path: String,
            refetch: Option<Click>,
            head_only: bool,
            keep_alive: bool,
        ) -> bool {
            let Some(conn) = self.conns[idx].as_mut() else {
                return false;
            };
            conn.state = State::Dispatched;
            let job = Job {
                token: token_for(idx, conn.gen),
                stream: Arc::clone(&conn.stream),
                path,
                refetch,
                head_only,
                keep_alive,
                rearm: keep_alive && conn.buf.is_empty() && !conn.eof,
            };
            // While dispatched the socket needs no read/write interest;
            // errors and hangups are delivered regardless.
            self.set_interest(idx, 0);
            if self.jobs.0.push(job) {
                return false;
            }
            // Render pool saturated: shed with a 503 the client can retry
            // after.
            self.service.note_shed();
            let retry = self.retry_after_secs;
            self.queue_response(idx, &proto::response_503(), false, true, Some(retry))
        }

        /// Queues a response the reactor made itself (`Writing`).
        /// `keep_alive` says whether the connection survives it; `drain`
        /// adds a drain window before the close (for responses cutting
        /// off an unfinished request). Returns whether it was queued.
        fn queue_response(
            &mut self,
            idx: usize,
            response: &Response,
            keep_alive: bool,
            drain: bool,
            retry_after_secs: Option<u64>,
        ) -> bool {
            let Some(conn) = self.conns[idx].as_mut() else {
                return false;
            };
            conn.out = proto::encode_response(response, false, keep_alive, retry_after_secs);
            conn.queue(None, keep_alive, drain);
            true
        }

        /// Queues a cache hit or a forwarded click's answer: the head
        /// goes into the connection's reused buffer, the body stays
        /// where it is — the cache's or the last-known-good copy's shared
        /// allocation, or the page the exchange read. Nothing the size of
        /// the page is copied.
        fn queue_reply(
            &mut self,
            idx: usize,
            reply: Reply,
            head_only: bool,
            keep_alive: bool,
        ) -> bool {
            let Some(conn) = self.conns[idx].as_mut() else {
                return false;
            };
            let len = reply.body.as_ref().len();
            conn.out.clear();
            proto::encode_head(
                &mut conn.out,
                reply.status,
                reply.content_type,
                len,
                reply.degraded,
                keep_alive,
                None,
            );
            conn.queue((!head_only).then_some(reply.body), keep_alive, false);
            true
        }

        /// `Writing`: one `writev` of what is left of head and body per
        /// round; a partial write resumes wherever it stopped, across
        /// the boundary. Returns whether the response is flushed and the
        /// connection is `Reading` again.
        fn flush(&mut self, idx: usize) -> bool {
            let Some(conn) = self.conns[idx].as_mut() else {
                return false;
            };
            let before = conn.out_pos;
            let flushed = write_out(
                &conn.stream,
                &conn.out,
                conn.body.as_ref(),
                &mut conn.out_pos,
            );
            if conn.out_pos > before {
                conn.last_activity = Instant::now();
            }
            match flushed {
                Ok(true) => self.after_write(idx),
                Ok(false) => {
                    self.set_interest(idx, EPOLLOUT);
                    false
                }
                Err(_) => {
                    self.close(idx);
                    false
                }
            }
        }

        /// The response is fully flushed: drain, close, or keep alive.
        /// Returns whether the connection is `Reading` again.
        fn after_write(&mut self, idx: usize) -> bool {
            let Some(conn) = self.conns[idx].as_mut() else {
                return false;
            };
            conn.body = None;
            conn.out_pos = 0;
            // The next head reuses the allocation; an error response the
            // reactor encoded whole is not worth holding per idle
            // connection.
            if conn.out.capacity() > OUT_KEEP {
                conn.out = Vec::new();
            }
            let now = Instant::now();
            if conn.drain_after {
                conn.state = State::Draining(now + DRAIN_WINDOW);
                self.set_interest(idx, EPOLLIN | EPOLLRDHUP);
                return false;
            }
            if !conn.keep_alive_after || conn.eof {
                self.close(idx);
                return false;
            }
            // Keep-alive: back to reading. Bytes of the next request may
            // already be buffered (pipelining); `advance` parses them
            // right away rather than waiting for another readable event.
            conn.state = State::Reading;
            conn.last_activity = now;
            conn.request_started = (!conn.buf.is_empty()).then_some(now);
            self.set_interest(idx, EPOLLIN | EPOLLRDHUP);
            true
        }

        // ---- completions and deadlines -----------------------------------

        fn drain_completions(&mut self) {
            loop {
                let Some(done) = self.completions.lock().unwrap().pop_front() else {
                    break;
                };
                let Some(idx) = self.resolve(done.token) else {
                    continue; // connection died while rendering
                };
                let Some(conn) = self.conns[idx].as_mut() else {
                    continue;
                };
                match (done.finish, &conn.state) {
                    // The worker saw nothing buffered and re-arms the
                    // socket: record the interest it sets, and wait.
                    (Finish::Done, State::Dispatched) => {
                        conn.state = State::Reading;
                        conn.interest = EPOLLIN | EPOLLRDHUP;
                        conn.last_activity = Instant::now();
                    }
                    (
                        Finish::Resume {
                            head,
                            body,
                            written,
                            keep_alive,
                        },
                        State::Dispatched,
                    ) => {
                        conn.out = head;
                        conn.queue(body, keep_alive, false);
                        conn.out_pos = written;
                        self.advance(idx);
                    }
                    // The worker's re-arm failed: forget the interest
                    // its `Done` recorded so it is set here, or the
                    // connection closes.
                    (Finish::Rearm, State::Reading) => {
                        conn.interest = 0;
                        self.set_interest(idx, EPOLLIN | EPOLLRDHUP);
                    }
                    _ => {}
                }
            }
        }

        /// Enforces every deadline; [`Reactor::tick`] calls it at most
        /// once per `TICK_MS`.
        fn sweep(&mut self, now: Instant) {
            if let Some(rearm) = self.accept_rearm {
                if now >= rearm
                    && self
                        .epoll
                        .add(self.listener_fd, EPOLLIN, LISTENER)
                        .is_ok()
                {
                    self.accept_rearm = None;
                    self.accept_ready();
                }
            }
            for idx in 0..self.conns.len() {
                let Some(conn) = self.conns[idx].as_ref() else {
                    continue;
                };
                match conn.state {
                    State::Reading if conn.buf.is_empty() => {
                        // Idle between requests: the keep-alive deadline.
                        if now.duration_since(conn.last_activity) >= self.keepalive_timeout {
                            self.service.note_idle_closed();
                            self.close(idx);
                        }
                    }
                    State::Reading => {
                        // Partial head aging out: the slow-loris guard.
                        let started = conn.request_started.unwrap_or(conn.last_activity);
                        if now.duration_since(started) >= self.request_timeout
                            && self.queue_response(idx, &proto::response_408(), false, true, None)
                        {
                            self.advance(idx);
                        }
                    }
                    State::Writing => {
                        if now.duration_since(conn.last_activity) >= self.request_timeout {
                            self.close(idx);
                        }
                    }
                    // The click's request deadline: the exchange settles
                    // as a failed one, which the router answers from its
                    // last-known-good copy or with a 503.
                    State::Forwarding(ref f) => {
                        if now >= f.forward.until()
                            && self.settle_forward(idx, Some(Failed::timed_out()))
                        {
                            self.advance(idx);
                        }
                    }
                    State::Draining(deadline) => {
                        if now >= deadline {
                            self.close(idx);
                        }
                    }
                    // The render pool owns dispatched requests; render
                    // time is the service's business, not a transport
                    // deadline.
                    State::Dispatched => {}
                }
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::ClickService;
    use crate::server::{ServerConfig, ServerHandle};
    use std::net::TcpListener;
    use std::sync::Arc;

    pub(crate) fn serve_epoll<S: ClickService>(
        _service: Arc<S>,
        _config: ServerConfig,
        _listener: TcpListener,
    ) -> std::io::Result<ServerHandle> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            format!(
                "strudel serve needs epoll, which {} does not have (Linux only)",
                std::env::consts::OS
            ),
        ))
    }
}

pub(crate) use imp::serve_epoll;
