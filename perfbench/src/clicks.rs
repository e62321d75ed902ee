//! The closed-loop click generator and its oracle.
//!
//! Load shape, the same for every click workload: a closed loop of
//! exactly [`CONNECTIONS`] client threads, each with one kept-alive
//! connection, each sending its next request only when the previous
//! response has been read and checked. The generator shares the
//! machine's two cores with the server, so an open-loop schedule would
//! measure the scheduler; and one connection alone flips between two
//! latency modes from run to run (idle-core wake-up), so a
//! one-connection latency is never reported as end-to-end.

use crate::host::Probe;
use crate::http::{fnv1a, Conn, Head};
use crate::inputs::UrlSet;
use crate::mix::ClickMix;
use crate::run::{now_ns, Slice};
use crate::spans::Recorder;
use std::io;
use std::net::SocketAddr;
use std::sync::{Condvar, Mutex};
use std::time::Duration;
use strudel_prng::{SeedableRng, SmallRng};

/// Client threads = client connections = cores of the reference machine.
pub const CONNECTIONS: usize = 2;

/// What one call of a load thread's step did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// One of the workload's operations completed and was verified, in
    /// this many nanoseconds.
    Done(u64),
    /// One of the workload's operations failed.
    Failed,
    /// Load beside the workload's operations (the reader of
    /// `delta-stream`): nothing to count.
    Side,
    /// Nothing left to do in this slice.
    Exhausted,
}

/// One load thread: called back to back while a slice lasts, with
/// whether the slice is recorded.
pub type Worker<'a> = Box<dyn FnMut(bool) -> Step + Send + 'a>;

/// How long a run drives its load.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Unrecorded load before the first recorded slice.
    pub warmup: Duration,
    /// Recorded load: slices are added until they sum to this.
    pub window: Duration,
    /// Length of one slice. A thread finishes the operation it is in, so
    /// a slice shorter than one operation is exactly one operation.
    pub slice: Duration,
}

/// A reusable barrier that a panicking thread breaks, so the others
/// leave instead of waiting for it for ever (`std::sync::Barrier` would
/// hang the run; the panic must surface and unwind through the
/// workload's guards).
struct Rendezvous {
    threads: usize,
    /// `(threads waiting, generation, broken)`.
    state: Mutex<(usize, u64, bool)>,
    arrived: Condvar,
}

impl Rendezvous {
    fn new(threads: usize) -> Rendezvous {
        Rendezvous {
            threads,
            state: Mutex::new((0, 0, false)),
            arrived: Condvar::new(),
        }
    }

    /// Waits for every thread. `Some(true)` for the last to arrive,
    /// `None` once the rendezvous is broken.
    fn wait(&self) -> Option<bool> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.2 {
            return None;
        }
        state.0 += 1;
        if state.0 == self.threads {
            state.0 = 0;
            state.1 += 1;
            self.arrived.notify_all();
            return Some(true);
        }
        let generation = state.1;
        while state.1 == generation && !state.2 {
            state = self.arrived.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        (!state.2).then_some(false)
    }
}

/// Breaks the rendezvous if the thread holding it unwinds.
struct BreakOnPanic<'a>(&'a Rendezvous);

impl Drop for BreakOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.state.lock().unwrap_or_else(|e| e.into_inner()).2 = true;
            self.0.arrived.notify_all();
        }
    }
}

/// The slices of one run, shared by its load threads.
struct Books {
    /// The slice in progress, as the threads hand their shares in.
    current: Slice,
    recorded: Vec<Slice>,
    /// Whether the next slice is recorded (the warm-up is over).
    recording: bool,
    /// Whether the recorded slices have filled the window.
    done: bool,
}

/// Drives `workers`, one thread each, through warm-up and a measured
/// window cut into slices, and returns the recorded slices.
///
/// Every slice runs between two rendezvous of all threads. At each
/// rendezvous every thread runs the host probe, all at the same moment
/// and with no operation in flight, so the probes tell the host's speed
/// and nothing about the load; a slice is calibrated by the probes on
/// both sides of it (see [`crate::host`]). `cpu` reads the CPU time
/// consumed so far by whatever processes the workload runs in.
pub fn drive(workers: Vec<Worker<'_>>, plan: Plan, cpu: &(dyn Fn() -> u64 + Sync)) -> Vec<Slice> {
    let meet = Rendezvous::new(workers.len());
    let books = Mutex::new(Books {
        current: Slice::default(),
        recorded: Vec::new(),
        recording: plan.warmup.is_zero(),
        done: false,
    });
    let open = || books.lock().unwrap_or_else(|e| e.into_inner());
    let started = now_ns();
    let slice_ns = plan.slice.as_nanos() as u64;
    std::thread::scope(|scope| {
        for (t, mut step) in workers.into_iter().enumerate() {
            let (meet, open) = (&meet, &open);
            scope.spawn(move || {
                let _guard = BreakOnPanic(meet);
                let reads_cpu = t == 0;
                let mut probe = Probe::new();
                if meet.wait().is_none() {
                    return;
                }
                let mut before = probe.run();
                // `None` from a rendezvous: another load thread panicked,
                // and the scope re-raises that once this one has left.
                while meet.wait().is_some() {
                    let (record, done) = {
                        let books = open();
                        (books.recording, books.done)
                    };
                    if done {
                        break;
                    }
                    let cpu0 = if reads_cpu { cpu() } else { 0 };
                    let from = now_ns();
                    let (mut latencies, mut failed) = (Vec::new(), 0u64);
                    let mut busy_to = from;
                    loop {
                        match step(record) {
                            Step::Done(ns) => latencies.push(ns),
                            Step::Failed => failed += 1,
                            Step::Side => {}
                            Step::Exhausted => break,
                        }
                        busy_to = now_ns();
                        if busy_to - from >= slice_ns {
                            break;
                        }
                    }
                    if meet.wait().is_none() {
                        break;
                    }
                    let cpu_us = if reads_cpu {
                        cpu().saturating_sub(cpu0)
                    } else {
                        0
                    };
                    let after = probe.run();
                    {
                        let mut books = open();
                        let busy_ns = (busy_to - from).max(1);
                        let share = &mut books.current;
                        share.rate_per_s += latencies.len() as f64 * 1e9 / busy_ns as f64;
                        share.span_ns = share.span_ns.max(busy_ns);
                        share.latencies_ns.append(&mut latencies);
                        share.failed += failed;
                        share.cpu_us += cpu_us;
                        share.probes_ns.extend([before, after]);
                    }
                    before = after;
                    // The last thread to hand its share in closes the slice.
                    if meet.wait() == Some(true) {
                        let mut books = open();
                        let slice = std::mem::take(&mut books.current);
                        if record {
                            books.recorded.push(slice);
                        }
                        let measured: u64 = books.recorded.iter().map(|s| s.span_ns).sum();
                        books.done =
                            !books.recorded.is_empty() && measured >= plan.window.as_nanos() as u64;
                        books.recording = now_ns() - started >= plan.warmup.as_nanos() as u64;
                    }
                }
            });
        }
    });
    books
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .recorded
}

/// The click oracle: expected `(length, FNV-1a)` of every URL's body,
/// taken by an untimed scout pass before the window.
pub struct RefTable {
    entries: Vec<(usize, u64)>,
}

impl RefTable {
    /// Fetches every URL once over its own connection. Any answer that
    /// is not a fresh 200 fails the scout: the workloads are chosen so
    /// that no operation fails.
    pub fn scout(addr: SocketAddr, urls: &UrlSet) -> io::Result<RefTable> {
        let mut conn = Conn::open(addr)?;
        let mut entries = Vec::with_capacity(urls.len());
        for (path, request) in urls.paths.iter().zip(&urls.requests) {
            let (head, body) = conn.roundtrip(request)?;
            if head.status != 200 || head.degraded || body.is_empty() {
                return Err(io::Error::other(format!(
                    "scout: {path} answered {} (degraded: {})",
                    head.status, head.degraded
                )));
            }
            entries.push((body.len(), fnv1a(body)));
        }
        Ok(RefTable { entries })
    }

    /// A table from bodies computed in-process.
    pub fn from_bodies<'a>(bodies: impl Iterator<Item = &'a str>) -> RefTable {
        RefTable {
            entries: bodies.map(|b| (b.len(), fnv1a(b.as_bytes()))).collect(),
        }
    }

    /// Whether a response is the fresh, expected page.
    pub fn accepts(&self, url: u32, head: &Head, body: &[u8]) -> bool {
        let (len, digest) = self.entries[url as usize];
        head.status == 200 && !head.degraded && body.len() == len && fnv1a(body) == digest
    }

    /// Indexes of entries that differ between two tables of one URL set.
    pub fn mismatches(&self, other: &RefTable) -> Vec<usize> {
        (0..self.entries.len().max(other.entries.len()))
            .filter(|&i| self.entries.get(i) != other.entries.get(i))
            .collect()
    }
}

/// What one client thread is pointed at.
#[derive(Clone, Copy)]
pub struct Target<'a> {
    /// The server.
    pub addr: SocketAddr,
    /// The URLs it serves.
    pub urls: &'a UrlSet,
    /// Expected bodies; `None` checks only status and shape (pages that
    /// change under the client).
    pub table: Option<&'a RefTable>,
    /// Which URL each click asks for.
    pub mix: &'a ClickMix,
    /// Whether each click opens its own connection inside the timed
    /// region (the thread transport closes after every response).
    pub connect_per_click: bool,
    /// The span each click is wrapped in, if any.
    pub span: Option<&'static str>,
}

/// The span name of a workload's click.
pub const CLICK_SPAN: &str = "client.click";

/// One closed-loop client: a kept-alive connection, the seeded draws of
/// its clicks, and its tallies.
pub struct Client<'a> {
    target: Target<'a>,
    rng: SmallRng,
    conn: Option<Conn>,
    /// Body bytes received by recorded clicks.
    pub bytes: u64,
    /// The client's spans, when traced.
    pub recorder: Recorder,
}

impl<'a> Client<'a> {
    /// A client of `target` whose click sequence `seed` fixes.
    pub fn new(target: Target<'a>, seed: u64) -> Client<'a> {
        Client {
            target,
            rng: SmallRng::seed_from_u64(seed),
            conn: Conn::open(target.addr).ok(),
            bytes: 0,
            recorder: Recorder::new(target.span.is_some()),
        }
    }

    /// One click: request write → full verified body. Returns its
    /// latency, or `None` if it errored, was not a fresh 200, or failed
    /// the oracle.
    pub fn click(&mut self, record: bool) -> Option<u64> {
        let Target {
            addr,
            urls,
            table,
            mix,
            connect_per_click,
            span,
        } = self.target;
        let url = mix.pick(&mut self.rng);
        let rec = &mut self.recorder;
        let click = record.then(|| rec.enter(span.unwrap_or(CLICK_SPAN)));
        let t0 = now_ns();
        if connect_per_click {
            self.conn = Conn::open(addr).ok();
        }
        let ok = match self
            .conn
            .as_mut()
            .map(|c| c.roundtrip(&urls.requests[url as usize]))
        {
            Some(Ok((head, body))) => {
                if record {
                    self.bytes += body.len() as u64;
                }
                let verify = record.then(|| rec.enter("client.verify"));
                let ok = match table {
                    Some(t) => t.accepts(url, &head, body),
                    None => head.status == 200 && !head.degraded && body.ends_with(b"</html>"),
                };
                if let Some(v) = verify {
                    rec.exit(v);
                }
                if !head.keep_alive {
                    self.conn = None;
                }
                ok
            }
            _ => {
                self.conn = None;
                false
            }
        };
        let ns = now_ns() - t0;
        if let Some(c) = click {
            rec.exit(c);
        }
        if self.conn.is_none() && !connect_per_click {
            // A lost connection already counted as a failed click;
            // reconnect so one fault does not end the client's load.
            self.conn = Conn::open(addr).ok();
            if self.conn.is_none() {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        ok.then_some(ns)
    }
}

/// What the clients of one window saw.
pub struct ClickResult {
    /// The measured window.
    pub slices: Vec<Slice>,
    /// Body bytes received.
    pub bytes: u64,
    /// All client spans, when traced.
    pub recorder: Recorder,
}

/// Length of a click workload's slices.
pub const CLICK_SLICE: Duration = Duration::from_millis(250);

/// The standard click window: [`CONNECTIONS`] closed-loop clients
/// against `target`.
pub fn run_clicks(
    target: Target<'_>,
    seed: u64,
    plan: Plan,
    cpu: &(dyn Fn() -> u64 + Sync),
) -> ClickResult {
    let mut clients: Vec<Client<'_>> = (0..CONNECTIONS)
        .map(|i| {
            Client::new(
                target,
                seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64),
            )
        })
        .collect();
    let workers = clients
        .iter_mut()
        .map(|client| {
            Box::new(move |record| match client.click(record) {
                Some(ns) => Step::Done(ns),
                None => Step::Failed,
            }) as Worker<'_>
        })
        .collect();
    let slices = drive(workers, plan, cpu);
    let mut out = ClickResult {
        slices,
        bytes: 0,
        recorder: Recorder::new(true),
    };
    for client in clients {
        out.bytes += client.bytes;
        out.recorder.absorb(client.recorder);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nap(record_into: &mut u64) -> Step {
        std::thread::sleep(Duration::from_millis(1));
        *record_into += 1;
        Step::Done(1_000_000)
    }

    #[test]
    fn drive_cuts_the_window_into_slices() {
        let (mut a, mut b, mut side) = (0u64, 0u64, 0u64);
        let mut calls = 0u64;
        let workers: Vec<Worker<'_>> = vec![
            Box::new(|_| {
                calls += 1;
                if calls.is_multiple_of(10) {
                    a += 1;
                    return Step::Failed;
                }
                nap(&mut a)
            }),
            Box::new(|_| nap(&mut b)),
            Box::new(|_| {
                nap(&mut side);
                Step::Side
            }),
        ];
        let plan = Plan {
            warmup: Duration::from_millis(30),
            window: Duration::from_millis(100),
            slice: Duration::from_millis(20),
        };
        let slices = drive(workers, plan, &|| 0);
        assert!((4..=6).contains(&slices.len()), "{} slices", slices.len());
        let measured: u64 = slices.iter().map(|s| s.span_ns).sum();
        assert!(measured >= 100_000_000, "slices sum to the window");
        for s in &slices {
            // Two counted threads at ≈1 000 operations a second each
            // (sleep overshoots), the third's are load beside them.
            assert!(
                s.latencies_ns.len() >= 10 && s.latencies_ns.len() <= 42,
                "{}",
                s.latencies_ns.len()
            );
            assert!(
                s.rate_per_s > 500.0 && s.rate_per_s < 2100.0,
                "{}",
                s.rate_per_s
            );
            assert!(s.span_ns >= 20_000_000 && s.span_ns < 40_000_000);
        }
        let (done, failed): (usize, u64) = slices
            .iter()
            .fold((0, 0), |(d, f), s| (d + s.latencies_ns.len(), f + s.failed));
        assert!(
            failed >= 3,
            "every tenth operation of the first thread failed"
        );
        // The warm-up's operations ran but were not recorded.
        assert!((a + b) as usize > done + failed as usize);
        assert!(side > 0);
    }

    #[test]
    fn a_slice_ends_when_every_thread_is_exhausted() {
        let mut left = 5;
        let worker: Worker<'_> = Box::new(|_| {
            if left == 0 {
                return Step::Exhausted;
            }
            left -= 1;
            Step::Done(7)
        });
        let plan = Plan {
            warmup: Duration::ZERO,
            window: Duration::ZERO,
            slice: Duration::from_secs(3600),
        };
        let slices = drive(vec![worker], plan, &|| 0);
        assert_eq!(slices.len(), 1);
        assert_eq!(slices[0].latencies_ns, [7; 5]);
    }

    #[test]
    fn a_panicking_load_thread_ends_the_run_instead_of_hanging_it() {
        let mut calls = 0;
        let workers: Vec<Worker<'_>> = vec![
            Box::new(|_| {
                calls += 1;
                assert!(calls < 3, "the third operation panics");
                Step::Done(1)
            }),
            Box::new(|_| Step::Done(1)),
        ];
        let plan = Plan {
            warmup: Duration::ZERO,
            window: Duration::from_secs(3600),
            slice: Duration::from_millis(1),
        };
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drive(workers, plan, &|| 0)));
        assert!(outcome.is_err(), "the panic surfaces from `drive`");
    }
}
