//! The supervision tree's working parts: per-shard worker slots, the
//! spawn/monitor/restart state machine, and the crash-loop breaker.
//!
//! Each shard has one [`Slot`] walking a four-phase machine:
//!
//! ```text
//! Starting ──ready file + catch-up──▶ Ready
//!    │  ▲                              │
//!    │  └──────backoff elapsed──┐      │ death, hang, failed probe
//!    ▼                          │      ▼
//! (startup timeout: strike)   Backoff ◀┘
//!                               │
//!                               └──strikes ≥ max──▶ Broken
//! ```
//!
//! `Ready` is one worker *incarnation*, and its [`Upstream`] — address
//! plus idle kept-alive sockets — is what the slot publishes for
//! routing. It is published on the way into `Ready` and unpublished on
//! every way out (death, kill, failed probe, drain), under a lock of
//! its own that is never held across I/O: a click reads the route
//! without waiting for `state`, which [`ClusterService::tick`] holds
//! through a blocking probe.
//!
//! A death within `min_uptime` of becoming ready is a *strike*; enough
//! consecutive strikes open the circuit breaker (`Broken`) and the
//! supervisor stops burning CPU on a worker that can't boot — its
//! routes stay on the degraded path until an operator intervenes. A
//! worker that lived past `min_uptime` clears the strikes and resets
//! the backoff schedule.

use super::backoff::Backoff;
use super::proxy::{Upstream, UpstreamCounters};
use super::ClusterService;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;
use strudel_schema::dynamic::Mode;

/// Where a worker slot is in its lifecycle.
#[derive(Debug)]
pub(super) enum Phase {
    /// Spawned; waiting for the ready file and a successful catch-up.
    Starting { since: Instant },
    /// Serving; the incarnation's client is on the slot's route unless
    /// a kill just took it off.
    Ready,
    /// Dead; waiting out the restart delay.
    Backoff { until: Instant },
    /// Crash-looped past the strike limit; the breaker is open.
    Broken,
}

/// One shard's supervised worker.
pub(super) struct Slot {
    pub(super) shard: usize,
    pub(super) state: Mutex<SlotState>,
    /// The ready incarnation, for routing: `Some` exactly while clicks
    /// may be sent to it. Locked only to clone or replace the `Arc`.
    route: RwLock<Option<Arc<Upstream>>>,
    /// Exchange counters across this shard's incarnations.
    pub(super) upstream_counters: Arc<UpstreamCounters>,
    /// The live child's pid (0 = none), for lock-free kills.
    pub(super) pid: AtomicU32,
    /// Times a replacement worker was spawned.
    pub(super) restarts: AtomicU64,
    /// Mirrors `Phase::Broken`.
    pub(super) broken: AtomicBool,
}

pub(super) struct SlotState {
    pub(super) phase: Phase,
    pub(super) child: Option<Child>,
    pub(super) ready_file: PathBuf,
    pub(super) strikes: u32,
    pub(super) backoff: Backoff,
    /// When the current worker became ready (None before first ready).
    pub(super) ready_at: Option<Instant>,
    pub(super) last_probe: Instant,
    /// Monotone spawn counter naming ready files uniquely per attempt.
    pub(super) spawns: u64,
}

impl Slot {
    pub(super) fn new(shard: usize, backoff: Backoff) -> Slot {
        Slot {
            shard,
            state: Mutex::new(SlotState {
                phase: Phase::Backoff {
                    until: Instant::now(),
                },
                child: None,
                ready_file: PathBuf::new(),
                strikes: 0,
                backoff,
                ready_at: None,
                last_probe: Instant::now(),
                spawns: 0,
            }),
            route: RwLock::new(None),
            upstream_counters: Arc::default(),
            pid: AtomicU32::new(0),
            restarts: AtomicU64::new(0),
            broken: AtomicBool::new(false),
        }
    }

    /// The routing read: the ready incarnation's client, if any.
    pub(super) fn upstream(&self) -> Option<Arc<Upstream>> {
        self.route.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Whether a ready incarnation is published.
    pub(super) fn is_up(&self) -> bool {
        self.upstream().is_some()
    }

    /// Publishes a ready incarnation, or (`None`) takes the current one
    /// off the route. Exchanges in flight keep their `Arc`; the idle
    /// sockets die with the last of them.
    pub(super) fn publish(&self, upstream: Option<Arc<Upstream>>) {
        *self.route.write().unwrap_or_else(|e| e.into_inner()) = upstream;
    }
}

impl ClusterService {
    /// One supervision pass over every slot: reap deaths, time out
    /// stalled startups, probe ready workers, restart when backoff
    /// elapses. Called from the monitor thread every few tens of ms.
    pub(super) fn tick(&self) {
        for slot in &self.slots {
            let mut st = slot.state.lock().unwrap_or_else(|e| e.into_inner());
            self.reap_if_dead(slot, &mut st);
            match st.phase {
                Phase::Backoff { until } => {
                    if Instant::now() >= until && !self.stopping() {
                        self.spawn_worker(slot, &mut st);
                    }
                }
                Phase::Starting { since } => self.check_startup(slot, &mut st, since),
                Phase::Ready => self.probe(slot, &mut st),
                Phase::Broken => {}
            }
        }
    }

    /// Handles a worker death discovered by `try_wait`: strike or
    /// forgive depending on uptime, then open the breaker or schedule a
    /// restart.
    fn reap_if_dead(&self, slot: &Slot, st: &mut SlotState) {
        let Some(child) = st.child.as_mut() else {
            return;
        };
        match child.try_wait() {
            Ok(Some(_status)) => {}
            Ok(None) => return,
            Err(_) => return,
        }
        st.child = None;
        slot.pid.store(0, Ordering::Release);
        slot.publish(None);
        self.record_death(slot, st);
    }

    /// Strike-or-forgive accounting for a worker that is now dead, then
    /// the breaker-or-backoff decision.
    fn record_death(&self, slot: &Slot, st: &mut SlotState) {
        let lived_long_enough = st
            .ready_at
            .is_some_and(|t| t.elapsed() >= self.config.min_uptime);
        if lived_long_enough {
            st.strikes = 0;
            st.backoff.reset();
        } else {
            st.strikes += 1;
        }
        st.ready_at = None;
        if st.strikes >= self.config.max_strikes {
            st.phase = Phase::Broken;
            slot.broken.store(true, Ordering::Release);
            return;
        }
        st.phase = Phase::Backoff {
            until: Instant::now() + st.backoff.next_delay(),
        };
    }

    /// Spawns a replacement worker for `slot`.
    fn spawn_worker(&self, slot: &Slot, st: &mut SlotState) {
        st.spawns += 1;
        let ready_file = self
            .run_dir
            .join(format!("worker-{}-{}.addr", slot.shard, st.spawns));
        let _ = std::fs::remove_file(&ready_file);
        let c = &self.config;
        let mut cmd = Command::new(&c.binary);
        cmd.arg("shard-worker")
            .arg(&c.site_dir)
            .arg("--shard")
            .arg(slot.shard.to_string())
            .arg("--of")
            .arg(c.workers.to_string())
            .arg("--store")
            .arg(&c.store_dir)
            .arg("--ready-file")
            .arg(&ready_file)
            .arg("--mode")
            // The spellings `shard-worker --mode` parses. `start` admits
            // no `Mode::Naive` config, and a worker would refuse the word.
            .arg(match c.mode {
                Mode::Naive => "naive",
                Mode::Context => "context",
                Mode::ContextLookahead => "lookahead",
            })
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        for (k, v) in &c.worker_env {
            cmd.env(k, v);
        }
        match cmd.spawn() {
            Ok(child) => {
                slot.pid.store(child.id(), Ordering::Release);
                slot.restarts.fetch_add(1, Ordering::Release);
                st.child = Some(child);
                st.ready_file = ready_file;
                st.phase = Phase::Starting {
                    since: Instant::now(),
                };
            }
            Err(_) => {
                // Spawn failure is a strike like any other fast death.
                st.strikes += 1;
                if st.strikes >= c.max_strikes {
                    st.phase = Phase::Broken;
                    slot.broken.store(true, Ordering::Release);
                } else {
                    st.phase = Phase::Backoff {
                        until: Instant::now() + st.backoff.next_delay(),
                    };
                }
            }
        }
    }

    /// Advances a `Starting` worker: once the ready file appears and
    /// the worker catches up to the current delta target, it is ready
    /// to take routes. Workers that neither report nor die within the
    /// startup timeout are killed (a hang at boot is a crash).
    fn check_startup(&self, slot: &Slot, st: &mut SlotState, since: Instant) {
        let addr = std::fs::read_to_string(&st.ready_file)
            .ok()
            .and_then(|s| s.trim().parse::<SocketAddr>().ok());
        if let Some(addr) = addr {
            // The worker replayed the store before binding; a delta that
            // committed *during* its replay may still be missing. Gate
            // readiness on an explicit catch-up to the current target so
            // a worker never serves behind the barrier. The socket of a
            // successful catch-up is the incarnation's first idle one.
            let target = self.delta_target();
            let path = format!("/internal/catchup?n={target}");
            let upstream = Arc::new(Upstream::new(addr, slot.upstream_counters.clone()));
            if let Ok(resp) = upstream.fetch(&path, self.config.probe_deadline) {
                if resp.status == 200 && parse_applied(&resp.body) >= Some(target) {
                    st.phase = Phase::Ready;
                    st.ready_at = Some(Instant::now());
                    st.last_probe = Instant::now();
                    slot.publish(Some(upstream));
                    return;
                }
            }
        }
        if since.elapsed() >= self.config.startup_timeout {
            kill_slot_child(slot, st);
            self.record_death(slot, st);
        }
    }

    /// Liveness-probes a `Ready` worker on its interval; a worker that
    /// cannot answer `/healthz` within the deadline is hung — kill it
    /// and let the death path restart it.
    fn probe(&self, slot: &Slot, st: &mut SlotState) {
        if st.last_probe.elapsed() < self.config.probe_interval {
            return;
        }
        st.last_probe = Instant::now();
        // Off the route while `Ready` is `kill_worker`'s mark: it wants
        // this incarnation dead, so nothing is left to ask it.
        let healthy = slot.upstream().is_some_and(|upstream| {
            upstream
                .fetch("/healthz", self.config.probe_deadline)
                .is_ok_and(|r| r.status == 200)
        });
        if !healthy {
            // A hung worker is a crash the kernel hasn't noticed yet.
            kill_slot_child(slot, st);
            self.record_death(slot, st);
        }
    }

    /// SIGKILLs shard `i`'s worker, if one is running. Returns whether a
    /// signal was sent. Public as the torture-test hook and the
    /// supervisor's own hang remedy — recovery is identical either way:
    /// restart and replay.
    pub fn kill_worker(&self, shard: usize) -> bool {
        let Some(slot) = self.slots.get(shard) else {
            return false;
        };
        let pid = slot.pid.load(Ordering::Acquire);
        if pid == 0 {
            return false;
        }
        // Off the route before the signal: no exchange starts on an
        // incarnation that is about to die.
        slot.publish(None);
        strudel_epoll::kill_process(pid, strudel_epoll::SIGKILL).is_ok()
    }

    /// Requests a clean drain from every worker (SIGTERM), waits
    /// briefly, then SIGKILLs stragglers and reaps everything.
    pub(super) fn shutdown_workers(&self) {
        for slot in &self.slots {
            slot.publish(None);
            let pid = slot.pid.load(Ordering::Acquire);
            if pid != 0 {
                let _ = strudel_epoll::kill_process(pid, strudel_epoll::SIGTERM);
            }
        }
        let deadline = Instant::now() + self.config.drain_timeout;
        for slot in &self.slots {
            let mut st = slot.state.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(child) = st.child.as_mut() {
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(std::time::Duration::from_millis(20));
                        }
                        _ => {
                            let _ = child.kill();
                            let _ = child.wait();
                            break;
                        }
                    }
                }
                st.child = None;
            }
            slot.pid.store(0, Ordering::Release);
        }
    }
}

/// Kills and reaps the slot's child synchronously (hang remedy). The
/// caller decides the next phase (strike accounting).
fn kill_slot_child(slot: &Slot, st: &mut SlotState) {
    if let Some(child) = st.child.as_mut() {
        let _ = child.kill();
        let _ = child.wait();
    }
    st.child = None;
    slot.pid.store(0, Ordering::Release);
    slot.publish(None);
}

/// Extracts `K` from a catch-up body `applied=K`.
pub(super) fn parse_applied(body: &str) -> Option<u64> {
    body.trim().strip_prefix("applied=")?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn the_routing_read_does_not_wait_for_the_supervisors_lock() {
        let backoff = Backoff::new(Duration::from_millis(1), Duration::from_millis(1), 1);
        let slot = Arc::new(Slot::new(0, backoff));
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        slot.publish(Some(Arc::new(Upstream::new(
            addr,
            slot.upstream_counters.clone(),
        ))));

        // The monitor, mid-probe: `state` held until told otherwise.
        let (held, wait_held) = mpsc::channel();
        let (release, wait_release) = mpsc::channel::<()>();
        let monitor = std::thread::spawn({
            let slot = slot.clone();
            move || {
                let _st = slot.state.lock().unwrap();
                held.send(()).unwrap();
                let _ = wait_release.recv();
            }
        });
        wait_held.recv().unwrap();

        let (routed, wait_routed) = mpsc::channel();
        let click = std::thread::spawn({
            let slot = slot.clone();
            move || {
                let _ = routed.send(slot.upstream().map(|u| u.addr()));
            }
        });
        let read = wait_routed.recv_timeout(Duration::from_secs(2));
        drop(release);
        monitor.join().unwrap();
        click.join().unwrap();
        assert_eq!(read, Ok(Some(addr)), "routed while `state` was held");

        slot.publish(None);
        assert!(slot.upstream().is_none() && !slot.is_up());
    }
}
