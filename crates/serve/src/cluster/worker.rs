//! The shard-worker process body, behind the hidden `strudel
//! shard-worker` verb.
//!
//! A worker owns no durable state. It rebuilds its database by
//! replaying the shared paged store read-only
//! ([`strudel_repo::replay_committed`]), serves its shard's routes from
//! an ordinary [`SiteService`] (no store attached — the router is the
//! only writer), and catches up on later deltas when the router calls
//! `GET /internal/catchup?n=<target>`: it re-reads the store's WAL
//! suffix and applies what it hasn't yet. Any failure to catch up —
//! apply error, generation mismatch (a checkpoint happened), unreadable
//! log — ends the process, because a full replay at restart is always
//! correct, while limping on behind the barrier would serve mixed
//! epochs.
//!
//! Readiness is reported by writing the bound address to a file
//! (tmp + rename, so the supervisor never reads a torn write).
//! SIGTERM/SIGINT drain through a [`strudel_epoll::SignalFd`]: stop
//! accepting, finish in-flight requests, exit 0.

use super::fault::ArmedFaults;
use crate::{
    ClickService, Response, ServeError, ServerConfig, SiteService, TransportCounters, WarmHit,
    WarmupReport,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use strudel_repo::Database;
use strudel_schema::dynamic::Mode;
use strudel_struql::Parallelism;

/// Everything the `shard-worker` verb parses from its command line.
#[derive(Clone, Debug)]
pub struct WorkerOptions {
    /// This worker's shard index.
    pub shard: usize,
    /// Total shards in the cluster (for diagnostics; routing happens at
    /// the router).
    pub of: usize,
    /// The shared paged store directory (read-only from here).
    pub store_dir: PathBuf,
    /// Where to write the bound address once serving.
    pub ready_file: PathBuf,
}

/// The worker-side service: an inner [`SiteService`] plus the catch-up
/// endpoint and the armed fault plan.
pub struct WorkerService {
    inner: SiteService,
    store_dir: PathBuf,
    /// WAL deltas this process has applied (replay + catch-ups).
    applied: AtomicU64,
    /// The store generation the startup replay observed; a mismatch on
    /// catch-up means a checkpoint happened and only a full replay is
    /// correct.
    generation: u64,
    faults: ArmedFaults,
    /// Serializes catch-ups (the router retries, and retries must not
    /// interleave).
    catchup: Mutex<()>,
}

impl WorkerService {
    /// Builds the service from a startup replay of the shared store.
    pub fn new(
        site: &strudel::Site,
        opts: &WorkerOptions,
    ) -> Result<WorkerService, ServeError> {
        let replayed = strudel_repo::replay_committed(&opts.store_dir)
            .map_err(|e| ServeError::Io(std::io::Error::other(format!("replaying store: {e}"))))?;
        let db = Database::from_graph(replayed.graph, site.database.level());
        let inner = SiteService::from_parts(
            Arc::new(db),
            &site.program,
            site.templates.clone(),
            &site.root_collection,
            Mode::Context,
        );
        Ok(WorkerService {
            inner,
            store_dir: opts.store_dir.clone(),
            applied: AtomicU64::new(replayed.wal_deltas),
            generation: replayed.generation,
            faults: ArmedFaults::from_env(opts.shard),
            catchup: Mutex::new(()),
        })
    }

    /// WAL deltas applied so far (startup replay + catch-ups).
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::Acquire)
    }

    /// The catch-up endpoint body: apply the committed WAL suffix past
    /// what this process already holds, then report the applied count.
    /// The router retries until the count reaches its target. Exits the
    /// process on anything that would leave this replica behind for
    /// good — restart-and-replay is the recovery story.
    fn catch_up(&self, path: &str) -> Response {
        let target: u64 = path
            .split_once("?n=")
            .and_then(|(_, n)| n.parse().ok())
            .unwrap_or(0);
        let _serial = self.catchup.lock().unwrap_or_else(|e| e.into_inner());
        let mut applied = self.applied.load(Ordering::Acquire);
        if applied < target {
            let (generation, deltas) =
                match strudel_repo::committed_wal_deltas(&self.store_dir) {
                    Ok(r) => r,
                    Err(_) => std::process::exit(3),
                };
            if generation != self.generation || (deltas.len() as u64) < applied {
                std::process::exit(3);
            }
            for delta in &deltas[applied as usize..] {
                // The fault hook fires *before* the apply: an injected
                // panic or exit lands mid-delta, after the store and the
                // router committed.
                self.faults.on_delta();
                if self.inner.apply_delta(delta).is_err() {
                    std::process::exit(3);
                }
                applied += 1;
                self.applied.store(applied, Ordering::Release);
            }
        }
        Response::text(format!("applied={applied}\n"))
    }
}

impl ClickService for WorkerService {
    fn handle(&self, path: &str) -> Response {
        let routed = path.split('?').next().unwrap_or(path);
        if routed == "/internal/catchup" {
            return self.catch_up(path);
        }
        if !matches!(routed, "/healthz" | "/readyz" | "/metrics") {
            self.faults.on_request();
        }
        self.inner.handle(path)
    }
    fn try_warm(&self, path: &str) -> Option<WarmHit> {
        // An armed plan counts site requests in `on_request`, a fault
        // hook: those all go through `handle` on the pool.
        if self.faults.is_armed() {
            return None;
        }
        self.inner.try_warm(path)
    }
    fn warm(&self, parallelism: Parallelism) -> Result<WarmupReport, ServeError> {
        self.inner.warm(parallelism)
    }
    fn transport(&self) -> Option<&TransportCounters> {
        self.inner.transport()
    }
}

/// Runs one shard worker to completion: replay, serve, drain on
/// SIGTERM/SIGINT. Blocks until shutdown. The signal mask must be
/// installed before any server thread spawns, which is why the
/// [`strudel_epoll::SignalFd`] is created first.
pub fn run_worker(site: &strudel::Site, opts: WorkerOptions) -> Result<(), String> {
    // Arm faults before anything else so at=start fires pre-ready.
    let faults = ArmedFaults::from_env(opts.shard);
    faults.on_start();

    // Block + claim SIGTERM/SIGINT on the main thread now; every thread
    // the server spawns inherits the blocked mask, so the signals
    // land only in this signalfd.
    let signals =
        strudel_epoll::SignalFd::new(&[strudel_epoll::SIGTERM, strudel_epoll::SIGINT]).ok();

    let service = Arc::new(WorkerService::new(site, &opts).map_err(|e| e.to_string())?);
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..Default::default()
    };
    let handle = crate::serve(service.clone(), config)
        .map_err(|e| format!("worker {}/{} bind: {e}", opts.shard, opts.of))?;

    // Publish the bound address atomically: tmp + rename, so the
    // supervisor either sees nothing or a complete address.
    let tmp = opts.ready_file.with_extension("tmp");
    std::fs::write(&tmp, format!("{}\n", handle.addr()))
        .and_then(|()| std::fs::rename(&tmp, &opts.ready_file))
        .map_err(|e| format!("writing ready file: {e}"))?;

    match signals {
        Some(fd) => loop {
            if fd.try_take().is_some() {
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
        },
        // No signalfd on this platform: serve until killed.
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
    // Drain: stop accepting, finish in-flight requests, then exit 0 so
    // the supervisor sees a clean shutdown, not a crash.
    handle.shutdown();
    Ok(())
}
