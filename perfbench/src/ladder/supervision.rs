//! Supervision rungs, run last because they kill things: every worker of
//! the ladder's cluster is SIGKILLed in turn, several rounds, while a
//! background thread keeps clicking through the router. Reported: kill →
//! all workers ready again, the share of clicks answered from the
//! last-known-good cache (marked degraded) meanwhile, and the clicks
//! that got neither a fresh nor a degraded 200 — which must be none.

use super::Measures;
use crate::run::Cfg;
use crate::workloads::cluster_clicks::{Cluster, WORKERS};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use strudel_serve::ClickService;

/// How long one worker may take to come back before the probe gives up.
const RECOVERY_LIMIT: Duration = Duration::from_secs(30);

/// Runs the kill rounds; consumes (and shuts down) the cluster.
pub fn probe(cfg: &Cfg, cluster: Cluster, m: &mut Measures) {
    let rounds = cfg.scale(3, 1);
    let service = &cluster.cluster.0;
    let stop = AtomicBool::new(false);
    let (fresh, degraded, dropped) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
    let mut recoveries_ns = Vec::new();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                for path in &cluster.urls.paths {
                    let r = service.handle(path);
                    match (r.status, r.degraded) {
                        (200, false) => fresh.fetch_add(1, Ordering::Relaxed),
                        (200, true) => degraded.fetch_add(1, Ordering::Relaxed),
                        _ => dropped.fetch_add(1, Ordering::Relaxed),
                    };
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                }
            }
        });
        'rounds: for _ in 0..rounds {
            for shard in 0..WORKERS {
                let t = Instant::now();
                if !service.kill_worker(shard) {
                    m.violations
                        .push(format!("shard {shard} had no live worker to kill"));
                    break 'rounds;
                }
                while service.ready_workers() < WORKERS {
                    if t.elapsed() > RECOVERY_LIMIT {
                        m.violations.push(format!("shard {shard} did not recover"));
                        break 'rounds;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                recoveries_ns.push(t.elapsed().as_nanos() as u64);
                // Outlive `min_uptime`, so a deliberate kill is forgiven
                // rather than counted towards the crash-loop breaker.
                std::thread::sleep(Duration::from_millis(350));
            }
        }
        stop.store(true, Ordering::Release);
    });
    let (fresh, degraded, dropped) = (
        fresh.into_inner(),
        degraded.into_inner(),
        dropped.into_inner(),
    );
    m.set_median("serve.cluster.recover_ready_ms", &mut recoveries_ns, 1e6);
    m.set(
        "serve.cluster.degraded_ratio",
        degraded as f64 / (fresh + degraded + dropped).max(1) as f64,
    );
    m.set("serve.cluster.dropped", dropped as f64);
    if dropped > 0 {
        m.violations.push(format!(
            "{dropped} clicks were dropped while workers restarted"
        ));
    }
    drop(cluster);
}
