//! Deterministic fault injection for cluster torture tests.
//!
//! A worker process reads `STRUDEL_FAULT_PLAN` at startup and arms the
//! clauses addressed to its shard. The plan makes crash scenarios
//! reproducible: "shard 1 exits on its 5th request", "shard 0 panics
//! applying its 2nd delta", "shard 2 stalls 1500ms on request 3" — the
//! exact mid-request, mid-delta, and at-startup windows the supervisor
//! must survive.
//!
//! Grammar (plans separated by `|`, clauses inside a plan by `;`):
//!
//! ```text
//! shard=1;exit;at=req:5
//! shard=0;panic;at=delta:2
//! shard=2;stall=1500;at=req:3
//! shard=3;exit;at=start
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The environment variable a worker reads its fault plan from.
pub const FAULT_PLAN_ENV: &str = "STRUDEL_FAULT_PLAN";

/// What the fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// The process exits (code 3) — a crash without unwinding.
    Exit,
    /// The thread panics — exercises the in-process backstops first.
    Panic,
    /// The thread sleeps this long — a hang, as the supervisor sees it.
    Stall(Duration),
}

/// When the fault fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTrigger {
    /// Before the worker reports ready (crash-loop breaker fodder).
    Start,
    /// On the Nth site request this worker serves (1-based; health and
    /// internal probes don't count).
    Request(u64),
    /// While applying the Nth catch-up delta since this process started
    /// serving (1-based).
    Delta(u64),
}

/// One parsed fault clause, addressed to one shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// The shard whose worker arms this fault.
    pub shard: usize,
    /// What happens.
    pub action: FaultAction,
    /// When it happens.
    pub trigger: FaultTrigger,
}

impl FaultPlan {
    /// Parses a `|`-separated plan list; malformed plans are skipped
    /// (a torture harness typo should not change which faults fire
    /// silently, but the worker also must not refuse to boot).
    pub fn parse_all(spec: &str) -> Vec<FaultPlan> {
        spec.split('|').filter_map(Self::parse_one).collect()
    }

    fn parse_one(plan: &str) -> Option<FaultPlan> {
        let mut shard = None;
        let mut action = None;
        let mut trigger = None;
        for clause in plan.split(';') {
            let clause = clause.trim();
            if let Some(v) = clause.strip_prefix("shard=") {
                shard = v.parse().ok();
            } else if clause == "exit" {
                action = Some(FaultAction::Exit);
            } else if clause == "panic" {
                action = Some(FaultAction::Panic);
            } else if let Some(ms) = clause.strip_prefix("stall=") {
                action = Some(FaultAction::Stall(Duration::from_millis(ms.parse().ok()?)));
            } else if clause == "at=start" {
                trigger = Some(FaultTrigger::Start);
            } else if let Some(n) = clause.strip_prefix("at=req:") {
                trigger = Some(FaultTrigger::Request(n.parse().ok()?));
            } else if let Some(n) = clause.strip_prefix("at=delta:") {
                trigger = Some(FaultTrigger::Delta(n.parse().ok()?));
            } else if !clause.is_empty() {
                return None;
            }
        }
        Some(FaultPlan {
            shard: shard?,
            action: action?,
            trigger: trigger?,
        })
    }
}

/// The faults one worker process armed for itself, with the request and
/// delta counters the triggers compare against.
#[derive(Debug)]
pub struct ArmedFaults {
    plans: Vec<FaultPlan>,
    requests: AtomicU64,
    deltas: AtomicU64,
}

impl ArmedFaults {
    /// Arms the plans in [`FAULT_PLAN_ENV`] addressed to `shard`; an
    /// absent variable arms nothing.
    pub fn from_env(shard: usize) -> Self {
        let plans = std::env::var(FAULT_PLAN_ENV)
            .map(|s| FaultPlan::parse_all(&s))
            .unwrap_or_default()
            .into_iter()
            .filter(|p| p.shard == shard)
            .collect();
        ArmedFaults {
            plans,
            requests: AtomicU64::new(0),
            deltas: AtomicU64::new(0),
        }
    }

    /// An explicit plan set (tests).
    pub fn new(plans: Vec<FaultPlan>) -> Self {
        ArmedFaults {
            plans,
            requests: AtomicU64::new(0),
            deltas: AtomicU64::new(0),
        }
    }

    /// Whether any plan is armed for this worker.
    pub fn is_armed(&self) -> bool {
        !self.plans.is_empty()
    }

    /// Fires any `at=start` fault. Call before reporting ready.
    pub fn on_start(&self) {
        for p in &self.plans {
            if p.trigger == FaultTrigger::Start {
                fire(p.action);
            }
        }
    }

    /// Counts one site request and fires any `at=req:N` fault due.
    pub fn on_request(&self) {
        if !self.is_armed() {
            return;
        }
        let n = self.requests.fetch_add(1, Ordering::AcqRel) + 1;
        for p in &self.plans {
            if p.trigger == FaultTrigger::Request(n) {
                fire(p.action);
            }
        }
    }

    /// Counts one catch-up delta and fires any `at=delta:N` fault due.
    /// Call *before* applying, so the fault lands mid-apply.
    pub fn on_delta(&self) {
        if !self.is_armed() {
            return;
        }
        let n = self.deltas.fetch_add(1, Ordering::AcqRel) + 1;
        for p in &self.plans {
            if p.trigger == FaultTrigger::Delta(n) {
                fire(p.action);
            }
        }
    }
}

fn fire(action: FaultAction) {
    match action {
        FaultAction::Exit => std::process::exit(3),
        FaultAction::Panic => panic!("injected cluster fault"),
        FaultAction::Stall(d) => std::thread::sleep(d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_documented_grammar_parses() {
        let plans = FaultPlan::parse_all(
            "shard=1;exit;at=req:5|shard=0;panic;at=delta:2|shard=2;stall=1500;at=req:3|shard=3;exit;at=start",
        );
        assert_eq!(
            plans,
            vec![
                FaultPlan {
                    shard: 1,
                    action: FaultAction::Exit,
                    trigger: FaultTrigger::Request(5),
                },
                FaultPlan {
                    shard: 0,
                    action: FaultAction::Panic,
                    trigger: FaultTrigger::Delta(2),
                },
                FaultPlan {
                    shard: 2,
                    action: FaultAction::Stall(Duration::from_millis(1500)),
                    trigger: FaultTrigger::Request(3),
                },
                FaultPlan {
                    shard: 3,
                    action: FaultAction::Exit,
                    trigger: FaultTrigger::Start,
                },
            ]
        );
    }

    #[test]
    fn malformed_plans_are_dropped_not_misread() {
        assert!(FaultPlan::parse_all("shard=0;exit").is_empty(), "no trigger");
        assert!(FaultPlan::parse_all("exit;at=start").is_empty(), "no shard");
        assert!(FaultPlan::parse_all("shard=0;exit;at=req:x").is_empty());
        assert!(FaultPlan::parse_all("shard=0;explode;at=start").is_empty());
        assert_eq!(
            FaultPlan::parse_all("garbage|shard=1;exit;at=start").len(),
            1,
            "good plans survive bad neighbors"
        );
    }

    #[test]
    fn request_triggers_fire_only_at_their_count() {
        // A stall of zero is an observable no-op — the counter paths run
        // without killing the test process.
        let faults = ArmedFaults::new(vec![FaultPlan {
            shard: 0,
            action: FaultAction::Stall(Duration::from_millis(0)),
            trigger: FaultTrigger::Request(3),
        }]);
        for _ in 0..5 {
            faults.on_request();
        }
        assert_eq!(faults.requests.load(Ordering::Acquire), 5);
        faults.on_delta();
        assert_eq!(faults.deltas.load(Ordering::Acquire), 1, "counted, no delta plan fires");
    }
}
