//! The traced run: the workload's own window with the recorder on, then
//! the layer ladder.
//!
//! The ladder times calls into the product's public functions from
//! outside — no span or counter is added inside any product crate — and
//! it is the same for every workload, so every traced run reports every
//! per-layer metric. What differs per workload is the first part: the
//! workload's own operations, run once with the recorder off and once
//! with it on; the throughput lost between the two is
//! `trace.overhead_ratio`.

mod build;
mod delta;
mod engine;
mod fronts;
mod supervision;
mod transport;
mod vfs;

use crate::report::{client_rows, end_to_end_rows, Row};
use crate::run::{out_dir, Cfg};
use crate::spans::Recorder;
use crate::{spec, stats, workloads};
use std::collections::BTreeMap;
use std::time::Duration;

/// What a traced run reports.
pub struct Traced {
    /// Every per-layer metric, in `spec::PER_LAYER` order.
    pub rows: Vec<Row>,
    /// Operations attempted (the workload's traced window).
    pub attempted: u64,
    /// Operations failed there.
    pub failed: u64,
    /// Oracle violations, the ladder's included.
    pub violations: Vec<String>,
}

/// Values measured so far, by metric name, with their sample counts.
#[derive(Default)]
pub struct Measures {
    values: BTreeMap<&'static str, (f64, usize)>,
    /// Things that must not happen and did.
    pub violations: Vec<String>,
}

impl Measures {
    /// Records a plain value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, (value, 0));
    }

    /// Records the median of `samples_ns`, divided by `per` (1e3 for µs,
    /// 1e6 for ms, 1 for ns).
    pub fn set_median(&mut self, name: &'static str, samples_ns: &mut [u64], per: f64) {
        samples_ns.sort_unstable();
        self.values
            .insert(name, (stats::median(samples_ns) / per, samples_ns.len()));
    }

    /// Records the median duration of every span named `span`.
    pub fn set_from_spans(&mut self, name: &'static str, rec: &Recorder, span: &str, per: f64) {
        self.set_median(name, &mut rec.durations_ns(span), per);
    }

    /// A value recorded earlier (0 if absent).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |v| v.0)
    }
}

/// Time a probe may spend, as a share of the run's `--seconds`.
fn share(cfg: &Cfg, share: f64) -> Duration {
    cfg.window.mul_f64(share)
}

/// Runs the traced run for `workload`.
pub fn traced_run(workload: &str, cfg: &Cfg) -> Result<Traced, String> {
    // Part one: the workload itself, recorder off then on.
    let short = Cfg {
        window: share(cfg, 0.3),
        warmup: share(cfg, 0.05),
        setup_reps: 1,
        traced: false,
        ..cfg.clone()
    };
    let plain = workloads::run(workload, &short)?;
    let traced = workloads::run(
        workload,
        &Cfg {
            traced: true,
            ..short
        },
    )?;
    let mut m = Measures::default();
    // Calibrated, so that the host changing speed between the two
    // windows is not mistaken for the recorder's cost.
    let rate = |o: &crate::run::Outcome| {
        end_to_end_rows(o)
            .iter()
            .find(|r| r.name == "ops_per_s")
            .map_or(0.0, |r| r.value)
    };
    m.set(
        "trace.overhead_ratio",
        if rate(&plain) > 0.0 {
            1.0 - rate(&traced) / rate(&plain)
        } else {
            0.0
        },
    );
    let traced_rows = client_rows(&traced);
    let (attempted, failed) = (
        plain.attempted() + traced.attempted(),
        plain.failed() + traced.failed(),
    );
    for r in traced_rows {
        let name = spec::PER_LAYER
            .iter()
            .find(|d| d.name == r.name)
            .map(|d| d.name)
            .ok_or("client row outside the per-layer list")?;
        m.values.insert(name, (r.value, r.n));
    }
    m.violations.extend(plain.violations);
    m.violations.extend(traced.violations.iter().cloned());

    // Part two: the ladder.
    let mut rec = Recorder::new(true);
    let warm = transport::probe(cfg, &mut rec, &mut m);
    fronts::probe_in_process(cfg, &warm, &mut rec, &mut m);
    engine::probe(cfg, &warm, &mut rec, &mut m);
    drop(warm);
    delta::probe(cfg, &mut rec, &mut m);
    build::probe(cfg, &mut rec, &mut m)?;
    let cluster = fronts::probe_cluster(cfg, &mut rec, &mut m)?;
    delta::probe_cluster(&cluster, &mut rec, &mut m);
    supervision::probe(cfg, cluster, &mut m);
    budgets(&mut m);

    // Spans go to a file; the table goes to the caller.
    rec.absorb(traced.recorder);
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let spans_path = dir.join(format!("spans-{workload}.json"));
    std::fs::write(&spans_path, rec.to_json().to_line()).map_err(|e| e.to_string())?;
    eprintln!(
        "  {} spans written to {}",
        rec.spans().len(),
        spans_path.display()
    );
    eprintln!(
        "  {:<44} {:>8} {:>14} {:>14}",
        "span", "n", "median ns", "median self ns"
    );
    for (name, n, total, own) in rec.summary() {
        eprintln!("  {name:<44} {n:>8} {total:>14.0} {own:>14.0}");
    }

    let mut rows = Vec::with_capacity(spec::PER_LAYER.len());
    for def in spec::PER_LAYER {
        let (value, n) = *m
            .values
            .get(def.name)
            .ok_or(format!("ladder did not measure {}", def.name))?;
        rows.push(Row {
            name: def.name.to_owned(),
            value,
            unit: def.unit,
            n,
        });
    }
    Ok(Traced {
        rows,
        attempted,
        failed,
        violations: m.violations,
    })
}

/// The three budgets. A warm click over the epoll transport is laid out
/// as rungs — each rung's own time is what it adds over the rung below —
/// and each path's `residual_ratio` is the share of its end-to-end
/// median that the sum of its rungs leaves unexplained.
fn budgets(m: &mut Measures) {
    let us = |m: &Measures, name: &str, per_us: f64| m.get(name) / per_us;
    let loopback = m.get("os.loopback.echo_rt_us");
    let proto = us(m, "serve.proto.parse_request_ns", 1e3)
        + us(m, "serve.proto.encode_response_ns.small", 1e3);
    let service = us(m, "serve.service.handle_warm_ns", 1e3);
    let shard = us(m, "serve.shard.handle_warm_ns", 1e3) - service;
    let stub = m.get("serve.event.stub_rt_us");
    let event = stub - loopback - proto;
    let site = m.get("serve.event.site_rt_us");
    m.set("budget.click.loopback_self_us", loopback);
    m.set("budget.click.proto_self_us", proto);
    m.set("budget.click.service_self_us", service);
    m.set("budget.click.shard_self_us", shard);
    m.set("budget.click.event_self_us", event);
    m.set("budget.click.site_self_us", site - stub);
    m.set(
        "budget.click.cluster_self_us",
        m.get("serve.cluster.handle_us") - site,
    );
    let rungs = loopback + proto + event + service;
    m.set(
        "budget.click.residual_ratio",
        (rungs - site).abs() / site.max(1e-9),
    );
    // The delta and build residuals are set by their probes, which hold
    // the parts and the whole side by side.
}
