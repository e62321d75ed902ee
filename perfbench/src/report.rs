//! Turning an [`Outcome`] into named metrics, the one-line JSON result
//! the driver reads, and the all-workloads result document.

use crate::inputs::DEFAULT_SEED;
use crate::json::{self, Json};
use crate::run::{out_dir, Cfg, Outcome, Slice};
use crate::{ladder, pins, spec, stats, workloads};
use std::process::{Command, ExitCode, Stdio};

/// One reported value.
pub struct Row {
    /// Metric name.
    pub name: String,
    /// The value, as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count behind it (0 when the value is not a sample statistic).
    pub n: usize,
}

fn row(name: &str, value: f64, unit: &'static str, n: usize) -> Row {
    Row {
        name: name.to_owned(),
        value,
        unit,
        n,
    }
}

/// Latency, throughput and CPU per operation of one outcome, with every
/// slice's times multiplied by `factor(slice)`.
///
/// The latency is the median over all operations. Throughput and CPU
/// time are taken slice by slice and the run reports the slice in which
/// the median *operation* ran (slices weighted by their operation
/// counts): the host now and then stalls for a good part of a second,
/// which empties a slice or two but holds few operations, so it moves
/// neither figure (see [`crate::host`]).
fn op_figures(o: &Outcome, factor: impl Fn(&Slice) -> f64) -> (f64, f64, f64) {
    let mut latencies: Vec<u64> = o
        .slices
        .iter()
        .flat_map(|s| {
            let f = factor(s);
            s.latencies_ns.iter().map(move |&ns| (ns as f64 * f) as u64)
        })
        .collect();
    latencies.sort_unstable();
    let busy = || o.slices.iter().filter(|s| !s.latencies_ns.is_empty());
    let weight = |s: &Slice| s.latencies_ns.len() as f64;
    let rate = stats::weighted_median(
        busy()
            .map(|s| (s.rate_per_s / factor(s), weight(s)))
            .collect(),
    );
    let cpu = stats::weighted_median(
        busy()
            .map(|s| (s.cpu_us as f64 * factor(s) / weight(s), weight(s)))
            .collect(),
    );
    (stats::median(&latencies) / 1e3, rate, cpu)
}

/// The end-to-end metrics of one outcome, in `spec::END_TO_END` order,
/// in host-calibrated time (see [`crate::host`]).
pub fn end_to_end_rows(o: &Outcome) -> Vec<Row> {
    let n = o.verified() as usize;
    let (p50, rate, cpu) = op_figures(o, Slice::factor);
    let setups: Vec<f64> = o.setups.iter().map(|s| s.seconds * s.factor).collect();
    vec![
        row("op_p50_us", p50, "us", n),
        row("ops_per_s", rate, "1/s", n),
        row("cpu_us_per_op", cpu, "us", n),
        row("peak_rss_mb", o.peak_rss_mib, "MiB", 0),
        row("setup_s", stats::median_f64(&setups), "s", setups.len()),
    ]
}

/// Client-side rows, in raw wall-clock time: what the end-to-end list
/// leaves out. Printed beside the end-to-end metrics and, in a traced
/// run, reported under layers `host` and `client`.
pub fn client_rows(o: &Outcome) -> Vec<Row> {
    let n = o.verified() as usize;
    let mut raw: Vec<u64> = o
        .slices
        .iter()
        .flat_map(|s| s.latencies_ns.iter().copied())
        .collect();
    raw.sort_unstable();
    let (pct, tail) = stats::tail(&raw);
    let (p50, rate, cpu) = op_figures(o, |_| 1.0);
    let factors: Vec<f64> = o.slices.iter().map(Slice::factor).collect();
    vec![
        row(
            "host.speed_factor",
            stats::median_f64(&factors),
            "ratio",
            factors.len(),
        ),
        row("client.op_p50_raw_us", p50, "us", n),
        row("client.ops_per_s_raw", rate, "1/s", n),
        row("client.cpu_us_per_op_raw", cpu, "us", n),
        row("client.op_tail_us", tail as f64 / 1e3, "us", n),
        row("client.op_tail_pct", pct, "%", n),
        row("client.op_n", n as f64, "count", n),
        row(
            "client.bytes_per_op",
            o.bytes as f64 / n.max(1) as f64,
            "B",
            n,
        ),
    ]
}

fn print_table(title: &str, rows: &[Row]) {
    eprintln!("{title}");
    for r in rows {
        let n = if r.n > 0 {
            format!("  n={}", r.n)
        } else {
            String::new()
        };
        eprintln!("  {:<44} {:>16.4} {:<6}{n}", r.name, r.value, r.unit);
    }
}

fn metrics_json(rows: &[Row]) -> Json {
    Json::Obj(
        rows.iter()
            .map(|r| {
                (
                    r.name.clone(),
                    Json::obj([("value", Json::Num(r.value)), ("unit", Json::str(r.unit))]),
                )
            })
            .collect(),
    )
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
fn result_line(correct: bool, attempted: u64, failed: u64, rows: &[Row]) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics_json(rows)),
    ])
    .to_line()
}

/// Checks the outcome's input fingerprints against the pins.
fn check_pins(workload: &str, cfg: &Cfg, o: &mut Outcome) {
    eprintln!(
        "  inputs: sources {:#018x}, load {:#018x} (seed {})",
        o.pin.sources, o.pin.load, cfg.seed
    );
    if let Err(e) = pins::check(workload, cfg.smoke, cfg.seed == DEFAULT_SEED, o.pin) {
        o.violations.push(e);
    }
}

/// `--workload W …`: one run, one JSON line on stdout, everything
/// human-readable on stderr. Exits 1 when any operation or oracle failed.
pub fn single_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    smoke: bool,
    traced: bool,
) -> Result<ExitCode, String> {
    let cfg = Cfg::new(seed, seconds, smoke);
    let (correct, attempted, failed, rows) = if traced {
        let t = ladder::traced_run(workload, &cfg)?;
        print_table(
            &format!("{workload} (traced, seed {seed}): per-layer"),
            &t.rows,
        );
        for v in &t.violations {
            eprintln!("  VIOLATION: {v}");
        }
        let failed = t.failed + t.violations.len() as u64;
        (failed == 0, t.attempted, failed, t.rows)
    } else {
        let mut o = workloads::run(workload, &cfg)?;
        check_pins(workload, &cfg, &mut o);
        let rows = end_to_end_rows(&o);
        print_table(
            &format!("{workload} (seed {seed}, {seconds} s): end to end"),
            &rows,
        );
        let mut extra = client_rows(&o);
        extra.extend([
            row("window_s", o.window_s(), "s", o.slices.len()),
            row(
                "fail_ratio",
                o.total_failed() as f64 / o.attempted().max(1) as f64,
                "ratio",
                o.attempted() as usize,
            ),
        ]);
        extra.extend(o.notes.iter().map(|(n, v, u)| row(n, *v, u, 0)));
        print_table("  informational (raw wall-clock):", &extra);
        for v in &o.violations {
            eprintln!("  VIOLATION: {v}");
        }
        let correct = o.total_failed() == 0 && o.verified() > 0;
        (correct, o.attempted(), o.total_failed(), rows)
    };
    println!("{}", result_line(correct, attempted, failed, &rows));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `run` / `trace`: every workload, each in a fresh child process (a
/// re-exec of this binary), so peak memory and allocator state never
/// leak from one workload into the next. Emits the result document.
pub fn all_workloads(
    traced: bool,
    seed: u64,
    seconds: f64,
    smoke: bool,
    out: Option<&str>,
) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut entries = Vec::new();
    let mut all_correct = true;
    for (name, _) in spec::WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if smoke {
            cmd.arg("--smoke");
        }
        let output = cmd.output().map_err(|e| format!("spawning {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or("");
        let parsed = json::parse(line).map_err(|e| {
            format!(
                "{name}: exit {:?}, unreadable result line: {e}",
                output.status.code()
            )
        })?;
        all_correct &= output.status.success();
        let mut members = vec![("name".to_owned(), Json::str(*name))];
        members.extend(parsed.as_obj().unwrap_or(&[]).iter().cloned());
        entries.push(Json::Obj(members));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = Json::obj([
        ("kind", Json::str(if traced { "trace" } else { "run" })),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(smoke)),
        ("nproc", Json::Num(nproc as f64)),
        // This benchmark measures; it claims no gain.
        ("claim", Json::Null),
        ("workloads", Json::Arr(entries)),
    ])
    .to_line();
    match out {
        Some(path) => {
            std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{path}: {e}"))?
        }
        None => println!("{doc}"),
    }
    // Children remove their own temp dirs; this clears what a killed
    // child may have left.
    let _ = std::fs::remove_dir_all(out_dir().join("tmp"));
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Needs the `strudel` binary in the target directory (see README.md);
    /// run with `--release`, the sites are real even when small.
    #[test]
    fn a_smoke_run_emits_exactly_the_listed_names() {
        let cfg = Cfg::new(DEFAULT_SEED, 0.3, true);
        for (workload, _) in spec::WORKLOADS {
            let mut o = workloads::run(workload, &cfg).expect("workload runs");
            check_pins(workload, &cfg, &mut o);
            assert_eq!(o.violations, Vec::<String>::new(), "{workload}");
            assert_eq!(o.failed(), 0, "{workload}");
            let rows = end_to_end_rows(&o);
            let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
            let listed: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, listed, "{workload}");
            for r in &rows {
                assert!(
                    r.value.is_finite() && r.value > 0.0,
                    "{workload} {} = {}",
                    r.name,
                    r.value
                );
            }
            let line = result_line(true, o.attempted(), 0, &rows);
            let parsed = json::parse(&line).expect("result line parses");
            let keys: Vec<&str> = parsed
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
        let traced = ladder::traced_run("warm-clicks", &Cfg::new(DEFAULT_SEED, 1.0, true))
            .expect("traced run");
        let names: Vec<&str> = traced.rows.iter().map(|r| r.name.as_str()).collect();
        let listed: Vec<&str> = spec::PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, listed);
        assert_eq!(traced.violations, Vec::<String>::new());
        assert!(traced.rows.iter().all(|r| r.value.is_finite()));
    }
}
