//! `compare A B` and `spread FILE...`: reading result documents back.
//!
//! `compare` treats `A` as the base and `B` as the candidate: for every
//! workload × end-to-end metric it prints the ratio with its base and
//! whether `B` is `within` the metric's bound, `outside` it (worse by
//! more than the bound; exit code 1), or `better` by more than the
//! bound. Run it both ways round to ask whether two sets of one commit
//! agree.
//!
//! `spread` takes the result documents of several runs of one commit and
//! prints, per workload × metric, the median and the distance between
//! the first and third quartile as a share of it — the acceptance
//! check's statistic.

use crate::json::{self, Json};
use crate::spec::{self, Better};
use crate::stats;
use std::process::ExitCode;

/// `workload → metric → value` of one result document.
type Table = Vec<(String, Vec<(String, f64)>)>;

fn load(path: &str) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or(format!("{path}: no `workloads` array"))?;
    workloads
        .iter()
        .map(|w| {
            let name = w
                .get("name")
                .and_then(Json::as_str)
                .ok_or(format!("{path}: workload without a name"))?;
            let metrics = w
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or(format!("{path}: {name} has no metrics"))?
                .iter()
                .filter_map(|(m, v)| Some((m.clone(), v.get("value")?.as_f64()?)))
                .collect();
            Ok((name.to_owned(), metrics))
        })
        .collect()
}

fn value(table: &Table, workload: &str, metric: &str) -> Option<f64> {
    let (_, metrics) = table.iter().find(|(w, _)| w == workload)?;
    metrics.iter().find(|(m, _)| m == metric).map(|(_, v)| *v)
}

/// How a candidate value stands against its base.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the base by more than the bound.
    Within,
    /// Worse than the base by more than the bound.
    Outside,
    /// Better than the base by more than the bound.
    Better,
}

/// Judges `candidate` against `base` for a metric with this direction
/// and bound. The share is always of the base.
pub fn judge(base: f64, candidate: f64, better: Better, bound: f64) -> Verdict {
    let worsening = match better {
        Better::Lower => (candidate - base) / base,
        Better::Higher => (base - candidate) / base,
    };
    if worsening > bound {
        Verdict::Outside
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// `compare A B`.
pub fn compare_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let (base, cand) = (load(a)?, load(b)?);
    let mut outside = 0;
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>8}  {:>6}  verdict",
        "workload", "metric", "base", "candidate", "ratio", "bound"
    );
    for (workload, _) in spec::WORKLOADS {
        for m in spec::END_TO_END {
            let (Some(x), Some(y)) = (
                value(&base, workload, m.name),
                value(&cand, workload, m.name),
            ) else {
                println!("{workload:<16} {:<14} missing in one of the files", m.name);
                outside += 1;
                continue;
            };
            let verdict = judge(x, y, m.better, m.bound);
            outside += usize::from(verdict == Verdict::Outside);
            println!(
                "{workload:<16} {:<14} {x:>14.4} {y:>14.4} {:>8.4}  {:>6.2}  {}",
                m.name,
                y / x,
                m.bound,
                match verdict {
                    Verdict::Within => "within",
                    Verdict::Outside => "OUTSIDE",
                    Verdict::Better => "better",
                }
            );
        }
    }
    Ok(if outside == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `spread FILE...`.
pub fn spread_files(paths: &[String]) -> Result<ExitCode, String> {
    let tables: Vec<Table> = paths.iter().map(|p| load(p)).collect::<Result<_, _>>()?;
    let mut wide = 0;
    println!(
        "{:<16} {:<14} {:>14} {:>10} {:>6}  over {} runs",
        "workload",
        "metric",
        "median",
        "iqr/med",
        "bound",
        tables.len()
    );
    for (workload, _) in spec::WORKLOADS {
        for m in spec::END_TO_END {
            let values: Vec<f64> = tables
                .iter()
                .filter_map(|t| value(t, workload, m.name))
                .collect();
            let Some((_, median, _)) = stats::quartiles(&values) else {
                continue;
            };
            let spread = stats::iqr_over_median(&values).unwrap_or(f64::NAN);
            // The acceptance check exempts set-up time from the spread rule.
            let over = m.name != "setup_s" && spread > m.bound;
            wide += usize::from(over);
            println!(
                "{workload:<16} {:<14} {median:>14.4} {spread:>10.4} {:>6.2}  {}",
                m.name,
                m.bound,
                if over {
                    "WIDER THAN BOUND"
                } else if spread > m.bound / 3.0 {
                    "above a third of the bound"
                } else {
                    "steady"
                }
            );
        }
    }
    Ok(if wide == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_and_bound() {
        use Better::{Higher, Lower};
        assert_eq!(judge(100.0, 109.0, Lower, 0.10), Verdict::Within);
        assert_eq!(judge(100.0, 111.0, Lower, 0.10), Verdict::Outside);
        assert_eq!(judge(100.0, 80.0, Lower, 0.10), Verdict::Better);
        assert_eq!(judge(100.0, 91.0, Higher, 0.10), Verdict::Within);
        assert_eq!(judge(100.0, 89.0, Higher, 0.10), Verdict::Outside);
        assert_eq!(judge(100.0, 120.0, Higher, 0.10), Verdict::Better);
    }
}
