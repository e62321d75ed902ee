//! The `experiments` binary's command line.

use std::process::Command;

#[test]
fn json_is_not_an_experiments_flag() {
    // The `BENCH_*.json` snapshots are gone; a stale script that still
    // asks for them must hear where the numbers live, not have the flag
    // ignored or taken for an experiment id. `site-stats` first shows the
    // refusal comes before any experiment runs.
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["site-stats", "--json"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("the --json flag was removed"), "{stderr}");
    assert!(stderr.contains("perfbench/"), "{stderr}");
    assert!(stderr.contains("EXPERIMENTS.md"), "{stderr}");
    assert!(out.stdout.is_empty(), "no experiment ran");
}
