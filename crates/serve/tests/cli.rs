//! Integration tests driving the `strudel` CLI binary against the demo
//! site directory.

use std::path::PathBuf;
use std::process::Command;

fn demo_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/site-demo")
}

fn strudel(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_strudel"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn build_writes_the_site() {
    let out = std::env::temp_dir().join(format!("strudel-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let dir = demo_dir();
    let result = strudel(&["build", dir.to_str().unwrap(), "-o", out.to_str().unwrap()]);
    assert!(
        result.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&result.stderr)
    );
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(stdout.contains("static Proved"), "{stdout}");
    assert!(stdout.contains("5 pages"), "{stdout}");
    assert!(out.join("HomePage.html").exists());
    let home = std::fs::read_to_string(out.join("HomePage.html")).unwrap();
    assert!(home.contains("YearPage_1998_.html"));
    std::fs::remove_dir_all(&out).unwrap();
}

#[test]
fn check_reports_statistics() {
    let dir = demo_dir();
    let result = strudel(&["check", dir.to_str().unwrap()]);
    assert!(result.status.success());
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(stdout.contains("ok: 1 sources"), "{stdout}");
}

#[test]
fn schema_emits_dot() {
    let dir = demo_dir();
    let result = strudel(&["schema", dir.to_str().unwrap()]);
    assert!(result.status.success());
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(stdout.contains("digraph site_schema"));
    assert!(stdout.contains("YearPage"));
}

#[test]
fn stats_prints_the_t1_row() {
    let dir = demo_dir();
    let result = strudel(&["stats", dir.to_str().unwrap()]);
    assert!(result.status.success());
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(stdout.contains("query-lines"));
    assert!(stdout.contains("site-demo"));
}

#[test]
fn check_reports_reachability() {
    let dir = demo_dir();
    let result = strudel(&["check", dir.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(stdout.contains("every site node is reachable"), "{stdout}");
}

#[test]
fn guide_reports_discovered_schema() {
    let dir = demo_dir();
    let result = strudel(&["guide", dir.to_str().unwrap()]);
    assert!(result.status.success());
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(stdout.contains("collection Publications"), "{stdout}");
    // booktitle appears on one of the two entries only.
    assert!(stdout.contains("booktitle"), "{stdout}");
    assert!(stdout.contains("optional"), "{stdout}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let dir = demo_dir();
    let result = strudel(&["frobnicate", dir.to_str().unwrap()]);
    assert!(!result.status.success());
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn missing_site_dir_fails_cleanly() {
    let result = strudel(&["build", "/nonexistent/site"]);
    assert!(!result.status.success());
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(stderr.contains("site.struql"), "{stderr}");
}

#[test]
fn naive_is_not_a_serve_mode() {
    // The naive evaluator is the experiments' baseline and the tests'
    // reference engine, not something an operator can deploy.
    let dir = demo_dir();
    let result = strudel(&["serve", dir.to_str().unwrap(), "--mode", "naive"]);
    assert!(!result.status.success());
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(
        stderr.contains("unknown mode 'naive' (context|lookahead)"),
        "{stderr}"
    );
}

#[test]
fn transport_is_not_a_serve_flag() {
    // The front end follows the platform; a stale script that still
    // passes the flag must hear about it, not get the other transport.
    let dir = demo_dir();
    let result = strudel(&["serve", dir.to_str().unwrap(), "--transport", "threads"]);
    assert!(!result.status.success());
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(
        stderr.contains("the --transport flag was removed"),
        "{stderr}"
    );
}

#[test]
fn shards_is_not_a_serve_flag() {
    // One process serves from one engine; a stale script that still asks
    // for in-process shards must be pointed at --cluster, not served
    // unsharded. The bad --backlog makes a binary that still took the
    // flag exit instead of serving forever.
    let dir = demo_dir();
    let result = strudel(&[
        "serve",
        dir.to_str().unwrap(),
        "--shards",
        "2",
        "--backlog",
        "x",
    ]);
    assert_eq!(result.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(stderr.contains("the --shards flag was removed"), "{stderr}");
    assert!(stderr.contains("--cluster N"), "{stderr}");
}

#[test]
fn pool_pages_and_page_size_are_not_serve_flags() {
    // The store has no pages or buffer pool any more; a stale script
    // that still sizes them must hear that, not have them ignored.
    // A bad --backlog, parsed after the store opens, makes a binary that
    // still took the flag exit instead of serving forever.
    let dir = demo_dir();
    for flag in ["--pool-pages", "--page-size"] {
        let result = strudel(&["serve", dir.to_str().unwrap(), flag, "64", "--backlog", "x"]);
        assert!(!result.status.success(), "{flag}");
        let stderr = String::from_utf8_lossy(&result.stderr);
        assert!(
            stderr.contains(&format!("the {flag} flag was removed")),
            "{stderr}"
        );
    }
}

#[test]
fn a_retired_page_file_store_is_refused_not_bulk_loaded_over() {
    // A --store directory in the page-file format (here just its page
    // file) has no image; serve must not take that for a fresh directory
    // and bulk-load beside the old files.
    let store = std::env::temp_dir().join(format!("strudel-cli-retired-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    std::fs::create_dir_all(&store).unwrap();
    std::fs::write(store.join("pager.pages"), b"").unwrap();
    let dir = demo_dir();
    let result = strudel(&[
        "serve",
        dir.to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
        "--store",
        store.to_str().unwrap(),
        // Parsed after the store opens: a binary that bulk-loaded here
        // exits on it instead of serving forever.
        "--backlog",
        "x",
    ]);
    assert!(!result.status.success());
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(stderr.contains("retired page-file format"), "{stderr}");
    let left: Vec<_> = std::fs::read_dir(&store)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(left, ["pager.pages"], "nothing written beside it");
    std::fs::remove_dir_all(&store).unwrap();
}
