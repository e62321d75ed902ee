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
fn mode_is_not_a_serve_flag() {
    // The engine has one evaluation strategy; naive and look-ahead are
    // baselines the experiments run, and a script that still picks one
    // must hear about it.
    let dir = demo_dir();
    for mode in ["naive", "lookahead", "context"] {
        let result = strudel(&["serve", dir.to_str().unwrap(), "--mode", mode]);
        assert!(!result.status.success(), "--mode {mode}");
        let stderr = String::from_utf8_lossy(&result.stderr);
        assert!(stderr.contains("the --mode flag was removed"), "{stderr}");
    }
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
fn warm_takes_no_worker_count() {
    // The warm-up is one crawl on one thread; a stale script that still
    // sizes it must hear that. The bare switch is taken: a bad --backlog
    // then makes the binary exit instead of serving forever.
    let dir = demo_dir();
    for count in ["2", "auto"] {
        let result = strudel(&["serve", dir.to_str().unwrap(), "--warm", count]);
        assert_eq!(result.status.code(), Some(1), "--warm {count}");
        let stderr = String::from_utf8_lossy(&result.stderr);
        assert!(
            stderr.contains("the --warm worker count was removed"),
            "{stderr}"
        );
    }
    let result = strudel(&["serve", dir.to_str().unwrap(), "--warm", "--backlog", "x"]);
    assert_eq!(result.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(stderr.contains("--backlog needs a number"), "{stderr}");
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

#[test]
fn serve_with_a_store_serves_the_deltas_it_committed() {
    use std::io::{BufRead, BufReader, Read, Write};
    use strudel_graph::{GraphDelta, Value};
    use strudel_repo::{PagedRepo, PagerConfig};

    let store = std::env::temp_dir().join(format!("strudel-cli-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let dir = demo_dir();
    // First run: bulk-load the store from the built site. The bad
    // --backlog, parsed after the store opens, makes it exit there.
    let first = strudel(&[
        "serve",
        dir.to_str().unwrap(),
        "--store",
        store.to_str().unwrap(),
        "--backlog",
        "x",
    ]);
    assert!(!first.status.success());
    assert!(
        String::from_utf8_lossy(&first.stdout).contains("bulk-loaded"),
        "{}",
        String::from_utf8_lossy(&first.stdout)
    );

    // A retitle committed to the store's WAL, as a previous serve run
    // would have left it.
    {
        let repo = PagedRepo::open(&store, PagerConfig::default()).unwrap();
        let graph = repo.materialize().unwrap();
        let paper = graph
            .members_str("Publications")
            .iter()
            .filter_map(Value::as_node)
            .find(|&p| {
                graph
                    .attr_str(p, "title")
                    .any(|t| t.as_str() == Some("Web Query Languages"))
            })
            .expect("the demo bibliography has the paper");
        let mut delta = GraphDelta::new();
        delta.remove_edge(paper, "title", Value::string("Web Query Languages"));
        delta.add_edge(paper, "title", Value::string("Query Languages for the Web"));
        repo.apply_delta(&delta).unwrap();
    }

    let mut child = Command::new(env!("CARGO_BIN_EXE_strudel"))
        .args(["serve", dir.to_str().unwrap(), "--addr", "127.0.0.1:0"])
        .args(["--workers", "1", "--store", store.to_str().unwrap()])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let mut before = Vec::new();
    let addr = loop {
        let Some(Ok(line)) = lines.next() else {
            let _ = child.kill();
            panic!("serve exited before listening: {before:?}");
        };
        if let Some(rest) = line.split("http://").nth(1) {
            break rest.split('/').next().unwrap().to_string();
        }
        before.push(line);
    };
    let get = |path: &str| {
        let mut s = std::net::TcpStream::connect(&addr).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    };
    // Every page reachable from the index.
    let mut bodies = Vec::new();
    let urls = strudel_serve::crawl::crawl(|url| {
        bodies.push(get(url));
        Ok::<_, std::convert::Infallible>(bodies.last().cloned())
    })
    .unwrap()
    .urls;
    let _ = child.kill();
    let _ = child.wait();
    std::fs::remove_dir_all(&store).ok();

    assert!(
        bodies.iter().any(|b| b.contains("Query Languages for the Web")),
        "the committed title is served: {urls:?}"
    );
    assert!(
        !bodies.iter().any(|b| b.contains("Web Query Languages")),
        "the built site's title is not served"
    );
    assert!(
        before.iter().any(|l| l.contains("serving the store's graph")),
        "the divergence warning says what is served: {before:?}"
    );
}
