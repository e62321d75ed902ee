//! End-to-end supervised-recovery suite for `--cluster` serving: a
//! router parent, N crash-isolated `shard-worker` processes, WAL-replay
//! recovery, degraded-mode failover.
//!
//! The contract under test, end to end through real processes and real
//! sockets: SIGKILLing any worker under concurrent keep-alive traffic
//! drops **zero** client connections — every response is either fresh
//! or a byte-identical last-known-good copy marked
//! `X-Strudel-Degraded: stale` — and a recovered worker replays the
//! shared store's WAL to byte-equality with an oracle that was never
//! killed.

mod common;

use std::collections::HashSet;
use std::convert::Infallible;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use strudel_graph::{ddl, Graph, GraphDelta, Oid, Value};
use strudel_prng::{Rng, SeedableRng, SmallRng};
use strudel_repo::{Database, IndexLevel, PagedRepo, PagerConfig};
use strudel_schema::dynamic::Mode;
use strudel_serve::cluster::FAULT_PLAN_ENV;
use strudel_serve::crawl::site_urls;
use strudel_serve::router::shard_of_path;
use strudel_serve::{
    proto, serve, ClickService, ClusterConfig, ClusterService, Response, ServerConfig,
    ServerHandle, SiteService,
};
use strudel_struql::Parallelism;
use strudel_template::TemplateSet;

const QUERY: &str = r#"
    create RootPage()
    where Articles(x)
    create ArticlePage(x)
    link RootPage() -> "story" -> ArticlePage(x)
    collect Roots(RootPage()), ArticlePages(ArticlePage(x))
    { where x -> "title" -> t
      link ArticlePage(x) -> "title" -> t }
    { where x -> "body" -> b
      link ArticlePage(x) -> "body" -> b }
"#;

const ROOT_TMPL: &str = "<html><SFMT story UL ORDER=ascend KEY=title></html>";
const ARTICLE_TMPL: &str = "<html><h1><SFMT title></h1><p><SFMT body></p></html>";

const SOURCE_DDL: &str = r#"
    object a1 in Articles { title : "First"; body : "alpha"; }
    object a2 in Articles { title : "Second"; body : "beta"; }
    object a3 in Articles { title : "Third"; body : "gamma"; }
    object a4 in Articles { title : "Fourth"; body : "delta"; }
    object a5 in Articles { title : "Fifth"; body : "epsilon"; }
    object a6 in Articles { title : "Sixth"; body : "zeta"; }
"#;

fn base_graph() -> Graph {
    ddl::parse(SOURCE_DDL).unwrap()
}

fn templates() -> TemplateSet {
    let mut t = TemplateSet::new();
    t.add_template("article", ARTICLE_TMPL).unwrap();
    t.add_template("root", ROOT_TMPL).unwrap();
    t.assign_object("RootPage", "root");
    t.assign_collection("ArticlePages", "article");
    t
}

/// An in-process service over the same site, for byte-equality oracles.
fn oracle(graph: Graph) -> SiteService {
    let db = Arc::new(Database::from_graph(graph, IndexLevel::Full));
    let program = strudel_struql::parse(QUERY).unwrap();
    SiteService::from_parts(db, &program, templates(), "Roots", Mode::Context)
}

/// Writes the same site as a directory the `strudel` binary can load —
/// what each worker process builds its program and templates from. (The
/// worker's *database* comes from replaying the shared store, so the DDL
/// here only has to parse; the store is the source of truth.)
fn write_site_dir(dir: &Path) {
    std::fs::create_dir_all(dir.join("templates")).unwrap();
    std::fs::create_dir_all(dir.join("sources")).unwrap();
    std::fs::write(dir.join("site.struql"), QUERY).unwrap();
    std::fs::write(
        dir.join("site.conf"),
        "root Roots\nobject RootPage root\ncollection ArticlePages article\n",
    )
    .unwrap();
    std::fs::write(dir.join("templates/root.tmpl"), ROOT_TMPL).unwrap();
    std::fs::write(dir.join("templates/article.tmpl"), ARTICLE_TMPL).unwrap();
    std::fs::write(dir.join("sources/articles.ddl"), SOURCE_DDL).unwrap();
}

/// A fresh scratch area: `(site_dir, store_dir)` with the store
/// bulk-loaded from [`base_graph`].
fn scratch(tag: &str) -> (PathBuf, PathBuf) {
    let root = std::env::temp_dir().join(format!(
        "strudel-cluster-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let site_dir = root.join("site");
    let store_dir = root.join("store");
    write_site_dir(&site_dir);
    std::fs::create_dir_all(&store_dir).unwrap();
    let store = PagedRepo::bulk_load(&store_dir, PagerConfig::default(), &base_graph()).unwrap();
    drop(store);
    (site_dir, store_dir)
}

/// A cluster config tuned for test turnaround: fast restarts, short
/// probes, the real binary under test.
fn test_config(workers: usize, site_dir: &Path, store_dir: &Path) -> ClusterConfig {
    let mut c = ClusterConfig::new(
        workers,
        PathBuf::from(env!("CARGO_BIN_EXE_strudel")),
        site_dir.to_path_buf(),
        store_dir.to_path_buf(),
    );
    c.backoff_base = Duration::from_millis(20);
    c.backoff_cap = Duration::from_millis(500);
    c.probe_interval = Duration::from_millis(100);
    c.min_uptime = Duration::from_millis(300);
    c
}

/// Opens the store read-write for the router role.
fn open_store(store_dir: &Path) -> PagedRepo {
    PagedRepo::open(store_dir, PagerConfig::default()).unwrap()
}

/// Every URL of the site `get` serves, sorted; each answers 200.
fn crawl(get: &dyn Fn(&str) -> Response) -> Vec<String> {
    let mut paths = site_urls(|path| {
        let response = get(path);
        assert_eq!(response.status, 200, "crawl of {path}");
        response
    });
    paths.sort();
    paths
}

/// A deterministic always-applicable delta: one new article per call.
fn make_delta(k: usize, next_oid: usize) -> GraphDelta {
    let mut delta = GraphDelta::new();
    let oid = Oid::from_index(next_oid);
    delta.add_node(None);
    delta.add_edge(oid, "title", Value::string(format!("Injected {k:03}").as_str()));
    delta.add_edge(oid, "body", Value::string(format!("payload {k}").as_str()));
    delta.collect("Articles", Value::Node(oid));
    delta
}

/// A random, always-applicable mixed delta (same generator family as
/// `property.rs`: inserts, attribute edits, edge/member removals).
fn random_delta(rng: &mut SmallRng, g: &Graph) -> GraphDelta {
    let mut delta = GraphDelta::new();
    let mut next_oid = g.node_count();
    let mut removed_edges: HashSet<(Oid, String, String)> = HashSet::new();
    let mut uncollected: HashSet<String> = HashSet::new();
    for _ in 0..rng.gen_range(1..=3usize) {
        match rng.gen_range(0..4u32) {
            0 => {
                let oid = Oid::from_index(next_oid);
                next_oid += 1;
                delta.add_node(None);
                delta.add_edge(
                    oid,
                    "title",
                    Value::string(format!("New {}", rng.gen_range(0..1000u32)).as_str()),
                );
                delta.add_edge(oid, "body", Value::string("fresh"));
                delta.collect("Articles", Value::Node(oid));
            }
            1 => {
                let oid = Oid::from_index(rng.gen_range(0..g.node_count()));
                let label = *strudel_prng::choose(rng, &["title", "body", "note"]);
                delta.add_edge(
                    oid,
                    label,
                    Value::string(format!("v{}", rng.gen_range(0..1000u32)).as_str()),
                );
            }
            2 => {
                let mut candidates = Vec::new();
                for idx in 0..g.node_count() {
                    let oid = Oid::from_index(idx);
                    for e in g.edges(oid) {
                        candidates.push((oid, g.label_name(e.label).to_string(), e.to.clone()));
                    }
                }
                if candidates.is_empty() {
                    continue;
                }
                let (oid, label, to) = strudel_prng::choose(rng, &candidates).clone();
                if removed_edges.insert((oid, label.clone(), format!("{to:?}"))) {
                    delta.remove_edge(oid, &label, to);
                }
            }
            _ => {
                let members = g.members_str("Articles");
                if members.is_empty() {
                    continue;
                }
                let member = strudel_prng::choose(rng, members).clone();
                if uncollected.insert(format!("{member:?}")) {
                    delta.uncollect("Articles", member);
                }
            }
        }
    }
    delta
}

/// Every page reachable from `/` through `get`, with its status and
/// body, sorted by path. Unlike [`crawl`] it takes any status: a random
/// delta may leave a linked page without a view.
fn crawl_responses(get: &dyn Fn(&str) -> Response) -> Vec<(String, u16, String)> {
    let site = strudel_serve::crawl::crawl(|path| Ok::<_, Infallible>(Some(get(path).body)));
    let mut paths = site.unwrap().urls;
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let r = get(&path);
            (path, r.status, r.body)
        })
        .collect()
}

/// Waits until every worker is ready (or panics after `deadline`).
fn wait_all_ready(cluster: &ClusterService, workers: usize, deadline: Duration) {
    let start = Instant::now();
    while cluster.ready_workers() < workers {
        assert!(
            start.elapsed() < deadline,
            "workers never recovered: {}/{} ready",
            cluster.ready_workers(),
            workers
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One per-shard row of the router's `/metrics`:
/// `strudel_cluster_upstream_<name>{shard="<shard>"}`.
fn upstream_metric(cluster: &ClusterService, name: &str, shard: usize) -> u64 {
    let row = format!("strudel_cluster_upstream_{name}{{shard=\"{shard}\"}} ");
    let text = cluster.stats_text();
    let value = text
        .lines()
        .find_map(|l| l.strip_prefix(row.as_str()))
        .unwrap_or_else(|| panic!("no {row} in:\n{text}"));
    value.parse().unwrap()
}

/// One GET over a kept-alive client connection: the response, and how
/// long it took to arrive.
fn get(stream: &mut TcpStream, path: &str) -> (proto::ParsedResponse, Duration) {
    let start = Instant::now();
    let mut request = Vec::new();
    proto::encode_request(&mut request, "GET", path, true);
    stream.write_all(&request).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "the router closed mid-response on {path}");
        buf.extend_from_slice(&chunk[..n]);
        match proto::parse_response(&buf, false) {
            proto::ResponseOutcome::Complete { response, .. } => {
                return (response, start.elapsed())
            }
            proto::ResponseOutcome::Incomplete => {}
            proto::ResponseOutcome::Malformed => panic!("malformed response on {path}"),
        }
    }
}

/// The router behind the epoll front with `workers` render threads.
fn epoll_router(cluster: &Arc<ClusterService>, workers: usize) -> ServerHandle {
    let config = ServerConfig {
        workers,
        ..Default::default()
    };
    serve(cluster.clone(), config).unwrap()
}

#[test]
fn a_cluster_serves_byte_identically_and_degrades_through_a_kill() {
    let (site_dir, store_dir) = scratch("oracle");
    let cluster =
        ClusterService::start(open_store(&store_dir), test_config(2, &site_dir, &store_dir))
            .unwrap();
    assert_eq!(cluster.ready_workers(), 2);

    // Warm primes the router's last-known-good cache for every page.
    let report = ClickService::warm(&*cluster, strudel_struql::Parallelism::Sequential).unwrap();
    assert!(report.pages >= 7, "root + six articles, got {}", report.pages);

    let oracle = oracle(base_graph());
    let paths = crawl(&|p| cluster.handle(p));
    assert!(paths.len() >= 7, "crawl found {paths:?}");
    for path in &paths {
        let ours = cluster.handle(path);
        let theirs = oracle.handle(path);
        assert_eq!(ours.status, theirs.status, "{path}");
        assert_eq!(ours.body, theirs.body, "{path}");
        assert!(!ours.degraded, "{path} fresh while both workers live");
    }

    // Kill the worker that owns "/": the very next response must be the
    // degraded last-known-good copy — same bytes, marked stale — because
    // the replacement cannot possibly be ready yet.
    let shard = strudel_serve::router::shard_of_path("/", 2);
    assert!(cluster.kill_worker(shard), "a live worker to kill");
    let degraded = cluster.handle("/");
    assert_eq!(degraded.status, 200, "degraded, never a reset or 5xx");
    assert!(degraded.degraded, "stale marker set while the worker is down");
    assert_eq!(degraded.body, oracle.handle("/").body, "stale bytes are the last good bytes");

    // The supervisor restarts it; service returns to fresh.
    wait_all_ready(&cluster, 2, Duration::from_secs(60));
    assert!(cluster.worker_restarts(shard) >= 1, "the kill was supervised");
    let fresh = cluster.handle("/");
    assert!(!fresh.degraded, "recovered worker serves fresh again");
    assert_eq!(fresh.body, oracle.handle("/").body);

    let metrics = cluster.stats_text();
    assert!(metrics.contains("strudel_cluster_workers 2"), "{metrics}");
    assert!(metrics.contains("strudel_cluster_degraded_total"), "{metrics}");
    cluster.shutdown();
}

#[test]
fn the_cluster_byte_equals_a_fresh_service_across_seeded_deltas() {
    // After every delta the router has applied — the barrier returned,
    // both workers caught up — the router and its two workers serve
    // exactly the pages, statuses and bytes of a service built fresh
    // from the same graph.
    for seed in 0..3u64 {
        let (site_dir, store_dir) = scratch(&format!("seeded{seed}"));
        let cluster =
            ClusterService::start(open_store(&store_dir), test_config(2, &site_dir, &store_dir))
                .unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut graph = base_graph();
        for round in 0..5 {
            let delta = random_delta(&mut rng, &graph);
            delta.apply(&mut graph).expect("generated deltas always apply");
            let outcome = cluster
                .apply_delta(&delta)
                .unwrap_or_else(|e| panic!("seed {seed} round {round}: {e}"));
            assert!(
                outcome.caught_up.iter().all(|c| *c),
                "seed {seed} round {round}: {outcome:?}"
            );
            let fresh = oracle(graph.clone());
            let want = crawl_responses(&|p| fresh.handle(p));
            let got = crawl_responses(&|p| {
                let r = cluster.handle(p);
                assert!(!r.degraded, "seed {seed} round {round}: {p} served stale");
                r
            });
            assert_eq!(got, want, "seed {seed} round {round}");
        }
        cluster.shutdown();
    }
}

#[test]
fn the_router_emits_the_standard_rows_then_its_cluster_rows() {
    let (site_dir, store_dir) = scratch("golden");
    let cluster =
        ClusterService::start(open_store(&store_dir), test_config(2, &site_dir, &store_dir))
            .unwrap();
    for path in crawl(&|p| cluster.handle(p)) {
        assert_eq!(cluster.handle(&path).status, 200, "{path}");
    }
    assert_eq!(cluster.handle("/healthz").status, 200);

    let mut expected = common::standard_metric_rows(&["healthz", "shard/0", "shard/1"]);
    expected.extend(
        [
            "strudel_cluster_workers",
            "strudel_cluster_delta_epoch",
            "strudel_cluster_degraded_total",
            "strudel_cluster_lkg_dropped_total",
            "strudel_cluster_unavailable_total",
            "strudel_cluster_proxy_errors_total",
        ]
        .map(String::from),
    );
    for shard in 0..2 {
        for row in [
            "worker_up{shard=\"#\"}",
            "worker_restarts_total{shard=\"#\"}",
            "worker_broken{shard=\"#\"}",
            "upstream_fetches_total{shard=\"#\"}",
            "upstream_connects_total{shard=\"#\"}",
            "upstream_reuses_total{shard=\"#\"}",
            "upstream_retries_total{shard=\"#\"}",
            "upstream_idle{shard=\"#\"}",
            "upstream_forwards_total{shard=\"#\"}",
        ] {
            expected.push(format!("strudel_cluster_{}", row.replace('#', &shard.to_string())));
        }
    }
    assert_eq!(
        common::untraced_metric_rows(&cluster.handle("/metrics").body),
        expected
    );

    // With tracing on the router reports the process's trace counters
    // where the other two fronts do: after the fixed rows, before its
    // own family.
    strudel_trace::set_enabled(true);
    strudel_trace::count("test.cluster_golden", 1);
    let rows = common::metric_row_names(&cluster.handle("/metrics").body);
    strudel_trace::set_enabled(false);
    let at = |name: &str| {
        rows.iter()
            .position(|r| r == name)
            .unwrap_or_else(|| panic!("no {name} row in {rows:?}"))
    };
    let traced = at("strudel_trace_counter{name=\"test.cluster_golden\"}");
    assert!(at("strudel_store_poisoned") < traced);
    assert!(traced < at("strudel_cluster_workers"));
    cluster.shutdown();
}

#[test]
fn sigkill_under_keepalive_traffic_drops_zero_connections() {
    let (site_dir, store_dir) = scratch("torture");
    let workers = 4;
    let cluster = ClusterService::start(
        open_store(&store_dir),
        test_config(workers, &site_dir, &store_dir),
    )
    .unwrap();
    ClickService::warm(&*cluster, strudel_struql::Parallelism::Sequential).unwrap();

    // The cluster router itself behind the epoll keep-alive front.
    let server = serve(
        cluster.clone(),
        ServerConfig {
            workers: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let oracle = oracle(base_graph());
    let paths = Arc::new(crawl(&|p| cluster.handle(p)));
    let expected: Arc<Vec<(String, String)>> = Arc::new(
        paths.iter().map(|p| (p.clone(), oracle.handle(p).body.clone())).collect(),
    );

    let stop = Arc::new(AtomicBool::new(false));
    let degraded_seen = Arc::new(AtomicU64::new(0));
    let fresh_seen = Arc::new(AtomicU64::new(0));
    let mut clients = Vec::new();
    for t in 0..4 {
        let expected = expected.clone();
        let stop = stop.clone();
        let degraded_seen = degraded_seen.clone();
        let fresh_seen = fresh_seen.clone();
        clients.push(std::thread::spawn(move || -> Result<(), String> {
            // One keep-alive connection per loop, many requests on it.
            while !stop.load(Ordering::Acquire) {
                let mut stream = std::net::TcpStream::connect(addr)
                    .map_err(|e| format!("connect: {e}"))?;
                stream
                    .set_read_timeout(Some(Duration::from_secs(20)))
                    .unwrap();
                for (i, (path, want)) in expected.iter().enumerate() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let keep_alive = i + 1 < expected.len();
                    let mut request = Vec::new();
                    proto::encode_request(&mut request, "GET", path, keep_alive);
                    stream
                        .write_all(&request)
                        .map_err(|e| format!("client {t} write {path}: {e} (dropped!)"))?;
                    let mut buf = Vec::new();
                    let mut chunk = [0u8; 4096];
                    let response = loop {
                        let n = stream
                            .read(&mut chunk)
                            .map_err(|e| format!("client {t} read {path}: {e} (dropped!)"))?;
                        if n == 0 {
                            return Err(format!("client {t} reset mid-response on {path}"));
                        }
                        buf.extend_from_slice(&chunk[..n]);
                        match proto::parse_response(&buf, false) {
                            proto::ResponseOutcome::Complete { response, .. } => break response,
                            proto::ResponseOutcome::Incomplete => continue,
                            proto::ResponseOutcome::Malformed => {
                                return Err(format!("client {t} malformed response on {path}"))
                            }
                        }
                    };
                    if response.status != 200 {
                        return Err(format!(
                            "client {t} got {} on {path} (want fresh or degraded 200)",
                            response.status
                        ));
                    }
                    if response.body != *want {
                        return Err(format!("client {t} got wrong bytes on {path}"));
                    }
                    if response.degraded {
                        degraded_seen.fetch_add(1, Ordering::Relaxed);
                    } else {
                        fresh_seen.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Ok(())
        }));
    }

    // The torture: SIGKILL every worker in turn, under full traffic,
    // waiting for recovery between kills so each kill hits a live fleet.
    for shard in 0..workers {
        wait_all_ready(&cluster, workers, Duration::from_secs(60));
        // The doomed incarnation has kept-alive sockets in use: the kill
        // is aimed at the pool, not beside it.
        let start = Instant::now();
        while upstream_metric(&cluster, "reuses_total", shard) == 0 {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "no socket to worker {shard} was ever reused"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let connects = upstream_metric(&cluster, "connects_total", shard);
        assert!(
            cluster.kill_worker(shard),
            "worker {shard} was alive to kill"
        );
        std::thread::sleep(Duration::from_millis(300));

        // The replacement answers on sockets of its own: this thread's
        // first click on the recovered shard is fresh and byte-equal to
        // the oracle (a page where the shard owns one).
        wait_all_ready(&cluster, workers, Duration::from_secs(60));
        let owned = |p: &str| strudel_serve::router::shard_of_path(p, workers) == shard;
        let path = paths
            .iter()
            .cloned()
            .chain((0..).map(|i| format!("/nope/{i}")))
            .find(|p| owned(p))
            .unwrap();
        let (ours, theirs) = (cluster.handle(&path), oracle.handle(&path));
        assert!(!ours.degraded, "{path} fresh from the new worker {shard}");
        assert_eq!(
            (ours.status, &ours.body),
            (theirs.status, &theirs.body),
            "{path}"
        );
        assert!(
            upstream_metric(&cluster, "connects_total", shard) > connects,
            "worker {shard}'s replacement was reached on a new connection"
        );
    }

    stop.store(true, Ordering::Release);
    for client in clients {
        client.join().unwrap().expect("no client ever saw a drop, reset, or wrong bytes");
    }
    assert!(
        fresh_seen.load(Ordering::Relaxed) > 0,
        "traffic actually flowed"
    );
    assert!(
        degraded_seen.load(Ordering::Relaxed) > 0,
        "at least one response was served from the last-known-good cache \
         while a worker was down"
    );
    for shard in 0..workers {
        assert!(cluster.worker_restarts(shard) >= 1, "worker {shard} was restarted");
    }
    server.shutdown();
    cluster.shutdown();
}

#[test]
fn upstream_counters_reconcile_with_a_seeded_run() {
    let (site_dir, store_dir) = scratch("upstream");
    let workers = 2;
    let mut config = test_config(workers, &site_dir, &store_dir);
    // No background probes: every exchange below is one this test made.
    config.probe_interval = Duration::from_secs(3600);
    let cluster = ClusterService::start(open_store(&store_dir), config).unwrap();
    ClickService::warm(&*cluster, strudel_struql::Parallelism::Sequential).unwrap();
    let oracle = oracle(base_graph());
    let paths = crawl(&|p| cluster.handle(p));

    let fetches = |shard| upstream_metric(&cluster, "fetches_total", shard);
    let before: Vec<u64> = (0..workers).map(fetches).collect();
    let mut sent = vec![0u64; workers];
    let mut seed = 0x5eed_u64;
    for k in 0..200 {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let path = &paths[(seed >> 33) as usize % paths.len()];
        let response = cluster.handle(path);
        assert!(!response.degraded, "{path}");
        assert_eq!(response.body, oracle.handle(path).body, "{path}");
        sent[strudel_serve::router::shard_of_path(path, workers)] += 1;
        if k % 50 == 49 {
            // The barrier's catch-up rides the same sockets: one
            // exchange per live worker.
            let delta = make_delta(k, base_graph().node_count() + k / 50);
            let outcome = cluster.apply_delta(&delta).unwrap();
            oracle.apply_delta(&delta).unwrap();
            assert!(outcome.caught_up.iter().all(|c| *c), "{outcome:?}");
            sent.iter_mut().for_each(|n| *n += 1);
        }
    }

    for shard in 0..workers {
        let [connects, reuses, retries] = ["connects_total", "reuses_total", "retries_total"]
            .map(|name| upstream_metric(&cluster, name, shard));
        assert_eq!(
            fetches(shard) - before[shard],
            sent[shard],
            "every click and catch-up to shard {shard} was one fetch"
        );
        assert_eq!(
            connects + reuses,
            fetches(shard) + retries,
            "shard {shard}: exchanges attempted, counted from both sides"
        );
        assert!(
            reuses >= sent[shard] - retries,
            "shard {shard} rode kept-alive sockets"
        );
        assert!(upstream_metric(&cluster, "idle", shard) >= 1);
    }
    cluster.shutdown();
    assert_eq!(
        upstream_metric(&cluster, "idle", 0),
        0,
        "a drained worker keeps no socket"
    );
}

/// The seeded run above, through the router's epoll front instead of
/// `cluster.handle`: the reactor forwards the clicks itself, on sockets
/// from the same idle stacks, and the books still balance.
#[test]
fn upstream_counters_reconcile_through_the_reactor() {
    let (site_dir, store_dir) = scratch("forwards");
    let workers = 2;
    let mut config = test_config(workers, &site_dir, &store_dir);
    // No background probes: every exchange below is one this test made.
    config.probe_interval = Duration::from_secs(3600);
    let cluster = ClusterService::start(open_store(&store_dir), config).unwrap();
    ClickService::warm(&*cluster, Parallelism::Sequential).unwrap();
    let oracle = oracle(base_graph());
    let paths = crawl(&|p| oracle.handle(p));
    let server = epoll_router(&cluster, 2);
    let mut client = TcpStream::connect(server.addr()).unwrap();

    let rows = |shard| {
        ["fetches_total", "connects_total", "reuses_total", "retries_total", "forwards_total"]
            .map(|name| upstream_metric(&cluster, name, shard))
    };
    let before: Vec<[u64; 5]> = (0..workers).map(rows).collect();
    let mut clicks = vec![0u64; workers];
    let mut catch_ups = 0u64;
    let mut seed = 0x5eed_u64;
    for k in 0..200 {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let path = &paths[(seed >> 33) as usize % paths.len()];
        let (response, _) = get(&mut client, path);
        assert!(!response.degraded, "{path}");
        assert_eq!(response.body, oracle.handle(path).body, "{path}");
        clicks[shard_of_path(path, workers)] += 1;
        if k % 50 == 49 {
            let delta = make_delta(k, base_graph().node_count() + k / 50);
            let outcome = cluster.apply_delta(&delta).unwrap();
            oracle.apply_delta(&delta).unwrap();
            assert!(outcome.caught_up.iter().all(|c| *c), "{outcome:?}");
            catch_ups += 1;
        }
    }

    for shard in 0..workers {
        let now = rows(shard);
        let [fetches, connects, reuses, retries, forwards] =
            std::array::from_fn(|i| now[i] - before[shard][i]);
        assert_eq!(
            fetches,
            clicks[shard] + catch_ups,
            "every click and catch-up to shard {shard} was one fetch"
        );
        assert_eq!(
            now[1] + now[2],
            now[0] + now[3],
            "shard {shard}: exchanges attempted, counted from both sides"
        );
        // A click the reactor could not forward found the stack empty,
        // and the pool's fetch for it connected.
        let found_no_socket = connects - retries;
        assert!(
            forwards <= clicks[shard] && forwards + found_no_socket >= clicks[shard],
            "shard {shard}: {forwards} forwards, {found_no_socket} fresh connects, \
             {} clicks",
            clicks[shard]
        );
        assert!(reuses >= forwards && forwards > 0, "shard {shard} was forwarded to");
    }
    server.shutdown();
    cluster.shutdown();
}

/// A worker that stalls holds up its own clicks, not the router: with
/// one render thread on the router, clicks to the healthy shard keep
/// answering while the stalled one waits out its deadline — and that one
/// then answers from the last-known-good copy.
#[test]
fn a_stalled_worker_does_not_stall_the_router() {
    let (site_dir, store_dir) = scratch("stall");
    let oracle = oracle(base_graph());
    let paths = crawl(&|p| oracle.handle(p));
    let owned = |shard| -> Vec<String> {
        paths
            .iter()
            .filter(|p| shard_of_path(p, 2) == shard)
            .cloned()
            .collect()
    };
    let (on0, on1) = (owned(0), owned(1));
    assert!(!on0.is_empty() && !on1.is_empty(), "{paths:?}");

    let deadline = Duration::from_millis(1500);
    let mut config = test_config(2, &site_dir, &store_dir);
    config.request_deadline = deadline;
    // The warm crawl asks worker 0 for each page it owns once; it
    // stalls on the next click.
    config.worker_env.push((
        FAULT_PLAN_ENV.to_string(),
        format!("shard=0;stall=5000;at=req:{}", on0.len() + 1),
    ));
    let cluster = ClusterService::start(open_store(&store_dir), config).unwrap();
    let report = ClickService::warm(&*cluster, Parallelism::Sequential).unwrap();
    assert_eq!(report.pages, paths.len(), "the crawl primed every page");
    let server = epoll_router(&cluster, 1);
    let addr = server.addr();

    let fetches = upstream_metric(&cluster, "fetches_total", 0);
    let stalled_path = on0[0].clone();
    let stalled = std::thread::spawn(move || get(&mut TcpStream::connect(addr).unwrap(), &stalled_path));
    let start = Instant::now();
    while upstream_metric(&cluster, "fetches_total", 0) == fetches {
        assert!(start.elapsed() < deadline, "the stalled click never left the router");
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut client = TcpStream::connect(addr).unwrap();
    let mut answered = 0;
    while start.elapsed() < deadline / 2 {
        for path in &on1 {
            let (response, took) = get(&mut client, path);
            assert!(
                took < deadline / 5,
                "{path} took {took:?} while a shard-0 click was stalled"
            );
            assert_eq!(response.status, 200, "{path}");
            assert!(!response.degraded, "{path}");
            assert_eq!(response.body, oracle.handle(path).body, "{path}");
            answered += 1;
        }
    }
    assert!(answered > 0);

    let (response, took) = stalled.join().unwrap();
    assert!(took >= deadline * 9 / 10, "answered before its deadline: {took:?}");
    assert_eq!(response.status, 200, "degraded, never a reset or 5xx");
    assert!(response.degraded, "the last-known-good copy, marked stale");
    assert_eq!(response.body, oracle.handle(&on0[0]).body);
    server.shutdown();
    cluster.shutdown();
}

#[test]
fn a_worker_killed_mid_delta_replays_the_wal_to_byte_equality() {
    let (site_dir, store_dir) = scratch("middelta");
    let mut config = test_config(2, &site_dir, &store_dir);
    // Worker 1 exits while applying its second catch-up delta — after
    // the store committed, before its in-memory state swapped.
    config
        .worker_env
        .push((FAULT_PLAN_ENV.to_string(), "shard=1;exit;at=delta:2".to_string()));
    let cluster = ClusterService::start(open_store(&store_dir), config).unwrap();

    let oracle = oracle(base_graph());
    let base_nodes = base_graph().node_count();
    let mut outcomes = Vec::new();
    for k in 0..3 {
        let delta = make_delta(k, base_nodes + k);
        outcomes.push(cluster.apply_delta(&delta).unwrap());
        oracle.apply_delta(&delta).unwrap();
    }
    assert!(outcomes[0].caught_up.iter().all(|c| *c), "delta 1 lands everywhere");
    assert!(
        !outcomes[1].caught_up[1],
        "delta 2 found worker 1 dead mid-apply: {outcomes:?}"
    );

    // The reborn worker replays the full WAL — all three deltas — and
    // must byte-equal the oracle that was never killed.
    wait_all_ready(&cluster, 2, Duration::from_secs(60));
    assert!(cluster.worker_restarts(1) >= 1);
    assert_eq!(cluster.delta_target(), 3);
    let paths = crawl(&|p| oracle.handle(p));
    assert!(
        paths.iter().any(|p| oracle.handle(p).body.contains("Injected 002")),
        "the oracle saw every delta"
    );
    for path in &paths {
        let ours = cluster.handle(path);
        assert!(!ours.degraded, "{path} served fresh after recovery");
        assert_eq!(ours.body, oracle.handle(path).body, "{path}");
    }
    cluster.shutdown();
}

#[test]
fn a_worker_crash_looping_at_startup_trips_the_breaker() {
    let (site_dir, store_dir) = scratch("breaker");
    let mut config = test_config(2, &site_dir, &store_dir);
    config.max_strikes = 2;
    config
        .worker_env
        .push((FAULT_PLAN_ENV.to_string(), "shard=1;exit;at=start".to_string()));
    let cluster = ClusterService::start(open_store(&store_dir), config).unwrap();

    // Worker 0 serves; worker 1 died at boot twice and the breaker
    // opened instead of burning restarts forever.
    assert_eq!(cluster.ready_workers(), 1);
    assert_eq!(cluster.broken_workers(), 1);
    assert!(cluster.worker_addr(1).is_none());
    let restarts_at_break = cluster.worker_restarts(1);
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        cluster.worker_restarts(1),
        restarts_at_break,
        "an open breaker spawns nothing"
    );

    // Routes owned by the broken shard answer 503 (no cached rendition
    // was ever taken); the healthy shard's routes still serve; overall
    // readiness reports the outage.
    let on_broken = (0..100)
        .map(|i| format!("/nope/{i}"))
        .find(|p| strudel_serve::router::shard_of_path(p, 2) == 1)
        .unwrap();
    assert_eq!(cluster.handle(&on_broken).status, 503);
    assert_eq!(cluster.handle("/readyz").status, 503);
    let metrics = cluster.stats_text();
    assert!(
        metrics.contains("strudel_cluster_worker_broken{shard=\"1\"} 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("strudel_cluster_worker_broken{shard=\"0\"} 0"),
        "{metrics}"
    );
    if strudel_serve::router::shard_of_path("/", 2) == 0 {
        assert_eq!(cluster.handle("/").status, 200, "healthy shard unaffected");
    }
    cluster.shutdown();
}

#[test]
fn serve_drains_gracefully_on_sigterm() {
    let (site_dir, _store) = scratch("drain");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_strudel"))
        .arg("serve")
        .arg(&site_dir)
        .args(["--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let stdout = child.stdout.take().unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            let _ = tx.send(line);
        }
    });
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut lines = Vec::new();
    let addr = loop {
        assert!(Instant::now() < deadline, "server never came up: {lines:?}");
        match rx.recv_timeout(Duration::from_secs(1)) {
            Ok(line) => {
                if let Some(rest) = line.split("http://").nth(1) {
                    break rest.split('/').next().unwrap().to_string();
                }
                lines.push(line);
            }
            Err(_) => continue,
        }
    };
    let addr: std::net::SocketAddr = addr.parse().unwrap();

    // Serving; then SIGTERM must drain and exit 0 — not abort.
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.write_all(b"GET / HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 200"), "{out}");

    strudel_epoll::kill_process(child.id(), strudel_epoll::SIGTERM).unwrap();
    let exit_deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        assert!(Instant::now() < exit_deadline, "serve never drained after SIGTERM");
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(status.success(), "graceful drain exits 0, got {status:?}");
    let drained: Vec<String> = rx.try_iter().collect();
    assert!(
        drained.iter().any(|l| l.contains("draining")),
        "drain announced: {drained:?}"
    );
}
