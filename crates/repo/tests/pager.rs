//! Integration tests for the paged store: differential checks against
//! the in-memory [`Database`], MVCC snapshot isolation under concurrent
//! commits, and the recovery matrix of `PagedRepo::open_with` row by row.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use strudel_graph::{graphs_equivalent, GraphDelta, Oid, Value};
use strudel_prng::{choose, Rng, SeedableRng, SmallRng};
use strudel_repo::vfs::{FaultMode, FaultVfs};
use strudel_repo::{snapshot, wal, Database, IndexLevel, PagedRepo, PagerConfig, RepoError};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("strudel-pager-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn small_cfg() -> PagerConfig {
    PagerConfig {
        page_size: 128,
        pool_pages: 8,
        nodes_per_segment: 4,
    }
}

/// One seeded delta against the oracle's current graph.
fn random_delta(rng: &mut SmallRng, g: &strudel_graph::Graph) -> GraphDelta {
    let nodes = g.node_count();
    let mut d = GraphDelta::new();
    match rng.gen_range(0..8u32) {
        0 | 1 => d.add_node(Some(&format!("r{:016x}", rng.next_u64()))),
        2..=4 if nodes > 0 => {
            let from = Oid::from_index(rng.gen_range(0..nodes));
            let label = *choose(rng, &["a", "b", "c"]);
            let to = if rng.gen_bool(0.4) {
                Value::Node(Oid::from_index(rng.gen_range(0..nodes)))
            } else {
                Value::string(format!("s{}", rng.gen_range(0..20u32)))
            };
            d.add_edge(from, label, to);
        }
        5 | 6 if nodes > 0 => d.collect(
            &format!("C{}", rng.gen_range(0..3u32)),
            Value::Node(Oid::from_index(rng.gen_range(0..nodes))),
        ),
        _ => d.add_node(None),
    }
    d
}

/// Differential: a long seeded run lands the paged store and the
/// in-memory database on byte-identical graphs, through a pool an order
/// of magnitude smaller than the data.
#[test]
fn paged_store_tracks_the_in_memory_database() {
    for seed in [0xACE5u64, 12, 1998] {
        let dir = tmpdir(&format!("diff-{seed}"));
        let repo = PagedRepo::open(&dir, small_cfg()).unwrap();
        let mut shadow = Database::new(IndexLevel::Full);
        let mut rng = SmallRng::seed_from_u64(seed);
        for step in 0..120usize {
            let d = random_delta(&mut rng, shadow.graph());
            repo.apply_delta(&d).unwrap();
            shadow.apply_delta(&d).unwrap();
            if step % 40 == 39 {
                repo.checkpoint().unwrap();
            }
        }
        let g = repo.snapshot().materialize().unwrap();
        assert!(graphs_equivalent(&g, shadow.graph()), "seed {seed}");
        let mut a = Vec::new();
        snapshot::save_graph(&g, &mut a).unwrap();
        let mut b = Vec::new();
        snapshot::save_graph(shadow.graph(), &mut b).unwrap();
        assert_eq!(a, b, "seed {seed}: byte-level divergence");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The acceptance criterion: concurrent readers each pin an MVCC
/// snapshot and repeatedly materialize it while the writer commits
/// deltas and checkpoints underneath them. Every materialization must
/// equal the oracle frozen at the snapshot's epoch — no torn reads, no
/// bleed-through from later commits.
#[test]
fn concurrent_readers_see_a_frozen_epoch_while_deltas_commit() {
    let dir = tmpdir("mvcc-threads");
    let repo = PagedRepo::open(&dir, small_cfg()).unwrap();
    let mut shadow = Database::new(IndexLevel::None);
    let mut rng = SmallRng::seed_from_u64(0x5EED);

    // Seed some data so the first snapshot is non-trivial.
    for _ in 0..20 {
        let d = random_delta(&mut rng, shadow.graph());
        repo.apply_delta(&d).unwrap();
        shadow.apply_delta(&d).unwrap();
    }

    const ROUNDS: usize = 6;
    const READS_PER_READER: usize = 8;
    let mut handles = Vec::new();
    for round in 0..ROUNDS {
        // Freeze the oracle at this epoch as snapshot bytes.
        let mut frozen = Vec::new();
        snapshot::save_graph(shadow.graph(), &mut frozen).unwrap();
        let snap = repo.snapshot();
        let epoch = snap.epoch();
        handles.push(std::thread::spawn(move || {
            for read in 0..READS_PER_READER {
                let g = snap.materialize().unwrap_or_else(|e| {
                    panic!("round {round} read {read}: materialize failed: {e}")
                });
                let mut got = Vec::new();
                snapshot::save_graph(&g, &mut got).unwrap();
                assert_eq!(
                    got, frozen,
                    "round {round} read {read}: snapshot at epoch {epoch} drifted"
                );
                std::thread::yield_now();
            }
        }));
        // Writer: keep committing (and occasionally checkpointing) while
        // the readers above are in flight.
        for _ in 0..10 {
            let d = random_delta(&mut rng, shadow.graph());
            repo.apply_delta(&d).unwrap();
            shadow.apply_delta(&d).unwrap();
        }
        if round % 2 == 1 {
            repo.checkpoint().unwrap();
        }
    }
    for h in handles {
        h.join().unwrap();
    }

    // With every reader gone, superseded versions retire: the head
    // snapshot still equals the oracle.
    let g = repo.snapshot().materialize().unwrap();
    assert!(graphs_equivalent(&g, shadow.graph()));
    std::fs::remove_dir_all(&dir).ok();
}

/// Reopen after a mixed run (commits, checkpoint, more commits) replays
/// the WAL tail over the manifest and lands on the oracle.
#[test]
fn reopen_round_trips_a_mixed_run() {
    let dir = tmpdir("reopen");
    let mut shadow = Database::new(IndexLevel::None);
    let mut rng = SmallRng::seed_from_u64(42);
    {
        let repo = PagedRepo::open(&dir, small_cfg()).unwrap();
        for _ in 0..30 {
            let d = random_delta(&mut rng, shadow.graph());
            repo.apply_delta(&d).unwrap();
            shadow.apply_delta(&d).unwrap();
        }
        repo.checkpoint().unwrap();
        for _ in 0..15 {
            let d = random_delta(&mut rng, shadow.graph());
            repo.apply_delta(&d).unwrap();
            shadow.apply_delta(&d).unwrap();
        }
        // No checkpoint: the last 15 deltas live only in the WAL.
    }
    let repo = PagedRepo::open(&dir, small_cfg()).unwrap();
    let g = repo.snapshot().materialize().unwrap();
    let mut a = Vec::new();
    snapshot::save_graph(&g, &mut a).unwrap();
    let mut b = Vec::new();
    snapshot::save_graph(shadow.graph(), &mut b).unwrap();
    assert_eq!(a, b, "reopen diverged from oracle");
    std::fs::remove_dir_all(&dir).ok();
}

/// The in-memory fast path: a pool larger than the site keeps every page
/// resident — zero evictions across a whole workload — while the tiny
/// pool on the same data is forced to evict.
#[test]
fn whole_site_in_pool_never_evicts() {
    let mut shadow = Database::new(IndexLevel::None);
    let mut rng = SmallRng::seed_from_u64(7);
    let mut deltas = Vec::new();
    for _ in 0..40 {
        let d = random_delta(&mut rng, shadow.graph());
        shadow.apply_delta(&d).unwrap();
        deltas.push(d);
    }
    let run = |pool_pages: usize, tag: &str| {
        let dir = tmpdir(&format!("fastpath-{tag}"));
        let cfg = PagerConfig {
            pool_pages,
            ..small_cfg()
        };
        let repo = PagedRepo::open(&dir, cfg).unwrap();
        for d in &deltas {
            repo.apply_delta(d).unwrap();
        }
        let g = repo.snapshot().materialize().unwrap();
        assert!(graphs_equivalent(&g, shadow.graph()), "{tag}");
        let (_, _, _, _, evictions, _) = repo.pool_stats();
        std::fs::remove_dir_all(&dir).ok();
        evictions
    };
    assert_eq!(run(4096, "big"), 0, "oversized pool must never evict");
    assert!(run(4, "tiny") > 0, "4-frame pool must evict on this data");
}

/// Snapshots pin their version until dropped, across threads: versions
/// retired while a reader is live must not be reclaimed (the reader
/// still materializes its frozen epoch afterwards).
#[test]
fn late_read_on_an_old_snapshot_still_sees_its_epoch() {
    let dir = tmpdir("late-read");
    let repo = PagedRepo::open(&dir, small_cfg()).unwrap();
    let mut d = GraphDelta::new();
    d.add_node(Some("v1"));
    repo.apply_delta(&d).unwrap();
    let old = repo.snapshot();

    // Bury the old version under commits and a checkpoint.
    for i in 0..25usize {
        let mut d = GraphDelta::new();
        d.add_node(Some(&format!("extra{i}")));
        repo.apply_delta(&d).unwrap();
    }
    repo.checkpoint().unwrap();

    let handle = std::thread::spawn(move || {
        let g = old.materialize().unwrap();
        assert_eq!(g.node_count(), 1, "old snapshot grew");
        assert!(g.node_by_name("v1").is_some());
        assert!(g.node_by_name("extra0").is_none());
    });
    handle.join().unwrap();

    let head = repo.snapshot().materialize().unwrap();
    assert_eq!(head.node_count(), 26);
    std::fs::remove_dir_all(&dir).ok();
}

/// Pager probes fire through the trace layer: a workload that misses and
/// evicts leaves nonzero `pager.*` counters in the global stats.
#[test]
fn pager_counters_reach_global_stats() {
    let dir = tmpdir("stats");
    let repo = PagedRepo::open(&dir, small_cfg()).unwrap();
    let before = strudel_repo::pager::global_stats();
    let mut shadow = Database::new(IndexLevel::None);
    let mut rng = SmallRng::seed_from_u64(9);
    for _ in 0..60 {
        let d = random_delta(&mut rng, shadow.graph());
        repo.apply_delta(&d).unwrap();
        shadow.apply_delta(&d).unwrap();
    }
    drop(repo.snapshot().materialize().unwrap());
    let after = strudel_repo::pager::global_stats();
    assert!(after.hits > before.hits, "no pager hits recorded");
    assert!(after.misses > before.misses, "no pager misses recorded");
    assert!(after.pins > before.pins, "no pager pins recorded");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// The recovery matrix, one row per test. `PagedRepo::open_with` compares
// the WAL header's generation `W` with the manifest's `G`: `W == G`
// replays (repairing a torn tail), `W < G` or a torn header is a stale
// log and is discarded, `W > G` is refused. The torture sweep reaches
// every row by crashing; these name them.
// ---------------------------------------------------------------------------

/// Node `a` (oid 0) with one `v` edge: the store every matrix row starts
/// from.
fn seed_delta() -> GraphDelta {
    let mut d = GraphDelta::new();
    d.add_node(Some("a"));
    d.add_edge(Oid::from_index(0), "v", Value::Int(1));
    d
}

fn v_edge(n: i64) -> GraphDelta {
    let mut d = GraphDelta::new();
    d.add_edge(Oid::from_index(0), "v", Value::Int(n));
    d
}

/// How many `v` edges node `a` carries in the store's head state.
fn v_count(repo: &PagedRepo) -> usize {
    let g = repo.snapshot().materialize().unwrap();
    g.attr_str(g.node_by_name("a").unwrap(), "v").count()
}

fn wal_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("pager.wal")).unwrap().len()
}

#[test]
fn wal_generation_ahead_of_manifest_is_a_precise_error() {
    let dir = tmpdir("wal-ahead");
    {
        let repo = PagedRepo::open(&dir, small_cfg()).unwrap();
        repo.apply_delta(&seed_delta()).unwrap();
        let old_manifest = std::fs::read(dir.join("pager.manifest")).unwrap();
        repo.checkpoint().unwrap(); // manifest and WAL are now generation 1
        drop(repo);
        // The manifest that restarted this log goes missing: the
        // generation-0 one is all that is left beside a generation-1 WAL.
        std::fs::write(dir.join("pager.manifest"), &old_manifest).unwrap();
    }
    match PagedRepo::open(&dir, small_cfg()) {
        Err(RepoError::Corrupt { message, .. }) => {
            assert!(
                message.contains("wal generation 1 ahead of manifest generation 0"),
                "message: {message}"
            );
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_wal_after_interrupted_truncation_is_not_reapplied() {
    let dir = tmpdir("stale-wal");
    {
        let repo = PagedRepo::open(&dir, small_cfg()).unwrap();
        repo.apply_delta(&seed_delta()).unwrap();
        let old_wal = std::fs::read(dir.join("pager.wal")).unwrap();
        repo.checkpoint().unwrap();
        drop(repo);
        // Crash window: the manifest rename landed but the WAL reset
        // didn't — the old generation-0 log is still on disk.
        std::fs::write(dir.join("pager.wal"), &old_wal).unwrap();
    }
    {
        let repo = PagedRepo::open(&dir, small_cfg()).unwrap();
        assert_eq!(v_count(&repo), 1, "no double apply");
        assert_eq!(wal_len(&dir), wal::HEADER_LEN, "stale frames discarded");
        repo.apply_delta(&v_edge(2)).unwrap();
    }
    let repo = PagedRepo::open(&dir, small_cfg()).unwrap();
    assert_eq!(v_count(&repo), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stray_manifest_tmp_is_cleaned_up_on_open() {
    let dir = tmpdir("stray-tmp");
    std::fs::create_dir_all(&dir).unwrap();
    let tmp = dir.join("pager.manifest.tmp");
    // Before the first open, and again beside a live store: a checkpoint
    // that died before its rename leaves only unreferenced garbage.
    for round in 0..2 {
        std::fs::write(&tmp, b"half-written junk").unwrap();
        let repo = PagedRepo::open(&dir, small_cfg()).unwrap();
        assert!(!tmp.exists(), "round {round}");
        assert_eq!(repo.node_count(), round, "round {round}");
        repo.apply_delta(&seed_delta()).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn open_recovers_from_torn_wal_tail_and_appends_cleanly() {
    let dir = tmpdir("torn-tail");
    let whole;
    {
        let repo = PagedRepo::open(&dir, small_cfg()).unwrap();
        repo.apply_delta(&seed_delta()).unwrap();
        whole = wal_len(&dir);
        repo.apply_delta(&v_edge(2)).unwrap();
    }
    // Simulate a crash mid-append: chop bytes off the last frame.
    let wal_path = dir.join("pager.wal");
    let full = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &full[..full.len() - 3]).unwrap();
    {
        let repo = PagedRepo::open(&dir, small_cfg()).unwrap();
        // The torn frame (v=2) is gone; the committed one survives.
        assert_eq!(v_count(&repo), 1);
        // Recovery truncated the garbage, so the next commit replays.
        assert_eq!(wal_len(&dir), whole, "torn tail truncated away");
        repo.apply_delta(&v_edge(3)).unwrap();
    }
    let repo = PagedRepo::open(&dir, small_cfg()).unwrap();
    assert_eq!(v_count(&repo), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_checkpoint_poisons_the_store_until_reopen() {
    let dir = tmpdir("poison");
    let vfs = FaultVfs::new();
    let repo = PagedRepo::open_with(Arc::new(vfs.clone()), &dir, small_cfg()).unwrap();
    repo.apply_delta(&seed_delta()).unwrap();
    // Transient fault on the checkpoint's first operation: the
    // checkpoint fails but the process lives on.
    vfs.arm_fault(vfs.op_count(), FaultMode::Fail);
    assert!(repo.checkpoint().is_err());
    assert!(repo.is_poisoned());
    // Writes must now refuse rather than go un-logged; reads still work.
    let err = repo.apply_delta(&v_edge(2)).unwrap_err();
    assert!(err.to_string().contains("reopen"), "got: {err}");
    assert!(repo.checkpoint().is_err());
    assert_eq!(v_count(&repo), 1);
    drop(repo);
    // Reopen recovers everything that was committed.
    let repo = PagedRepo::open(&dir, small_cfg()).unwrap();
    assert!(!repo.is_poisoned());
    assert_eq!(v_count(&repo), 1);
    repo.apply_delta(&v_edge(2)).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rejected_delta_leaves_store_and_wal_untouched() {
    let dir = tmpdir("reject-delta");
    {
        let repo = PagedRepo::open(&dir, small_cfg()).unwrap();
        repo.apply_delta(&seed_delta()).unwrap();
        let (len, epoch) = (wal_len(&dir), repo.epoch());

        let mut bad = GraphDelta::new();
        bad.add_edge(Oid::from_index(0), "w", Value::Int(9));
        bad.remove_edge(Oid::from_index(0), "ghost", Value::Int(0)); // rejected
        assert!(matches!(repo.apply_delta(&bad), Err(RepoError::Delta(_))));
        assert_eq!(wal_len(&dir), len, "the rejected delta never reached the log");
        assert_eq!(repo.epoch(), epoch, "no partial commit");
        assert!(!repo.is_poisoned(), "a validation error is not a write failure");
    }
    // So replay is clean and shows none of it.
    let repo = PagedRepo::open(&dir, small_cfg()).unwrap();
    let g = repo.snapshot().materialize().unwrap();
    let a = g.node_by_name("a").unwrap();
    assert_eq!(g.attr_str(a, "v").count(), 1);
    assert_eq!(g.attr_str(a, "w").count(), 0);
    std::fs::remove_dir_all(&dir).ok();
}
