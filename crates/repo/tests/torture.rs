//! Crash-point torture for the storage layer.
//!
//! A seeded workload mutates a persistent [`Database`] through a
//! [`FaultVfs`]. A first, fault-free pass counts how many filesystem
//! operations the schedule issues; then, for every operation index `k`,
//! the workload is rerun on a fresh directory with a crash armed at `k`
//! (the faulted operation fails or tears, and every operation after it
//! fails too, as a crashed process issues no more I/O). After each
//! simulated crash the directory is reopened with the *real* filesystem
//! and the recovered graph must equal a fault-free in-memory oracle that
//! mirrored every operation the crashed process saw succeed — first
//! structurally via `graphs_equivalent`, then byte-for-byte through the
//! snapshot encoder.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use strudel_graph::{graphs_equivalent, GraphDelta, Oid, Value};
use strudel_prng::{choose, Rng, SeedableRng, SmallRng};
use strudel_repo::vfs::{FaultMode, FaultVfs};
use strudel_repo::{snapshot, Database, IndexLevel, RepoError};

const STEPS: usize = 40;
const SEEDS: [u64; 4] = [0xC0FFEE, 7, 1998, 42];

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("strudel-torture-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// One mutation step. The decision is a function of the rng stream and
/// the database's current graph, both of which are identical between the
/// fault-free pass and a crash pass up to the crash point — so the two
/// passes make the same choices. Every operation that returns `Ok` is
/// mirrored into `shadow`, the in-memory oracle.
fn mutate(db: &mut Database, rng: &mut SmallRng, shadow: &mut Database) -> Result<(), RepoError> {
    let nodes = db.graph().node_count();
    match rng.gen_range(0..12u32) {
        0 | 1 => {
            let name = format!("n{}", rng.gen_range(0..24u32));
            db.add_named_node(&name)?;
            shadow.add_named_node(&name).expect("shadow");
        }
        2 => {
            db.add_node()?;
            shadow.add_node().expect("shadow");
        }
        3..=5 => {
            if nodes == 0 {
                db.add_node()?;
                shadow.add_node().expect("shadow");
                return Ok(());
            }
            let from = Oid::from_index(rng.gen_range(0..nodes));
            let label = *choose(rng, &["title", "year", "author", "cites"]);
            let to = if rng.gen_bool(0.3) {
                Value::Node(Oid::from_index(rng.gen_range(0..nodes)))
            } else {
                Value::Int(rng.gen_range(0..40i64))
            };
            db.add_edge(from, label, to.clone())?;
            shadow.add_edge(from, label, to).expect("shadow");
        }
        6 | 7 => {
            if nodes == 0 {
                return Ok(());
            }
            let from = Oid::from_index(rng.gen_range(0..nodes));
            let picked = {
                let g = db.graph();
                let edges = g.edges(from);
                if edges.is_empty() {
                    None
                } else {
                    let e = &edges[rng.gen_range(0..edges.len())];
                    Some((g.label_name(e.label).to_string(), e.to.clone()))
                }
            };
            if let Some((label, to)) = picked {
                db.remove_edge(from, &label, &to)?;
                shadow.remove_edge(from, &label, &to).expect("shadow");
            }
        }
        8 | 9 => {
            if nodes == 0 {
                return Ok(());
            }
            let coll = format!("C{}", rng.gen_range(0..4u32));
            let member = Value::Node(Oid::from_index(rng.gen_range(0..nodes)));
            db.collect(&coll, member.clone())?;
            shadow.collect(&coll, member).expect("shadow");
        }
        10 => {
            let picked = {
                let g = db.graph();
                let colls: Vec<_> = g
                    .collections()
                    .map(|(cid, name)| (cid, name.to_string()))
                    .collect();
                if colls.is_empty() {
                    None
                } else {
                    let (cid, name) = &colls[rng.gen_range(0..colls.len())];
                    let members = g.members(*cid);
                    if members.is_empty() {
                        None
                    } else {
                        Some((
                            name.clone(),
                            members[rng.gen_range(0..members.len())].clone(),
                        ))
                    }
                }
            };
            if let Some((coll, member)) = picked {
                db.uncollect(&coll, &member)?;
                shadow.uncollect(&coll, &member).expect("shadow");
            }
        }
        _ => {
            // A multi-op delta: one WAL frame creating a node, an edge on
            // it, and a collection membership. The name is drawn from the
            // full 64-bit stream so it never collides (a deduped AddNode
            // would shift the indices the delta was built against).
            let name = format!("d{:016x}", rng.next_u64());
            let n = Oid::from_index(nodes);
            let mut d = GraphDelta::new();
            d.add_node(Some(&name));
            d.add_edge(n, "kind", Value::string("delta"));
            d.collect("D", Value::Node(n));
            db.apply_delta(&d)?;
            shadow.apply_delta(&d).expect("shadow");
        }
    }
    Ok(())
}

/// Runs the seeded schedule against a persistent database on `vfs`,
/// mirroring successful mutations into `shadow`. Checkpoints and reopens
/// are woven through the schedule so crash points land inside both.
/// Returns the first error — the simulated crash — or `Ok` if the
/// schedule completes.
fn run_workload(
    dir: &Path,
    vfs: &FaultVfs,
    seed: u64,
    shadow: &mut Database,
) -> Result<(), RepoError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut db = Database::open_with(dir, IndexLevel::Full, Arc::new(vfs.clone()))?;
    for step in 0..STEPS {
        if step % 9 == 8 {
            db.checkpoint()?;
        } else if step % 13 == 12 {
            drop(db);
            db = Database::open_with(dir, IndexLevel::Full, Arc::new(vfs.clone()))?;
        } else {
            mutate(&mut db, &mut rng, shadow)?;
        }
    }
    db.checkpoint()?;
    Ok(())
}

fn assert_matches_oracle(db: &Database, shadow: &Database, ctx: &str) {
    assert!(
        graphs_equivalent(db.graph(), shadow.graph()),
        "{ctx}: recovered graph differs from the oracle"
    );
    let mut recovered = Vec::new();
    snapshot::save_graph(db.graph(), &mut recovered).unwrap();
    let mut oracle = Vec::new();
    snapshot::save_graph(shadow.graph(), &mut oracle).unwrap();
    assert_eq!(recovered, oracle, "{ctx}: byte-level divergence");
}

/// The fault-free pass: returns how many vfs operations the schedule
/// issues, and sanity-checks the oracle against the surviving database.
fn fault_free_ops(seed: u64) -> u64 {
    let dir = tmpdir(&format!("clean-{seed}"));
    let vfs = FaultVfs::new();
    let mut shadow = Database::new(IndexLevel::None);
    run_workload(&dir, &vfs, seed, &mut shadow).expect("fault-free run");
    let db = Database::open(&dir, IndexLevel::Full).unwrap();
    assert_matches_oracle(&db, &shadow, &format!("seed {seed} fault-free"));
    let total = vfs.op_count();
    std::fs::remove_dir_all(&dir).ok();
    total
}

/// What the crash at operation `k` does: derived from the seed so the
/// schedule mixes clean failures with torn writes of every small length.
fn mode_for(seed: u64, k: u64) -> FaultMode {
    let mut r = SmallRng::seed_from_u64(seed ^ k.wrapping_mul(0x9E37_79B9));
    if r.gen_bool(0.5) {
        FaultMode::Fail
    } else {
        FaultMode::Partial(r.gen_range(0..64usize))
    }
}

#[test]
fn every_crash_point_recovers_to_the_oracle() {
    for seed in SEEDS {
        let total = fault_free_ops(seed);
        assert!(total > 60, "schedule should exercise many vfs ops: {total}");
        for k in 0..total {
            let mode = mode_for(seed, k);
            let ctx = format!("seed {seed} crash at op {k}/{total} ({mode:?})");
            let dir = tmpdir(&format!("crash-{seed}-{k}"));
            let vfs = FaultVfs::new();
            vfs.arm_crash(k, mode);
            let mut shadow = Database::new(IndexLevel::None);
            let res = run_workload(&dir, &vfs, seed, &mut shadow);
            assert!(res.is_err(), "{ctx}: armed crash must surface an error");
            assert!(vfs.fired(), "{ctx}: fault never fired");
            // The crashed process is gone; recover on the real filesystem.
            let mut db = Database::open(&dir, IndexLevel::Full)
                .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
            assert_matches_oracle(&db, &shadow, &ctx);
            // The recovered database takes writes and survives a reopen.
            let post = db.add_node().unwrap_or_else(|e| panic!("{ctx}: {e}"));
            drop(db);
            let db = Database::open(&dir, IndexLevel::Full).unwrap();
            assert!(db.graph().contains_node(post), "{ctx}: post-crash write lost");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// The checkpoint window: a crash at *every* operation inside
/// `checkpoint()` — WAL sync, snapshot temp write, atomic rename,
/// directory sync, WAL reset — must recover the full pre-checkpoint
/// state, never a double-applied or truncated one. At least one of those
/// crash points lands between the snapshot rename and the WAL reset, the
/// window where a stale log survives on disk.
#[test]
fn crash_anywhere_inside_checkpoint_is_safe() {
    let mut saw_stale_wal = false;
    let mut covered = 0;
    for off in 0..16u64 {
        let dir = tmpdir(&format!("ckpt-window-{off}"));
        let vfs = FaultVfs::new();
        let mut db =
            Database::open_with(&dir, IndexLevel::Full, Arc::new(vfs.clone())).unwrap();
        let a = db.add_named_node("a").unwrap();
        db.add_edge(a, "v", Value::Int(1)).unwrap();
        db.add_edge(a, "v", Value::Int(2)).unwrap();
        db.collect("C", Value::Node(a)).unwrap();
        let mode = if off % 2 == 0 {
            FaultMode::Fail
        } else {
            FaultMode::Partial(off as usize)
        };
        vfs.arm_crash(vfs.op_count() + off, mode);
        let crashed = db.checkpoint().is_err();
        drop(db);
        if !crashed {
            // The whole checkpoint fit in fewer than `off` operations:
            // every point in the window has been covered.
            assert!(!vfs.fired());
            std::fs::remove_dir_all(&dir).ok();
            break;
        }
        covered += 1;
        let db = Database::open(&dir, IndexLevel::Full)
            .unwrap_or_else(|e| panic!("checkpoint crash at +{off}: recovery failed: {e}"));
        let a = db.graph().node_by_name("a").expect("node survives");
        assert_eq!(
            db.graph().attr_str(a, "v").count(),
            2,
            "checkpoint crash at +{off}: edges double-applied or lost"
        );
        assert_eq!(db.graph().members_str("C").len(), 1);
        saw_stale_wal |= db.recovered_stale_wal();
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(covered >= 5, "only {covered} checkpoint crash points covered");
    assert!(
        saw_stale_wal,
        "no crash point left a stale WAL (rename-vs-reset window untested)"
    );
}

/// A *transient* write fault during `apply_delta` (the process lives on)
/// must reject the delta atomically: the graph, its indexes, and the
/// on-disk log keep exactly their prior state, and the database refuses
/// further writes — the frame may sit torn on disk, and appending after
/// it would corrupt the log mid-stream — until a reopen recovers it.
#[test]
fn failed_wal_append_is_atomic() {
    for (i, mode) in [FaultMode::Fail, FaultMode::Partial(1), FaultMode::Partial(9)]
        .into_iter()
        .enumerate()
    {
        let dir = tmpdir(&format!("append-fault-{i}"));
        let vfs = FaultVfs::new();
        let mut db =
            Database::open_with(&dir, IndexLevel::Full, Arc::new(vfs.clone())).unwrap();
        let a = db.add_named_node("a").unwrap();
        db.add_edge(a, "v", Value::Int(1)).unwrap();

        vfs.arm_fault(vfs.op_count(), mode);
        let mut d = GraphDelta::new();
        d.add_edge(a, "w", Value::Int(7));
        d.collect("W", Value::Node(a));
        assert!(db.apply_delta(&d).is_err(), "{mode:?}");

        // Nothing leaked into the in-memory state or its indexes.
        assert_eq!(db.graph().attr_str(a, "w").count(), 0, "{mode:?}");
        assert!(db.graph().collection_id("W").is_none(), "{mode:?}");
        let w = db.graph().label("w");
        assert!(
            w.and_then(|l| db.extension(l)).is_none_or(|e| e.is_empty()),
            "{mode:?}: extension index leaked"
        );

        // The log is poisoned until reopen; the fault was transient, so
        // reopen succeeds and shows only the committed prefix.
        assert!(db.add_edge(a, "x", Value::Int(1)).is_err(), "{mode:?}");
        drop(db);
        let mut db = Database::open(&dir, IndexLevel::Full).unwrap();
        let a = db.graph().node_by_name("a").unwrap();
        assert_eq!(db.graph().attr_str(a, "v").count(), 1, "{mode:?}");
        assert_eq!(db.graph().attr_str(a, "w").count(), 0, "{mode:?}");
        // And the retry goes through.
        db.apply_delta(&d).unwrap_or_else(|e| panic!("{mode:?}: retry failed: {e}"));
        assert_eq!(db.graph().attr_str(a, "w").count(), 1, "{mode:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------------
// Pager torture: the same crash-point discipline applied to the paged
// store. The tiny pool (4 frames of 128-byte pages) forces eviction
// writebacks on nearly every commit, so crash points land inside the
// write-ahead coupling (WAL sync before page flush), mid-eviction, and
// inside checkpoint's flush-all — not just inside WAL appends.
// ---------------------------------------------------------------------------

use strudel_graph::Graph;
use strudel_repo::{PagedRepo, PagerConfig};

const PAGER_STEPS: usize = 30;
const PAGER_SEEDS: [u64; 2] = [0xD15C, 3];

fn tiny_cfg() -> PagerConfig {
    PagerConfig {
        page_size: 128,
        pool_pages: 4,
        nodes_per_segment: 4,
    }
}

/// One seeded delta, built against the oracle's current graph (identical
/// to the store's state up to the crash point, so both passes draw the
/// same schedule).
fn pager_delta(rng: &mut SmallRng, g: &Graph) -> GraphDelta {
    let nodes = g.node_count();
    let mut d = GraphDelta::new();
    match rng.gen_range(0..10u32) {
        0..=2 => d.add_node(Some(&format!("p{:016x}", rng.next_u64()))),
        3..=5 if nodes > 0 => {
            let from = Oid::from_index(rng.gen_range(0..nodes));
            let label = *choose(rng, &["title", "year", "cites"]);
            let to = if rng.gen_bool(0.3) {
                Value::Node(Oid::from_index(rng.gen_range(0..nodes)))
            } else {
                Value::Int(rng.gen_range(0..40i64))
            };
            d.add_edge(from, label, to);
        }
        6 if nodes > 0 => {
            let from = Oid::from_index(rng.gen_range(0..nodes));
            let edges = g.edges(from);
            if edges.is_empty() {
                d.add_node(None);
            } else {
                let e = &edges[rng.gen_range(0..edges.len())];
                d.remove_edge(from, g.label_name(e.label), e.to.clone());
            }
        }
        7 | 8 if nodes > 0 => d.collect(
            &format!("C{}", rng.gen_range(0..3u32)),
            Value::Node(Oid::from_index(rng.gen_range(0..nodes))),
        ),
        9 => {
            let picked = {
                let colls: Vec<_> = g
                    .collections()
                    .map(|(cid, name)| (cid, name.to_string()))
                    .collect();
                if colls.is_empty() {
                    None
                } else {
                    let (cid, name) = &colls[rng.gen_range(0..colls.len())];
                    let members = g.members(*cid);
                    if members.is_empty() {
                        None
                    } else {
                        Some((
                            name.clone(),
                            members[rng.gen_range(0..members.len())].clone(),
                        ))
                    }
                }
            };
            match picked {
                Some((coll, member)) => d.uncollect(&coll, member),
                None => d.add_node(None),
            }
        }
        _ => d.add_node(None),
    }
    d
}

/// Runs the seeded schedule against a paged store on `vfs`, mirroring
/// acknowledged deltas into `shadow`. On error, returns the delta that
/// was in flight (if any) so the caller can reason about atomicity.
fn run_pager_workload(
    dir: &Path,
    vfs: &FaultVfs,
    seed: u64,
    shadow: &mut Database,
) -> Result<(), (RepoError, Option<GraphDelta>)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut repo = PagedRepo::open_with(Arc::new(vfs.clone()), dir, tiny_cfg())
        .map_err(|e| (e, None))?;
    for step in 0..PAGER_STEPS {
        if step % 9 == 8 {
            repo.checkpoint().map_err(|e| (e, None))?;
        } else if step % 13 == 12 {
            drop(repo);
            repo = PagedRepo::open_with(Arc::new(vfs.clone()), dir, tiny_cfg())
                .map_err(|e| (e, None))?;
        } else {
            let d = pager_delta(&mut rng, shadow.graph());
            if let Err(e) = repo.apply_delta(&d) {
                return Err((e, Some(d)));
            }
            shadow.apply_delta(&d).expect("shadow");
        }
    }
    repo.checkpoint().map_err(|e| (e, None))?;
    Ok(())
}

/// Recovery oracle for the paged store: the reopened, materialized graph
/// must byte-equal the shadow of acknowledged deltas — except that the
/// single delta in flight at the crash may have fully survived (its WAL
/// frame was durable before the acknowledgment raced the crash). Nothing
/// in between is tolerated.
fn assert_pager_oracle(
    dir: &Path,
    shadow: &mut Database,
    inflight: Option<GraphDelta>,
    ctx: &str,
) {
    let repo = PagedRepo::open(dir, tiny_cfg())
        .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
    let g = repo
        .snapshot()
        .materialize()
        .unwrap_or_else(|e| panic!("{ctx}: materialize failed: {e}"));
    let mut rec = Vec::new();
    snapshot::save_graph(&g, &mut rec).unwrap();
    let mut ora = Vec::new();
    snapshot::save_graph(shadow.graph(), &mut ora).unwrap();
    if rec != ora {
        let d = inflight
            .unwrap_or_else(|| panic!("{ctx}: divergence with no delta in flight"));
        shadow
            .apply_delta(&d)
            .unwrap_or_else(|e| panic!("{ctx}: oracle catch-up failed: {e}"));
        ora.clear();
        snapshot::save_graph(shadow.graph(), &mut ora).unwrap();
        assert_eq!(
            rec, ora,
            "{ctx}: recovered state is neither pre- nor post-inflight-delta"
        );
    }
    // The recovered store takes writes and they survive a reopen.
    let before = repo.node_count();
    let mut d = GraphDelta::new();
    d.add_node(None);
    repo.apply_delta(&d)
        .unwrap_or_else(|e| panic!("{ctx}: post-recovery write failed: {e}"));
    drop(repo);
    let repo = PagedRepo::open(dir, tiny_cfg()).unwrap();
    assert_eq!(repo.node_count(), before + 1, "{ctx}: post-crash write lost");
}

/// Fault-free pass: counts vfs operations and sanity-checks the oracle —
/// and proves the schedule actually evicts (the whole point of the tiny
/// pool: crash points must land inside eviction writebacks).
fn pager_fault_free_ops(seed: u64) -> u64 {
    let dir = tmpdir(&format!("pager-clean-{seed}"));
    let vfs = FaultVfs::new();
    let mut shadow = Database::new(IndexLevel::None);
    run_pager_workload(&dir, &vfs, seed, &mut shadow)
        .map_err(|(e, _)| e)
        .expect("fault-free pager run");
    let repo = PagedRepo::open(&dir, tiny_cfg()).unwrap();
    let g = repo.snapshot().materialize().unwrap();
    assert!(
        graphs_equivalent(g_ref(&g), shadow.graph()),
        "seed {seed}: fault-free paged store diverges from oracle"
    );
    let (_, _, _, _, evictions, _) = repo.pool_stats();
    assert!(
        evictions > 0,
        "seed {seed}: schedule never evicted — pool too large to torture writeback"
    );
    let total = vfs.op_count();
    std::fs::remove_dir_all(&dir).ok();
    total
}

fn g_ref(g: &Graph) -> &Graph {
    g
}

#[test]
fn every_pager_crash_point_recovers_to_the_oracle() {
    for seed in PAGER_SEEDS {
        let total = pager_fault_free_ops(seed);
        assert!(total > 80, "schedule should exercise many vfs ops: {total}");
        for k in 0..total {
            let mode = mode_for(seed, k);
            let ctx = format!("pager seed {seed} crash at op {k}/{total} ({mode:?})");
            let dir = tmpdir(&format!("pager-crash-{seed}-{k}"));
            let vfs = FaultVfs::new();
            vfs.arm_crash(k, mode);
            let mut shadow = Database::new(IndexLevel::None);
            let res = run_pager_workload(&dir, &vfs, seed, &mut shadow);
            let inflight = match res {
                Ok(()) => panic!("{ctx}: armed crash must surface an error"),
                Err((_, d)) => d,
            };
            assert!(vfs.fired(), "{ctx}: fault never fired");
            assert_pager_oracle(&dir, &mut shadow, inflight, &ctx);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Checkpoint under memory pressure: with more dirty pages than frames,
/// `checkpoint()` interleaves eviction writebacks with its flush-all,
/// manifest rename, and WAL reset. A crash at every offset inside that
/// window must recover the full pre-checkpoint state.
#[test]
fn pager_crash_anywhere_inside_checkpoint_is_safe() {
    let mut covered = 0;
    for off in 0..48u64 {
        let dir = tmpdir(&format!("pager-ckpt-{off}"));
        let vfs = FaultVfs::new();
        let repo =
            PagedRepo::open_with(Arc::new(vfs.clone()), &dir, tiny_cfg()).unwrap();
        let mut shadow = Database::new(IndexLevel::None);
        for i in 0..10usize {
            let mut d = GraphDelta::new();
            d.add_node(Some(&format!("c{i}")));
            d.add_edge(Oid::from_index(i), "v", Value::Int(i as i64));
            d.collect("K", Value::Node(Oid::from_index(i)));
            repo.apply_delta(&d).unwrap();
            shadow.apply_delta(&d).unwrap();
        }
        let mode = if off % 2 == 0 {
            FaultMode::Fail
        } else {
            FaultMode::Partial(off as usize)
        };
        vfs.arm_crash(vfs.op_count() + off, mode);
        let crashed = repo.checkpoint().is_err();
        drop(repo);
        if !crashed {
            assert!(!vfs.fired());
            std::fs::remove_dir_all(&dir).ok();
            break;
        }
        covered += 1;
        let ctx = format!("pager checkpoint crash at +{off}");
        assert_pager_oracle(&dir, &mut shadow, None, &ctx);
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(covered >= 5, "only {covered} checkpoint crash points covered");
}

/// A *transient* fault mid-commit — including a WAL-sync failure during
/// an eviction, the exact point where flushing a page ahead of its LSN
/// would be tempting — must reject the delta, poison the store against
/// further writes, and leave on-disk state recoverable to either side of
/// the atomic boundary, never in between.
#[test]
fn pager_transient_fault_poisons_until_reopen() {
    let mut covered = 0;
    for off in 0..24u64 {
        let dir = tmpdir(&format!("pager-transient-{off}"));
        let vfs = FaultVfs::new();
        let repo =
            PagedRepo::open_with(Arc::new(vfs.clone()), &dir, tiny_cfg()).unwrap();
        let mut shadow = Database::new(IndexLevel::None);
        for i in 0..8usize {
            let mut d = GraphDelta::new();
            d.add_node(Some(&format!("t{i}")));
            d.add_edge(Oid::from_index(i), "v", Value::Int(i as i64));
            repo.apply_delta(&d).unwrap();
            shadow.apply_delta(&d).unwrap();
        }
        // One more commit touching every node segment plus the catalog
        // and a collection; the tiny pool guarantees it evicts, which
        // syncs the WAL before any page write.
        let mut d = GraphDelta::new();
        d.add_node(Some("tx"));
        for i in 0..8usize {
            d.add_edge(Oid::from_index(i), "w", Value::string("spill"));
        }
        d.add_edge(Oid::from_index(8), "v", Value::Int(99));
        d.collect("T", Value::Node(Oid::from_index(8)));
        vfs.arm_fault(vfs.op_count() + off, FaultMode::Fail);
        match repo.apply_delta(&d) {
            Ok(()) => {
                // The commit finished in fewer ops than `off`: the whole
                // window is covered.
                shadow.apply_delta(&d).unwrap();
                drop(repo);
                std::fs::remove_dir_all(&dir).ok();
                break;
            }
            Err(_) => {
                covered += 1;
                // Two legal outcomes. If the fault struck during the
                // read-only staging phase, nothing was written and the
                // store stays live — the retry must go through cleanly.
                // Once the WAL was touched, the store must be poisoned
                // against every further write until a reopen recovers.
                let mut d2 = GraphDelta::new();
                d2.add_node(None);
                match repo.apply_delta(&d2) {
                    Ok(()) => {
                        shadow.apply_delta(&d2).unwrap();
                        drop(repo);
                        let ctx = format!("pager staging fault at +{off}");
                        assert_pager_oracle(&dir, &mut shadow, None, &ctx);
                    }
                    Err(_) => {
                        // Poisoned: stays refused, even for a new delta.
                        let mut d3 = GraphDelta::new();
                        d3.add_node(None);
                        assert!(
                            repo.apply_delta(&d3).is_err(),
                            "transient fault at +{off}: poisoned store accepted a write"
                        );
                        drop(repo);
                        let ctx = format!("pager transient fault at +{off}");
                        assert_pager_oracle(&dir, &mut shadow, Some(d), &ctx);
                    }
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(covered >= 5, "only {covered} transient fault points covered");
}
