//! Crash-point torture for the storage layer.
//!
//! A seeded workload commits deltas to a [`PagedRepo`] through a
//! [`FaultVfs`]. A first, fault-free pass counts how many filesystem
//! operations the schedule issues; then, for every operation index `k`,
//! the workload is rerun on a fresh directory with a crash armed at `k`
//! (the faulted operation fails or tears, and every operation after it
//! fails too, as a crashed process issues no more I/O). After each
//! simulated crash the directory is reopened with the *real* filesystem
//! and the recovered graph must equal a fault-free in-memory oracle that
//! mirrored every delta the crashed process saw acknowledged, byte for
//! byte through the snapshot encoder.
//!
//! A commit is one WAL append and a checkpoint is the image's tmp write,
//! fsync, rename and directory sync followed by the WAL reset, so crash
//! points land in appends, in every step of the image replacement, and
//! in store creation and reopen.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use strudel_graph::{graphs_equivalent, Graph, GraphDelta, Oid, Value};
use strudel_prng::{choose, Rng, SeedableRng, SmallRng};
use strudel_repo::vfs::{FaultMode, FaultVfs};
use strudel_repo::{snapshot, Database, IndexLevel, PagedRepo, PagerConfig, RepoError};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("strudel-torture-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
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

const PAGER_STEPS: usize = 30;
const PAGER_SEEDS: [u64; 2] = [0xD15C, 3];

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
    let mut repo = PagedRepo::open_with(Arc::new(vfs.clone()), dir, PagerConfig::default())
        .map_err(|e| (e, None))?;
    for step in 0..PAGER_STEPS {
        if step % 9 == 8 {
            repo.checkpoint().map_err(|e| (e, None))?;
        } else if step % 13 == 12 {
            drop(repo);
            repo = PagedRepo::open_with(Arc::new(vfs.clone()), dir, PagerConfig::default())
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

/// Recovery oracle for the store: the reopened, materialized graph
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
    let repo = PagedRepo::open(dir, PagerConfig::default())
        .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
    let g = repo
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
    let repo = PagedRepo::open(dir, PagerConfig::default()).unwrap();
    assert_eq!(repo.node_count(), before + 1, "{ctx}: post-crash write lost");
}

/// Fault-free pass: counts vfs operations and sanity-checks the oracle.
fn pager_fault_free_ops(seed: u64) -> u64 {
    let dir = tmpdir(&format!("pager-clean-{seed}"));
    let vfs = FaultVfs::new();
    let mut shadow = Database::new(IndexLevel::None);
    run_pager_workload(&dir, &vfs, seed, &mut shadow)
        .map_err(|(e, _)| e)
        .expect("fault-free pager run");
    let repo = PagedRepo::open(&dir, PagerConfig::default()).unwrap();
    let g = repo.materialize().unwrap();
    assert!(
        graphs_equivalent(g_ref(&g), shadow.graph()),
        "seed {seed}: fault-free paged store diverges from oracle"
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
        assert!(total > 60, "schedule should exercise many vfs ops: {total}");
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

/// A crash at every offset inside `checkpoint()` — the image's tmp
/// write, fsync, rename and directory sync, then the WAL reset — must
/// recover the full pre-checkpoint state.
#[test]
fn pager_crash_anywhere_inside_checkpoint_is_safe() {
    let mut covered = 0;
    for off in 0..48u64 {
        let dir = tmpdir(&format!("pager-ckpt-{off}"));
        let vfs = FaultVfs::new();
        let repo =
            PagedRepo::open_with(Arc::new(vfs.clone()), &dir, PagerConfig::default()).unwrap();
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

/// A *transient* fault mid-commit must reject the delta, poison the
/// store against further writes, and leave on-disk state recoverable to
/// either side of the atomic boundary, never in between.
#[test]
fn pager_transient_fault_poisons_until_reopen() {
    let mut covered = 0;
    for off in 0..24u64 {
        let dir = tmpdir(&format!("pager-transient-{off}"));
        let vfs = FaultVfs::new();
        let repo =
            PagedRepo::open_with(Arc::new(vfs.clone()), &dir, PagerConfig::default()).unwrap();
        let mut shadow = Database::new(IndexLevel::None);
        for i in 0..8usize {
            let mut d = GraphDelta::new();
            d.add_node(Some(&format!("t{i}")));
            d.add_edge(Oid::from_index(i), "v", Value::Int(i as i64));
            repo.apply_delta(&d).unwrap();
            shadow.apply_delta(&d).unwrap();
        }
        // One more commit touching every node plus a collection.
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
    // A commit issues one operation, its WAL append.
    assert!(covered >= 1, "only {covered} transient fault points covered");
}
