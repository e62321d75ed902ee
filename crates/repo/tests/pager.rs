//! Integration tests for the durable store: differential checks against
//! the in-memory [`Database`], read-only replay beside a live writer,
//! and the recovery matrix of `PagedRepo::open_with` row by row.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use strudel_graph::{graphs_equivalent, Graph, GraphDelta, Oid, Value};
use strudel_prng::{choose, Rng, SeedableRng, SmallRng};
use strudel_repo::vfs::{FaultMode, FaultVfs, RealVfs, Vfs, VfsFile, VfsRandomFile};
use strudel_repo::pager::IMAGE_FILE;
use strudel_repo::{snapshot, wal, Database, IndexLevel, PagedRepo, PagerConfig, RepoError};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("strudel-pager-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
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

/// Differential: a long seeded run with checkpoints lands the durable
/// store and the in-memory database on byte-identical graphs.
#[test]
fn paged_store_tracks_the_in_memory_database() {
    for seed in [0xACE5u64, 12, 1998] {
        let dir = tmpdir(&format!("diff-{seed}"));
        let repo = PagedRepo::open(&dir, PagerConfig::default()).unwrap();
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
        let g = repo.materialize().unwrap();
        assert!(graphs_equivalent(&g, shadow.graph()), "seed {seed}");
        let mut a = Vec::new();
        snapshot::save_graph(&g, &mut a).unwrap();
        let mut b = Vec::new();
        snapshot::save_graph(shadow.graph(), &mut b).unwrap();
        assert_eq!(a, b, "seed {seed}: byte-level divergence");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Reads through the real filesystem, except that once armed, the next
/// read of the WAL first asks the writer thread to checkpoint and waits
/// until it has: a checkpoint lands between a replay's image read and
/// its log read, the window the generation retry exists for. Every
/// writing operation panics — replay is read-only.
#[derive(Debug)]
struct CheckpointBetweenReads {
    armed: AtomicBool,
    ask: mpsc::Sender<()>,
    done: Mutex<mpsc::Receiver<()>>,
}

impl Vfs for CheckpointBetweenReads {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        if path.ends_with("pager.wal")
            && self.armed.swap(false, Ordering::AcqRel)
            && self.ask.send(()).is_ok()
        {
            // An error means the writer is gone: nothing to wait for.
            let _ = self.done.lock().unwrap().recv();
        }
        RealVfs.read(path)
    }
    fn exists(&self, path: &Path) -> bool {
        RealVfs.exists(path)
    }
    fn len(&self, path: &Path) -> io::Result<u64> {
        RealVfs.len(path)
    }
    fn create(&self, _: &Path) -> io::Result<Box<dyn VfsFile>> {
        unreachable!("read-only replay created a file")
    }
    fn open_append(&self, _: &Path) -> io::Result<Box<dyn VfsFile>> {
        unreachable!("read-only replay opened a file for appending")
    }
    fn open_rw(&self, _: &Path) -> io::Result<Box<dyn VfsRandomFile>> {
        unreachable!("read-only replay opened a file for writing")
    }
    fn rename(&self, _: &Path, _: &Path) -> io::Result<()> {
        unreachable!("read-only replay renamed a file")
    }
    fn set_len(&self, _: &Path, _: u64) -> io::Result<()> {
        unreachable!("read-only replay truncated a file")
    }
    fn remove_file(&self, _: &Path) -> io::Result<()> {
        unreachable!("read-only replay removed a file")
    }
    fn create_dir_all(&self, _: &Path) -> io::Result<()> {
        unreachable!("read-only replay created a directory")
    }
    fn sync_dir(&self, _: &Path) -> io::Result<()> {
        unreachable!("read-only replay synced a directory")
    }
}

/// The one concurrent reader the product has: a cluster worker replaying
/// the store read-only while the router commits (and here, checkpoints)
/// beside it. Every replay must byte-equal the oracle at some committed
/// prefix — no torn read, no half-applied delta — and every fourth
/// replay has a checkpoint forced between its image and log reads, so
/// the generation retry runs and must land on the newer image.
#[test]
fn read_only_replay_beside_a_committing_writer_sees_a_committed_prefix() {
    let dir = tmpdir("replay-beside-writer");
    let repo = PagedRepo::open(&dir, PagerConfig::default()).unwrap();
    let digest = |g: &Graph| {
        let mut bytes = Vec::new();
        snapshot::save_graph(g, &mut bytes).unwrap();
        let mut h = std::collections::hash_map::DefaultHasher::new();
        bytes.hash(&mut h);
        h.finish()
    };
    // Digests of every committed prefix, each entered before its commit
    // can reach the disk.
    let prefixes = Arc::new(Mutex::new(HashSet::from([digest(&Graph::new())])));
    let (ask, asked) = mpsc::channel();
    let (checkpointed, done) = mpsc::channel();
    let vfs = CheckpointBetweenReads {
        armed: AtomicBool::new(false),
        ask,
        done: Mutex::new(done),
    };
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (repo, prefixes, stop) = (repo.clone(), prefixes.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut shadow = Database::new(IndexLevel::None);
            let mut rng = SmallRng::seed_from_u64(0x5EED);
            for step in 1..=5000usize {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let d = random_delta(&mut rng, shadow.graph());
                shadow.apply_delta(&d).unwrap();
                prefixes.lock().unwrap().insert(digest(shadow.graph()));
                repo.apply_delta(&d).unwrap();
                if step % 8 == 0 {
                    repo.checkpoint().unwrap();
                }
                if asked.try_recv().is_ok() {
                    repo.checkpoint().unwrap();
                    checkpointed.send(()).unwrap();
                }
            }
        })
    };
    let mut retried = 0;
    for replay in 0..200 {
        if writer.is_finished() {
            break;
        }
        let forced = replay % 4 == 0;
        let before = repo.generation();
        let replayed = if forced {
            vfs.armed.store(true, Ordering::Release);
            strudel_repo::replay_committed_with(&vfs, &dir)
        } else {
            strudel_repo::replay_committed(&dir)
        }
        .unwrap_or_else(|e| panic!("replay {replay}: {e}"));
        if forced && replayed.generation > before {
            retried += 1;
        }
        assert!(
            prefixes.lock().unwrap().contains(&digest(&replayed.graph)),
            "replay {replay} (generation {}, {} wal deltas) is no committed prefix",
            replayed.generation,
            replayed.wal_deltas
        );
    }
    stop.store(true, Ordering::Release);
    writer.join().unwrap();
    assert!(retried > 0, "no replay retried across a forced checkpoint");
    std::fs::remove_dir_all(&dir).ok();
}

/// Reopen after a mixed run (commits, checkpoint, more commits) replays
/// the WAL tail over the image and lands on the oracle. The second input
/// checkpoints nothing and leaves 2 000 frames in the WAL, so the reopen
/// is a long replay.
#[test]
fn reopen_round_trips_a_mixed_run() {
    for (checkpointed, wal_only) in [(30, 15), (0, 2_000)] {
        let dir = tmpdir(&format!("reopen-{wal_only}"));
        let mut shadow = Database::new(IndexLevel::None);
        let mut rng = SmallRng::seed_from_u64(42);
        {
            let repo = PagedRepo::open(&dir, PagerConfig::default()).unwrap();
            for _ in 0..checkpointed {
                let d = random_delta(&mut rng, shadow.graph());
                repo.apply_delta(&d).unwrap();
                shadow.apply_delta(&d).unwrap();
            }
            repo.checkpoint().unwrap();
            for _ in 0..wal_only {
                let d = random_delta(&mut rng, shadow.graph());
                repo.apply_delta(&d).unwrap();
                shadow.apply_delta(&d).unwrap();
            }
            // No checkpoint: the last deltas live only in the WAL.
        }
        let repo = PagedRepo::open(&dir, PagerConfig::default()).unwrap();
        let g = repo.materialize().unwrap();
        let mut a = Vec::new();
        snapshot::save_graph(&g, &mut a).unwrap();
        let mut b = Vec::new();
        snapshot::save_graph(shadow.graph(), &mut b).unwrap();
        assert_eq!(a, b, "reopen after {wal_only} WAL frames diverged from oracle");
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------------
// The recovery matrix, one row per test. `PagedRepo::open_with` compares
// the WAL header's generation `W` with the image's `G`: `W == G`
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
    let g = repo.materialize().unwrap();
    g.attr_str(g.node_by_name("a").unwrap(), "v").count()
}

fn wal_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("pager.wal")).unwrap().len()
}

#[test]
fn wal_generation_ahead_of_manifest_is_a_precise_error() {
    let dir = tmpdir("wal-ahead");
    {
        let repo = PagedRepo::open(&dir, PagerConfig::default()).unwrap();
        repo.apply_delta(&seed_delta()).unwrap();
        let old_image = std::fs::read(dir.join(IMAGE_FILE)).unwrap();
        repo.checkpoint().unwrap(); // image and WAL are now generation 1
        drop(repo);
        // The image that restarted this log goes missing: the
        // generation-0 one is all that is left beside a generation-1 WAL.
        std::fs::write(dir.join(IMAGE_FILE), &old_image).unwrap();
    }
    match PagedRepo::open(&dir, PagerConfig::default()) {
        Err(RepoError::Corrupt { message, .. }) => {
            assert!(
                message.contains("wal generation 1 ahead of image generation 0"),
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
        let repo = PagedRepo::open(&dir, PagerConfig::default()).unwrap();
        repo.apply_delta(&seed_delta()).unwrap();
        let old_wal = std::fs::read(dir.join("pager.wal")).unwrap();
        repo.checkpoint().unwrap();
        drop(repo);
        // Crash window: the image rename landed but the WAL reset
        // didn't — the old generation-0 log is still on disk.
        std::fs::write(dir.join("pager.wal"), &old_wal).unwrap();
    }
    {
        let repo = PagedRepo::open(&dir, PagerConfig::default()).unwrap();
        assert_eq!(v_count(&repo), 1, "no double apply");
        assert_eq!(wal_len(&dir), wal::HEADER_LEN, "stale frames discarded");
        repo.apply_delta(&v_edge(2)).unwrap();
    }
    let repo = PagedRepo::open(&dir, PagerConfig::default()).unwrap();
    assert_eq!(v_count(&repo), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stray_manifest_tmp_is_cleaned_up_on_open() {
    let dir = tmpdir("stray-tmp");
    std::fs::create_dir_all(&dir).unwrap();
    let tmp = dir.join(format!("{IMAGE_FILE}.tmp"));
    // Before the first open, and again beside a live store: a checkpoint
    // that died before its rename leaves only unreferenced garbage.
    for round in 0..2 {
        std::fs::write(&tmp, b"half-written junk").unwrap();
        let repo = PagedRepo::open(&dir, PagerConfig::default()).unwrap();
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
        let repo = PagedRepo::open(&dir, PagerConfig::default()).unwrap();
        repo.apply_delta(&seed_delta()).unwrap();
        whole = wal_len(&dir);
        repo.apply_delta(&v_edge(2)).unwrap();
    }
    // Simulate a crash mid-append: chop bytes off the last frame.
    let wal_path = dir.join("pager.wal");
    let full = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &full[..full.len() - 3]).unwrap();
    {
        let repo = PagedRepo::open(&dir, PagerConfig::default()).unwrap();
        // The torn frame (v=2) is gone; the committed one survives.
        assert_eq!(v_count(&repo), 1);
        // Recovery truncated the garbage, so the next commit replays.
        assert_eq!(wal_len(&dir), whole, "torn tail truncated away");
        repo.apply_delta(&v_edge(3)).unwrap();
    }
    let repo = PagedRepo::open(&dir, PagerConfig::default()).unwrap();
    assert_eq!(v_count(&repo), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_checkpoint_poisons_the_store_until_reopen() {
    let dir = tmpdir("poison");
    let vfs = FaultVfs::new();
    let repo = PagedRepo::open_with(Arc::new(vfs.clone()), &dir, PagerConfig::default()).unwrap();
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
    let repo = PagedRepo::open(&dir, PagerConfig::default()).unwrap();
    assert!(!repo.is_poisoned());
    assert_eq!(v_count(&repo), 1);
    repo.apply_delta(&v_edge(2)).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rejected_delta_leaves_store_and_wal_untouched() {
    let dir = tmpdir("reject-delta");
    {
        let repo = PagedRepo::open(&dir, PagerConfig::default()).unwrap();
        repo.apply_delta(&seed_delta()).unwrap();
        let (len, before) = (wal_len(&dir), repo.materialize().unwrap());

        let mut bad = GraphDelta::new();
        bad.add_edge(Oid::from_index(0), "w", Value::Int(9));
        bad.remove_edge(Oid::from_index(0), "ghost", Value::Int(0)); // rejected
        assert!(matches!(repo.apply_delta(&bad), Err(RepoError::Delta(_))));
        assert_eq!(wal_len(&dir), len, "the rejected delta never reached the log");
        assert!(
            graphs_equivalent(&repo.materialize().unwrap(), &before),
            "no partial commit"
        );
        assert!(!repo.is_poisoned(), "a validation error is not a write failure");
    }
    // So replay is clean and shows none of it.
    let repo = PagedRepo::open(&dir, PagerConfig::default()).unwrap();
    let g = repo.materialize().unwrap();
    let a = g.node_by_name("a").unwrap();
    assert_eq!(g.attr_str(a, "v").count(), 1);
    assert_eq!(g.attr_str(a, "w").count(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A directory holding a store in the retired page-file format is
/// refused with an error that names the change — not opened as a fresh
/// empty store beside the old files, which `strudel serve --store` would
/// then bulk-load over.
#[test]
fn a_retired_page_file_store_is_refused_not_reopened_empty() {
    // The files a fresh store of that format held: its manifest, an
    // empty page file and an empty generation-0 WAL.
    const MANIFEST: &str = "53545255504d414e01000000000000000000000000000000000010000010\
                            00000000000000545f49ee00";
    const WAL: &str = "5354525557414c320000000000000000";
    let bytes = |hex: &str| -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    };
    let whole: &[(&str, &str)] = &[
        ("pager.manifest", MANIFEST),
        ("pager.pages", ""),
        ("pager.wal", WAL),
    ];
    for (tag, files) in [("whole", whole), ("pages-only", &[("pager.pages", "")][..])] {
        let dir = tmpdir(&format!("retired-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, hex) in files {
            std::fs::write(dir.join(name), bytes(hex)).unwrap();
        }
        let listing = || {
            let mut files: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .map(|p| (p.clone(), std::fs::read(p).unwrap()))
                .collect();
            files.sort();
            files
        };
        let before = listing();
        let err = PagedRepo::open(&dir, PagerConfig::default()).unwrap_err();
        assert!(
            err.to_string().contains("retired page-file format"),
            "{tag}: {err}"
        );
        let err = PagedRepo::bulk_load(&dir, PagerConfig::default(), &Graph::new()).unwrap_err();
        assert!(
            err.to_string().contains("retired page-file format"),
            "{tag}: {err}"
        );
        assert_eq!(listing(), before, "{tag}: nothing written beside the old files");
        std::fs::remove_dir_all(&dir).ok();
    }
}
