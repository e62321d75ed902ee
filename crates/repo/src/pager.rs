//! The durable store: a write-ahead log of deltas over a checkpointed
//! graph image.
//!
//! [`Database`](crate::Database) keeps the whole graph in memory and
//! owns no I/O; this module is the repository's one durable store, and
//! the only code in the crate that touches disk, all of it through the
//! [`Vfs`] trait so the crash-torture harness exercises it unchanged. A
//! service pairs a [`PagedRepo`] (durable authority: every delta commits
//! here first) with an in-memory `Database` (read path) built from what
//! the store recovered. The name is historical: nothing is paged.
//!
//! A store directory holds two files:
//!
//! * [`IMAGE_FILE`] — the graph at the last checkpoint, in the
//!   [`snapshot`] encoding with the checkpoint
//!   generation in its header, replaced by tmp → fsync → rename →
//!   dir-sync;
//! * `pager.wal` — the [`wal`] of every delta committed since, whose
//!   header names the generation it extends.
//!
//! The store also holds its head graph in memory, because validating a
//! delta needs it: a `RemoveEdge` is only valid against an edge that
//! exists.
//!
//! # Durability model
//!
//! A commit validates the delta against the head graph with
//! [`GraphDelta::validate`] (the one rule of what a delta may do),
//! appends it to the WAL as one frame in one write, then applies it to
//! the head graph with [`GraphDelta::apply`], which runs the same rule
//! first. A rejected delta never reaches the log; a failed write
//! poisons the store until it is reopened. The append reaches the OS
//! and the checkpoint syncs. Recovery ([`PagedRepo::open_with`]) loads
//! the image and replays the log with the same `GraphDelta::apply`, so
//! a crash at any single operation leaves the last image plus a
//! whole-frame prefix of the log — never a half-applied delta.

use crate::codec::corrupt;
use crate::snapshot;
use crate::vfs::{RealVfs, Vfs};
use crate::wal::{self, ReplayReport, Wal};
use crate::RepoError;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use strudel_graph::{Graph, GraphDelta};

/// The checkpointed graph image, renamed into place atomically.
pub const IMAGE_FILE: &str = "pager.image";
/// Scratch name the image is staged under before the rename.
const IMAGE_TMP: &str = "pager.image.tmp";
/// The write-ahead log of deltas since the image's checkpoint.
const WAL_FILE: &str = "pager.wal";
/// What a store in the retired page-file format left behind.
const RETIRED_FILES: [&str; 2] = ["pager.manifest", "pager.pages"];

/// Carries no settings: the store has nothing to tune. It stays as the
/// parameter of [`PagedRepo::open`] and [`PagedRepo::bulk_load`] for
/// callers compiled against those signatures.
#[derive(Clone, Copy, Debug, Default)]
pub struct PagerConfig {}

/// Writes `graph` as the image of checkpoint `generation`: staged to a
/// tmp name in one write, synced, renamed into place, directory synced,
/// so a crash at any step leaves either the old image or the new one.
fn write_image(vfs: &dyn Vfs, dir: &Path, graph: &Graph, generation: u64) -> Result<(), RepoError> {
    let bytes = snapshot::encode_image(graph, generation)?;
    let tmp = dir.join(IMAGE_TMP);
    let mut f = vfs.create(&tmp)?;
    f.write(&bytes)?;
    f.sync()?;
    drop(f);
    vfs.rename(&tmp, &dir.join(IMAGE_FILE))?;
    vfs.sync_dir(dir)?;
    Ok(())
}

/// The image's generation and graph. A short read cannot pass for an
/// image: the checksum refuses it.
fn read_image(vfs: &dyn Vfs, dir: &Path) -> Result<(u64, Graph), RepoError> {
    snapshot::load_image(&vfs.read(&dir.join(IMAGE_FILE))?)
}

/// Applies committed log deltas to `graph`.
fn replay(graph: &mut Graph, deltas: &[GraphDelta]) -> Result<(), RepoError> {
    for delta in deltas {
        delta
            .apply(graph)
            .map_err(|e| corrupt(0, format!("committed wal delta does not apply: {e}")))?;
    }
    Ok(())
}

fn poisoned() -> RepoError {
    RepoError::Io(std::io::Error::other(
        "store poisoned by an earlier write failure: reopen to recover",
    ))
}

/// Everything behind the store's mutex.
#[derive(Debug)]
struct State {
    /// The image plus every delta committed since.
    graph: Graph,
    /// `None` once a write failure poisoned the store: the head graph
    /// may then be ahead of disk, and every write fails until reopen.
    wal: Option<Wal>,
    /// The generation of the image on disk.
    generation: u64,
}

#[derive(Debug)]
struct Inner {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    state: Mutex<State>,
}

/// The durable, write-ahead-logged graph store. Cheap to clone; all
/// clones share one head graph and log.
#[derive(Clone, Debug)]
pub struct PagedRepo {
    inner: Arc<Inner>,
}

impl PagedRepo {
    /// Opens (or creates) the store in `dir` on the real filesystem.
    pub fn open(dir: &Path, cfg: PagerConfig) -> Result<Self, RepoError> {
        Self::open_with(Arc::new(RealVfs), dir, cfg)
    }

    /// Opens (or creates) the store in `dir` through `vfs`, running the
    /// recovery matrix: the image names a generation; a WAL of an older
    /// generation (or with a torn header) is a stale leftover of a
    /// checkpoint and is discarded, a newer one is corruption, a matching
    /// one is replayed after its torn tail, if any, is cut off. A
    /// directory holding the retired page-file format is refused, not
    /// read and not reinitialised beside the old files.
    pub fn open_with(vfs: Arc<dyn Vfs>, dir: &Path, _cfg: PagerConfig) -> Result<Self, RepoError> {
        vfs.create_dir_all(dir)?;
        let tmp = dir.join(IMAGE_TMP);
        if vfs.exists(&tmp) {
            // A checkpoint died before its rename; the image in place is
            // still authoritative.
            vfs.remove_file(&tmp)?;
        }
        let wal_path = dir.join(WAL_FILE);
        if !vfs.exists(&dir.join(IMAGE_FILE)) {
            if RETIRED_FILES.iter().any(|f| vfs.exists(&dir.join(f))) {
                return Err(RepoError::Io(std::io::Error::new(
                    std::io::ErrorKind::Unsupported,
                    format!(
                        "{} holds a store in the retired page-file format \
                         (pager.manifest, pager.pages), which is no longer read: the store \
                         is now a checkpointed graph image ({IMAGE_FILE}) plus {WAL_FILE}; \
                         move the directory aside and bulk-load a fresh store",
                        dir.display()
                    ),
                )));
            }
            write_image(&*vfs, dir, &Graph::new(), 0)?;
            Wal::create_with(&*vfs, &wal_path, 0)?;
        }
        let (generation, mut graph) = read_image(&*vfs, dir)?;
        let report = wal::replay_report_with(&*vfs, &wal_path)?;
        let wal = if report.torn_header || report.generation < generation {
            // Stale or torn log from before (or during) the image's
            // checkpoint: the image is complete, the log is noise.
            Wal::create_with(&*vfs, &wal_path, generation)?
        } else if report.generation > generation {
            return Err(corrupt(
                0,
                format!(
                    "wal generation {} ahead of image generation {generation}",
                    report.generation
                ),
            ));
        } else {
            if report.discarded_bytes > 0 {
                let keep = vfs.len(&wal_path)?.saturating_sub(report.discarded_bytes);
                vfs.set_len(&wal_path, keep)?;
            }
            replay(&mut graph, &report.deltas)?;
            Wal::open_append_with(&*vfs, &wal_path, generation)?
        };
        Ok(PagedRepo {
            inner: Arc::new(Inner {
                vfs,
                dir: dir.to_path_buf(),
                state: Mutex::new(State {
                    graph,
                    wal: Some(wal),
                    generation,
                }),
            }),
        })
    }

    /// Creates a fresh store in `dir` on the real filesystem holding
    /// `graph`. See [`PagedRepo::bulk_load_with`].
    pub fn bulk_load(dir: &Path, cfg: PagerConfig, graph: &Graph) -> Result<Self, RepoError> {
        Self::bulk_load_with(Arc::new(RealVfs), dir, cfg, graph)
    }

    /// Creates a fresh store in `dir` holding a copy of `graph`, written
    /// as one checkpoint image. Fails if `dir` already holds a non-empty
    /// store.
    pub fn bulk_load_with(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        cfg: PagerConfig,
        graph: &Graph,
    ) -> Result<Self, RepoError> {
        let repo = Self::open_with(vfs, dir, cfg)?;
        {
            let mut st = repo.lock();
            if st.graph.node_count() > 0 || st.graph.collection_count() > 0 {
                return Err(RepoError::Io(std::io::Error::other(
                    "bulk_load into a non-empty store",
                )));
            }
            st.graph = graph.clone();
        }
        repo.checkpoint()?;
        Ok(repo)
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.inner.state.lock().expect("store state lock")
    }

    /// Validates and commits `delta`: checked against the head graph,
    /// appended to the WAL, applied to the head graph. All-or-nothing —
    /// a validation error changes nothing, a failed append poisons the
    /// store (reopen recovers from the log).
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<(), RepoError> {
        let mut st = self.lock();
        let State { graph, wal, .. } = &mut *st;
        let Some(log) = wal.as_mut() else {
            return Err(poisoned());
        };
        delta.validate(graph)?;
        if let Err(e) = log.append(delta) {
            *wal = None;
            return Err(e);
        }
        if let Err(e) = delta.apply(graph) {
            // `apply` runs the rule that just accepted the delta against
            // this same graph, so this is unreachable; were it reached
            // after the log took the delta, stop writing rather than let
            // memory and disk part.
            *wal = None;
            return Err(e.into());
        }
        Ok(())
    }

    /// Writes the head graph as the next generation's image (tmp →
    /// fsync → rename → dir-sync) and restarts the WAL at that
    /// generation. A failure poisons the store.
    pub fn checkpoint(&self) -> Result<(), RepoError> {
        let mut st = self.lock();
        if st.wal.is_none() {
            return Err(poisoned());
        }
        // Dropping the log first: a failure below leaves it poisoned.
        st.wal = None;
        let generation = st.generation + 1;
        let (vfs, dir) = (&*self.inner.vfs, &self.inner.dir);
        // A crash between the rename and the WAL reset leaves the new
        // image beside the old log one generation behind: recovery
        // discards that log, whose deltas the image already holds.
        write_image(vfs, dir, &st.graph, generation)?;
        st.wal = Some(Wal::create_with(vfs, &dir.join(WAL_FILE), generation)?);
        st.generation = generation;
        Ok(())
    }

    /// A copy of the head graph: the image plus every committed delta.
    /// Infallible; the `Result` is the shape its callers handle.
    pub fn materialize(&self) -> Result<Graph, RepoError> {
        Ok(self.lock().graph.clone())
    }

    /// The generation of the image on disk.
    pub fn generation(&self) -> u64 {
        self.lock().generation
    }

    /// Nodes in the head graph.
    pub fn node_count(&self) -> u64 {
        self.lock().graph.node_count() as u64
    }

    /// Always zeros: there is no buffer pool. Kept for callers compiled
    /// against the `(occupancy, capacity, hits, misses, evictions,
    /// writebacks)` signature.
    pub fn pool_stats(&self) -> (usize, usize, u64, u64, u64, u64) {
        (0, 0, 0, 0, 0, 0)
    }

    /// Whether an earlier write failure poisoned the store: reads keep
    /// working from committed state, every write fails until the store
    /// is reopened (which recovers from the log). Health endpoints
    /// surface this so a supervisor can recycle the process.
    pub fn is_poisoned(&self) -> bool {
        self.lock().wal.is_none()
    }
}

// ---- read-only replay -------------------------------------------------
//
// A second process can rebuild the graph a store holds without taking
// its files for writing: read the image, then apply the WAL's deltas in
// memory. The image is only ever replaced by a rename, so a read sees
// one whole image; the generation shared by image and WAL detects the
// one unsafe window (a checkpoint landing between the two reads), which
// is simply retried. This is how cluster shard workers recover after a
// crash: full replay on start, then WAL-suffix catch-up per delta.

/// A read-only materialization of a store's committed state.
#[derive(Debug)]
pub struct ReplayedStore {
    /// The store's graph: the image plus every complete WAL delta.
    pub graph: Graph,
    /// The image generation the replay observed.
    pub generation: u64,
    /// WAL deltas applied on top of the image.
    pub wal_deltas: u64,
}

/// Replays the committed state of the store in `dir` read-only on the
/// real filesystem. See [`replay_committed_with`].
pub fn replay_committed(dir: &Path) -> Result<ReplayedStore, RepoError> {
    replay_committed_with(&RealVfs, dir)
}

/// Replays the committed state of the store in `dir` read-only: no file
/// is created, written, or truncated, so a live [`PagedRepo`] in another
/// process keeps committing concurrently. A torn WAL tail is ignored
/// (its delta never committed); a checkpoint racing the read is detected
/// by generation mismatch and retried a few times.
pub fn replay_committed_with(vfs: &dyn Vfs, dir: &Path) -> Result<ReplayedStore, RepoError> {
    for _ in 0..5 {
        if let Some(replayed) = replay_committed_once(vfs, dir)? {
            return Ok(replayed);
        }
    }
    Err(corrupt(
        0,
        "replay_committed: image generation kept advancing",
    ))
}

/// The WAL deltas currently committed past the image of the store in
/// `dir`, with the generation they extend — the cheap catch-up read a
/// replica performs per delta (the full replay only on restart). A torn
/// trailing record is ignored, not an error: its commit never completed,
/// and the writer will retry or truncate it.
pub fn committed_wal_deltas(dir: &Path) -> Result<(u64, Vec<GraphDelta>), RepoError> {
    committed_wal_deltas_with(&RealVfs, dir)
}

/// See [`committed_wal_deltas`].
pub fn committed_wal_deltas_with(
    vfs: &dyn Vfs,
    dir: &Path,
) -> Result<(u64, Vec<GraphDelta>), RepoError> {
    let report = read_log(vfs, dir)?;
    if report.torn_header {
        return Ok((0, Vec::new()));
    }
    Ok((report.generation, report.deltas))
}

/// The log as a reader beside a live writer sees it: whatever prefix
/// the read returned, a frame cut off mid-append being a torn tail.
fn read_log(vfs: &dyn Vfs, dir: &Path) -> Result<ReplayReport, RepoError> {
    let path = dir.join(WAL_FILE);
    if !vfs.exists(&path) {
        return Ok(ReplayReport::default());
    }
    wal::parse_report(&vfs.read(&path)?)
}

fn replay_committed_once(vfs: &dyn Vfs, dir: &Path) -> Result<Option<ReplayedStore>, RepoError> {
    let (generation, mut graph) = read_image(vfs, dir)?;
    // Older generation (or torn header): a checkpoint completed after the
    // log was written — the image already holds those deltas. Newer: a
    // checkpoint renamed a newer image in after our read — retry.
    let report = read_log(vfs, dir)?;
    let deltas = if report.torn_header || report.generation < generation {
        Vec::new()
    } else if report.generation > generation {
        return Ok(None);
    } else {
        report.deltas
    };
    replay(&mut graph, &deltas)?;
    Ok(Some(ReplayedStore {
        graph,
        generation,
        wal_deltas: deltas.len() as u64,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use strudel_graph::{Oid, Value};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("strudel-pager-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A little site: named and anonymous nodes, values and node edges,
    /// two collections, plus some churn (edge removal, uncollect).
    fn build_deltas() -> Vec<GraphDelta> {
        let mut out = Vec::new();
        let mut d = GraphDelta::new();
        d.add_node(Some("root"));
        d.add_node(Some("alice"));
        d.add_node(None);
        out.push(d);
        let mut d = GraphDelta::new();
        d.add_edge(Oid::from_index(0), "title", Value::string("Strudel"));
        d.add_edge(
            Oid::from_index(0),
            "author",
            Value::Node(Oid::from_index(1)),
        );
        d.add_edge(Oid::from_index(1), "age", Value::Int(30));
        d.collect("Pages", Value::Node(Oid::from_index(0)));
        d.collect("People", Value::Node(Oid::from_index(1)));
        out.push(d);
        let mut d = GraphDelta::new();
        for i in 0..20 {
            d.add_node(Some(&format!("n{i}")));
        }
        out.push(d);
        let mut d = GraphDelta::new();
        for i in 3..23u64 {
            d.add_edge(
                Oid::from_index(i as usize),
                "link",
                Value::Node(Oid::from_index(((i + 1) % 23) as usize)),
            );
        }
        d.remove_edge(Oid::from_index(1), "age", Value::Int(30));
        d.collect("Pages", Value::Node(Oid::from_index(3)));
        d.uncollect("Pages", Value::Node(Oid::from_index(3)));
        out.push(d);
        out
    }

    fn shadow_of(deltas: &[GraphDelta]) -> Graph {
        let mut g = Graph::new();
        for d in deltas {
            d.apply(&mut g).unwrap();
        }
        g
    }

    fn graph_bytes(g: &Graph) -> Vec<u8> {
        let mut buf = Cursor::new(Vec::new());
        crate::snapshot::save_graph(g, &mut buf).unwrap();
        buf.into_inner()
    }

    #[test]
    fn paged_store_matches_shadow_graph_byte_for_byte() {
        let dir = tmp_dir("shadow");
        let repo = PagedRepo::open(&dir, PagerConfig::default()).unwrap();
        let deltas = build_deltas();
        for d in &deltas {
            repo.apply_delta(d).unwrap();
        }
        let shadow = shadow_of(&deltas);
        let got = repo.materialize().unwrap();
        assert_eq!(graph_bytes(&got), graph_bytes(&shadow));
    }

    #[test]
    fn reopen_replays_the_wal() {
        let dir = tmp_dir("reopen");
        let deltas = build_deltas();
        {
            let repo = PagedRepo::open(&dir, PagerConfig::default()).unwrap();
            for d in &deltas {
                repo.apply_delta(d).unwrap();
            }
        }
        let repo = PagedRepo::open(&dir, PagerConfig::default()).unwrap();
        let shadow = shadow_of(&deltas);
        let got = repo.materialize().unwrap();
        assert_eq!(graph_bytes(&got), graph_bytes(&shadow));
        assert_eq!(repo.node_count(), shadow.node_count() as u64);
    }

    #[test]
    fn checkpoint_bumps_the_generation_and_survives_reopen() {
        let dir = tmp_dir("ckpt");
        let deltas = build_deltas();
        let repo = PagedRepo::open(&dir, PagerConfig::default()).unwrap();
        for d in &deltas[..2] {
            repo.apply_delta(d).unwrap();
        }
        repo.checkpoint().unwrap();
        assert_eq!(repo.generation(), 1);
        for d in &deltas[2..] {
            repo.apply_delta(d).unwrap();
        }
        drop(repo);
        let repo = PagedRepo::open(&dir, PagerConfig::default()).unwrap();
        assert_eq!(repo.generation(), 1);
        let got = repo.materialize().unwrap();
        assert_eq!(graph_bytes(&got), graph_bytes(&shadow_of(&deltas)));
    }

    #[test]
    fn read_only_replay_matches_live_store_while_it_stays_open() {
        let dir = tmp_dir("ro-replay");
        let repo = PagedRepo::open(&dir, PagerConfig::default()).unwrap();
        let deltas = build_deltas();
        for d in &deltas {
            repo.apply_delta(d).unwrap();
        }
        // Replay concurrently with the live writer — no close, no lock.
        let replayed = replay_committed(&dir).unwrap();
        assert_eq!(replayed.generation, 0);
        assert_eq!(replayed.wal_deltas, deltas.len() as u64);
        assert_eq!(
            graph_bytes(&replayed.graph),
            graph_bytes(&shadow_of(&deltas))
        );
        // The live store is untouched by the read-only pass.
        let got = repo.materialize().unwrap();
        assert_eq!(graph_bytes(&got), graph_bytes(&shadow_of(&deltas)));
    }

    #[test]
    fn read_only_replay_after_checkpoint_reads_the_cut_plus_wal_suffix() {
        let dir = tmp_dir("ro-ckpt");
        let deltas = build_deltas();
        let repo = PagedRepo::open(&dir, PagerConfig::default()).unwrap();
        for d in &deltas[..2] {
            repo.apply_delta(d).unwrap();
        }
        repo.checkpoint().unwrap();
        for d in &deltas[2..] {
            repo.apply_delta(d).unwrap();
        }
        let replayed = replay_committed(&dir).unwrap();
        assert_eq!(replayed.generation, 1);
        assert_eq!(replayed.wal_deltas, (deltas.len() - 2) as u64);
        assert_eq!(
            graph_bytes(&replayed.graph),
            graph_bytes(&shadow_of(&deltas))
        );
    }

    #[test]
    fn read_only_replay_of_a_fresh_store_is_empty() {
        let dir = tmp_dir("ro-empty");
        let _repo = PagedRepo::open(&dir, PagerConfig::default()).unwrap();
        let replayed = replay_committed(&dir).unwrap();
        assert_eq!(replayed.wal_deltas, 0);
        assert_eq!(replayed.graph.node_count(), 0);
    }

    #[test]
    fn committed_wal_deltas_exposes_the_catchup_suffix() {
        let dir = tmp_dir("ro-catchup");
        let deltas = build_deltas();
        let repo = PagedRepo::open(&dir, PagerConfig::default()).unwrap();
        for d in &deltas[..2] {
            repo.apply_delta(d).unwrap();
        }
        repo.checkpoint().unwrap();
        let (generation, suffix) = committed_wal_deltas(&dir).unwrap();
        assert_eq!(generation, 1);
        assert!(suffix.is_empty());
        for d in &deltas[2..] {
            repo.apply_delta(d).unwrap();
        }
        let (generation, suffix) = committed_wal_deltas(&dir).unwrap();
        assert_eq!(generation, 1);
        assert_eq!(suffix.len(), deltas.len() - 2);
        // The suffix applies on top of a replica that replayed the image.
        let mut g = shadow_of(&deltas[..2]);
        for d in &suffix {
            d.apply(&mut g).unwrap();
        }
        assert_eq!(graph_bytes(&g), graph_bytes(&shadow_of(&deltas)));
    }

    #[test]
    fn snapshots_are_isolated_from_later_commits() {
        let dir = tmp_dir("isolated");
        let repo = PagedRepo::open(&dir, PagerConfig::default()).unwrap();
        let deltas = build_deltas();
        repo.apply_delta(&deltas[0]).unwrap();
        repo.apply_delta(&deltas[1]).unwrap();
        let old = repo.materialize().unwrap();
        let old_bytes = graph_bytes(&old);
        for d in &deltas[2..] {
            repo.apply_delta(d).unwrap();
        }
        // A materialized graph is a copy, not a view of the head...
        assert_eq!(graph_bytes(&old), old_bytes);
        assert_eq!(old.node_count(), 3);
        // ...while a fresh one sees everything.
        let new = repo.materialize().unwrap();
        assert_eq!(graph_bytes(&new), graph_bytes(&shadow_of(&deltas)));
    }

    #[test]
    fn invalid_deltas_change_nothing() {
        let dir = tmp_dir("invalid");
        let repo = PagedRepo::open(&dir, PagerConfig::default()).unwrap();
        let deltas = build_deltas();
        for d in &deltas {
            repo.apply_delta(d).unwrap();
        }
        let before = graph_bytes(&repo.materialize().unwrap());
        let wal_len = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();

        // Unknown node.
        let mut bad = GraphDelta::new();
        bad.add_edge(Oid::from_index(999), "x", Value::Int(1));
        assert!(repo.apply_delta(&bad).is_err());
        // Missing edge.
        let mut bad = GraphDelta::new();
        bad.remove_edge(Oid::from_index(0), "nope", Value::Int(1));
        assert!(repo.apply_delta(&bad).is_err());
        // Missing member.
        let mut bad = GraphDelta::new();
        bad.uncollect("Pages", Value::Int(77));
        assert!(repo.apply_delta(&bad).is_err());

        assert_eq!(
            std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(),
            wal_len,
            "failed deltas must not commit"
        );
        assert_eq!(graph_bytes(&repo.materialize().unwrap()), before);
    }

    #[test]
    fn bulk_load_round_trips_a_graph() {
        let dir = tmp_dir("bulk");
        let mut g = Graph::new();
        let root = g.add_named_node("root");
        for i in 0..40 {
            let n = g.add_named_node(&format!("d{i}"));
            g.add_edge_str(root, "child", Value::Node(n));
            g.add_edge_str(n, "idx", Value::Int(i));
            g.collect_str("All", Value::Node(n));
        }
        g.intern_collection("Empty");
        let repo =
            PagedRepo::bulk_load_with(Arc::new(RealVfs), &dir, PagerConfig::default(), &g).unwrap();
        assert!(repo.generation() >= 1, "bulk load ends in a checkpoint");
        let got = repo.materialize().unwrap();
        assert_eq!(graph_bytes(&got), graph_bytes(&g));
        drop(repo);
        let reopened = PagedRepo::open(&dir, PagerConfig::default()).unwrap();
        assert_eq!(
            graph_bytes(&reopened.materialize().unwrap()),
            graph_bytes(&g)
        );
        assert!(
            PagedRepo::bulk_load(&dir, PagerConfig::default(), &g).is_err(),
            "store not empty"
        );
    }

    #[test]
    fn image_round_trips_and_rejects_corruption() {
        let shadow = shadow_of(&build_deltas());
        let bytes = snapshot::encode_image(&shadow, 3).unwrap();
        let (generation, back) = snapshot::load_image(&bytes).unwrap();
        assert_eq!(generation, 3);
        assert_eq!(graph_bytes(&back), graph_bytes(&shadow));
        for cut in 0..bytes.len() {
            assert!(
                snapshot::load_image(&bytes[..cut]).is_err(),
                "truncation at {cut}"
            );
        }
        // Header included: a flipped generation must not pass for
        // another checkpoint.
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 0x40;
            assert!(
                snapshot::load_image(&bad).is_err(),
                "flip at byte {byte} slipped through"
            );
        }
    }
}
