//! Paged repository storage: a buffer pool and MVCC read snapshots
//! under the v2 WAL.
//!
//! [`Database`](crate::Database) keeps the whole graph in memory and
//! owns no I/O; this module is the repository's one durable store, and
//! the only code in the crate that touches disk. §2.1's "fully index
//! everything" stance assumes the repository can also grow past memory,
//! so it is a **paged store**: the data lives in a page file, cached by a
//! fixed-size [`BufferPool`], with all I/O routed through the [`Vfs`]
//! trait so the crash-torture harness exercises it unchanged. A service
//! pairs a [`PagedRepo`] (durable authority: every delta commits here
//! first) with an in-memory `Database` (read path) built from what the
//! store recovered.
//!
//! The moving parts, bottom to top:
//!
//! * [`page`] — the on-disk page format: LSN + CRC32 header, strict
//!   never-panicking decode.
//! * [`buffer`] — the pinning/evicting frame cache enforcing the
//!   write-ahead rule (no page image reaches the file before its LSN is
//!   durable in the WAL).
//! * [`mvcc`] — segment version chains and epoch-based retirement.
//! * [`layout`] — the graph-on-pages record formats (catalog, node
//!   segments, collection segments).
//! * [`PagedRepo`] (here) — the façade: copy-on-write commits, MVCC
//!   [`PagedSnapshot`]s for readers, checkpointing into a
//!   generation-stamped manifest via a tmp → fsync → rename → dir-sync
//!   protocol, and the recovery matrix (manifest generation vs WAL
//!   generation) of [`PagedRepo::open_with`].
//!
//! # Durability model
//!
//! Commits are shadow-paged: a delta's new segment images go to freshly
//! allocated pages, never overwriting a page referenced by the durable
//! manifest, and the WAL frame is appended *before* any of those pages
//! may be flushed. Recovery therefore never trusts post-checkpoint
//! pages: it loads the manifest's consistent cut and replays the WAL
//! through the very same staged-apply path as live commits, re-deriving
//! every post-checkpoint version. A crash at any single operation leaves
//! either the old checkpoint (plus whatever WAL prefix survived) or the
//! new one — never a torn hybrid.

pub mod buffer;
pub mod layout;
pub mod mvcc;
pub mod page;

pub use buffer::{global_stats, BufferPool, PagerStats, WalClock};
pub use mvcc::SegKey;

use crate::codec::{corrupt, read_varint, write_varint};
use crate::crc::Crc32;
use crate::vfs::{RealVfs, Vfs};
use crate::wal::{self, Wal};
use crate::RepoError;
use layout::{
    decode_catalog, decode_members, decode_nodes, encode_catalog, encode_members, encode_nodes,
    Catalog, NodeRec,
};
use mvcc::{ReaderRegistry, VersionEntry, VersionTable};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use strudel_graph::{DeltaError, Edge, Graph, GraphDelta, InEdge, Label, Oid, Value};
use strudel_graph::DeltaOp;

/// The durable manifest (page table root), renamed into place atomically.
const MANIFEST_FILE: &str = "pager.manifest";
/// Scratch name the manifest is staged under before the rename.
const MANIFEST_TMP: &str = "pager.manifest.tmp";
/// The write-ahead log of deltas since the manifest's checkpoint.
const WAL_FILE: &str = "pager.wal";
/// The page file all segment versions live in.
const PAGES_FILE: &str = "pager.pages";

const MANIFEST_MAGIC: &[u8; 8] = b"STRUPMAN";
const MANIFEST_VERSION: u8 = 1;
/// magic + version + generation + base_lsn + page_size + nodes/seg +
/// next_page + body crc.
const MANIFEST_HEADER_LEN: usize = 8 + 1 + 8 + 8 + 4 + 4 + 4 + 4;

/// Tuning knobs for a paged store.
#[derive(Clone, Copy, Debug)]
pub struct PagerConfig {
    /// Bytes per page (floor: [`page::MIN_PAGE_SIZE`]). Fixed at store
    /// creation; reopening adopts the on-disk value.
    pub page_size: usize,
    /// Buffer-pool capacity in frames.
    pub pool_pages: usize,
    /// Consecutive oids per node segment. Fixed at store creation.
    pub nodes_per_segment: u32,
}

impl Default for PagerConfig {
    fn default() -> Self {
        PagerConfig {
            page_size: 4096,
            pool_pages: 256,
            nodes_per_segment: 16,
        }
    }
}

/// The WAL plus the two LSN watermarks the buffer pool's write-ahead
/// rule needs: how much has been appended and how much is durable.
#[derive(Debug)]
struct WalCtx {
    /// `None` after a WAL failure poisons the store.
    wal: Option<Wal>,
    /// LSN of the last appended (or replayed) frame.
    appended: u64,
    /// Highest LSN known synced to stable storage.
    durable: u64,
}

impl WalClock for WalCtx {
    fn durable_lsn(&self) -> u64 {
        self.durable
    }

    fn ensure_durable(&mut self, lsn: u64) -> Result<(), RepoError> {
        debug_assert!(lsn <= self.appended, "durability ahead of the append point");
        if lsn <= self.durable {
            return Ok(());
        }
        let Some(w) = self.wal.as_mut() else {
            return Err(RepoError::Io(std::io::Error::other(
                "wal unavailable: reopen the store to recover",
            )));
        };
        w.sync()?;
        self.durable = self.appended;
        Ok(())
    }
}

/// The decoded manifest: store geometry plus the consistent cut of
/// segment versions at the last checkpoint.
#[derive(Debug)]
struct Manifest {
    generation: u64,
    base_lsn: u64,
    page_size: u32,
    nodes_per_segment: u32,
    next_page: u32,
    entries: Vec<(SegKey, u64, Vec<u32>)>,
}

fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut body = Vec::new();
    write_varint(&mut body, m.entries.len() as u64).expect("vec write");
    for (key, len, pages) in &m.entries {
        let (tag, idx) = match key {
            SegKey::Catalog => (0u8, 0u32),
            SegKey::Nodes(i) => (1, *i),
            SegKey::Collection(i) => (2, *i),
        };
        body.push(tag);
        write_varint(&mut body, idx as u64).expect("vec write");
        write_varint(&mut body, *len).expect("vec write");
        write_varint(&mut body, pages.len() as u64).expect("vec write");
        for p in pages {
            write_varint(&mut body, *p as u64).expect("vec write");
        }
    }
    let mut buf = Vec::with_capacity(MANIFEST_HEADER_LEN + body.len());
    buf.extend_from_slice(MANIFEST_MAGIC);
    buf.push(MANIFEST_VERSION);
    buf.extend_from_slice(&m.generation.to_le_bytes());
    buf.extend_from_slice(&m.base_lsn.to_le_bytes());
    buf.extend_from_slice(&m.page_size.to_le_bytes());
    buf.extend_from_slice(&m.nodes_per_segment.to_le_bytes());
    buf.extend_from_slice(&m.next_page.to_le_bytes());
    // The checksum covers everything but itself: header fields and body.
    let mut h = Crc32::new();
    h.update(&buf);
    h.update(&body);
    buf.extend_from_slice(&h.finish().to_le_bytes());
    buf.extend_from_slice(&body);
    buf
}

/// Decodes a manifest image. Strictly bounds-checked: hostile or torn
/// bytes come back as [`RepoError::Corrupt`], never a panic.
fn decode_manifest(bytes: &[u8]) -> Result<Manifest, RepoError> {
    if bytes.len() < MANIFEST_HEADER_LEN {
        return Err(corrupt(0, "manifest shorter than its header"));
    }
    if &bytes[..8] != MANIFEST_MAGIC {
        return Err(corrupt(0, "bad manifest magic"));
    }
    if bytes[8] != MANIFEST_VERSION {
        return Err(corrupt(8, format!("unknown manifest version {}", bytes[8])));
    }
    let generation = u64::from_le_bytes(bytes[9..17].try_into().unwrap());
    let base_lsn = u64::from_le_bytes(bytes[17..25].try_into().unwrap());
    let page_size = u32::from_le_bytes(bytes[25..29].try_into().unwrap());
    let nodes_per_segment = u32::from_le_bytes(bytes[29..33].try_into().unwrap());
    let next_page = u32::from_le_bytes(bytes[33..37].try_into().unwrap());
    let stored_crc = u32::from_le_bytes(bytes[37..41].try_into().unwrap());
    let body = &bytes[MANIFEST_HEADER_LEN..];
    let mut h = Crc32::new();
    h.update(&bytes[..37]);
    h.update(body);
    if h.finish() != stored_crc {
        return Err(corrupt(0, "manifest checksum mismatch"));
    }
    if page_size < page::MIN_PAGE_SIZE as u32 {
        return Err(corrupt(25, format!("page size {page_size} below minimum")));
    }
    if nodes_per_segment == 0 {
        return Err(corrupt(29, "zero nodes per segment"));
    }
    let mut r = body;
    let mut offset = MANIFEST_HEADER_LEN as u64;
    let count = read_varint(&mut r, &mut offset)?;
    if count > r.len() as u64 {
        return Err(corrupt(offset, format!("entry count {count} exceeds input")));
    }
    let mut entries = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let mut tag = [0u8; 1];
        std::io::Read::read_exact(&mut r, &mut tag)?;
        offset += 1;
        let idx = read_varint(&mut r, &mut offset)?;
        let idx = u32::try_from(idx).map_err(|_| corrupt(offset, "segment index overflow"))?;
        let key = match tag[0] {
            0 => SegKey::Catalog,
            1 => SegKey::Nodes(idx),
            2 => SegKey::Collection(idx),
            t => return Err(corrupt(offset, format!("unknown segment tag {t}"))),
        };
        let len = read_varint(&mut r, &mut offset)?;
        let n_pages = read_varint(&mut r, &mut offset)?;
        if n_pages > r.len() as u64 {
            return Err(corrupt(offset, format!("page count {n_pages} exceeds input")));
        }
        let mut pages = Vec::with_capacity(n_pages as usize);
        for _ in 0..n_pages {
            let p = read_varint(&mut r, &mut offset)?;
            let p = u32::try_from(p).map_err(|_| corrupt(offset, "page number overflow"))?;
            if p >= next_page {
                return Err(corrupt(offset, format!("page {p} beyond next_page {next_page}")));
            }
            pages.push(p);
        }
        entries.push((key, len, pages));
    }
    if !r.is_empty() {
        return Err(corrupt(offset, "trailing bytes after manifest"));
    }
    Ok(Manifest {
        generation,
        base_lsn,
        page_size,
        nodes_per_segment,
        next_page,
        entries,
    })
}

/// Writes `m` durably: staged to a tmp name, synced, renamed into place,
/// directory synced, so a crash at any step leaves either the old
/// manifest or the new one.
fn write_manifest(vfs: &dyn Vfs, dir: &Path, m: &Manifest) -> Result<(), RepoError> {
    let tmp = dir.join(MANIFEST_TMP);
    let path = dir.join(MANIFEST_FILE);
    let bytes = encode_manifest(m);
    let mut f = vfs.create(&tmp)?;
    f.write(&bytes)?;
    f.sync()?;
    drop(f);
    vfs.rename(&tmp, &path)?;
    vfs.sync_dir(dir)?;
    Ok(())
}

fn read_manifest(vfs: &dyn Vfs, path: &Path) -> Result<Manifest, RepoError> {
    let bytes = vfs.read(path)?;
    let disk_len = vfs.len(path)?;
    if bytes.len() as u64 != disk_len {
        return Err(RepoError::Io(std::io::Error::other(format!(
            "manifest short read: got {} of {} bytes",
            bytes.len(),
            disk_len
        ))));
    }
    decode_manifest(&bytes)
}

/// The staged, not-yet-committed effects of one delta: segment images
/// loaded copy-on-write plus catalog additions. Deterministically
/// ordered (`BTreeMap`) so page allocation — and therefore the torture
/// harness's operation schedule — is reproducible.
#[derive(Debug, Default)]
struct Scratch {
    nodes: BTreeMap<u32, Vec<NodeRec>>,
    members: BTreeMap<u32, Vec<Value>>,
    new_labels: Vec<String>,
    new_collections: Vec<String>,
    new_names: Vec<(String, u64)>,
    node_count: u64,
    catalog_dirty: bool,
}

/// Everything behind the store's mutex: the pool, the WAL watermarks,
/// the version table, reader epochs, the free-space map, and the
/// in-memory catalog mirrors.
#[derive(Debug)]
struct State {
    nodes_per_segment: u32,
    pool: BufferPool,
    wal: WalCtx,
    versions: VersionTable,
    readers: ReaderRegistry,
    /// Current commit epoch; bumped once per applied delta.
    epoch: u64,
    generation: u64,
    /// LSN at the last checkpoint (the manifest's WAL position).
    base_lsn: u64,
    /// Page allocation: lowest-numbered free page first, then growth.
    next_page: u32,
    free: BTreeSet<u32>,
    /// Pages the durable manifest references — never reusable until the
    /// next checkpoint supersedes it.
    manifest_pages: HashSet<u32>,
    /// Retired pages that are still manifest-referenced; they join
    /// `free` at the next checkpoint.
    pending_free: Vec<u32>,
    // In-memory mirrors of the catalog (authoritative copy is paged).
    labels: Vec<String>,
    label_ids: HashMap<String, u32>,
    collections: Vec<String>,
    collection_ids: HashMap<String, u32>,
    /// Name → oid. Names are never removed; snapshot visibility is
    /// gated by the snapshot's node count (nodes are append-only).
    names: HashMap<String, u64>,
    node_count: u64,
    /// A WAL or page write failed mid-commit; in-memory state may not
    /// match disk. All further writes fail until the store is reopened.
    poisoned: bool,
}

impl State {
    fn check_poisoned(&self) -> Result<(), RepoError> {
        if self.poisoned {
            return Err(RepoError::Io(std::io::Error::other(
                "store poisoned by an earlier write failure: reopen to recover",
            )));
        }
        Ok(())
    }

    fn alloc_page(&mut self) -> u32 {
        if let Some(p) = self.free.pop_first() {
            return p;
        }
        let p = self.next_page;
        self.next_page += 1;
        p
    }

    /// Reads the version of `key` visible at `epoch` through the pool,
    /// pinning one page at a time.
    fn read_segment(&mut self, key: SegKey, epoch: u64) -> Result<Option<Vec<u8>>, RepoError> {
        let Some(entry) = self.versions.resolve(key, epoch) else {
            return Ok(None);
        };
        let len = entry.len as usize;
        let pages = entry.pages.clone();
        let mut bytes = Vec::with_capacity(len);
        for p in pages {
            let idx = self.pool.get(p, &mut self.wal)?;
            bytes.extend_from_slice(self.pool.payload(idx));
            self.pool.unpin(idx);
        }
        if bytes.len() != len {
            return Err(corrupt(
                0,
                format!("segment reassembled to {} bytes, expected {len}", bytes.len()),
            ));
        }
        Ok(Some(bytes))
    }

    /// Writes `bytes` as a new version of `key` at (`epoch`, `lsn`):
    /// chunks them over freshly allocated pages (copy-on-write — never a
    /// page the durable manifest references) and publishes the version.
    fn write_segment(
        &mut self,
        key: SegKey,
        bytes: &[u8],
        epoch: u64,
        lsn: u64,
    ) -> Result<(), RepoError> {
        let cap = self.pool.payload_capacity();
        let n_chunks = bytes.len().div_ceil(cap);
        let mut pages = Vec::with_capacity(n_chunks);
        for chunk in bytes.chunks(cap) {
            let page_no = self.alloc_page();
            self.pool.put(page_no, lsn, chunk.to_vec(), &mut self.wal)?;
            pages.push(page_no);
        }
        self.versions.publish(
            key,
            VersionEntry {
                epoch,
                lsn,
                len: bytes.len() as u64,
                pages,
            },
        );
        Ok(())
    }

    /// Reclaims every version no registered reader can still reach.
    fn retire_versions(&mut self) {
        let min = self.readers.min_active(self.epoch);
        let State {
            versions,
            pool,
            free,
            manifest_pages,
            pending_free,
            ..
        } = self;
        versions.retire(min, |v| {
            for &p in &v.pages {
                pool.forget(p);
                if manifest_pages.contains(&p) {
                    pending_free.push(p);
                } else {
                    free.insert(p);
                }
            }
        });
    }

    // ---- staged (copy-on-write) delta application -------------------

    fn lookup_label(&self, s: &Scratch, name: &str) -> Option<u32> {
        if let Some(&i) = self.label_ids.get(name) {
            return Some(i);
        }
        s.new_labels
            .iter()
            .position(|l| l == name)
            .map(|p| (self.labels.len() + p) as u32)
    }

    fn intern_label_staged(&self, s: &mut Scratch, name: &str) -> u32 {
        if let Some(i) = self.lookup_label(s, name) {
            return i;
        }
        s.new_labels.push(name.to_string());
        s.catalog_dirty = true;
        (self.labels.len() + s.new_labels.len() - 1) as u32
    }

    fn lookup_collection(&self, s: &Scratch, name: &str) -> Option<u32> {
        if let Some(&i) = self.collection_ids.get(name) {
            return Some(i);
        }
        s.new_collections
            .iter()
            .position(|c| c == name)
            .map(|p| (self.collections.len() + p) as u32)
    }

    fn intern_collection_staged(&self, s: &mut Scratch, name: &str) -> u32 {
        if let Some(i) = self.lookup_collection(s, name) {
            return i;
        }
        s.new_collections.push(name.to_string());
        s.catalog_dirty = true;
        (self.collections.len() + s.new_collections.len() - 1) as u32
    }

    fn lookup_name(&self, s: &Scratch, name: &str) -> Option<u64> {
        if let Some(&oid) = self.names.get(name) {
            return Some(oid);
        }
        s.new_names.iter().find(|(n, _)| n == name).map(|(_, o)| *o)
    }

    /// The staged image of node segment `seg`, loaded copy-on-write from
    /// the newest committed version on first touch.
    fn staged_nodes<'a>(
        &mut self,
        s: &'a mut Scratch,
        seg: u32,
    ) -> Result<&'a mut Vec<NodeRec>, RepoError> {
        if let std::collections::btree_map::Entry::Vacant(e) = s.nodes.entry(seg) {
            let recs = match self.read_segment(SegKey::Nodes(seg), self.epoch)? {
                Some(bytes) => decode_nodes(&bytes)?,
                None => Vec::new(),
            };
            e.insert(recs);
        }
        Ok(s.nodes.get_mut(&seg).expect("inserted above"))
    }

    /// The staged member list of collection `cid`, ditto.
    fn staged_members<'a>(
        &mut self,
        s: &'a mut Scratch,
        cid: u32,
    ) -> Result<&'a mut Vec<Value>, RepoError> {
        if let std::collections::btree_map::Entry::Vacant(e) = s.members.entry(cid) {
            let members = match self.read_segment(SegKey::Collection(cid), self.epoch)? {
                Some(bytes) => decode_members(&bytes)?,
                None => Vec::new(),
            };
            e.insert(members);
        }
        Ok(s.members.get_mut(&cid).expect("inserted above"))
    }

    /// Applies `delta` to a scratch overlay without touching committed
    /// state, enforcing exactly the [`Graph`] mutation semantics (named
    /// nodes dedupe, collections are sets, removals need a match). Any
    /// error leaves the store untouched — the scratch is simply dropped.
    fn stage_delta(&mut self, delta: &GraphDelta) -> Result<Scratch, RepoError> {
        let nps = self.nodes_per_segment as u64;
        let mut s = Scratch {
            node_count: self.node_count,
            ..Scratch::default()
        };
        let check_value = |count: u64, v: &Value| -> Result<(), DeltaError> {
            if let Some(o) = v.as_node() {
                if o.index() as u64 >= count {
                    return Err(DeltaError::UnknownNode(o));
                }
            }
            Ok(())
        };
        for op in delta.ops() {
            match op {
                DeltaOp::AddNode { name } => {
                    if let Some(n) = name {
                        if self.lookup_name(&s, n).is_some() {
                            // Same as Graph::add_named_node: an existing
                            // name fetches the node instead of creating.
                            continue;
                        }
                    }
                    let oid = s.node_count;
                    let seg = (oid / nps) as u32;
                    let recs = self.staged_nodes(&mut s, seg)?;
                    debug_assert_eq!(recs.len() as u64, oid % nps, "segment fill out of order");
                    recs.push(NodeRec {
                        name: name.as_ref().map(|n| n.to_string()),
                        ..NodeRec::default()
                    });
                    if let Some(n) = name {
                        s.new_names.push((n.to_string(), oid));
                    }
                    s.node_count += 1;
                    s.catalog_dirty = true;
                }
                DeltaOp::AddEdge { from, label, to } => {
                    let from_i = from.index() as u64;
                    if from_i >= s.node_count {
                        return Err(DeltaError::UnknownNode(*from).into());
                    }
                    check_value(s.node_count, to)?;
                    let lidx = self.intern_label_staged(&mut s, label);
                    let recs = self.staged_nodes(&mut s, (from_i / nps) as u32)?;
                    recs[(from_i % nps) as usize].edges.push((lidx, to.clone()));
                    if let Some(t) = to.as_node() {
                        let t_i = t.index() as u64;
                        let trecs = self.staged_nodes(&mut s, (t_i / nps) as u32)?;
                        trecs[(t_i % nps) as usize].rev.push((from_i, lidx));
                    }
                }
                DeltaOp::RemoveEdge { from, label, to } => {
                    let from_i = from.index() as u64;
                    if from_i >= s.node_count {
                        return Err(DeltaError::UnknownNode(*from).into());
                    }
                    let missing = || DeltaError::MissingEdge {
                        from: *from,
                        label: label.clone(),
                    };
                    let Some(lidx) = self.lookup_label(&s, label) else {
                        return Err(missing().into());
                    };
                    let recs = self.staged_nodes(&mut s, (from_i / nps) as u32)?;
                    let rec = &mut recs[(from_i % nps) as usize];
                    let Some(pos) = rec
                        .edges
                        .iter()
                        .position(|(l, v)| *l == lidx && v == to)
                    else {
                        return Err(missing().into());
                    };
                    rec.edges.remove(pos);
                    if let Some(t) = to.as_node() {
                        // Mirror Graph::remove_edge: drop the first
                        // (from, label) entry of the target's reverse
                        // adjacency, whatever its value.
                        let t_i = t.index() as u64;
                        let trecs = self.staged_nodes(&mut s, (t_i / nps) as u32)?;
                        let trec = &mut trecs[(t_i % nps) as usize];
                        if let Some(rpos) = trec
                            .rev
                            .iter()
                            .position(|(f, l)| *f == from_i && *l == lidx)
                        {
                            trec.rev.remove(rpos);
                        }
                    }
                }
                DeltaOp::Collect { collection, member } => {
                    check_value(s.node_count, member)?;
                    let cid = self.intern_collection_staged(&mut s, collection);
                    let members = self.staged_members(&mut s, cid)?;
                    if !members.iter().any(|m| m == member) {
                        members.push(member.clone());
                    }
                }
                DeltaOp::Uncollect { collection, member } => {
                    let missing = || DeltaError::MissingMember {
                        collection: collection.clone(),
                    };
                    let Some(cid) = self.lookup_collection(&s, collection) else {
                        return Err(missing().into());
                    };
                    let members = self.staged_members(&mut s, cid)?;
                    let Some(pos) = members.iter().position(|m| m == member) else {
                        return Err(missing().into());
                    };
                    members.remove(pos);
                }
            }
        }
        Ok(s)
    }

    /// Publishes a staged delta at the next epoch: merges the catalog
    /// additions, writes every touched segment to fresh pages at `lsn`,
    /// bumps the epoch, and retires unreachable versions. The WAL frame
    /// for `lsn` must already be appended.
    fn commit_staged(&mut self, s: Scratch, lsn: u64) -> Result<(), RepoError> {
        let epoch = self.epoch + 1;
        for l in s.new_labels {
            self.label_ids.insert(l.clone(), self.labels.len() as u32);
            self.labels.push(l);
        }
        for c in s.new_collections {
            self.collection_ids
                .insert(c.clone(), self.collections.len() as u32);
            self.collections.push(c);
        }
        for (n, oid) in s.new_names {
            self.names.insert(n, oid);
        }
        self.node_count = s.node_count;
        if s.catalog_dirty {
            let cat = Catalog {
                labels: self.labels.clone(),
                collections: self.collections.clone(),
                node_count: self.node_count,
            };
            self.write_segment(SegKey::Catalog, &encode_catalog(&cat), epoch, lsn)?;
        }
        for (seg, recs) in &s.nodes {
            self.write_segment(SegKey::Nodes(*seg), &encode_nodes(recs), epoch, lsn)?;
        }
        for (cid, members) in &s.members {
            self.write_segment(SegKey::Collection(*cid), &encode_members(members), epoch, lsn)?;
        }
        self.epoch = epoch;
        self.retire_versions();
        Ok(())
    }

    /// Checkpoint: force the log and every dirty page down, publish a
    /// new manifest generation atomically, and restart the WAL.
    fn checkpoint_inner(&mut self, vfs: &dyn Vfs, dir: &Path) -> Result<(), RepoError> {
        let lsn = self.wal.appended;
        self.wal.ensure_durable(lsn)?;
        self.pool.flush_all(&mut self.wal)?;
        let new_gen = self.generation + 1;
        let manifest = Manifest {
            generation: new_gen,
            base_lsn: lsn,
            page_size: (self.pool.payload_capacity() + page::PAGE_HEADER_LEN) as u32,
            nodes_per_segment: self.nodes_per_segment,
            next_page: self.next_page,
            entries: self
                .versions
                .current(self.epoch)
                .map(|(k, v)| (k, v.len, v.pages.clone()))
                .collect(),
        };
        write_manifest(vfs, dir, &manifest)?;
        // A crash here leaves manifest generation new_gen with the old
        // WAL still at new_gen - 1: recovery discards the stale log and
        // trusts the (complete) checkpoint alone.
        let new_wal = Wal::create_with(vfs, &dir.join(WAL_FILE), new_gen)?;
        self.wal.wal = Some(new_wal);
        self.generation = new_gen;
        self.base_lsn = lsn;
        self.manifest_pages = manifest
            .entries
            .iter()
            .flat_map(|(_, _, pages)| pages.iter().copied())
            .collect();
        // Pages retired while the old manifest still referenced them are
        // now reusable: a retired version cannot be in the new cut.
        let pending: Vec<u32> = self.pending_free.drain(..).collect();
        self.free.extend(pending);
        Ok(())
    }
}

#[derive(Debug)]
struct Inner {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    state: Mutex<State>,
}

/// A paged, MVCC, write-ahead-logged graph store. Cheap to clone; all
/// clones share one buffer pool and version table.
#[derive(Clone, Debug)]
pub struct PagedRepo {
    inner: Arc<Inner>,
}

impl PagedRepo {
    /// Opens (or creates) the paged store in `dir` on the real
    /// filesystem.
    pub fn open(dir: &Path, cfg: PagerConfig) -> Result<Self, RepoError> {
        Self::open_with(Arc::new(RealVfs), dir, cfg)
    }

    /// Opens (or creates) the paged store in `dir` through `vfs`,
    /// running the recovery matrix: the manifest names a generation; a
    /// WAL of an older generation (or with a torn header) is a stale
    /// leftover and is discarded, a newer one is corruption, a matching
    /// one is replayed — through the same staged-apply path as live
    /// commits, so post-checkpoint page state is re-derived rather than
    /// trusted.
    pub fn open_with(vfs: Arc<dyn Vfs>, dir: &Path, cfg: PagerConfig) -> Result<Self, RepoError> {
        vfs.create_dir_all(dir)?;
        let tmp = dir.join(MANIFEST_TMP);
        if vfs.exists(&tmp) {
            // An unfinished checkpoint died before its rename; the real
            // manifest is still authoritative.
            vfs.remove_file(&tmp)?;
        }
        let manifest_path = dir.join(MANIFEST_FILE);
        let wal_path = dir.join(WAL_FILE);
        if !vfs.exists(&manifest_path) {
            let fresh = Manifest {
                generation: 0,
                base_lsn: 0,
                page_size: cfg.page_size.max(page::MIN_PAGE_SIZE) as u32,
                nodes_per_segment: cfg.nodes_per_segment.max(1),
                next_page: 0,
                entries: Vec::new(),
            };
            write_manifest(&*vfs, dir, &fresh)?;
            Wal::create_with(&*vfs, &wal_path, 0)?;
        }
        let m = read_manifest(&*vfs, &manifest_path)?;

        let report = wal::replay_report_with(&*vfs, &wal_path)?;
        let (deltas, wal) = if report.torn_header || report.generation < m.generation {
            // Stale or torn log from before (or during) the manifest's
            // checkpoint: the checkpoint is complete, the log is noise.
            (Vec::new(), Wal::create_with(&*vfs, &wal_path, m.generation)?)
        } else if report.generation > m.generation {
            return Err(corrupt(
                0,
                format!(
                    "wal generation {} ahead of manifest generation {}",
                    report.generation, m.generation
                ),
            ));
        } else {
            if report.discarded_bytes > 0 {
                let keep = vfs.len(&wal_path)?.saturating_sub(report.discarded_bytes);
                vfs.set_len(&wal_path, keep)?;
            }
            (
                report.deltas,
                Wal::open_append_with(&*vfs, &wal_path, m.generation)?,
            )
        };

        let pool = BufferPool::new(
            vfs.open_rw(&dir.join(PAGES_FILE))?,
            m.page_size as usize,
            cfg.pool_pages,
        );
        let mut versions = VersionTable::new();
        let mut manifest_pages = HashSet::new();
        for (key, len, pages) in &m.entries {
            manifest_pages.extend(pages.iter().copied());
            versions.publish(
                *key,
                VersionEntry {
                    epoch: 0,
                    lsn: m.base_lsn,
                    len: *len,
                    pages: pages.clone(),
                },
            );
        }
        let free = (0..m.next_page)
            .filter(|p| !manifest_pages.contains(p))
            .collect();
        let mut st = State {
            nodes_per_segment: m.nodes_per_segment,
            pool,
            wal: WalCtx {
                wal: Some(wal),
                appended: m.base_lsn,
                durable: m.base_lsn,
            },
            versions,
            readers: ReaderRegistry::new(),
            epoch: 0,
            generation: m.generation,
            base_lsn: m.base_lsn,
            next_page: m.next_page,
            free,
            manifest_pages,
            pending_free: Vec::new(),
            labels: Vec::new(),
            label_ids: HashMap::new(),
            collections: Vec::new(),
            collection_ids: HashMap::new(),
            names: HashMap::new(),
            node_count: 0,
            poisoned: false,
        };

        // Rebuild the in-memory catalog mirrors from the checkpoint.
        if let Some(bytes) = st.read_segment(SegKey::Catalog, 0)? {
            let cat = decode_catalog(&bytes)?;
            for (i, l) in cat.labels.iter().enumerate() {
                st.label_ids.insert(l.clone(), i as u32);
            }
            for (i, c) in cat.collections.iter().enumerate() {
                st.collection_ids.insert(c.clone(), i as u32);
            }
            st.labels = cat.labels;
            st.collections = cat.collections;
            st.node_count = cat.node_count;
        }
        let nps = st.nodes_per_segment as u64;
        for seg in 0..st.node_count.div_ceil(nps) {
            let bytes = st
                .read_segment(SegKey::Nodes(seg as u32), 0)?
                .ok_or_else(|| corrupt(0, format!("missing node segment {seg}")))?;
            for (i, rec) in decode_nodes(&bytes)?.iter().enumerate() {
                if let Some(n) = &rec.name {
                    st.names.insert(n.clone(), seg * nps + i as u64);
                }
            }
        }

        // Replay post-checkpoint deltas through the live commit path.
        for (i, delta) in deltas.iter().enumerate() {
            let lsn = m.base_lsn + i as u64 + 1;
            let scratch = st.stage_delta(delta)?;
            st.wal.appended = lsn;
            st.commit_staged(scratch, lsn)?;
        }
        // Everything replayed was read from the log: it is durable.
        st.wal.durable = st.wal.appended;

        Ok(PagedRepo {
            inner: Arc::new(Inner {
                vfs,
                dir: dir.to_path_buf(),
                state: Mutex::new(st),
            }),
        })
    }

    /// Creates a fresh paged store in `dir` on the real filesystem
    /// holding `graph`. See [`PagedRepo::bulk_load_with`].
    pub fn bulk_load(dir: &Path, cfg: PagerConfig, graph: &Graph) -> Result<Self, RepoError> {
        Self::bulk_load_with(Arc::new(RealVfs), dir, cfg, graph)
    }

    /// Creates a fresh paged store in `dir` holding `graph`, loaded in
    /// bounded chunks (nodes, then edges, then collections) and
    /// checkpointed, so peak staging memory stays small no matter the
    /// site size. Fails if `dir` already holds a non-empty store.
    pub fn bulk_load_with(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        cfg: PagerConfig,
        graph: &Graph,
    ) -> Result<Self, RepoError> {
        let repo = Self::open_with(vfs, dir, cfg)?;
        if repo.lock().node_count > 0 {
            return Err(RepoError::Io(std::io::Error::other(
                "bulk_load into a non-empty paged store",
            )));
        }
        const CHUNK: usize = 256;
        let mut d = GraphDelta::new();
        let flush = |repo: &PagedRepo, d: &mut GraphDelta, force: bool| -> Result<(), RepoError> {
            if d.len() >= CHUNK || (force && !d.is_empty()) {
                repo.apply_delta(d)?;
                *d = GraphDelta::new();
            }
            Ok(())
        };
        for oid in graph.node_oids() {
            d.add_node(graph.node_name(oid));
            flush(&repo, &mut d, false)?;
        }
        flush(&repo, &mut d, true)?;
        for oid in graph.node_oids() {
            for e in graph.edges(oid) {
                d.add_edge(oid, graph.label_name(e.label), e.to.clone());
                flush(&repo, &mut d, false)?;
            }
        }
        flush(&repo, &mut d, true)?;
        for (cid, name) in graph.collections() {
            let members = graph.members(cid);
            if members.is_empty() {
                // There is no "create empty collection" op; a collect
                // and uncollect of a placeholder in one delta interns
                // the collection and leaves it empty.
                d.collect(name, Value::Int(0));
                d.uncollect(name, Value::Int(0));
            }
            for mem in members {
                d.collect(name, mem.clone());
            }
            flush(&repo, &mut d, false)?;
        }
        flush(&repo, &mut d, true)?;
        repo.checkpoint()?;
        Ok(repo)
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.inner.state.lock().expect("pager state lock")
    }

    /// Validates and commits `delta`: staged copy-on-write against the
    /// current epoch, WAL-appended, written to fresh pages, published at
    /// the next epoch. All-or-nothing — a validation error changes
    /// nothing; a write failure after the WAL append poisons the store
    /// (reopen recovers from the log).
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<(), RepoError> {
        let mut st = self.lock();
        st.check_poisoned()?;
        let scratch = st.stage_delta(delta)?;
        let lsn = st.wal.appended + 1;
        let w = st.wal.wal.as_mut().expect("unpoisoned store has a wal");
        if let Err(e) = w.append(delta) {
            st.poisoned = true;
            st.wal.wal = None;
            return Err(e);
        }
        st.wal.appended = lsn;
        let res = st.commit_staged(scratch, lsn);
        if res.is_err() {
            st.poisoned = true;
        }
        res
    }

    /// Forces the log and all dirty pages durable, publishes a new
    /// manifest generation (tmp → fsync → rename → dir-sync), and
    /// restarts the WAL at that generation.
    pub fn checkpoint(&self) -> Result<(), RepoError> {
        let mut st = self.lock();
        st.check_poisoned()?;
        let res = st.checkpoint_inner(&*self.inner.vfs, &self.inner.dir);
        if res.is_err() {
            st.poisoned = true;
            st.wal.wal = None;
        }
        res
    }

    /// Opens a consistent read snapshot at the current commit epoch. The
    /// snapshot keeps observing exactly this state — concurrent
    /// `apply_delta` commits land in later epochs — until dropped, which
    /// releases its version pins for retirement.
    pub fn snapshot(&self) -> PagedSnapshot {
        let mut st = self.lock();
        let epoch = st.epoch;
        st.readers.register(epoch);
        PagedSnapshot {
            inner: Arc::clone(&self.inner),
            epoch,
            node_count: st.node_count,
            label_count: st.labels.len(),
            collection_count: st.collections.len(),
        }
    }

    /// The durable manifest generation.
    pub fn generation(&self) -> u64 {
        self.lock().generation
    }

    /// The current commit epoch (one per applied delta).
    pub fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// Nodes in the store at the current epoch.
    pub fn node_count(&self) -> u64 {
        self.lock().node_count
    }

    /// `(occupancy, capacity, hits, misses, evictions, writebacks)` of
    /// this store's buffer pool.
    pub fn pool_stats(&self) -> (usize, usize, u64, u64, u64, u64) {
        let st = self.lock();
        let (h, m, e, w) = st.pool.local_stats();
        (st.pool.occupancy(), st.pool.capacity(), h, m, e, w)
    }

    /// Whether an earlier write failure poisoned the store: reads keep
    /// working from committed state, every write fails until the store
    /// is reopened (which recovers from the log). Health endpoints
    /// surface this so a supervisor can recycle the process.
    pub fn is_poisoned(&self) -> bool {
        self.lock().poisoned
    }
}

/// A consistent MVCC read view of a [`PagedRepo`] at one commit epoch.
///
/// Every accessor resolves segments to the newest version at or below
/// the snapshot's epoch, so concurrent commits are invisible. Dropping
/// the snapshot deregisters its epoch and lets superseded versions
/// retire.
#[derive(Debug)]
pub struct PagedSnapshot {
    inner: Arc<Inner>,
    epoch: u64,
    node_count: u64,
    label_count: usize,
    collection_count: usize,
}

impl PagedSnapshot {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.inner.state.lock().expect("pager state lock")
    }

    /// The snapshot's commit epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Nodes visible to this snapshot.
    pub fn node_count(&self) -> u64 {
        self.node_count
    }

    /// Labels visible to this snapshot, in intern order.
    pub fn labels(&self) -> Vec<String> {
        self.lock().labels[..self.label_count].to_vec()
    }

    /// Collection names visible to this snapshot, in creation order.
    pub fn collections(&self) -> Vec<String> {
        self.lock().collections[..self.collection_count].to_vec()
    }

    /// The name of a visible label index.
    pub fn label_name(&self, label: Label) -> Option<String> {
        if label.index() >= self.label_count {
            return None;
        }
        Some(self.lock().labels[label.index()].clone())
    }

    fn node_rec(&self, st: &mut State, oid: u64) -> Result<NodeRec, RepoError> {
        let nps = st.nodes_per_segment as u64;
        let seg = (oid / nps) as u32;
        let bytes = st
            .read_segment(SegKey::Nodes(seg), self.epoch)?
            .ok_or_else(|| corrupt(0, format!("missing node segment {seg}")))?;
        let mut recs = decode_nodes(&bytes)?;
        let slot = (oid % nps) as usize;
        if slot >= recs.len() {
            return Err(corrupt(0, format!("node {oid} beyond segment {seg}")));
        }
        Ok(recs.swap_remove(slot))
    }

    /// The symbolic name of `oid`, if the node is visible and named.
    pub fn node_name(&self, oid: u64) -> Result<Option<String>, RepoError> {
        if oid >= self.node_count {
            return Ok(None);
        }
        let mut st = self.lock();
        Ok(self.node_rec(&mut st, oid)?.name)
    }

    /// Resolves a symbolic name to its oid, if visible.
    pub fn node_by_name(&self, name: &str) -> Option<u64> {
        self.lock()
            .names
            .get(name)
            .copied()
            .filter(|&oid| oid < self.node_count)
    }

    /// The out-edges of `oid` in insertion order.
    pub fn edges(&self, oid: u64) -> Result<Vec<Edge>, RepoError> {
        if oid >= self.node_count {
            return Err(DeltaError::UnknownNode(Oid::from_index(oid as usize)).into());
        }
        let mut st = self.lock();
        let rec = self.node_rec(&mut st, oid)?;
        Ok(rec
            .edges
            .into_iter()
            .map(|(l, to)| Edge {
                label: Label::from_index(l as usize),
                to,
            })
            .collect())
    }

    /// The in-edges of `oid` (reverse adjacency) in insertion order.
    pub fn edges_in(&self, oid: u64) -> Result<Vec<InEdge>, RepoError> {
        if oid >= self.node_count {
            return Err(DeltaError::UnknownNode(Oid::from_index(oid as usize)).into());
        }
        let mut st = self.lock();
        let rec = self.node_rec(&mut st, oid)?;
        Ok(rec
            .rev
            .into_iter()
            .map(|(from, l)| InEdge {
                from: Oid::from_index(from as usize),
                label: Label::from_index(l as usize),
            })
            .collect())
    }

    /// The members of the named collection, in insertion order. Unknown
    /// or not-yet-visible collections read as empty.
    pub fn members(&self, name: &str) -> Result<Vec<Value>, RepoError> {
        let mut st = self.lock();
        let cid = match st.collection_ids.get(name) {
            Some(&i) if (i as usize) < self.collection_count => i,
            _ => return Ok(Vec::new()),
        };
        match st.read_segment(SegKey::Collection(cid), self.epoch)? {
            Some(bytes) => decode_members(&bytes),
            None => Ok(Vec::new()),
        }
    }

    /// Reconstructs the full in-memory [`Graph`] this snapshot sees —
    /// identical (including serialization byte-for-byte) to replaying
    /// the same deltas against a fresh graph. This is the out-of-core
    /// store's bridge to the in-memory query machinery, and the oracle
    /// hook for the differential tests.
    pub fn materialize(&self) -> Result<Graph, RepoError> {
        let mut st = self.lock();
        let mut g = Graph::new();
        for l in &st.labels[..self.label_count] {
            g.intern_label(l);
        }
        let nps = st.nodes_per_segment as u64;
        let seg_count = self.node_count.div_ceil(nps);
        let mut segments = Vec::with_capacity(seg_count as usize);
        for seg in 0..seg_count {
            let bytes = st
                .read_segment(SegKey::Nodes(seg as u32), self.epoch)?
                .ok_or_else(|| corrupt(0, format!("missing node segment {seg}")))?;
            let mut recs = decode_nodes(&bytes)?;
            // A snapshot may see a shorter prefix of the final segment
            // than its newest version holds.
            let visible = (self.node_count - seg * nps).min(nps) as usize;
            recs.truncate(visible);
            for rec in &recs {
                match &rec.name {
                    Some(n) => {
                        g.add_named_node(n);
                    }
                    None => {
                        g.add_node();
                    }
                }
            }
            segments.push(recs);
        }
        for (seg, recs) in segments.iter().enumerate() {
            for (i, rec) in recs.iter().enumerate() {
                let from = Oid::from_index(seg * nps as usize + i);
                for (l, to) in &rec.edges {
                    g.add_edge(from, Label::from_index(*l as usize), to.clone());
                }
            }
        }
        for cid in 0..self.collection_count as u32 {
            let name = st.collections[cid as usize].clone();
            let gcid = g.intern_collection(&name);
            if let Some(bytes) = st.read_segment(SegKey::Collection(cid), self.epoch)? {
                for m in decode_members(&bytes)? {
                    g.collect(gcid, m);
                }
            }
        }
        Ok(g)
    }
}

impl Drop for PagedSnapshot {
    fn drop(&mut self) {
        // A poisoned mutex means a writer panicked; skip retirement
        // rather than double-panic.
        if let Ok(mut st) = self.inner.state.lock() {
            st.readers.deregister(self.epoch);
            st.retire_versions();
        }
    }
}

// ---- read-only reopen-for-replay ------------------------------------
//
// A second process can rebuild the graph a paged store holds without
// taking the store's files for writing: read the manifest's consistent
// cut with raw page reads (never through a buffer pool, whose evictions
// write), then apply the WAL's post-checkpoint deltas in memory. Shadow
// paging makes the concurrent read safe — a live writer never
// overwrites a page the durable manifest references — and the
// generation stamps shared by manifest and WAL detect the one unsafe
// window (a checkpoint landing mid-read), which is simply retried.
// This is how cluster shard workers recover after a crash: full replay
// on start, then WAL-suffix catch-up per delta.

/// A read-only materialization of a paged store's committed state.
#[derive(Debug)]
pub struct ReplayedStore {
    /// The store's graph: checkpoint cut plus every complete WAL delta.
    pub graph: Graph,
    /// The manifest generation the replay observed.
    pub generation: u64,
    /// WAL deltas applied on top of the checkpoint cut.
    pub wal_deltas: u64,
}

/// Replays the committed state of the paged store in `dir` read-only on
/// the real filesystem. See [`replay_committed_with`].
pub fn replay_committed(dir: &Path) -> Result<ReplayedStore, RepoError> {
    replay_committed_with(&RealVfs, dir)
}

/// Replays the committed state of the paged store in `dir` read-only:
/// no file is created, written, or truncated, so a live [`PagedRepo`]
/// in another process keeps committing concurrently. A torn WAL tail is
/// ignored (its delta never committed); a checkpoint racing the read is
/// detected by generation mismatch and retried a few times.
pub fn replay_committed_with(vfs: &dyn Vfs, dir: &Path) -> Result<ReplayedStore, RepoError> {
    let mut last = None;
    for _ in 0..5 {
        match replay_committed_once(vfs, dir) {
            Ok(Some(r)) => return Ok(r),
            // The manifest advanced between our manifest and WAL reads.
            Ok(None) => continue,
            // A checkpoint freed and reused pages under the read; the
            // self-identifying page format caught it. Retry from the new
            // manifest.
            Err(e @ RepoError::Corrupt { .. }) => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        corrupt(0, "replay_committed: manifest generation kept advancing")
    }))
}

/// The WAL deltas currently committed past the checkpoint of the store
/// in `dir`, with the generation they extend — the cheap catch-up read
/// a replica performs per delta (the full replay only on restart). A
/// torn trailing record is ignored, not an error: its commit never
/// completed, and the writer will retry or truncate it.
pub fn committed_wal_deltas(dir: &Path) -> Result<(u64, Vec<GraphDelta>), RepoError> {
    committed_wal_deltas_with(&RealVfs, dir)
}

/// See [`committed_wal_deltas`].
pub fn committed_wal_deltas_with(
    vfs: &dyn Vfs,
    dir: &Path,
) -> Result<(u64, Vec<GraphDelta>), RepoError> {
    let report = wal::replay_report_with(vfs, &dir.join(WAL_FILE))?;
    if report.torn_header {
        return Ok((0, Vec::new()));
    }
    Ok((report.generation, report.deltas))
}

fn replay_committed_once(vfs: &dyn Vfs, dir: &Path) -> Result<Option<ReplayedStore>, RepoError> {
    let m = read_manifest(vfs, &dir.join(MANIFEST_FILE))?;
    let page_size = m.page_size as usize;
    let mut pages = vfs.open_rw(&dir.join(PAGES_FILE))?;
    let read_segment = |file: &mut Box<dyn crate::vfs::VfsRandomFile>,
                        entry: &(SegKey, u64, Vec<u32>)|
     -> Result<Vec<u8>, RepoError> {
        let (key, len, page_nos) = entry;
        let mut bytes = Vec::with_capacity(*len as usize);
        for &p in page_nos {
            let mut buf = vec![0u8; page_size];
            let mut got = 0usize;
            while got < page_size {
                let n = file.read_at(&mut buf[got..], p as u64 * page_size as u64 + got as u64)?;
                if n == 0 {
                    return Err(corrupt(
                        p as u64 * page_size as u64,
                        format!("page {p} of segment {key:?} truncated"),
                    ));
                }
                got += n;
            }
            bytes.extend_from_slice(page::decode_page(&buf, p, page_size)?.payload);
        }
        if bytes.len() < *len as usize {
            return Err(corrupt(
                0,
                format!("segment {key:?} reassembled short: {} of {len}", bytes.len()),
            ));
        }
        bytes.truncate(*len as usize);
        Ok(bytes)
    };

    // The checkpoint cut, assembled exactly as PagedSnapshot::materialize
    // does: labels in intern order, node segments truncated to the
    // visible count, then edges, then collections in creation order.
    let mut catalog = Catalog::default();
    for entry in &m.entries {
        if entry.0 == SegKey::Catalog {
            catalog = decode_catalog(&read_segment(&mut pages, entry)?)?;
        }
    }
    let mut g = Graph::new();
    for l in &catalog.labels {
        g.intern_label(l);
    }
    let nps = m.nodes_per_segment as u64;
    let seg_count = catalog.node_count.div_ceil(nps);
    let mut segments: Vec<Vec<NodeRec>> = Vec::with_capacity(seg_count as usize);
    for seg in 0..seg_count {
        let entry = m
            .entries
            .iter()
            .find(|(k, _, _)| *k == SegKey::Nodes(seg as u32))
            .ok_or_else(|| corrupt(0, format!("missing node segment {seg}")))?;
        let mut recs = decode_nodes(&read_segment(&mut pages, entry)?)?;
        let visible = (catalog.node_count - seg * nps).min(nps) as usize;
        recs.truncate(visible);
        for rec in &recs {
            match &rec.name {
                Some(n) => {
                    g.add_named_node(n);
                }
                None => {
                    g.add_node();
                }
            }
        }
        segments.push(recs);
    }
    for (seg, recs) in segments.iter().enumerate() {
        for (i, rec) in recs.iter().enumerate() {
            let from = Oid::from_index(seg * nps as usize + i);
            for (l, to) in &rec.edges {
                g.add_edge(from, Label::from_index(*l as usize), to.clone());
            }
        }
    }
    for (cid, name) in catalog.collections.iter().enumerate() {
        let gcid = g.intern_collection(name);
        if let Some(entry) = m
            .entries
            .iter()
            .find(|(k, _, _)| *k == SegKey::Collection(cid as u32))
        {
            for member in decode_members(&read_segment(&mut pages, entry)?)? {
                g.collect(gcid, member);
            }
        }
    }
    drop(pages);

    // Post-checkpoint deltas from the WAL. Older generation (or torn
    // header): a checkpoint completed after the log was written — the
    // cut above already holds those deltas. Newer: the manifest advanced
    // between our two reads — retry from the fresh manifest.
    let report = wal::replay_report_with(vfs, &dir.join(WAL_FILE))?;
    let deltas = if report.torn_header || report.generation < m.generation {
        Vec::new()
    } else if report.generation > m.generation {
        return Ok(None);
    } else {
        report.deltas
    };
    let wal_deltas = deltas.len() as u64;
    for delta in &deltas {
        delta.apply(&mut g).map_err(|e| {
            corrupt(0, format!("committed wal delta does not apply: {e}"))
        })?;
    }
    Ok(Some(ReplayedStore {
        graph: g,
        generation: m.generation,
        wal_deltas,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("strudel-pager-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_cfg() -> PagerConfig {
        PagerConfig {
            page_size: 128,
            pool_pages: 4,
            nodes_per_segment: 4,
        }
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
        d.add_edge(Oid::from_index(0), "author", Value::Node(Oid::from_index(1)));
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
        let repo = PagedRepo::open(&dir, small_cfg()).unwrap();
        let deltas = build_deltas();
        for d in &deltas {
            repo.apply_delta(d).unwrap();
        }
        let shadow = shadow_of(&deltas);
        let got = repo.snapshot().materialize().unwrap();
        assert_eq!(graph_bytes(&got), graph_bytes(&shadow));
    }

    #[test]
    fn reopen_replays_the_wal() {
        let dir = tmp_dir("reopen");
        let deltas = build_deltas();
        {
            let repo = PagedRepo::open(&dir, small_cfg()).unwrap();
            for d in &deltas {
                repo.apply_delta(d).unwrap();
            }
        }
        let repo = PagedRepo::open(&dir, small_cfg()).unwrap();
        let shadow = shadow_of(&deltas);
        let got = repo.snapshot().materialize().unwrap();
        assert_eq!(graph_bytes(&got), graph_bytes(&shadow));
        assert_eq!(repo.node_count(), shadow.node_count() as u64);
    }

    #[test]
    fn checkpoint_bumps_the_generation_and_survives_reopen() {
        let dir = tmp_dir("ckpt");
        let deltas = build_deltas();
        let repo = PagedRepo::open(&dir, small_cfg()).unwrap();
        for d in &deltas[..2] {
            repo.apply_delta(d).unwrap();
        }
        repo.checkpoint().unwrap();
        assert_eq!(repo.generation(), 1);
        for d in &deltas[2..] {
            repo.apply_delta(d).unwrap();
        }
        drop(repo);
        let repo = PagedRepo::open(&dir, small_cfg()).unwrap();
        assert_eq!(repo.generation(), 1);
        let got = repo.snapshot().materialize().unwrap();
        assert_eq!(graph_bytes(&got), graph_bytes(&shadow_of(&deltas)));
    }

    #[test]
    fn read_only_replay_matches_live_store_while_it_stays_open() {
        let dir = tmp_dir("ro-replay");
        let repo = PagedRepo::open(&dir, small_cfg()).unwrap();
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
        let got = repo.snapshot().materialize().unwrap();
        assert_eq!(graph_bytes(&got), graph_bytes(&shadow_of(&deltas)));
    }

    #[test]
    fn read_only_replay_after_checkpoint_reads_the_cut_plus_wal_suffix() {
        let dir = tmp_dir("ro-ckpt");
        let deltas = build_deltas();
        let repo = PagedRepo::open(&dir, small_cfg()).unwrap();
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
        let _repo = PagedRepo::open(&dir, small_cfg()).unwrap();
        let replayed = replay_committed(&dir).unwrap();
        assert_eq!(replayed.wal_deltas, 0);
        assert_eq!(replayed.graph.node_count(), 0);
    }

    #[test]
    fn committed_wal_deltas_exposes_the_catchup_suffix() {
        let dir = tmp_dir("ro-catchup");
        let deltas = build_deltas();
        let repo = PagedRepo::open(&dir, small_cfg()).unwrap();
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
        // The suffix applies on top of a replica that replayed the cut.
        let mut g = shadow_of(&deltas[..2]);
        for d in &suffix {
            d.apply(&mut g).unwrap();
        }
        assert_eq!(graph_bytes(&g), graph_bytes(&shadow_of(&deltas)));
    }

    #[test]
    fn snapshots_are_isolated_from_later_commits() {
        let dir = tmp_dir("mvcc");
        let repo = PagedRepo::open(&dir, small_cfg()).unwrap();
        let deltas = build_deltas();
        repo.apply_delta(&deltas[0]).unwrap();
        repo.apply_delta(&deltas[1]).unwrap();
        let old = repo.snapshot();
        let old_bytes = graph_bytes(&old.materialize().unwrap());
        for d in &deltas[2..] {
            repo.apply_delta(d).unwrap();
        }
        // The old snapshot still reads its epoch...
        assert_eq!(graph_bytes(&old.materialize().unwrap()), old_bytes);
        assert_eq!(old.node_count(), 3);
        // ...while a fresh one sees everything.
        let new = repo.snapshot();
        assert_eq!(graph_bytes(&new.materialize().unwrap()), graph_bytes(&shadow_of(&deltas)));
        // While the old reader is live, some segment must keep two
        // versions; dropping every reader retires down to one each.
        {
            let st = repo.lock();
            let live = st.versions.all().count();
            let current = st.versions.current(st.epoch).count();
            assert!(live > current, "old snapshot should pin old versions");
        }
        drop(old);
        drop(new);
        let st = repo.lock();
        assert_eq!(
            st.versions.all().count(),
            st.versions.current(st.epoch).count(),
            "no readers left: only current versions may survive"
        );
    }

    #[test]
    fn invalid_deltas_change_nothing() {
        let dir = tmp_dir("invalid");
        let repo = PagedRepo::open(&dir, small_cfg()).unwrap();
        let deltas = build_deltas();
        for d in &deltas {
            repo.apply_delta(d).unwrap();
        }
        let before = graph_bytes(&repo.snapshot().materialize().unwrap());
        let epoch = repo.epoch();

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

        assert_eq!(repo.epoch(), epoch, "failed deltas must not commit");
        assert_eq!(graph_bytes(&repo.snapshot().materialize().unwrap()), before);
    }

    #[test]
    fn tiny_pool_still_serves_a_larger_site() {
        let dir = tmp_dir("tiny");
        let cfg = PagerConfig {
            page_size: 128,
            pool_pages: 2,
            nodes_per_segment: 2,
        };
        let repo = PagedRepo::open(&dir, cfg).unwrap();
        let mut d = GraphDelta::new();
        for i in 0..64 {
            d.add_node(Some(&format!("page{i}")));
        }
        repo.apply_delta(&d).unwrap();
        let mut d = GraphDelta::new();
        for i in 0..64u64 {
            d.add_edge(
                Oid::from_index(i as usize),
                "next",
                Value::Node(Oid::from_index(((i + 1) % 64) as usize)),
            );
        }
        repo.apply_delta(&d).unwrap();
        let snap = repo.snapshot();
        for i in 0..64u64 {
            assert_eq!(snap.node_name(i).unwrap().as_deref(), Some(format!("page{i}").as_str()));
            assert_eq!(snap.edges(i).unwrap().len(), 1);
            assert_eq!(snap.edges_in(i).unwrap().len(), 1);
        }
        let (_, _, _, _, evictions, _) = repo.pool_stats();
        assert!(evictions > 0, "a 2-frame pool over 64 nodes must evict");
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
        let repo = PagedRepo::bulk_load_with(Arc::new(RealVfs), &dir, small_cfg(), &g).unwrap();
        assert!(repo.generation() >= 1, "bulk load ends in a checkpoint");
        let got = repo.snapshot().materialize().unwrap();
        assert_eq!(graph_bytes(&got), graph_bytes(&g));
    }

    #[test]
    fn manifest_round_trips_and_rejects_corruption() {
        let m = Manifest {
            generation: 3,
            base_lsn: 99,
            page_size: 4096,
            nodes_per_segment: 16,
            next_page: 12,
            entries: vec![
                (SegKey::Catalog, 10, vec![0]),
                (SegKey::Nodes(2), 5000, vec![3, 4, 7]),
                (SegKey::Collection(0), 0, vec![]),
            ],
        };
        let bytes = encode_manifest(&m);
        let back = decode_manifest(&bytes).unwrap();
        assert_eq!(back.generation, 3);
        assert_eq!(back.base_lsn, 99);
        assert_eq!(back.next_page, 12);
        assert_eq!(back.entries, m.entries);
        for cut in 0..bytes.len() {
            assert!(decode_manifest(&bytes[..cut]).is_err(), "truncation at {cut}");
        }
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 0x40;
            assert!(decode_manifest(&bad).is_err(), "flip at byte {byte} slipped through");
        }
    }
}
