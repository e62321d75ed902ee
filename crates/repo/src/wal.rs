//! Write-ahead log of graph deltas.
//!
//! Each committed [`GraphDelta`] is one checksummed, length-prefixed
//! frame, appended with a single write so a crash can only leave a
//! *prefix* of a frame behind:
//!
//! ```text
//! file    := MAGIC generation:u64le frame*
//! frame   := len:u32le crc:u32le payload[len]    crc = crc32(len ‖ payload)
//! payload := op_count:varint op*
//! ```
//!
//! This is the log of the durable store ([`crate::pager`]), its only
//! caller. The header's generation records which checkpoint image this
//! log extends; [`PagedRepo::open_with`](crate::PagedRepo::open_with)
//! compares the two to detect a crash that landed between a checkpoint's
//! image rename and its WAL truncation (a *stale* log whose frames are
//! already in the image and must not be replayed).
//!
//! Recovery distinguishes two failure shapes:
//!
//! * **torn tail** — the final frame is incomplete or fails its checksum:
//!   a crash mid-append. Committed frames before it are whole; the tail is
//!   discarded and reported via [`ReplayReport::discarded_bytes`].
//! * **mid-log corruption** — a frame fails its checksum (or decodes to
//!   garbage) with more log after it. Appends never rewrite earlier
//!   frames, so this is bit rot or external damage: replay refuses with a
//!   precise [`RepoError::Corrupt`] rather than silently truncating
//!   committed history.
//!
//! One ambiguity is inherent (SQLite's WAL shares it): if a frame's
//! *length field* is corrupted to a value that runs past end-of-file, the
//! log after it is unreachable and the damage is indistinguishable from a
//! torn tail. The checksum covers the length bytes, so any in-file length
//! corruption is still caught.

use crate::codec::{read_str, read_value, read_varint, write_str, write_value, write_varint};
use crate::crc::Crc32;
use crate::vfs::{Vfs, VfsFile};
use crate::RepoError;
use std::io::Read;
use std::path::Path;
use strudel_graph::{DeltaOp, GraphDelta, Oid};

const MAGIC: &[u8; 8] = b"STRUWAL2";
/// Magic plus the generation counter.
pub const HEADER_LEN: u64 = 16;

const OP_ADD_NODE: u8 = 0;
const OP_ADD_NODE_NAMED: u8 = 1;
const OP_ADD_EDGE: u8 = 2;
const OP_REMOVE_EDGE: u8 = 3;
const OP_COLLECT: u8 = 4;
const OP_UNCOLLECT: u8 = 5;

/// An open, appendable write-ahead log.
#[derive(Debug)]
pub struct Wal {
    file: Box<dyn VfsFile>,
}

impl Wal {
    /// Creates a new WAL file at `path` (truncating any existing one) with
    /// a synced header recording `generation`.
    pub fn create_with(vfs: &dyn Vfs, path: &Path, generation: u64) -> Result<Self, RepoError> {
        let mut file = vfs.create(path)?;
        let mut header = [0u8; HEADER_LEN as usize];
        header[..8].copy_from_slice(MAGIC);
        header[8..].copy_from_slice(&generation.to_le_bytes());
        file.write(&header)?;
        file.sync()?;
        Ok(Wal { file })
    }

    /// Opens an existing WAL for appending, creating it (with
    /// `generation`) when missing.
    pub fn open_append_with(
        vfs: &dyn Vfs,
        path: &Path,
        generation: u64,
    ) -> Result<Self, RepoError> {
        if !vfs.exists(path) {
            return Self::create_with(vfs, path, generation);
        }
        Ok(Wal {
            file: vfs.open_append(path)?,
        })
    }

    /// Appends one delta as a single checksummed frame, issued as one
    /// write so a crash tears it into a clean prefix. The frame reaches
    /// the OS; it is durable against power loss once a checkpoint has
    /// written and synced an image that holds it — a standard
    /// group-commit compromise.
    pub fn append(&mut self, delta: &GraphDelta) -> Result<(), RepoError> {
        let mut payload = Vec::with_capacity(16 * delta.len() + 4);
        write_varint(&mut payload, delta.len() as u64)?;
        for op in delta.ops() {
            encode_op(&mut payload, op)?;
        }
        let len = (payload.len() as u32).to_le_bytes();
        let mut h = Crc32::new();
        h.update(&len);
        h.update(&payload);
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&len);
        frame.extend_from_slice(&h.finish().to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.write(&frame)?;
        Ok(())
    }
}

fn encode_op(w: &mut Vec<u8>, op: &DeltaOp) -> Result<(), RepoError> {
    match op {
        DeltaOp::AddNode { name: None } => w.push(OP_ADD_NODE),
        DeltaOp::AddNode { name: Some(n) } => {
            w.push(OP_ADD_NODE_NAMED);
            write_str(w, n)?;
        }
        DeltaOp::AddEdge { from, label, to } => {
            w.push(OP_ADD_EDGE);
            write_varint(w, from.index() as u64)?;
            write_str(w, label)?;
            write_value(w, to)?;
        }
        DeltaOp::RemoveEdge { from, label, to } => {
            w.push(OP_REMOVE_EDGE);
            write_varint(w, from.index() as u64)?;
            write_str(w, label)?;
            write_value(w, to)?;
        }
        DeltaOp::Collect { collection, member } => {
            w.push(OP_COLLECT);
            write_str(w, collection)?;
            write_value(w, member)?;
        }
        DeltaOp::Uncollect { collection, member } => {
            w.push(OP_UNCOLLECT);
            write_str(w, collection)?;
            write_value(w, member)?;
        }
    }
    Ok(())
}

fn decode_op(r: &mut impl Read, offset: &mut u64) -> Result<DeltaOp, RepoError> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    *offset += 1;
    Ok(match tag[0] {
        OP_ADD_NODE => DeltaOp::AddNode { name: None },
        OP_ADD_NODE_NAMED => DeltaOp::AddNode {
            name: Some(read_str(r, offset)?.into()),
        },
        OP_ADD_EDGE => DeltaOp::AddEdge {
            from: Oid::from_index(read_varint(r, offset)? as usize),
            label: read_str(r, offset)?.into(),
            to: read_value(r, offset)?,
        },
        OP_REMOVE_EDGE => DeltaOp::RemoveEdge {
            from: Oid::from_index(read_varint(r, offset)? as usize),
            label: read_str(r, offset)?.into(),
            to: read_value(r, offset)?,
        },
        OP_COLLECT => DeltaOp::Collect {
            collection: read_str(r, offset)?.into(),
            member: read_value(r, offset)?,
        },
        OP_UNCOLLECT => DeltaOp::Uncollect {
            collection: read_str(r, offset)?.into(),
            member: read_value(r, offset)?,
        },
        other => {
            return Err(RepoError::Corrupt {
                what: "wal",
                offset: *offset,
                message: format!("unknown op tag {other}"),
            })
        }
    })
}

/// What a WAL replay recovered.
#[derive(Debug, Default)]
pub struct ReplayReport {
    /// Committed deltas, in append order.
    pub deltas: Vec<GraphDelta>,
    /// Bytes of a torn trailing frame dropped during recovery (0 when the
    /// log ended on a frame boundary).
    pub discarded_bytes: u64,
    /// The checkpoint generation this log extends, from the header.
    pub generation: u64,
    /// The file is shorter than the header: a crash tore the header write
    /// of a freshly created (hence empty) log. The caller should recreate
    /// the log; `generation` is meaningless and `deltas` empty.
    pub torn_header: bool,
}

/// Replays all whole frames of the WAL at `path` through `vfs`.
///
/// A torn tail (incomplete final frame, or a final frame failing its
/// checksum) is discarded and reported via
/// [`ReplayReport::discarded_bytes`]; a checksum or decode failure with
/// more log after it is mid-log corruption and errors precisely. A
/// missing file replays to nothing.
pub fn replay_report_with(vfs: &dyn Vfs, path: &Path) -> Result<ReplayReport, RepoError> {
    if !vfs.exists(path) {
        return Ok(ReplayReport::default());
    }
    let bytes = vfs.read(path)?;
    // A short read would present committed frames as a torn tail and get
    // them truncated away; the (unfaultable) metadata length catches it.
    let disk_len = vfs.len(path)?;
    if bytes.len() as u64 != disk_len {
        return Err(RepoError::Io(std::io::Error::other(format!(
            "wal short read: got {} of {} bytes",
            bytes.len(),
            disk_len
        ))));
    }
    parse_report(&bytes)
}

/// Parses the log bytes `bytes` the way [`replay_report_with`] does,
/// trusting them to be the whole file. The store's read-only replay
/// hands it whatever prefix of a log being appended to it read: a frame
/// cut off by the read is a torn tail, so the result is a committed
/// prefix either way.
pub(crate) fn parse_report(bytes: &[u8]) -> Result<ReplayReport, RepoError> {
    if (bytes.len() as u64) < HEADER_LEN {
        // The header is written in one write: a valid-but-short prefix is
        // a torn header (crash during log creation); anything else is not
        // a WAL.
        let n = bytes.len().min(MAGIC.len());
        if bytes[..n] != MAGIC[..n] {
            return Err(RepoError::Corrupt {
                what: "wal",
                offset: 0,
                message: "bad wal magic".into(),
            });
        }
        return Ok(ReplayReport {
            discarded_bytes: bytes.len() as u64,
            torn_header: true,
            ..ReplayReport::default()
        });
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(RepoError::Corrupt {
            what: "wal",
            offset: 0,
            message: "bad wal magic".into(),
        });
    }
    let generation = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let mut deltas = Vec::new();
    let mut pos = HEADER_LEN as usize;
    let mut discarded_bytes = 0u64;
    while pos < bytes.len() {
        if pos + 8 > bytes.len() {
            discarded_bytes = (bytes.len() - pos) as u64; // torn frame header
            break;
        }
        let len_bytes: [u8; 4] = bytes[pos..pos + 4].try_into().unwrap();
        let len = u32::from_le_bytes(len_bytes) as usize;
        let stored_crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if pos + 8 + len > bytes.len() {
            discarded_bytes = (bytes.len() - pos) as u64; // torn frame body
            break;
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        let mut h = Crc32::new();
        h.update(&len_bytes);
        h.update(payload);
        if h.finish() != stored_crc {
            if pos + 8 + len == bytes.len() {
                // Final frame: a crash can tear the tail into garbage the
                // length field happens to cover. Discard, like any tear.
                discarded_bytes = (bytes.len() - pos) as u64;
                break;
            }
            return Err(RepoError::Corrupt {
                what: "wal",
                offset: pos as u64,
                message: format!(
                    "frame checksum mismatch (stored {stored_crc:#010x}, computed {:#010x}) \
                     with {} bytes of log after it: mid-log corruption, refusing to replay",
                    crc32_of(&len_bytes, payload),
                    bytes.len() - (pos + 8 + len),
                ),
            });
        }
        let mut r = payload;
        let mut offset = pos as u64 + 8;
        let op_count = read_varint(&mut r, &mut offset)? as usize;
        let mut delta = GraphDelta::new();
        for _ in 0..op_count {
            delta.push(decode_op(&mut r, &mut offset)?);
        }
        deltas.push(delta);
        pos += 8 + len;
    }
    Ok(ReplayReport {
        deltas,
        discarded_bytes,
        generation,
        torn_header: false,
    })
}

fn crc32_of(len_bytes: &[u8], payload: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(len_bytes);
    h.update(payload);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::RealVfs;
    use strudel_graph::{Graph, Value};

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("strudel-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// The committed deltas of the log at `path`, in order.
    fn replay(path: &Path) -> Result<Vec<GraphDelta>, RepoError> {
        Ok(replay_report_with(&RealVfs, path)?.deltas)
    }

    fn sample_delta() -> GraphDelta {
        let mut d = GraphDelta::new();
        d.add_node(Some("a"));
        d.add_node(None);
        d.add_edge(Oid::from_index(0), "title", Value::string("Strudel"));
        d.add_edge(Oid::from_index(0), "next", Value::Node(Oid::from_index(1)));
        d.collect("Pubs", Value::Node(Oid::from_index(0)));
        d
    }

    #[test]
    fn append_and_replay_round_trip() {
        let dir = tmpdir("rt");
        let path = dir.join("wal.log");
        let d1 = sample_delta();
        let mut d2 = GraphDelta::new();
        d2.remove_edge(Oid::from_index(0), "title", Value::string("Strudel"));
        d2.uncollect("Pubs", Value::Node(Oid::from_index(0)));
        {
            let mut wal = Wal::create_with(&RealVfs, &path, 0).unwrap();
            wal.append(&d1).unwrap();
            wal.append(&d2).unwrap();
        }
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed, vec![d1.clone(), d2.clone()]);

        // The replayed log rebuilds the same graph.
        let mut g = Graph::new();
        for d in &replayed {
            d.apply(&mut g).unwrap();
        }
        assert_eq!(g.node_count(), 2);
        let a = g.node_by_name("a").unwrap();
        assert_eq!(g.attr_str(a, "title").count(), 0);
        assert_eq!(g.members_str("Pubs").len(), 0);
    }

    #[test]
    fn generation_round_trips_through_header() {
        let dir = tmpdir("gen");
        let path = dir.join("wal.log");
        {
            let mut wal = Wal::create_with(&RealVfs, &path, 7).unwrap();
            wal.append(&sample_delta()).unwrap();
        }
        let report = replay_report_with(&RealVfs, &path).unwrap();
        assert_eq!(report.generation, 7);
        assert_eq!(report.deltas.len(), 1);
        assert!(!report.torn_header);
    }

    #[test]
    fn torn_tail_is_discarded() {
        let dir = tmpdir("torn");
        let path = dir.join("wal.log");
        {
            let mut wal = Wal::create_with(&RealVfs, &path, 0).unwrap();
            wal.append(&sample_delta()).unwrap();
            wal.append(&sample_delta()).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        // Chop mid-way through the second frame.
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.len(), 1);
    }

    #[test]
    fn truncation_mid_record_reports_exact_discarded_bytes() {
        let dir = tmpdir("report");
        let path = dir.join("wal.log");
        {
            let mut wal = Wal::create_with(&RealVfs, &path, 0).unwrap();
            wal.append(&sample_delta()).unwrap();
            wal.append(&sample_delta()).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        let header = HEADER_LEN as usize;
        let frame_len = (full.len() - header) / 2;
        let first_end = header + frame_len;

        // Truncate inside the second frame's body: recovery keeps the
        // first delta and reports exactly the surviving tail bytes.
        let cut = first_end + 11;
        std::fs::write(&path, &full[..cut]).unwrap();
        let report = replay_report_with(&RealVfs, &path).unwrap();
        assert_eq!(report.deltas, vec![sample_delta()]);
        assert_eq!(report.discarded_bytes, (cut - first_end) as u64);

        // Truncate inside the second frame's length/crc prefix.
        let cut = first_end + 2;
        std::fs::write(&path, &full[..cut]).unwrap();
        let report = replay_report_with(&RealVfs, &path).unwrap();
        assert_eq!(report.deltas.len(), 1);
        assert_eq!(report.discarded_bytes, 2);

        // A log ending on a frame boundary discards nothing.
        std::fs::write(&path, &full).unwrap();
        let report = replay_report_with(&RealVfs, &path).unwrap();
        assert_eq!(report.deltas.len(), 2);
        assert_eq!(report.discarded_bytes, 0);
    }

    #[test]
    fn missing_file_replays_empty() {
        let dir = tmpdir("missing");
        assert!(replay(&dir.join("nope.log")).unwrap().is_empty());
    }

    #[test]
    fn bad_magic_errors() {
        let dir = tmpdir("magic");
        let path = dir.join("wal.log");
        std::fs::write(&path, b"GARBAGE!GARBAGE!").unwrap();
        assert!(matches!(replay(&path), Err(RepoError::Corrupt { .. })));
        // Short garbage is bad magic too, not a torn header.
        std::fs::write(&path, b"junk").unwrap();
        assert!(matches!(replay(&path), Err(RepoError::Corrupt { .. })));
    }

    #[test]
    fn short_valid_prefix_is_a_torn_header() {
        let dir = tmpdir("torn-header");
        let path = dir.join("wal.log");
        for cut in [0usize, 3, 8, 12, 15] {
            let mut header = Vec::new();
            header.extend_from_slice(MAGIC);
            header.extend_from_slice(&5u64.to_le_bytes());
            std::fs::write(&path, &header[..cut]).unwrap();
            let report = replay_report_with(&RealVfs, &path).unwrap();
            assert!(report.torn_header, "cut at {cut}");
            assert_eq!(report.discarded_bytes, cut as u64);
            assert!(report.deltas.is_empty());
        }
    }

    #[test]
    fn open_append_continues_log() {
        let dir = tmpdir("append");
        let path = dir.join("wal.log");
        {
            let mut wal = Wal::create_with(&RealVfs, &path, 0).unwrap();
            wal.append(&sample_delta()).unwrap();
        }
        {
            let mut wal = Wal::open_append_with(&RealVfs, &path, 0).unwrap();
            wal.append(&sample_delta()).unwrap();
        }
        assert_eq!(replay(&path).unwrap().len(), 2);
    }

    #[test]
    fn corrupt_mid_log_frame_is_a_precise_error() {
        let dir = tmpdir("corrupt-mid");
        let path = dir.join("wal.log");
        {
            let mut wal = Wal::create_with(&RealVfs, &path, 0).unwrap();
            wal.append(&sample_delta()).unwrap();
            wal.append(&sample_delta()).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte of the *first* frame: checksum fails with
        // more log after it, so this is mid-log corruption, not a tear.
        bytes[HEADER_LEN as usize + 9] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        match replay(&path) {
            Err(RepoError::Corrupt { what, offset, message }) => {
                assert_eq!(what, "wal");
                assert_eq!(offset, HEADER_LEN);
                assert!(message.contains("checksum"), "message: {message}");
                assert!(message.contains("mid-log"), "message: {message}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_final_frame_is_treated_as_torn_tail() {
        let dir = tmpdir("corrupt-tail");
        let path = dir.join("wal.log");
        {
            let mut wal = Wal::create_with(&RealVfs, &path, 0).unwrap();
            wal.append(&sample_delta()).unwrap();
            wal.append(&sample_delta()).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let report = replay_report_with(&RealVfs, &path).unwrap();
        assert_eq!(report.deltas.len(), 1);
        assert!(report.discarded_bytes > 0);
    }

    #[test]
    fn corrupt_length_field_within_file_is_caught() {
        let dir = tmpdir("corrupt-len");
        let path = dir.join("wal.log");
        {
            let mut wal = Wal::create_with(&RealVfs, &path, 0).unwrap();
            wal.append(&sample_delta()).unwrap();
            wal.append(&sample_delta()).unwrap();
            wal.append(&sample_delta()).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Shrink the first frame's length field: the checksum covers the
        // length bytes, so the reframed bytes cannot verify.
        let p = HEADER_LEN as usize;
        let len = u32::from_le_bytes(bytes[p..p + 4].try_into().unwrap());
        bytes[p..p + 4].copy_from_slice(&(len - 2).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(replay(&path), Err(RepoError::Corrupt { .. })));
    }
}
