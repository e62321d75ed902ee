//! The canonical binary encoding of a graph.
//!
//! The full serialized state of a graph: label table, nodes (with
//! optional symbolic names), per-node edge lists, and collections, behind
//! a header carrying the checkpoint generation and a CRC32, so damaged
//! bytes are refused instead of decoded:
//!
//! ```text
//! bytes := MAGIC version:u8 generation:u64le crc:u32le body
//! crc   := crc32(body)                 when generation = 0
//!        | crc32(body ‖ generation)    otherwise
//! ```
//!
//! Nothing here touches a file. Two graphs are equal exactly when
//! [`save_graph`] gives equal bytes, which is what the storage suites and
//! `strudel serve --store` use it for — the byte-equality oracle between
//! a recovered store and an in-memory [`Database`](crate::Database).
//! `save_graph` writes generation 0. The durable store ([`crate::pager`])
//! writes the same encoding as its checkpoint image with the checkpoint
//! generation in the header, which the WAL header is compared against on
//! recovery; the checksum covers a nonzero generation too, so a damaged
//! one is refused rather than read as a different checkpoint.

use crate::codec::{read_str, read_value, read_varint, write_str, write_value, write_varint};
use crate::crc::{crc32, Crc32};
use crate::RepoError;
use std::io::{Read, Write};
use strudel_graph::{Graph, Label, Oid};

const MAGIC: &[u8; 8] = b"STRUSNAP";
const VERSION: u8 = 2;
/// Magic, version, generation, and checksum.
const HEADER_LEN: u64 = 8 + 1 + 8 + 4;

/// Serializes `graph` to `w`.
pub fn save_graph(graph: &Graph, w: &mut impl Write) -> Result<(), RepoError> {
    w.write_all(&encode_image(graph, 0)?)?;
    Ok(())
}

/// The bytes [`save_graph`] writes, with `generation` in the header: the
/// durable store's checkpoint image. One buffer, the header filled in
/// after the body it checksums.
pub(crate) fn encode_image(graph: &Graph, generation: u64) -> Result<Vec<u8>, RepoError> {
    let mut buf = vec![0; HEADER_LEN as usize];
    encode_body(graph, &mut buf)?;
    let crc = checksum(generation, &buf[HEADER_LEN as usize..]);
    buf[..8].copy_from_slice(MAGIC);
    buf[8] = VERSION;
    buf[9..17].copy_from_slice(&generation.to_le_bytes());
    buf[17..21].copy_from_slice(&crc.to_le_bytes());
    Ok(buf)
}

/// The header checksum. Generation 0 leaves it the plain body CRC, so
/// [`save_graph`]'s bytes are the ones pinned before the generation came
/// back.
fn checksum(generation: u64, body: &[u8]) -> u32 {
    if generation == 0 {
        return crc32(body);
    }
    let mut h = Crc32::new();
    h.update(body);
    h.update(&generation.to_le_bytes());
    h.finish()
}

/// Appends the body encoding of `graph` to `w`.
fn encode_body(graph: &Graph, w: &mut Vec<u8>) -> Result<(), RepoError> {
    // Label table, in label order so indexes round-trip.
    write_varint(w, graph.labels().len() as u64)?;
    for (_, name) in graph.labels().iter() {
        write_str(w, name)?;
    }

    // Nodes with optional names.
    write_varint(w, graph.node_count() as u64)?;
    for oid in graph.node_oids() {
        match graph.node_name(oid) {
            Some(n) => {
                w.push(1);
                write_str(w, n)?;
            }
            None => w.push(0),
        }
    }

    // Edges, grouped by source node.
    for oid in graph.node_oids() {
        let edges = graph.edges(oid);
        write_varint(w, edges.len() as u64)?;
        for e in edges {
            write_varint(w, e.label.index() as u64)?;
            write_value(w, &e.to)?;
        }
    }

    // Collections.
    write_varint(w, graph.collection_count() as u64)?;
    for (cid, name) in graph.collections() {
        write_str(w, name)?;
        let members = graph.members(cid);
        write_varint(w, members.len() as u64)?;
        for m in members {
            write_value(w, m)?;
        }
    }
    Ok(())
}

/// Deserializes a graph from `r`, verifying the checksum before decoding
/// anything.
pub fn load_graph(r: &mut impl Read) -> Result<Graph, RepoError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    Ok(load_image(&bytes)?.1)
}

/// Decodes `bytes` to the header's generation and the graph. Never
/// panics: anything malformed is [`RepoError::Corrupt`].
pub(crate) fn load_image(bytes: &[u8]) -> Result<(u64, Graph), RepoError> {
    if bytes.len() < HEADER_LEN as usize {
        return Err(corrupt(0, "shorter than its header"));
    }
    let (header, body) = bytes.split_at(HEADER_LEN as usize);
    if &header[..8] != MAGIC {
        return Err(corrupt(8, "bad snapshot magic"));
    }
    if header[8] != VERSION {
        return Err(corrupt(9, format!("unsupported version {}", header[8])));
    }
    let generation = u64::from_le_bytes(header[9..17].try_into().unwrap());
    let stored_crc = u32::from_le_bytes(header[17..21].try_into().unwrap());
    let computed = checksum(generation, body);
    if computed != stored_crc {
        return Err(corrupt(
            HEADER_LEN,
            format!(
                "body checksum mismatch (stored {stored_crc:#010x}, computed {computed:#010x})"
            ),
        ));
    }
    Ok((generation, decode_body(body)?))
}

fn decode_body(body: &[u8]) -> Result<Graph, RepoError> {
    let r = &mut &body[..];
    let mut offset = HEADER_LEN;
    let mut g = Graph::new();

    let label_count = read_varint(r, &mut offset)? as usize;
    let mut labels: Vec<Label> = Vec::with_capacity(label_count);
    for _ in 0..label_count {
        let name = read_str(r, &mut offset)?;
        labels.push(g.intern_label(&name));
    }

    let node_count = read_varint(r, &mut offset)? as usize;
    for _ in 0..node_count {
        let mut flag = [0u8; 1];
        r.read_exact(&mut flag)?;
        offset += 1;
        match flag[0] {
            0 => {
                g.add_node();
            }
            1 => {
                let name = read_str(r, &mut offset)?;
                let before = g.node_count();
                g.add_named_node(&name);
                if g.node_count() == before {
                    return Err(corrupt(offset, format!("duplicate node name '{name}'")));
                }
            }
            other => return Err(corrupt(offset, format!("bad node flag {other}"))),
        }
    }

    for i in 0..node_count {
        let from = Oid::from_index(i);
        let edge_count = read_varint(r, &mut offset)? as usize;
        for _ in 0..edge_count {
            let label_idx = read_varint(r, &mut offset)? as usize;
            let label = *labels
                .get(label_idx)
                .ok_or_else(|| corrupt(offset, "edge label out of range"))?;
            let to = read_value(r, &mut offset)?;
            if let Some(o) = to.as_node() {
                if o.index() >= node_count {
                    return Err(corrupt(offset, "edge target out of range"));
                }
            }
            g.add_edge(from, label, to);
        }
    }

    let coll_count = read_varint(r, &mut offset)? as usize;
    for _ in 0..coll_count {
        let name = read_str(r, &mut offset)?;
        let cid = g.intern_collection(&name);
        let member_count = read_varint(r, &mut offset)? as usize;
        for _ in 0..member_count {
            let m = read_value(r, &mut offset)?;
            if let Some(o) = m.as_node() {
                if o.index() >= node_count {
                    return Err(corrupt(offset, "collection member out of range"));
                }
            }
            g.collect(cid, m);
        }
    }
    Ok(g)
}

fn corrupt(offset: u64, message: impl Into<String>) -> RepoError {
    RepoError::Corrupt {
        what: "snapshot",
        offset,
        message: message.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strudel_graph::{FileKind, Value};

    fn sample() -> Graph {
        let mut g = Graph::new();
        let a = g.add_named_node("a");
        let b = g.add_node();
        g.add_edge_str(a, "title", Value::string("Strudel"));
        g.add_edge_str(a, "year", Value::Int(1998));
        g.add_edge_str(a, "next", Value::Node(b));
        g.add_edge_str(b, "pic", Value::file(FileKind::Image, "x.gif"));
        g.collect_str("Pubs", a);
        g.collect_str("Years", Value::Int(1998));
        g
    }

    fn round_trip(g: &Graph) -> Graph {
        let mut buf = Vec::new();
        save_graph(g, &mut buf).unwrap();
        load_graph(&mut &buf[..]).unwrap()
    }

    #[test]
    fn snapshot_round_trips() {
        let g = sample();
        let g2 = round_trip(&g);
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        assert_eq!(g2.collection_count(), g.collection_count());
        let a = g2.node_by_name("a").unwrap();
        assert_eq!(g2.first_attr_str(a, "year"), Some(&Value::Int(1998)));
        let b = g2.first_attr_str(a, "next").unwrap().as_node().unwrap();
        assert!(g2
            .first_attr_str(b, "pic")
            .unwrap()
            .is_file_kind(FileKind::Image));
        assert_eq!(g2.members_str("Years"), &[Value::Int(1998)]);
    }

    /// The encoding is an oracle other suites compare bytes through, so
    /// it must not drift: these are the bytes `save_graph(&sample())`
    /// produced at c8e3876, before the snapshot store was deleted.
    #[test]
    fn save_graph_bytes_are_pinned() {
        const PARENT_HEX: &str = "53545255534e4150020000000000000000f97a03eb\
            04057469746c650479656172046e657874037069630201016100030005075374727564656c\
            01019c1f02000101030905782e67696602045075627301000005596561727301019c1f";
        let mut buf = Vec::new();
        save_graph(&sample(), &mut buf).unwrap();
        let hex: String = buf.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, PARENT_HEX);
    }

    #[test]
    fn oids_are_preserved_exactly() {
        let g = sample();
        let g2 = round_trip(&g);
        for oid in g.node_oids() {
            assert_eq!(g.node_name(oid), g2.node_name(oid));
            assert_eq!(g.edges(oid).len(), g2.edges(oid).len());
        }
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = Graph::new();
        let g2 = round_trip(&g);
        assert_eq!(g2.node_count(), 0);
        assert_eq!(g2.edge_count(), 0);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = b"NOTSNAPX\x02".to_vec();
        buf.extend_from_slice(&[0u8; 12]);
        assert!(matches!(
            load_graph(&mut &buf[..]),
            Err(RepoError::Corrupt { .. })
        ));
    }

    #[test]
    fn old_version_is_rejected_not_misread() {
        let g = sample();
        let mut buf = Vec::new();
        save_graph(&g, &mut buf).unwrap();
        buf[8] = 1; // pretend to be the unchecksummed v1 layout
        match load_graph(&mut &buf[..]) {
            Err(RepoError::Corrupt { message, .. }) => {
                assert!(message.contains("version"), "message: {message}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncated_snapshot_is_rejected() {
        let g = sample();
        let mut buf = Vec::new();
        save_graph(&g, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(load_graph(&mut &buf[..]).is_err());
    }

    #[test]
    fn any_corrupted_body_byte_is_rejected() {
        let g = sample();
        let mut clean = Vec::new();
        save_graph(&g, &mut clean).unwrap();
        // Every single-byte corruption of the body fails the checksum —
        // no silent misparse anywhere in the payload.
        for i in HEADER_LEN as usize..clean.len() {
            let mut buf = clean.clone();
            buf[i] ^= 0x55;
            match load_graph(&mut &buf[..]) {
                Err(RepoError::Corrupt { message, .. }) => {
                    assert!(message.contains("checksum"), "byte {i}: {message}");
                }
                other => panic!("byte {i}: expected checksum error, got {other:?}"),
            }
        }
    }

    #[test]
    fn structural_checks_backstop_a_validly_checksummed_body() {
        // Corruption that *recomputes* the checksum (or a writer bug) must
        // still be caught by the structural decode checks, or at least
        // never silently decode to the original graph.
        let g = sample();
        let mut buf = Vec::new();
        save_graph(&g, &mut buf).unwrap();
        let last = buf.len() - 1;
        buf[last] = 0xff;
        let crc = crc32(&buf[HEADER_LEN as usize..]).to_le_bytes();
        buf[17..21].copy_from_slice(&crc);
        assert!(load_graph(&mut &buf[..]).is_err() || {
            let g2 = load_graph(&mut &buf[..]).unwrap();
            g2.edge_count() != g.edge_count() || g2.collection_count() != g.collection_count()
        });
    }
}
