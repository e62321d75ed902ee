//! Graph-on-pages record layout.
//!
//! The paged store splits a site graph into logical segments, each
//! encoded to a byte record and spread over a page chain:
//!
//! * **catalog** — the label table (in intern order), the collection name
//!   table (in creation order), and the node count. Small and rewritten
//!   whenever a delta introduces a label, collection, or node.
//! * **node segments** — `nodes_per_segment` consecutive oids per
//!   segment. Each node record is its optional name, its out-edges in
//!   insertion order (label index + value, in the shared value codec),
//!   and its reverse adjacency (source oid + label index) so
//!   `edges_in`-style scans work straight off pinned pages.
//! * **collection segments** — one per collection: the member values in
//!   insertion order.
//!
//! Decoding is defensive: counts are sanity-checked against the byte
//! budget before any allocation, and every primitive read reports
//! corruption instead of panicking — segment bytes arrive from disk
//! through CRC-checked pages, but the hostile-input property tests feed
//! this module garbage directly.

use crate::codec::{corrupt, read_str, read_value, read_varint, write_str, write_value, write_varint};
use crate::RepoError;
use strudel_graph::Value;

/// Flag bit: the node has a symbolic name.
const FLAG_NAMED: u8 = 1;

/// The catalog segment: interner-order labels, creation-order collection
/// names, and the node count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Catalog {
    /// Edge labels, in intern order (indexes are stable forever).
    pub labels: Vec<String>,
    /// Collection names, in creation order.
    pub collections: Vec<String>,
    /// Total nodes in the store.
    pub node_count: u64,
}

/// One node's record inside a node segment.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeRec {
    /// Optional symbolic name.
    pub name: Option<String>,
    /// Out-edges in insertion order: (label index, target value).
    pub edges: Vec<(u32, Value)>,
    /// Reverse adjacency in insertion order: (source oid, label index).
    pub rev: Vec<(u64, u32)>,
}

/// Serializes the catalog.
pub fn encode_catalog(c: &Catalog) -> Vec<u8> {
    let mut w = Vec::new();
    write_varint(&mut w, c.labels.len() as u64).expect("vec write");
    for l in &c.labels {
        write_str(&mut w, l).expect("vec write");
    }
    write_varint(&mut w, c.collections.len() as u64).expect("vec write");
    for n in &c.collections {
        write_str(&mut w, n).expect("vec write");
    }
    write_varint(&mut w, c.node_count).expect("vec write");
    w
}

/// Reads a count that claims `count` further items out of `remaining`
/// input bytes; every item takes at least one byte, so anything larger
/// is corrupt (and would otherwise drive a giant allocation).
fn checked_count(count: u64, remaining: usize, offset: u64) -> Result<usize, RepoError> {
    if count > remaining as u64 {
        return Err(corrupt(offset, format!("count {count} exceeds input")));
    }
    Ok(count as usize)
}

/// Deserializes a catalog record.
pub fn decode_catalog(bytes: &[u8]) -> Result<Catalog, RepoError> {
    let mut r = bytes;
    let mut offset = 0u64;
    let n = read_varint(&mut r, &mut offset)?;
    let n = checked_count(n, r.len(), offset)?;
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        labels.push(read_str(&mut r, &mut offset)?);
    }
    let n = read_varint(&mut r, &mut offset)?;
    let n = checked_count(n, r.len(), offset)?;
    let mut collections = Vec::with_capacity(n);
    for _ in 0..n {
        collections.push(read_str(&mut r, &mut offset)?);
    }
    let node_count = read_varint(&mut r, &mut offset)?;
    if !r.is_empty() {
        return Err(corrupt(offset, "trailing bytes after catalog"));
    }
    Ok(Catalog {
        labels,
        collections,
        node_count,
    })
}

/// Serializes a node segment (the records of its oid range, in order).
pub fn encode_nodes(recs: &[NodeRec]) -> Vec<u8> {
    let mut w = Vec::new();
    write_varint(&mut w, recs.len() as u64).expect("vec write");
    for rec in recs {
        let flags = if rec.name.is_some() { FLAG_NAMED } else { 0 };
        w.push(flags);
        if let Some(name) = &rec.name {
            write_str(&mut w, name).expect("vec write");
        }
        write_varint(&mut w, rec.edges.len() as u64).expect("vec write");
        for (label, to) in &rec.edges {
            write_varint(&mut w, *label as u64).expect("vec write");
            write_value(&mut w, to).expect("vec write");
        }
        write_varint(&mut w, rec.rev.len() as u64).expect("vec write");
        for (from, label) in &rec.rev {
            write_varint(&mut w, *from).expect("vec write");
            write_varint(&mut w, *label as u64).expect("vec write");
        }
    }
    w
}

/// Deserializes a node segment.
pub fn decode_nodes(bytes: &[u8]) -> Result<Vec<NodeRec>, RepoError> {
    let mut r = bytes;
    let mut offset = 0u64;
    let n = read_varint(&mut r, &mut offset)?;
    let n = checked_count(n, r.len(), offset)?;
    let mut recs = Vec::with_capacity(n);
    for _ in 0..n {
        let mut flags = [0u8; 1];
        std::io::Read::read_exact(&mut r, &mut flags)?;
        offset += 1;
        if flags[0] & !FLAG_NAMED != 0 {
            return Err(corrupt(offset, format!("unknown node flags {:#x}", flags[0])));
        }
        let name = if flags[0] & FLAG_NAMED != 0 {
            Some(read_str(&mut r, &mut offset)?)
        } else {
            None
        };
        let ec = read_varint(&mut r, &mut offset)?;
        let ec = checked_count(ec, r.len(), offset)?;
        let mut edges = Vec::with_capacity(ec);
        for _ in 0..ec {
            let label = read_varint(&mut r, &mut offset)?;
            let label = u32::try_from(label).map_err(|_| corrupt(offset, "label index overflow"))?;
            edges.push((label, read_value(&mut r, &mut offset)?));
        }
        let rc = read_varint(&mut r, &mut offset)?;
        let rc = checked_count(rc, r.len(), offset)?;
        let mut rev = Vec::with_capacity(rc);
        for _ in 0..rc {
            let from = read_varint(&mut r, &mut offset)?;
            let label = read_varint(&mut r, &mut offset)?;
            let label = u32::try_from(label).map_err(|_| corrupt(offset, "label index overflow"))?;
            rev.push((from, label));
        }
        recs.push(NodeRec { name, edges, rev });
    }
    if !r.is_empty() {
        return Err(corrupt(offset, "trailing bytes after node segment"));
    }
    Ok(recs)
}

/// Serializes a collection's member list.
pub fn encode_members(members: &[Value]) -> Vec<u8> {
    let mut w = Vec::new();
    write_varint(&mut w, members.len() as u64).expect("vec write");
    for m in members {
        write_value(&mut w, m).expect("vec write");
    }
    w
}

/// Deserializes a collection's member list.
pub fn decode_members(bytes: &[u8]) -> Result<Vec<Value>, RepoError> {
    let mut r = bytes;
    let mut offset = 0u64;
    let n = read_varint(&mut r, &mut offset)?;
    let n = checked_count(n, r.len(), offset)?;
    let mut members = Vec::with_capacity(n);
    for _ in 0..n {
        members.push(read_value(&mut r, &mut offset)?);
    }
    if !r.is_empty() {
        return Err(corrupt(offset, "trailing bytes after members"));
    }
    Ok(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use strudel_graph::Oid;

    #[test]
    fn catalog_round_trips() {
        let c = Catalog {
            labels: vec!["title".into(), "year".into()],
            collections: vec!["Pubs".into()],
            node_count: 42,
        };
        assert_eq!(decode_catalog(&encode_catalog(&c)).unwrap(), c);
        let empty = Catalog::default();
        assert_eq!(decode_catalog(&encode_catalog(&empty)).unwrap(), empty);
    }

    #[test]
    fn node_segment_round_trips() {
        let recs = vec![
            NodeRec {
                name: Some("a".into()),
                edges: vec![
                    (0, Value::string("Strudel")),
                    (1, Value::Node(Oid::from_index(1))),
                ],
                rev: vec![(1, 1)],
            },
            NodeRec {
                name: None,
                edges: vec![],
                rev: vec![(0, 1)],
            },
        ];
        assert_eq!(decode_nodes(&encode_nodes(&recs)).unwrap(), recs);
    }

    #[test]
    fn members_round_trip() {
        let m = vec![
            Value::Node(Oid::from_index(3)),
            Value::Int(-7),
            Value::string("x"),
        ];
        assert_eq!(decode_members(&encode_members(&m)).unwrap(), m);
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A claimed count of u64::MAX with 2 bytes of input must be
        // rejected before any allocation happens.
        let mut bytes = Vec::new();
        write_varint(&mut bytes, u64::MAX).unwrap();
        assert!(decode_catalog(&bytes).is_err());
        assert!(decode_nodes(&bytes).is_err());
        assert!(decode_members(&bytes).is_err());
    }
}
