//! Stable URL routing: [`PageKey`] ⇄ URL path.
//!
//! URLs are derived from the page's Skolem symbol and its fully evaluated
//! argument values, so they are *stable*: the same page has the same URL
//! across server restarts, cache flushes, and data deltas (unlike
//! session-local numeric ids, which shuffle on every restart). Each
//! argument is one typed, percent-encoded path segment:
//!
//! ```text
//! /page/ArticlePage/n:a17        node argument, by symbolic name
//! /page/CategoryPage/s:sports    string argument
//! /page/YearPage/i:1998          integer argument
//! /page/Split/f:2.5/b:true       float and boolean arguments
//! /page/Mirror/u:http%3A%2F%2F…  URL argument
//! /page/Scan/F:image:covers%2Fx  typed-file argument (kind:path)
//! /page/Anon/o:42                anonymous node, by object index
//! /data/n:a17                    raw data-graph object view
//! ```
//!
//! Named nodes are addressed by name (`n:`), which survives any delta
//! that preserves the node; anonymous nodes fall back to their object
//! index (`o:`), stable only as long as no delta renumbers the graph.

use strudel_graph::{FileKind, Graph, Oid, Value};
use strudel_schema::dynamic::PageKey;

/// Routes a request path to one of `n` cluster worker shards by FNV-1a
/// hash of the path bytes. FNV is specified byte-for-byte (unlike
/// `DefaultHasher`, whose algorithm may change between Rust releases),
/// so the page → shard assignment is stable across builds and processes.
/// Because URLs are themselves stable (see module docs), a page lands on
/// the same shard across restarts, deltas, and redeploys.
pub fn shard_of_path(path: &str, n: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in path.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % n as u64) as usize
}

/// Percent-encodes every byte outside the URL-unreserved set
/// (ASCII alphanumerics and `-._~`).
pub fn pct_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    pct_encode_into(&mut out, s);
    out
}

/// [`pct_encode`], appending to `out`.
fn pct_encode_into(out: &mut String, s: &str) {
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' => {
                out.push(b as char)
            }
            _ => {
                out.push('%');
                out.push(char::from_digit((b >> 4) as u32, 16).unwrap().to_ascii_uppercase());
                out.push(char::from_digit((b & 0xf) as u32, 16).unwrap().to_ascii_uppercase());
            }
        }
    }
}

/// Decodes a percent-encoded segment. Returns `None` on malformed escapes
/// or invalid UTF-8.
pub fn pct_decode(s: &str) -> Option<String> {
    let mut out = Vec::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hi = char::from(*bytes.get(i + 1)?).to_digit(16)?;
                let lo = char::from(*bytes.get(i + 2)?).to_digit(16)?;
                out.push(((hi << 4) | lo) as u8);
                i += 3;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

fn file_kind_tag(kind: FileKind) -> &'static str {
    match kind {
        FileKind::Text => "text",
        FileKind::PostScript => "ps",
        FileKind::Image => "image",
        FileKind::Html => "html",
    }
}

fn parse_file_kind(tag: &str) -> Option<FileKind> {
    Some(match tag {
        "text" => FileKind::Text,
        "ps" => FileKind::PostScript,
        "image" => FileKind::Image,
        "html" => FileKind::Html,
        _ => return None,
    })
}

/// Encodes one argument value as a typed path segment, appending to `out`.
fn encode_value_into(out: &mut String, v: &Value, graph: &Graph) {
    use std::fmt::Write;
    let (tag, text) = match v {
        Value::Node(oid) => match graph.node_name(*oid) {
            Some(name) => ("n:", name),
            None => {
                let _ = write!(out, "o:{}", oid.index());
                return;
            }
        },
        Value::Int(i) => {
            let _ = write!(out, "i:{i}");
            return;
        }
        Value::Float(f) => {
            let _ = write!(out, "f:{f}");
            return;
        }
        Value::Bool(b) => {
            let _ = write!(out, "b:{b}");
            return;
        }
        Value::Str(s) => ("s:", &**s),
        Value::Url(u) => ("u:", &**u),
        Value::File(f) => {
            let _ = write!(out, "F:{}:", file_kind_tag(f.kind));
            ("", &*f.path)
        }
    };
    out.push_str(tag);
    pct_encode_into(out, text);
}

/// Decodes one typed path segment back into a value. Node segments are
/// resolved against `graph`; a dangling name or out-of-range index is
/// `None` (a 404, not a panic).
pub fn decode_value(seg: &str, graph: &Graph) -> Option<Value> {
    let (tag, rest) = seg.split_once(':')?;
    match tag {
        "n" => graph.node_by_name(&pct_decode(rest)?).map(Value::Node),
        "o" => {
            let idx: usize = rest.parse().ok()?;
            (idx < graph.node_count()).then(|| Value::Node(Oid::from_index(idx)))
        }
        "i" => rest.parse().ok().map(Value::Int),
        "f" => rest.parse().ok().map(Value::Float),
        "b" => rest.parse().ok().map(Value::Bool),
        "s" => Some(Value::string(pct_decode(rest)?)),
        "u" => Some(Value::url(pct_decode(rest)?)),
        "F" => {
            let (kind, path) = rest.split_once(':')?;
            Some(Value::file(parse_file_kind(kind)?, pct_decode(path)?))
        }
        _ => None,
    }
}

/// The URL path serving `key`.
pub fn page_path(key: &PageKey, graph: &Graph) -> String {
    let mut path = String::with_capacity(32 * (1 + key.args.len()));
    write_page_path(&mut path, key, graph);
    path
}

/// [`page_path`], appending to `out`.
pub fn write_page_path(out: &mut String, key: &PageKey, graph: &Graph) {
    out.push_str("/page/");
    pct_encode_into(out, &key.symbol);
    for arg in &key.args {
        out.push('/');
        encode_value_into(out, arg, graph);
    }
}

/// Parses a `/page/…` path back into a [`PageKey`]. `None` means the path
/// is not a well-formed page URL for this graph (a 404).
pub fn parse_page_path(path: &str, graph: &Graph) -> Option<PageKey> {
    let rest = path.strip_prefix("/page/")?;
    let mut segs = rest.split('/');
    let symbol = pct_decode(segs.next()?)?;
    if symbol.is_empty() {
        return None;
    }
    let mut args = Vec::new();
    for seg in segs {
        args.push(decode_value(seg, graph)?);
    }
    Some(PageKey { symbol, args })
}

/// The URL path of the raw data-graph view of `oid`.
pub fn data_path(oid: Oid, graph: &Graph) -> String {
    let mut path = String::new();
    write_data_path(&mut path, oid, graph);
    path
}

/// [`data_path`], appending to `out`.
pub fn write_data_path(out: &mut String, oid: Oid, graph: &Graph) {
    out.push_str("/data/");
    encode_value_into(out, &Value::Node(oid), graph);
}

/// Parses a `/data/…` path back into a data-graph object.
pub fn parse_data_path(path: &str, graph: &Graph) -> Option<Oid> {
    let seg = path.strip_prefix("/data/")?;
    if seg.contains('/') {
        return None;
    }
    match decode_value(seg, graph)? {
        Value::Node(oid) => Some(oid),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strudel_graph::Graph;

    fn graph() -> Graph {
        let mut g = Graph::new();
        g.add_named_node("a17");
        g.add_node();
        g
    }

    #[test]
    fn pct_round_trips_hostile_strings() {
        for s in [
            "plain",
            "with space",
            "slash/and?query&frag#",
            "per%cent",
            "naïve — ünïcode ✓",
            "",
            "a:b:c",
        ] {
            assert_eq!(pct_decode(&pct_encode(s)).as_deref(), Some(s), "{s:?}");
        }
    }

    #[test]
    fn pct_decode_rejects_malformed() {
        assert_eq!(pct_decode("%"), None);
        assert_eq!(pct_decode("%g1"), None);
        assert_eq!(pct_decode("%2"), None);
        assert_eq!(pct_decode("%ff%fe"), None, "invalid utf-8");
    }

    #[test]
    fn page_path_round_trips_every_value_type() {
        let g = graph();
        let named = g.node_by_name("a17").unwrap();
        let key = PageKey {
            symbol: "Mixed Page".into(),
            args: vec![
                Value::Node(named),
                Value::Node(Oid::from_index(1)),
                Value::Int(-3),
                Value::Float(2.5),
                Value::Bool(true),
                Value::string("World Cup / final %"),
                Value::url("http://example.org/x?y=1"),
                Value::file(FileKind::Image, "covers/x.gif"),
            ],
        };
        let path = page_path(&key, &g);
        assert_eq!(parse_page_path(&path, &g), Some(key));
    }

    #[test]
    fn unknown_segments_are_rejected() {
        let g = graph();
        assert_eq!(parse_page_path("/page/P/x:1", &g), None);
        assert_eq!(parse_page_path("/page/P/i:notanint", &g), None);
        assert_eq!(parse_page_path("/page/P/n:ghost", &g), None);
        assert_eq!(parse_page_path("/page/P/o:99", &g), None);
        assert_eq!(parse_page_path("/page/", &g), None);
        assert_eq!(parse_page_path("/elsewhere/P", &g), None);
    }

    #[test]
    fn data_path_round_trips() {
        let g = graph();
        for oid in [g.node_by_name("a17").unwrap(), Oid::from_index(1)] {
            let path = data_path(oid, &g);
            assert_eq!(parse_data_path(&path, &g), Some(oid));
        }
        assert_eq!(parse_data_path("/data/i:3", &g), None, "not a node");
        assert_eq!(parse_data_path("/data/n:a17/extra", &g), None);
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        // Pinned values: FNV-1a is specified byte-for-byte, so these
        // must never change across builds or platforms.
        assert_eq!(shard_of_path("/page/ArticlePage/n:a17", 4), 3);
        assert_eq!(shard_of_path("/", 4), 2);
        for n in 1..=8 {
            for path in ["/", "/page/A/n:x", "/data/o:3", "/metrics"] {
                let s = shard_of_path(path, n);
                assert!(s < n);
                assert_eq!(s, shard_of_path(path, n), "deterministic");
            }
        }
        assert_eq!(shard_of_path("/anything", 1), 0);
        assert_eq!(shard_of_path("/anything", 0), 0);
    }
}
