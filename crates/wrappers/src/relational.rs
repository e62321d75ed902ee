//! Relational wrapper: CSV tables → data graph.
//!
//! The AT&T site's personnel and organization data lived in "small
//! relational databases" (§5.1); this wrapper plays the role of their AWK
//! scripts. One CSV document is one table: the header row names the
//! columns, each data row becomes one object in a collection named after
//! the table.
//!
//! Semistructured conventions:
//!
//! * an **empty cell produces no edge** — a missing attribute, not a NULL;
//! * cell values that parse as integers or floats become typed values;
//!   `column:type` header annotations (`:int`, `:float`, `:string`,
//!   `:url`, `:text`, `:image`, `:postscript`, `:html`) force a type;
//! * the key column (first column by default) names the object
//!   `<table>_<key>`, so other tables can reference rows by name —
//!   foreign keys become graph edges after mediation.

use crate::WrapError;
use std::borrow::Cow;
use std::fmt::Write;
use strudel_graph::{FileKind, Graph, Label, Value};

/// Options for one table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableOptions {
    /// Table (and collection) name.
    pub table: String,
    /// Index of the key column.
    pub key_column: usize,
}

impl TableOptions {
    /// Options for a table named `table`, keyed by its first column.
    pub fn new(table: &str) -> Self {
        TableOptions {
            table: table.to_owned(),
            key_column: 0,
        }
    }
}

/// Column types forced by header annotations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ColType {
    Infer,
    Int,
    Float,
    Str,
    Url,
    File(FileKind),
}

/// Wraps one CSV table into a fresh graph.
pub fn wrap(csv: &str, opts: &TableOptions) -> Result<Graph, WrapError> {
    let mut g = Graph::new();
    wrap_into(csv, opts, &mut g)?;
    Ok(g)
}

/// Wraps one CSV table into an existing graph.
pub fn wrap_into(csv: &str, opts: &TableOptions, g: &mut Graph) -> Result<(), WrapError> {
    let mut rows = parse_csv(csv)?.into_iter();
    let Some(header) = rows.next() else {
        return Err(WrapError::new("relational", 1, "missing header row"));
    };
    if opts.key_column >= header.len() {
        return Err(WrapError::new(
            "relational",
            1,
            format!(
                "key column {} out of range ({} columns)",
                opts.key_column,
                header.len()
            ),
        ));
    }
    let columns: Vec<(String, ColType)> = header
        .iter()
        .map(|h| {
            let (name, ty) = match h.rsplit_once(':') {
                Some((n, t)) => (n.trim(), t.trim()),
                None => (h.trim(), ""),
            };
            let ty = match ty {
                "" => ColType::Infer,
                "int" => ColType::Int,
                "float" => ColType::Float,
                "string" | "str" => ColType::Str,
                "url" => ColType::Url,
                "text" => ColType::File(FileKind::Text),
                "image" => ColType::File(FileKind::Image),
                "postscript" | "ps" => ColType::File(FileKind::PostScript),
                "html" => ColType::File(FileKind::Html),
                _ => ColType::Infer, // unknown annotation: keep the colon name
            };
            if matches!(ty, ColType::Infer) {
                // Unknown or absent annotation: keep the full header text.
                (h.trim().to_owned(), ColType::Infer)
            } else {
                (name.to_owned(), ty)
            }
        })
        .collect();

    let cid = g.intern_collection(&opts.table);
    // Each column's label, interned by its first non-empty cell: label
    // ids follow first use, as they do for every wrapper.
    let mut labels: Vec<Option<Label>> = vec![None; columns.len()];
    let mut node_name = String::new();
    for (line_no, row) in rows.enumerate() {
        if row.len() != columns.len() {
            return Err(WrapError::new(
                "relational",
                line_no as u32 + 2,
                format!(
                    "row has {} cells, header has {} columns",
                    row.len(),
                    columns.len()
                ),
            ));
        }
        let key = row[opts.key_column].trim();
        if key.is_empty() {
            return Err(WrapError::new(
                "relational",
                line_no as u32 + 2,
                "empty key cell",
            ));
        }
        node_name.clear();
        let _ = write!(node_name, "{}_{}", opts.table, key);
        let node = g.add_named_node(&node_name);
        g.collect(cid, Value::Node(node));
        for (((name, ty), label), cell) in columns.iter().zip(&mut labels).zip(&row) {
            let cell = cell.trim();
            if cell.is_empty() {
                continue; // missing attribute, the semistructured way
            }
            let label = *label.get_or_insert_with(|| g.intern_label(name));
            g.add_edge(node, label, type_cell(cell, *ty));
        }
    }
    Ok(())
}

fn type_cell(cell: &str, ty: ColType) -> Value {
    match ty {
        ColType::Int => cell
            .parse::<i64>()
            .map(Value::Int)
            .unwrap_or_else(|_| Value::string(cell)),
        ColType::Float => cell
            .parse::<f64>()
            .map(Value::Float)
            .unwrap_or_else(|_| Value::string(cell)),
        ColType::Str => Value::string(cell),
        ColType::Url => Value::url(cell),
        ColType::File(k) => Value::file(k, cell),
        // A cell that no number can start with is a string: skip both
        // parses.
        ColType::Infer if !may_start_number(cell) => Value::string(cell),
        ColType::Infer => {
            if let Ok(i) = cell.parse::<i64>() {
                Value::Int(i)
            } else if let Ok(f) = cell.parse::<f64>() {
                Value::Float(f)
            } else {
                Value::string(cell)
            }
        }
    }
}

/// Whether `cell` can start an `i64` or `f64` as `str::parse` reads them:
/// a sign, a digit, a decimal point, or the `inf`, `infinity` and `nan`
/// spellings in any case.
fn may_start_number(cell: &str) -> bool {
    matches!(
        cell.as_bytes().first(),
        Some(b'0'..=b'9' | b'+' | b'-' | b'.' | b'i' | b'I' | b'n' | b'N')
    )
}

/// One field under construction: a range of the source for as long as
/// its bytes are contiguous there, an owned copy once they are not (a
/// doubled quote, a dropped `\r`, text after a closing quote).
#[derive(Default)]
struct Field {
    start: usize,
    end: usize,
    owned: Option<String>,
}

impl Field {
    fn push(&mut self, src: &str, from: usize, to: usize) {
        if from == to {
            return;
        }
        match &mut self.owned {
            Some(o) => o.push_str(&src[from..to]),
            None if self.start == self.end => (self.start, self.end) = (from, to),
            None if self.end == from => self.end = to,
            None => self.owned = Some([&src[self.start..self.end], &src[from..to]].concat()),
        }
    }

    fn is_empty(&self) -> bool {
        self.owned
            .as_ref()
            .map_or(self.start == self.end, String::is_empty)
    }

    fn take<'s>(&mut self, src: &'s str) -> Cow<'s, str> {
        let f = std::mem::take(self);
        f.owned
            .map_or(Cow::Borrowed(&src[f.start..f.end]), Cow::Owned)
    }
}

/// A small RFC-4180-ish CSV parser: quoted fields, embedded commas,
/// doubled quotes, CRLF or LF line endings. Blank lines are skipped.
/// Fields borrow from `src` unless quoting made them discontiguous.
pub fn parse_csv(src: &str) -> Result<Vec<Vec<Cow<'_, str>>>, WrapError> {
    let bytes = src.as_bytes();
    let mut rows = Vec::new();
    let mut row: Vec<Cow<'_, str>> = Vec::new();
    let mut field = Field::default();
    let mut line = 1u32;
    // Whether the current line has produced anything (a blank one is skipped).
    let mut any = false;
    let mut pos = 0;

    while pos < bytes.len() {
        // Everything up to the next delimiter is field text.
        let stop = bytes[pos..]
            .iter()
            .position(|b| matches!(b, b'"' | b',' | b'\r' | b'\n'))
            .map_or(bytes.len(), |i| pos + i);
        if stop > pos {
            field.push(src, pos, stop);
            any = true;
        }
        let Some(&delimiter) = bytes.get(stop) else {
            break;
        };
        pos = stop + 1;
        match delimiter {
            b'"' => {
                if !field.is_empty() {
                    return Err(WrapError::new(
                        "relational",
                        line,
                        "quote in the middle of an unquoted field",
                    ));
                }
                any = true;
                // Quoted text runs to the first quote that is not doubled.
                loop {
                    let Some(close) = src[pos..].find('"').map(|i| pos + i) else {
                        line += count_newlines(&bytes[pos..]);
                        return Err(WrapError::new("relational", line, "unterminated quote"));
                    };
                    line += count_newlines(&bytes[pos..close]);
                    if bytes.get(close + 1) == Some(&b'"') {
                        field.push(src, pos, close + 1);
                        pos = close + 2;
                    } else {
                        field.push(src, pos, close);
                        pos = close + 1;
                        break;
                    }
                }
            }
            b',' => {
                row.push(field.take(src));
                any = true;
            }
            b'\r' => {}
            _ => {
                line += 1;
                if any || !field.is_empty() {
                    row.push(field.take(src));
                    rows.push(std::mem::take(&mut row));
                }
                any = false;
            }
        }
    }
    if any || !field.is_empty() {
        row.push(field.take(src));
        rows.push(row);
    }
    Ok(rows)
}

fn count_newlines(bytes: &[u8]) -> u32 {
    bytes.iter().filter(|&&b| b == b'\n').count() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    const PEOPLE: &str = "\
id,name,dept,phone,room:string,homepage:url
mff,Mary Fernandez,db,5551234,B-101,http://example.org/mff
suciu,Dan Suciu,db,,B-102,
kang,Jaewoo Kang,systems,5559999,,
";

    #[test]
    fn wraps_rows_as_objects() {
        let g = wrap(PEOPLE, &TableOptions::new("People")).unwrap();
        assert_eq!(g.members_str("People").len(), 3);
        let mff = g.node_by_name("People_mff").unwrap();
        assert_eq!(
            g.first_attr_str(mff, "name").unwrap().as_str(),
            Some("Mary Fernandez")
        );
        assert_eq!(g.first_attr_str(mff, "phone"), Some(&Value::Int(5551234)));
        assert!(matches!(
            g.first_attr_str(mff, "homepage"),
            Some(Value::Url(_))
        ));
        // room:string forces string even though B-101 is stringish anyway.
        assert_eq!(g.first_attr_str(mff, "room").unwrap().as_str(), Some("B-101"));
    }

    #[test]
    fn empty_cells_produce_no_edges() {
        let g = wrap(PEOPLE, &TableOptions::new("People")).unwrap();
        let suciu = g.node_by_name("People_suciu").unwrap();
        assert_eq!(g.attr_str(suciu, "phone").count(), 0);
        assert_eq!(g.attr_str(suciu, "homepage").count(), 0);
        let kang = g.node_by_name("People_kang").unwrap();
        assert_eq!(g.attr_str(kang, "room").count(), 0);
    }

    #[test]
    fn quoted_fields_with_commas() {
        let csv = "id,title\n1,\"Hello, world\"\n2,\"She said \"\"hi\"\"\"\n";
        let g = wrap(csv, &TableOptions::new("T")).unwrap();
        let one = g.node_by_name("T_1").unwrap();
        assert_eq!(
            g.first_attr_str(one, "title").unwrap().as_str(),
            Some("Hello, world")
        );
        let two = g.node_by_name("T_2").unwrap();
        assert_eq!(
            g.first_attr_str(two, "title").unwrap().as_str(),
            Some("She said \"hi\"")
        );
    }

    #[test]
    fn ragged_rows_are_rejected_with_line() {
        let err = wrap("a,b\n1\n", &TableOptions::new("T")).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn missing_header_is_rejected() {
        assert!(wrap("", &TableOptions::new("T")).is_err());
    }

    #[test]
    fn key_column_selectable() {
        let opts = TableOptions {
            table: "T".into(),
            key_column: 1,
        };
        let g = wrap("a,b\n1,x\n2,y\n", &opts).unwrap();
        assert!(g.node_by_name("T_x").is_some());
        assert!(g.node_by_name("T_y").is_some());
    }

    #[test]
    fn key_column_out_of_range() {
        let opts = TableOptions {
            table: "T".into(),
            key_column: 9,
        };
        assert!(wrap("a,b\n1,2\n", &opts).is_err());
    }

    #[test]
    fn multiple_tables_into_one_graph() {
        let mut g = wrap(PEOPLE, &TableOptions::new("People")).unwrap();
        wrap_into(
            "id,name,lead\nstrudel,Strudel,mff\n",
            &TableOptions::new("Projects"),
            &mut g,
        )
        .unwrap();
        assert_eq!(g.members_str("People").len(), 3);
        assert_eq!(g.members_str("Projects").len(), 1);
    }

    #[test]
    fn crlf_and_trailing_newline_tolerated() {
        let g = wrap("a,b\r\n1,2\r\n", &TableOptions::new("T")).unwrap();
        assert_eq!(g.members_str("T").len(), 1);
    }

    #[test]
    fn float_inference() {
        let g = wrap("id,score\nx,2.5\n", &TableOptions::new("T")).unwrap();
        let x = g.node_by_name("T_x").unwrap();
        assert_eq!(g.first_attr_str(x, "score"), Some(&Value::Float(2.5)));
    }

    /// The first-byte filter skips only parses that would fail: `Infer`
    /// types every cell as trying `i64` and then `f64` on it does.
    #[test]
    fn infer_matches_parsing_every_cell() {
        fn reference(cell: &str) -> Value {
            if let Ok(i) = cell.parse::<i64>() {
                Value::Int(i)
            } else if let Ok(f) = cell.parse::<f64>() {
                Value::Float(f)
            } else {
                Value::string(cell)
            }
        }
        let cells = [
            "0", "42", "+7", "-7", "1.5", "+.5", "-.5", ".5", "5.", "1e3", "1E-3", "inf", "INF",
            "-inf", "Infinity", "infinity", "iNfInItY", "nan", "NaN", "-nan", "+NAN", "e5", "E5",
            "x1", "infx", "nanny", "Inform", "+", "-", ".", "1,5", " 1", "☃", "0x10", "_1",
        ];
        // Past `i64`'s range: only the `f64` parse succeeds.
        for cell in cells.into_iter().chain(["9223372036854775808"]) {
            let got = type_cell(cell, ColType::Infer);
            match (&got, &reference(cell)) {
                (Value::Float(a), Value::Float(b)) => assert!(a.total_cmp(b).is_eq(), "{cell}"),
                (got, want) => assert_eq!(got, want, "{cell}"),
            }
        }
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        assert!(parse_csv("a,\"b\nc").is_err());
    }
}
