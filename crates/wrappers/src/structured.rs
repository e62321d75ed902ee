//! Structured-file wrapper: key/value record files → data graph.
//!
//! The AT&T site's project descriptions lived in "structured files"
//! wrapped by "simple AWK programs" (§5.1). The format:
//!
//! ```text
//! # projects.rec — '#' starts a comment line
//! id: strudel
//! name: Strudel
//! member: mff
//! member: suciu          # repeated fields are multi-valued
//! synopsis: Declarative web-site management.
//!
//! id: tukwila            # blank line separates records
//! name: Tukwila
//! ```
//!
//! Repeated fields become multiple edges; a missing field is simply
//! missing (the paper: "some projects omitted the synopsis attribute").
//! Values that parse as integers become `Int`; `http://…`/`https://…`
//! values become URLs; everything else is a string. Continuation lines
//! (indented) append to the previous field.

use crate::WrapError;
use strudel_graph::{Graph, Value};

/// Options for one record file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordOptions {
    /// The collection the records join.
    pub collection: String,
    /// The field naming each record's object (default `id`). The object's
    /// symbolic name is `<collection>_<key>`.
    pub key_field: String,
}

impl RecordOptions {
    /// Options for records in `collection`, keyed by the `id` field.
    pub fn new(collection: &str) -> Self {
        RecordOptions {
            collection: collection.to_owned(),
            key_field: "id".to_owned(),
        }
    }
}

/// Wraps a record file into a fresh graph.
pub fn wrap(src: &str, opts: &RecordOptions) -> Result<Graph, WrapError> {
    let mut g = Graph::new();
    wrap_into(src, opts, &mut g)?;
    Ok(g)
}

/// Wraps a record file into an existing graph.
pub fn wrap_into(src: &str, opts: &RecordOptions, g: &mut Graph) -> Result<(), WrapError> {
    let cid = g.intern_collection(&opts.collection);
    let mut record: Vec<(String, String)> = Vec::new();
    let mut record_start_line = 0u32;

    let flush = |record: &mut Vec<(String, String)>,
                     start: u32,
                     g: &mut Graph|
     -> Result<(), WrapError> {
        if record.is_empty() {
            return Ok(());
        }
        let key = record
            .iter()
            .find(|(f, _)| *f == opts.key_field)
            .map(|(_, v)| v.clone())
            .ok_or_else(|| {
                WrapError::new(
                    "structured",
                    start,
                    format!("record has no '{}' field", opts.key_field),
                )
            })?;
        let node = g.add_named_node(&format!("{}_{}", opts.collection, key));
        g.collect(cid, Value::Node(node));
        for (field, value) in record.drain(..) {
            g.add_edge_str(node, &field, type_value(&value));
        }
        Ok(())
    };

    for (i, raw_line) in src.lines().enumerate() {
        let line_no = i as u32 + 1;
        let line = strip_comment(raw_line);
        if line.trim().is_empty() {
            flush(&mut record, record_start_line, g)?;
            continue;
        }
        // Continuation line: indented, no "field:" prefix required.
        if (raw_line.starts_with(' ') || raw_line.starts_with('\t')) && !line.contains(':') {
            match record.last_mut() {
                Some((_, v)) => {
                    v.push(' ');
                    v.push_str(line.trim());
                    continue;
                }
                None => {
                    return Err(WrapError::new(
                        "structured",
                        line_no,
                        "continuation line with no preceding field",
                    ))
                }
            }
        }
        let Some((field, value)) = line.split_once(':') else {
            return Err(WrapError::new(
                "structured",
                line_no,
                format!("expected 'field: value', found '{}'", line.trim()),
            ));
        };
        if record.is_empty() {
            record_start_line = line_no;
        }
        record.push((field.trim().to_owned(), value.trim().to_owned()));
    }
    flush(&mut record, record_start_line, g)?;
    Ok(())
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

fn type_value(v: &str) -> Value {
    if let Ok(i) = v.parse::<i64>() {
        Value::Int(i)
    } else if v.starts_with("http://") || v.starts_with("https://") {
        Value::url(v)
    } else {
        Value::string(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROJECTS: &str = "\
# research projects
id: strudel
name: Strudel
member: mff
member: suciu
started: 1996
synopsis: Declarative web-site management
homepage: http://example.org/strudel

id: tukwila
name: Tukwila
member: levy
";

    #[test]
    fn wraps_records() {
        let g = wrap(PROJECTS, &RecordOptions::new("Projects")).unwrap();
        assert_eq!(g.members_str("Projects").len(), 2);
        let s = g.node_by_name("Projects_strudel").unwrap();
        assert_eq!(g.attr_str(s, "member").count(), 2);
        assert_eq!(g.first_attr_str(s, "started"), Some(&Value::Int(1996)));
        assert!(matches!(
            g.first_attr_str(s, "homepage"),
            Some(Value::Url(_))
        ));
    }

    #[test]
    fn missing_fields_stay_missing() {
        let g = wrap(PROJECTS, &RecordOptions::new("Projects")).unwrap();
        let t = g.node_by_name("Projects_tukwila").unwrap();
        assert_eq!(g.attr_str(t, "synopsis").count(), 0, "no synopsis field");
        assert_eq!(g.attr_str(t, "homepage").count(), 0);
    }

    #[test]
    fn continuation_lines_append() {
        let src = "id: p\nsynopsis: first part\n   second part\n";
        let g = wrap(src, &RecordOptions::new("P")).unwrap();
        let p = g.node_by_name("P_p").unwrap();
        assert_eq!(
            g.first_attr_str(p, "synopsis").unwrap().as_str(),
            Some("first part second part")
        );
    }

    #[test]
    fn record_without_key_is_rejected() {
        let err = wrap("name: NoId\n", &RecordOptions::new("P")).unwrap_err();
        assert!(err.message.contains("'id'"));
    }

    #[test]
    fn custom_key_field() {
        let opts = RecordOptions {
            collection: "P".into(),
            key_field: "name".into(),
        };
        let g = wrap("name: thing\nvalue: 1\n", &opts).unwrap();
        assert!(g.node_by_name("P_thing").is_some());
    }

    #[test]
    fn malformed_line_reports_position() {
        let err = wrap("id: x\nthis has no colon at all…\n", &RecordOptions::new("P"))
            .unwrap_err();
        // The '…' makes it a non-continuation unindented line.
        assert_eq!(err.line, 2);
    }

    #[test]
    fn comments_are_stripped() {
        let g = wrap("id: x # trailing comment\nv: 1\n", &RecordOptions::new("P")).unwrap();
        assert!(g.node_by_name("P_x").is_some());
    }

    #[test]
    fn multiple_blank_lines_between_records() {
        let g = wrap("id: a\n\n\n\nid: b\n", &RecordOptions::new("P")).unwrap();
        assert_eq!(g.members_str("P").len(), 2);
    }
}
