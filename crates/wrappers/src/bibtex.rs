//! BibTeX wrapper: bibliography files → Publications data graph.
//!
//! Handles the practically relevant core of BibTeX:
//!
//! * `@type{key, field = value, …}` entries with `{…}` (nested), `"…"`,
//!   and bare-number values;
//! * `@string{name = "…"}` macros and `#` concatenation;
//! * anything outside an `@entry` is a comment (that *is* BibTeX's rule);
//! * authors and editors split on the word `and`, each emitted as a
//!   separate `author` edge plus an `authorkey`-indexed presentation node
//!   when order preservation is requested (§6.3: "associating an integer
//!   key with each author … allows us to preserve order in specific, but
//!   common, cases").
//!
//! Field typing follows the paper's data graph (Fig. 2): `year`, `month`
//! numbers become integers; `abstract` values that look like file paths
//! become text files; `postscript`/`ps` become PostScript files; `url`
//! and `homepage` become URLs.

use crate::WrapError;
use std::collections::HashMap;
use strudel_graph::{FileKind, Graph, Value};

/// Options controlling the wrapping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BibtexOptions {
    /// The collection wrapped entries join.
    pub collection: String,
    /// Emit `authorkey` edges (`author1key`, `author2key`, …) recording
    /// author order as integer keys.
    pub author_keys: bool,
}

impl Default for BibtexOptions {
    fn default() -> Self {
        BibtexOptions {
            collection: "Publications".to_owned(),
            author_keys: true,
        }
    }
}

/// Parses a BibTeX document into a fresh data graph.
pub fn wrap(src: &str) -> Result<Graph, WrapError> {
    wrap_with(src, &BibtexOptions::default())
}

/// Parses a BibTeX document with explicit options.
pub fn wrap_with(src: &str, opts: &BibtexOptions) -> Result<Graph, WrapError> {
    let mut g = Graph::new();
    wrap_into(src, opts, &mut g)?;
    Ok(g)
}

/// Parses a BibTeX document into an existing graph.
pub fn wrap_into(src: &str, opts: &BibtexOptions, g: &mut Graph) -> Result<(), WrapError> {
    let entries = parse(src)?;
    let cid = g.intern_collection(&opts.collection);
    for e in entries {
        let node = g.add_named_node(&e.key);
        g.collect(cid, Value::Node(node));
        g.add_edge_str(node, "type", Value::string(e.kind.clone()));
        for (field, value) in &e.fields {
            if field == "author" || field == "editor" {
                for (i, name) in split_authors(value).iter().enumerate() {
                    g.add_edge_str(node, field, Value::string(name.as_str()));
                    if opts.author_keys {
                        let keyed = g.add_node();
                        g.add_edge_str(keyed, "name", Value::string(name.as_str()));
                        g.add_edge_str(keyed, "key", Value::Int(i as i64 + 1));
                        g.add_edge_str(node, &format!("{field}-keyed"), Value::Node(keyed));
                    }
                }
            } else {
                g.add_edge_str(node, field, type_field(field, value));
            }
        }
    }
    Ok(())
}

/// One parsed entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Entry {
    /// Entry type (`article`, `inproceedings`, …), lower-cased.
    pub kind: String,
    /// Citation key.
    pub key: String,
    /// Fields in source order, names lower-cased, values macro-expanded.
    pub fields: Vec<(String, String)>,
}

/// Parses BibTeX source into entries (macros applied, `@string` and
/// `@comment`/`@preamble` blocks consumed).
pub fn parse(src: &str) -> Result<Vec<Entry>, WrapError> {
    let mut p = BibParser {
        bytes: src.as_bytes(),
        src,
        pos: 0,
        line: 1,
        macros: HashMap::new(),
    };
    let mut entries = Vec::new();
    while let Some(entry) = p.next_entry()? {
        entries.push(entry);
    }
    Ok(entries)
}

/// Splits an author field on the (unbraced) word `and`.
pub fn split_authors(field: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut current = String::new();
    let mut words: Vec<String> = Vec::new();
    // Tokenize into whitespace-separated words, tracking brace depth so a
    // braced "{Simon and Garfunkel}" stays one author.
    for c in field.chars() {
        match c {
            '{' => {
                depth += 1;
                current.push(c);
            }
            '}' => {
                depth = depth.saturating_sub(1);
                current.push(c);
            }
            c if c.is_whitespace() && depth == 0 => {
                if !current.is_empty() {
                    words.push(std::mem::take(&mut current));
                }
            }
            c => current.push(c),
        }
    }
    if !current.is_empty() {
        words.push(current);
    }
    let mut acc: Vec<String> = Vec::new();
    for w in words {
        if w == "and" {
            if !acc.is_empty() {
                out.push(acc.join(" "));
                acc.clear();
            }
        } else {
            acc.push(w);
        }
    }
    if !acc.is_empty() {
        out.push(acc.join(" "));
    }
    out.iter().map(|a| strip_braces(a)).collect()
}

fn strip_braces(s: &str) -> String {
    s.chars().filter(|&c| c != '{' && c != '}').collect()
}

/// Types a field value per the Fig. 2 conventions.
fn type_field(field: &str, value: &str) -> Value {
    match field {
        "year" | "volume" | "number" => {
            if let Ok(i) = value.trim().parse::<i64>() {
                return Value::Int(i);
            }
            Value::string(value)
        }
        "url" | "homepage" => Value::url(value),
        "postscript" | "ps" => Value::file(FileKind::PostScript, value),
        "abstract" if looks_like_path(value) => Value::file(FileKind::Text, value),
        "pdf" if looks_like_path(value) => Value::file(FileKind::Text, value),
        _ => Value::string(value),
    }
}

fn looks_like_path(v: &str) -> bool {
    !v.contains(' ') && (v.contains('/') || v.ends_with(".txt") || v.ends_with(".ps"))
}

struct BibParser<'s> {
    bytes: &'s [u8],
    src: &'s str,
    pos: usize,
    line: u32,
    macros: HashMap<String, String>,
}

impl<'s> BibParser<'s> {
    fn err(&self, msg: impl Into<String>) -> WrapError {
        WrapError::new("bibtex", self.line, msg)
    }

    fn bump(&mut self) {
        if self.bytes[self.pos] == b'\n' {
            self.line += 1;
        }
        self.pos += 1;
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.bump();
        }
    }

    /// Advances to the next `@` (everything before it is comment text).
    fn seek_at(&mut self) -> bool {
        while self.pos < self.bytes.len() {
            if self.bytes[self.pos] == b'@' {
                return true;
            }
            self.bump();
        }
        false
    }

    fn ident(&mut self) -> Result<String, WrapError> {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && (self.bytes[self.pos].is_ascii_alphanumeric()
                || matches!(self.bytes[self.pos], b'_' | b'-' | b':' | b'.' | b'+'))
        {
            self.bump();
        }
        if start == self.pos {
            return Err(self.err("expected an identifier"));
        }
        Ok(self.src[start..self.pos].to_owned())
    }

    fn expect(&mut self, c: u8) -> Result<(), WrapError> {
        self.skip_ws();
        if self.pos < self.bytes.len() && self.bytes[self.pos] == c {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", c as char)))
        }
    }

    fn next_entry(&mut self) -> Result<Option<Entry>, WrapError> {
        loop {
            if !self.seek_at() {
                return Ok(None);
            }
            self.bump(); // '@'
            let kind = self.ident()?.to_ascii_lowercase();
            match kind.as_str() {
                "comment" | "preamble" => {
                    self.balanced_block()?;
                    continue;
                }
                "string" => {
                    self.string_macro()?;
                    continue;
                }
                _ => {}
            }
            self.skip_ws();
            let open = if self.pos < self.bytes.len() {
                self.bytes[self.pos]
            } else {
                0
            };
            if open != b'{' && open != b'(' {
                return Err(self.err(format!("expected '{{' after @{kind}")));
            }
            let close = if open == b'{' { b'}' } else { b')' };
            self.bump();
            self.skip_ws();
            let key = self.ident()?;
            self.expect(b',')?;
            let mut fields = Vec::new();
            loop {
                self.skip_ws();
                if self.pos >= self.bytes.len() {
                    return Err(self.err("unterminated entry"));
                }
                if self.bytes[self.pos] == close {
                    self.bump();
                    break;
                }
                let name = self.ident()?.to_ascii_lowercase();
                self.expect(b'=')?;
                let value = self.value()?;
                fields.push((name, value));
                self.skip_ws();
                if self.pos < self.bytes.len() && self.bytes[self.pos] == b',' {
                    self.bump();
                }
            }
            return Ok(Some(Entry { kind, key, fields }));
        }
    }

    /// Consumes `{ … }` with balanced braces (for @comment/@preamble).
    fn balanced_block(&mut self) -> Result<(), WrapError> {
        self.skip_ws();
        if self.pos >= self.bytes.len() || self.bytes[self.pos] != b'{' {
            // Bare @comment without braces: skip the rest of the line.
            while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                self.bump();
            }
            return Ok(());
        }
        self.braced()?;
        Ok(())
    }

    fn string_macro(&mut self) -> Result<(), WrapError> {
        self.expect(b'{')?;
        self.skip_ws();
        let name = self.ident()?.to_ascii_lowercase();
        self.expect(b'=')?;
        let value = self.value()?;
        self.expect(b'}')?;
        self.macros.insert(name, value);
        Ok(())
    }

    /// A field value: concatenation of braced/quoted/bare parts with `#`.
    fn value(&mut self) -> Result<String, WrapError> {
        let mut out = String::new();
        loop {
            self.skip_ws();
            if self.pos >= self.bytes.len() {
                return Err(self.err("unterminated value"));
            }
            match self.bytes[self.pos] {
                b'{' => out.push_str(&self.braced()?),
                b'"' => out.push_str(&self.quoted()?),
                b'0'..=b'9' => {
                    let start = self.pos;
                    while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_digit() {
                        self.bump();
                    }
                    out.push_str(&self.src[start..self.pos]);
                }
                _ => {
                    // Macro reference.
                    let name = self.ident()?.to_ascii_lowercase();
                    match self.macros.get(&name) {
                        Some(v) => out.push_str(v),
                        None => {
                            return Err(self.err(format!("undefined @string macro '{name}'")))
                        }
                    }
                }
            }
            self.skip_ws();
            if self.pos < self.bytes.len() && self.bytes[self.pos] == b'#' {
                self.bump();
            } else {
                return Ok(normalize_ws(&out));
            }
        }
    }

    /// `{ … }` with nesting; inner braces preserved (author grouping needs
    /// them), outer braces stripped.
    fn braced(&mut self) -> Result<String, WrapError> {
        debug_assert_eq!(self.bytes[self.pos], b'{');
        self.bump();
        let start = self.pos;
        let mut depth = 1usize;
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        let s = self.src[start..self.pos].to_owned();
                        self.bump();
                        return Ok(s);
                    }
                }
                _ => {}
            }
            self.bump();
        }
        Err(self.err("unterminated '{' value"))
    }

    fn quoted(&mut self) -> Result<String, WrapError> {
        debug_assert_eq!(self.bytes[self.pos], b'"');
        self.bump();
        let start = self.pos;
        let mut depth = 0usize;
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'{' => depth += 1,
                b'}' => depth = depth.saturating_sub(1),
                b'"' if depth == 0 => {
                    let s = self.src[start..self.pos].to_owned();
                    self.bump();
                    return Ok(s);
                }
                _ => {}
            }
            self.bump();
        }
        Err(self.err("unterminated '\"' value"))
    }
}

fn normalize_ws(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut last_ws = false;
    for c in s.chars() {
        if c.is_whitespace() {
            if !last_ws && !out.is_empty() {
                out.push(' ');
            }
            last_ws = true;
        } else {
            out.push(c);
            last_ws = false;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
        This line is a BibTeX comment.
        @string{sigmod = "SIGMOD Conference"}

        @inproceedings{fernandez98,
          title     = {Catching the {Boat} with Strudel},
          author    = {Mary Fernandez and Daniela Florescu and Alon Levy},
          booktitle = sigmod,
          year      = 1998,
          abstract  = {abs/fernandez98.txt},
          postscript= "papers/fernandez98.ps",
          url       = {http://www.research.att.com/~mff}
        }

        @article{suciu97,
          title   = "Management of " # "semistructured data",
          author  = {Dan Suciu},
          journal = {SIGMOD Record},
          year    = {1997},
          month   = {June}
        }
    "#;

    #[test]
    fn parses_entries_with_macros_and_concatenation() {
        let entries = parse(SAMPLE).unwrap();
        assert_eq!(entries.len(), 2);
        let e = &entries[0];
        assert_eq!(e.kind, "inproceedings");
        assert_eq!(e.key, "fernandez98");
        let get = |k: &str| &e.fields.iter().find(|(f, _)| f == k).unwrap().1;
        assert_eq!(get("booktitle"), "SIGMOD Conference");
        assert_eq!(get("title"), "Catching the {Boat} with Strudel");
        assert_eq!(
            &entries[1].fields.iter().find(|(f, _)| f == "title").unwrap().1,
            "Management of semistructured data"
        );
    }

    #[test]
    fn wrap_builds_publications_graph() {
        let g = wrap(SAMPLE).unwrap();
        assert_eq!(g.members_str("Publications").len(), 2);
        let f98 = g.node_by_name("fernandez98").unwrap();
        assert_eq!(g.first_attr_str(f98, "year"), Some(&Value::Int(1998)));
        assert_eq!(g.attr_str(f98, "author").count(), 3);
        assert!(g
            .first_attr_str(f98, "abstract")
            .unwrap()
            .is_file_kind(FileKind::Text));
        assert!(g
            .first_attr_str(f98, "postscript")
            .unwrap()
            .is_file_kind(FileKind::PostScript));
        assert!(matches!(
            g.first_attr_str(f98, "url"),
            Some(Value::Url(_))
        ));
        assert_eq!(
            g.first_attr_str(f98, "type").unwrap().as_str(),
            Some("inproceedings")
        );
    }

    #[test]
    fn schema_is_irregular_across_entries() {
        let g = wrap(SAMPLE).unwrap();
        let f98 = g.node_by_name("fernandez98").unwrap();
        let s97 = g.node_by_name("suciu97").unwrap();
        assert_eq!(g.attr_str(f98, "journal").count(), 0);
        assert_eq!(g.attr_str(s97, "booktitle").count(), 0);
        assert_eq!(g.attr_str(s97, "month").count(), 1);
        assert_eq!(g.attr_str(f98, "month").count(), 0);
    }

    #[test]
    fn author_order_is_preserved_with_keys() {
        let g = wrap(SAMPLE).unwrap();
        let f98 = g.node_by_name("fernandez98").unwrap();
        let authors: Vec<&str> = g
            .attr_str(f98, "author")
            .filter_map(Value::as_str)
            .collect();
        assert_eq!(
            authors,
            ["Mary Fernandez", "Daniela Florescu", "Alon Levy"]
        );
        // Keyed nodes carry explicit integer order (§6.3).
        let keyed: Vec<_> = g.attr_str(f98, "author-keyed").collect();
        assert_eq!(keyed.len(), 3);
        let first = keyed[0].as_node().unwrap();
        assert_eq!(g.first_attr_str(first, "key"), Some(&Value::Int(1)));
        assert_eq!(
            g.first_attr_str(first, "name").unwrap().as_str(),
            Some("Mary Fernandez")
        );
    }

    #[test]
    fn braced_author_groups_stay_together() {
        let authors = split_authors("Simon {and Garfunkel} and Someone Else");
        assert_eq!(authors, ["Simon and Garfunkel", "Someone Else"]);
    }

    #[test]
    fn author_keys_can_be_disabled() {
        let opts = BibtexOptions {
            author_keys: false,
            ..Default::default()
        };
        let g = wrap_with(SAMPLE, &opts).unwrap();
        let f98 = g.node_by_name("fernandez98").unwrap();
        assert_eq!(g.attr_str(f98, "author-keyed").count(), 0);
        assert_eq!(g.attr_str(f98, "author").count(), 3);
    }

    #[test]
    fn custom_collection_name() {
        let opts = BibtexOptions {
            collection: "Bib".to_owned(),
            ..Default::default()
        };
        let g = wrap_with(SAMPLE, &opts).unwrap();
        assert_eq!(g.members_str("Bib").len(), 2);
        assert_eq!(g.members_str("Publications").len(), 0);
    }

    #[test]
    fn comment_and_preamble_blocks_are_skipped() {
        let src = r#"
            @comment{anything {nested} here}
            @preamble{"\newcommand{\x}{y}"}
            @misc{only, title = {One}}
        "#;
        let entries = parse(src).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].key, "only");
    }

    #[test]
    fn paren_delimited_entries() {
        let entries = parse("@article(k1, title = {T}, year = 2001)").unwrap();
        assert_eq!(entries[0].key, "k1");
        assert_eq!(entries[0].fields.len(), 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("@article{broken,\n  title = {unclosed").unwrap_err();
        assert!(err.line >= 2);
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn undefined_macro_is_an_error() {
        let err = parse("@article{k, title = ghost}").unwrap_err();
        assert!(err.message.contains("ghost"));
    }

    #[test]
    fn multiline_values_normalize_whitespace() {
        let entries = parse("@misc{k, note = {line one\n     line two}}").unwrap();
        assert_eq!(entries[0].fields[0].1, "line one line two");
    }

    #[test]
    fn wrap_into_merges_multiple_files() {
        let mut g = wrap("@misc{a, title={A}}").unwrap();
        wrap_into(
            "@misc{b, title={B}}",
            &BibtexOptions::default(),
            &mut g,
        )
        .unwrap();
        assert_eq!(g.members_str("Publications").len(), 2);
    }
}
