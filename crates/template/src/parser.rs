//! Template parser.
//!
//! Scans HTML text for the three Strudel tags (`<SFMT …>`, `<SIF …> …
//! <SELSE> … </SIF>`, `<SFOR v IN …> … </SFOR>`); everything else passes
//! through verbatim. Tag names are case-insensitive; the paper writes them
//! in upper case.

use crate::ast::*;
use crate::error::TemplateError;

/// Parses a template source.
pub fn parse_template(src: &str) -> Result<Template, TemplateError> {
    let mut p = Parser {
        src,
        pos: 0,
        line: 1,
        attrs: Vec::new(),
    };
    let nodes = p.nodes(&[])?;
    if p.pos < src.len() {
        return Err(TemplateError::new(
            p.line,
            "unexpected closing tag with no matching open tag",
        ));
    }
    Ok(Template {
        nodes,
        line_count: src.lines().count(),
        attrs: p.attrs,
    })
}

struct Parser<'s> {
    src: &'s str,
    pos: usize,
    line: u32,
    /// The template's attribute names, indexed by [`AttrId`].
    attrs: Vec<String>,
}

impl<'s> Parser<'s> {
    /// Parses nodes until EOF or one of `stop` closing/among tags (left
    /// unconsumed).
    fn nodes(&mut self, stop: &[&str]) -> Result<Vec<Node>, TemplateError> {
        let mut out = Vec::new();
        let mut text_start = self.pos;
        while self.pos < self.src.len() {
            if self.src[self.pos..].starts_with('<') {
                if let Some(tag) = self.peek_tag() {
                    if stop.iter().any(|s| s.eq_ignore_ascii_case(&tag)) {
                        self.flush_text(text_start, &mut out);
                        return Ok(out);
                    }
                    match tag.as_str() {
                        t if t.eq_ignore_ascii_case("SFMT") => {
                            self.flush_text(text_start, &mut out);
                            out.push(self.fmt_tag()?);
                            text_start = self.pos;
                            continue;
                        }
                        t if t.eq_ignore_ascii_case("SIF") => {
                            self.flush_text(text_start, &mut out);
                            out.push(self.if_tag()?);
                            text_start = self.pos;
                            continue;
                        }
                        t if t.eq_ignore_ascii_case("SFOR") => {
                            self.flush_text(text_start, &mut out);
                            out.push(self.for_tag()?);
                            text_start = self.pos;
                            continue;
                        }
                        t if t.eq_ignore_ascii_case("SELSE")
                            || t.eq_ignore_ascii_case("/SIF")
                            || t.eq_ignore_ascii_case("/SFOR") =>
                        {
                            // Structural tag with no matching context.
                            self.flush_text(text_start, &mut out);
                            return if stop.is_empty() {
                                Err(TemplateError::new(
                                    self.line,
                                    format!("unexpected <{tag}> outside its construct"),
                                ))
                            } else {
                                // Let the caller decide (it is looking for
                                // a different stop tag → error there).
                                Err(TemplateError::new(
                                    self.line,
                                    format!("unexpected <{tag}>, expected one of {stop:?}"),
                                ))
                            };
                        }
                        _ => {} // ordinary HTML tag: passthrough
                    }
                }
            }
            self.bump();
        }
        self.flush_text(text_start, &mut out);
        if stop.is_empty() {
            Ok(out)
        } else {
            Err(TemplateError::new(
                self.line,
                format!("unterminated construct, expected one of {stop:?}"),
            ))
        }
    }

    fn flush_text(&self, start: usize, out: &mut Vec<Node>) {
        if start < self.pos {
            out.push(Node::Text(self.src[start..self.pos].to_owned()));
        }
    }

    fn bump(&mut self) {
        let c = self.src[self.pos..].chars().next().expect("in bounds");
        if c == '\n' {
            self.line += 1;
        }
        self.pos += c.len_utf8();
    }

    /// The tag name following `<` at the current position, if this looks
    /// like a tag.
    fn peek_tag(&self) -> Option<String> {
        let rest = &self.src[self.pos + 1..];
        let mut name = String::new();
        for c in rest.chars() {
            if c.is_ascii_alphanumeric() || (c == '/' && name.is_empty()) {
                name.push(c);
            } else {
                break;
            }
        }
        if name.is_empty() {
            None
        } else {
            Some(name)
        }
    }

    /// Consumes `<TAG …>` and returns the raw contents between the tag name
    /// and the closing `>` (which may appear escaped inside quoted
    /// directive values such as `DELIM=" <br> "`).
    fn consume_tag(&mut self, name_len: usize) -> Result<String, TemplateError> {
        let start_line = self.line;
        self.pos += 1 + name_len; // '<' + name
        let rest = &self.src[self.pos..];
        let mut close = None;
        let mut in_quotes = false;
        for (i, b) in rest.bytes().enumerate() {
            match b {
                b'"' => in_quotes = !in_quotes,
                b'>' if !in_quotes => {
                    close = Some(i);
                    break;
                }
                _ => {}
            }
        }
        let Some(close) = close else {
            return Err(TemplateError::new(start_line, "unterminated tag"));
        };
        let contents = rest[..close].to_owned();
        self.line += contents.matches('\n').count() as u32;
        self.pos += close + 1;
        Ok(contents)
    }

    fn fmt_tag(&mut self) -> Result<Node, TemplateError> {
        let line = self.line;
        let contents = self.consume_tag(4)?;
        let mut words = TagWords::new(&contents);
        let expr_word = words
            .next_word()
            .ok_or_else(|| TemplateError::new(line, "SFMT needs an attribute expression"))?;
        let expr = parse_attr_expr(&expr_word, line, &mut self.attrs)?;
        let directives = parse_directives(&mut words, line, &mut self.attrs)?;
        Ok(Node::Fmt { expr, directives })
    }

    fn if_tag(&mut self) -> Result<Node, TemplateError> {
        let line = self.line;
        let contents = self.consume_tag(3)?;
        let mut words = TagWords::new(&contents);
        let expr_word = words
            .next_word()
            .ok_or_else(|| TemplateError::new(line, "SIF needs an attribute expression"))?;
        let cond = parse_attr_expr(&expr_word, line, &mut self.attrs)?;

        let then = self.nodes(&["SELSE", "/SIF"])?;
        let tag = self.peek_tag().expect("stop tag present");
        let mut else_ = Vec::new();
        if tag.eq_ignore_ascii_case("SELSE") {
            self.consume_tag(5)?;
            else_ = self.nodes(&["/SIF"])?;
        }
        self.consume_tag(4)?; // </SIF>
        Ok(Node::If { cond, then, else_ })
    }

    fn for_tag(&mut self) -> Result<Node, TemplateError> {
        let line = self.line;
        let contents = self.consume_tag(4)?;
        let mut words = TagWords::new(&contents);
        let var = words
            .next_word()
            .ok_or_else(|| TemplateError::new(line, "SFOR needs a loop variable"))?;
        let kw = words
            .next_word()
            .ok_or_else(|| TemplateError::new(line, "SFOR needs 'IN'"))?;
        if !kw.eq_ignore_ascii_case("IN") {
            return Err(TemplateError::new(line, "expected 'IN' after loop variable"));
        }
        let expr_word = words
            .next_word()
            .ok_or_else(|| TemplateError::new(line, "SFOR needs an attribute expression"))?;
        let expr = parse_attr_expr(&expr_word, line, &mut self.attrs)?;
        let d = parse_directives(&mut words, line, &mut self.attrs)?;
        if d.embed || d.multi() {
            return Err(TemplateError::new(
                line,
                "SFOR accepts only DELIM, ORDER, and KEY directives",
            ));
        }
        let body = self.nodes(&["/SFOR"])?;
        self.consume_tag(5)?; // </SFOR>
        Ok(Node::For {
            var,
            expr,
            delim: d.delim,
            order: d.order,
            key: d.key,
            body,
        })
    }
}

/// Splits tag contents into words, honoring `NAME="quoted value"` pairs.
struct TagWords<'a> {
    rest: &'a str,
}

impl<'a> TagWords<'a> {
    fn new(s: &'a str) -> Self {
        TagWords { rest: s.trim() }
    }

    /// The next whitespace-separated word; a `="…"` suffix (with possible
    /// spaces inside the quotes) stays attached.
    fn next_word(&mut self) -> Option<String> {
        self.rest = self.rest.trim_start();
        if self.rest.is_empty() {
            return None;
        }
        let bytes = self.rest.as_bytes();
        let mut i = 0;
        let mut in_quotes = false;
        while i < bytes.len() {
            match bytes[i] {
                b'"' => in_quotes = !in_quotes,
                b if b.is_ascii_whitespace() && !in_quotes => break,
                _ => {}
            }
            i += 1;
        }
        let word = self.rest[..i].to_owned();
        self.rest = &self.rest[i..];
        Some(word)
    }
}

/// The id of attribute `name` in `attrs`, appending it on first use.
fn intern(attrs: &mut Vec<String>, name: &str) -> AttrId {
    let i = match attrs.iter().position(|a| a == name) {
        Some(i) => i,
        None => {
            attrs.push(name.to_owned());
            attrs.len() - 1
        }
    };
    AttrId(i as u32)
}

fn parse_attr_expr(
    word: &str,
    line: u32,
    attrs: &mut Vec<String>,
) -> Result<AttrExpr, TemplateError> {
    if word.is_empty() {
        return Err(TemplateError::new(line, "empty attribute expression"));
    }
    let (base, rest) = if let Some(stripped) = word.strip_prefix('$') {
        let mut parts = stripped.splitn(2, '.');
        let var = parts.next().unwrap_or("");
        if var.is_empty() {
            return Err(TemplateError::new(line, "empty loop-variable reference"));
        }
        (Base::LoopVar(var.to_owned()), parts.next().unwrap_or(""))
    } else {
        (Base::CurrentObject, word)
    };
    let names: Vec<&str> = if rest.is_empty() {
        Vec::new()
    } else {
        rest.split('.').collect()
    };
    if matches!(base, Base::CurrentObject) && names.is_empty() {
        return Err(TemplateError::new(line, "empty attribute expression"));
    }
    if names.iter().any(|n| n.is_empty()) {
        return Err(TemplateError::new(
            line,
            format!("malformed attribute expression '{word}'"),
        ));
    }
    let path = names.into_iter().map(|n| intern(attrs, n)).collect();
    Ok(AttrExpr { base, path })
}

fn parse_directives(
    words: &mut TagWords<'_>,
    line: u32,
    attrs: &mut Vec<String>,
) -> Result<Directives, TemplateError> {
    let mut d = Directives::default();
    while let Some(w) = words.next_word() {
        let upper = w.to_ascii_uppercase();
        if upper == "EMBED" {
            d.embed = true;
        } else if upper == "ENUM" {
            d.enumerate = true;
        } else if upper == "UL" {
            d.list = Some(ListKind::Unordered);
        } else if upper == "OL" {
            d.list = Some(ListKind::Ordered);
        } else if let Some(v) = w.strip_prefix("DELIM=").or_else(|| w.strip_prefix("delim=")) {
            d.delim = Some(unquote(v));
        } else if let Some(v) = w.strip_prefix("ORDER=").or_else(|| w.strip_prefix("order=")) {
            d.order = Some(match unquote(v).to_ascii_lowercase().as_str() {
                "ascend" | "asc" => OrderDir::Ascend,
                "descend" | "desc" => OrderDir::Descend,
                other => {
                    return Err(TemplateError::new(
                        line,
                        format!("ORDER must be ascend or descend, not '{other}'"),
                    ))
                }
            });
        } else if let Some(v) = w.strip_prefix("KEY=").or_else(|| w.strip_prefix("key=")) {
            d.key = Some(intern(attrs, &unquote(v)));
        } else {
            return Err(TemplateError::new(line, format!("unknown directive '{w}'")));
        }
    }
    Ok(d)
}

fn unquote(s: &str) -> String {
    let t = s.trim();
    if t.len() >= 2 && t.starts_with('"') && t.ends_with('"') {
        t[1..t.len() - 1].to_owned()
    } else {
        t.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names<'t>(t: &'t Template, path: &[AttrId]) -> Vec<&'t str> {
        path.iter().map(|&id| t.attr(id)).collect()
    }

    #[test]
    fn plain_html_passes_through() {
        let t = parse_template("<html><body><h1>Hi</h1></body></html>").unwrap();
        assert_eq!(t.nodes.len(), 1);
        assert!(matches!(&t.nodes[0], Node::Text(s) if s.contains("<h1>")));
    }

    #[test]
    fn sfmt_with_directives() {
        let t = parse_template(r#"<SFMT author ENUM DELIM=", ">"#).unwrap();
        let Node::Fmt { expr, directives } = &t.nodes[0] else {
            panic!()
        };
        assert_eq!(names(&t, &expr.path), ["author"]);
        assert!(directives.enumerate);
        assert_eq!(directives.delim.as_deref(), Some(", "));
    }

    #[test]
    fn sfmt_order_key_ul() {
        let t = parse_template("<SFMT YearPage UL ORDER=ascend KEY=Year>").unwrap();
        let Node::Fmt { directives, .. } = &t.nodes[0] else {
            panic!()
        };
        assert_eq!(directives.list, Some(ListKind::Unordered));
        assert_eq!(directives.order, Some(OrderDir::Ascend));
        assert_eq!(directives.key.map(|k| t.attr(k)), Some("Year"));
        assert!(directives.multi());
    }

    #[test]
    fn attr_expr_paths_and_loop_vars() {
        let t = parse_template("<SFMT Paper.title>").unwrap();
        let Node::Fmt { expr, .. } = &t.nodes[0] else {
            panic!()
        };
        assert_eq!(expr.base, Base::CurrentObject);
        assert_eq!(names(&t, &expr.path), ["Paper", "title"]);

        let t = parse_template("<SFMT $a EMBED>").unwrap();
        let Node::Fmt { expr, directives } = &t.nodes[0] else {
            panic!()
        };
        assert_eq!(expr.base, Base::LoopVar("a".into()));
        assert!(expr.path.is_empty());
        assert!(directives.embed);

        let t = parse_template("<SFMT $a.title>").unwrap();
        let Node::Fmt { expr, .. } = &t.nodes[0] else {
            panic!()
        };
        assert_eq!(expr.base, Base::LoopVar("a".into()));
        assert_eq!(names(&t, &expr.path), ["title"]);
    }

    #[test]
    fn sif_with_else() {
        let t = parse_template("<SIF abstract>yes<SELSE>no</SIF>").unwrap();
        let Node::If { cond, then, else_ } = &t.nodes[0] else {
            panic!()
        };
        assert_eq!(names(&t, &cond.path), ["abstract"]);
        assert!(matches!(&then[0], Node::Text(s) if s == "yes"));
        assert!(matches!(&else_[0], Node::Text(s) if s == "no"));
    }

    #[test]
    fn sif_without_else() {
        let t = parse_template("<SIF x>body</SIF>").unwrap();
        let Node::If { else_, .. } = &t.nodes[0] else {
            panic!()
        };
        assert!(else_.is_empty());
    }

    #[test]
    fn sfor_with_body() {
        let t =
            parse_template(r#"<SFOR a IN author DELIM=", "><SFMT $a></SFOR>"#).unwrap();
        let Node::For {
            var, expr, delim, body, ..
        } = &t.nodes[0]
        else {
            panic!()
        };
        assert_eq!(var, "a");
        assert_eq!(names(&t, &expr.path), ["author"]);
        assert_eq!(delim.as_deref(), Some(", "));
        assert_eq!(body.len(), 1);
    }

    #[test]
    fn nesting_works() {
        let t = parse_template(
            "<SFOR y IN years><SIF $y.papers><SFMT $y.papers ENUM></SIF></SFOR>",
        )
        .unwrap();
        let Node::For { body, .. } = &t.nodes[0] else {
            panic!()
        };
        assert!(matches!(&body[0], Node::If { .. }));
    }

    #[test]
    fn case_insensitive_tags() {
        assert!(parse_template("<sfmt title>").is_ok());
        assert!(parse_template("<sif x>a</sif>").is_ok());
    }

    #[test]
    fn errors_on_unterminated_constructs() {
        assert!(parse_template("<SIF x>never closed").is_err());
        assert!(parse_template("<SFOR a IN x>no close").is_err());
        assert!(parse_template("<SFMT title").is_err());
    }

    #[test]
    fn errors_on_stray_structural_tags() {
        assert!(parse_template("</SIF>").is_err());
        assert!(parse_template("text <SELSE> more").is_err());
    }

    #[test]
    fn errors_on_bad_directives() {
        assert!(parse_template("<SFMT x BOGUS>").is_err());
        assert!(parse_template("<SFMT x ORDER=sideways>").is_err());
        assert!(parse_template("<SFOR a IN x EMBED>body</SFOR>").is_err());
    }

    #[test]
    fn delim_values_may_contain_spaces_and_tags() {
        let t = parse_template(r#"<SFMT author ENUM DELIM=" <br> ">"#).unwrap();
        let Node::Fmt { directives, .. } = &t.nodes[0] else {
            panic!()
        };
        assert_eq!(directives.delim.as_deref(), Some(" <br> "));
    }

    #[test]
    fn attribute_names_are_listed_once_in_first_use_order() {
        let t = parse_template(
            "<SFMT title><SFOR p IN Paper ORDER=ascend KEY=year><SFMT $p.title></SFOR>",
        )
        .unwrap();
        assert_eq!(t.attrs, ["title", "Paper", "year"]);
    }

    #[test]
    fn line_count_is_recorded() {
        let t = parse_template("line1\nline2\nline3").unwrap();
        assert_eq!(t.line_count, 3);
    }

    #[test]
    fn angle_brackets_in_text_are_fine() {
        let t = parse_template("if a < b then <b>bold</b>").unwrap();
        assert!(!t.nodes.is_empty());
    }
}
