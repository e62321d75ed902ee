//! HTML wrapper: existing web pages → data graph.
//!
//! The CNN demonstration site (§5.1) was built by mapping ~300 existing
//! HTML article pages into a data graph. This wrapper extracts the
//! article-shaped structure of a page:
//!
//! * `<title>` → `title` attribute (falling back to the first `<h1>`);
//! * `<h1>` → `headline`;
//! * `<meta name="X" content="Y">` → attribute `X = Y` (CNN-style
//!   category/date metadata);
//! * `<p>` text → one `paragraph` edge per paragraph, in order;
//! * `<img src>` → `image` file attributes;
//! * `<a href>` → `link` edges: to the wrapped node of another document
//!   when the href names one, else to a URL value.
//!
//! [`wrap_documents`] wraps a batch of named documents into one graph and
//! resolves inter-document links in a second pass, which is exactly what a
//! crawl of a site section needs.

use crate::WrapError;
use strudel_graph::{FileKind, Graph, Label, Oid, Value};

/// One input document: a file name (used to resolve `href`s) and its HTML.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HtmlDoc {
    /// Document name, e.g. `world/article17.html`.
    pub name: String,
    /// The page's HTML text.
    pub html: String,
}

impl HtmlDoc {
    /// Converts `(name, html)` pairs — the shape corpus generators emit —
    /// into documents.
    pub fn from_pairs(pairs: &[(String, String)]) -> Vec<HtmlDoc> {
        pairs
            .iter()
            .map(|(name, html)| HtmlDoc {
                name: name.clone(),
                html: html.clone(),
            })
            .collect()
    }
}

/// Wraps a batch of HTML documents into a fresh graph. Each document
/// becomes one object in `collection`; links between wrapped documents
/// become node-valued `link` edges.
///
/// A page is read once: the scanner hands out slices of the page (or of
/// one reused text buffer), and each extracted value is copied exactly
/// once, into the `Arc<str>` its edge owns.
pub fn wrap_documents(docs: &[HtmlDoc], collection: &str) -> Result<Graph, WrapError> {
    let mut g = Graph::new();
    let cid = g.intern_collection(collection);

    // Pass 1: create a node per document so links can resolve.
    let nodes: Vec<Oid> = docs
        .iter()
        .map(|d| {
            let node = g.add_named_node(&d.name);
            g.collect(cid, Value::Node(node));
            node
        })
        .collect();

    // Pass 2: extract content. Edges are grouped by kind, not in page
    // order, so a page's values wait in `page` until it has been read.
    // The fixed attributes' labels are interned when their first edge is
    // added: label ids follow first use, as they do for `meta` names.
    let label = |g: &mut Graph, slot: &mut Option<Label>, name| {
        *slot.get_or_insert_with(|| g.intern_label(name))
    };
    let [mut title, mut headline, mut paragraph, mut image, mut link] = [None; 5];
    let mut page = PageValues::default();
    let mut text = String::new();
    for (d, &node) in docs.iter().zip(&nodes) {
        scan(&d.html, &mut text, |item| match item {
            Item::Title(t) => page.title = Some(Value::string(t)),
            Item::Headline(h) => page.headline = Some(Value::string(h)),
            Item::Meta(k, v) => page.meta.push((k, Value::string(v))),
            Item::Paragraph(p) => page.paragraphs.push(Value::string(p)),
            Item::Image(src) => page.images.push(Value::file(FileKind::Image, src)),
            Item::Link(href) => page.links.push(match g.node_by_name(href) {
                Some(target) => Value::Node(target),
                None => Value::url(href),
            }),
        });
        g.reserve_edges(
            node,
            2 + page.meta.len() + page.paragraphs.len() + page.images.len() + page.links.len(),
        );
        let h = page.headline.take();
        if let Some(t) = page.title.take().or_else(|| h.clone()) {
            let l = label(&mut g, &mut title, "title");
            g.add_edge(node, l, t);
        }
        if let Some(h) = h {
            let l = label(&mut g, &mut headline, "headline");
            g.add_edge(node, l, h);
        }
        for (k, v) in page.meta.drain(..) {
            g.add_edge_str(node, k, v);
        }
        for (slot, name, values) in [
            (&mut paragraph, "paragraph", &mut page.paragraphs),
            (&mut image, "image", &mut page.images),
            (&mut link, "link", &mut page.links),
        ] {
            for v in values.drain(..) {
                let l = label(&mut g, slot, name);
                g.add_edge(node, l, v);
            }
        }
    }
    Ok(g)
}

/// One page's values, held until its edges are added; the vectors are
/// reused from page to page.
#[derive(Default)]
struct PageValues<'s> {
    title: Option<Value>,
    headline: Option<Value>,
    meta: Vec<(&'s str, Value)>,
    paragraphs: Vec<Value>,
    images: Vec<Value>,
    links: Vec<Value>,
}

/// What [`extract`] pulls out of one page.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Extracted {
    /// `<title>` text (or the last `<h1>` when absent).
    pub title: Option<String>,
    /// Last `<h1>` text.
    pub headline: Option<String>,
    /// `<meta name content>` pairs in order.
    pub meta: Vec<(String, String)>,
    /// `<p>` texts in order.
    pub paragraphs: Vec<String>,
    /// `<img src>` values in order.
    pub images: Vec<String>,
    /// `<a href>` values in order.
    pub links: Vec<String>,
}

/// Extracts article structure from HTML text. This is a pragmatic
/// tokenizer, not a conforming HTML parser: tags and text are scanned
/// left-to-right, entities `&amp; &lt; &gt; &quot; &#39; &nbsp;` are
/// decoded, script/style contents are skipped.
pub fn extract(html: &str) -> Extracted {
    let mut out = Extracted::default();
    scan(html, &mut String::new(), |item| match item {
        Item::Title(t) => out.title = Some(t.to_owned()),
        Item::Headline(h) => out.headline = Some(h.to_owned()),
        Item::Meta(k, v) => out.meta.push((k.to_owned(), v.to_owned())),
        Item::Paragraph(p) => out.paragraphs.push(p.to_owned()),
        Item::Image(src) => out.images.push(src.to_owned()),
        Item::Link(href) => out.links.push(href.to_owned()),
    });
    if out.title.is_none() {
        out.title = out.headline.clone();
    }
    out
}

/// One extracted value, in page order. Attribute values borrow from the
/// page (`'s`); element text and decoded `meta` content borrow from the
/// scanner's buffer and live only for the callback.
enum Item<'s, 't> {
    Title(&'t str),
    Headline(&'t str),
    Meta(&'s str, &'t str),
    Paragraph(&'t str),
    Image(&'s str),
    Link(&'s str),
}

/// The element whose text is being gathered.
#[derive(Clone, Copy)]
enum Sink {
    Title,
    Headline,
    Paragraph,
}

/// One pass over `html`, reporting each extracted value to `emit`. `text`
/// is scratch space: element text is entity-decoded and whitespace-
/// normalised straight into it, so nothing else is allocated.
fn scan<'s>(html: &'s str, text: &mut String, mut emit: impl FnMut(Item<'s, '_>)) {
    let mut tok = Tokenizer { src: html, pos: 0 };
    let mut sink: Option<Sink> = None;
    // A whitespace run is owed to `text` before its next visible char.
    let mut gap = false;
    text.clear();

    while let Some(token) = tok.next_token() {
        match token {
            Token::Text(t) => {
                if sink.is_some() {
                    push_normalized(text, &mut gap, t);
                }
            }
            Token::Open(name, attrs) => {
                if is_tag(name, "title") {
                    sink = Some(Sink::Title);
                } else if is_tag(name, "h1") {
                    sink = Some(Sink::Headline);
                } else if is_tag(name, "p") {
                    sink = Some(Sink::Paragraph);
                } else if is_tag(name, "meta") {
                    // The last `name` and the last `content` win.
                    let mut n = None;
                    let mut c = None;
                    for (k, v) in Attrs::new(attrs) {
                        if k.eq_ignore_ascii_case("name") {
                            n = Some(v);
                        }
                        if k.eq_ignore_ascii_case("content") {
                            c = Some(v);
                        }
                    }
                    if let (Some(n), Some(c)) = (n, c) {
                        if c.contains('&') {
                            // `text` may hold a half-gathered element.
                            let mark = text.len();
                            push_decoded(text, c);
                            emit(Item::Meta(n, &text[mark..]));
                            text.truncate(mark);
                        } else {
                            emit(Item::Meta(n, c));
                        }
                    }
                } else if is_tag(name, "img") {
                    if let Some(src) = first_attr(attrs, "src") {
                        emit(Item::Image(src));
                    }
                } else if is_tag(name, "a") {
                    if let Some(href) = first_attr(attrs, "href") {
                        emit(Item::Link(href));
                    }
                } else if is_tag(name, "script") {
                    tok.skip_until_close("script");
                } else if is_tag(name, "style") {
                    tok.skip_until_close("style");
                }
            }
            Token::Close(name) => {
                let closes = match sink {
                    Some(Sink::Title) => is_tag(name, "title"),
                    Some(Sink::Headline) => is_tag(name, "h1"),
                    Some(Sink::Paragraph) => is_tag(name, "p"),
                    None => false,
                };
                if closes {
                    match sink.take().expect("sink set") {
                        Sink::Title => emit(Item::Title(text)),
                        Sink::Headline => emit(Item::Headline(text)),
                        Sink::Paragraph => {
                            if !text.is_empty() {
                                emit(Item::Paragraph(text));
                            }
                        }
                    }
                    text.clear();
                    gap = false;
                }
            }
        }
    }
}

fn is_tag(name: &str, tag: &str) -> bool {
    name.eq_ignore_ascii_case(tag)
}

/// A token borrowed from the page. Tag names keep the page's case.
enum Token<'s> {
    Text(&'s str),
    /// Tag name and the unparsed attribute text after it.
    Open(&'s str, &'s str),
    Close(&'s str),
}

struct Tokenizer<'s> {
    src: &'s str,
    pos: usize,
}

impl<'s> Tokenizer<'s> {
    fn next_token(&mut self) -> Option<Token<'s>> {
        loop {
            if self.pos >= self.src.len() {
                return None;
            }
            let rest = &self.src[self.pos..];
            if let Some(after) = rest.strip_prefix("<!--") {
                match after.find("-->") {
                    Some(end) => {
                        self.pos += 4 + end + 3;
                        continue;
                    }
                    None => {
                        self.pos = self.src.len();
                        return None;
                    }
                }
            }
            if !rest.starts_with('<') {
                let end = rest.find('<').unwrap_or(rest.len());
                self.pos += end;
                return Some(Token::Text(&rest[..end]));
            }
            let Some(end) = rest.find('>') else {
                self.pos = self.src.len();
                return None;
            };
            let inner = &rest[1..end];
            self.pos += end + 1;
            if let Some(name) = inner.strip_prefix('/') {
                return Some(Token::Close(name.trim()));
            }
            if inner.starts_with('!') || inner.starts_with('?') {
                continue; // doctype / processing instruction
            }
            let inner = inner.trim_end_matches('/');
            return Some(match inner.split_once(char::is_whitespace) {
                Some((name, attrs)) => Token::Open(name, attrs),
                None => Token::Open(inner, ""),
            });
        }
    }

    /// Skips content up to and including `</name>` (for script/style),
    /// matching the tag name case-insensitively in place.
    fn skip_until_close(&mut self, name: &str) {
        let rest = &self.src[self.pos..];
        let mut from = 0;
        while let Some(i) = rest[from..].find("</") {
            let at = from + i;
            let tail = &rest.as_bytes()[at + 2..];
            if tail.len() >= name.len() && tail[..name.len()].eq_ignore_ascii_case(name.as_bytes())
            {
                match rest[at..].find('>') {
                    Some(j) => self.pos += at + j + 1,
                    None => self.pos = self.src.len(),
                }
                return;
            }
            from = at + 2;
        }
        self.pos = self.src.len();
    }
}

/// The attributes of one tag as `(name, value)` slices, parsed on demand.
/// Names keep the page's case; a name without `=` has an empty value.
struct Attrs<'s> {
    s: &'s str,
    i: usize,
}

impl<'s> Attrs<'s> {
    fn new(s: &'s str) -> Self {
        Attrs { s, i: 0 }
    }
}

impl<'s> Iterator for Attrs<'s> {
    type Item = (&'s str, &'s str);

    fn next(&mut self) -> Option<Self::Item> {
        let s = self.s;
        let bytes = s.as_bytes();
        let mut i = self.i;
        let skip_space = |i: &mut usize| {
            while *i < bytes.len() && bytes[*i].is_ascii_whitespace() {
                *i += 1;
            }
        };
        skip_space(&mut i);
        let name_start = i;
        while i < bytes.len() && !bytes[i].is_ascii_whitespace() && bytes[i] != b'=' {
            i += 1;
        }
        if name_start == i {
            self.i = bytes.len();
            return None;
        }
        let name = &s[name_start..i];
        skip_space(&mut i);
        let value = if i < bytes.len() && bytes[i] == b'=' {
            i += 1;
            skip_space(&mut i);
            if i < bytes.len() && (bytes[i] == b'"' || bytes[i] == b'\'') {
                let quote = bytes[i];
                i += 1;
                let val_start = i;
                while i < bytes.len() && bytes[i] != quote {
                    i += 1;
                }
                let value = &s[val_start..i];
                i += 1; // closing quote
                value
            } else {
                let val_start = i;
                while i < bytes.len() && !bytes[i].is_ascii_whitespace() {
                    i += 1;
                }
                &s[val_start..i]
            }
        } else {
            ""
        };
        self.i = i;
        Some((name, value))
    }
}

/// The value of the first attribute called `name`.
fn first_attr<'s>(attrs: &'s str, name: &str) -> Option<&'s str> {
    Attrs::new(attrs)
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v)
}

/// The character and source length of the entity at the head of `bytes`,
/// if there is one the wrapper decodes.
fn entity(bytes: &[u8]) -> Option<(char, usize)> {
    const ENTITIES: [(&[u8], char); 6] = [
        (b"&lt;", '<'),
        (b"&gt;", '>'),
        (b"&quot;", '"'),
        (b"&#39;", '\''),
        (b"&nbsp;", ' '),
        (b"&amp;", '&'),
    ];
    ENTITIES
        .iter()
        .find(|(name, _)| bytes.starts_with(name))
        .map(|&(name, c)| (c, name.len()))
}

/// Appends `s` to `out` with entities decoded.
fn push_decoded(out: &mut String, s: &str) {
    let mut rest = s;
    while let Some(i) = rest.find('&') {
        out.push_str(&rest[..i]);
        let (c, len) = entity(&rest.as_bytes()[i..]).unwrap_or(('&', 1));
        out.push(c);
        rest = &rest[i + len..];
    }
    out.push_str(rest);
}

/// Appends `s` to `out` with entities decoded and every whitespace run
/// (Unicode `White_Space`, as `str::split_whitespace` has it) collapsed
/// to one space; leading whitespace is dropped and a trailing run stays
/// owed in `gap`, so the text gathered over several calls equals
/// `split_whitespace().join(" ")` of the decoded whole.
fn push_normalized(out: &mut String, gap: &mut bool, s: &str) {
    // Pays the owed space, if any, before visible text goes in.
    fn settle(out: &mut String, gap: &mut bool) {
        if std::mem::take(gap) && !out.is_empty() {
            out.push(' ');
        }
    }
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        // Visible ASCII that starts no entity is copied a word at a time.
        let start = i;
        while i < bytes.len() && bytes[i].is_ascii_graphic() && bytes[i] != b'&' {
            i += 1;
        }
        if i > start {
            settle(out, gap);
            out.push_str(&s[start..i]);
            continue;
        }
        let (c, len) = match entity(&bytes[i..]) {
            Some(decoded) => decoded,
            None => {
                let c = s[i..].chars().next().expect("in bounds, on a boundary");
                (c, c.len_utf8())
            }
        };
        i += len;
        if c.is_whitespace() {
            *gap = true;
        } else {
            settle(out, gap);
            out.push(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ARTICLE: &str = r#"<!DOCTYPE html>
<html>
<head>
  <title>Flood waters rise &amp; recede</title>
  <meta name="category" content="weather">
  <meta name="date" content="1998-02-17">
  <script>var x = "<p>not a paragraph</p>";</script>
</head>
<body>
  <h1>Flood waters rise</h1>
  <img src="images/flood.jpg" alt="flood">
  <p>First  paragraph
     spans lines.</p>
  <p>Second paragraph with a <a href="related2.html">related story</a>.</p>
  <!-- <p>commented out</p> -->
  <p></p>
  <a href="http://cnn.com/weather">section</a>
</body>
</html>"#;

    #[test]
    fn extracts_article_structure() {
        let e = extract(ARTICLE);
        assert_eq!(e.title.as_deref(), Some("Flood waters rise & recede"));
        assert_eq!(e.headline.as_deref(), Some("Flood waters rise"));
        assert_eq!(
            e.meta,
            vec![
                ("category".to_string(), "weather".to_string()),
                ("date".to_string(), "1998-02-17".to_string())
            ]
        );
        assert_eq!(e.paragraphs.len(), 2, "empty paragraph dropped");
        assert_eq!(e.paragraphs[0], "First paragraph spans lines.");
        assert_eq!(e.images, vec!["images/flood.jpg"]);
        assert_eq!(e.links, vec!["related2.html", "http://cnn.com/weather"]);
    }

    #[test]
    fn script_content_is_skipped() {
        let e = extract(ARTICLE);
        assert!(e.paragraphs.iter().all(|p| !p.contains("not a paragraph")));
    }

    #[test]
    fn title_falls_back_to_h1() {
        let e = extract("<h1>Only headline</h1>");
        assert_eq!(e.title.as_deref(), Some("Only headline"));
    }

    #[test]
    fn wrap_documents_resolves_internal_links() {
        let docs = vec![
            HtmlDoc {
                name: "a.html".into(),
                html: "<title>A</title><p>x</p><a href=\"b.html\">b</a>".into(),
            },
            HtmlDoc {
                name: "b.html".into(),
                html: "<title>B</title><a href=\"http://other.example\">ext</a>".into(),
            },
        ];
        let g = wrap_documents(&docs, "Articles").unwrap();
        assert_eq!(g.members_str("Articles").len(), 2);
        let a = g.node_by_name("a.html").unwrap();
        let b = g.node_by_name("b.html").unwrap();
        assert_eq!(g.first_attr_str(a, "link"), Some(&Value::Node(b)));
        assert!(matches!(
            g.first_attr_str(b, "link"),
            Some(Value::Url(_))
        ));
        assert_eq!(g.first_attr_str(a, "title").unwrap().as_str(), Some("A"));
    }

    #[test]
    fn unquoted_and_single_quoted_attrs() {
        let e = extract("<img src=pic.gif><a href='x.html'>t</a>");
        assert_eq!(e.images, vec!["pic.gif"]);
        assert_eq!(e.links, vec!["x.html"]);
    }

    #[test]
    fn malformed_html_does_not_panic() {
        for bad in ["<", "<p", "<a href=\"unclosed", "</", "<!-- unclosed", "<p>text"] {
            let _ = extract(bad);
        }
    }

    #[test]
    fn meta_without_name_or_content_is_ignored() {
        let e = extract(r#"<meta charset="utf-8"><meta name="x"><meta content="y">"#);
        assert!(e.meta.is_empty());
    }
}
