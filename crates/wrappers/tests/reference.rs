//! The borrowing scanners against the allocating ones they replaced,
//! kept here as references.
//!
//! HTML: over seeded hostile fragments (every truncation of each) and
//! article-shaped pages, `html::extract` must return exactly what the
//! reference returns — quirks included (the last `<h1>` wins, text
//! gathered under one element leaks into the next when the first is never
//! closed, `&nbsp;` collapses as whitespace).
//!
//! CSV: `relational::parse_csv` slices its fields out of the source; the
//! char-at-a-time parser it replaced must agree on rows, fields and the
//! line of every error.

use strudel_prng::{choose, Rng, SeedableRng, SmallRng};
use strudel_wrappers::html::{self, Extracted};
use strudel_wrappers::relational;

/// The HTML tokenizer as it stood before the scanner borrowed from the page.
mod reference {
    use super::Extracted;

    pub fn extract(html: &str) -> Extracted {
        let mut out = Extracted::default();
        let mut tok = Tokenizer { src: html, pos: 0 };
        let mut text_sink: Option<Sink> = None;
        let mut buffer = String::new();

        while let Some(token) = tok.next_token() {
            match token {
                Token::Text(t) => {
                    if text_sink.is_some() {
                        buffer.push_str(&decode_entities(&t));
                    }
                }
                Token::Open(name, attrs) => match name.as_str() {
                    "title" => text_sink = Some(Sink::Title),
                    "h1" => text_sink = Some(Sink::Headline),
                    "p" => text_sink = Some(Sink::Paragraph),
                    "meta" => {
                        let mut n = None;
                        let mut c = None;
                        for (k, v) in &attrs {
                            if k == "name" {
                                n = Some(v.clone());
                            }
                            if k == "content" {
                                c = Some(v.clone());
                            }
                        }
                        if let (Some(n), Some(c)) = (n, c) {
                            out.meta.push((n, decode_entities(&c)));
                        }
                    }
                    "img" => {
                        if let Some((_, v)) = attrs.iter().find(|(k, _)| k == "src") {
                            out.images.push(v.clone());
                        }
                    }
                    "a" => {
                        if let Some((_, v)) = attrs.iter().find(|(k, _)| k == "href") {
                            out.links.push(v.clone());
                        }
                    }
                    "script" | "style" => tok.skip_until_close(&name),
                    _ => {}
                },
                Token::Close(name) => {
                    let matches_sink = matches!(
                        (&text_sink, name.as_str()),
                        (Some(Sink::Title), "title")
                            | (Some(Sink::Headline), "h1")
                            | (Some(Sink::Paragraph), "p")
                    );
                    if matches_sink {
                        let text = normalize(&buffer);
                        buffer.clear();
                        match text_sink.take().expect("sink set") {
                            Sink::Title => out.title = Some(text),
                            Sink::Headline => out.headline = Some(text),
                            Sink::Paragraph => {
                                if !text.is_empty() {
                                    out.paragraphs.push(text);
                                }
                            }
                        }
                    }
                }
            }
        }
        if out.title.is_none() {
            out.title = out.headline.clone();
        }
        out
    }

    enum Sink {
        Title,
        Headline,
        Paragraph,
    }

    enum Token {
        Text(String),
        Open(String, Vec<(String, String)>),
        Close(String),
    }

    struct Tokenizer<'s> {
        src: &'s str,
        pos: usize,
    }

    impl Tokenizer<'_> {
        fn next_token(&mut self) -> Option<Token> {
            if self.pos >= self.src.len() {
                return None;
            }
            let rest = &self.src[self.pos..];
            if let Some(after) = rest.strip_prefix("<!--") {
                match after.find("-->") {
                    Some(end) => {
                        self.pos += 4 + end + 3;
                        return self.next_token();
                    }
                    None => {
                        self.pos = self.src.len();
                        return None;
                    }
                }
            }
            if rest.starts_with('<') {
                let Some(end) = rest.find('>') else {
                    self.pos = self.src.len();
                    return None;
                };
                let inner = &rest[1..end];
                self.pos += end + 1;
                if let Some(name) = inner.strip_prefix('/') {
                    return Some(Token::Close(name.trim().to_ascii_lowercase()));
                }
                if inner.starts_with('!') || inner.starts_with('?') {
                    return self.next_token();
                }
                let inner = inner.trim_end_matches('/');
                let mut parts = inner.splitn(2, char::is_whitespace);
                let name = parts.next().unwrap_or("").to_ascii_lowercase();
                let attrs = parts.next().map(parse_attrs).unwrap_or_default();
                Some(Token::Open(name, attrs))
            } else {
                let end = rest.find('<').unwrap_or(rest.len());
                let text = rest[..end].to_owned();
                self.pos += end;
                Some(Token::Text(text))
            }
        }

        fn skip_until_close(&mut self, name: &str) {
            let closing = format!("</{name}");
            let rest = &self.src[self.pos..];
            let lower = rest.to_ascii_lowercase();
            match lower.find(&closing) {
                Some(i) => {
                    let after = &rest[i..];
                    match after.find('>') {
                        Some(j) => self.pos += i + j + 1,
                        None => self.pos = self.src.len(),
                    }
                }
                None => self.pos = self.src.len(),
            }
        }
    }

    fn parse_attrs(s: &str) -> Vec<(String, String)> {
        let mut out = Vec::new();
        let bytes = s.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            let name_start = i;
            while i < bytes.len() && !bytes[i].is_ascii_whitespace() && bytes[i] != b'=' {
                i += 1;
            }
            if name_start == i {
                break;
            }
            let name = s[name_start..i].to_ascii_lowercase();
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if i < bytes.len() && bytes[i] == b'=' {
                i += 1;
                while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                    i += 1;
                }
                if i < bytes.len() && (bytes[i] == b'"' || bytes[i] == b'\'') {
                    let quote = bytes[i];
                    i += 1;
                    let val_start = i;
                    while i < bytes.len() && bytes[i] != quote {
                        i += 1;
                    }
                    out.push((name, s[val_start..i].to_owned()));
                    i += 1;
                } else {
                    let val_start = i;
                    while i < bytes.len() && !bytes[i].is_ascii_whitespace() {
                        i += 1;
                    }
                    out.push((name, s[val_start..i].to_owned()));
                }
            } else {
                out.push((name, String::new()));
            }
        }
        out
    }

    fn decode_entities(s: &str) -> String {
        if !s.contains('&') {
            return s.to_owned();
        }
        s.replace("&lt;", "<")
            .replace("&gt;", ">")
            .replace("&quot;", "\"")
            .replace("&#39;", "'")
            .replace("&nbsp;", " ")
            .replace("&amp;", "&")
    }

    fn normalize(s: &str) -> String {
        s.split_whitespace().collect::<Vec<_>>().join(" ")
    }
}

/// Article-shaped shrapnel: the tags the wrapper acts on in every case
/// and spacing, its entities (whole, torn and nested), every kind of
/// whitespace `split_whitespace` knows, and attribute syntax corners.
const TOKENS: &[&str] = &[
    "<p>",
    "</p>",
    "<P>",
    "</P >",
    "<title>",
    "</title>",
    "<TITLE>",
    "</TiTlE>",
    "<h1>",
    "</h1>",
    "<H1 class=x>",
    "</ h1>",
    "<p",
    ">",
    "<",
    "</",
    "/>",
    "<br/>",
    "<b>",
    "</b>",
    "<meta name=\"k\" content=\"v &amp; w\">",
    "<META NAME=k CONTENT='a&lt;b'>",
    "<meta name=a name=b content=c content=\"d e\">",
    "<meta content=only>",
    "<meta name>",
    "<img src=\"i.gif\" src=j.gif>",
    "<IMG SRC = 'k.png' alt>",
    "<img alt=x>",
    "<a href=\"x.html\">",
    "<A HREF=y.html>",
    "<a name=anchor>",
    "</a>",
    "<a href=\"unclosed",
    "<script>",
    "</script>",
    "</SCRIPT>",
    "<SCRIPT type=x>",
    "</scr",
    "<style>",
    "</STYLE >",
    "</style",
    "<!--",
    "-->",
    "<!DOCTYPE html>",
    "<?xml?>",
    "&",
    "&amp;",
    "&lt;",
    "&gt;",
    "&quot;",
    "&#39;",
    "&nbsp;",
    "&amp;lt;",
    "&am",
    "p;",
    "&unknown;",
    "&&amp;&",
    "text",
    "two words",
    " ",
    "  ",
    "\n",
    "\t",
    "\r\n",
    "\u{b}",
    "\u{c}",
    "\u{85}",
    "\u{a0}",
    "\u{2003}",
    "\u{3000}",
    "é",
    "日本",
    "🦀",
    "\0",
    "=",
    "\"",
    "'",
    "< p>",
    "<p >",
    "<p\n>",
    "<title/>",
];

fn fragment(rng: &mut SmallRng) -> String {
    let n = rng.gen_range(1..60usize);
    let mut s = String::new();
    for _ in 0..n {
        s.push_str(choose::<&str>(rng, TOKENS));
    }
    s
}

#[test]
fn scanner_agrees_with_the_reference_on_every_truncation() {
    for seed in [3u64, 17, 1998, 0xC0FFEE] {
        let mut rng = SmallRng::seed_from_u64(seed);
        for case in 0..150 {
            let s = fragment(&mut rng);
            for (cut, _) in s.char_indices().chain([(s.len(), ' ')]) {
                let page = &s[..cut];
                assert_eq!(
                    html::extract(page),
                    reference::extract(page),
                    "seed {seed} case {case}: {page:?}"
                );
            }
        }
    }
}

#[test]
fn wrapped_edges_follow_the_reference_extraction() {
    let mut rng = SmallRng::seed_from_u64(42);
    let docs: Vec<html::HtmlDoc> = (0..40)
        .map(|i| html::HtmlDoc {
            name: format!("d{i}.html"),
            html: format!(
                "<a href=\"d{}.html\">x</a>{}",
                (i + 1) % 40,
                fragment(&mut rng)
            ),
        })
        .collect();
    let g = html::wrap_documents(&docs, "Pages").unwrap();
    for d in &docs {
        let e = reference::extract(&d.html);
        let node = g.node_by_name(&d.name).unwrap();
        let mut expect: Vec<(String, String)> = Vec::new();
        expect.extend(e.title.iter().map(|t| ("title".into(), t.clone())));
        expect.extend(e.headline.iter().map(|h| ("headline".into(), h.clone())));
        expect.extend(e.meta.iter().cloned());
        expect.extend(e.paragraphs.iter().map(|p| ("paragraph".into(), p.clone())));
        expect.extend(e.images.iter().map(|i| ("image".into(), i.clone())));
        expect.extend(e.links.iter().map(|l| ("link".into(), l.clone())));
        let got: Vec<(String, String)> = g
            .edges(node)
            .iter()
            .map(|edge| {
                let target = match edge.to.as_node() {
                    Some(o) => g.node_name(o).unwrap().to_owned(),
                    None => edge.to.display_text().into_owned(),
                };
                (g.label_name(edge.label).to_owned(), target)
            })
            .collect();
        assert_eq!(got, expect, "{}: {:?}", d.name, d.html);
    }
}

#[test]
fn closing_tag_of_a_skipped_element_matches_in_any_case() {
    let e = html::extract("<p>a</p><ScRiPt>var s = '<p>no</p>';</SCRIPT ><p>b</p>");
    assert_eq!(e.paragraphs, ["a", "b"]);
    let e = html::extract("<STYLE>p { x: '</styl' }</sTyLe><p>c</p>");
    assert_eq!(e.paragraphs, ["c"]);
}

#[test]
fn unclosed_style_swallows_the_rest_of_the_page() {
    let e = html::extract("<p>kept</p><style>p { } <p>lost</p> </styl");
    assert_eq!(e.paragraphs, ["kept"]);
    let e = html::extract("<p>kept</p><style>p { } </style <p>lost</p>");
    assert_eq!(
        e.paragraphs,
        ["kept"],
        "a close tag without '>' ends the page"
    );
}

#[test]
fn two_thousand_script_blocks_are_skipped_in_one_pass() {
    let mut page = String::new();
    for i in 0..2000 {
        page.push_str(&format!(
            "<script>var x{i} = \"<p>not a paragraph {i}</p>\";</SCRIPT><p>para {i}</p>\n"
        ));
    }
    let e = html::extract(&page);
    assert_eq!(e.paragraphs.len(), 2000);
    assert_eq!(e.paragraphs[1999], "para 1999");
    assert_eq!(e, reference::extract(&page));
}

/// The CSV parser as it stood before fields were sliced out of the source.
fn reference_parse_csv(src: &str) -> Result<Vec<Vec<String>>, u32> {
    let mut rows = Vec::new();
    let mut row: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut line = 1u32;
    let mut chars = src.chars().peekable();
    let mut any = false;

    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    field.push(c);
                    line += 1;
                }
                _ => field.push(c),
            }
            continue;
        }
        match c {
            '"' => {
                if field.is_empty() {
                    in_quotes = true;
                    any = true;
                } else {
                    return Err(line);
                }
            }
            ',' => {
                row.push(std::mem::take(&mut field));
                any = true;
            }
            '\r' => {}
            '\n' => {
                line += 1;
                if any || !field.is_empty() {
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                }
                any = false;
            }
            other => {
                field.push(other);
                any = true;
            }
        }
    }
    if in_quotes {
        return Err(line);
    }
    if any || !field.is_empty() {
        row.push(field);
        rows.push(row);
    }
    Ok(rows)
}

#[test]
fn csv_fields_agree_with_the_reference_on_every_truncation() {
    const CSV_TOKENS: &[&str] = &[
        ",",
        ",,",
        "\n",
        "\r\n",
        "\r",
        "\"",
        "\"\"",
        "\"a,b\"",
        "\"x\"\"y\"",
        "\"multi\nline\"",
        "id",
        "Mary Fernandez",
        "5551234",
        "2.5",
        " ",
        "  padded  ",
        "é",
        "日本",
        "a\rb",
        "\"q\"tail",
        "\n\n",
        "x:int",
    ];
    for seed in [5u64, 29, 1998, 0xFEED] {
        let mut rng = SmallRng::seed_from_u64(seed);
        for case in 0..200 {
            let n = rng.gen_range(1..30usize);
            let s: String = (0..n)
                .map(|_| *choose::<&str>(&mut rng, CSV_TOKENS))
                .collect();
            for (cut, _) in s.char_indices().chain([(s.len(), ' ')]) {
                let src = &s[..cut];
                let got = relational::parse_csv(src)
                    .map(|rows| {
                        rows.into_iter()
                            .map(|r| r.into_iter().map(|f| f.into_owned()).collect::<Vec<_>>())
                            .collect::<Vec<_>>()
                    })
                    .map_err(|e| e.line);
                assert_eq!(
                    got,
                    reference_parse_csv(src),
                    "seed {seed} case {case}: {src:?}"
                );
            }
        }
    }
}
