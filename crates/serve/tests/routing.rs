//! URL routing round-trip properties: every page key a site can produce —
//! and plenty it can't — must survive `PageKey → URL → PageKey` intact,
//! including keys whose values need percent-encoding.

use strudel_graph::{FileKind, Graph, Oid, Value};
use strudel_prng::{choose, Rng, SeedableRng, SmallRng};
use strudel_schema::dynamic::{DynamicSite, Mode, PageKey};
use strudel_serve::router::{page_path, parse_page_path};
use strudel_workload::{news, org};

#[test]
fn every_news_page_round_trips() {
    let corpus = news::generate(&news::NewsConfig {
        articles: 40,
        ..Default::default()
    });
    let site = strudel::sites::news_site(&corpus.pages).build().unwrap();
    let engine = DynamicSite::new(site.database.clone(), &site.program, Mode::Context);
    let pages = engine.crawl("FrontRoot").unwrap();
    assert!(pages.len() > 40, "front + sections + articles: {}", pages.len());
    let db = engine.database();
    for key in &pages {
        let url = page_path(key, db.graph());
        assert_eq!(
            parse_page_path(&url, db.graph()).as_ref(),
            Some(key),
            "{url}"
        );
    }
}

#[test]
fn every_org_page_round_trips() {
    let data = org::generate(&org::OrgConfig {
        people: 60,
        ..Default::default()
    });
    let site = strudel::sites::org_site(
        &data.people_csv,
        &data.departments_csv,
        &data.projects_rec,
        &data.demos_rec,
        &data.legacy_html,
    )
    .build()
    .unwrap();
    let engine = DynamicSite::new(site.database.clone(), &site.program, Mode::Context);
    let pages = engine.crawl(&site.root_collection).unwrap();
    assert!(pages.len() > 60, "{}", pages.len());
    let db = engine.database();
    for key in &pages {
        let url = page_path(key, db.graph());
        assert_eq!(parse_page_path(&url, db.graph()).as_ref(), Some(key), "{url}");
    }
}

/// A value of a random type, biased toward strings that need escaping.
fn arb_value(rng: &mut SmallRng, graph: &Graph) -> Value {
    const HOSTILE: [&str; 10] = [
        "plain",
        "with space",
        "slash/inside",
        "query?x=1&y=2",
        "per%25cent and %",
        "dot..dot",
        "ünïcode ✓ — naïve",
        "\"quoted\" <tags>",
        "",
        "colon:colon",
    ];
    match rng.gen_range(0..8usize) {
        0 => Value::Node(Oid::from_index(rng.gen_range(0..graph.node_count()))),
        1 => Value::Int(rng.gen_range(-1_000_000i64..1_000_000)),
        2 => Value::Float(rng.gen_f64() * 2e6 - 1e6),
        3 => Value::Bool(rng.gen_bool(0.5)),
        4 => Value::string(*choose(rng, &HOSTILE)),
        5 => Value::url(format!("http://example.org/{}", rng.gen_range(0..100u32))),
        6 => {
            let kind = *choose(
                rng,
                &[FileKind::Text, FileKind::PostScript, FileKind::Image, FileKind::Html],
            );
            Value::file(kind, format!("dir with space/f{}.x", rng.gen_range(0..50u32)))
        }
        _ => Value::string(format!("s{}", rng.gen_range(0..10_000u32))),
    }
}

#[test]
fn arbitrary_keys_round_trip() {
    let mut graph = Graph::new();
    graph.add_named_node("plain");
    graph.add_named_node("with space");
    graph.add_named_node("naïve/ünïcode%name");
    graph.add_node();
    graph.add_node();

    let mut rng = SmallRng::seed_from_u64(0x5eed_9000);
    const SYMBOLS: [&str; 4] = ["ArticlePage", "Page With Space", "P%cent", "Ünï"];
    for case in 0..256 {
        let symbol = (*choose(&mut rng, &SYMBOLS)).to_string();
        let n_args = rng.gen_range(0..4usize);
        let args: Vec<Value> = (0..n_args).map(|_| arb_value(&mut rng, &graph)).collect();
        let key = PageKey { symbol, args };
        let url = page_path(&key, &graph);
        assert!(
            url.is_ascii() && !url.contains(' '),
            "URLs are ascii, space-free: {url}"
        );
        assert_eq!(
            parse_page_path(&url, &graph),
            Some(key.clone()),
            "case {case}: {url}"
        );
    }
}

#[test]
fn hostile_paths_do_not_panic() {
    let mut graph = Graph::new();
    graph.add_named_node("a");
    let mut rng = SmallRng::seed_from_u64(0x5eed_9001);
    const ALPHABET: [char; 16] = [
        '/', '%', ':', '.', 'a', 'Z', '0', '?', '#', '&', '=', ' ', 'é', '\\', '~', '-',
    ];
    for _ in 0..512 {
        let len = rng.gen_range(0..40usize);
        let path: String = (0..len).map(|_| *choose(&mut rng, &ALPHABET)).collect();
        // Must never panic, whatever it returns.
        let _ = parse_page_path(&path, &graph);
        let _ = parse_page_path(&format!("/page/{path}"), &graph);
        let _ = strudel_serve::router::parse_data_path(&format!("/data/{path}"), &graph);
    }
}

/// A random string over a hostile alphabet: embedded NULs, lone and
/// doubled percent signs, multi-byte UTF-8, escape-looking substrings.
fn arb_hostile_string(rng: &mut SmallRng) -> String {
    const PIECES: [&str; 14] = [
        "%", "%%", "%41", "%%41", "%2", "%g1", "\0", "a", "Z9", " ",
        "é", "日本", "\u{10348}", ":",
    ];
    let len = rng.gen_range(0..12usize);
    (0..len).map(|_| *choose(rng, &PIECES)).collect()
}

#[test]
fn pct_encode_decode_round_trips_seeded_hostile_strings() {
    use strudel_serve::router::{pct_decode, pct_encode};
    let mut rng = SmallRng::seed_from_u64(0x5eed_9002);
    for case in 0..2048 {
        let s = arb_hostile_string(&mut rng);
        let encoded = pct_encode(&s);
        assert!(
            encoded.bytes().all(|b| matches!(
                b,
                b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' | b'%'
            )),
            "case {case}: encoding emits only unreserved bytes and escapes: {encoded:?}"
        );
        assert_eq!(
            pct_decode(&encoded).as_deref(),
            Some(s.as_str()),
            "case {case}: {encoded:?}"
        );
    }
}

#[test]
fn pct_decode_never_panics_on_garbage() {
    use strudel_serve::router::pct_decode;
    let mut rng = SmallRng::seed_from_u64(0x5eed_9003);
    const ALPHABET: [char; 12] =
        ['%', '0', '4', '1', 'f', 'F', 'g', 'a', '\0', 'é', '~', '.'];
    for _ in 0..4096 {
        let len = rng.gen_range(0..16usize);
        let s: String = (0..len).map(|_| *choose(&mut rng, &ALPHABET)).collect();
        // Any outcome is fine; panicking or looping is not.
        if let Some(decoded) = pct_decode(&s) {
            // Decoding is only "successful" for well-formed escapes, so
            // re-encoding the result must round-trip back to it.
            use strudel_serve::router::pct_encode;
            assert_eq!(pct_decode(&pct_encode(&decoded)).as_deref(), Some(decoded.as_str()));
        }
    }
}

#[test]
fn pct_decode_edge_cases() {
    use strudel_serve::router::{pct_decode, pct_encode};
    // Lone and truncated escapes are rejected, not mis-decoded.
    assert_eq!(pct_decode("%"), None);
    assert_eq!(pct_decode("a%"), None);
    assert_eq!(pct_decode("%4"), None);
    // An overlong-looking "%%41" is a malformed first escape.
    assert_eq!(pct_decode("%%41"), None);
    // Embedded NUL survives a round trip (it is a valid Rust string byte).
    assert_eq!(pct_encode("\0"), "%00");
    assert_eq!(pct_decode("%00").as_deref(), Some("\0"));
    // Escapes that decode to invalid UTF-8 are rejected.
    assert_eq!(pct_decode("%c3"), None, "truncated 2-byte sequence");
    assert_eq!(pct_decode("%ed%a0%80"), None, "surrogate half");
}
