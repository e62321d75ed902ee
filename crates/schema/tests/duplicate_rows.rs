//! A guard may yield the same bindings row more than once: two identical
//! `paragraph` edges derive the same row twice. A cold page stores such a
//! row once, with count 2, behind one link — exactly what adding the rows
//! one at a time stores — and a delta that retracts one copy leaves the
//! page equal to a fresh engine's.
//!
//! The store keeps one position per row, not per copy. When the copies
//! are not adjacent in the data and the first one goes, a fresh engine
//! lists the row where the remaining copy sits while the maintained page
//! keeps it where it first appeared: the two then hold the same links in
//! a different order (the last test).

use std::sync::Arc;
use strudel_graph::{ddl, GraphDelta, Oid, Value};
use strudel_repo::{Database, IndexLevel};
use strudel_schema::dynamic::{DynTarget, DynamicSite, Mode, PageKey};
use strudel_struql::parse;

const QUERY: &str = r#"
    where Articles(a)
    create ArticlePage(a)
    collect Roots(ArticlePage(a))
    { where a -> "paragraph" -> p
      link ArticlePage(a) -> "paragraph" -> p }
"#;

/// An engine over one article whose paragraphs are `texts`, in order.
fn engine(texts: &[&str]) -> DynamicSite {
    let body: String = texts.iter().map(|t| format!("paragraph : \"{t}\"; ")).collect();
    let g = ddl::parse(&format!("object a1 in Articles {{ {body}}}")).unwrap();
    let db = Arc::new(Database::from_graph(g, IndexLevel::Full));
    DynamicSite::new(db, &parse(QUERY).unwrap(), Mode::Context)
}

fn a1(site: &DynamicSite) -> Oid {
    site.database().graph().node_by_name("a1").unwrap()
}

fn article(node: Oid) -> PageKey {
    PageKey {
        symbol: "ArticlePage".into(),
        args: vec![Value::Node(node)],
    }
}

/// The stored rows of `key` as `(row, count)`, in stored order.
fn stored(site: &DynamicSite, key: &PageKey) -> Vec<(Vec<Option<Value>>, i64)> {
    let rows = site.stored_rows(key).expect("the page is cached");
    rows.into_iter().map(|(_, row, _)| row).collect()
}

/// What adding `a`'s paragraph rows one at a time, in the data's edge
/// order, stores: a repeated row bumps its count where it first appeared.
fn one_at_a_time(site: &DynamicSite, a: Oid) -> Vec<(Vec<Option<Value>>, i64)> {
    let db = site.database();
    let graph = db.graph();
    let paragraph = graph.label("paragraph").unwrap();
    let mut rows: Vec<(Vec<Option<Value>>, i64)> = Vec::new();
    for edge in graph.edges(a).iter().filter(|e| e.label == paragraph) {
        let row = vec![Some(Value::Node(a)), Some(edge.to.clone())];
        match rows.iter_mut().find(|(held, _)| *held == row) {
            Some((_, count)) => *count += 1,
            None => rows.push((row, 1)),
        }
    }
    rows
}

fn paragraphs(texts: &[&str]) -> Vec<(Arc<str>, DynTarget)> {
    let link = |t: &&str| (Arc::from("paragraph"), DynTarget::Data(Value::string(*t)));
    texts.iter().map(link).collect()
}

fn fresh(site: &DynamicSite) -> DynamicSite {
    DynamicSite::new(site.database(), &parse(QUERY).unwrap(), Mode::Context)
}

/// `key` on `site` equals `key` on a fresh engine over the same data:
/// the same view and the same stored rows and counts, in the same order.
fn assert_fresh(site: &DynamicSite, key: &PageKey, context: &str) {
    let fresh = fresh(site);
    assert_eq!(
        *site.visit(key).unwrap(),
        *fresh.visit(key).unwrap(),
        "{context}: the view differs from a fresh engine's"
    );
    assert_eq!(
        stored(site, key),
        stored(&fresh, key),
        "{context}: the stored rows differ from a fresh engine's"
    );
}

fn remove_same(site: &DynamicSite) {
    let mut delta = GraphDelta::new();
    delta.remove_edge(a1(site), "paragraph", Value::string("Same"));
    let outcome = site.apply_delta(&delta).unwrap();
    assert_eq!((outcome.updated, outcome.evicted), (1, 0), "{outcome:?}");
}

#[test]
fn a_repeated_guard_row_is_stored_once_with_its_count() {
    let site = engine(&["Same", "Other", "Same"]);
    let a = a1(&site);
    let key = article(a);
    let view = site.visit(&key).unwrap();
    assert_eq!(view.edges, paragraphs(&["Same", "Other"]), "one link per row");

    let rows = stored(&site, &key);
    assert_eq!(rows, one_at_a_time(&site, a));
    let counts: Vec<i64> = rows.iter().map(|(_, count)| *count).collect();
    assert_eq!(counts, [2, 1], "the repeated row counts both derivations");
    let links = site.stored_rows(&key).unwrap();
    assert!(links.iter().all(|(_, _, link)| link.is_some()), "every row projects");
}

#[test]
fn retracting_one_copy_of_a_repeated_row_matches_a_fresh_engine() {
    let site = engine(&["Same", "Same", "Other"]);
    let key = article(a1(&site));
    site.visit(&key).unwrap();

    // One copy goes: the row stays, with one derivation, and so does its
    // link, in its place.
    remove_same(&site);
    assert_eq!(site.visit(&key).unwrap().edges, paragraphs(&["Same", "Other"]));
    let counts: Vec<i64> = stored(&site, &key).iter().map(|(_, c)| *c).collect();
    assert_eq!(counts, [1, 1]);
    assert_fresh(&site, &key, "one copy retracted");

    // The other copy takes the row and its link along.
    remove_same(&site);
    assert_eq!(site.visit(&key).unwrap().edges, paragraphs(&["Other"]));
    assert_fresh(&site, &key, "both copies retracted");

    // Derived again, the row is a new row and goes to the end.
    let mut delta = GraphDelta::new();
    delta.add_edge(a1(&site), "paragraph", Value::string("Same"));
    site.apply_delta(&delta).unwrap();
    assert_eq!(site.visit(&key).unwrap().edges, paragraphs(&["Other", "Same"]));
    assert_fresh(&site, &key, "re-derived");
    assert_eq!(site.metrics().diff_fallbacks, 0, "every delta patched the page");
}

#[test]
fn a_retracted_copy_ahead_of_other_rows_keeps_the_links_but_not_their_order() {
    let site = engine(&["Same", "Other", "Same"]);
    let key = article(a1(&site));
    site.visit(&key).unwrap();
    remove_same(&site);

    // The data now reads Other, Same; the page keeps Same where it first
    // appeared.
    let fresh = fresh(&site);
    assert_eq!(site.visit(&key).unwrap().edges, paragraphs(&["Same", "Other"]));
    assert_eq!(fresh.visit(&key).unwrap().edges, paragraphs(&["Other", "Same"]));
    let sorted = |mut rows: Vec<(Vec<Option<Value>>, i64)>| {
        rows.sort_by_key(|row| format!("{row:?}"));
        rows
    };
    assert_eq!(
        sorted(stored(&site, &key)),
        sorted(stored(&fresh, &key)),
        "the same rows and counts"
    );
}
