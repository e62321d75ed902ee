//! The click engine keeps one database and applies every delta to it in
//! place. A snapshot someone still holds when a delta lands is never
//! changed under its holder: the delta copies the database first, counted
//! in `Metrics::snapshot_copies`, and applies to the copy. Once the holder
//! lets go, deltas apply in place again and copy nothing.

use std::sync::Arc;
use strudel_graph::{ddl, GraphDelta, Oid, Value};
use strudel_repo::{snapshot::save_graph, Database, IndexLevel};
use strudel_schema::dynamic::{DynTarget, DynamicSite, Mode, PageKey};
use strudel_struql::parse;

const QUERY: &str = r#"
    create RootPage()
    where Publications(x)
    create PaperPage(x)
    link RootPage() -> "paper" -> PaperPage(x),
         PaperPage(x) -> "home" -> RootPage()
    collect Roots(RootPage())
    { where x -> "title" -> t
      link PaperPage(x) -> "title" -> t }
"#;

fn engine() -> DynamicSite {
    let g = ddl::parse(
        r#"
        object p1 in Publications { title : "Alpha"; }
        object p2 in Publications { title : "Beta"; }
    "#,
    )
    .unwrap();
    let db = Arc::new(Database::from_graph(g, IndexLevel::Full));
    DynamicSite::new(db, &parse(QUERY).unwrap(), Mode::Context)
}

fn graph_bytes(db: &Database) -> Vec<u8> {
    let mut bytes = Vec::new();
    save_graph(db.graph(), &mut bytes).unwrap();
    bytes
}

fn p1(site: &DynamicSite) -> Oid {
    site.database().graph().node_by_name("p1").unwrap()
}

fn paper(node: Oid) -> PageKey {
    PageKey {
        symbol: "PaperPage".into(),
        args: vec![Value::Node(node)],
    }
}

fn root() -> PageKey {
    PageKey {
        symbol: "RootPage".into(),
        args: vec![],
    }
}

fn retitle(site: &DynamicSite, from: &str, to: &str) {
    let mut delta = GraphDelta::new();
    delta.remove_edge(p1(site), "title", Value::string(from));
    delta.add_edge(p1(site), "title", Value::string(to));
    let outcome = site.apply_delta(&delta).unwrap();
    assert_eq!((outcome.updated, outcome.evicted), (1, 0), "{outcome:?}");
}

#[test]
fn a_database_held_across_a_delta_is_copied_once() {
    let site = engine();
    let key = paper(p1(&site));
    site.visit(&key).unwrap();

    // An outside holder: the delta copies rather than change its version
    // under it.
    let held = site.database();
    let held_bytes = graph_bytes(&held);
    retitle(&site, "Alpha", "rev 1");
    assert_eq!(site.metrics().snapshot_copies, 1);
    assert_eq!(
        graph_bytes(&held),
        held_bytes,
        "the held version is untouched"
    );
    assert_eq!(site.epoch(), 1);
    drop(held);

    // Consecutive deltas on the database nobody else holds: in place.
    for (i, title) in ["rev 1", "rev 2", "rev 3"].windows(2).enumerate() {
        retitle(&site, title[0], title[1]);
        assert_eq!(site.epoch(), (i + 2) as u64);
    }
    assert_eq!(site.metrics().snapshot_copies, 1, "no copy once released");
    let view = site.visit(&key).unwrap();
    assert!(view
        .edges
        .iter()
        .any(|(l, t)| l == "title" && *t == DynTarget::Data(Value::string("rev 3"))));
    let fresh = DynamicSite::new(site.database(), &parse(QUERY).unwrap(), Mode::Context);
    for key in [key, root()] {
        assert_eq!(
            site.visit(&key).unwrap(),
            fresh.visit(&key).unwrap(),
            "{key:?}"
        );
    }
}

#[test]
fn a_refused_delta_after_a_copy_changes_nothing() {
    let site = engine();
    site.visit(&root()).unwrap();
    site.visit(&paper(p1(&site))).unwrap();
    let cached = site.cached_pages();

    // Removing an edge that does not exist must be refused whole, and the
    // copy the holder forces changes nothing either.
    let held = site.database();
    let mut bad = GraphDelta::new();
    bad.remove_edge(p1(&site), "title", Value::string("No Such Title"));
    let err = site.apply_delta(&bad).unwrap_err();
    assert!(err.to_string().contains("delta does not apply"), "{err}");
    assert_eq!(site.metrics().snapshot_copies, 1);
    assert_eq!(graph_bytes(&site.database()), graph_bytes(&held));
    assert_eq!(site.epoch(), 0);
    assert_eq!(site.cached_pages(), cached);
    drop(held);

    // And a good delta afterwards applies in place.
    retitle(&site, "Alpha", "Alpha (rev)");
    assert_eq!(site.epoch(), 1);
    assert_eq!(site.metrics().snapshot_copies, 1);
}
