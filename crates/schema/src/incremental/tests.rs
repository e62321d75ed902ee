//! Incremental updates of site graphs (§7), scenario by scenario, on the
//! click engine. Each test crawls a [`DynamicSite`] — every reachable
//! page visited, so cached with its counted rows — applies a delta, and
//! holds the patched engine to a fresh engine on the post-delta data:
//! the same reachable pages with equal views, and equal views too for the
//! pages the delta cut off (a page no derivation reaches any more keeps
//! no link). The patch must never fall back to eviction.

use crate::dynamic::{DynTarget, DynamicSite, Mode, PageKey, PageView};
use std::collections::HashMap;
use std::sync::Arc;
use strudel_graph::{ddl, Graph, GraphDelta, Oid, Value};
use strudel_prng::{Rng, SeedableRng, SmallRng};
use strudel_repo::{Database, IndexLevel};
use strudel_struql::{parse, Program};

const QUERY: &str = r#"
    create RootPage()
    collect Site(RootPage())
    where Publications(x)
    create PaperPage(x)
    link RootPage() -> "paper" -> PaperPage(x)
    collect Pages(PaperPage(x))
    { where x -> "title" -> t
      link PaperPage(x) -> "title" -> t }
    { where x -> "year" -> y
      create YearPage(y)
      link YearPage(y) -> "paper" -> PaperPage(x),
           RootPage() -> "year" -> YearPage(y) }
"#;

/// The pages of everything `Roots(r)` reaches along `path`, linked from
/// one index page.
fn reach_query(path: &str) -> Program {
    parse(&format!(
        r#"create Index()
           collect Site(Index())
           {{ where Roots(r), r -> {path} -> n
              create Copy(n)
              link Index() -> "reach" -> Copy(n) }}"#
    ))
    .unwrap()
}

fn db_of(ddl: &str) -> Database {
    Database::from_graph(ddl::parse(ddl).unwrap(), IndexLevel::Full)
}

fn base_db() -> Database {
    db_of(
        r#"
        object p1 in Publications { title : "Alpha"; year : 1997; }
        object p2 in Publications { title : "Beta"; year : 1998; }
    "#,
    )
}

fn page(symbol: &str, args: &[Value]) -> PageKey {
    PageKey {
        symbol: symbol.into(),
        args: args.to_vec(),
    }
}

fn sorted(view: &PageView) -> Vec<String> {
    let mut edges: Vec<String> = view.edges.iter().map(|e| format!("{e:?}")).collect();
    edges.sort_unstable();
    edges
}

/// Every page reachable from `Site`, with its view's edges sorted.
fn pages(site: &DynamicSite, root: &str) -> HashMap<PageKey, Vec<String>> {
    let keys = site.crawl(root).unwrap();
    keys.into_iter()
        .map(|key| {
            let view = sorted(&site.visit(&key).unwrap());
            (key, view)
        })
        .collect()
}

/// The `label` targets on `key`'s view.
fn targets(site: &DynamicSite, key: &PageKey, label: &str) -> Vec<DynTarget> {
    let view = site.visit(key).unwrap();
    view.edges
        .iter()
        .filter(|(l, _)| l == label)
        .map(|(_, t)| t.clone())
        .collect()
}

/// A click engine over `db` with every page reachable from `root`
/// visited and cached.
struct Crawled {
    site: DynamicSite,
    program: Program,
    root: &'static str,
}

impl Crawled {
    fn new(db: Database, program: Program, root: &'static str) -> Self {
        let site = DynamicSite::new(Arc::new(db), &program, Mode::Context);
        site.crawl(root).unwrap();
        Crawled {
            site,
            program,
            root,
        }
    }

    fn site_query(db: Database) -> Self {
        Crawled::new(db, parse(QUERY).unwrap(), "Site")
    }

    fn oid(&self, name: &str) -> Oid {
        self.site.database().graph().node_by_name(name).unwrap()
    }

    /// Applies `delta` and checks the engine against a fresh one, for
    /// every page reachable before or after it; the signed rows it moved.
    fn apply(&self, delta: &GraphDelta) -> usize {
        let before = self.site.crawl(self.root).unwrap();
        let m0 = self.site.metrics();
        let outcome = self.site.apply_delta(delta).unwrap();
        let m1 = self.site.metrics();
        assert_eq!(
            outcome.evicted, 0,
            "a dirty page fell back to eviction: {delta:?}"
        );
        let fresh = DynamicSite::new(self.site.database(), &self.program, Mode::Context);
        assert_eq!(
            pages(&self.site, self.root),
            pages(&fresh, self.root),
            "reachable pages differ from a fresh engine's after {delta:?}"
        );
        for key in &before {
            assert_eq!(
                sorted(&self.site.visit(key).unwrap()),
                sorted(&fresh.visit(key).unwrap()),
                "{key:?} differs from a fresh engine's after {delta:?}"
            );
        }
        (m1.diff_rows_added + m1.diff_rows_retracted)
            - (m0.diff_rows_added + m0.diff_rows_retracted)
    }
}

#[test]
fn new_attribute_edge_updates_site() {
    let site = Crawled::site_query(base_db());
    let p1 = site.oid("p1");
    let mut delta = GraphDelta::new();
    delta.add_edge(p1, "title", Value::string("Alpha (revised)"));
    assert!(site.apply(&delta) > 0);
    let paper = page("PaperPage", &[Value::Node(p1)]);
    assert_eq!(targets(&site.site, &paper, "title").len(), 2);
}

#[test]
fn new_publication_creates_its_pages() {
    let site = Crawled::site_query(base_db());
    let mut delta = GraphDelta::new();
    delta.add_node(Some("p3"));
    let p3 = Oid::from_index(site.site.database().graph().node_count());
    delta.add_edge(p3, "title", Value::string("Gamma"));
    delta.add_edge(p3, "year", Value::Int(1997));
    delta.collect("Publications", Value::Node(p3));
    site.apply(&delta);

    // The new paper's page exists, carries its title, and the existing
    // 1997 YearPage gained a link (no second YearPage(1997)).
    assert_eq!(site.site.roots("Pages").unwrap().len(), 3);
    let root = page("RootPage", &[]);
    assert_eq!(targets(&site.site, &root, "year").len(), 2);
    let y97 = page("YearPage", &[Value::Int(1997)]);
    assert_eq!(targets(&site.site, &y97, "paper").len(), 2);
}

#[test]
fn incremental_is_idempotent_on_replayed_facts() {
    // A delta that adds an edge that already exists (multigraph add):
    // derivations collapse by set semantics, so no page gains a link.
    let site = Crawled::site_query(base_db());
    let before = pages(&site.site, "Site");
    let mut delta = GraphDelta::new();
    delta.add_edge(site.oid("p1"), "title", Value::string("Alpha"));
    assert!(site.apply(&delta) > 0, "the row's count moves");
    assert_eq!(pages(&site.site, "Site"), before);
}

#[test]
fn edge_removal_deletes_dependent_links() {
    let site = Crawled::site_query(base_db());
    let p1 = site.oid("p1");
    let (root, y97) = (page("RootPage", &[]), page("YearPage", &[Value::Int(1997)]));
    let paper1 = page("PaperPage", &[Value::Node(p1)]);
    assert_eq!(
        targets(&site.site, &y97, "paper"),
        [DynTarget::Page(paper1.clone())]
    );

    let mut delta = GraphDelta::new();
    delta.remove_edge(p1, "year", Value::Int(1997));
    site.apply(&delta);
    // The 1997 year page lost its only paper link, and the root its link
    // to the year page (derived from the same deleted fact); p1's page
    // keeps its title.
    assert!(targets(&site.site, &y97, "paper").is_empty());
    assert!(!targets(&site.site, &root, "year").contains(&DynTarget::Page(y97.clone())));
    assert_eq!(targets(&site.site, &paper1, "title").len(), 1);
    // YearPage(1997) is no page of the site any more.
    assert_eq!(site.site.lookup(&y97).unwrap(), None);
}

#[test]
fn member_removal_unlinks_its_pages() {
    let site = Crawled::site_query(base_db());
    let (p1, p2) = (site.oid("p1"), site.oid("p2"));
    let paper1 = page("PaperPage", &[Value::Node(p1)]);

    let mut delta = GraphDelta::new();
    delta.uncollect("Publications", Value::Node(p1));
    site.apply(&delta);
    let root = page("RootPage", &[]);
    assert!(!targets(&site.site, &root, "paper").contains(&DynTarget::Page(paper1.clone())));
    assert!(
        targets(&site.site, &paper1, "title").is_empty(),
        "copied attrs gone"
    );
    assert!(
        !site.site.roots("Pages").unwrap().contains(&paper1),
        "collect retracted"
    );
    // p2 is untouched.
    let paper2 = page("PaperPage", &[Value::Node(p2)]);
    assert_eq!(targets(&site.site, &paper2, "title").len(), 1);
}

#[test]
fn links_with_surviving_derivations_are_kept() {
    // Two year edges with the same value: removing one must keep the
    // YearPage link, because the other edge still derives it.
    let site = Crawled::site_query(db_of(
        r#"object d in Publications { title : "Dup"; year : 1997; year : 1997; }"#,
    ));
    let d = site.oid("d");
    let y97 = page("YearPage", &[Value::Int(1997)]);
    let paper = DynTarget::Page(page("PaperPage", &[Value::Node(d)]));

    let mut delta = GraphDelta::new();
    delta.remove_edge(d, "year", Value::Int(1997));
    site.apply(&delta);
    assert_eq!(
        targets(&site.site, &y97, "paper"),
        [paper],
        "one year edge remains, so the link keeps a supporter"
    );
    // The count carried over: the second removal takes the link.
    site.apply(&delta);
    assert!(targets(&site.site, &y97, "paper").is_empty());
}

#[test]
fn mixed_insert_and_delete_delta() {
    let site = Crawled::site_query(base_db());
    let p1 = site.oid("p1");
    let mut delta = GraphDelta::new();
    delta.remove_edge(p1, "title", Value::string("Alpha"));
    delta.add_edge(p1, "title", Value::string("Alpha (2nd ed.)"));
    site.apply(&delta);
    let paper1 = page("PaperPage", &[Value::Node(p1)]);
    assert_eq!(
        targets(&site.site, &paper1, "title"),
        [DynTarget::Data(Value::string("Alpha (2nd ed.)"))]
    );
}

#[test]
fn kleene_deletions_stay_incremental() {
    let site = Crawled::new(
        db_of(
            r#"object root in Roots { child : &a; }
               object a { label : "a"; child : &b; } object b { label : "b"; }"#,
        ),
        reach_query("*"),
        "Site",
    );
    let index = page("Index", &[]);
    assert_eq!(targets(&site.site, &index, "reach").len(), 5);
    let (a, b) = (site.oid("a"), site.oid("b"));
    let mut delta = GraphDelta::new();
    delta.remove_edge(a, "child", Value::Node(b));
    assert!(site.apply(&delta) > 0);
    // Copy(b) and Copy("b") lost their only derivation.
    assert_eq!(targets(&site.site, &index, "reach").len(), 3);
    assert_eq!(
        site.site
            .lookup(&page("Copy", &[Value::string("b")]))
            .unwrap(),
        None
    );
}

#[test]
fn negation_stays_incremental() {
    let program = parse(
        r#"create Index()
           collect Site(Index())
           { where Publications(x), not(x -> "retracted" -> r)
             create P(x)
             link Index() -> "live" -> P(x) }"#,
    )
    .unwrap();
    let site = Crawled::new(base_db(), program, "Site");
    let p1 = site.oid("p1");
    let index = page("Index", &[]);

    // An insertion under not(…) retracts a row: P(p1) leaves the index…
    let mut retract = GraphDelta::new();
    retract.add_edge(p1, "retracted", Value::Bool(true));
    assert!(site.apply(&retract) > 0);
    assert_eq!(targets(&site.site, &index, "live").len(), 1);

    // …and a deletion under it adds the row back.
    let mut restore = GraphDelta::new();
    restore.remove_edge(p1, "retracted", Value::Bool(true));
    assert!(site.apply(&restore) > 0);
    assert_eq!(targets(&site.site, &index, "live").len(), 2);
}

#[test]
fn negation_over_kleene_stays_incremental() {
    // The retraction changes a closure under not(…).
    let program = parse(
        r#"create Index()
           collect Roots(Index())
           { where Publications(x), not(x -> "rel"+ -> y)
             link Index() -> "leaf" -> x }"#,
    )
    .unwrap();
    let site = Crawled::new(
        db_of(
            r#"object p1 in Publications { rel : &p2; }
               object p2 in Publications { title : "Beta"; }"#,
        ),
        program,
        "Roots",
    );
    let index = page("Index", &[]);
    assert_eq!(targets(&site.site, &index, "leaf").len(), 1);
    let mut delta = GraphDelta::new();
    delta.remove_edge(site.oid("p1"), "rel", Value::Node(site.oid("p2")));
    assert!(site.apply(&delta) > 0);
    assert_eq!(targets(&site.site, &index, "leaf").len(), 2);
}

#[test]
fn delta_removing_its_own_insert_does_not_panic() {
    // A delta that adds an edge and removes it again: the removal names a
    // node the old graph never issued.
    let program = parse(
        r#"where x -> "year" -> y
           create P(x)
           link P(x) -> "year" -> y
           collect Out(P(x))"#,
    )
    .unwrap();
    let site = Crawled::new(db_of(r#"object p1 { year : 1997; }"#), program, "Out");
    let p2 = Oid::from_index(site.site.database().graph().node_count());
    let mut delta = GraphDelta::new();
    delta.add_node(Some("p2"));
    delta.add_edge(p2, "year", Value::Int(1998));
    delta.remove_edge(p2, "year", Value::Int(1998));
    site.apply(&delta);
    assert_eq!(site.site.roots("Out").unwrap().len(), 1);
}

#[test]
fn kleene_insertion_extends_paths_through_the_middle() {
    let site = Crawled::new(
        db_of(
            r#"object root in Roots { child : &a; }
               object a { label : "a"; } object b { label : "b"; }"#,
        ),
        reach_query("*"),
        "Site",
    );
    let index = page("Index", &[]);
    assert_eq!(
        targets(&site.site, &index, "reach").len(),
        3,
        "root, a, label"
    );
    // Adding a->child->b extends reachability through the middle of
    // existing paths.
    let mut delta = GraphDelta::new();
    delta.add_edge(site.oid("a"), "child", Value::Node(site.oid("b")));
    assert!(site.apply(&delta) > 0);
    assert_eq!(targets(&site.site, &index, "reach").len(), 5);
}

/// Deleting an edge whose label the Kleene closure can never traverse
/// moves no row.
#[test]
fn irrelevant_label_deletion_stays_incremental_despite_kleene() {
    let site = Crawled::new(
        db_of(r#"object root in Roots { child : &a; note : "draft"; } object a { label : "a"; }"#),
        reach_query(r#""child"*"#),
        "Site",
    );
    let mut delta = GraphDelta::new();
    delta.remove_edge(site.oid("root"), "note", Value::string("draft"));
    assert_eq!(
        site.apply(&delta),
        0,
        "'note' cannot be traversed by \"child\"*"
    );
}

/// Inserting an edge irrelevant to a Kleene closure moves no row.
#[test]
fn irrelevant_insert_skips_kleene_chain() {
    let site = Crawled::new(
        db_of(r#"object root in Roots { child : &a; } object a { label : "a"; }"#),
        reach_query(r#""child"*"#),
        "Site",
    );
    let mut delta = GraphDelta::new();
    delta.add_edge(site.oid("root"), "note", Value::string("draft"));
    assert_eq!(site.apply(&delta), 0, "no guard atom relates to 'note'");
}

#[test]
fn empty_delta_changes_nothing() {
    let site = Crawled::site_query(base_db());
    let before = pages(&site.site, "Site");
    assert_eq!(site.apply(&GraphDelta::new()), 0);
    assert_eq!(pages(&site.site, "Site"), before);
}

#[test]
fn incremental_matches_full_on_a_burst_of_inserts() {
    let site = Crawled::site_query(base_db());
    let base = site.site.database().graph().node_count();
    let mut delta = GraphDelta::new();
    for i in 0..5 {
        delta.add_node(Some(&format!("np{i}")));
        let oid = Oid::from_index(base + i);
        delta.add_edge(oid, "title", Value::string(format!("New {i}")));
        delta.add_edge(oid, "year", Value::Int(1997 + (i as i64 % 3)));
        delta.collect("Publications", Value::Node(oid));
    }
    site.apply(&delta);
    assert_eq!(site.site.roots("Pages").unwrap().len(), 7);
}

/// Seeded chains of mixed deltas over a Kleene closure, `not(…)`, and
/// facts inserted and retracted within one delta: after every round each
/// reachable page's rows and counts, carried from delta to delta, equal
/// the rows a fresh engine counts.
#[test]
fn carried_counts_match_recounted_counts() {
    let program = parse(
        r#"create Index()
           collect Site(Index())
           { where Items(x), x -> "next"* -> y, not(y -> "hidden" -> h)
             create Page(x), Seen(y)
             link Page(x) -> "reaches" -> Seen(y), Index() -> "item" -> Page(x)
             collect Pages(Page(x)) }
           { where Items(x), x -> "tag" -> t
             create Tag(t)
             link Tag(t) -> "item" -> x, Index() -> "tag" -> Tag(t)
             collect Tags(Tag(t)) }"#,
    )
    .unwrap();
    for seed in 0..16u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = Graph::new();
        for i in 0..6 {
            let node = g.add_named_node(&format!("n{i}"));
            if rng.gen_bool(0.5) {
                g.collect_str("Items", node);
            }
        }
        let db = Database::from_graph(g, IndexLevel::Full);
        let site = Crawled::new(db, program.clone(), "Site");
        for round in 0..8 {
            let data = site.site.database().graph().clone();
            let n = data.node_count();
            let mut node = || Value::Node(Oid::from_index(rng.gen_range(0..n)));
            let (a, b, c) = (node(), node(), node());
            let from = a.as_node().unwrap();
            let mut delta = GraphDelta::new();
            match rng.gen_range(0..4u32) {
                0 => delta.add_node(Some(&format!("m{seed}.{round}"))),
                1 => delta.add_edge(from, "tag", Value::Int(rng.gen_range(0..3i64))),
                2 => delta.add_edge(from, "hidden", Value::Bool(true)),
                _ => delta.add_edge(from, "next", b.clone()),
            }
            // Inserted and retracted within the delta.
            delta.add_edge(from, "next", c.clone());
            delta.remove_edge(from, "next", c);
            if let Some(e) = data.edges(b.as_node().unwrap()).first() {
                let label = data.label_name(e.label).to_owned();
                delta.remove_edge(b.as_node().unwrap(), &label, e.to.clone());
            }
            if data.members_str("Items").contains(&a) {
                delta.uncollect("Items", a);
            } else {
                delta.collect("Items", a);
            }
            site.apply(&delta);

            let fresh = DynamicSite::new(site.site.database(), &program, Mode::Context);
            for key in site.site.crawl("Site").unwrap() {
                fresh.visit(&key).unwrap();
                let rows = |s: &DynamicSite| {
                    let mut rows: Vec<String> = s
                        .stored_rows(&key)
                        .unwrap_or_default()
                        .into_iter()
                        .map(|(ei, row, _)| format!("{ei} {row:?}"))
                        .collect();
                    rows.sort_unstable();
                    rows
                };
                assert_eq!(
                    rows(&site.site),
                    rows(&fresh),
                    "seed {seed} round {round}: {key:?} after {:?}",
                    delta.ops()
                );
            }
        }
    }
}
