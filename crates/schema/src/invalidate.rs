//! Delta-driven page invalidation for the click-time engine.
//!
//! Given a data-graph delta, compute exactly which dynamic pages
//! ([`PageKey`]s) changed content — the set a page cache must evict or
//! maintain — *and by which rows*. This is a projection of the
//! repository's one delta mechanism:
//! [`delta_rows`](strudel_struql::delta_rows) returns the exact signed
//! rows the delta adds to or retracts from each schema edge's guard, and
//! every such row names — through the edge's source Skolem
//! arguments — one page whose out-edges changed. [`OldHalves::new_half`]
//! keeps the rows grouped by that page, so a cache holding the page's
//! guard rows can patch them instead of re-deriving the diff per page.
//! Like `delta_rows` the work splits at the apply — [`old_half`] before
//! it, [`OldHalves::new_half`] after — so the engine diffs around one
//! database changed in place. Guards using
//! `not(…)` or Kleene closures dirty exact pages like any other; a row
//! whose retraction and re-insertion cancel dirties nothing.
//!
//! A schema edge whose source arguments nest a Skolem term is skipped, and
//! exactly so: a page key holds data values, never a Skolem term, so no
//! key can seed such an edge's guard, no visit ever evaluates it, and no
//! served page holds one of its rows.

use crate::dynamic::{eval_args, PageKey};
use crate::{SchemaNode, SiteSchema};
use std::collections::{HashMap, HashSet};
use strudel_graph::GraphDelta;
use strudel_repo::Database;
use strudel_struql::{DeltaTouch, Evaluator, OldHalf, SignedRow, StruqlResult, Term};

/// The pages a delta dirties.
#[derive(Clone, Debug, Default)]
pub struct DirtySet {
    /// Exactly identified dirty pages.
    pub pages: HashSet<PageKey>,
}

impl DirtySet {
    /// Whether a given page is dirtied by this set.
    pub fn contains(&self, key: &PageKey) -> bool {
        self.pages.contains(key)
    }

    /// Whether nothing was dirtied.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }
}

/// What a delta changed, page by page.
#[derive(Clone, Debug, Default)]
pub struct RoutedDelta {
    /// The pages whose content differs after the delta.
    pub dirty: DirtySet,
    /// For every page of `dirty.pages`, the signed guard rows behind the
    /// change: per contributing schema edge (index into `schema.edges`,
    /// ascending) that edge's [`delta_rows`](strudel_struql::delta_rows)
    /// output restricted to the page, in the guard's unseeded layout
    /// ([`where_vars`](strudel_struql::where_vars) with no seeds) and in
    /// `delta_rows` order.
    pub rows: HashMap<PageKey, Vec<(usize, Vec<SignedRow>)>>,
}

/// The half of "which pages did `delta` change, by which rows" that reads
/// `db` before the delta: the [`strudel_struql::old_half`] of every schema
/// edge guard the delta can change. It owns its rows, so the database may
/// then take the delta in place.
pub fn old_half(schema: &SiteSchema, db: &Database, delta: &GraphDelta) -> StruqlResult<OldHalves> {
    let touch = DeltaTouch::of(delta);
    let ev = Evaluator::new(db);
    let mut halves = Vec::new();
    for (ei, edge) in schema.edges.iter().enumerate() {
        // No page key can seed an edge whose source nests a Skolem term,
        // so none holds its rows: its deltas change no served page.
        let routed = matches!(schema.nodes[edge.from], SchemaNode::Skolem(_))
            && !edge.src_args.iter().any(|t| matches!(t, Term::Skolem { .. }));
        if routed && touch.touches(&edge.guard) {
            halves.push((ei, strudel_struql::old_half(&ev, &edge.guard, delta)?));
        }
    }
    Ok(OldHalves(halves))
}

/// What [`old_half`] read of the pre-delta database, by schema edge.
#[derive(Debug)]
pub struct OldHalves(Vec<(usize, OldHalf)>);

impl OldHalves {
    /// The pages whose content differs after the delta, with the rows that
    /// make the difference, from `db`: the database [`old_half`] read,
    /// with the delta now applied.
    pub fn new_half(self, schema: &SiteSchema, db: &Database) -> StruqlResult<RoutedDelta> {
        let mut rows: HashMap<PageKey, Vec<(usize, Vec<SignedRow>)>> = HashMap::new();
        let ev = Evaluator::new(db);
        for (ei, half) in self.0 {
            let edge = &schema.edges[ei];
            let out = half.new_half(&ev, &edge.guard)?;
            for (row, count) in out.rows {
                let key = PageKey {
                    symbol: schema.nodes[edge.from].name().to_owned(),
                    args: eval_args(&edge.src_args, &out.vars, &row)?,
                };
                let edges = rows.entry(key).or_default();
                match edges.last_mut() {
                    Some((last, of_edge)) if *last == ei => of_edge.push((row, count)),
                    _ => edges.push((ei, vec![(row, count)])),
                }
            }
        }
        let dirty = DirtySet {
            pages: rows.keys().cloned().collect(),
        };
        Ok(RoutedDelta { dirty, rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strudel_graph::{ddl, Value};
    use strudel_repo::IndexLevel;
    use strudel_struql::parse;

    const QUERY: &str = r#"
        create RootPage()
        where Publications(x)
        create PaperPage(x)
        link RootPage() -> "paper" -> PaperPage(x)
        collect Roots(RootPage())
        { where x -> "title" -> t
          link PaperPage(x) -> "title" -> t }
        { where x -> "year" -> y
          create YearPage(y)
          link PaperPage(x) -> "year" -> YearPage(y),
               YearPage(y) -> "label" -> y }
    "#;

    fn db() -> Database {
        let g = ddl::parse(
            r#"
            object p1 in Publications { title : "Alpha"; year : 1997; }
            object p2 in Publications { title : "Beta"; year : 1998; }
        "#,
        )
        .unwrap();
        Database::from_graph(g, IndexLevel::Full)
    }

    fn after(db: &Database, delta: &GraphDelta) -> Database {
        let mut g = db.graph().clone();
        delta.apply(&mut g).unwrap();
        Database::from_graph(g, IndexLevel::Full)
    }

    /// The pages `delta` dirties, from the databases before and after it.
    fn dirtied(s: &SiteSchema, old: &Database, new: &Database, delta: &GraphDelta) -> DirtySet {
        old_half(s, old, delta).unwrap().new_half(s, new).unwrap().dirty
    }

    #[test]
    fn title_edit_dirties_only_that_paper() {
        let db = db();
        let schema = SiteSchema::extract(&parse(QUERY).unwrap());
        let p1 = db.graph().node_by_name("p1").unwrap();
        let mut delta = GraphDelta::new();
        delta.remove_edge(p1, "title", Value::string("Alpha"));
        delta.add_edge(p1, "title", Value::string("Alpha v2"));
        let new_db = after(&db, &delta);
        let dirty = dirtied(&schema, &db, &new_db, &delta);
        let p1_key = PageKey {
            symbol: "PaperPage".into(),
            args: vec![Value::Node(p1)],
        };
        let p2_key = PageKey {
            symbol: "PaperPage".into(),
            args: vec![Value::Node(db.graph().node_by_name("p2").unwrap())],
        };
        assert!(dirty.contains(&p1_key));
        assert!(!dirty.contains(&p2_key), "p2 untouched: {dirty:?}");
    }

    #[test]
    fn new_publication_dirties_root() {
        let db = db();
        let schema = SiteSchema::extract(&parse(QUERY).unwrap());
        let mut delta = GraphDelta::new();
        delta.add_node(Some("p3"));
        let oid = strudel_graph::Oid::from_index(db.graph().node_count());
        delta.add_edge(oid, "title", Value::string("Gamma"));
        delta.collect("Publications", Value::Node(oid));
        let new_db = after(&db, &delta);
        let dirty = dirtied(&schema, &db, &new_db, &delta);
        assert!(dirty.contains(&PageKey {
            symbol: "RootPage".into(),
            args: vec![],
        }));
        // The new paper's own page is dirty too (it now has content).
        assert!(dirty.contains(&PageKey {
            symbol: "PaperPage".into(),
            args: vec![Value::Node(oid)],
        }));
    }

    #[test]
    fn year_retraction_dirties_paper_and_year_pages() {
        let db = db();
        let schema = SiteSchema::extract(&parse(QUERY).unwrap());
        let p1 = db.graph().node_by_name("p1").unwrap();
        let mut delta = GraphDelta::new();
        delta.remove_edge(p1, "year", Value::Int(1997));
        let new_db = after(&db, &delta);
        let dirty = dirtied(&schema, &db, &new_db, &delta);
        assert!(dirty.contains(&PageKey {
            symbol: "PaperPage".into(),
            args: vec![Value::Node(p1)],
        }));
        assert!(dirty.contains(&PageKey {
            symbol: "YearPage".into(),
            args: vec![Value::Int(1997)],
        }));
        assert!(!dirty.contains(&PageKey {
            symbol: "YearPage".into(),
            args: vec![Value::Int(1998)],
        }));
    }

    fn key(symbol: &str, node: strudel_graph::Oid) -> PageKey {
        PageKey {
            symbol: symbol.into(),
            args: vec![Value::Node(node)],
        }
    }

    #[test]
    fn negated_guard_dirties_exactly_the_flipped_page() {
        let query = r#"
            where Publications(x), not(x -> "hidden" -> h)
            create PubPage(x)
            link PubPage(x) -> "self" -> x
            collect Roots(PubPage(x))
        "#;
        let db = db();
        let schema = SiteSchema::extract(&parse(query).unwrap());
        let p1 = db.graph().node_by_name("p1").unwrap();
        let p2 = db.graph().node_by_name("p2").unwrap();
        let mut delta = GraphDelta::new();
        delta.add_edge(p1, "hidden", Value::Bool(true));
        let new_db = after(&db, &delta);
        let dirty = dirtied(&schema, &db, &new_db, &delta);
        assert!(dirty.contains(&key("PubPage", p1)), "{dirty:?}");
        assert!(!dirty.contains(&key("PubPage", p2)), "{dirty:?}");
    }

    #[test]
    fn self_cancelling_mixed_delta_does_not_panic() {
        // Regression: a delta that adds a node+edge and removes the edge
        // again produces a delete fact whose oid the old graph never
        // issued. Unifying it against the pre-delta database used to
        // index out of bounds; such facts now diff against an empty old
        // side.
        let db = db();
        let schema = SiteSchema::extract(&parse(QUERY).unwrap());
        let base = db.graph().node_count();
        let mut delta = GraphDelta::new();
        delta.add_node(Some("p3"));
        let p3 = strudel_graph::Oid::from_index(base);
        delta.add_edge(p3, "year", Value::Int(1998));
        delta.collect("Publications", Value::Node(p3));
        delta.remove_edge(p3, "year", Value::Int(1998));
        delta.uncollect("Publications", Value::Node(p3));
        let new_db = after(&db, &delta);

        let dirty = dirtied(&schema, &db, &new_db, &delta);
        // Existing pages of other papers stay clean.
        let p1 = db.graph().node_by_name("p1").unwrap();
        assert!(!dirty.contains(&PageKey {
            symbol: "PaperPage".into(),
            args: vec![Value::Node(p1)],
        }));
    }

    #[test]
    fn self_cancelling_delta_with_path_only_guard_does_not_panic() {
        // The sharpest form of the regression: when the guard is a bare
        // path condition (no collection atom to filter the phantom row
        // first), a seeded evaluation on the old database would reach
        // `graph.edges(oid)` with the never-issued oid directly and index
        // out of bounds.
        let query = r#"
            where x -> "title" -> t
            create TitlePage(x)
            link TitlePage(x) -> "title" -> t
            collect Titles(TitlePage(x))
        "#;
        let db = db();
        let schema = SiteSchema::extract(&parse(query).unwrap());
        let base = db.graph().node_count();
        let mut delta = GraphDelta::new();
        delta.add_node(Some("p3"));
        let p3 = strudel_graph::Oid::from_index(base);
        delta.add_edge(p3, "title", Value::string("Gamma"));
        delta.remove_edge(p3, "title", Value::string("Gamma"));
        let new_db = after(&db, &delta);

        let dirty = dirtied(&schema, &db, &new_db, &delta);
        let p1 = db.graph().node_by_name("p1").unwrap();
        assert!(!dirty.contains(&PageKey {
            symbol: "TitlePage".into(),
            args: vec![Value::Node(p1)],
        }));
    }

    const KLEENE_QUERY: &str = r#"
        where Publications(x), x -> "rel"* -> y
        create RelPage(x)
        link RelPage(x) -> "reaches" -> y
        collect Roots(RelPage(x))
    "#;

    /// A delta that only retracts facts whose label no guard can traverse
    /// must produce an empty dirty set — zero evictions.
    #[test]
    fn irrelevant_label_retraction_with_kleene_guard_dirties_nothing() {
        let g = ddl::parse(
            r#"
            object p1 in Publications { rel : &p2; note : "draft"; }
            object p2 in Publications { title : "Beta"; }
        "#,
        )
        .unwrap();
        let db = Database::from_graph(g, IndexLevel::Full);
        let schema = SiteSchema::extract(&parse(KLEENE_QUERY).unwrap());
        let p1 = db.graph().node_by_name("p1").unwrap();
        let mut delta = GraphDelta::new();
        delta.remove_edge(p1, "note", Value::string("draft"));
        let new_db = after(&db, &delta);
        let dirty = dirtied(&schema, &db, &new_db, &delta);
        assert!(dirty.is_empty(), "no guard references 'note': {dirty:?}");
    }

    /// The flip side: a fact whose label the Kleene closure *can* traverse
    /// dirties exactly the pages whose closure it changes — here the
    /// sources that reached p3 through the retracted edge — and not the
    /// symbol.
    #[test]
    fn traversable_label_dirties_exactly_the_pages_that_reached_through_it() {
        let g = ddl::parse(
            r#"
            object p1 in Publications { rel : &p2; }
            object p2 in Publications { rel : &p3; }
            object p3 in Publications { title : "Gamma"; }
            object p4 in Publications { rel : &p1; }
            object p5 in Publications { rel : &p3; }
        "#,
        )
        .unwrap();
        let db = Database::from_graph(g, IndexLevel::Full);
        let schema = SiteSchema::extract(&parse(KLEENE_QUERY).unwrap());
        let node = |n: &str| db.graph().node_by_name(n).unwrap();
        let mut delta = GraphDelta::new();
        delta.remove_edge(node("p2"), "rel", Value::Node(node("p3")));
        let new_db = after(&db, &delta);
        let dirty = dirtied(&schema, &db, &new_db, &delta);
        let expect: HashSet<PageKey> = ["p1", "p2", "p4"]
            .iter()
            .map(|n| key("RelPage", node(n)))
            .collect();
        assert_eq!(dirty.pages, expect, "p3 and p5 keep their closures");
    }

    /// A retraction under a negated Kleene guard — `not(…)` over a
    /// multi-step regex, which unifies with no single fact — dirties
    /// exactly the pages whose negation flips.
    #[test]
    fn retraction_under_negated_kleene_dirties_exactly_the_flipped_pages() {
        let query = r#"
            where Publications(x), not(x -> "rel"+ -> y)
            create LeafPage(x)
            link LeafPage(x) -> "self" -> x
            collect Roots(LeafPage(x))
        "#;
        let g = ddl::parse(
            r#"
            object p1 in Publications { rel : &p2; }
            object p2 in Publications { title : "Beta"; }
            object p3 in Publications { rel : &p2; }
        "#,
        )
        .unwrap();
        let db = Database::from_graph(g, IndexLevel::Full);
        let schema = SiteSchema::extract(&parse(query).unwrap());
        let p1 = db.graph().node_by_name("p1").unwrap();
        let p2 = db.graph().node_by_name("p2").unwrap();
        // p1 loses its rel edge: it now satisfies the negation and its
        // page gains content. p2 (a leaf before and after) and p3 (still
        // reaching p2) are unaffected.
        let mut delta = GraphDelta::new();
        delta.remove_edge(p1, "rel", Value::Node(p2));
        let new_db = after(&db, &delta);
        let dirty = dirtied(&schema, &db, &new_db, &delta);
        assert_eq!(dirty.pages, HashSet::from([key("LeafPage", p1)]));
        // An irrelevant label under the same guard still dirties nothing.
        let mut irrelevant = GraphDelta::new();
        irrelevant.add_edge(p1, "note", Value::string("draft"));
        let new_db2 = after(&db, &irrelevant);
        let dirty2 = dirtied(&schema, &db, &new_db2, &irrelevant);
        assert!(dirty2.is_empty(), "{dirty2:?}");
    }

    /// An edge whose source nests a Skolem term feeds no page: its deltas
    /// leave every cached view as a fresh engine serves it, and evict
    /// nothing.
    #[test]
    fn a_nested_skolem_edge_causes_no_evictions() {
        use crate::dynamic::{DynamicSite, Mode};
        use std::sync::Arc;
        let query = r#"
            where Publications(x), x -> "year" -> y
            create Cell(YearOf(y), x)
            link Cell(YearOf(y), x) -> "paper" -> x
            { where x -> "tag" -> z
              link Cell(z, x) -> "tag" -> z }
        "#;
        let g = ddl::parse(
            r#"
            object p1 in Publications { year : 1997; tag : "db"; tag : "web"; }
            object p2 in Publications { year : 1998; tag : "db"; }
        "#,
        )
        .unwrap();
        let program = parse(query).unwrap();
        let p1 = g.node_by_name("p1").unwrap();
        let p2 = g.node_by_name("p2").unwrap();
        let site = DynamicSite::new(
            Arc::new(Database::from_graph(g, IndexLevel::Full)),
            &program,
            Mode::Context,
        );
        let cell = |tag: &str, node| PageKey {
            symbol: "Cell".into(),
            args: vec![Value::string(tag), Value::Node(node)],
        };
        let keys = [cell("db", p1), cell("web", p1), cell("ai", p1), cell("db", p2)];
        let sorted = |site: &DynamicSite, key: &PageKey| {
            let mut edges: Vec<String> = site
                .visit(key)
                .unwrap()
                .edges
                .iter()
                .map(|e| format!("{e:?}"))
                .collect();
            edges.sort_unstable();
            edges
        };
        for key in &keys {
            sorted(&site, key);
        }
        let mut deltas: [GraphDelta; 4] = Default::default();
        deltas[0].add_edge(p1, "year", Value::Int(1999));
        deltas[1].remove_edge(p2, "year", Value::Int(1998));
        deltas[2].add_edge(p1, "tag", Value::string("ai"));
        deltas[3].remove_edge(p1, "tag", Value::string("web"));
        deltas[3].add_edge(p2, "year", Value::Int(2000));
        for (i, delta) in deltas.iter().enumerate() {
            site.apply_delta(delta).unwrap();
            let fresh = DynamicSite::new(site.database(), &program, Mode::Context);
            for key in &keys {
                assert_eq!(sorted(&site, key), sorted(&fresh, key), "delta {i}: {key:?}");
            }
            let m = site.metrics();
            assert_eq!(m.diff_fallbacks, 0, "delta {i}: {m:?}");
        }
        assert!(site.metrics().diff_pages_updated > 0, "{:?}", site.metrics());
    }

    #[test]
    fn unrelated_edit_dirties_nothing() {
        let db = db();
        let schema = SiteSchema::extract(&parse(QUERY).unwrap());
        let p1 = db.graph().node_by_name("p1").unwrap();
        let mut delta = GraphDelta::new();
        delta.add_edge(p1, "internal-note", Value::string("draft"));
        let new_db = after(&db, &delta);
        let dirty = dirtied(&schema, &db, &new_db, &delta);
        assert!(dirty.is_empty(), "{dirty:?}");
    }
}
