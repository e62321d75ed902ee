//! Evaluator tests built around the paper's own examples.

use crate::eval::{construct_into, Construction, Ctx, EvalOptions, EvalResult, Evaluator, Row};
use crate::parser::parse;
use crate::{Block, StruqlResult};
use strudel_graph::{ddl, FileKind, Graph, Value};
use strudel_repo::{Database, IndexLevel};

/// A construction sink: [`Evaluator::eval`]'s construction stage, fed
/// bindings rows by the test instead of by a where clause, so the
/// construction oracles below can replay rows of their choosing.
struct Constructor {
    ctx: Ctx,
}

impl Constructor {
    fn new(graph: Graph) -> Self {
        Constructor {
            ctx: Ctx::new(graph),
        }
    }

    /// Applies one block's `create`/`link`/`collect` (not its nested
    /// blocks) for every row. `vars` gives the slot names of `rows`.
    fn apply_block(&mut self, block: &Block, vars: &[String], rows: &[Row]) -> StruqlResult<()> {
        if rows.is_empty() {
            return Ok(());
        }
        let mut construction = Construction::compile(block, vars, &mut self.ctx.skolem);
        for row in rows {
            construct_into(&mut construction, row, &mut self.ctx)?;
        }
        Ok(())
    }

    fn finish(self) -> EvalResult {
        self.ctx.finish()
    }
}

/// The Fig. 2 data graph fragment: two publications with irregular
/// attributes.
fn bib_db() -> Database {
    let g = ddl::parse(
        r#"
        collection Publications {
          default abstract   : text;
          default postscript : postscript;
        }
        object pub1 in Publications {
          title    : "Real-world data";
          year     : 1997;
          month    : "June";
          author   : "Mary Fernandez";
          author   : "Dan Suciu";
          category : "semistructured";
          abstract : "abs/pub1.txt";
        }
        object pub2 in Publications {
          title     : "Managing the web";
          year      : 1998;
          booktitle : "SIGMOD";
          author    : "Alon Levy";
          category  : "web";
          postscript: "ps/pub2.ps";
        }
    "#,
    )
    .unwrap();
    Database::from_graph(g, IndexLevel::Full)
}

/// The Fig. 3 site-definition query (homepage site).
const HOMEPAGE_QUERY: &str = r#"
    create RootPage(), AbstractsPage()
    link RootPage() -> "Abstracts" -> AbstractsPage()

    where Publications(x)
    create AbstractPage(x), PaperPresentation(x)
    link AbstractsPage() -> "Abstract" -> AbstractPage(x),
         AbstractPage(x) -> "Paper" -> PaperPresentation(x)
    { where x -> l -> v
      link PaperPresentation(x) -> l -> v }
    { where x -> "year" -> y
      create YearPage(y)
      link YearPage(y) -> "Year" -> y,
           YearPage(y) -> "Paper" -> PaperPresentation(x),
           RootPage() -> "YearPage" -> YearPage(y) }
    { where x -> "category" -> c
      create CategoryPage(c)
      link CategoryPage(c) -> "Category" -> c,
           CategoryPage(c) -> "Paper" -> PaperPresentation(x),
           RootPage() -> "CategoryPage" -> CategoryPage(c) }
    collect SitePages(AbstractPage(x)), SitePages(PaperPresentation(x))
"#;

#[test]
fn homepage_query_builds_fig4_site_graph() {
    let db = bib_db();
    let program = parse(HOMEPAGE_QUERY).unwrap();
    let result = Evaluator::new(&db).eval(&program).unwrap();
    let g = &result.graph;

    let root = result.skolem_node("RootPage", &[]).unwrap();
    let abstracts = result.skolem_node("AbstractsPage", &[]).unwrap();
    assert!(g.has_edge(root, g.label("Abstracts").unwrap(), &Value::Node(abstracts)));

    // One YearPage per distinct year, one CategoryPage per category.
    let y97 = result.skolem_node("YearPage", &[Value::Int(1997)]).unwrap();
    let y98 = result.skolem_node("YearPage", &[Value::Int(1998)]).unwrap();
    assert_ne!(y97, y98);
    assert!(result
        .skolem_node("CategoryPage", &[Value::string("web")])
        .is_some());

    // The PaperPresentation copies *all* attributes, whatever they are —
    // arc variables carry irregularity into the site graph (§6.2).
    let pub1 = db.graph().node_by_name("pub1").unwrap();
    let pres1 = result
        .skolem_node("PaperPresentation", &[Value::Node(pub1)])
        .unwrap();
    let month = g.label("month").unwrap();
    assert_eq!(
        g.first_attr(pres1, month).unwrap().as_str(),
        Some("June"),
        "pub1's month copied"
    );
    assert_eq!(g.attr_str(pres1, "author").count(), 2);
    let pub2 = db.graph().node_by_name("pub2").unwrap();
    let pres2 = result
        .skolem_node("PaperPresentation", &[Value::Node(pub2)])
        .unwrap();
    assert_eq!(g.attr(pres2, month).count(), 0, "pub2 has no month");
    assert_eq!(
        g.first_attr_str(pres2, "booktitle").unwrap().as_str(),
        Some("SIGMOD")
    );

    // Year pages link to the presentations of their year.
    let paper = g.label("Paper").unwrap();
    assert!(g.has_edge(y97, paper, &Value::Node(pres1)));
    assert!(g.has_edge(y98, paper, &Value::Node(pres2)));
    assert!(!g.has_edge(y97, paper, &Value::Node(pres2)));

    // Root links to both year pages.
    let yp = g.label("YearPage").unwrap();
    assert!(g.has_edge(root, yp, &Value::Node(y97)));
    assert!(g.has_edge(root, yp, &Value::Node(y98)));

    // collect gathered the per-publication pages.
    assert_eq!(g.members_str("SitePages").len(), 4);

    // New nodes: RootPage, AbstractsPage, 2×AbstractPage,
    // 2×PaperPresentation, 2×YearPage, 2×CategoryPage.
    assert_eq!(result.new_nodes.len(), 10);
}

#[test]
fn skolem_terms_deduplicate_across_rows_and_blocks() {
    let db = bib_db();
    let program = parse(
        r#"
        where Publications(x), x -> "year" -> y
        create YearPage(y)
        link YearPage(y) -> "Year" -> y

        where Publications(x), x -> "year" -> y
        create YearPage(y)
        collect Years(YearPage(y))
    "#,
    )
    .unwrap();
    let result = Evaluator::new(&db).eval(&program).unwrap();
    // Two distinct years → two pages, shared across the two blocks.
    assert_eq!(result.new_nodes.len(), 2);
    assert_eq!(result.graph.members_str("Years").len(), 2);
}

#[test]
fn textonly_query_copies_non_image_structure() {
    let g = ddl::parse(
        r#"
        object home in Root {
          title : "Home";
          pic   : image("me.gif");
          child : &sub;
        }
        object sub {
          title : "Sub";
          shot  : image("x.gif");
        }
    "#,
    )
    .unwrap();
    let db = Database::from_graph(g, IndexLevel::Full);
    let program = parse(
        r#"
        where Root(p), p -> * -> q, q -> l -> r, not(isImageFile(r))
        create New(p), New(q), New(r)
        link   New(q) -> l -> New(r)
        collect TextOnlyRoot(New(p))
    "#,
    )
    .unwrap();
    let result = Evaluator::new(&db).eval(&program).unwrap();
    let g2 = &result.graph;

    let roots = g2.members_str("TextOnlyRoot");
    assert_eq!(roots.len(), 1);
    let new_home = roots[0].as_node().unwrap();

    // The copy has title and child edges but no pic edge.
    assert_eq!(g2.attr_str(new_home, "title").count(), 1);
    assert_eq!(g2.attr_str(new_home, "child").count(), 1);
    assert_eq!(g2.attr_str(new_home, "pic").count(), 0);

    // The child copy exists and lost its image too.
    let new_sub = g2
        .first_attr_str(new_home, "child")
        .unwrap()
        .as_node()
        .unwrap();
    assert_eq!(g2.attr_str(new_sub, "shot").count(), 0);
    assert_eq!(g2.attr_str(new_sub, "title").count(), 1);

    // Copied titles wrap the original atomic values… as New(atomic) nodes?
    // No: New(r) for atomic r creates a node per distinct atomic value.
    // The original strings hang under the copies via their labels.
    let title_target = g2.first_attr_str(new_home, "title").unwrap();
    assert!(title_target.as_node().is_some(), "New(\"Home\") is a node");
}

#[test]
fn comparisons_coerce_at_runtime() {
    let db = bib_db();
    let program = parse(
        r#"
        where Publications(x), x -> "year" -> y, y >= "1998"
        create Recent(x)
        collect RecentPubs(Recent(x))
    "#,
    )
    .unwrap();
    let result = Evaluator::new(&db).eval(&program).unwrap();
    assert_eq!(result.graph.members_str("RecentPubs").len(), 1);
}

#[test]
fn constants_in_path_targets_select() {
    let db = bib_db();
    let program = parse(
        r#"
        where Publications(x), x -> "year" -> 1997
        create P(x)
        collect Out(P(x))
    "#,
    )
    .unwrap();
    let result = Evaluator::new(&db).eval(&program).unwrap();
    assert_eq!(result.graph.members_str("Out").len(), 1);
}

#[test]
fn builtin_predicates_filter() {
    let db = bib_db();
    let program = parse(
        r#"
        where Publications(x), x -> l -> v, isPostScript(v)
        create P(x)
        collect HasPs(P(x))
    "#,
    )
    .unwrap();
    let result = Evaluator::new(&db).eval(&program).unwrap();
    assert_eq!(result.graph.members_str("HasPs").len(), 1);
}

#[test]
fn negated_path_condition() {
    let db = bib_db();
    // Publications with no month attribute.
    let program = parse(
        r#"
        where Publications(x), not(x -> "month" -> m)
        create P(x)
        collect NoMonth(P(x))
    "#,
    )
    .unwrap();
    let result = Evaluator::new(&db).eval(&program).unwrap();
    assert_eq!(result.graph.members_str("NoMonth").len(), 1);
}

#[test]
fn arc_variables_join_on_label_equality() {
    let mut g = Graph::new();
    let a = g.add_named_node("a");
    let b = g.add_named_node("b");
    g.add_edge_str(a, "shared", Value::Int(1));
    g.add_edge_str(b, "shared", Value::Int(2));
    g.add_edge_str(a, "only_a", Value::Int(3));
    g.collect_str("L", a);
    g.collect_str("R", b);
    let db = Database::from_graph(g, IndexLevel::Full);

    // Labels appearing on members of both L and R.
    let program = parse(
        r#"
        where L(x), R(y), x -> l -> v, y -> l -> w
        create Common(l)
        collect CommonLabels(Common(l))
    "#,
    )
    .unwrap();
    let result = Evaluator::new(&db).eval(&program).unwrap();
    assert_eq!(result.graph.members_str("CommonLabels").len(), 1);
    let node = result
        .skolem_node("Common", &[Value::string("shared")])
        .unwrap();
    assert!(result.graph.node_name(node).is_some());
}

#[test]
fn link_with_arc_variable_copies_labels() {
    let db = bib_db();
    let program = parse(
        r#"
        where Publications(x), x -> l -> v
        create P(x)
        link P(x) -> l -> v
    "#,
    )
    .unwrap();
    let result = Evaluator::new(&db).eval(&program).unwrap();
    let pub1 = db.graph().node_by_name("pub1").unwrap();
    let p1 = result.skolem_node("P", &[Value::Node(pub1)]).unwrap();
    assert_eq!(
        result.graph.edges(p1).len(),
        db.graph().edges(pub1).len(),
        "every attribute copied exactly once"
    );
}

#[test]
fn output_edges_have_set_semantics() {
    // Duplicate edges in the input multigraph must not duplicate output
    // links: the bindings relation is a set of assignments.
    let mut g = Graph::new();
    let a = g.add_named_node("a");
    g.add_edge_str(a, "t", Value::Int(1));
    g.add_edge_str(a, "t", Value::Int(1)); // duplicate edge
    g.collect_str("C", a);
    let db = Database::from_graph(g, IndexLevel::Full);
    let program = parse(
        r#"
        where C(x), x -> "t" -> v
        create P(x)
        link P(x) -> "t" -> v
    "#,
    )
    .unwrap();
    let result = Evaluator::new(&db).eval(&program).unwrap();
    let p = result
        .skolem_node("P", &[Value::Node(db.graph().node_by_name("a").unwrap())])
        .unwrap();
    assert_eq!(result.graph.attr_str(p, "t").count(), 1);
}

#[test]
fn empty_collection_yields_empty_result() {
    let db = bib_db();
    let program = parse("where Ghost(x) create P(x) collect Out(P(x))").unwrap();
    let result = Evaluator::new(&db).eval(&program).unwrap();
    assert_eq!(result.new_nodes.len(), 0);
    assert_eq!(result.graph.members_str("Out").len(), 0);
}

#[test]
fn unoptimized_and_optimized_agree() {
    let db = bib_db();
    let program = parse(HOMEPAGE_QUERY).unwrap();
    let opt = Evaluator::new(&db).eval(&program).unwrap();
    let naive = Evaluator::with_options(&db, EvalOptions { optimize: false })
        .eval(&program)
        .unwrap();
    assert_eq!(opt.new_nodes.len(), naive.new_nodes.len());
    assert_eq!(opt.graph.edge_count(), naive.graph.edge_count());
    assert_eq!(
        opt.graph.members_str("SitePages").len(),
        naive.graph.members_str("SitePages").len()
    );
}

#[test]
fn index_levels_do_not_change_results() {
    let g = bib_db().into_graph();
    let program = parse(HOMEPAGE_QUERY).unwrap();
    let mut edge_counts = Vec::new();
    for level in [IndexLevel::None, IndexLevel::ExtensionOnly, IndexLevel::Full] {
        let db = Database::from_graph(g.clone(), level);
        let result = Evaluator::new(&db).eval(&program).unwrap();
        edge_counts.push((result.graph.edge_count(), result.new_nodes.len()));
    }
    assert_eq!(edge_counts[0], edge_counts[1]);
    assert_eq!(edge_counts[1], edge_counts[2]);
}

#[test]
fn query_composition_pipelines() {
    // Stage 1: build a small site. Stage 2 (applied to stage 1's output):
    // copy the site and add a navigation bar to each page — the suciu
    // example of §5.1.
    let db = bib_db();
    let stage1 = parse(
        r#"
        where Publications(x)
        create Page(x)
        link Page(x) -> "title" -> x
        collect Pages(Page(x))
    "#,
    )
    .unwrap();
    let r1 = Evaluator::new(&db).eval(&stage1).unwrap();

    let db2 = Database::from_graph(r1.graph, IndexLevel::Full);
    let stage2 = parse(
        r#"
        create NavBar()
        link NavBar() -> "home" -> "index.html"

        where Pages(p)
        create Wrapped(p)
        link Wrapped(p) -> "content" -> p,
             Wrapped(p) -> "nav" -> NavBar()
        collect WrappedPages(Wrapped(p))
    "#,
    )
    .unwrap();
    let r2 = Evaluator::new(&db2).eval(&stage2).unwrap();
    assert_eq!(r2.graph.members_str("WrappedPages").len(), 2);
    let nav = r2.skolem_node("NavBar", &[]).unwrap();
    for p in r2.graph.members_str("WrappedPages") {
        let w = p.as_node().unwrap();
        assert_eq!(
            r2.graph.first_attr_str(w, "nav"),
            Some(&Value::Node(nav)),
            "every page shares the same nav bar"
        );
    }
}

#[test]
fn immutability_is_enforced_at_runtime() {
    // Craft a program that passes static checks (link source symbol appears
    // in a create clause) but whose source resolves to an existing node at
    // run time — impossible through the public API, so simulate by linking
    // from a Skolem of an existing node and checking the *target* instead.
    // Here we assert the static analyzer already rejects the direct form.
    let err = parse("where Publications(x) link x -> \"a\" -> x").unwrap_err();
    assert!(err.message().contains("immutable"));
}

#[test]
fn rows_evaluated_is_reported() {
    let db = bib_db();
    let program = parse(HOMEPAGE_QUERY).unwrap();
    let result = Evaluator::new(&db).eval(&program).unwrap();
    assert!(result.rows_evaluated > 0);
}

#[test]
fn files_survive_into_site_graph() {
    let db = bib_db();
    let program = parse(
        r#"
        where Publications(x), x -> "abstract" -> a
        create P(x)
        link P(x) -> "abstract" -> a
    "#,
    )
    .unwrap();
    let result = Evaluator::new(&db).eval(&program).unwrap();
    let pub1 = db.graph().node_by_name("pub1").unwrap();
    let p = result.skolem_node("P", &[Value::Node(pub1)]).unwrap();
    assert!(result
        .graph
        .first_attr_str(p, "abstract")
        .unwrap()
        .is_file_kind(FileKind::Text));
}

#[test]
fn eval_where_bindings_with_seeds() {
    let db = bib_db();
    let ev = Evaluator::new(&db);
    let conds = parse(
        r#"where Publications(x), x -> "year" -> y create P(x)"#,
    )
    .unwrap()
    .blocks[0]
        .where_
        .clone();

    // Unseeded: one row per (publication, year).
    let (vars, rows) = ev.eval_where_bindings(&conds, &[]).unwrap();
    assert_eq!(rows.len(), 2);
    assert!(vars.contains(&"x".to_string()));
    assert!(vars.contains(&"y".to_string()));

    // Seeded with a year: only the 1998 publication matches.
    let (vars, rows) = ev
        .eval_where_bindings(&conds, &[("y".to_string(), Value::Int(1998))])
        .unwrap();
    assert_eq!(rows.len(), 1);
    let x_slot = vars.iter().position(|v| v == "x").unwrap();
    let x = rows[0][x_slot].as_ref().unwrap().as_node().unwrap();
    assert_eq!(db.graph().node_name(x), Some("pub2"));

    // Seeded with an impossible value: empty.
    let (_, rows) = ev
        .eval_where_bindings(&conds, &[("y".to_string(), Value::Int(1890))])
        .unwrap();
    assert!(rows.is_empty());
}

#[test]
fn comparison_operators_cover_all_cases() {
    let db = bib_db();
    let run = |cond: &str| -> usize {
        let q = format!(
            r#"where Publications(x), x -> "year" -> y, {cond} create P(x) collect Out(P(x))"#
        );
        let program = parse(&q).unwrap();
        Evaluator::new(&db)
            .eval(&program)
            .unwrap()
            .graph
            .members_str("Out")
            .len()
    };
    assert_eq!(run("y = 1997"), 1);
    assert_eq!(run("y != 1997"), 1);
    assert_eq!(run("y < 1998"), 1);
    assert_eq!(run("y <= 1998"), 2);
    assert_eq!(run("y > 1997"), 1);
    assert_eq!(run("y >= 1997"), 2);
    // Incomparable pair: a year never equals (or un-equals) a non-numeric
    // string — both the predicate and its negation-of-equality are false.
    assert_eq!(run(r#"y = "next year""#), 0);
    assert_eq!(run(r#"y != "next year""#), 0);
}

#[test]
fn indexed_lookups_respect_dynamic_coercion() {
    // Data stores years under mixed types; queries bind targets with the
    // "other" type. Indexed fast paths (inverted extension index, global
    // value index) must agree with coercing scans at every index level.
    let mut g = Graph::new();
    let a = g.add_named_node("a");
    let b = g.add_named_node("b");
    let c = g.add_named_node("c");
    g.add_edge_str(a, "year", Value::Int(1998));
    g.add_edge_str(b, "year", Value::string("1998"));
    g.add_edge_str(c, "year", Value::string("07"));
    g.collect_str("Pubs", a);
    g.collect_str("Pubs", b);
    g.collect_str("Pubs", c);

    let queries = [
        // Bound string constant vs Int data (label step).
        r#"where Pubs(x), x -> "year" -> "1998" create P(x) collect Out(P(x))"#,
        // Bound int constant vs Str data, including a nonstandard numeral.
        r#"where Pubs(x), x -> "year" -> 1998 create P(x) collect Out(P(x))"#,
        r#"where Pubs(x), x -> "year" -> 7 create P(x) collect Out(P(x))"#,
        // Arc-variable value lookup (global value index path).
        r#"where x -> l -> "1998" create P(x) collect Out(P(x))"#,
        r#"where x -> l -> 1998 create P(x) collect Out(P(x))"#,
    ];
    for q in queries {
        let program = parse(q).unwrap();
        let mut counts = Vec::new();
        for level in [IndexLevel::None, IndexLevel::ExtensionOnly, IndexLevel::Full] {
            let db = Database::from_graph(g.clone(), level);
            let r = Evaluator::new(&db).eval(&program).unwrap();
            counts.push(r.graph.members_str("Out").len());
        }
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "index level changed results for {q}: {counts:?}"
        );
        assert!(counts[0] > 0, "query should match something: {q}");
    }
    // Spot value: the string-constant query matches both 1998 holders.
    let db = Database::from_graph(g.clone(), IndexLevel::Full);
    let program = parse(queries[0]).unwrap();
    let r = Evaluator::new(&db).eval(&program).unwrap();
    assert_eq!(r.graph.members_str("Out").len(), 2);
}

#[test]
fn an_unbound_comparison_in_a_bare_clause_names_the_variable() {
    // `eval_where_bindings` plans bare conditions without the full
    // program's static analysis, so a comparison over a variable no atom
    // binds reaches the evaluator, which must say which one.
    let text = r#"where Publications(x), x -> l -> v, y >= 1995 create P(x)"#;
    assert!(parse(text).unwrap_err().to_string().contains("not bound"));
    let conds = crate::parser::parse_unchecked(text).unwrap().blocks[0]
        .where_
        .clone();
    let err = Evaluator::new(&bib_db())
        .eval_where_bindings(&conds, &[])
        .unwrap_err()
        .to_string();
    assert!(err.contains("'y'"), "{err}");
}

/// A hub page well past `HUB_DEGREE`, every link derived three times
/// over: the set-membership test must keep exactly the edges — in
/// exactly the order — that a `Graph::has_edge` scan per link keeps.
#[test]
fn hub_links_collapse_exactly_as_a_has_edge_scan_would() {
    let mut g = Graph::new();
    let items: Vec<_> = (0..200)
        .map(|i| g.add_named_node(&format!("i{i}")))
        .collect();
    for (i, &item) in items.iter().enumerate() {
        g.collect_str("Items", item);
        for tag in ["a", "b", "c"] {
            g.add_edge_str(item, "tag", Value::string(tag));
        }
        g.add_edge_str(item, "bucket", Value::Int(i as i64 % 7));
    }
    let db = Database::from_graph(g, IndexLevel::Full);
    let program = parse(
        r#"where Items(x), x -> "tag" -> t, x -> "bucket" -> b
           create Hub()
           link Hub() -> "item" -> x, Hub() -> "bucket" -> b, Hub() -> t -> b"#,
    )
    .unwrap();
    let result = Evaluator::new(&db).eval(&program).unwrap();
    let hub = result.skolem_node("Hub", &[]).unwrap();

    // The reference: replay the rows through a scan-per-link.
    let (vars, rows) = Evaluator::new(&db)
        .eval_where_bindings(&program.blocks[0].where_, &[])
        .unwrap();
    let slot = |n: &str| vars.iter().position(|v| v == n).unwrap();
    let mut reference = db.graph().clone();
    let ref_hub = reference.add_node();
    for row in &rows {
        let (x, t, b) = (
            row[slot("x")].clone().unwrap(),
            row[slot("t")].clone().unwrap(),
            row[slot("b")].clone().unwrap(),
        );
        for (label, to) in [("item", x), ("bucket", b.clone()), (t.as_str().unwrap(), b)] {
            let l = reference.intern_label(label);
            if !reference.has_edge(ref_hub, l, &to) {
                reference.add_edge(ref_hub, l, to);
            }
        }
    }
    let named = |g: &Graph, n| -> Vec<(String, Value)> {
        g.edges(n)
            .iter()
            .map(|e| (g.label_name(e.label).to_owned(), e.to.clone()))
            .collect()
    };
    assert_eq!(named(&result.graph, hub).len(), 200 + 7 + 3 * 7);
    assert_eq!(named(&result.graph, hub), named(&reference, ref_hub));
}

#[test]
fn construction_errors_name_the_variable_and_wait_for_a_row() {
    let db = bib_db();
    let program =
        parse(r#"where Publications(x), x -> "year" -> y create P(x) link P(x) -> "of" -> y"#)
            .unwrap();
    // A constructor handed a layout without `y` reports it at the first
    // row that needs it, not before: no rows, no error.
    let pub1 = Value::Node(db.graph().node_by_name("pub1").unwrap());
    let vars = vec!["x".to_string()];
    let mut c = Constructor::new(db.graph().clone());
    c.apply_block(&program.blocks[0], &vars, &[]).unwrap();
    let err = c
        .apply_block(&program.blocks[0], &vars, &[vec![Some(pub1.clone())]])
        .unwrap_err();
    assert!(
        err.to_string().contains("variable 'y' has no slot"),
        "{err}"
    );
    let vars = vec!["x".to_string(), "y".to_string()];
    let err = c
        .apply_block(&program.blocks[0], &vars, &[vec![Some(pub1), None]])
        .unwrap_err();
    assert!(
        err.to_string().contains("variable 'y' is unbound at use"),
        "{err}"
    );
}

/// One `apply_block` call over many rows must construct exactly what one
/// call per row does: a block's Skolem memos carry oids from row to row
/// only where the Skolem table would have answered the same. The rows
/// repeat their arguments back to back and interleaved; one Skolem term
/// appears in `create`, at both ends of a `link` and in `collect`, with a
/// nested Skolem argument, beside a variable label.
#[test]
fn one_apply_block_call_constructs_as_one_call_per_row_does() {
    use strudel_graph::graphs_equivalent;
    use strudel_prng::{choose, Rng, SeedableRng, SmallRng};

    let program = parse(
        r#"where Xs(x), x -> l -> y
           create P(x, S(y)), S(y)
           link P(x, S(y)) -> l -> P(x, S(y)), S(y) -> "of" -> x, P(x, S(y)) -> "s" -> S(y)
           collect Ps(P(x, S(y)))"#,
    )
    .unwrap();
    let block = &program.blocks[0];
    let vars: Vec<String> = ["x", "l", "y"].map(String::from).to_vec();

    let mut base = Graph::new();
    let data: Vec<Value> = (0..3)
        .map(|i| Value::Node(base.add_named_node(&format!("d{i}"))))
        .collect();
    for seed in 0..32u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let value = |rng: &mut SmallRng| match rng.gen_range(0..3u32) {
            0 => choose(rng, &data).clone(),
            1 => Value::Int(rng.gen_range(0..3i64)),
            // A fresh `Arc` per value: equal text, distinct pointers.
            _ => Value::string(String::from(*choose(rng, &["a", "b"]))),
        };
        let pool: Vec<Row> = (0..rng.gen_range(1..5usize))
            .map(|_| {
                let (x, y) = (value(&mut rng), value(&mut rng));
                let l = Value::string(*choose(&mut rng, &["p", "q"]));
                vec![Some(x), Some(l), Some(y)]
            })
            .collect();
        let mut rows: Vec<Row> = Vec::new();
        for _ in 0..rng.gen_range(0..40usize) {
            let row = match rows.last() {
                Some(last) if rng.gen_bool(0.4) => last.clone(),
                _ => choose(&mut rng, &pool).clone(),
            };
            rows.push(row);
        }

        let mut batch = Constructor::new(base.clone());
        batch.apply_block(block, &vars, &rows).unwrap();
        let mut single = Constructor::new(base.clone());
        for row in &rows {
            single
                .apply_block(block, &vars, std::slice::from_ref(row))
                .unwrap();
        }
        let (batch, single) = (batch.finish(), single.finish());

        assert_eq!(batch.new_nodes, single.new_nodes, "seed {seed}");
        let table = |r: &crate::EvalResult| {
            let mut t: Vec<(String, Vec<Value>, strudel_graph::Oid)> = r
                .skolem
                .iter()
                .map(|(k, oid)| (k.symbol.to_owned(), k.args.to_vec(), oid))
                .collect();
            t.sort();
            t
        };
        assert_eq!(table(&batch), table(&single), "seed {seed}");
        assert!(
            graphs_equivalent(&batch.graph, &single.graph),
            "seed {seed}"
        );
        for oid in batch.graph.node_oids() {
            assert_eq!(
                batch.graph.edges(oid),
                single.graph.edges(oid),
                "seed {seed}, {oid}"
            );
        }
    }
}
