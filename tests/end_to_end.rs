//! End-to-end integration tests: the full wrap → mediate → query → verify
//! → render pipeline across every crate, at non-trivial scale.

use strudel::repo::{Database, IndexLevel};
use strudel::schema::constraint::verify::Verdict;
use strudel::struql::{EvalOptions, Evaluator};
use strudel_bench::{paper_homepage_site, paper_news_corpus, paper_org_site};
use strudel_workload::{news, org};

#[test]
fn homepage_pipeline_at_paper_scale() {
    let site = paper_homepage_site(40);
    assert_eq!(site.stats.sources, 2);
    assert!(site.stats.site_nodes > 80, "site nodes: {}", site.stats.site_nodes);

    let out = site.render().unwrap();
    assert!(out.pages.len() > 40, "pages: {}", out.pages.len());

    // Every page is non-empty HTML.
    for p in &out.pages {
        assert!(!p.html.trim().is_empty(), "{} is empty", p.name);
    }
    // Every internal link on every page resolves to a generated page.
    assert!(out.broken_links().is_empty(), "{:?}", out.broken_links());
}

#[test]
fn org_pipeline_with_verification() {
    let data = org::generate(&org::OrgConfig {
        people: 120,
        ..Default::default()
    });
    let site = strudel::sites::org_site(
        &data.people_csv,
        &data.departments_csv,
        &data.projects_rec,
        &data.demos_rec,
        &data.legacy_html,
    )
    .constraint("forall p in PersonPages : exists r in OrgRoot : r -> * -> p")
    .constraint("forall d in DeptPages : exists r in OrgRoot : r -> * -> d")
    .build()
    .unwrap();

    for v in &site.verifications {
        assert_eq!(v.static_verdict, Verdict::Proved, "{}", v.constraint.source);
        assert!(v.runtime_result.holds, "{}", v.constraint.source);
    }

    // All 120 people have pages reachable from the root.
    let out = site.render().unwrap();
    let person_pages = out
        .pages
        .iter()
        .filter(|p| p.name.starts_with("PersonPage"))
        .count();
    assert_eq!(person_pages, 120);
}

#[test]
fn news_pipeline_cross_checks_with_dynamic_engine() {
    use strudel::schema::dynamic::{DynTarget, DynamicSite, Mode};
    let corpus = paper_news_corpus(80);
    let site = strudel::sites::news_site(&corpus).build().unwrap();
    let static_result = &site.result;

    let engine = DynamicSite::new(site.database.clone(), &site.program, Mode::Context);
    let roots = engine.roots("FrontRoot").unwrap();
    assert_eq!(roots.len(), 1);
    let front = engine.visit(&roots[0]).unwrap();

    // The dynamic front page lists exactly the statically materialized
    // sections and headlines.
    let front_oid = static_result.skolem_node("FrontPage", &[]).unwrap();
    let static_sections = static_result
        .graph
        .attr_str(front_oid, "Section")
        .count();
    let dynamic_sections = front
        .edges
        .iter()
        .filter(|(l, _)| &**l == "Section")
        .count();
    assert_eq!(static_sections, dynamic_sections);

    // Follow one section and cross-check its story list.
    let (_, DynTarget::Page(section_key)) = front
        .edges
        .iter()
        .find(|(l, _)| &**l == "Section")
        .unwrap()
        .clone()
    else {
        panic!("section link is a page");
    };
    let section_view = engine.visit(&section_key).unwrap();
    let section_oid = static_result
        .skolem_node(&section_key.symbol, &section_key.args)
        .unwrap();
    assert_eq!(
        static_result.graph.attr_str(section_oid, "Story").count(),
        section_view.edges.iter().filter(|(l, _)| &**l == "Story").count()
    );
}

#[test]
fn optimizer_and_indexes_are_transparent_at_scale() {
    let corpus = news::generate(&news::NewsConfig {
        articles: 150,
        ..Default::default()
    });
    let docs = strudel::wrappers::html::HtmlDoc::from_pairs(&corpus.pages);
    let g = strudel::wrappers::html::wrap_documents(&docs, "Articles").unwrap();
    let program = strudel::struql::parse(strudel::sites::NEWS_QUERY).unwrap();

    let mut signatures = Vec::new();
    for level in [IndexLevel::None, IndexLevel::ExtensionOnly, IndexLevel::Full] {
        for optimize in [false, true] {
            let db = Database::from_graph(g.clone(), level);
            let r = Evaluator::with_options(&db, EvalOptions { optimize })
                .eval(&program)
                .unwrap();
            signatures.push((r.new_nodes.len(), r.graph.edge_count()));
        }
    }
    assert!(
        signatures.windows(2).all(|w| w[0] == w[1]),
        "all configurations agree: {signatures:?}"
    );
}

#[test]
fn composed_query_pipeline_adds_navigation() {
    // The suciu example of §5.1: the site graph "is built in several
    // successive steps by multiple, composed STRUQL queries; the last step
    // copies the entire site graph and adds a navigation bar".
    let site = paper_homepage_site(15);
    let db2 = Database::from_graph(site.result.graph.clone(), IndexLevel::Full);
    let nav_query = strudel::struql::parse(
        r#"
        create NavBar()
        link NavBar() -> "home" -> "HomePage.html",
             NavBar() -> "abstracts" -> "AbstractsPage.html"

        where PaperPages(p)
        create Framed(p)
        link Framed(p) -> "content" -> p,
             Framed(p) -> "nav" -> NavBar()
        collect FramedPages(Framed(p))
    "#,
    )
    .unwrap();
    let r2 = Evaluator::new(&db2).eval(&nav_query).unwrap();
    let framed = r2.graph.members_str("FramedPages");
    assert_eq!(framed.len(), 15);
    let nav = r2.skolem_node("NavBar", &[]).unwrap();
    for f in framed {
        let f = f.as_node().unwrap();
        assert_eq!(
            r2.graph.first_attr_str(f, "nav"),
            Some(&strudel::graph::Value::Node(nav))
        );
    }
}

#[test]
fn org_paper_scale_smoke() {
    // The full ~400-person site builds and renders without error.
    let site = paper_org_site(400);
    let out = site.render().unwrap();
    assert!(out.pages.len() > 450, "pages: {}", out.pages.len());
}
