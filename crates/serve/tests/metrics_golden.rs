//! The `/metrics` exposition is an interface: dashboards and the
//! benchmark's oracles read rows by name. This suite pins the ordered
//! list of row names (values masked) for the `SiteService` front;
//! `tests/cluster.rs` pins the router's against the same list. Every
//! front emits the same `strudel_*` rows in the same order and appends
//! its own family after them.

mod common;

use std::sync::Arc;

use common::{metric_row_names, standard_metric_rows, untraced_metric_rows as untraced_rows};
use strudel_graph::ddl;
use strudel_repo::{Database, IndexLevel};
use strudel_schema::dynamic::Mode;
use strudel_serve::SiteService;
use strudel_template::TemplateSet;

const QUERY: &str = r#"
    create RootPage()
    where Articles(x)
    create ArticlePage(x)
    link RootPage() -> "story" -> ArticlePage(x)
    collect Roots(RootPage()), ArticlePages(ArticlePage(x))
    { where x -> "title" -> t
      link ArticlePage(x) -> "title" -> t }
"#;

fn parts() -> (Arc<Database>, strudel_struql::Program, TemplateSet) {
    let graph = ddl::parse(
        r#"
        object a1 in Articles { title : "First"; }
        object a2 in Articles { title : "Second"; }
        object a3 in Articles { title : "Third"; }
    "#,
    )
    .unwrap();
    let mut templates = TemplateSet::new();
    templates
        .add_template("article", "<html><h1><SFMT title></h1></html>")
        .unwrap();
    templates
        .add_template("root", "<html><SFMT story UL ORDER=ascend KEY=title></html>")
        .unwrap();
    templates.assign_object("RootPage", "root");
    templates.assign_collection("ArticlePages", "article");
    (
        Arc::new(Database::from_graph(graph, IndexLevel::Full)),
        strudel_struql::parse(QUERY).unwrap(),
        templates,
    )
}

/// `/`, the root page, one article and a miss: a route of every kind.
fn drive(handle: impl Fn(&str) -> strudel_serve::Response) {
    assert_eq!(handle("/").status, 200);
    assert_eq!(handle("/page/RootPage").status, 200);
    let root = handle("/page/RootPage").body;
    let article = root
        .split("href=\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("the root page links an article")
        .to_owned();
    assert_eq!(handle(&article).status, 200);
    assert_eq!(handle("/no/such/route").status, 404);
}

#[test]
fn the_unsharded_front_emits_the_standard_rows_in_order() {
    let (db, program, templates) = parts();
    let service = SiteService::from_parts(db, &program, templates, "Roots", Mode::Context);
    drive(|p| service.handle(p));
    let expected =
        standard_metric_rows(&["front", "not_found", "page/ArticlePage", "page/RootPage"]);
    assert_eq!(untraced_rows(&service.handle("/metrics").body), expected);
    // The struct and the endpoint are one rendition; the scrape above
    // is itself a route by now.
    let scraped = standard_metric_rows(&[
        "front",
        "metrics",
        "not_found",
        "page/ArticlePage",
        "page/RootPage",
    ]);
    assert_eq!(untraced_rows(&service.stats().to_text()), scraped);
}

#[test]
fn trace_counters_follow_the_standard_rows_while_tracing_is_on() {
    let (db, program, templates) = parts();
    let service = SiteService::from_parts(db, &program, templates, "Roots", Mode::Context);
    strudel_trace::set_enabled(true);
    strudel_trace::count("test.metrics_golden", 1);
    let text = service.handle("/metrics").body;
    let rows = metric_row_names(&text);
    let at = rows
        .iter()
        .position(|r| r == "strudel_trace_counter{name=\"test.metrics_golden\"}")
        .unwrap_or_else(|| panic!("no trace counter row in:\n{text}"));
    let last_standard = rows
        .iter()
        .position(|r| r == "strudel_store_poisoned")
        .unwrap();
    assert!(at > last_standard, "trace counters come after the fixed rows");
}
