//! Incremental site update (§7, built here as an extension): when the
//! underlying data changes, the click engine patches the pages it has
//! cached with the delta's signed rows instead of re-evaluating the
//! site-definition query — a new publication slots into the existing
//! year page.
//!
//! ```text
//! cargo run --release -p strudel-core --example incremental_update
//! ```

use std::collections::HashSet;
use std::time::Instant;
use strudel::graph::{GraphDelta, Oid, Value};
use strudel::repo::{Database, IndexLevel};
use strudel::schema::dynamic::{DynTarget, DynamicSite, Mode, PageKey};
use strudel::struql::Evaluator;
use strudel_workload::bib::{generate, BibConfig};

/// `key`'s out-edges, sorted: a patched page lists its links by first
/// supporting row, a fresh one by evaluation order.
fn sorted_view(site: &DynamicSite, key: &PageKey) -> Vec<String> {
    let view = site.visit(key).expect("page evaluates");
    let mut edges: Vec<String> = view.edges.iter().map(|e| format!("{e:?}")).collect();
    edges.sort_unstable();
    edges
}

fn main() {
    let bib = generate(&BibConfig {
        entries: 200,
        ..Default::default()
    });
    let site = strudel::sites::homepage_site(&bib, strudel::sites::PERSONAL_DDL_EXAMPLE)
        .build()
        .expect("site builds");
    let root = site.root_collection.as_str();
    let engine = DynamicSite::new(site.database, &site.program, Mode::Context);

    // The one-time cost: visit every reachable page, so each is cached
    // with the counted guard rows a delta patches.
    let start = Instant::now();
    let pages = engine.crawl(root).expect("site crawls");
    println!(
        "crawled {} pages in {:.2}ms",
        pages.len(),
        start.elapsed().as_secs_f64() * 1e3
    );

    // The delta: one brand-new publication.
    let before = engine.database().graph().clone();
    let mut delta = GraphDelta::new();
    delta.add_node(Some("hotoffthepress"));
    let new_pub = Oid::from_index(before.node_count());
    delta.add_edge(new_pub, "title", Value::string("Hot off the press"));
    delta.add_edge(new_pub, "author", Value::string("A. Newcomer"));
    delta.add_edge(new_pub, "year", Value::Int(1998));
    delta.add_edge(new_pub, "category", Value::string("web"));
    delta.collect("Publications", Value::Node(new_pub));

    // The engine owns its database, so the delta applies to it in place.
    let start = Instant::now();
    let outcome = engine.apply_delta(&delta).expect("delta applies");
    let t_apply = start.elapsed();

    // Reference: full re-evaluation on the updated data.
    let start = Instant::now();
    let mut g = before;
    delta.apply(&mut g).unwrap();
    let db = Database::from_graph(g, IndexLevel::Full);
    Evaluator::new(&db).eval(&site.program).unwrap();
    let t_full = start.elapsed();

    let m = engine.metrics();
    println!(
        "apply_delta: {:.2}ms ({} pages patched, {} signed rows); full re-evaluation: {:.2}ms",
        t_apply.as_secs_f64() * 1e3,
        outcome.updated,
        m.diff_rows_added + m.diff_rows_retracted,
        t_full.as_secs_f64() * 1e3
    );

    // Every page reachable now equals a fresh engine's over the new data.
    let fresh = DynamicSite::new(engine.database(), &site.program, Mode::Context);
    let reachable: HashSet<PageKey> = engine
        .crawl(root)
        .expect("site crawls")
        .into_iter()
        .collect();
    let expected: HashSet<PageKey> = fresh
        .crawl(root)
        .expect("site crawls")
        .into_iter()
        .collect();
    let same = reachable == expected
        && reachable
            .iter()
            .all(|key| sorted_view(&engine, key) == sorted_view(&fresh, key));
    println!("every page equals a fresh engine's: {same}");

    // The new paper joined the existing 1998 year page.
    let y98 = PageKey {
        symbol: "YearPage".into(),
        args: vec![Value::Int(1998)],
    };
    let papers = engine.visit(&y98).expect("year page evaluates");
    let papers = papers
        .edges
        .iter()
        .filter(|(label, target)| &**label == "Paper" && matches!(target, DynTarget::Page(_)))
        .count();
    println!("YearPage(1998) now lists {papers} papers (the new one included)");
}
