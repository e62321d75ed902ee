//! Incremental site-graph maintenance (§7, built here as an extension):
//! when the underlying data changes, propagate the delta through the
//! site-definition query instead of re-evaluating it — new publications
//! slot into the existing year pages.
//!
//! ```text
//! cargo run --release -p strudel-core --example incremental_update
//! ```

use strudel::graph::{graphs_equivalent, GraphDelta, Oid, Value};
use strudel::schema::incremental::MaintainedSite;
use strudel::struql::Evaluator;
use strudel_workload::bib::{generate, BibConfig};

fn main() {
    let bib = generate(&BibConfig {
        entries: 200,
        ..Default::default()
    });
    let site = strudel::sites::homepage_site(&bib, strudel::sites::PERSONAL_DDL_EXAMPLE)
        .build()
        .expect("site builds");
    println!(
        "initial site: {} site nodes over {} data nodes",
        site.result.new_nodes.len(),
        site.database.graph().node_count()
    );

    // The delta: one brand-new publication.
    let base = site.database.graph().node_count();
    let mut delta = GraphDelta::new();
    delta.add_node(Some("hotoffthepress"));
    let new_pub = Oid::from_index(base);
    delta.add_edge(new_pub, "title", Value::string("Hot off the press"));
    delta.add_edge(new_pub, "author", Value::string("A. Newcomer"));
    delta.add_edge(new_pub, "year", Value::Int(1998));
    delta.add_edge(new_pub, "category", Value::string("web"));
    delta.collect("Publications", Value::Node(new_pub));

    // Maintenance starts by counting each link's and membership's
    // derivations, once; every delta after that moves the counts.
    let start = std::time::Instant::now();
    let mut maintained = MaintainedSite::new(&site.program, site.database.clone(), site.result)
        .expect("support counts");
    let t_count = start.elapsed();
    let start = std::time::Instant::now();
    let rows = maintained.apply(&delta).expect("incremental update");
    let t_inc = start.elapsed();

    // Reference: full re-evaluation on the updated data.
    let start = std::time::Instant::now();
    let full = {
        let mut g = site.database.graph().clone();
        delta.apply(&mut g).unwrap();
        let db = strudel::repo::Database::from_graph(g, strudel::repo::IndexLevel::Full);
        Evaluator::new(&db).eval(&site.program).unwrap()
    };
    let t_full = start.elapsed();

    println!(
        "count build: {:.2}ms; incremental: {:.2}ms ({} signed rows); full re-evaluation: {:.2}ms",
        t_count.as_secs_f64() * 1e3,
        t_inc.as_secs_f64() * 1e3,
        rows,
        t_full.as_secs_f64() * 1e3
    );
    let site_now = maintained.result();
    println!(
        "results equivalent: {}",
        graphs_equivalent(&site_now.graph, &full.graph)
    );

    // The new paper joined the existing 1998 year page.
    let y98 = site_now
        .skolem_node("YearPage", &[Value::Int(1998)])
        .expect("1998 year page");
    println!(
        "YearPage(1998) now lists {} papers (the new one included)",
        site_now.graph.attr_str(y98, "Paper").count()
    );
}
