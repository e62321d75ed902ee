//! Dynamic ("click-time") site evaluation (§2.5/§7): instead of
//! materializing the whole site, serve each page's out-edges on demand
//! from per-node incremental queries derived from the site schema —
//! comparing the naive, context-seeded, and look-ahead strategies.
//!
//! ```text
//! cargo run --release -p strudel-core --example dynamic_browsing
//! ```

use std::collections::HashSet;

use strudel::schema::dynamic::{DynTarget, DynamicSite, Mode, PageKey};
use strudel::schema::SchemaNode;
use strudel::sites::news_site;
use strudel::struql::Evaluator;
use strudel_workload::news::{generate, NewsConfig};

fn main() {
    let corpus = generate(&NewsConfig {
        articles: 500,
        ..Default::default()
    });
    let site = news_site(&corpus.pages).build().expect("site builds");
    let engine = || DynamicSite::new(site.database.clone(), &site.program, Mode::Context);

    // Context (the engine) and look-ahead (the engine, visiting each
    // clicked page's children right away) walk the same 20-click trail.
    let mut trail = Vec::new();
    for lookahead in [false, true] {
        let engine = engine();
        let roots = engine.roots("FrontRoot").expect("roots");
        let mut current: PageKey = roots[0].clone();
        let (mut visited, mut hits) = (Vec::new(), 0);
        let start = std::time::Instant::now();
        for _ in 0..20 {
            let cached = engine.cached_pages();
            let view = engine.visit(&current).expect("click");
            hits += usize::from(engine.cached_pages() == cached);
            visited.push(current);
            let children = view.edges.iter().filter_map(|(_, t)| match t {
                DynTarget::Page(k) => Some(k),
                DynTarget::Data(_) => None,
            });
            if lookahead {
                for child in children.clone() {
                    engine.visit(child).expect("look-ahead");
                }
            }
            // Follow the first link to an unvisited page, else jump home.
            current = children
                .into_iter()
                .find(|k| !visited.contains(k))
                .unwrap_or(&roots[0])
                .clone();
        }
        let elapsed = start.elapsed();
        let m = engine.metrics();
        println!(
            "{}: 20 clicks in {:.2}ms — {} guard evaluations, {} rows, {hits} cache hits, {} pages cached",
            if lookahead { "look-ahead" } else { "context" },
            elapsed.as_secs_f64() * 1e3,
            m.queries_run,
            m.rows_produced,
            engine.cached_pages()
        );
        trail = visited;
    }

    // Naive: each newly clicked page evaluates its symbol's out-edge
    // guards unseeded, over the whole database, and keeps its own rows.
    let naive = engine();
    let db = naive.database();
    let ev = Evaluator::new(&db);
    let schema = naive.schema();
    let start = std::time::Instant::now();
    let (mut seen, mut guards, mut rows) = (HashSet::new(), 0, 0);
    for key in trail.iter().filter(|k| seen.insert(*k)) {
        for edge in &schema.edges {
            if schema.nodes[edge.from] == SchemaNode::Skolem(key.symbol.clone())
                && edge.src_args.len() == key.args.len()
            {
                guards += 1;
                rows += ev.eval_where_bindings(&edge.guard, &[]).expect("guard").1.len();
            }
        }
    }
    println!(
        "naive: the same clicks in {:.2}ms — {guards} guard evaluations, {rows} rows, {} cache hits",
        start.elapsed().as_secs_f64() * 1e3,
        trail.len() - seen.len()
    );

    // Show one dynamically computed page.
    let engine = engine();
    let article = site.database.graph().node_by_name("article7.html").unwrap();
    let key = PageKey {
        symbol: "ArticlePage".into(),
        args: vec![strudel::graph::Value::Node(article)],
    };
    let view = engine.visit(&key).expect("click");
    println!("\nArticlePage(article7.html) computed at click time:");
    for (label, target) in view.edges.iter().take(8) {
        match target {
            DynTarget::Page(k) => println!("  {label} -> page {}({} args)", k.symbol, k.args.len()),
            DynTarget::Data(v) => println!("  {label} -> {v}"),
        }
    }
}
