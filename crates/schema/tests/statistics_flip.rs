//! The statistics a click engine plans with after a delta are the ones a
//! fresh engine over the post-delta graph would compute.
//!
//! Statistics steer the join order, and the join order is the order a
//! page lists its links in. In the guard below, the page's `z` targets
//! come in `x`'s `c` order when the planner starts from `p -> "a" -> x`
//! and in `y`'s `c` order when it starts from `p -> "b" -> y`, which it
//! does once `a`'s fan-out passes `b`'s. A delta that adds 200 `a` edges
//! on an unrelated node does exactly that; a page first visited after it
//! must list its links as a fresh engine does.

use std::sync::Arc;
use strudel_graph::{Graph, GraphDelta, Value};
use strudel_repo::{Database, IndexLevel};
use strudel_schema::dynamic::{DynamicSite, Mode, PageKey, PageView};
use strudel_struql::{parse, Program};

const QUERY: &str = r#"
    create Front()
    where Pages(p), p -> "a" -> x, x -> "c" -> z, p -> "b" -> y, y -> "c" -> z
    create P(p)
    link Front() -> "page" -> P(p), P(p) -> "z" -> z
"#;

/// A page `p` with one `a` and one `b` neighbour, whose `c` edges reach
/// `z1` and `z2` in opposite orders.
fn graph() -> Graph {
    let mut g = Graph::new();
    let p = g.add_named_node("p");
    let x = g.add_named_node("x");
    let y = g.add_named_node("y");
    g.collect_str("Pages", p);
    g.add_edge_str(p, "a", Value::Node(x));
    g.add_edge_str(p, "b", Value::Node(y));
    g.add_edge_str(x, "c", Value::string("z2"));
    g.add_edge_str(x, "c", Value::string("z1"));
    g.add_edge_str(y, "c", Value::string("z1"));
    g.add_edge_str(y, "c", Value::string("z2"));
    g
}

fn engine(g: Graph, program: &Program) -> DynamicSite {
    DynamicSite::new(
        Arc::new(Database::from_graph(g, IndexLevel::Full)),
        program,
        Mode::Context,
    )
}

fn page(g: &Graph) -> PageKey {
    PageKey {
        symbol: "P".into(),
        args: vec![Value::Node(g.node_by_name("p").unwrap())],
    }
}

fn front() -> PageKey {
    PageKey {
        symbol: "Front".into(),
        args: vec![],
    }
}

#[test]
fn a_cold_visit_after_a_delta_plans_as_a_fresh_engine() {
    let program = parse(QUERY).unwrap();
    let live = engine(graph(), &program);
    // Plan once, so the live database has statistics before any delta.
    live.visit(&front()).unwrap();

    // An unrelated node first, so that the delta below reaches statistics
    // that a delta has already maintained.
    let mut d = GraphDelta::new();
    d.add_node(Some("q"));
    live.apply_delta(&d).unwrap();
    live.visit(&front()).unwrap();
    let q = live.database().graph().node_by_name("q").unwrap();

    let mut d = GraphDelta::new();
    for i in 0..200 {
        d.add_edge(q, "a", Value::Int(i));
    }
    live.apply_delta(&d).unwrap();
    assert_eq!(
        live.metrics().snapshot_copies,
        0,
        "the statistics are maintained on the one database"
    );

    let after = live.database().graph().clone();
    let key = page(&after);
    let served: Arc<PageView> = live.visit(&key).unwrap();
    let fresh = engine(after, &program).visit(&key).unwrap();
    assert_eq!(
        served, fresh,
        "first visit after the delta vs a fresh engine"
    );

    // The probe is sensitive: before the delta, the page lists the same
    // links in the other order.
    let before = engine(graph(), &program).visit(&page(&graph())).unwrap();
    assert_ne!(before.edges, fresh.edges);
}
