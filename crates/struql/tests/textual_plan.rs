//! A textual plan (`optimize: false`, the order every runtime constraint
//! check runs in) estimates nothing, so it never builds the database's
//! statistics; a cost-based plan builds them once. A test binary of its
//! own: it counts the statistics family's build span on the
//! process-global tracer.

use strudel_graph::ddl;
use strudel_repo::{Database, IndexLevel};
use strudel_struql::{parse, EvalOptions, Evaluator};

fn stats_builds() -> u64 {
    strudel_trace::snapshot()
        .spans
        .iter()
        .filter(|(path, _)| path.ends_with("repo.index.build.stats"))
        .map(|(_, agg)| agg.count)
        .sum()
}

#[test]
fn a_textual_plan_builds_no_statistics() {
    strudel_trace::set_enabled(true);
    let g = ddl::parse(
        r#"
        object p1 in Publications { title : "Strudel"; year : 1998; }
        object p2 in Publications { title : "WebOQL"; year : 1998; }
        object p3 in Publications { title : "Araneus"; year : 1997; }
    "#,
    )
    .unwrap();
    let query = r#"where Publications(x), x -> "year" -> y, y = 1998 create P(x)"#;
    let conds = &parse(query).unwrap().blocks[0].where_;
    for level in [
        IndexLevel::None,
        IndexLevel::ExtensionOnly,
        IndexLevel::Full,
    ] {
        let db = Database::from_graph(g.clone(), level);
        let before = stats_builds();
        let textual = Evaluator::with_options(&db, EvalOptions { optimize: false });
        let (_, rows) = textual.eval_where_bindings(conds, &[]).unwrap();
        assert_eq!(rows.len(), 2, "{level:?}");
        assert_eq!(stats_builds(), before, "{level:?}: a textual plan");
        let (_, rows) = Evaluator::new(&db).eval_where_bindings(conds, &[]).unwrap();
        assert_eq!(rows.len(), 2, "{level:?}");
        assert_eq!(stats_builds(), before + 1, "{level:?}: a cost-based plan");
    }
}
