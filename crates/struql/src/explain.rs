//! `EXPLAIN` for STRUQL where clauses: the chosen plan, its cost-model
//! estimates, and — after an instrumented run — the actual per-step row
//! counts and wall times.
//!
//! The planner (see [`crate::plan`]) greedily orders conditions by
//! estimated output-rows-per-input-row. An [`ExplainReport`] lays the
//! estimate and the measured actual side by side per step, which is how
//! mis-estimates (and therefore bad join orders) are diagnosed. Reports
//! are produced by [`Evaluator::explain_where_bindings`]
//! (`Evaluator` lives in [`crate::eval`]) and surfaced through the
//! `strudel explain` CLI verb and strudel-serve's `/debug/explain` route.
//!
//! [`Evaluator::explain_where_bindings`]: crate::Evaluator::explain_where_bindings

/// One evaluated plan step: a condition, where the planner scheduled it,
/// and what actually happened when it ran.
#[derive(Clone, Debug, PartialEq)]
pub struct ExplainStep {
    /// Index of the condition in the source where clause.
    pub source_index: usize,
    /// Canonical rendering of the condition ([`crate::pretty_condition`]).
    pub condition: String,
    /// The planner's cost estimate (≈ output rows per input row;
    /// infinite marks a filter that was unschedulable when picked; NaN
    /// in a textual plan, which estimates nothing).
    pub estimate: f64,
    /// Rows entering the step.
    pub rows_in: usize,
    /// Rows leaving the step.
    pub rows_out: usize,
    /// Measured wall time of the step, in microseconds.
    pub elapsed_us: u64,
}

/// A full plan explanation: every step in evaluation order, plus totals.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExplainReport {
    /// Whether cost-based ordering was on (false = textual order).
    pub optimized: bool,
    /// Steps in the order the plan ran them.
    pub steps: Vec<ExplainStep>,
    /// Rows in the final bindings relation.
    pub total_rows: usize,
    /// Total measured wall time across steps, in microseconds.
    pub total_us: u64,
}

impl ExplainReport {
    /// Renders the report as an aligned plain-text table: one line per
    /// step, estimates next to actuals.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "plan ({} steps, optimize={}, {} rows, {} us)\n",
            self.steps.len(),
            self.optimized,
            self.total_rows,
            self.total_us
        );
        out.push_str("step  est/row     in -> out    us      condition\n");
        for (i, s) in self.steps.iter().enumerate() {
            let est = if s.estimate.is_nan() {
                "-".to_string()
            } else if s.estimate.is_finite() {
                format!("{:.2}", s.estimate)
            } else {
                "inf".to_string()
            };
            out.push_str(&format!(
                "{:<4}  {:<10}  {:>5} -> {:<5}  {:<6}  {}\n",
                i + 1,
                est,
                s.rows_in,
                s.rows_out,
                s.elapsed_us,
                s.condition
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, Evaluator};
    use strudel_repo::{Database, IndexLevel};

    fn db() -> Database {
        let g = strudel_graph::ddl::parse(
            r#"
            object p1 in Publications { title : "Strudel"; year : 1998; cites : &p2; }
            object p2 in Publications { title : "WebOQL"; year : 1998; }
            object p3 in Publications { title : "Araneus"; year : 1997; cites : &p1; }
        "#,
        )
        .unwrap();
        Database::from_graph(g, IndexLevel::Full)
    }

    #[test]
    fn explain_reports_actual_rows_per_step() {
        let db = db();
        let prog = parse(r#"where Publications(x), x -> "year" -> y, y = 1998 create P(x)"#)
            .unwrap();
        let ev = Evaluator::new(&db);
        let (vars, rows, report) = ev
            .explain_where_bindings(&prog.blocks[0].where_, &[])
            .unwrap();
        assert!(vars.contains(&"x".to_string()) && vars.contains(&"y".to_string()));
        assert_eq!(rows.len(), 2);
        assert_eq!(report.steps.len(), 3);
        assert_eq!(report.total_rows, 2);
        // The membership step enumerates all three publications.
        let membership = report
            .steps
            .iter()
            .find(|s| s.condition.contains("Publications"))
            .unwrap();
        assert_eq!(membership.rows_out, 3);
        // The comparison filters 3 rows down to 2.
        let filter = report
            .steps
            .iter()
            .find(|s| s.condition.contains("="))
            .unwrap();
        assert_eq!(filter.rows_out, 2);
        assert!(report.steps.iter().all(|s| s.estimate.is_finite()));
    }

    #[test]
    fn explain_matches_plain_evaluation() {
        let db = db();
        let p2 = strudel_graph::Value::Node(db.graph().node_by_name("p2").unwrap());
        let ev = Evaluator::new(&db);
        // Unseeded single-label steps, and a Kleene path seeded at its
        // destination: the reverse-adjacency probe.
        for (query, seed, rows) in [
            (r#"where Publications(x), x -> "year" -> y create P(x)"#, vec![], 3),
            (r#"where x -> "cites"* -> y create P(x)"#, vec![("y".to_string(), p2)], 3),
        ] {
            let conds = &parse(query).unwrap().blocks[0].where_;
            let (vars_a, rows_a) = ev.eval_where_bindings(conds, &seed).unwrap();
            let (vars_b, rows_b, report) = ev.explain_where_bindings(conds, &seed).unwrap();
            assert_eq!(vars_a, vars_b, "{query}");
            assert_eq!(rows_a, rows_b, "{query}");
            assert_eq!((rows_b.len(), report.total_rows), (rows, rows), "{query}");
        }
    }

    #[test]
    fn render_text_aligns_estimates_and_actuals() {
        let report = ExplainReport {
            optimized: true,
            steps: vec![ExplainStep {
                source_index: 0,
                condition: "Publications(x)".into(),
                estimate: 3.0,
                rows_in: 1,
                rows_out: 3,
                elapsed_us: 12,
            }],
            total_rows: 3,
            total_us: 12,
        };
        let text = report.render_text();
        assert!(text.contains("3.00"));
        assert!(text.contains("Publications(x)"));
        assert!(text.contains("1 ->"));
    }
}
