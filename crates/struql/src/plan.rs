//! Condition ordering (join planning) for where-clause evaluation.
//!
//! STRUQL's separation of query and construction stages means "all where
//! clauses can be evaluated by an optimizer at once" (§6.2). The planner
//! orders the conditions of one clause greedily: starting from the
//! variables bound by enclosing blocks, it repeatedly picks the condition
//! with the lowest estimated cost given what is bound so far, using the
//! repository's cardinality statistics. Filters (comparisons, built-ins,
//! negations) are scheduled as soon as their variables are bound — they
//! cost nearly nothing and prune rows early.
//!
//! With `optimize = false` the planner keeps textual order, deferring
//! filters only as far as safety requires — the baseline for the
//! join-ordering ablation (E-struql-scale). It estimates nothing then, so
//! it never asks for the statistics.

use crate::ast::{Condition, EdgeLabel, PathSpec, Term};
use std::collections::HashSet;
use strudel_graph::Graph;
use strudel_repo::{Database, Stats};

/// The chosen evaluation order for one where clause.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Indices into the condition list, in evaluation order.
    pub order: Vec<usize>,
    /// Estimated per-condition costs, parallel to `order`; NaN in a
    /// textual plan, which estimates nothing.
    pub estimates: Vec<f64>,
}

impl Plan {
    /// Overall estimated work (product of expansion factors ≥ 1; 1 for a
    /// textual plan).
    pub fn estimated_work(&self) -> f64 {
        self.estimates.iter().map(|c| c.max(1.0)).product()
    }
}

/// Plans the evaluation order of `conds` given the variables already
/// `bound` by enclosing blocks.
pub fn plan(
    conds: &[Condition],
    bound: &HashSet<String>,
    db: &Database,
    optimize: bool,
) -> Plan {
    let stats = optimize.then(|| db.stats());
    let mut bound = bound.clone();
    // Variables that some positive atom of this clause will eventually
    // bind. Variables outside this set (local existentials inside not(…))
    // never block scheduling.
    let mut eventually_bound = bound.clone();
    for c in conds {
        bind_vars(c, &mut eventually_bound);
    }
    let mut remaining: Vec<usize> = (0..conds.len()).collect();
    let mut order = Vec::with_capacity(conds.len());
    let mut estimates = Vec::with_capacity(conds.len());

    while !remaining.is_empty() {
        let (pick, estimate) = match stats {
            // Cheapest schedulable condition.
            Some(stats) => remaining
                .iter()
                .enumerate()
                .map(|(pos, &i)| {
                    let cost = cost(&conds[i], &bound, &eventually_bound, db.graph(), stats);
                    (pos, cost)
                })
                // `total_cmp`, not `partial_cmp`: a NaN estimate (e.g. a
                // 0.0/0.0 selectivity from an empty-collection Stats row)
                // must order deterministically instead of panicking — NaN
                // sorts above +inf, so it is simply never preferred.
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty"),
            // Textual order, but skip filters whose variables are not yet
            // bound (they are picked up as soon as they become safe).
            None => {
                let pos = remaining
                    .iter()
                    .position(|&i| schedulable(&conds[i], &bound, &eventually_bound))
                    .unwrap_or(0);
                (pos, f64::NAN)
            }
        };
        let idx = remaining.remove(pick);
        estimates.push(estimate);
        bind_vars(&conds[idx], &mut bound);
        order.push(idx);
    }
    Plan { order, estimates }
}

/// Whether `cond` can run with the given bound variables: a filter
/// (comparison, built-in, negation) waits for its variables.
fn schedulable(
    cond: &Condition,
    bound: &HashSet<String>,
    eventually_bound: &HashSet<String>,
) -> bool {
    match cond {
        Condition::Collection { .. } | Condition::Path { .. } => true,
        Condition::Compare { lhs, rhs, .. } => term_bound(lhs, bound) && term_bound(rhs, bound),
        Condition::Builtin { arg, .. } => term_bound(arg, bound),
        Condition::Not(inner, _) => {
            let mut vars = Vec::new();
            collect_condition_vars(inner, &mut vars);
            // Local existentials (never bound by any positive atom) do not
            // gate scheduling; everything else must be bound first.
            vars.iter()
                .all(|v| bound.contains(*v) || !eventually_bound.contains(*v))
        }
    }
}

/// Estimated cost (≈ output rows per input row) of evaluating `cond` with
/// the given bound variables. `f64::INFINITY` marks filters that cannot run
/// yet.
fn cost(
    cond: &Condition,
    bound: &HashSet<String>,
    eventually_bound: &HashSet<String>,
    graph: &Graph,
    stats: &Stats,
) -> f64 {
    if !schedulable(cond, bound, eventually_bound) {
        return f64::INFINITY;
    }
    match cond {
        Condition::Collection { name, arg, .. } => match arg {
            Term::Var(v) if !bound.contains(v) => graph.members_str(name).len() as f64,
            _ => 0.6, // membership check: prunes, never expands
        },
        Condition::Path { src, path, dst, .. } => {
            let src_bound = term_bound(src, bound);
            let dst_bound = term_bound(dst, bound);
            match path.single_edge() {
                // Any single edge.
                Ok(EdgeLabel::Any | EdgeLabel::Binds(_)) => {
                    let edges = graph.edge_count() as f64;
                    match (src_bound, dst_bound) {
                        (true, true) => 0.9,
                        // The average out-degree.
                        (true, false) => (edges / graph.node_count().max(1) as f64).max(1.0),
                        (false, true) => edges.sqrt().max(1.0),
                        (false, false) => edges.max(1.0),
                    }
                }
                Ok(EdgeLabel::Is(l)) => {
                    let ls = graph
                        .label(l)
                        .map(|lab| stats.label(lab))
                        .unwrap_or_default();
                    match (src_bound, dst_bound) {
                        (true, true) => 0.9,
                        (true, false) => ls.fanout().max(0.1),
                        (false, true) => ls.fanin().max(0.1),
                        (false, false) => (ls.edges as f64).max(0.1),
                    }
                }
                Err(_) => {
                    // General regex. Bound source: one forward traversal.
                    // Bound destination: one *reverse* traversal over the
                    // incoming-edge index — same price, not the node-count
                    // multiple the forward engine would pay. Neither
                    // bound: a traversal per source node.
                    let nodes = graph.node_count() as f64;
                    let reach = (nodes / 2.0).max(1.0);
                    match (src_bound, dst_bound) {
                        (true, _) => reach,
                        (false, true) => reach,
                        (false, false) => nodes.max(1.0) * reach,
                    }
                }
            }
        }
        Condition::Compare { .. } | Condition::Builtin { .. } => 0.4,
        Condition::Not(..) => 0.5,
    }
}

fn term_bound(t: &Term, bound: &HashSet<String>) -> bool {
    match t {
        Term::Var(v) => bound.contains(v),
        Term::Const(_) => true,
        Term::Skolem { .. } => false, // not legal in where; defensive
    }
}

/// Adds the variables a positive condition binds.
pub(crate) fn bind_vars(cond: &Condition, bound: &mut HashSet<String>) {
    match cond {
        Condition::Collection { arg, .. } => {
            if let Term::Var(v) = arg {
                bound.insert(v.clone());
            }
        }
        Condition::Path { src, path, dst, .. } => {
            if let Term::Var(v) = src {
                bound.insert(v.clone());
            }
            if let Term::Var(v) = dst {
                bound.insert(v.clone());
            }
            if let PathSpec::ArcVar(l) = path {
                bound.insert(l.clone());
            }
        }
        Condition::Compare { .. } | Condition::Builtin { .. } | Condition::Not(..) => {}
    }
}

fn collect_condition_vars<'a>(cond: &'a Condition, out: &mut Vec<&'a str>) {
    fn term<'a>(t: &'a Term, out: &mut Vec<&'a str>) {
        match t {
            Term::Var(v) => out.push(v),
            Term::Const(_) => {}
            Term::Skolem { args, .. } => args.iter().for_each(|a| term(a, out)),
        }
    }
    match cond {
        Condition::Collection { arg, .. } => term(arg, out),
        Condition::Path { src, path, dst, .. } => {
            term(src, out);
            term(dst, out);
            if let PathSpec::ArcVar(l) = path {
                out.push(l);
            }
        }
        Condition::Compare { lhs, rhs, .. } => {
            term(lhs, out);
            term(rhs, out);
        }
        Condition::Builtin { arg, .. } => term(arg, out),
        Condition::Not(inner, _) => collect_condition_vars(inner, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_unchecked;
    use strudel_graph::{Graph, Value};
    use strudel_repo::IndexLevel;

    fn db_with_skew() -> Database {
        // 100 members of Big, 2 members of Small; "year" edges on all.
        let mut g = Graph::new();
        for i in 0..100 {
            let n = g.add_named_node(&format!("b{i}"));
            g.add_edge_str(n, "year", Value::Int(1990 + (i % 10)));
            g.collect_str("Big", n);
            if i < 2 {
                g.collect_str("Small", n);
            }
        }
        Database::from_graph(g, IndexLevel::Full)
    }

    #[test]
    fn optimizer_starts_from_the_small_collection() {
        let db = db_with_skew();
        let prog = parse_unchecked("where Big(x), Small(x) create P(x)").unwrap();
        let p = plan(&prog.blocks[0].where_, &HashSet::new(), &db, true);
        // Small(x) enumerated first (2 rows), Big(x) becomes a membership
        // check.
        assert_eq!(p.order, vec![1, 0]);
        assert!(p.estimated_work() < 10.0);
    }

    #[test]
    fn naive_order_is_textual() {
        let db = db_with_skew();
        let prog = parse_unchecked("where Big(x), Small(x) create P(x)").unwrap();
        let p = plan(&prog.blocks[0].where_, &HashSet::new(), &db, false);
        assert_eq!(p.order, vec![0, 1]);
        assert!(p.estimates.iter().all(|e| e.is_nan()), "estimates nothing");
    }

    #[test]
    fn filters_wait_for_bindings_in_both_modes() {
        let db = db_with_skew();
        let prog =
            parse_unchecked(r#"where y >= 1995, Big(x), x -> "year" -> y create P(x)"#).unwrap();
        for optimize in [true, false] {
            let p = plan(&prog.blocks[0].where_, &HashSet::new(), &db, optimize);
            let filter_pos = p.order.iter().position(|&i| i == 0).unwrap();
            let path_pos = p.order.iter().position(|&i| i == 2).unwrap();
            assert!(
                filter_pos > path_pos,
                "filter must follow the atom binding y (optimize={optimize}): {:?}",
                p.order
            );
        }
    }

    #[test]
    fn bound_parent_vars_make_membership_cheap() {
        let db = db_with_skew();
        let prog = parse_unchecked("where Big(x) create P(x)").unwrap();
        let mut bound = HashSet::new();
        bound.insert("x".to_string());
        let p = plan(&prog.blocks[0].where_, &bound, &db, true);
        assert!(p.estimates[0] < 1.0, "membership check, not enumeration");
    }

    #[test]
    fn planning_against_an_empty_database_never_panics() {
        // Regression: the greedy pick used `partial_cmp(...).expect(...)`,
        // which panics the moment any cost estimate is NaN. An empty
        // database is the degenerate Stats source (every collection size,
        // fan-out, and fan-in is a 0/0-shaped ratio), so plan a clause with
        // every condition kind against it, at both index levels.
        let prog = parse_unchecked(
            r#"where Big(x), x -> "year" -> y, x -> l -> z, x -> * -> w,
                     y >= 1995, not(Small(x)) create P(x)"#,
        )
        .unwrap();
        for level in [IndexLevel::None, IndexLevel::Full] {
            let db = Database::from_graph(Graph::new(), level);
            for optimize in [true, false] {
                let p = plan(&prog.blocks[0].where_, &HashSet::new(), &db, optimize);
                let mut seen: Vec<usize> = p.order.clone();
                seen.sort_unstable();
                assert_eq!(seen, (0..prog.blocks[0].where_.len()).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn nan_costs_order_deterministically() {
        // total_cmp sorts NaN above +inf, so a NaN-cost condition is the
        // least preferred but still scheduled — document the order here.
        let mut costs = [f64::NAN, 2.0, f64::INFINITY, 0.5];
        costs.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(costs[0], 0.5);
        assert_eq!(costs[1], 2.0);
        assert_eq!(costs[2], f64::INFINITY);
        assert!(costs[3].is_nan());
    }

    #[test]
    fn plan_covers_every_condition_exactly_once() {
        let db = db_with_skew();
        let prog = parse_unchecked(
            r#"where Big(x), x -> "year" -> y, y >= 1995, not(Small(x)) create P(x)"#,
        )
        .unwrap();
        for optimize in [true, false] {
            let p = plan(&prog.blocks[0].where_, &HashSet::new(), &db, optimize);
            let mut seen: Vec<usize> = p.order.clone();
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1, 2, 3]);
        }
    }
}
