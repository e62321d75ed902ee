//! A nested-loop reference evaluator for where clauses: the oracle the
//! engine is held to.
//!
//! It extends the bindings relation one condition at a time in the
//! planner's order (`plan::plan(..).order`), and each row by itself:
//!
//! * a path condition runs one forward NFA closure (`Nfa::eval_from`)
//!   from every candidate source — the bound source, or every node in
//!   oid order — and keeps the reached values that unify with the
//!   destination. A single step is an edge atom, and the engine derives
//!   one row per matching edge, so a value reached over parallel edges is
//!   kept once per edge;
//! * an arc variable walks the source's edges, binding the label name;
//! * a membership enumerates the collection or tests the bound value;
//! * a comparison and `not(…)` filter the row.
//!
//! Values unify under `strudel_graph::coerce`. It uses only the crates'
//! public API and shares no code with the engine's condition evaluator,
//! so the two agree only if both are right. Where the engine emits rows
//! in forward-scan order — always, without indexes — the reference
//! emits the same rows in the same order.

use std::collections::HashSet;
use strudel_graph::{coerce, Graph, Label, Value};
use strudel_repo::Database;
use strudel_struql::rpe::{Nfa, StepPred};
use strudel_struql::{plan, CmpOp, Condition, PathSpec, Term};

/// One bindings row: a slot per variable, `None` until bound.
pub type Row = Vec<Option<Value>>;

/// Evaluates `conds` seeded with `seed`, planned with `optimize` as the
/// engine plans them. Returns the slot names — the seeds, then every
/// other variable in textual order — and the rows.
pub fn eval_where(
    db: &Database,
    conds: &[Condition],
    seed: &[(String, Value)],
    optimize: bool,
) -> (Vec<String>, Vec<Row>) {
    let mut vars: Vec<String> = seed.iter().map(|(name, _)| name.clone()).collect();
    for cond in conds {
        slots(cond, &mut vars);
    }
    let mut row: Row = vec![None; vars.len()];
    for (slot, (_, v)) in row.iter_mut().zip(seed) {
        *slot = Some(v.clone());
    }
    let bound: HashSet<String> = seed.iter().map(|(name, _)| name.clone()).collect();
    let order = plan::plan(conds, &bound, db, optimize).order;

    let graph = db.graph();
    let mut rows = vec![row];
    for idx in order {
        rows = rows
            .into_iter()
            .flat_map(|row| extend(graph, &conds[idx], &vars, row))
            .collect();
    }
    (vars, rows)
}

/// Appends the variables `cond` can bind that have no slot yet; the
/// existentials local to a `not(…)` get one too.
fn slots(cond: &Condition, vars: &mut Vec<String>) {
    let mut add = |term: &Term| {
        if let Term::Var(v) = term {
            if !vars.contains(v) {
                vars.push(v.clone());
            }
        }
    };
    match cond {
        Condition::Collection { arg, .. } => add(arg),
        Condition::Path { src, path, dst, .. } => {
            add(src);
            if let PathSpec::ArcVar(l) = path {
                add(&Term::Var(l.clone()));
            }
            add(dst);
        }
        Condition::Not(inner, _) => slots(inner, vars),
        Condition::Compare { .. } | Condition::Builtin { .. } => {}
    }
}

/// Every extension of `row` satisfying `cond`, in the order found.
fn extend(graph: &Graph, cond: &Condition, vars: &[String], row: Row) -> Vec<Row> {
    let mut out = Vec::new();
    match cond {
        Condition::Collection { name, arg, .. } => {
            let members = graph.members_str(name);
            match value(arg, vars, &row) {
                Some(v) => {
                    if members.contains(&v) {
                        out.push(row);
                    }
                }
                None => {
                    for m in members {
                        let mut r = row.clone();
                        if unify(arg, vars, &mut r, m) {
                            out.push(r);
                        }
                    }
                }
            }
        }
        Condition::Path {
            src,
            path: PathSpec::ArcVar(l),
            dst,
            ..
        } => {
            let label = Term::Var(l.clone());
            for s in sources(graph, src, vars, &row) {
                let Value::Node(o) = s else { continue };
                for e in graph.edges(o) {
                    let mut r = row.clone();
                    if unify(src, vars, &mut r, &s)
                        && unify(&label, vars, &mut r, &Value::string(graph.label_name(e.label)))
                        && unify(dst, vars, &mut r, &e.to)
                    {
                        out.push(r);
                    }
                }
            }
        }
        Condition::Path {
            src,
            path: PathSpec::Regex(regex),
            dst,
            ..
        } => {
            let nfa = Nfa::compile(regex, graph);
            let step = regex.as_single_step();
            for s in sources(graph, src, vars, &row) {
                for v in nfa.eval_from(graph, &s) {
                    let derivations = match (&s, &step) {
                        (Value::Node(o), Some(step)) => graph
                            .edges(*o)
                            .iter()
                            .filter(|e| e.to == v && step_matches(graph, step, e.label))
                            .count(),
                        _ => 1,
                    };
                    for _ in 0..derivations {
                        let mut r = row.clone();
                        if unify(src, vars, &mut r, &s) && unify(dst, vars, &mut r, &v) {
                            out.push(r);
                        }
                    }
                }
            }
        }
        Condition::Compare { op, lhs, rhs, .. } => {
            let (Some(a), Some(b)) = (value(lhs, vars, &row), value(rhs, vars, &row)) else {
                panic!("comparison over an unbound variable");
            };
            if compare(*op, &a, &b) {
                out.push(row);
            }
        }
        Condition::Not(inner, _) => {
            if extend(graph, inner, vars, row.clone()).is_empty() {
                out.push(row);
            }
        }
        Condition::Builtin { .. } => panic!("the reference has no built-in predicates"),
    }
    out
}

/// Whether an edge labelled `label` takes the single step `step`.
fn step_matches(graph: &Graph, step: &StepPred, label: Label) -> bool {
    match step {
        StepPred::Label(l) => graph.label_name(label) == l,
        StepPred::Any => true,
    }
}

/// The values a path may start from: the source's value when it has one,
/// else every node in oid order.
fn sources(graph: &Graph, src: &Term, vars: &[String], row: &Row) -> Vec<Value> {
    match value(src, vars, row) {
        Some(v) => vec![v],
        None => graph.node_oids().map(Value::Node).collect(),
    }
}

/// The term's value in `row`, if it has one.
fn value(term: &Term, vars: &[String], row: &Row) -> Option<Value> {
    match term {
        Term::Const(c) => Some(c.clone()),
        Term::Var(v) => row[slot(v, vars)].clone(),
        Term::Skolem { .. } => panic!("Skolem term in a where clause"),
    }
}

/// Binds an unbound variable to `v`; a bound variable or a constant must
/// coerce equal to it.
fn unify(term: &Term, vars: &[String], row: &mut Row, v: &Value) -> bool {
    match term {
        Term::Var(name) => {
            let slot = &mut row[slot(name, vars)];
            match slot {
                Some(bound) => coerce::eq(bound, v),
                None => {
                    *slot = Some(v.clone());
                    true
                }
            }
        }
        _ => value(term, vars, row).is_some_and(|c| coerce::eq(&c, v)),
    }
}

fn slot(name: &str, vars: &[String]) -> usize {
    vars.iter()
        .position(|v| v == name)
        .unwrap_or_else(|| panic!("variable {name} has no slot"))
}

/// A comparison under coercion; incomparable values are neither equal
/// nor unequal.
fn compare(op: CmpOp, a: &Value, b: &Value) -> bool {
    use std::cmp::Ordering::{Equal, Greater, Less};
    let ord = coerce::compare(a, b);
    match op {
        CmpOp::Eq => coerce::eq(a, b),
        CmpOp::Ne => matches!(ord, Some(Less | Greater)),
        CmpOp::Lt => ord == Some(Less),
        CmpOp::Le => matches!(ord, Some(Less | Equal)),
        CmpOp::Gt => ord == Some(Greater),
        CmpOp::Ge => matches!(ord, Some(Greater | Equal)),
    }
}
