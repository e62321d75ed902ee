//! A nested-loop reference evaluator for where clauses: the oracle the
//! engine is held to.
//!
//! It extends the bindings relation one condition at a time in the
//! planner's order (`plan::plan(..).order`), and each row by itself:
//!
//! * a path condition that crosses one edge — a label, `true` or an arc
//!   variable — walks the edges of every candidate source (the bound
//!   source, or every node in oid order), one row per matching edge, an
//!   arc variable binding the label's name;
//! * any other path condition runs one forward NFA closure
//!   (`Nfa::eval_from`) from every candidate source and keeps the reached
//!   values that unify with the destination;
//! * a membership enumerates the collection or tests the bound value;
//! * a comparison, a built-in type predicate and `not(…)` filter the
//!   row.
//!
//! Values unify under `strudel_graph::coerce`. It uses only the crates'
//! public API and shares no code with the engine's condition evaluator,
//! so the two agree only if both are right. Where the engine emits rows
//! in forward-scan order — always, without indexes — the reference
//! emits the same rows in the same order.

use std::collections::HashSet;
use strudel_graph::{coerce, FileKind, Graph, Value};
use strudel_repo::Database;
use strudel_struql::rpe::Nfa;
use strudel_struql::{plan, BuiltinPred, CmpOp, Condition, PathRegex, PathSpec, Term};

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
        Condition::Path { src, path, dst, .. } => match edge_test(path) {
            Ok(test) => {
                for s in sources(graph, src, vars, &row) {
                    let Value::Node(o) = s else { continue };
                    for e in graph.edges(o) {
                        let name = graph.label_name(e.label);
                        if matches!(test, EdgeTest::Named(want) if name != want) {
                            continue;
                        }
                        let mut r = row.clone();
                        let bound = match &test {
                            EdgeTest::Binds(l) => unify(l, vars, &mut r, &Value::string(name)),
                            EdgeTest::Named(_) | EdgeTest::Any => true,
                        };
                        if bound && unify(src, vars, &mut r, &s) && unify(dst, vars, &mut r, &e.to) {
                            out.push(r);
                        }
                    }
                }
            }
            Err(regex) => {
                let nfa = Nfa::compile(regex, graph);
                for s in sources(graph, src, vars, &row) {
                    for v in nfa.eval_from(graph, &s) {
                        let mut r = row.clone();
                        if unify(src, vars, &mut r, &s) && unify(dst, vars, &mut r, &v) {
                            out.push(r);
                        }
                    }
                }
            }
        },
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
        Condition::Builtin { pred, arg, .. } => {
            let Some(v) = value(arg, vars, &row) else {
                panic!("built-in predicate over an unbound variable");
            };
            if builtin(*pred, &v) {
                out.push(row);
            }
        }
    }
    out
}

/// Whether `v` has the run-time type `pred` names.
fn builtin(pred: BuiltinPred, v: &Value) -> bool {
    let file = |kind: FileKind| matches!(v, Value::File(f) if f.kind == kind);
    match pred {
        BuiltinPred::IsImageFile => file(FileKind::Image),
        BuiltinPred::IsPostScript => file(FileKind::PostScript),
        BuiltinPred::IsTextFile => file(FileKind::Text),
        BuiltinPred::IsHtmlFile => file(FileKind::Html),
        BuiltinPred::IsUrl => matches!(v, Value::Url(_)),
        BuiltinPred::IsInt => matches!(v, Value::Int(_)),
        BuiltinPred::IsString => matches!(v, Value::Str(_)),
        BuiltinPred::IsNode => matches!(v, Value::Node(_)),
        BuiltinPred::IsAtomic => !matches!(v, Value::Node(_)),
    }
}

/// What the label of the one edge a single-edge path condition crosses
/// must be.
enum EdgeTest<'a> {
    /// `"name"`.
    Named(&'a str),
    /// `true`.
    Any,
    /// An arc variable, unified with the label's name.
    Binds(Term),
}

/// The edge test of a path that crosses exactly one edge, or the regular
/// path expression of any other path.
fn edge_test(path: &PathSpec) -> Result<EdgeTest<'_>, &PathRegex> {
    match path {
        PathSpec::ArcVar(l) => Ok(EdgeTest::Binds(Term::Var(l.clone()))),
        PathSpec::Regex(PathRegex::Label(l)) => Ok(EdgeTest::Named(l)),
        PathSpec::Regex(PathRegex::Any) => Ok(EdgeTest::Any),
        PathSpec::Regex(r) => Err(r),
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
