//! The constraint walker `runtime::check` was before it ran its body
//! through STRUQL's evaluator: the oracle the checker is held to.
//!
//! It interprets the quantifier prefix over a materialized graph and, at
//! every full binding, the body conjunction one atom at a time in the
//! order written: a path atom runs one forward NFA closure
//! (`Nfa::eval_from`) from its bound source and keeps the reached values
//! that unify with the target, a free target binding each; a membership
//! atom tests the bound value. Values unify under `strudel_graph::coerce`.
//! It shares no code with the checker but the AST and the NFA.

use std::collections::HashMap;
use strudel_graph::{coerce, Graph, Value};
use strudel_schema::constraint::runtime::CheckResult;
use strudel_schema::constraint::{Constraint, Quant};
use strudel_struql::rpe::Nfa;
use strudel_struql::{Condition, PathSpec, Term};

fn ok() -> CheckResult {
    CheckResult {
        holds: true,
        counterexample: None,
    }
}

/// Checks `constraint` against a materialized graph.
pub fn check(graph: &Graph, constraint: &Constraint) -> CheckResult {
    // Precompile the path regexes once.
    let nfas: Vec<Option<Nfa>> = constraint
        .atoms
        .iter()
        .map(|a| match a {
            Condition::Path {
                path: PathSpec::Regex(regex),
                ..
            } => Some(Nfa::compile(regex, graph)),
            _ => None,
        })
        .collect();
    let mut env: HashMap<String, Value> = HashMap::new();
    let mut foralls: Vec<(String, Value)> = Vec::new();
    quantify(graph, constraint, &nfas, 0, &mut env, &mut foralls)
}

fn quantify(
    graph: &Graph,
    constraint: &Constraint,
    nfas: &[Option<Nfa>],
    depth: usize,
    env: &mut HashMap<String, Value>,
    foralls: &mut Vec<(String, Value)>,
) -> CheckResult {
    let Some(q) = constraint.quantifiers.get(depth) else {
        return if body_holds(graph, constraint, nfas, env) {
            ok()
        } else {
            CheckResult {
                holds: false,
                counterexample: Some(foralls.clone()),
            }
        };
    };
    let members: Vec<Value> = graph.members_str(&q.collection).to_vec();
    match q.quant {
        Quant::Forall => {
            for m in members {
                env.insert(q.var.clone(), m.clone());
                foralls.push((q.var.clone(), m));
                let r = quantify(graph, constraint, nfas, depth + 1, env, foralls);
                // Failing or not, leave `foralls` as found: an enclosing
                // `exists` tries its next member over the same bindings.
                foralls.pop();
                if !r.holds {
                    env.remove(&q.var);
                    return r;
                }
            }
            env.remove(&q.var);
            ok()
        }
        Quant::Exists => {
            for m in members {
                env.insert(q.var.clone(), m);
                let r = quantify(graph, constraint, nfas, depth + 1, env, foralls);
                if r.holds {
                    env.remove(&q.var);
                    return ok();
                }
            }
            env.remove(&q.var);
            CheckResult {
                holds: false,
                counterexample: Some(foralls.clone()),
            }
        }
    }
}

/// Evaluates the body conjunction under `env`; free variables in target
/// positions are existential and must be consistent across atoms.
fn body_holds(
    graph: &Graph,
    constraint: &Constraint,
    nfas: &[Option<Nfa>],
    env: &HashMap<String, Value>,
) -> bool {
    // A tiny relation of candidate bindings for the free variables.
    let mut rows: Vec<HashMap<String, Value>> = vec![env.clone()];
    for (atom, nfa) in constraint.atoms.iter().zip(nfas) {
        let mut next = Vec::new();
        match atom {
            Condition::Path {
                src: Term::Var(src),
                dst,
                ..
            } => {
                let nfa = nfa.as_ref().expect("path atom has an nfa");
                for row in &rows {
                    let Some(start) = row.get(src) else {
                        continue; // unquantified source: rejected at parse
                    };
                    let reached = nfa.eval_from(graph, start);
                    match dst {
                        Term::Const(c) => {
                            if reached.iter().any(|v| coerce::eq(v, c)) {
                                next.push(row.clone());
                            }
                        }
                        Term::Var(v) => match row.get(v) {
                            Some(bound) => {
                                if reached.iter().any(|r| coerce::eq(r, bound)) {
                                    next.push(row.clone());
                                }
                            }
                            None => {
                                for r in reached {
                                    let mut extended = row.clone();
                                    extended.insert(v.clone(), r);
                                    next.push(extended);
                                }
                            }
                        },
                        Term::Skolem { .. } => unreachable!("no Skolem term in a where clause"),
                    }
                }
            }
            Condition::Collection {
                name: collection,
                arg: Term::Var(var),
                ..
            } => {
                let cid = graph.collection_id(collection);
                for row in &rows {
                    let Some(v) = row.get(var) else { continue };
                    if let Some(cid) = cid {
                        if graph.in_collection(cid, v) {
                            next.push(row.clone());
                        }
                    }
                }
            }
            other => unreachable!("not a constraint atom: {other:?}"),
        }
        rows = next;
        if rows.is_empty() {
            return false;
        }
    }
    true
}
