//! Runtime (materialized-graph) constraint checking — complete, used when
//! the static verifier cannot prove a constraint, and by tests to validate
//! the verifier's soundness.

use super::{Atom, CTerm, Constraint, Quant};
use std::collections::HashMap;
use strudel_graph::{coerce, Graph, Value};
use strudel_struql::rpe::Nfa;

/// The outcome of a runtime check.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckResult {
    /// Whether the constraint holds on this graph.
    pub holds: bool,
    /// On failure, the bindings of the universally quantified variables
    /// witnessing the violation.
    pub counterexample: Option<Vec<(String, Value)>>,
}

impl CheckResult {
    fn ok() -> Self {
        CheckResult {
            holds: true,
            counterexample: None,
        }
    }
}

/// Checks `constraint` against a materialized graph.
pub fn check(graph: &Graph, constraint: &Constraint) -> CheckResult {
    // Precompile the path regexes once.
    let nfas: Vec<Option<Nfa>> = constraint
        .atoms
        .iter()
        .map(|a| match a {
            Atom::Path { regex, .. } => Some(Nfa::compile(regex, graph)),
            Atom::InCollection { .. } => None,
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
            CheckResult::ok()
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
            CheckResult::ok()
        }
        Quant::Exists => {
            for m in members {
                env.insert(q.var.clone(), m);
                let r = quantify(graph, constraint, nfas, depth + 1, env, foralls);
                if r.holds {
                    env.remove(&q.var);
                    return CheckResult::ok();
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
            Atom::Path { src, dst, .. } => {
                let nfa = nfa.as_ref().expect("path atom has an nfa");
                for row in &rows {
                    let Some(start) = row.get(src) else {
                        continue; // unquantified source: rejected at parse
                    };
                    let reached = nfa.eval_from(graph, start);
                    match dst {
                        CTerm::Const(c) => {
                            if reached.iter().any(|v| coerce::eq(v, c)) {
                                next.push(row.clone());
                            }
                        }
                        CTerm::Var(v) => match row.get(v) {
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
                    }
                }
            }
            Atom::InCollection { var, collection } => {
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
        }
        rows = next;
        if rows.is_empty() {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::super::parse_constraint;
    use super::*;

    /// root -> a -> b; c is an orphan page. Collections: Pages {a, b, c},
    /// Roots {root}.
    fn site() -> Graph {
        let mut g = Graph::new();
        let root = g.add_named_node("root");
        let a = g.add_named_node("a");
        let b = g.add_named_node("b");
        let c = g.add_named_node("c");
        g.add_edge_str(root, "child", Value::Node(a));
        g.add_edge_str(a, "child", Value::Node(b));
        g.add_edge_str(a, "title", Value::string("A"));
        g.add_edge_str(b, "title", Value::string("B"));
        g.add_edge_str(c, "title", Value::string("C"));
        g.collect_str("Roots", root);
        g.collect_str("Pages", a);
        g.collect_str("Pages", b);
        g.collect_str("Pages", c);
        g.collect_str("Linked", a);
        g.collect_str("Linked", b);
        g
    }

    #[test]
    fn reachability_violated_by_orphan() {
        let g = site();
        let c = parse_constraint("forall p in Pages : exists r in Roots : r -> * -> p").unwrap();
        let r = check(&g, &c);
        assert!(!r.holds);
        let witness = r.counterexample.unwrap();
        assert_eq!(witness[0].0, "p");
        assert_eq!(
            witness[0].1,
            Value::Node(g.node_by_name("c").unwrap()),
            "the orphan is the counterexample"
        );
    }

    #[test]
    fn reachability_holds_on_linked_subset() {
        let g = site();
        let c = parse_constraint("forall p in Linked : exists r in Roots : r -> * -> p").unwrap();
        assert!(check(&g, &c).holds);
    }

    #[test]
    fn attribute_existence() {
        let g = site();
        let c = parse_constraint(r#"forall p in Pages : p -> "title" -> t"#).unwrap();
        assert!(check(&g, &c).holds);
        let c2 = parse_constraint(r#"forall p in Pages : p -> "author" -> t"#).unwrap();
        assert!(!check(&g, &c2).holds);
    }

    #[test]
    fn constant_targets() {
        let g = site();
        let c = parse_constraint(r#"forall r in Roots : r -> "child" . "title" -> "A""#).unwrap();
        assert!(check(&g, &c).holds);
        let c2 = parse_constraint(r#"forall r in Roots : r -> "title" -> "Z""#).unwrap();
        assert!(!check(&g, &c2).holds);
    }

    #[test]
    fn conjunction_with_shared_free_variable() {
        let mut g = Graph::new();
        let p = g.add_named_node("p");
        let q = g.add_named_node("q");
        g.add_edge_str(p, "a", Value::Int(1));
        g.add_edge_str(p, "b", Value::Int(1));
        g.add_edge_str(q, "a", Value::Int(1));
        g.add_edge_str(q, "b", Value::Int(2));
        g.collect_str("Both", p);
        // p satisfies a->v and b->v with the same v; q does not.
        let c = parse_constraint(r#"forall x in Both : x -> "a" -> v and x -> "b" -> v"#).unwrap();
        assert!(check(&g, &c).holds);
        g.collect_str("Both", q);
        assert!(!check(&g, &c).holds);
    }

    #[test]
    fn membership_atom() {
        let g = site();
        let c = parse_constraint("forall p in Linked : p in Pages").unwrap();
        assert!(check(&g, &c).holds);
        let c2 = parse_constraint("forall p in Pages : p in Linked").unwrap();
        assert!(!check(&g, &c2).holds);
    }

    #[test]
    fn alternating_quantifiers_report_only_the_violating_binding() {
        // x1 holds through its second y only; x2 has no y that works. An
        // exists that retries after a failed inner forall must not carry
        // that forall's binding into the next try or the counterexample.
        let mut g = Graph::new();
        let [x1, x2, y1, y2, z1] = ["x1", "x2", "y1", "y2", "z1"].map(|n| g.add_named_node(n));
        g.add_edge_str(x1, "pair", Value::Node(y1));
        g.add_edge_str(x1, "pair", Value::Node(y2));
        g.add_edge_str(y2, "ok", Value::Node(z1));
        g.add_edge_str(x2, "pair", Value::Node(y1));
        for (c, n) in [("X", x1), ("X", x2), ("Y", y1), ("Y", y2), ("Z", z1)] {
            g.collect_str(c, n);
        }
        let c = parse_constraint(
            r#"forall x in X : exists y in Y : forall z in Z : x -> "pair" -> y and y -> "ok" -> z"#,
        )
        .unwrap();
        let r = check(&g, &c);
        assert!(!r.holds);
        assert_eq!(
            r.counterexample,
            Some(vec![("x".to_string(), Value::Node(x2))])
        );
    }

    #[test]
    fn empty_collection_makes_forall_trivial_and_exists_false() {
        let g = site();
        let c = parse_constraint(r#"forall p in Ghost : p -> "title" -> t"#).unwrap();
        assert!(check(&g, &c).holds);
        let c2 =
            parse_constraint("forall p in Pages : exists r in Ghost : r -> * -> p").unwrap();
        assert!(!check(&g, &c2).holds);
    }
}
