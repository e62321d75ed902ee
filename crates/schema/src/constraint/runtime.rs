//! Runtime (materialized-graph) constraint checking — complete: it
//! decides every constraint on the graph it is given.
//!
//! One evaluator plus the quantifier loop. The body is a where clause,
//! run once through STRUQL's step loop behind one membership per
//! quantified variable it mentions, in the order written (coercion is not
//! transitive, so the first atom naming a free variable binds it); the
//! rows' membership columns are the member tuples under which it holds.
//! Those are the members themselves, not values a path reached, so
//! coercion-equal members (`1`, `"1"`) stay apart. A path to a free
//! variable named nowhere else runs as the existence test `not(not(…))`,
//! so a row is kept, not fanned out per reached value. The prefix is a
//! loop over the collections whose leaf looks the bound tuple up: the
//! first violation's `forall` bindings are the counterexample.

use super::{Constraint, Quant, Quantifier};
use std::collections::HashSet;
use strudel_graph::{Graph, Value};
use strudel_repo::Database;
use strudel_struql::{where_vars, Condition, EvalOptions, Evaluator, Span, Term};

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

/// Checks `constraint` against the graph of `db`, a materialized site.
pub fn check(db: &Database, constraint: &Constraint) -> CheckResult {
    let quantifiers = &constraint.quantifiers;
    // Per variable the body mentions, its innermost quantifier: the
    // binding the body sees.
    let mentioned = where_vars(&constraint.atoms, &[]);
    let keys: Vec<usize> = (0..quantifiers.len())
        .filter(|&d| {
            let var = &quantifiers[d].var;
            mentioned.contains(var) && !quantifiers[d + 1..].iter().any(|q| &q.var == var)
        })
        .collect();
    let seeds = keys.iter().map(|&d| Condition::Collection {
        name: quantifiers[d].collection.clone(),
        arg: Term::Var(quantifiers[d].var.clone()),
        span: Span::default(),
    });
    let clause: Vec<Condition> = seeds.chain(existence_tests(constraint)).collect();
    let (_, rows) = Evaluator::with_options(db, EvalOptions { optimize: false })
        .eval_where_bindings(&clause, &[])
        .expect("memberships, and paths from their variables, raise no error");
    let answers: HashSet<_> = (rows.into_iter())
        .map(|mut row| {
            row.truncate(keys.len());
            row
        })
        .collect();
    let holds = |bound: &[&Value]| {
        let key: Vec<_> = keys.iter().map(|&d| Some(bound[d].clone())).collect();
        answers.contains(&key)
    };
    quantify(db.graph(), quantifiers, &mut Vec::new(), &holds)
}

/// The body, with each path to a free variable no other atom names made
/// the existence test `not(not(…))`.
fn existence_tests(constraint: &Constraint) -> Vec<Condition> {
    let named_once = |var: &str| {
        !constraint.quantifiers.iter().any(|q| q.var == var)
            && (constraint.atoms.iter())
                .filter(|a| matches!(a, Condition::Path { dst: Term::Var(v), .. } if v == var))
                .count()
                == 1
    };
    (constraint.atoms.iter())
        .map(|atom| match atom {
            Condition::Path {
                dst: Term::Var(v),
                span,
                ..
            } if named_once(v) => {
                let not = |c| Condition::Not(Box::new(c), *span);
                not(not(atom.clone()))
            }
            _ => atom.clone(),
        })
        .collect()
}

/// The verdict with the outermost `bound.len()` quantifiers bound to
/// `bound`, where `holds` says whether the body holds under all of them.
fn quantify<'g>(
    graph: &'g Graph,
    quantifiers: &[Quantifier],
    bound: &mut Vec<&'g Value>,
    holds: &dyn Fn(&[&Value]) -> bool,
) -> CheckResult {
    // A violation under `bound`, witnessed by its `forall` bindings.
    let violation = |bound: &[&Value]| CheckResult {
        holds: false,
        counterexample: Some(
            (quantifiers.iter().zip(bound))
                .filter(|(q, _)| q.quant == Quant::Forall)
                .map(|(q, v)| (q.var.clone(), (*v).clone()))
                .collect(),
        ),
    };
    let Some(q) = quantifiers.get(bound.len()) else {
        return match holds(bound) {
            true => CheckResult::ok(),
            false => violation(bound),
        };
    };
    for m in graph.members_str(&q.collection) {
        bound.push(m);
        let r = quantify(graph, quantifiers, bound, holds);
        bound.pop();
        match q.quant {
            Quant::Forall if !r.holds => return r,
            Quant::Exists if r.holds => return r,
            _ => {}
        }
    }
    match q.quant {
        Quant::Forall => CheckResult::ok(),
        Quant::Exists => violation(bound),
    }
}

#[cfg(test)]
mod tests {
    use super::super::parse_constraint;
    use super::*;
    use strudel_repo::IndexLevel;

    /// [`super::check`] over a database of `g`.
    fn check(g: &Graph, c: &Constraint) -> CheckResult {
        super::check(&Database::from_graph(g.clone(), IndexLevel::Full), c)
    }

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
