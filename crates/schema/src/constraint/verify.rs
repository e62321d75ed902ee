//! Static constraint verification against a site schema.
//!
//! The paper (§2.5) defines verification as an entailment problem between
//! the site-definition query and the constraint; site schemas "allow us to
//! translate constraint formulae on the site graph into formulae on the
//! data graph". We implement a **sound proof procedure**:
//!
//! Consider `forall x in C : exists y in D : y -> R -> x`. Every `x`
//! arises from a `collect C(T_C)` expression guarded by a conjunction
//! `Q_C`. The constraint is *proved* if for every such collect there is a
//! `collect D(T_D)` and a path of schema edges from `T_D` to `T_C`
//! spelling a word of `R`, such that every edge guard and the `D`-collect
//! guard are **implied by** `Q_C`. Implication is tested per condition:
//! `Q_C ⊨ Q` holds when every condition of `Q` appears, structurally
//! equal up to source spans, among the conditions of `Q_C`. Guards drawn
//! from one program share a variable space, so this subset test is
//! sound; it is weaker than full query containment (the canonical-database
//! homomorphism test), which would also prove a guard that is equivalent
//! but written differently — such a case is [`Verdict::Unknown`] here.
//!
//! When the procedure cannot find such a path the verdict is
//! [`Verdict::Unknown`], not "violated" — completeness is undecidable in
//! general; the runtime checker covers concrete graphs.

use super::{Atom, CTerm, Constraint, Quant};
use crate::{SchemaNode, SiteSchema};
use strudel_struql::{Condition, LabelTerm, PathRegex, Term};

/// The static verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every site generated by the query satisfies the constraint.
    Proved,
    /// The procedure could not prove it (the constraint may or may not
    /// hold on particular data).
    Unknown,
}

/// Verifies `constraint` against `schema`.
pub fn verify(schema: &SiteSchema, constraint: &Constraint) -> Verdict {
    // Supported shapes: `forall x in C : <single path atom>`, optionally
    // with one `exists y in D` between them.
    let (forall, exists) = match constraint.quantifiers.as_slice() {
        [q] if q.quant == Quant::Forall => (q, None),
        [q, e] if q.quant == Quant::Forall && e.quant == Quant::Exists => (q, Some(e)),
        _ => return Verdict::Unknown,
    };
    let [Atom::Path { src, regex, dst }] = constraint.atoms.as_slice() else {
        return Verdict::Unknown;
    };

    // Every way C gets populated must be covered.
    let c_collects: Vec<_> = schema
        .collects
        .iter()
        .filter(|(c, _)| c.collection == forall.collection)
        .collect();
    if c_collects.is_empty() {
        return Verdict::Unknown;
    }

    let nfa = ReNfa::compile(regex);
    for (c_collect, c_guard) in &c_collects {
        let Term::Skolem {
            symbol: c_sym,
            args: c_args,
        } = &c_collect.arg
        else {
            return Verdict::Unknown; // collected data values: not provable
        };
        let c_node = schema.node_index(c_sym).expect("collected symbol in schema");

        let proved = match (exists, src.as_str(), dst) {
            // exists y in D : y -R-> x
            (Some(e), s, CTerm::Var(d)) if s == e.var && d == &forall.var => schema
                .collects
                .iter()
                .filter(|(c, _)| c.collection == e.collection)
                .any(|(d_collect, d_guard)| {
                    if !implies(c_guard, d_guard) {
                        return false;
                    }
                    let Term::Skolem {
                        symbol: d_sym,
                        args: d_args,
                    } = &d_collect.arg
                    else {
                        return false;
                    };
                    let d_node = schema.node_index(d_sym).expect("in schema");
                    path_exists(
                        schema,
                        &nfa,
                        d_node,
                        d_args,
                        c_guard,
                        &Target::Node(c_node, c_args),
                    )
                }),
            // x -R-> y with y in D
            (Some(e), s, CTerm::Var(d)) if s == forall.var && d == &e.var => schema
                .collects
                .iter()
                .filter(|(c, _)| c.collection == e.collection)
                .any(|(d_collect, d_guard)| {
                    if !implies(c_guard, d_guard) {
                        return false;
                    }
                    let Term::Skolem {
                        symbol: d_sym,
                        args: d_args,
                    } = &d_collect.arg
                    else {
                        return false;
                    };
                    let d_node = schema.node_index(d_sym).expect("in schema");
                    path_exists(
                        schema,
                        &nfa,
                        c_node,
                        c_args,
                        c_guard,
                        &Target::Node(d_node, d_args),
                    )
                }),
            // x -R-> <free var or constant>
            (None, s, target) if s == forall.var => {
                let target = match target {
                    CTerm::Var(_) => Target::Free,
                    CTerm::Const(v) => Target::Const(v.clone()),
                };
                path_exists(schema, &nfa, c_node, c_args, c_guard, &target)
            }
            _ => false,
        };
        if !proved {
            return Verdict::Unknown;
        }
    }
    Verdict::Proved
}

/// What the guaranteed path must end at.
enum Target<'a> {
    /// A specific schema node with these Skolem args.
    Node(usize, &'a [Term]),
    /// Any value at all.
    Free,
    /// A specific constant value.
    Const(strudel_graph::Value),
}

/// `premise ⊨ conclusion`: whenever an assignment satisfies every
/// condition of `premise`, it satisfies every condition of `conclusion`.
/// Guards within one program share a variable space, so the sound test is
/// per-condition membership (conditions are compared structurally).
fn implies(premise: &[Condition], conclusion: &[Condition]) -> bool {
    conclusion.iter().all(|c| premise.iter().any(|p| conditions_match(p, c)))
}

/// Structural condition equality ignoring source spans.
fn conditions_match(a: &Condition, b: &Condition) -> bool {
    use Condition::*;
    match (a, b) {
        (
            Collection { name: n1, arg: a1, .. },
            Collection { name: n2, arg: a2, .. },
        ) => n1 == n2 && a1 == a2,
        (
            Path {
                src: s1,
                path: p1,
                dst: d1,
                ..
            },
            Path {
                src: s2,
                path: p2,
                dst: d2,
                ..
            },
        ) => s1 == s2 && p1 == p2 && d1 == d2,
        (
            Compare {
                op: o1,
                lhs: l1,
                rhs: r1,
                ..
            },
            Compare {
                op: o2,
                lhs: l2,
                rhs: r2,
                ..
            },
        ) => o1 == o2 && l1 == l2 && r1 == r2,
        (
            Builtin { pred: p1, arg: a1, .. },
            Builtin { pred: p2, arg: a2, .. },
        ) => p1 == p2 && a1 == a2,
        (Not(i1, _), Not(i2, _)) => conditions_match(i1, i2),
        _ => false,
    }
}

/// BFS over (schema node, NFA state, Skolem args) for a guaranteed path:
/// every traversed edge's guard must be implied by `guard` and arguments
/// must chain exactly.
fn path_exists(
    schema: &SiteSchema,
    nfa: &ReNfa,
    start_node: usize,
    start_args: &[Term],
    guard: &[Condition],
    target: &Target<'_>,
) -> bool {
    #[derive(PartialEq, Clone)]
    struct State {
        node: usize,
        nfa_state: usize,
        args: Vec<Term>,
    }
    let mut queue: Vec<State> = Vec::new();
    let mut visited: Vec<State> = Vec::new();
    for s in nfa.closure(nfa.start) {
        let st = State {
            node: start_node,
            nfa_state: s,
            args: start_args.to_vec(),
        };
        if !visited.contains(&st) {
            visited.push(st.clone());
            queue.push(st);
        }
    }
    while let Some(st) = queue.pop() {
        if st.nfa_state == nfa.accept {
            match target {
                Target::Node(n, args) => {
                    if st.node == *n && st.args == *args {
                        return true;
                    }
                }
                // Free/Const targets accept on edges (below), not nodes.
                Target::Free | Target::Const(_) => {}
            }
        }
        for edge in schema.out_edges(st.node) {
            if edge.src_args != st.args {
                continue;
            }
            if !implies(guard, &edge.guard) {
                continue;
            }
            for (pred, next) in nfa.transitions(st.nfa_state) {
                if !pred_matches(pred, &edge.label) {
                    continue;
                }
                let accepts = nfa.closure(next).contains(&nfa.accept);
                match &schema.nodes[edge.to] {
                    SchemaNode::Skolem(_) => {
                        for s in nfa.closure(next) {
                            let st2 = State {
                                node: edge.to,
                                nfa_state: s,
                                args: edge.dst_args.clone(),
                            };
                            if !visited.contains(&st2) {
                                visited.push(st2.clone());
                                queue.push(st2);
                            }
                        }
                    }
                    SchemaNode::Ns => {
                        // Terminal data value.
                        if accepts {
                            match target {
                                Target::Free => return true,
                                Target::Const(v) => {
                                    if edge.dst_args.first()
                                        == Some(&Term::Const(v.clone()))
                                    {
                                        return true;
                                    }
                                }
                                Target::Node(..) => {}
                            }
                        }
                    }
                }
            }
        }
    }
    false
}

/// A transition predicate: a specific label or any.
fn pred_matches(pred: &RePred, label: &LabelTerm) -> bool {
    match (pred, label) {
        (RePred::Any, _) => true,
        (RePred::Label(p), LabelTerm::Const(l)) => p == l,
        // An arc-variable edge has *some* unknown label: it can only be
        // guaranteed to match the any-label predicate (handled above).
        (RePred::Label(_), LabelTerm::Var(_)) => false,
    }
}

#[derive(Debug, PartialEq)]
enum RePred {
    Any,
    Label(String),
}

/// A tiny Thompson NFA over label predicates, independent of any graph —
/// the verifier's regexes run over schema edges, not data edges.
struct ReNfa {
    trans: Vec<Vec<(RePred, usize)>>,
    eps: Vec<Vec<usize>>,
    start: usize,
    accept: usize,
}

impl ReNfa {
    fn compile(regex: &PathRegex) -> ReNfa {
        let mut n = ReNfa {
            trans: vec![Vec::new(), Vec::new()],
            eps: vec![Vec::new(), Vec::new()],
            start: 0,
            accept: 1,
        };
        n.build(regex, 0, 1);
        n
    }

    fn state(&mut self) -> usize {
        self.trans.push(Vec::new());
        self.eps.push(Vec::new());
        self.trans.len() - 1
    }

    fn build(&mut self, r: &PathRegex, from: usize, to: usize) {
        match r {
            PathRegex::Label(l) => self.trans[from].push((RePred::Label(l.clone()), to)),
            PathRegex::Any => self.trans[from].push((RePred::Any, to)),
            PathRegex::Seq(a, b) => {
                let mid = self.state();
                self.build(a, from, mid);
                self.build(b, mid, to);
            }
            PathRegex::Alt(a, b) => {
                self.build(a, from, to);
                self.build(b, from, to);
            }
            PathRegex::Star(inner) => {
                let hub = self.state();
                self.eps[from].push(hub);
                self.eps[hub].push(to);
                self.build(inner, hub, hub);
            }
            PathRegex::Plus(inner) => {
                let mid = self.state();
                self.build(inner, from, mid);
                self.build(&PathRegex::Star(inner.clone()), mid, to);
            }
            PathRegex::Opt(inner) => {
                self.eps[from].push(to);
                self.build(inner, from, to);
            }
        }
    }

    fn closure(&self, s: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![s];
        while let Some(x) = stack.pop() {
            if out.contains(&x) {
                continue;
            }
            out.push(x);
            stack.extend(self.eps[x].iter().copied());
        }
        out
    }

    fn transitions(&self, s: usize) -> impl Iterator<Item = (&RePred, usize)> + '_ {
        self.trans[s].iter().map(|(p, t)| (p, *t))
    }
}

#[cfg(test)]
mod tests {
    use super::super::parse_constraint;
    use super::*;
    use crate::SiteSchema;
    use strudel_graph::ddl;
    use strudel_repo::{Database, IndexLevel};
    use strudel_struql::{parse, Evaluator};

    const QUERY: &str = r#"
        create RootPage()
        where Publications(x)
        create PaperPage(x), AbstractPage(x)
        link RootPage() -> "paper" -> PaperPage(x),
             AbstractPage(x) -> "paper" -> PaperPage(x),
             PaperPage(x) -> "abstract" -> AbstractPage(x),
             PaperPage(x) -> "source" -> x
        collect Papers(PaperPage(x)), Abstracts(AbstractPage(x)), Roots(RootPage())
        { where x -> "year" -> y
          create YearPage(y)
          link YearPage(y) -> "paper" -> PaperPage(x)
          collect Years(YearPage(y)) }
    "#;

    fn schema() -> SiteSchema {
        SiteSchema::extract(&parse(QUERY).unwrap())
    }

    #[test]
    fn proves_direct_guaranteed_reachability() {
        // Every PaperPage is reachable from an AbstractPage (same guard).
        let c = parse_constraint(
            r#"forall p in Papers : exists a in Abstracts : a -> "paper" -> p"#,
        )
        .unwrap();
        assert_eq!(verify(&schema(), &c), Verdict::Proved);
    }

    #[test]
    fn proves_kleene_reachability_from_root() {
        // RootPage()'s guard is empty ⇒ implied by anything; one "paper"
        // edge under Publications(x) reaches every PaperPage.
        let c = parse_constraint("forall p in Papers : exists r in Roots : r -> * -> p").unwrap();
        assert_eq!(verify(&schema(), &c), Verdict::Proved);
    }

    #[test]
    fn year_pages_are_not_guaranteed_reachable_sources() {
        // YearPage exists only when the publication has a year, so "every
        // PaperPage reachable from a YearPage" is NOT provable — and is
        // indeed violated on data with a year-less publication.
        let c = parse_constraint(
            r#"forall p in Papers : exists y in Years : y -> "paper" -> p"#,
        )
        .unwrap();
        assert_eq!(verify(&schema(), &c), Verdict::Unknown);

        let g = ddl::parse(r#"object p1 in Publications { title : "no year"; }"#).unwrap();
        let db = Database::from_graph(g, IndexLevel::Full);
        let site = Evaluator::new(&db).eval(&parse(QUERY).unwrap()).unwrap();
        let r = super::super::runtime::check(&site.graph, &c);
        assert!(!r.holds, "runtime confirms the violation is real");
    }

    #[test]
    fn inverse_direction_proved() {
        // Every YearPage links to a PaperPage: the guard of Years equals
        // the guard of the YearPage->PaperPage edge, and Papers' guard is
        // implied by it.
        let c = parse_constraint(
            r#"forall y in Years : exists p in Papers : y -> "paper" -> p"#,
        )
        .unwrap();
        assert_eq!(verify(&schema(), &c), Verdict::Proved);
    }

    #[test]
    fn attribute_existence_proved_via_ns_edge() {
        let c = parse_constraint(r#"forall p in Papers : p -> "source" -> v"#).unwrap();
        assert_eq!(verify(&schema(), &c), Verdict::Proved);
    }

    #[test]
    fn unknown_for_attributes_never_linked() {
        let c = parse_constraint(r#"forall p in Papers : p -> "editor" -> v"#).unwrap();
        assert_eq!(verify(&schema(), &c), Verdict::Unknown);
    }

    #[test]
    fn multi_step_paths_compose() {
        // PaperPage -abstract-> AbstractPage -paper-> PaperPage: a cycle,
        // so any PaperPage reaches a Papers member over ("abstract" .
        // "paper")*.
        let c = parse_constraint(
            r#"forall p in Papers : exists q in Papers : p -> ("abstract" . "paper")* -> q"#,
        )
        .unwrap();
        assert_eq!(verify(&schema(), &c), Verdict::Proved);
    }

    #[test]
    fn zero_length_path_proves_self_reachability() {
        let c =
            parse_constraint("forall p in Papers : exists q in Papers : q -> * -> p").unwrap();
        assert_eq!(verify(&schema(), &c), Verdict::Proved);
    }

    #[test]
    fn unsupported_shapes_are_unknown() {
        let s = schema();
        let c = parse_constraint(
            "forall p in Papers : forall q in Papers : p -> * -> q",
        );
        // Two foralls: parseable but out of the verifier's fragment.
        if let Ok(c) = c {
            assert_eq!(verify(&s, &c), Verdict::Unknown);
        }
        let c2 = parse_constraint("forall p in NoSuchCollection : p -> * -> v").unwrap();
        assert_eq!(verify(&s, &c2), Verdict::Unknown);
    }

    #[test]
    fn soundness_spot_check_on_data() {
        // Everything the verifier proves must hold at runtime on any data.
        let corpus = [
            r#"object a in Publications { title : "A"; year : 1997; }
               object b in Publications { title : "B"; }"#,
            r#"object only in Publications { year : 2000; }"#,
            r#"object x in Publications { }"#,
        ];
        let constraints = [
            r#"forall p in Papers : exists a in Abstracts : a -> "paper" -> p"#,
            "forall p in Papers : exists r in Roots : r -> * -> p",
            r#"forall y in Years : exists p in Papers : y -> "paper" -> p"#,
            r#"forall p in Papers : p -> "source" -> v"#,
        ];
        let program = parse(QUERY).unwrap();
        let s = schema();
        for c_src in constraints {
            let c = parse_constraint(c_src).unwrap();
            assert_eq!(verify(&s, &c), Verdict::Proved, "{c_src}");
            for data in corpus {
                let g = ddl::parse(data).unwrap();
                let db = Database::from_graph(g, IndexLevel::Full);
                let site = Evaluator::new(&db).eval(&program).unwrap();
                let r = super::super::runtime::check(&site.graph, &c);
                assert!(r.holds, "verifier proved {c_src} but runtime violated on {data}");
            }
        }
    }
}
