//! Differential evaluation of prepared where-clauses.
//!
//! Instead of re-running a guard query after a graph delta, [`delta_rows`]
//! propagates the delta through the compiled plan as a stream of signed
//! `(row, count)` diffs. Per plan step, with `R` the pre-delta relation
//! after the steps so far and `D` the accumulated diff (so the post-delta
//! relation is `R + D` as a multiset), applying condition `A` yields
//!
//! ```text
//! D'  =  D ⋈ A_new  +  R ⋈ A_new  −  R ⋈ A_old
//! R'  =  R ⋈ A_old
//! ```
//!
//! which is exactly `ΔL⋈R + L⋈ΔR + ΔL⋈ΔR` folded into two engine calls:
//! `R ⋈ A_new − R ⋈ A_old` is `L⋈ΔR` computed by cancellation, and
//! `D ⋈ A_new` covers both `ΔL⋈R` and `ΔL⋈ΔR`. Every join runs the real
//! compiled steps of `atoms`, each condition compiled once against the old
//! and once against the new database snapshot, so coercion, negation,
//! builtin, and batched-regex semantics are identical to full evaluation
//! by construction — including Kleene closures, whose bound-destination
//! probes go through the reverse adjacency index and whose retractions
//! fall out of the signed `A_new − A_old` pair with exact counts.
//!
//! When a condition cannot be affected by the delta (its labels and
//! collections are disjoint from the delta's — see [`DeltaTouch`]), the
//! two `R` terms cancel and the step degenerates to `D' = D ⋈ A` — the
//! cheap monotone case. Past the last touched step `R` is no longer
//! carried (nothing can retract from it), and when `D` is empty there as
//! well, the diff is empty and evaluation stops early.
//!
//! Counts are signed and coalesced after every touched step, so a
//! retraction cancels exactly the derivations the removed fact supported
//! (count-based deletion rather than delete-and-rederive): a row whose
//! derivations all disappear nets a negative count, one that keeps a
//! surviving derivation nets zero and is dropped from the diff.

use super::{apply_step, atoms, compile_steps, Evaluator, Row};
use crate::ast::{Condition, PathSpec, Term};
use crate::error::StruqlResult;
use crate::plan;
use crate::rpe::StepPred;
use std::collections::{BTreeMap, HashMap, HashSet};
use strudel_graph::{coerce, DeltaOp, GraphDelta, Oid, Value};

/// One signed bindings row: the row plus how many derivations the delta
/// added (positive) or retracted (negative).
pub type SignedRow = (Row, i64);

/// Which edge labels and collection names a delta touches — the analysis
/// that decides, per condition, whether the differential step needs the
/// two-sided `A_new − A_old` form or the cheap `D ⋈ A` form.
#[derive(Clone, Debug, Default)]
pub struct DeltaTouch {
    edge_labels: HashSet<String>,
    collections: HashSet<String>,
}

impl DeltaTouch {
    /// The touch-set of `delta`.
    pub fn of(delta: &GraphDelta) -> Self {
        DeltaTouch {
            edge_labels: delta.edge_labels().map(str::to_owned).collect(),
            collections: delta.collections().map(str::to_owned).collect(),
        }
    }

    /// Whether the delta touches no edge labels and no collections (it may
    /// still create nodes, which no condition can observe until an edge or
    /// membership references them).
    pub fn is_empty(&self) -> bool {
        self.edge_labels.is_empty() && self.collections.is_empty()
    }

    /// Whether evaluating `cond` could produce different rows before and
    /// after the delta. Conservative on `true`; exact on `false`.
    pub fn touches_cond(&self, cond: &Condition) -> bool {
        match cond {
            Condition::Collection { name, .. } => self.collections.contains(name),
            Condition::Path { path, .. } => match path {
                // An arc variable matches every edge of the source node.
                PathSpec::ArcVar(_) => !self.edge_labels.is_empty(),
                PathSpec::Regex(r) => {
                    self.edge_labels.iter().any(|l| r.could_traverse(l))
                }
            },
            // Pure value tests — database-independent.
            Condition::Compare { .. } | Condition::Builtin { .. } => false,
            // Negation is a per-row filter; it changes exactly when its
            // inner existential does. The two-sided form handles the
            // non-monotonicity (A_new − A_old is signed either way).
            Condition::Not(inner, _) => self.touches_cond(inner),
        }
    }

    /// Whether any condition in the list is touched.
    pub fn touches(&self, conds: &[Condition]) -> bool {
        conds.iter().any(|c| self.touches_cond(c))
    }
}

/// The result of a differential evaluation: the variable slot names and
/// the signed rows whose application to the pre-delta relation yields the
/// post-delta relation as a multiset. Zero-count rows are already dropped.
#[derive(Clone, Debug)]
pub struct DiffOutcome {
    /// Variable names in slot order.
    pub vars: Vec<String>,
    /// Coalesced signed rows, in first-derivation order.
    pub rows: Vec<SignedRow>,
}

/// One database snapshot of a delta, with a where clause's conditions
/// compiled against it once for every walk of the delta.
struct Snapshot<'e, 'db> {
    ev: &'e Evaluator<'db>,
    steps: Vec<StruqlResult<(usize, atoms::Step)>>,
}

impl<'e, 'db> Snapshot<'e, 'db> {
    fn new(ev: &'e Evaluator<'db>, conds: &[Condition], vars: &[String]) -> Self {
        Snapshot {
            ev,
            steps: compile_steps(ev.db().graph(), conds, vars),
        }
    }

    /// Applies condition `idx` to `rows` on this snapshot.
    fn apply(&self, idx: usize, rows: Vec<Row>) -> StruqlResult<Vec<Row>> {
        apply_step(&self.steps[idx], self.ev, rows)
    }
}

/// The differential walk behind [`delta_rows`]: the signed row diff
/// between evaluating `conds` on `new` (post-delta) and on `old`
/// (pre-delta), which must be snapshots of the same database immediately
/// before and after the delta `touch` was built from — rows flowing
/// through the plan reference oids that must be valid in both graphs
/// (deltas never delete nodes, so this holds for any applied
/// [`GraphDelta`]). `vars` is the slot layout both snapshots compiled
/// `conds` for, and `seed_rows` are distinct pre-bindings of one common
/// subset of it (one plan serves them all). With `in_old` false
/// the seeds name nodes the pre-delta graph never issued: the old side is
/// then empty by construction (no old fact can mention such a node), so
/// the seed rows start out as `+1` diffs and the old snapshot is never
/// probed with an unknown oid.
fn propagate(
    old: &Snapshot<'_, '_>,
    new: &Snapshot<'_, '_>,
    conds: &[Condition],
    vars: &[String],
    seed_rows: Vec<Row>,
    in_old: bool,
    touch: &DeltaTouch,
) -> StruqlResult<Vec<SignedRow>> {
    let bound: HashSet<String> = vars
        .iter()
        .zip(seed_rows.first().into_iter().flatten())
        .filter(|(_, slot)| slot.is_some())
        .map(|(name, _)| name.clone())
        .collect();
    // One plan drives both sides: join order does not affect the result,
    // and planning against the pre-delta statistics keeps this O(|plan|).
    let plan = plan::plan(conds, &bound, old.ev.db(), old.ev.opts.optimize);

    // R: the pre-delta relation so far (unit counts — exactly the rows the
    // plain engine would hold at this step). D: the signed diff so far.
    let (mut r_old, mut diff): (Vec<Row>, Vec<SignedRow>) = if in_old {
        (seed_rows, Vec::new())
    } else {
        (Vec::new(), seed_rows.into_iter().map(|r| (r, 1)).collect())
    };
    let tracing = strudel_trace::enabled();
    // R only ever feeds a touched step; past the last one it is dead
    // weight, and with an empty diff there is nothing left to find.
    let touched_steps = plan
        .order
        .iter()
        .rposition(|&idx| touch.touches_cond(&conds[idx]))
        .map_or(0, |last| last + 1);

    for (step, &idx) in plan.order.iter().enumerate() {
        if diff.is_empty() && (r_old.is_empty() || step >= touched_steps) {
            break;
        }
        if touch.touches_cond(&conds[idx]) {
            if tracing {
                strudel_trace::count("struql.diff.steps.touched", 1);
            }
            let d_new = expand_signed(new, idx, &diff)?;
            let r_via_new = new.apply(idx, r_old.clone())?;
            let r_via_old = old.apply(idx, r_old)?;
            let mut next = d_new;
            next.extend(r_via_new.into_iter().map(|r| (r, 1)));
            next.extend(r_via_old.iter().cloned().map(|r| (r, -1)));
            diff = coalesce(next);
            r_old = r_via_old;
        } else {
            if tracing {
                strudel_trace::count("struql.diff.steps.skipped", 1);
            }
            diff = expand_signed(new, idx, &diff)?;
            r_old = if step < touched_steps {
                old.apply(idx, r_old)?
            } else {
                Vec::new()
            };
        }
    }

    // Untouched steps after the last touched one fan rows out again
    // (parallel edges, several paths); callers get one entry per row.
    let diff = coalesce(diff);
    if tracing {
        let added: i64 = diff.iter().map(|(_, c)| (*c).max(0)).sum();
        let retracted: i64 = diff.iter().map(|(_, c)| (-*c).max(0)).sum();
        strudel_trace::count("struql.diff.rows.added", added as u64);
        strudel_trace::count("struql.diff.rows.retracted", retracted as u64);
    }
    Ok(diff)
}

/// One fact a delta inserts or retracts. The sign is not recorded: it
/// falls out of comparing the pre- and post-delta snapshots.
#[derive(Clone, Copy, Debug)]
enum Fact<'d> {
    Edge {
        from: Oid,
        label: &'d str,
        to: &'d Value,
    },
    Member {
        collection: &'d str,
        member: &'d Value,
    },
}

fn changed_facts(delta: &GraphDelta) -> Vec<Fact<'_>> {
    delta
        .ops()
        .iter()
        .filter_map(|op| match op {
            DeltaOp::AddEdge { from, label, to } | DeltaOp::RemoveEdge { from, label, to } => {
                Some(Fact::Edge {
                    from: *from,
                    label,
                    to,
                })
            }
            DeltaOp::Collect { collection, member }
            | DeltaOp::Uncollect { collection, member } => Some(Fact::Member { collection, member }),
            DeltaOp::AddNode { .. } => None,
        })
        .collect()
}

/// Unifies a positive condition atom with a changed fact, producing the
/// variable bindings under which the atom matches exactly that fact.
/// `None` = this atom cannot match this fact — including every multi-step
/// regular path expression, which no single edge satisfies.
fn unify(cond: &Condition, fact: Fact<'_>) -> Option<Vec<(String, Value)>> {
    fn bind(term: &Term, value: &Value, out: &mut Vec<(String, Value)>) -> bool {
        match term {
            Term::Var(v) => match out.iter().find(|(n, _)| n == v) {
                Some((_, prev)) => prev == value,
                None => {
                    out.push((v.clone(), value.clone()));
                    true
                }
            },
            Term::Const(c) => coerce::eq(c, value),
            Term::Skolem { .. } => false,
        }
    }
    let mut out = Vec::new();
    let matched = match (cond, fact) {
        (Condition::Collection { name, arg, .. }, Fact::Member { collection, member }) => {
            name == collection && bind(arg, member, &mut out)
        }
        (Condition::Path { src, path, dst, .. }, Fact::Edge { from, label, to }) => {
            let label_ok = match path {
                PathSpec::ArcVar(l) => {
                    out.push((l.clone(), Value::string(label)));
                    true
                }
                PathSpec::Regex(r) => match r.as_single_step() {
                    Some(StepPred::Label(want)) => want == label,
                    Some(StepPred::Any) => true,
                    None => false,
                },
            };
            label_ok && bind(src, &Value::Node(from), &mut out) && bind(dst, to, &mut out)
        }
        _ => false,
    };
    matched.then_some(out)
}

/// The positive atom under any `not(…)` layers.
fn atom(cond: &Condition) -> &Condition {
    match cond {
        Condition::Not(inner, _) => atom(inner),
        other => other,
    }
}

/// The exact signed rows of a where-clause under `delta`, at |Δ| cost:
/// `multiset(eval on new) − multiset(eval on old)` with `vars` in the
/// unseeded [`Evaluator::eval_where_bindings`] layout — the one answer to
/// "which rows did this delta change?" that page invalidation, cached-view
/// maintenance and materialized-site maintenance all project from.
///
/// Every changed fact is unified with each touched condition it can match
/// and the clause is diffed seeded by the *node* bindings of that match:
/// a row whose multiplicity changes must agree with some changed fact on
/// some condition, so the union of those seeded diffs covers the full
/// diff, and since each seeded diff is the full diff restricted to its
/// seeds, a row reached from two seeds carries the same count in both.
/// Only node-valued, positively bound variables are seeded — node
/// equality is exact, whereas seeding an atomic value would match every
/// coercion-equal spelling of it, and a `not(…)`-local existential must
/// stay unbound. A touched condition no single fact can localize (a
/// multi-step regular path expression, possibly under `not(…)`; a match
/// that binds no node) diffs the clause unseeded instead — still exact,
/// and still only this clause.
pub fn delta_rows(
    old: &Evaluator<'_>,
    new: &Evaluator<'_>,
    conds: &[Condition],
    delta: &GraphDelta,
) -> StruqlResult<DiffOutcome> {
    let vars = super::where_vars(conds, &[]);
    let touch = DeltaTouch::of(delta);
    if !touch.touches(conds) {
        return Ok(DiffOutcome {
            vars,
            rows: Vec::new(),
        });
    }

    let mut positive: HashSet<String> = HashSet::new();
    for cond in conds {
        plan::bind_vars(cond, &mut positive);
    }
    let facts = changed_facts(delta);
    let old_graph = old.db().graph();
    // Distinct seed rows, grouped by which slots they bind and whether the
    // old graph knows their nodes (`in_old`): a group shares one plan and
    // one walk, which is what keeps a many-fact delta cheaper than
    // re-evaluation. Measured (PR 12, E-incremental +50 people at 1 000):
    // one run per seed row 15 ms, full re-evaluation 9 ms, grouped 4 ms —
    // re-measure before "simplifying" the grouping away.
    let mut runs: BTreeMap<(bool, Vec<bool>), Vec<Row>> = BTreeMap::new();
    let mut localized = true;
    'conds: for cond in conds.iter().filter(|c| touch.touches_cond(c)) {
        let atom = atom(cond);
        if matches!(atom, Condition::Path { path: PathSpec::Regex(r), .. } if r.as_single_step().is_none())
        {
            localized = false;
            break;
        }
        for &fact in &facts {
            let Some(bindings) = unify(atom, fact) else {
                continue;
            };
            let mut row: Row = vec![None; vars.len()];
            let mut in_old = true;
            for (name, v) in bindings {
                let (Some(node), true) = (v.as_node(), positive.contains(&name)) else {
                    continue;
                };
                if let Some(slot) = super::var_slot(&name, &vars) {
                    in_old &= old_graph.contains_node(node);
                    row[slot] = Some(v);
                }
            }
            if row.iter().all(Option::is_none) {
                localized = false;
                break 'conds;
            }
            let shape = row.iter().map(Option::is_some).collect();
            let run = runs.entry((in_old, shape)).or_default();
            if !run.contains(&row) {
                run.push(row);
            }
        }
    }
    if !localized {
        runs = BTreeMap::from([((true, Vec::new()), vec![vec![None; vars.len()]])]);
    }

    // Every run walks the same conditions: compile them once per snapshot.
    let (old, new) = (
        Snapshot::new(old, conds, &vars),
        Snapshot::new(new, conds, &vars),
    );
    // A row reached from two seeds carries the same count in both.
    let mut rows: Vec<SignedRow> = Vec::new();
    let mut seen: HashSet<Row> = HashSet::new();
    for ((in_old, _), seed_rows) in runs {
        for (row, count) in propagate(&old, &new, conds, &vars, seed_rows, in_old, &touch)? {
            if seen.insert(row.clone()) {
                rows.push((row, count));
            }
        }
    }
    Ok(DiffOutcome { vars, rows })
}

/// Applies condition `idx`, compiled on `snapshot`, to a signed relation.
/// Rows are batched in consecutive runs of equal count — a step emits row
/// *i*'s extensions before row *i+1*'s, so every output of a run inherits
/// the run's count.
fn expand_signed(
    snapshot: &Snapshot<'_, '_>,
    idx: usize,
    rows: &[SignedRow],
) -> StruqlResult<Vec<SignedRow>> {
    let mut out: Vec<SignedRow> = Vec::new();
    let mut i = 0;
    while i < rows.len() {
        let count = rows[i].1;
        let mut j = i;
        while j < rows.len() && rows[j].1 == count {
            j += 1;
        }
        let run: Vec<Row> = rows[i..j].iter().map(|(r, _)| r.clone()).collect();
        let expanded = snapshot.apply(idx, run)?;
        out.extend(expanded.into_iter().map(|r| (r, count)));
        i = j;
    }
    Ok(out)
}

/// Merges duplicate rows by summing counts, dropping exact cancellations.
/// Output order is each surviving row's first occurrence — deterministic
/// given deterministic operator output.
fn coalesce(rows: Vec<SignedRow>) -> Vec<SignedRow> {
    let mut index: HashMap<Row, usize> = HashMap::with_capacity(rows.len());
    let mut out: Vec<SignedRow> = Vec::with_capacity(rows.len());
    for (row, count) in rows {
        match index.get(&row) {
            Some(&slot) => out[slot].1 += count,
            None => {
                index.insert(row.clone(), out.len());
                out.push((row, count));
            }
        }
    }
    out.retain(|(_, c)| *c != 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use strudel_graph::ddl;
    use strudel_repo::{Database, IndexLevel};

    fn db(src: &str) -> Database {
        Database::from_graph(ddl::parse(src).unwrap(), IndexLevel::Full)
    }

    fn after(old: &Database, delta: &GraphDelta) -> Database {
        let mut g = old.graph().clone();
        delta.apply(&mut g).unwrap();
        Database::from_graph(g, IndexLevel::Full)
    }

    /// Multiset difference of full evaluations — the oracle.
    fn oracle_diff(
        old: &Database,
        new: &Database,
        conds: &[Condition],
        seed: &[(String, Value)],
    ) -> HashMap<Row, i64> {
        let (_, old_rows) = Evaluator::new(old).eval_where_bindings(conds, seed).unwrap();
        let (_, new_rows) = Evaluator::new(new).eval_where_bindings(conds, seed).unwrap();
        let mut m: HashMap<Row, i64> = HashMap::new();
        for r in new_rows {
            *m.entry(r).or_insert(0) += 1;
        }
        for r in old_rows {
            *m.entry(r).or_insert(0) -= 1;
        }
        m.retain(|_, c| *c != 0);
        m
    }

    /// `delta_rows` against the oracle. With a seed the comparison is the
    /// routing contract: the unseeded rows that agree with the seed,
    /// re-laid seeds-first, are exactly the seeded evaluation's diff.
    fn check(old: &Database, delta: &GraphDelta, query: &str, seed: &[(String, Value)]) {
        let conds = crate::parse(&format!("where {query} collect Out(x)"))
            .map(|p| p.blocks[0].where_.clone())
            .unwrap();
        let new = after(old, delta);
        let out = delta_rows(&Evaluator::new(old), &Evaluator::new(&new), &conds, delta).unwrap();
        let n = out.rows.len();
        let all: HashMap<Row, i64> = out.rows.into_iter().collect();
        assert_eq!(all.len(), n, "delta_rows emitted a row twice: {query}");
        assert_eq!(all, oracle_diff(old, &new, &conds, &[]), "delta_rows: {query}");

        let seed_names: Vec<String> = seed.iter().map(|(n, _)| n.clone()).collect();
        let layout = crate::where_vars(&conds, &seed_names);
        let slots: Vec<usize> = layout
            .iter()
            .map(|v| crate::eval::var_slot(v, &out.vars).unwrap())
            .collect();
        let routed: HashMap<Row, i64> = all
            .into_iter()
            .map(|(row, c)| (slots.iter().map(|&i| row[i].clone()).collect::<Row>(), c))
            .filter(|(row, _)| seed.iter().zip(row).all(|((_, v), slot)| slot.as_ref() == Some(v)))
            .collect();
        assert_eq!(routed, oracle_diff(old, &new, &conds, seed), "seeded: {query}");
    }

    #[test]
    fn insert_produces_positive_rows() {
        let old = db(r#"object p1 in Pubs { title : "Alpha"; }"#);
        let p1 = old.graph().node_by_name("p1").unwrap();
        let mut delta = GraphDelta::new();
        delta.add_edge(p1, "title", Value::string("Alpha v2"));
        check(&old, &delta, r#"Pubs(x), x -> "title" -> t"#, &[]);
    }

    #[test]
    fn retract_produces_negative_rows() {
        let old = db(r#"object p1 in Pubs { title : "Alpha"; year : 1997; }"#);
        let p1 = old.graph().node_by_name("p1").unwrap();
        let mut delta = GraphDelta::new();
        delta.remove_edge(p1, "title", Value::string("Alpha"));
        check(&old, &delta, r#"Pubs(x), x -> "title" -> t"#, &[]);
    }

    #[test]
    fn irrelevant_delta_yields_empty_diff_without_expansion() {
        let old = db(r#"object p1 in Pubs { title : "Alpha"; }"#);
        let p1 = old.graph().node_by_name("p1").unwrap();
        let mut delta = GraphDelta::new();
        delta.add_edge(p1, "note", Value::string("draft"));
        let conds = crate::parse(r#"where Pubs(x), x -> "title" -> t collect Out(x)"#)
            .map(|p| p.blocks[0].where_.clone())
            .unwrap();
        assert!(!DeltaTouch::of(&delta).touches(&conds));
        let new = after(&old, &delta);
        let out =
            delta_rows(&Evaluator::new(&old), &Evaluator::new(&new), &conds, &delta).unwrap();
        assert!(out.rows.is_empty());
    }

    #[test]
    fn kleene_retraction_cancels_exactly() {
        // Two derivations of reachability root→b (direct rel edge and via
        // a); removing one leaves the row derivable, so the diff nets the
        // lost derivation count, and the *membership* row survives.
        let old = db(
            r#"
            object root in Roots { rel : &a; rel : &b; }
            object a { rel : &b; }
            object b { label : "b"; }
        "#,
        );
        let a = old.graph().node_by_name("a").unwrap();
        let b = old.graph().node_by_name("b").unwrap();
        let mut delta = GraphDelta::new();
        delta.remove_edge(a, "rel", Value::Node(b));
        check(&old, &delta, r#"Roots(x), x -> "rel"* -> y"#, &[]);
    }

    #[test]
    fn kleene_insertion_through_middle_of_paths() {
        let old = db(
            r#"
            object root in Roots { rel : &a; }
            object a { label : "a"; }
            object b { label : "b"; }
        "#,
        );
        let a = old.graph().node_by_name("a").unwrap();
        let b = old.graph().node_by_name("b").unwrap();
        let mut delta = GraphDelta::new();
        delta.add_edge(a, "rel", Value::Node(b));
        check(&old, &delta, r#"Roots(x), x -> "rel"* -> y"#, &[]);
    }

    #[test]
    fn negation_diffs_both_directions() {
        let old = db(
            r#"
            object p1 in Pubs { title : "Alpha"; hidden : true; }
            object p2 in Pubs { title : "Beta"; }
        "#,
        );
        let p1 = old.graph().node_by_name("p1").unwrap();
        let p2 = old.graph().node_by_name("p2").unwrap();
        // p1 becomes visible, p2 becomes hidden: one positive and one
        // negative row through the not() filter.
        let mut delta = GraphDelta::new();
        delta.remove_edge(p1, "hidden", Value::Bool(true));
        delta.add_edge(p2, "hidden", Value::Bool(true));
        check(&old, &delta, r#"Pubs(x), not(x -> "hidden" -> h)"#, &[]);
    }

    #[test]
    fn seeded_diff_localizes_to_the_seed() {
        let old = db(
            r#"
            object p1 in Pubs { title : "Alpha"; }
            object p2 in Pubs { title : "Beta"; }
        "#,
        );
        let p1 = old.graph().node_by_name("p1").unwrap();
        let p2 = old.graph().node_by_name("p2").unwrap();
        let mut delta = GraphDelta::new();
        delta.add_edge(p1, "title", Value::string("Alpha v2"));
        // p2 is unaffected by p1's edit: none of the rows route to it.
        let seed = vec![("x".to_owned(), Value::Node(p2))];
        check(&old, &delta, r#"Pubs(x), x -> "title" -> t"#, &seed);
        let seed = vec![("x".to_owned(), Value::Node(p1))];
        check(&old, &delta, r#"Pubs(x), x -> "title" -> t"#, &seed);
    }

    #[test]
    fn mixed_insert_retract_coalesces() {
        let old = db(r#"object p1 in Pubs { title : "Alpha"; }"#);
        let p1 = old.graph().node_by_name("p1").unwrap();
        let mut delta = GraphDelta::new();
        delta.remove_edge(p1, "title", Value::string("Alpha"));
        delta.add_edge(p1, "title", Value::string("Alpha"));
        // Net no-op: retraction and re-insertion of the same fact.
        check(&old, &delta, r#"Pubs(x), x -> "title" -> t"#, &[]);
    }

    #[test]
    fn arc_variable_conditions_are_touched_by_any_edge() {
        let old = db(r#"object p1 in Pubs { title : "Alpha"; }"#);
        let p1 = old.graph().node_by_name("p1").unwrap();
        let mut delta = GraphDelta::new();
        delta.add_edge(p1, "anything", Value::Int(7));
        check(&old, &delta, r#"Pubs(x), x -> l -> v"#, &[]);
    }

    #[test]
    fn new_node_with_membership_and_edges() {
        let old = db(r#"object p1 in Pubs { title : "Alpha"; }"#);
        let base = old.graph().node_count();
        let mut delta = GraphDelta::new();
        delta.add_node(Some("p2"));
        let p2 = strudel_graph::Oid::from_index(base);
        delta.add_edge(p2, "title", Value::string("Beta"));
        delta.collect("Pubs", Value::Node(p2));
        check(&old, &delta, r#"Pubs(x), x -> "title" -> t"#, &[]);
    }
}
