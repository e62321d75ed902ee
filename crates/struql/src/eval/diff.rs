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
//! `R` and `R ⋈ A_old` read only the pre-delta version, so the walk splits
//! at the apply ([`old_half`], [`OldHalf::new_half`]) and one database,
//! changed in place in between, serves both versions.
//!
//! Counts are signed and coalesced after every touched step, so a
//! retraction cancels exactly the derivations the removed fact supported
//! (count-based deletion rather than delete-and-rederive): a row whose
//! derivations all disappear nets a negative count, one that keeps a
//! surviving derivation nets zero and is dropped from the diff.

use super::{apply_step, atoms, compile_steps, Evaluator, Row};
use crate::ast::{Condition, EdgeLabel, PathSpec, Term};
use crate::error::StruqlResult;
use crate::plan;
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

/// A where clause's conditions compiled against one database version.
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

    /// Applies condition `idx` to `rows` on this version.
    fn apply(&self, idx: usize, rows: Vec<Row>) -> StruqlResult<Vec<Row>> {
        apply_step(&self.steps[idx], self.ev, rows)
    }
}

/// One seed run's walk as far as the pre-delta version decides it.
#[derive(Debug)]
struct OldRun {
    /// Seeds naming nodes the old graph never issued: no old fact can
    /// mention them, so they enter as `+1` diffs, never probed on `old`.
    fresh: Vec<Row>,
    /// The plan's condition order, each with whether the delta touches it.
    order: Vec<(usize, bool)>,
    /// Per step while `R` is non-empty and a touched step lies ahead: on
    /// a touched one, the `R` entering it and `R ⋈ A_old`.
    r: Vec<Option<(Vec<Row>, Vec<Row>)>>,
}

impl OldRun {
    /// Plans `seed_rows` (pre-bindings of one common subset of `vars`;
    /// `in_old` when the old graph knows their nodes) and carries `R`
    /// through the old version.
    fn walk(
        old: &Snapshot<'_, '_>,
        conds: &[Condition],
        vars: &[String],
        seed_rows: Vec<Row>,
        in_old: bool,
        touch: &DeltaTouch,
    ) -> StruqlResult<OldRun> {
        let bound: HashSet<String> = vars
            .iter()
            .zip(seed_rows.first().into_iter().flatten())
            .filter(|(_, slot)| slot.is_some())
            .map(|(name, _)| name.clone())
            .collect();
        // One plan drives both halves: join order does not affect the
        // result, and planning against the pre-delta statistics keeps this
        // O(|plan|).
        let plan = plan::plan(conds, &bound, old.ev.db(), old.ev.opts.optimize);
        let order: Vec<(usize, bool)> = plan
            .order
            .iter()
            .map(|&idx| (idx, touch.touches_cond(&conds[idx])))
            .collect();
        // R only ever feeds a touched step; past the last one it is dead.
        let live = order.iter().rposition(|&(_, t)| t).map_or(0, |i| i + 1);
        let (mut rel, fresh) = match in_old {
            true => (seed_rows, Vec::new()),
            false => (Vec::new(), seed_rows),
        };
        let mut r = Vec::new();
        for &(idx, touched) in &order[..live] {
            if rel.is_empty() {
                break;
            }
            let input = if touched {
                rel.clone()
            } else {
                std::mem::take(&mut rel)
            };
            let out = old.apply(idx, input)?;
            let entering = std::mem::replace(&mut rel, out);
            r.push(touched.then(|| (entering, rel.clone())));
        }
        Ok(OldRun { fresh, order, r })
    }

    /// Per step, with `D` the signed diff so far (the post-delta relation
    /// is `R + D` as a multiset): `D' = D ⋈ A_new + R ⋈ A_new − R ⋈ A_old`
    /// on a touched step, `D ⋈ A_new` on another. Rows reference oids
    /// valid in both graphs: deltas never delete nodes.
    fn new_half(self, new: &Snapshot<'_, '_>) -> StruqlResult<Vec<SignedRow>> {
        let mut diff: Vec<SignedRow> = self.fresh.into_iter().map(|r| (r, 1)).collect();
        let tracing = strudel_trace::enabled();
        let mut r = self.r.into_iter();
        for (idx, touched) in self.order {
            // With no `R` left and an empty diff, nothing is left to find.
            if diff.is_empty() && r.as_slice().is_empty() {
                break;
            }
            if tracing {
                let kind = ["struql.diff.steps.skipped", "struql.diff.steps.touched"];
                strudel_trace::count(kind[usize::from(touched)], 1);
            }
            let mut next = expand_signed(new, idx, &diff)?;
            if let Some((r_in, r_out)) = r.next().flatten() {
                next.extend(new.apply(idx, r_in)?.into_iter().map(|r| (r, 1)));
                next.extend(r_out.into_iter().map(|r| (r, -1)));
            }
            diff = if touched { coalesce(next) } else { next };
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
            let label_ok = match path.single_edge() {
                Ok(EdgeLabel::Is(want)) => want == label,
                Ok(EdgeLabel::Any) => true,
                Ok(EdgeLabel::Binds(l)) => {
                    out.push((l.to_owned(), Value::string(label)));
                    true
                }
                Err(_) => false,
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
/// maintenance and materialized-site maintenance all project from, for
/// `old` and `new` immediately before and after `delta`: [`old_half`]
/// then [`OldHalf::new_half`].
pub fn delta_rows(
    old: &Evaluator<'_>,
    new: &Evaluator<'_>,
    conds: &[Condition],
    delta: &GraphDelta,
) -> StruqlResult<DiffOutcome> {
    old_half(old, conds, delta)?.new_half(new, conds)
}

/// The part of [`delta_rows`] that reads `old`, the database before
/// `delta`: the seed runs, each run's plan order, and every touched step's
/// `R` and `R ⋈ A_old`. It owns its rows, so the database may then take
/// the delta in place before [`OldHalf::new_half`].
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
pub fn old_half(
    old: &Evaluator<'_>,
    conds: &[Condition],
    delta: &GraphDelta,
) -> StruqlResult<OldHalf> {
    let vars = super::where_vars(conds, &[]);
    let touch = DeltaTouch::of(delta);
    if !touch.touches(conds) {
        return Ok(OldHalf {
            vars,
            runs: Vec::new(),
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
        if matches!(atom, Condition::Path { path, .. } if path.single_edge().is_err()) {
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

    // Every run walks the same conditions: compile them once.
    let old = Snapshot::new(old, conds, &vars);
    let runs = runs
        .into_iter()
        .map(|((in_old, _), seeds)| OldRun::walk(&old, conds, &vars, seeds, in_old, &touch))
        .collect::<StruqlResult<_>>()?;
    Ok(OldHalf { vars, runs })
}

/// What [`old_half`] read of the pre-delta version.
#[derive(Debug)]
pub struct OldHalf {
    vars: Vec<String>,
    runs: Vec<OldRun>,
}

impl OldHalf {
    /// The part of [`delta_rows`] that reads `new`, the database
    /// [`old_half`] read with the delta now applied, for the same `conds`,
    /// compiled afresh: the delta may have interned labels and collections.
    pub fn new_half(self, new: &Evaluator<'_>, conds: &[Condition]) -> StruqlResult<DiffOutcome> {
        let new = Snapshot::new(new, conds, &self.vars);
        // A row reached from two seeds carries the same count in both.
        let mut rows: Vec<SignedRow> = Vec::new();
        let mut seen: HashSet<Row> = HashSet::new();
        for run in self.runs {
            for (row, count) in run.new_half(&new)? {
                if seen.insert(row.clone()) {
                    rows.push((row, count));
                }
            }
        }
        Ok(DiffOutcome {
            vars: self.vars,
            rows,
        })
    }
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
