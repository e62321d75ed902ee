//! Evaluation of individual where-clause conditions over a bindings
//! relation.
//!
//! A condition is compiled once into a [`Step`] against a row layout and a
//! graph snapshot; [`PreparedWhere`](super::PreparedWhere) runs the steps
//! in plan order. Every step maps each input row to zero or more extended
//! rows independently of every other row, and emits row *i*'s extensions
//! before row *i+1*'s, on the calling thread.
//!
//! A path that crosses one edge — a named label, `true` or an arc
//! variable (`x -> R -> y`, §2.2) — compiles to one [`Step::Edge`], whose
//! label is `Is(label)`, `Any` or `Binds(slot)`, and runs under one probe
//! rule: a bound source reads its own out-edges; an unbound source takes
//! the first probe that answers of the label's index for a bound
//! destination (`sources` for a named label, the value index for an
//! atomic one), the reverse adjacency of a bound node destination, and a
//! scan (the label's extension when kept, otherwise every edge).
//!
//! A negation is its positive step under a layer count: `not(…)` is
//! stripped at compile time and counted beside the step, and the loop
//! keeps a row when [`Step::keeps`] — does the step extend this row? —
//! answers `true` under an even count and `false` under an odd one. So
//! `not(z -> "link" -> x)` probes through the same indexes as the
//! positive step it wraps.
//!
//! General path regexes are evaluated *batched*: [`RegexBatch::prepare`]
//! groups the rows by their distinct bound source (or destination) value,
//! computes each group's extensions exactly once into a memo table, and
//! gives every row the index of the entry it reads. The per-row fan-out
//! then only reads that entry, so the work is proportional to distinct
//! probe values, not row count. A bound destination is probed through the
//! graph's reverse adjacency index with a reversed NFA instead of
//! traversing forward from every node; the results are emitted in
//! ascending source-oid order, which is exactly the order the forward full
//! scan produces. That is the order `struql/tests/differential.rs` holds
//! the engine to, byte for byte, against a nested-loop reference
//! evaluator that shares no code with this module.

use super::{var_slot, Evaluator, Row};
use crate::ast::{BuiltinPred, CmpOp, Condition, EdgeLabel, PathRegex, PathSpec, Term};
use crate::builtins::eval_builtin;
use crate::error::{StruqlError, StruqlResult};
use crate::rpe::Nfa;
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;
use strudel_graph::{coerce, CollectionId, Graph, InEdge, Label, Oid, Value};

/// Appends variables this condition can bind (positive binders only) that
/// are not yet in scope.
pub(crate) fn introduce_vars(cond: &Condition, vars: &mut Vec<String>) {
    let mut add = |name: &str| {
        if !vars.iter().any(|v| v == name) {
            vars.push(name.to_owned());
        }
    };
    match cond {
        Condition::Collection { arg, .. } => {
            if let Term::Var(v) = arg {
                add(v);
            }
        }
        Condition::Path { src, path, dst, .. } => {
            if let Term::Var(v) = src {
                add(v);
            }
            if let PathSpec::ArcVar(l) = path {
                add(l);
            }
            if let Term::Var(v) = dst {
                add(v);
            }
        }
        Condition::Compare { .. } | Condition::Builtin { .. } => {}
        // Local existentials inside not(…) need slots so the inner
        // existence test can enumerate them.
        Condition::Not(inner, _) => introduce_vars(inner, vars),
    }
}

/// How a term participates in matching: a constant, a bound slot, or an
/// unbound slot to fill.
#[derive(Debug)]
pub(crate) enum Pos {
    Const(Value),
    Slot(usize),
}

fn term_pos(t: &Term, vars: &[String]) -> StruqlResult<Pos> {
    match t {
        Term::Const(v) => Ok(Pos::Const(v.clone())),
        Term::Var(v) => var_slot(v, vars)
            .map(Pos::Slot)
            .ok_or_else(|| StruqlError::eval(format!("variable '{v}' has no slot"))),
        Term::Skolem { .. } => Err(StruqlError::eval(
            "Skolem terms cannot appear in the where stage",
        )),
    }
}

impl Pos {
    /// The value this position holds in `row`, if any.
    fn value<'r>(&'r self, row: &'r Row) -> Option<&'r Value> {
        match self {
            Pos::Const(v) => Some(v),
            Pos::Slot(i) => row[*i].as_ref(),
        }
    }

    /// Unifies the position with `v` in `row`: if already bound, the values
    /// must agree under dynamic coercion; if unbound, the slot is filled.
    fn unify(&self, row: &mut Row, v: &Value) -> bool {
        match self {
            Pos::Const(c) => coerce::eq(c, v),
            Pos::Slot(i) => match &row[*i] {
                Some(existing) => coerce::eq(existing, v),
                None => {
                    row[*i] = Some(v.clone());
                    true
                }
            },
        }
    }
}

/// One condition compiled against a row layout and a graph: term
/// positions resolved to slots (a constant is held here and only ever
/// borrowed), labels and collections resolved to ids, a constant
/// destination's coercion keys computed, general regexes compiled.
/// [`PreparedWhere`](super::PreparedWhere) keeps one per condition for a
/// database snapshot, so a run does no name lookup and clones no
/// constant.
#[derive(Debug)]
pub(crate) enum Step {
    Collection {
        pos: Pos,
        cid: Option<CollectionId>,
    },
    /// A path that crosses one edge. A named label is `Is(None)` when
    /// the graph never interned it: no such edges. An arc variable is
    /// `Binds(slot)`, the slot it binds.
    Edge {
        spos: Pos,
        label: EdgeLabel<Option<Label>, usize>,
        dpos: Pos,
        cands: DstCandidates,
    },
    /// `rev` is compiled from `regex` by the first batch that probes a
    /// bound destination, and kept: a cached plan compiles it once.
    Regex {
        spos: Pos,
        dpos: Pos,
        regex: PathRegex,
        fwd: Nfa,
        rev: OnceLock<Nfa>,
    },
    Compare {
        op: CmpOp,
        lp: Pos,
        rp: Pos,
    },
    Builtin {
        pred: BuiltinPred,
        pos: Pos,
    },
}

impl Step {
    /// Compiles `cond` for rows laid out as `vars` over `graph`'s
    /// interner: the step of the condition inside its `not(…)` layers,
    /// and how many layers there were.
    pub(crate) fn compile(
        graph: &Graph,
        cond: &Condition,
        vars: &[String],
    ) -> StruqlResult<(usize, Step)> {
        let step = match cond {
            Condition::Collection { name, arg, .. } => Step::Collection {
                pos: term_pos(arg, vars)?,
                cid: graph.collection_id(name),
            },
            Condition::Path { src, path, dst, .. } => {
                let spos = term_pos(src, vars)?;
                let dpos = term_pos(dst, vars)?;
                let label = match path.single_edge() {
                    Ok(EdgeLabel::Is(name)) => EdgeLabel::Is(graph.label(name)),
                    Ok(EdgeLabel::Any) => EdgeLabel::Any,
                    Ok(EdgeLabel::Binds(l)) => EdgeLabel::Binds(
                        var_slot(l, vars)
                            .ok_or_else(|| StruqlError::eval(format!("arc variable '{l}' lost")))?,
                    ),
                    Err(r) => {
                        let regex = Step::Regex {
                            fwd: Nfa::compile(r, graph),
                            rev: OnceLock::new(),
                            regex: r.clone(),
                            spos,
                            dpos,
                        };
                        return Ok((0, regex));
                    }
                };
                Step::Edge {
                    cands: DstCandidates::new(&dpos),
                    spos,
                    label,
                    dpos,
                }
            }
            Condition::Compare { op, lhs, rhs, .. } => Step::Compare {
                op: *op,
                lp: term_pos(lhs, vars)?,
                rp: term_pos(rhs, vars)?,
            },
            Condition::Builtin { pred, arg, .. } => Step::Builtin {
                pred: *pred,
                pos: term_pos(arg, vars)?,
            },
            Condition::Not(inner, _) => {
                let (layers, step) = Step::compile(graph, inner, vars)?;
                return Ok((layers + 1, step));
            }
        };
        Ok((0, step))
    }

    /// Whether the step extends `row` at all: the test a negated step
    /// filters by. Every variable of a negated condition but its local
    /// existentials is bound (checked statically). A comparison, a
    /// built-in and the membership of a bound value read the borrowed
    /// row; any other step is applied to a one-row copy, through the
    /// indexes its positive form uses.
    pub(crate) fn keeps(&self, ev: &Evaluator<'_>, row: &Row) -> StruqlResult<bool> {
        let extends = || Ok::<_, StruqlError>(!self.apply(ev, vec![row.clone()])?.is_empty());
        Ok(match self {
            Step::Collection { pos, cid } => match pos.value(row) {
                Some(v) => cid.is_some_and(|c| ev.db().graph().in_collection(c, v)),
                None => extends()?,
            },
            Step::Compare { op, lp, rp } => {
                let (Some(a), Some(b)) = (lp.value(row), rp.value(row)) else {
                    return Err(StruqlError::eval("comparison over unbound variable"));
                };
                compare_keeps(*op, a, b)
            }
            Step::Builtin { pred, pos } => {
                let Some(v) = pos.value(row) else {
                    return Err(StruqlError::eval("builtin predicate over unbound variable"));
                };
                eval_builtin(*pred, v)
            }
            _ => extends()?,
        })
    }

    /// Applies the step to the relation, producing the extended relation.
    pub(crate) fn apply(&self, ev: &Evaluator<'_>, rows: Vec<Row>) -> StruqlResult<Vec<Row>> {
        let graph = ev.db().graph();
        match self {
            Step::Collection { pos, cid } => {
                let members: &[Value] = match cid {
                    Some(c) => graph.members(*c),
                    None => &[],
                };
                if rows.iter().all(|row| pos.value(row).is_some()) {
                    return retain_rows(rows, |row| self.keeps(ev, row));
                }
                let reuse = rows.len() == 1;
                let mut out = Vec::with_capacity(rows.len());
                for row in rows {
                    if pos.value(&row).is_none() {
                        fan_out(row, reuse, members.iter(), &mut out, |r, m| pos.unify(r, m));
                    } else if self.keeps(ev, &row)? {
                        out.push(row);
                    }
                }
                Ok(out)
            }
            Step::Edge {
                spos,
                label,
                dpos,
                cands,
            } => Ok(apply_edge(ev, rows, spos, *label, dpos, cands)),
            Step::Regex {
                spos,
                dpos,
                regex,
                fwd,
                rev,
            } => {
                let rev = || rev.get_or_init(|| Nfa::compile_reversed(regex, graph));
                let memo = RegexBatch::prepare(graph, fwd, rev, &rows, spos, dpos);
                Ok(apply_regex(rows, spos, dpos, &memo))
            }
            Step::Compare { .. } | Step::Builtin { .. } => {
                retain_rows(rows, |row| self.keeps(ev, row))
            }
        }
    }
}

/// A filter step, in place: the rows `keep` accepts, in order, or the
/// first error it raises.
pub(crate) fn retain_rows(
    mut rows: Vec<Row>,
    mut keep: impl FnMut(&Row) -> StruqlResult<bool>,
) -> StruqlResult<Vec<Row>> {
    let mut failed = None;
    rows.retain(|row| {
        failed.is_none()
            && keep(row).unwrap_or_else(|e| {
                failed = Some(e);
                false
            })
    });
    match failed {
        Some(e) => Err(e),
        None => Ok(rows),
    }
}

/// Extends `row` by each of `candidates` in order, pushing to `out` the
/// extensions `extend` accepts, each on a clone of the row. With `reuse`
/// the last candidate takes the row itself, so a row with one candidate
/// — an attribute read through a bound source, most often — is extended
/// without a copy. Callers reuse only the row of a one-row relation (a
/// guard seeded for one page, the click path's case): extending a
/// build's large relations in place left `cold-crawl`'s process, which
/// builds its site several times over, ≈3 MiB more resident for the
/// same live bytes.
fn fan_out<T>(
    row: Row,
    reuse: bool,
    candidates: impl Iterator<Item = T>,
    out: &mut Vec<Row>,
    mut extend: impl FnMut(&mut Row, T) -> bool,
) {
    let mut candidates = candidates.peekable();
    while let Some(c) = candidates.next() {
        if reuse && candidates.peek().is_none() {
            let mut r = row;
            if extend(&mut r, c) {
                out.push(r);
            }
            return;
        }
        let mut r = row.clone();
        if extend(&mut r, c) {
            out.push(r);
        }
    }
}

fn compare_keeps(op: CmpOp, a: &Value, b: &Value) -> bool {
    use CmpOp::*;
    match op {
        Eq => coerce::eq(a, b),
        Ne => {
            // Comparable-and-different; incomparable values are
            // neither equal nor unequal.
            matches!(
                coerce::compare(a, b),
                Some(std::cmp::Ordering::Less | std::cmp::Ordering::Greater)
            )
        }
        Lt => coerce::lt(a, b),
        Le => coerce::le(a, b),
        Gt => coerce::lt(b, a),
        Ge => coerce::le(b, a),
    }
}

/// The finite set of structurally distinct values that are
/// coercion-equal to `v` — the keys an *exact-match* index must be probed
/// with so that indexed lookups agree with coercing scans.
///
/// Numeric values return `None`: infinitely many string spellings coerce
/// to the same number ("7", "07", " 7"), so no finite key set is complete
/// and the caller must fall back to a scanning plan. Strings, URLs,
/// files, booleans, and nodes have complete finite sets.
fn coercion_candidates(v: &Value) -> Option<Vec<Value>> {
    use strudel_graph::FileKind;
    Some(match v {
        Value::Node(_) => vec![v.clone()], // nodes coerce only with equal nodes
        Value::Int(_) | Value::Float(_) => return None,
        Value::Bool(b) => vec![
            v.clone(),
            Value::string(if *b { "true" } else { "false" }),
        ],
        Value::File(f) => vec![v.clone(), Value::string(f.path.clone())],
        Value::Str(s) | Value::Url(s) => {
            let mut out = vec![Value::string(s.clone()), Value::url(s.clone())];
            if matches!(v, Value::Str(_)) {
                for kind in [
                    FileKind::Text,
                    FileKind::Image,
                    FileKind::PostScript,
                    FileKind::Html,
                ] {
                    out.push(Value::file(kind, s.clone()));
                }
                match s.as_ref() {
                    "true" => out.push(Value::Bool(true)),
                    "false" => out.push(Value::Bool(false)),
                    _ => {}
                }
            }
            let t = s.trim();
            if let Ok(i) = t.parse::<i64>() {
                out.push(Value::Int(i));
                out.push(Value::Float(i as f64));
            } else if let Ok(f) = t.parse::<f64>() {
                out.push(Value::Float(f));
                if f.fract() == 0.0 && f.abs() < 9e15 {
                    out.push(Value::Int(f as i64));
                }
            }
            out
        }
    })
}

/// The coercion-candidate key set for a destination position, computed
/// once per condition application when the position is a constant (the
/// common case for schema guards) instead of once per row.
#[derive(Debug)]
pub(crate) struct DstCandidates {
    /// `Some(cands)` when the destination is `Pos::Const`; `None` means
    /// "compute from the row's bound value".
    hoisted: Option<Option<Vec<Value>>>,
}

impl DstCandidates {
    fn new(dpos: &Pos) -> Self {
        DstCandidates {
            hoisted: match dpos {
                Pos::Const(v) => Some(coercion_candidates(v)),
                Pos::Slot(_) => None,
            },
        }
    }

    /// Candidate keys for the destination value `dv` of the current row.
    fn get<'a>(&'a self, dv: &Value, scratch: &'a mut Option<Vec<Value>>) -> Option<&'a [Value]> {
        match &self.hoisted {
            Some(c) => c.as_deref(),
            None => {
                *scratch = coercion_candidates(dv);
                scratch.as_deref()
            }
        }
    }
}

/// In-edges of `target`, in ascending source-oid order (stable, so each
/// source's edges keep their insertion order). This is exactly the order
/// in which a forward full scan (`for o in node_oids { for e in edges(o) }`)
/// visits the edges targeting `target`, which keeps the reverse-adjacency
/// probes byte-identical to the scans they replace.
fn sorted_edges_in(graph: &Graph, target: Oid) -> Vec<InEdge> {
    let mut ins = graph.edges_in(target).to_vec();
    ins.sort_by_key(|ie| ie.from.index());
    ins
}

/// `src -> R -> dst` where `R` crosses one edge: the hot atom. A bound
/// node source reads its own out-edges. An unbound source takes the first
/// of three probes that answers:
///
/// 1. the index the label has for a bound destination — `sources` for a
///    named label, the value index for any label and an atomic
///    destination — probed with every coercion-equal key, since the
///    indexes are exact-match but unification coerces (a numeric
///    destination has no finite key set and is not answered here);
/// 2. the reverse adjacency of a bound node destination, in ascending
///    source-oid order, so its rows are byte-identical to the scan's;
/// 3. a scan: the label's extension when the database keeps one,
///    otherwise every edge of every node.
fn apply_edge(
    ev: &Evaluator<'_>,
    rows: Vec<Row>,
    spos: &Pos,
    label: EdgeLabel<Option<Label>, usize>,
    dpos: &Pos,
    cands: &DstCandidates,
) -> Vec<Row> {
    let db = ev.db();
    let graph = db.graph();
    let named = match label {
        EdgeLabel::Is(None) => return Vec::new(),
        EdgeLabel::Is(Some(l)) => Some(l),
        EdgeLabel::Any | EdgeLabel::Binds(_) => None,
    };
    let admits = |l: Label| named.map_or(true, |n| n == l);
    // An arc variable binds the crossed edge's label name, or must agree
    // with it.
    let binds = |r: &mut Row, l: Label| match label {
        EdgeLabel::Binds(slot) => Pos::Slot(slot).unify(r, &Value::string(graph.label_name(l))),
        EdgeLabel::Is(_) | EdgeLabel::Any => true,
    };
    let mut fwd_probes: u64 = 0;
    let mut rev_probes: u64 = 0;
    let reuse = rows.len() == 1;
    let mut out = Vec::new();
    for row in rows {
        let dv = match spos.value(&row) {
            Some(Value::Node(o)) => {
                let o = *o;
                fwd_probes += 1;
                let edges = graph.edges(o).iter().filter(|e| admits(e.label));
                fan_out(row, reuse, edges, &mut out, |r, e| {
                    binds(r, e.label) && dpos.unify(r, &e.to)
                });
                continue;
            }
            Some(_) => continue, // atomic source: no out-edges
            None => dpos.value(&row),
        };
        // The edge `from -l-> to`, on a clone of the row.
        let mut push = |from: Oid, l: Label, to: &Value| {
            let mut r = row.clone();
            if binds(&mut r, l) && spos.unify(&mut r, &Value::Node(from)) && dpos.unify(&mut r, to)
            {
                out.push(r);
            }
        };
        let mut scratch = None;
        let keys = dv
            .filter(|dv| named.is_some() || dv.is_atomic())
            .and_then(|dv| Some((dv, cands.get(dv, &mut scratch)?)));
        // Whether the database keeps the index is in its answer to any
        // key, so the first key's `None` ends the probe before it pushed
        // a row.
        let indexed = keys.is_some_and(|(dv, keys)| {
            keys.iter().all(|key| match named {
                Some(l) => db
                    .sources(l, key)
                    .map(|sources| sources.iter().for_each(|&o| push(o, l, dv)))
                    .is_some(),
                None => db
                    .value_locations(key)
                    .map(|locs| locs.iter().for_each(|&(o, l)| push(o, l, dv)))
                    .is_some(),
            })
        });
        if indexed {
            continue;
        }
        if let Some(dv @ Value::Node(t)) = dv {
            rev_probes += 1;
            for ie in sorted_edges_in(graph, *t) {
                if admits(ie.label) {
                    push(ie.from, ie.label, dv);
                }
            }
        } else {
            fwd_probes += 1;
            match named.and_then(|l| db.extension(l).map(|ext| (l, ext))) {
                Some((l, ext)) => ext.iter().for_each(|(o, v)| push(*o, l, v)),
                None => {
                    for o in graph.node_oids() {
                        for e in graph.edges(o).iter().filter(|e| admits(e.label)) {
                            push(o, e.label, &e.to);
                        }
                    }
                }
            }
        }
    }
    if strudel_trace::enabled() {
        strudel_trace::count("struql.probe.fwd", fwd_probes);
        strudel_trace::count("struql.probe.rev", rev_probes);
    }
    out
}

/// The batched evaluation context for one general-regex path condition.
///
/// [`RegexBatch::prepare`] inspects the whole relation, collects the
/// distinct probe values per case (bound source, bound destination, both,
/// neither), computes each probe's answer exactly once into read-only
/// memo tables, and records for every row the entry it reads.
/// [`apply_regex`] then fans each row's entry back out.
///
/// Determinism rules:
/// - memo values are pure functions of the probe value, so build order
///   cannot change any row's result;
/// - a bound-destination fan-out emits sources in ascending-oid order —
///   exactly the forward full scan's order;
/// - a both-bound condition is a pure filter (no slot is written), so
///   probing the destination side instead of the source side changes keep
///   decisions for no row.
struct RegexBatch {
    /// Per input row, in order, the memo entry it reads.
    probes: Vec<Probe>,
    /// Whether the regex matches the empty path.
    nullable: bool,
    /// Forward reachable values per distinct source, in BFS emit order.
    fwd: Vec<Vec<Value>>,
    /// The nodes among `fwd[i]`, for the entries a row with a bound node
    /// destination reads.
    fwd_nodes: Vec<Option<HashSet<Oid>>>,
    /// Sources reaching each distinct node destination, ascending oid order.
    rev_fan: Vec<Vec<Oid>>,
    /// The full reverse-reachable value set of each distinct destination.
    rev_check: Vec<HashSet<Value>>,
    /// Forward reachable values per node, for rows with no bound end.
    scan: Vec<(Oid, Vec<Value>)>,
}

/// What one row of a regex step reads. [`RegexBatch::prepare`] gives
/// every row one, and every index it hands out names an entry it built,
/// so a row's lookup cannot miss.
#[derive(Clone, Copy)]
enum Probe {
    /// Bound source, fanned out over `fwd[i]`; with a bound node
    /// destination, kept if it is in `fwd_nodes[i]`.
    Fwd(usize),
    /// Both ends bound: the row survives if its source is in
    /// `rev_check[i]`, its destination's reverse-reachable set.
    Check(usize),
    /// Bound node destination, unbound source: fanned out over
    /// `rev_fan[i]`.
    Fan(usize),
    /// No usable bound end: fanned out over `scan`.
    Scan,
}

/// Distinct probe values, numbered in first-appearance order.
#[derive(Default)]
struct Distinct {
    ids: HashMap<Value, usize>,
    values: Vec<Value>,
}

impl Distinct {
    fn id(&mut self, v: &Value) -> usize {
        if let Some(&id) = self.ids.get(v) {
            return id;
        }
        self.ids.insert(v.clone(), self.values.len());
        self.values.push(v.clone());
        self.values.len() - 1
    }
}

impl RegexBatch {
    /// `rev` yields the step's reversed NFA; it is called only when some
    /// row probes a bound destination.
    fn prepare<'n>(
        graph: &Graph,
        fwd: &Nfa,
        rev: impl Fn() -> &'n Nfa,
        rows: &[Row],
        spos: &Pos,
        dpos: &Pos,
    ) -> RegexBatch {
        let mut fwd_keys = Distinct::default();
        let mut both_srcs = Distinct::default();
        let mut both_dsts = Distinct::default();
        let mut fan_keys = Distinct::default();
        // Per both-bound row, in order, its source's id in `both_srcs`.
        let mut both_rows: Vec<usize> = Vec::new();
        let mut need_scan = false;
        let mut probes: Vec<Probe> = rows
            .iter()
            .map(|row| match (spos.value(row), dpos.value(row)) {
                (Some(s), Some(d)) => {
                    both_rows.push(both_srcs.id(s));
                    Probe::Check(both_dsts.id(d))
                }
                (Some(s), None) => Probe::Fwd(fwd_keys.id(s)),
                (None, Some(d @ Value::Node(_))) => Probe::Fan(fan_keys.id(d)),
                (None, _) => {
                    need_scan = true;
                    Probe::Scan
                }
            })
            .collect();

        // Direction choice for both-bound rows: probe the side with fewer
        // distinct values. The condition is a pure filter there, so the
        // direction cannot change output bytes — only traversal work.
        let use_rev_check =
            !both_dsts.values.is_empty() && both_dsts.values.len() < both_srcs.values.len();
        if !use_rev_check {
            let to_fwd: Vec<usize> = both_srcs.values.iter().map(|s| fwd_keys.id(s)).collect();
            let mut both_rows = both_rows.into_iter();
            for probe in &mut probes {
                if let Probe::Check(_) = probe {
                    *probe = Probe::Fwd(to_fwd[both_rows.next().expect("one per both-bound row")]);
                }
            }
        }

        let reached: Vec<Vec<Value>> = (fwd_keys.values.iter())
            .map(|v| fwd.eval_from(graph, v))
            .collect();
        let mut fwd_nodes = vec![None; reached.len()];
        for (probe, row) in probes.iter().zip(rows) {
            if let (Probe::Fwd(i), Some(Value::Node(_))) = (probe, dpos.value(row)) {
                fwd_nodes[*i]
                    .get_or_insert_with(|| reached[*i].iter().filter_map(Value::as_node).collect());
            }
        }
        let batch = RegexBatch {
            probes,
            nullable: fwd.matches_empty(),
            fwd: reached,
            fwd_nodes,
            rev_fan: fan_keys
                .values
                .iter()
                .map(|d| rev_fan_sources(graph, rev(), d))
                .collect(),
            rev_check: if use_rev_check {
                both_dsts
                    .values
                    .iter()
                    .map(|d| {
                        let seeds = if d.is_atomic() {
                            atomic_target_seeds(graph, d)
                        } else {
                            Vec::new()
                        };
                        rev().eval_from_reverse(graph, d, &seeds).into_iter().collect()
                    })
                    .collect()
            } else {
                Vec::new()
            },
            scan: if need_scan {
                graph
                    .node_oids()
                    .map(|o| (o, fwd.eval_from(graph, &Value::Node(o))))
                    .collect()
            } else {
                Vec::new()
            },
        };
        if strudel_trace::enabled() {
            let fwd_built = (batch.fwd.len() + batch.scan.len()) as u64;
            let rev_built = (batch.rev_fan.len() + batch.rev_check.len()) as u64;
            strudel_trace::count("struql.memo.misses", fwd_built + rev_built);
            strudel_trace::count("struql.probe.fwd", fwd_built);
            strudel_trace::count("struql.probe.rev", rev_built);
        }
        batch
    }
}

/// Sources with a path matching the (forward) regex ending at node value
/// `dv`, in ascending oid order — the forward full scan's emit order.
fn rev_fan_sources(graph: &Graph, rev: &Nfa, dv: &Value) -> Vec<Oid> {
    let mut oids: Vec<Oid> = rev
        .eval_from_reverse(graph, dv, &[])
        .iter()
        .filter_map(Value::as_node)
        .collect();
    oids.sort_unstable_by_key(|o| o.index());
    oids
}

/// `(source, label)` pairs of edges whose atomic target coerces equal to
/// `dv` — the seeds a reverse NFA walk starts from when the destination
/// has no incoming-edge index entry. A deterministic edge scan, complete
/// for every value kind (including numerics, which have no finite
/// coercion key set).
fn atomic_target_seeds(graph: &Graph, dv: &Value) -> Vec<(Oid, Label)> {
    let mut seeds = Vec::new();
    for o in graph.node_oids() {
        for e in graph.edges(o) {
            if !matches!(e.to, Value::Node(_)) && coerce::eq(dv, &e.to) {
                seeds.push((o, e.label));
            }
        }
    }
    seeds
}

/// A general regular path expression, evaluated through a [`RegexBatch`]
/// prepared for exactly these rows.
fn apply_regex(rows: Vec<Row>, spos: &Pos, dpos: &Pos, memo: &RegexBatch) -> Vec<Row> {
    let mut hits: u64 = 0;
    let reuse = rows.len() == 1;
    let mut out = Vec::new();
    for (row, &probe) in rows.into_iter().zip(&memo.probes) {
        match probe {
            Probe::Fwd(i) => {
                hits += 1;
                // A node destination coerces equal only to itself, and
                // `fwd[i]` holds each value once: the fan-out would emit
                // the row once if its destination was reached.
                match dpos.value(&row) {
                    Some(Value::Node(o)) => {
                        if memo.fwd_nodes[i].as_ref().is_some_and(|n| n.contains(o)) {
                            out.push(row);
                        }
                    }
                    _ => fan_out(row, reuse, memo.fwd[i].iter(), &mut out, |r, v| {
                        dpos.unify(r, v)
                    }),
                }
            }
            Probe::Check(i) => {
                // Pure filter: does a matching path lead from the bound
                // source to the bound destination? Checked against the
                // destination's reverse-reachable set.
                let survives = match (spos.value(&row), dpos.value(&row)) {
                    (Some(start @ Value::Node(_)), _) => {
                        hits += 1;
                        memo.rev_check[i].contains(start)
                    }
                    // An atomic source can only satisfy a zero-length
                    // path, and only onto itself.
                    (Some(start), Some(dv)) => memo.nullable && coerce::eq(dv, start),
                    _ => unreachable!("a checked row has both ends bound"),
                };
                if survives {
                    out.push(row);
                }
            }
            Probe::Fan(i) => {
                // Bound node destination: reverse probe, fanned out in
                // ascending source-oid order (the forward scan order).
                hits += 1;
                fan_out(row, reuse, memo.rev_fan[i].iter(), &mut out, |r, &o| {
                    spos.unify(r, &Value::Node(o))
                });
            }
            Probe::Scan => {
                // No usable bound end: traverse from every node, once per
                // batch. The planner prices this pessimistically, so it
                // only runs when unavoidable.
                hits += 1;
                for (o, vs) in &memo.scan {
                    for v in vs {
                        let mut r = row.clone();
                        if spos.unify(&mut r, &Value::Node(*o)) && dpos.unify(&mut r, v) {
                            out.push(r);
                        }
                    }
                }
            }
        }
    }
    if strudel_trace::enabled() {
        strudel_trace::count("struql.memo.hits", hits);
    }
    out
}
