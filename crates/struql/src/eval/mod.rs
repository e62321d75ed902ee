//! STRUQL program evaluation.
//!
//! Evaluation follows the two-stage active-domain semantics of §2.2:
//!
//! 1. **Query stage** — each block's `where` clause is evaluated against
//!    the *input* graph into a bindings relation: one row per assignment of
//!    variables to oids/labels/values satisfying every condition. Nested
//!    blocks conjoin with the enclosing clause — their relations extend the
//!    parent rows.
//! 2. **Construction stage** — for each row, `create` mints Skolem nodes
//!    (same arguments ⇒ same node, via [`SkolemTable`]), `link` adds edges
//!    (with set semantics — the relation is a set of assignments), and
//!    `collect` populates output collections.
//!
//! The output graph starts as a clone of the input graph, so data-graph
//! leaves referenced by `link` targets (titles, abstracts, embedded data
//! nodes) are present in the site graph — "the site graph represents both
//! the site's content and structure". Created nodes are tracked in
//! [`EvalResult::new_nodes`]; only they may be link sources (existing nodes
//! are immutable).

mod atoms;
pub mod diff;

use crate::ast::{Block, LabelTerm, Program, Term};
use crate::error::{StruqlError, StruqlResult};
use crate::plan;
use std::collections::HashSet;
use std::time::Instant;
use strudel_graph::hash::{FastMap, FastSet};
use strudel_graph::{CollectionId, Graph, Label, Oid, SkolemSymbol, SkolemTable, Value};
use strudel_repo::Database;

/// Evaluation options.
#[derive(Clone, Copy, Debug)]
pub struct EvalOptions {
    /// Use cost-based condition ordering (default). `false` keeps the
    /// textual order — the join-ordering ablation baseline.
    pub optimize: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions { optimize: true }
    }
}

/// The result of evaluating a program.
#[derive(Debug)]
pub struct EvalResult {
    /// The output graph: the input graph plus everything the program
    /// constructed.
    pub graph: Graph,
    /// Oids of nodes the program created, in creation order. These are the
    /// "site nodes" when the program is a site-definition query.
    pub new_nodes: Vec<Oid>,
    /// The Skolem table, for addressing created nodes by term (used by
    /// composed query pipelines and by the HTML generator).
    pub skolem: SkolemTable,
    /// Total rows produced across all where-stage expansions —
    /// instrumentation for the optimizer ablation.
    pub rows_evaluated: usize,
}

impl EvalResult {
    /// Looks up the node a Skolem application produced, e.g.
    /// `result.skolem_node("YearPage", &[Value::Int(1998)])`.
    pub fn skolem_node(&self, symbol: &str, args: &[Value]) -> Option<Oid> {
        self.skolem.lookup(symbol, args)
    }
}

/// Evaluates STRUQL programs against a database.
#[derive(Debug)]
pub struct Evaluator<'db> {
    db: &'db Database,
    opts: EvalOptions,
}

/// One bindings row: a slot per variable in scope, `None` until bound.
pub(crate) type Row = Vec<Option<Value>>;

/// Mutable evaluation context threaded through blocks.
#[derive(Debug)]
struct Ctx {
    out: Graph,
    skolem: SkolemTable,
    new_nodes: Vec<Oid>,
    /// `new_nodes` as a membership test, indexed by oid: only created
    /// nodes may be link sources, and every link asks.
    created: Vec<bool>,
    rows_evaluated: usize,
    /// Evaluated Skolem arguments, innermost application on top.
    args: Vec<Value>,
    /// The out-edges of every created node that has reached
    /// [`HUB_DEGREE`], as a set: `link`'s duplicate test for a hub page is
    /// one hash instead of a scan of the page's links. A node's set is
    /// filled from the graph when the node first qualifies and is told of
    /// every edge added after that, so it always answers as
    /// [`Graph::has_edge`] would. It belongs to this context, which owns
    /// `out` for as long as it lives.
    hubs: FastMap<Oid, FastSet<(Label, Value)>>,
}

/// Out-degree from which a link source's edges are kept as a set. Below
/// it the scan touches a cache line or two and hashes nothing.
const HUB_DEGREE: usize = 32;

impl Ctx {
    /// A context over `out` with nothing constructed yet.
    fn new(out: Graph) -> Self {
        Ctx {
            created: vec![false; out.node_count()],
            out,
            skolem: SkolemTable::new(),
            new_nodes: Vec::new(),
            rows_evaluated: 0,
            args: Vec::new(),
            hubs: FastMap::default(),
        }
    }

    fn finish(self) -> EvalResult {
        EvalResult {
            graph: self.out,
            new_nodes: self.new_nodes,
            skolem: self.skolem,
            rows_evaluated: self.rows_evaluated,
        }
    }

    /// Adds the edge unless it is already there: the bindings relation is
    /// a set of assignments, so identical links from different
    /// derivations collapse.
    fn link(&mut self, src: Oid, label: Label, dst: Value) {
        let edges = self.out.edges(src);
        let absent = if edges.len() < HUB_DEGREE {
            !self.out.has_edge(src, label, &dst)
        } else {
            self.hubs
                .entry(src)
                .or_insert_with(|| edges.iter().map(|e| (e.label, e.to.clone())).collect())
                .insert((label, dst.clone()))
        };
        if absent {
            self.out.add_edge(src, label, dst);
        }
    }
}

impl<'db> Evaluator<'db> {
    /// An evaluator with default options.
    pub fn new(db: &'db Database) -> Self {
        Evaluator {
            db,
            opts: EvalOptions::default(),
        }
    }

    /// An evaluator with explicit options.
    pub fn with_options(db: &'db Database, opts: EvalOptions) -> Self {
        Evaluator { db, opts }
    }

    /// Evaluates a checked program. Blocks run in order, sharing one
    /// Skolem table and one output graph.
    pub fn eval(&self, program: &Program) -> StruqlResult<EvalResult> {
        crate::analyze::check(program)?;
        let mut ctx = Ctx::new(self.db.graph().clone());
        for block in &program.blocks {
            self.eval_block(block, &[], &[Vec::new()], &mut ctx)?;
        }
        Ok(ctx.finish())
    }

    /// Evaluates one block: run its where stage over the incoming rows,
    /// whose slots are the enclosing blocks' variables `outer`, construct,
    /// then recurse into nested blocks.
    fn eval_block(
        &self,
        block: &Block,
        outer: &[String],
        in_rows: &[Row],
        ctx: &mut Ctx,
    ) -> StruqlResult<()> {
        let prepared = self.prepare_where(&block.where_, outer);
        let width = prepared.vars.len();

        // Each seed row is copied once, at the block's width: a clone
        // resized afterwards would reallocate, and a step that extends a
        // row in place would carry the slack to the end of the block.
        let rows: Vec<Row> = in_rows
            .iter()
            .map(|r| {
                let mut row = Vec::with_capacity(width);
                row.extend_from_slice(r);
                row.resize(width, None);
                row
            })
            .collect();
        let rows = prepared.run(self, rows, &mut ctx.rows_evaluated)?;

        if !rows.is_empty() {
            let vars = &prepared.vars;
            let mut construction = Construction::compile(block, vars, &mut ctx.skolem);
            for row in &rows {
                construct_into(&mut construction, row, ctx)?;
            }
            for nested in &block.nested {
                self.eval_block(nested, vars, &rows, ctx)?;
            }
        }
        Ok(())
    }

    pub(crate) fn db(&self) -> &Database {
        self.db
    }
}

/// A block's `create`/`link`/`collect` resolved once against a variable
/// layout, so that a row costs slot reads instead of name lookups:
/// variables are slots, Skolem symbols are interned in the Skolem table,
/// constant labels and collections are ids. The ids are filled in by the
/// first row that reaches them, not at compile time — interning order is
/// creation order in the output graph, and that must not depend on how
/// the construction stage is executed.
struct Construction<'b> {
    create: Vec<CTerm<'b>>,
    link: Vec<CLink<'b>>,
    collect: Vec<CCollect<'b>>,
    memos: Memos,
}

/// What each distinct Skolem term of a block last evaluated to. A term
/// written several times in a block is applied once per row, and a row
/// whose arguments equal the previous application's reuses its oid
/// without hashing them. Both are sound because a construction lives for
/// one block evaluation or one `apply_block` call, during which the
/// Skolem table forgets nothing; and neither moves a mint, because a
/// term's first evaluation in a row still happens where it always did
/// and a later one could only have found the node already there.
struct Memos {
    /// The row being constructed, counting from 1.
    row: usize,
    slots: Vec<Memo>,
}

#[derive(Default)]
struct Memo {
    /// The row `oid` was last produced for.
    row: usize,
    /// The arguments `oid` was applied to.
    args: Vec<Value>,
    /// `None` until the term is first applied.
    oid: Option<Oid>,
}

/// A variable's slot, or `None` when the layout has no such variable
/// (reported by the first row that uses it, as an unresolved name was).
struct Slot<'b> {
    name: &'b str,
    slot: Option<usize>,
}

enum CTerm<'b> {
    Var(Slot<'b>),
    Const(&'b Value),
    Skolem {
        symbol: SkolemSymbol,
        args: Vec<CTerm<'b>>,
        /// This term's slot in [`Memos::slots`], shared by every equal
        /// term of the block.
        memo: usize,
    },
}

enum CLabel<'b> {
    Const { name: &'b str, label: Option<Label> },
    Var(Slot<'b>),
}

struct CLink<'b> {
    src: CTerm<'b>,
    label: CLabel<'b>,
    dst: CTerm<'b>,
}

struct CCollect<'b> {
    collection: &'b str,
    cid: Option<CollectionId>,
    arg: CTerm<'b>,
}

impl<'b> Construction<'b> {
    fn compile(block: &'b Block, vars: &[String], skolem: &mut SkolemTable) -> Self {
        let slot = |name: &'b str| Slot {
            name,
            slot: var_slot(name, vars),
        };
        // Equal Skolem terms share a memo slot: their index in `distinct`.
        fn term<'b>(
            t: &'b Term,
            slot: &impl Fn(&'b str) -> Slot<'b>,
            skolem: &mut SkolemTable,
            distinct: &mut Vec<&'b Term>,
        ) -> CTerm<'b> {
            match t {
                Term::Var(v) => CTerm::Var(slot(v)),
                Term::Const(v) => CTerm::Const(v),
                Term::Skolem { symbol, args } => CTerm::Skolem {
                    symbol: skolem.symbol(symbol),
                    args: args
                        .iter()
                        .map(|a| term(a, slot, skolem, distinct))
                        .collect(),
                    memo: distinct.iter().position(|d| *d == t).unwrap_or_else(|| {
                        distinct.push(t);
                        distinct.len() - 1
                    }),
                },
            }
        }
        let mut distinct = Vec::new();
        Construction {
            create: block
                .create
                .iter()
                .map(|t| term(t, &slot, skolem, &mut distinct))
                .collect(),
            link: block
                .link
                .iter()
                .map(|l| CLink {
                    src: term(&l.src, &slot, skolem, &mut distinct),
                    label: match &l.label {
                        LabelTerm::Const(name) => CLabel::Const { name, label: None },
                        LabelTerm::Var(v) => CLabel::Var(slot(v)),
                    },
                    dst: term(&l.dst, &slot, skolem, &mut distinct),
                })
                .collect(),
            collect: block
                .collect
                .iter()
                .map(|c| CCollect {
                    collection: &c.collection,
                    cid: None,
                    arg: term(&c.arg, &slot, skolem, &mut distinct),
                })
                .collect(),
            memos: Memos {
                row: 0,
                slots: distinct.iter().map(|_| Memo::default()).collect(),
            },
        }
    }
}

/// Applies a compiled construction stage for one row.
fn construct_into(block: &mut Construction<'_>, row: &Row, ctx: &mut Ctx) -> StruqlResult<()> {
    // A row that failed part-way may have left arguments behind.
    ctx.args.clear();
    let Construction {
        create,
        link,
        collect,
        memos,
    } = block;
    memos.row += 1;
    for t in create.iter() {
        eval_term_into(t, row, ctx, memos)?;
    }
    for l in link.iter_mut() {
        let src = eval_term_into(&l.src, row, ctx, memos)?;
        let Some(src_oid) = src.as_node() else {
            return Err(StruqlError::eval("link source is not a node"));
        };
        if !ctx.created.get(src_oid.index()).is_some_and(|&c| c) {
            return Err(StruqlError::eval(format!(
                "link source {src_oid} is an existing node; existing nodes are immutable"
            )));
        }
        // A variable label is checked before the target is evaluated and
        // interned after it.
        let label_name = match &l.label {
            CLabel::Const { .. } => None,
            CLabel::Var(v) => match read_slot(v, row)? {
                Value::Str(s) => Some(s),
                other => {
                    return Err(StruqlError::eval(format!(
                        "arc variable '{}' is bound to {other}, not a label",
                        v.name
                    )))
                }
            },
        };
        let dst = eval_term_into(&l.dst, row, ctx, memos)?;
        let label = match (&mut l.label, label_name) {
            (CLabel::Const { name, label }, _) => {
                *label.get_or_insert_with(|| ctx.out.intern_label(name))
            }
            (CLabel::Var(_), name) => ctx.out.intern_label(name.expect("read above")),
        };
        ctx.link(src_oid, label, dst);
    }
    for c in collect.iter_mut() {
        let member = eval_term_into(&c.arg, row, ctx, memos)?;
        let cid = *c
            .cid
            .get_or_insert_with(|| ctx.out.intern_collection(c.collection));
        ctx.out.collect(cid, member);
    }
    Ok(())
}

/// Evaluates a compiled construction term to a value.
fn eval_term_into(
    term: &CTerm<'_>,
    row: &Row,
    ctx: &mut Ctx,
    memos: &mut Memos,
) -> StruqlResult<Value> {
    match term {
        CTerm::Var(v) => read_slot(v, row).cloned(),
        CTerm::Const(v) => Ok((*v).clone()),
        CTerm::Skolem { symbol, args, memo } => {
            let m = &memos.slots[*memo];
            if let (Some(oid), true) = (m.oid, m.row == memos.row) {
                return Ok(Value::Node(oid));
            }
            let base = ctx.args.len();
            for a in args {
                let v = eval_term_into(a, row, ctx, memos)?;
                ctx.args.push(v);
            }
            let m = &mut memos.slots[*memo];
            let oid = match m.oid {
                Some(oid) if m.args == ctx.args[base..] => {
                    ctx.args.truncate(base);
                    oid
                }
                _ => {
                    let (oid, new) =
                        ctx.skolem
                            .apply_symbol(&mut ctx.out, *symbol, &ctx.args[base..]);
                    if new {
                        ctx.new_nodes.push(oid);
                        // Minted nodes are appended to the graph.
                        ctx.created.resize(oid.index(), false);
                        ctx.created.push(true);
                    }
                    m.args.clear();
                    m.args.extend(ctx.args.drain(base..));
                    m.oid = Some(oid);
                    oid
                }
            };
            m.row = memos.row;
            Ok(Value::Node(oid))
        }
    }
}

/// A condition list compiled for evaluation: the conditions planned
/// against the database's statistics and each one compiled into a step —
/// variable slots, label and collection ids, a constant destination's
/// coercion keys, the forward NFA (the reversed one is compiled by the
/// first run that needs it, and kept) — so a run does no name lookup and
/// clones no constant. Every where clause runs this way: a block of a
/// full evaluation, a seeded guard, an explained one. It is also the unit
/// the click-time compiled-query cache stores per schema edge: a request
/// executes the prepared plan instead of re-planning.
///
/// A `PreparedWhere` is valid only for the database snapshot it was
/// prepared against: its steps capture interned label and collection ids
/// and its plan captures statistics, both of which a delta can change.
/// Callers key caches by epoch for exactly this reason.
#[derive(Debug)]
pub struct PreparedWhere {
    vars: Vec<String>,
    /// How many leading slots the seeds fill.
    seeds: usize,
    plan: plan::Plan,
    /// The conditions, for trace events.
    conds: Vec<crate::ast::Condition>,
    /// Per condition, its step under its `not(…)` layer count, or the
    /// error applying it would raise.
    steps: Vec<StruqlResult<(usize, atoms::Step)>>,
}

impl PreparedWhere {
    /// Variable names in slot order (seed variables first) — the column
    /// names of the rows [`Evaluator::eval_where_prepared`] produces.
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// The where-stage loop: extends `rows`, laid out as [`Self::vars`],
    /// by each compiled step in plan order, reporting every step to
    /// `observer`, and stops at the first step that leaves no row.
    fn run(
        &self,
        ev: &Evaluator<'_>,
        mut rows: Vec<Row>,
        observer: &mut impl StepObserver,
    ) -> StruqlResult<Vec<Row>> {
        let tracing = strudel_trace::enabled();
        for (step, &idx) in self.plan.order.iter().enumerate() {
            let rows_in = rows.len();
            observer.begin();
            let span = strudel_trace::span("struql.step");
            rows = apply_step(&self.steps[idx], ev, rows)?;
            drop(span);
            observer.end(step, idx, rows_in, rows.len());
            if tracing {
                strudel_trace::count("struql.steps", 1);
                strudel_trace::count("struql.rows", rows.len() as u64);
                strudel_trace::event_with("struql.step", || {
                    format!(
                        "cond={} est={:.2} in={rows_in} out={}",
                        crate::pretty::pretty_condition(&self.conds[idx]),
                        self.plan.estimates[step],
                        rows.len()
                    )
                });
            }
            if rows.is_empty() {
                break;
            }
        }
        Ok(rows)
    }

    /// The run's first row: the seeds in their slots, every other slot
    /// unbound.
    fn seed_row<'v>(&self, seeds: impl IntoIterator<Item = &'v Value>) -> StruqlResult<Row> {
        let mismatch = || StruqlError::eval("prepared where was given another number of seeds");
        let mut row: Row = vec![None; self.vars.len()];
        let mut seeds = seeds.into_iter();
        for slot in &mut row[..self.seeds] {
            *slot = Some(seeds.next().ok_or_else(mismatch)?.clone());
        }
        if seeds.next().is_some() {
            return Err(mismatch());
        }
        Ok(row)
    }
}

/// Compiles each of `conds` for rows laid out as `vars` over `graph` —
/// a negated condition to its positive step and its `not(…)` layer
/// count — keeping a condition's compile error to raise when the step
/// runs.
pub(crate) fn compile_steps(
    graph: &Graph,
    conds: &[crate::ast::Condition],
    vars: &[String],
) -> Vec<StruqlResult<(usize, atoms::Step)>> {
    conds
        .iter()
        .map(|c| atoms::Step::compile(graph, c, vars))
        .collect()
}

/// Applies a compiled step, or raises the error compiling it raised. A
/// step under `not(…)` layers only filters: a row survives when whether
/// the step extends it matches whether the layer count is even.
pub(crate) fn apply_step(
    step: &StruqlResult<(usize, atoms::Step)>,
    ev: &Evaluator<'_>,
    rows: Vec<Row>,
) -> StruqlResult<Vec<Row>> {
    match step.as_ref().map_err(Clone::clone)? {
        (0, step) => step.apply(ev, rows),
        (layers, step) => {
            let even = layers % 2 == 0;
            atoms::retain_rows(rows, |row| Ok(step.keeps(ev, row)? == even))
        }
    }
}

/// Watches [`PreparedWhere::run`], one call pair per plan step.
trait StepObserver {
    /// A step is about to run.
    fn begin(&mut self) {}
    /// Plan step `step`, condition `cond` of the clause, turned `rows_in`
    /// rows into `rows_out`.
    fn end(&mut self, step: usize, cond: usize, rows_in: usize, rows_out: usize);
}

/// Watches nothing.
impl StepObserver for () {
    fn end(&mut self, _: usize, _: usize, _: usize, _: usize) {}
}

/// Counts every step's output rows: [`EvalResult::rows_evaluated`].
impl StepObserver for usize {
    fn end(&mut self, _: usize, _: usize, _: usize, rows_out: usize) {
        *self += rows_out;
    }
}

/// Times and counts each step for [`Evaluator::explain_where_bindings`] —
/// the one caller of the loop that reads the clock.
struct ExplainObserver<'p> {
    prepared: &'p PreparedWhere,
    report: crate::explain::ExplainReport,
    started: Instant,
}

impl StepObserver for ExplainObserver<'_> {
    fn begin(&mut self) {
        self.started = Instant::now();
    }

    fn end(&mut self, step: usize, cond: usize, rows_in: usize, rows_out: usize) {
        let elapsed_us = self.started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.report.steps.push(crate::explain::ExplainStep {
            source_index: cond,
            condition: crate::pretty::pretty_condition(&self.prepared.conds[cond]),
            estimate: self.prepared.plan.estimates[step],
            rows_in,
            rows_out,
            elapsed_us,
        });
        self.report.total_us += elapsed_us;
    }
}

/// The column layout of the rows a condition list evaluates to when
/// seeded with `seed_names`: the seeds first, then every other variable
/// in textual order. A function of the clause alone, so two evaluations
/// of one clause under different seedings differ by a slot permutation.
pub fn where_vars(conds: &[crate::ast::Condition], seed_names: &[String]) -> Vec<String> {
    let mut vars: Vec<String> = seed_names.to_vec();
    for cond in conds {
        atoms::introduce_vars(cond, &mut vars);
    }
    vars
}

impl<'db> Evaluator<'db> {
    /// Analyzes, plans and compiles a condition list for repeated
    /// evaluation with seeds named `seed_names` (values vary per call).
    pub fn prepare_where(
        &self,
        conds: &[crate::ast::Condition],
        seed_names: &[String],
    ) -> PreparedWhere {
        let vars = where_vars(conds, seed_names);
        let bound: HashSet<String> = seed_names.iter().cloned().collect();
        let plan = plan::plan(conds, &bound, self.db, self.opts.optimize);
        PreparedWhere {
            steps: compile_steps(self.db.graph(), conds, &vars),
            vars,
            seeds: seed_names.len(),
            plan,
            conds: conds.to_vec(),
        }
    }

    /// Runs a prepared condition list with concrete seed values, one per
    /// seed name [`Evaluator::prepare_where`] saw, in that order. The
    /// database must be the snapshot it was prepared against.
    pub fn eval_where_prepared<'v>(
        &self,
        prepared: &PreparedWhere,
        seeds: impl IntoIterator<Item = &'v Value>,
    ) -> StruqlResult<Vec<Row>> {
        prepared.run(self, vec![prepared.seed_row(seeds)?], &mut ())
    }

    /// Evaluates a bare condition list — the building block for dynamic
    /// (click-time) evaluation and its delta maintenance, where the schema
    /// crate runs fragments of a site-definition query with some variables
    /// pre-bound.
    ///
    /// `seed` pre-binds variables; the result is the list of variables in
    /// slot order (seeds first) and all satisfying rows. Conditions are
    /// planned with the same cost model as full evaluation. Equivalent to
    /// [`Evaluator::prepare_where`] + [`Evaluator::eval_where_prepared`];
    /// callers that re-run the same conditions should prepare once.
    pub fn eval_where_bindings(
        &self,
        conds: &[crate::ast::Condition],
        seed: &[(String, Value)],
    ) -> StruqlResult<(Vec<String>, Vec<Row>)> {
        let seed_names: Vec<String> = seed.iter().map(|(n, _)| n.clone()).collect();
        let prepared = self.prepare_where(conds, &seed_names);
        let rows = self.eval_where_prepared(&prepared, seed.iter().map(|(_, v)| v))?;
        Ok((prepared.vars, rows))
    }

    /// [`Evaluator::eval_where_bindings`] with the instrument panel on:
    /// every plan step is timed and counted regardless of the global
    /// tracing flag, and the result carries an [`ExplainReport`] pairing
    /// the planner's estimates with the measured actuals.
    ///
    /// [`ExplainReport`]: crate::explain::ExplainReport
    pub fn explain_where_bindings(
        &self,
        conds: &[crate::ast::Condition],
        seed: &[(String, Value)],
    ) -> StruqlResult<(Vec<String>, Vec<Row>, crate::explain::ExplainReport)> {
        let seed_names: Vec<String> = seed.iter().map(|(n, _)| n.clone()).collect();
        let prepared = self.prepare_where(conds, &seed_names);
        let row = prepared.seed_row(seed.iter().map(|(_, v)| v))?;
        let mut observer = ExplainObserver {
            prepared: &prepared,
            report: crate::explain::ExplainReport {
                optimized: self.opts.optimize,
                ..Default::default()
            },
            started: Instant::now(),
        };
        let rows = prepared.run(self, vec![row], &mut observer)?;
        let mut report = observer.report;
        report.total_rows = rows.len();
        Ok((prepared.vars, rows, report))
    }
}

fn read_slot<'r>(var: &Slot<'_>, row: &'r Row) -> StruqlResult<&'r Value> {
    let name = var.name;
    let slot = var
        .slot
        .ok_or_else(|| StruqlError::eval(format!("variable '{name}' has no slot")))?;
    row.get(slot)
        .and_then(Option::as_ref)
        .ok_or_else(|| StruqlError::eval(format!("variable '{name}' is unbound at use")))
}

pub(crate) fn var_slot(name: &str, vars: &[String]) -> Option<usize> {
    vars.iter().position(|v| v == name)
}

#[cfg(test)]
mod tests;
