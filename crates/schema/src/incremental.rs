//! Incremental maintenance of a materialized site graph.
//!
//! The paper lists "computing incremental updates of site graphs" as an
//! open problem with "broader implications in the field of semistructured
//! data" (§7/§8). This module is a thin projection of the repository's one
//! delta mechanism: for each block of the site-definition query (with its
//! enclosing where clauses conjoined — the same flattening that yields
//! site-schema guards), [`delta_rows`] returns the exact signed bindings
//! rows the delta adds to or retracts from the block's relation, for every
//! condition kind — `not(…)` and Kleene closures included.
//!
//! * **Added rows** are pushed through the block's construction stage via
//!   a [`Constructor`] that *resumes* the original evaluation's Skolem
//!   table, so new links attach to existing site nodes and repeated
//!   derivations collapse (construction is idempotent: Skolem memoization
//!   + set semantics).
//! * **Retracted rows** name the link and collect instances that lost a
//!   derivation. Several rows, of several blocks, may derive the same
//!   link, so each such candidate is probed for a surviving derivation on
//!   the post-delta database: it is unified against every link/collect
//!   expression that could produce it (inverting Skolem terms through the
//!   memo table) and the guard is evaluated with those seeds. Only
//!   candidates with no surviving derivation are removed.
//!
//! Site nodes are never deleted — graphs only grow nodes, and a page
//! object whose every derivation is gone lingers unreferenced, exactly
//! like an orphaned oid in the paper's repository: it carries no edge and
//! no membership, so no page of the site can reach it. The maintained
//! graph therefore equals a fresh evaluation *plus* such unreferenced
//! nodes; [`equivalent_modulo_orphans`] is that contract as an oracle.

use std::collections::{HashMap, HashSet};
use strudel_graph::{
    coerce, graphs_equivalent, DeltaOp, Graph, GraphDelta, Oid, SkolemTable, Value,
};
use strudel_repo::{Database, IndexLevel};
use strudel_struql::{
    delta_rows, Block, Condition, Constructor, DiffOutcome, EvalResult, Evaluator, LabelTerm,
    LinkExpr, Program, StruqlError, StruqlResult, Term,
};

/// The result of an incremental update.
#[derive(Debug)]
pub struct IncrementalOutcome {
    /// The updated evaluation result (site graph, Skolem table, …).
    pub result: EvalResult,
    /// Signed bindings rows propagated plus surviving-derivation probes
    /// run.
    pub rows_recomputed: usize,
}

/// Applies `delta` (in data-graph space) to a previously evaluated site.
///
/// `old_db` must be the database the original evaluation ran against and
/// `old_result` its result. Returns the updated result plus work counters.
pub fn incremental_update(
    program: &Program,
    old_db: &Database,
    delta: &GraphDelta,
    old_result: EvalResult,
) -> StruqlResult<IncrementalOutcome> {
    let mut new_input = old_db.graph().clone();
    let created_db = delta.apply(&mut new_input).map_err(|e| StruqlError::Eval {
        message: format!("delta failed on data graph: {e}"),
    })?;
    let new_db = Database::from_graph(new_input, IndexLevel::Full);
    let old_ev = Evaluator::new(old_db);
    let new_ev = Evaluator::new(&new_db);

    let chains = flatten(program);
    let diffs: Vec<DiffOutcome> = chains
        .iter()
        .map(|chain| delta_rows(&old_ev, &new_ev, &chain.conds, delta))
        .collect::<StruqlResult<_>>()?;
    let mut rows_recomputed: usize = diffs.iter().map(|d| d.rows.len()).sum();

    // The link and collect instances that lost a derivation. Retracted
    // rows bind pre-delta oids only, so the old Skolem table (in
    // lookup-only mode) resolves their terms.
    let mut link_candidates: HashSet<(Oid, String, Value)> = HashSet::new();
    let mut collect_candidates: HashSet<(String, Value)> = HashSet::new();
    for (chain, d) in chains.iter().zip(&diffs) {
        for (row, _) in d.rows.iter().filter(|(_, n)| *n < 0) {
            for l in &chain.block.link {
                link_candidates.extend(link_instance(l, &d.vars, row, &old_result.skolem));
            }
            for ce in &chain.block.collect {
                if let Some(member) = term_instance(&ce.arg, &d.vars, row, &old_result.skolem) {
                    collect_candidates.insert((ce.collection.clone(), member));
                }
            }
        }
    }

    // Apply the same delta to the site graph (it contains the data graph).
    // Ops referencing nodes the delta itself creates carry *data-graph*
    // oids; the site graph has extra site nodes, so the same index denotes
    // a different node there. AddNode assigns oids in node-count order, so
    // the site-graph counterparts are predictable: build the
    // correspondence up front and rewrite every op through it before
    // applying (a verbatim apply would attach such edges to whatever site
    // node happens to own the data-graph index).
    let mut out_graph = old_result.graph;
    let base = out_graph.node_count();
    let oid_map: HashMap<Oid, Oid> = created_db
        .iter()
        .copied()
        .enumerate()
        .map(|(i, data_oid)| (data_oid, Oid::from_index(base + i)))
        .collect();
    let remap = |o: &Oid| *oid_map.get(o).unwrap_or(o);
    let remap_value = |v: &Value| match v {
        Value::Node(o) => Value::Node(remap(o)),
        other => other.clone(),
    };
    let mut site_delta = GraphDelta::new();
    for op in delta.ops() {
        site_delta.push(match op {
            DeltaOp::AddNode { .. } => op.clone(),
            DeltaOp::AddEdge { from, label, to } => DeltaOp::AddEdge {
                from: remap(from),
                label: label.clone(),
                to: remap_value(to),
            },
            DeltaOp::RemoveEdge { from, label, to } => DeltaOp::RemoveEdge {
                from: remap(from),
                label: label.clone(),
                to: remap_value(to),
            },
            DeltaOp::Collect { collection, member } => DeltaOp::Collect {
                collection: collection.clone(),
                member: remap_value(member),
            },
            DeltaOp::Uncollect { collection, member } => DeltaOp::Uncollect {
                collection: collection.clone(),
                member: remap_value(member),
            },
        });
    }
    let created_out = site_delta
        .apply(&mut out_graph)
        .map_err(|e| StruqlError::Eval {
            message: format!("delta failed on site graph: {e}"),
        })?;
    debug_assert!(
        created_db
            .iter()
            .zip(created_out.iter())
            .all(|(d, s)| oid_map.get(d) == Some(s)),
        "predicted site oids diverged from the applied delta"
    );

    // Retract every candidate with no surviving derivation on the new
    // database.
    if !link_candidates.is_empty() || !collect_candidates.is_empty() {
        let reverse = skolem_reverse(&old_result.skolem);
        let mut survives = |probes: &mut dyn Iterator<Item = (&Chain, Vec<(String, Value)>)>| {
            for (chain, seeds) in probes {
                rows_recomputed += 1;
                if !new_ev.eval_where_bindings(&chain.conds, &seeds)?.1.is_empty() {
                    return Ok(true);
                }
            }
            StruqlResult::Ok(false)
        };
        for (src, label, dst) in link_candidates {
            let mut probes = chains.iter().flat_map(|chain| {
                let seeds = chain
                    .block
                    .link
                    .iter()
                    .filter_map(|l| unify_link(l, src, &label, &dst, &reverse));
                seeds.map(move |s| (chain, s))
            });
            if !survives(&mut probes)? {
                if let Some(lab) = out_graph.label(&label) {
                    out_graph.remove_edge(src, lab, &dst);
                }
            }
        }
        for (collection, member) in collect_candidates {
            let mut probes = chains.iter().flat_map(|chain| {
                let seeds = chain
                    .block
                    .collect
                    .iter()
                    .filter(|ce| ce.collection == collection)
                    .filter_map(|ce| unify_term(&ce.arg, &member, &reverse));
                seeds.map(move |s| (chain, s))
            });
            if !survives(&mut probes)? {
                if let Some(cid) = out_graph.collection_id(&collection) {
                    out_graph.uncollect(cid, &member);
                }
            }
        }
    }

    let mut constructor = Constructor::resume(EvalResult {
        graph: out_graph,
        new_nodes: old_result.new_nodes,
        skolem: old_result.skolem,
        rows_evaluated: old_result.rows_evaluated,
    });
    for (chain, d) in chains.iter().zip(diffs) {
        let added = d.rows.into_iter().filter(|(_, n)| *n > 0).map(|(row, _)| row);
        let translated = translate_rows(added.collect(), &oid_map);
        constructor.apply_block(&chain.block, &d.vars, &translated)?;
    }

    Ok(IncrementalOutcome {
        result: constructor.finish(),
        rows_recomputed,
    })
}

/// Whether `maintained` equals the `fresh` evaluation up to site nodes
/// that lost every derivation: [`graphs_equivalent`] once `fresh` is
/// padded with as many unreferenced nodes as `maintained` has spare. The
/// padding carries no edge and no membership, so a lingering node that
/// kept either still fails the comparison.
pub fn equivalent_modulo_orphans(maintained: &Graph, fresh: &Graph) -> bool {
    let mut padded = fresh.clone();
    while padded.node_count() < maintained.node_count() {
        padded.add_node();
    }
    graphs_equivalent(maintained, &padded)
}

/// A block with its enclosing where clauses conjoined.
struct Chain {
    conds: Vec<Condition>,
    /// The block's construction stage (nested blocks cleared — each gets
    /// its own chain).
    block: Block,
}

fn flatten(program: &Program) -> Vec<Chain> {
    fn walk(block: &Block, prefix: &[Condition], out: &mut Vec<Chain>) {
        let mut conds = prefix.to_vec();
        conds.extend(block.where_.iter().cloned());
        let mut leaf = block.clone();
        leaf.nested.clear();
        leaf.where_.clear();
        out.push(Chain {
            conds: conds.clone(),
            block: leaf,
        });
        for nested in &block.nested {
            walk(nested, &conds, out);
        }
    }
    let mut out = Vec::new();
    for b in &program.blocks {
        walk(b, &[], &mut out);
    }
    out
}

/// Instantiates a link expression against a bindings row using the *old*
/// Skolem table in lookup-only mode (never minting). `None` when a term
/// references a Skolem application that was never materialized or an
/// unbound variable — then the candidate edge cannot exist.
fn link_instance(
    l: &LinkExpr,
    vars: &[String],
    row: &[Option<Value>],
    skolem: &SkolemTable,
) -> Option<(Oid, String, Value)> {
    let src = term_instance(&l.src, vars, row, skolem)?.as_node()?;
    let label = match &l.label {
        LabelTerm::Const(s) => s.clone(),
        LabelTerm::Var(v) => {
            let idx = vars.iter().position(|x| x == v)?;
            match row.get(idx)?.as_ref()? {
                Value::Str(s) => s.to_string(),
                _ => return None,
            }
        }
    };
    let dst = term_instance(&l.dst, vars, row, skolem)?;
    Some((src, label, dst))
}

/// Instantiates a construction term in lookup-only mode.
fn term_instance(
    t: &Term,
    vars: &[String],
    row: &[Option<Value>],
    skolem: &SkolemTable,
) -> Option<Value> {
    match t {
        Term::Var(v) => {
            let idx = vars.iter().position(|x| x == v)?;
            row.get(idx)?.clone()
        }
        Term::Const(c) => Some(c.clone()),
        Term::Skolem { symbol, args } => {
            let arg_vals: Option<Vec<Value>> = args
                .iter()
                .map(|a| term_instance(a, vars, row, skolem))
                .collect();
            skolem.lookup(symbol, &arg_vals?).map(Value::Node)
        }
    }
}

/// Inverts the Skolem table: created oid → (symbol, argument values).
fn skolem_reverse(skolem: &SkolemTable) -> HashMap<Oid, (String, Vec<Value>)> {
    skolem
        .iter()
        .map(|(key, oid)| (oid, (key.symbol.to_string(), key.args.to_vec())))
        .collect()
}

/// Unifies a link expression with a concrete candidate edge, producing the
/// seed bindings under which the expression emits exactly that edge.
fn unify_link(
    l: &LinkExpr,
    src: Oid,
    label: &str,
    dst: &Value,
    reverse: &HashMap<Oid, (String, Vec<Value>)>,
) -> Option<Vec<(String, Value)>> {
    let mut seeds: Vec<(String, Value)> = Vec::new();
    unify_term_into(&l.src, &Value::Node(src), reverse, &mut seeds)?;
    match &l.label {
        LabelTerm::Const(s) => {
            if s != label {
                return None;
            }
        }
        LabelTerm::Var(v) => {
            push_seed(&mut seeds, v, Value::string(label))?;
        }
    }
    unify_term_into(&l.dst, dst, reverse, &mut seeds)?;
    Some(seeds)
}

/// Unifies a collect term with a candidate member.
fn unify_term(
    t: &Term,
    member: &Value,
    reverse: &HashMap<Oid, (String, Vec<Value>)>,
) -> Option<Vec<(String, Value)>> {
    let mut seeds = Vec::new();
    unify_term_into(t, member, reverse, &mut seeds)?;
    Some(seeds)
}

fn unify_term_into(
    t: &Term,
    value: &Value,
    reverse: &HashMap<Oid, (String, Vec<Value>)>,
    seeds: &mut Vec<(String, Value)>,
) -> Option<()> {
    match t {
        Term::Var(v) => push_seed(seeds, v, value.clone()),
        Term::Const(c) => coerce::eq(c, value).then_some(()),
        Term::Skolem { symbol, args } => {
            let oid = value.as_node()?;
            let (sym, arg_vals) = reverse.get(&oid)?;
            if sym != symbol || arg_vals.len() != args.len() {
                return None;
            }
            for (term, val) in args.iter().zip(arg_vals) {
                unify_term_into(term, val, reverse, seeds)?;
            }
            Some(())
        }
    }
}

fn push_seed(seeds: &mut Vec<(String, Value)>, var: &str, value: Value) -> Option<()> {
    if let Some((_, prev)) = seeds.iter().find(|(n, _)| n == var) {
        (prev == &value).then_some(())
    } else {
        seeds.push((var.to_owned(), value));
        Some(())
    }
}

/// Rewrites node values minted by the delta from data-graph oids to their
/// site-graph counterparts.
fn translate_rows(
    rows: Vec<Vec<Option<Value>>>,
    oid_map: &HashMap<Oid, Oid>,
) -> Vec<Vec<Option<Value>>> {
    if oid_map.is_empty() {
        return rows;
    }
    rows.into_iter()
        .map(|row| {
            row.into_iter()
                .map(|slot| {
                    slot.map(|v| match v {
                        Value::Node(o) => Value::Node(*oid_map.get(&o).unwrap_or(&o)),
                        other => other,
                    })
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use strudel_graph::ddl;
    use strudel_struql::parse;

    const QUERY: &str = r#"
        create RootPage()
        where Publications(x)
        create PaperPage(x)
        link RootPage() -> "paper" -> PaperPage(x)
        collect Pages(PaperPage(x))
        { where x -> "title" -> t
          link PaperPage(x) -> "title" -> t }
        { where x -> "year" -> y
          create YearPage(y)
          link YearPage(y) -> "paper" -> PaperPage(x),
               RootPage() -> "year" -> YearPage(y) }
    "#;

    fn base_db() -> Database {
        let g = ddl::parse(
            r#"
            object p1 in Publications { title : "Alpha"; year : 1997; }
            object p2 in Publications { title : "Beta"; year : 1998; }
        "#,
        )
        .unwrap();
        Database::from_graph(g, IndexLevel::Full)
    }

    /// Evaluate fully on (base + delta) for comparison.
    fn full_reference(db: &Database, program: &Program, delta: &GraphDelta) -> EvalResult {
        let mut g = db.graph().clone();
        delta.apply(&mut g).unwrap();
        let db2 = Database::from_graph(g, IndexLevel::Full);
        Evaluator::new(&db2).eval(program).unwrap()
    }

    #[test]
    fn new_attribute_edge_updates_site() {
        let db = base_db();
        let program = parse(QUERY).unwrap();
        let old = Evaluator::new(&db).eval(&program).unwrap();

        let p1 = db.graph().node_by_name("p1").unwrap();
        let mut delta = GraphDelta::new();
        delta.add_edge(p1, "title", Value::string("Alpha (revised)"));

        let reference = full_reference(&db, &program, &delta);
        let out = incremental_update(&program, &db, &delta, old).unwrap();
        assert!(out.rows_recomputed > 0);
        assert!(graphs_equivalent(&out.result.graph, &reference.graph));

        let page = out
            .result
            .skolem_node("PaperPage", &[Value::Node(p1)])
            .unwrap();
        assert_eq!(out.result.graph.attr_str(page, "title").count(), 2);
    }

    #[test]
    fn new_publication_creates_its_pages() {
        let db = base_db();
        let program = parse(QUERY).unwrap();
        let old = Evaluator::new(&db).eval(&program).unwrap();

        let mut delta = GraphDelta::new();
        delta.add_node(Some("p3"));
        let p3 = Oid::from_index(db.graph().node_count());
        delta.add_edge(p3, "title", Value::string("Gamma"));
        delta.add_edge(p3, "year", Value::Int(1997));
        delta.collect("Publications", Value::Node(p3));

        let reference = full_reference(&db, &program, &delta);
        let out = incremental_update(&program, &db, &delta, old).unwrap();
        assert!(graphs_equivalent(&out.result.graph, &reference.graph));

        // The new paper's page exists, carries its title, and the existing
        // 1997 YearPage gained a link (no duplicate YearPage).
        assert_eq!(out.result.graph.members_str("Pages").len(), 3);
        let y97 = out
            .result
            .skolem_node("YearPage", &[Value::Int(1997)])
            .unwrap();
        assert_eq!(out.result.graph.attr_str(y97, "paper").count(), 2);
    }

    #[test]
    fn incremental_is_idempotent_on_replayed_facts() {
        let db = base_db();
        let program = parse(QUERY).unwrap();
        let old = Evaluator::new(&db).eval(&program).unwrap();
        let edge_count = old.graph.edge_count();

        // A delta that adds an edge that already exists (multigraph add):
        // derivations collapse by set semantics, so only the data edge is
        // new.
        let p1 = db.graph().node_by_name("p1").unwrap();
        let mut delta = GraphDelta::new();
        delta.add_edge(p1, "title", Value::string("Alpha"));
        let out = incremental_update(&program, &db, &delta, old).unwrap();
        assert_eq!(
            out.result.graph.edge_count(),
            edge_count + 1,
            "one new data edge, no duplicate site links"
        );
    }

    #[test]
    fn edge_removal_deletes_dependent_links() {
        let db = base_db();
        let program = parse(QUERY).unwrap();
        let old = Evaluator::new(&db).eval(&program).unwrap();
        let y97 = old.skolem_node("YearPage", &[Value::Int(1997)]).unwrap();
        let p1 = db.graph().node_by_name("p1").unwrap();
        let page1 = old.skolem_node("PaperPage", &[Value::Node(p1)]).unwrap();
        assert!(old.graph.has_edge(
            y97,
            old.graph.label("paper").unwrap(),
            &Value::Node(page1)
        ));

        let mut delta = GraphDelta::new();
        delta.remove_edge(p1, "year", Value::Int(1997));

        let out = incremental_update(&program, &db, &delta, old).unwrap();
        let g = &out.result.graph;
        // The 1997 year page lost its only paper link and the root lost
        // nothing else; p1's page keeps its title.
        assert!(!g.has_edge(y97, g.label("paper").unwrap(), &Value::Node(page1)));
        assert_eq!(g.attr_str(page1, "title").count(), 1);
        // Root -> year edge to YearPage(1997) must also be gone (it was
        // derived from the same deleted fact and is not re-derivable).
        let root = out.result.skolem_node("RootPage", &[]).unwrap();
        assert!(!g.has_edge(root, g.label("year").unwrap(), &Value::Node(y97)));
        // YearPage(1997) itself lingers, unreferenced.
        let reference = full_reference(&db, &program, &delta);
        assert_eq!(g.node_count(), reference.graph.node_count() + 1);
        assert!(equivalent_modulo_orphans(g, &reference.graph));
    }

    #[test]
    fn member_removal_unlinks_its_pages() {
        let db = base_db();
        let program = parse(QUERY).unwrap();
        let old = Evaluator::new(&db).eval(&program).unwrap();
        let p1 = db.graph().node_by_name("p1").unwrap();
        let page1 = old.skolem_node("PaperPage", &[Value::Node(p1)]).unwrap();

        let mut delta = GraphDelta::new();
        delta.uncollect("Publications", Value::Node(p1));

        let out = incremental_update(&program, &db, &delta, old).unwrap();
        let g = &out.result.graph;
        let root = out.result.skolem_node("RootPage", &[]).unwrap();
        assert!(!g.has_edge(root, g.label("paper").unwrap(), &Value::Node(page1)));
        assert_eq!(g.attr_str(page1, "title").count(), 0, "copied attrs gone");
        assert!(
            !g.members_str("Pages").contains(&Value::Node(page1)),
            "collect retracted"
        );
        // p2 is untouched.
        let p2 = db.graph().node_by_name("p2").unwrap();
        let page2 = out.result.skolem_node("PaperPage", &[Value::Node(p2)]).unwrap();
        assert_eq!(g.attr_str(page2, "title").count(), 1);
        let reference = full_reference(&db, &program, &delta);
        assert!(equivalent_modulo_orphans(g, &reference.graph));
    }

    #[test]
    fn links_with_surviving_derivations_are_kept() {
        // Two year edges with the same value: removing one must keep the
        // YearPage link, because the other edge still derives it.
        let g0 = ddl::parse(
            r#"object d in Publications { title : "Dup"; year : 1997; year : 1997; }"#,
        )
        .unwrap();
        // The DDL dedupe? Multigraph stores both edges.
        let db = Database::from_graph(g0, IndexLevel::Full);
        let program = parse(QUERY).unwrap();
        let old = Evaluator::new(&db).eval(&program).unwrap();
        let d = db.graph().node_by_name("d").unwrap();
        let y97 = old.skolem_node("YearPage", &[Value::Int(1997)]).unwrap();
        let page = old.skolem_node("PaperPage", &[Value::Node(d)]).unwrap();

        let mut delta = GraphDelta::new();
        delta.remove_edge(d, "year", Value::Int(1997));
        let out = incremental_update(&program, &db, &delta, old).unwrap();
        let g = &out.result.graph;
        assert!(
            g.has_edge(y97, g.label("paper").unwrap(), &Value::Node(page)),
            "one year edge remains, so the link survives rederivation"
        );
        let reference = full_reference(&db, &program, &delta);
        assert!(graphs_equivalent(g, &reference.graph));
    }

    #[test]
    fn mixed_insert_and_delete_delta() {
        let db = base_db();
        let program = parse(QUERY).unwrap();
        let old = Evaluator::new(&db).eval(&program).unwrap();
        let p1 = db.graph().node_by_name("p1").unwrap();

        let mut delta = GraphDelta::new();
        delta.remove_edge(p1, "title", Value::string("Alpha"));
        delta.add_edge(p1, "title", Value::string("Alpha (2nd ed.)"));

        let out = incremental_update(&program, &db, &delta, old).unwrap();
        let g = &out.result.graph;
        let page1 = out.result.skolem_node("PaperPage", &[Value::Node(p1)]).unwrap();
        let titles: Vec<&str> = g
            .attr_str(page1, "title")
            .filter_map(Value::as_str)
            .collect();
        assert_eq!(titles, ["Alpha (2nd ed.)"]);
    }

    #[test]
    fn kleene_deletions_stay_incremental() {
        let g0 = ddl::parse(
            r#"
            object root in Roots { child : &a; }
            object a { label : "a"; child : &b; }
            object b { label : "b"; }
        "#,
        )
        .unwrap();
        let db = Database::from_graph(g0, IndexLevel::Full);
        let program = parse(
            r#"
            where Roots(r), r -> * -> n
            create Copy(n)
            collect Reach(Copy(n))
        "#,
        )
        .unwrap();
        let old = Evaluator::new(&db).eval(&program).unwrap();
        assert_eq!(old.graph.members_str("Reach").len(), 5);
        let a = db.graph().node_by_name("a").unwrap();
        let b = db.graph().node_by_name("b").unwrap();
        let mut delta = GraphDelta::new();
        delta.remove_edge(a, "child", Value::Node(b));
        let reference = full_reference(&db, &program, &delta);
        let out = incremental_update(&program, &db, &delta, old).unwrap();
        assert!(out.rows_recomputed > 0);
        // Copy(b) and Copy("b") lost their only derivation and linger
        // unreferenced; everything else equals the fresh evaluation.
        assert_eq!(out.result.graph.members_str("Reach").len(), 3);
        assert_eq!(out.result.graph.node_count(), reference.graph.node_count() + 2);
        assert!(equivalent_modulo_orphans(&out.result.graph, &reference.graph));
    }

    #[test]
    fn negation_stays_incremental() {
        let db = base_db();
        let program = parse(
            r#"
            where Publications(x), not(x -> "retracted" -> r)
            create P(x)
            collect Live(P(x))
        "#,
        )
        .unwrap();
        let p1 = db.graph().node_by_name("p1").unwrap();

        // An insertion under not(…) retracts a row: P(p1) leaves Live and
        // lingers unreferenced…
        let old = Evaluator::new(&db).eval(&program).unwrap();
        let mut retract = GraphDelta::new();
        retract.add_edge(p1, "retracted", Value::Bool(true));
        let reference = full_reference(&db, &program, &retract);
        let out = incremental_update(&program, &db, &retract, old).unwrap();
        assert_eq!(out.result.graph.members_str("Live").len(), 1);
        assert_eq!(out.result.graph.node_count(), reference.graph.node_count() + 1);
        assert!(equivalent_modulo_orphans(&out.result.graph, &reference.graph));

        // …and a deletion under it adds the row back, re-adopting the very
        // node through the resumed Skolem table: no orphan is left.
        let mut g = db.graph().clone();
        retract.apply(&mut g).unwrap();
        let db2 = Database::from_graph(g, IndexLevel::Full);
        let mut restore = GraphDelta::new();
        restore.remove_edge(p1, "retracted", Value::Bool(true));
        let reference = full_reference(&db2, &program, &restore);
        let out = incremental_update(&program, &db2, &restore, out.result).unwrap();
        assert_eq!(out.result.graph.members_str("Live").len(), 2);
        assert!(graphs_equivalent(&out.result.graph, &reference.graph));
    }

    #[test]
    fn negation_over_kleene_stays_incremental() {
        // Both out-of-fragment shapes of the old DRed path at once: the
        // retraction changes a closure under not(…).
        let g0 = ddl::parse(
            r#"
            object p1 in Publications { rel : &p2; }
            object p2 in Publications { title : "Beta"; }
        "#,
        )
        .unwrap();
        let db = Database::from_graph(g0, IndexLevel::Full);
        let program = parse(
            r#"
            create Index()
            collect Roots(Index())
            { where Publications(x), not(x -> "rel"+ -> y)
              link Index() -> "leaf" -> x }
        "#,
        )
        .unwrap();
        let old = Evaluator::new(&db).eval(&program).unwrap();
        let p1 = db.graph().node_by_name("p1").unwrap();
        let p2 = db.graph().node_by_name("p2").unwrap();
        let mut delta = GraphDelta::new();
        delta.remove_edge(p1, "rel", Value::Node(p2));
        let reference = full_reference(&db, &program, &delta);
        let out = incremental_update(&program, &db, &delta, old).unwrap();
        assert!(graphs_equivalent(&out.result.graph, &reference.graph));
    }

    /// Nested Skolem construction terms take the same path: the probe
    /// inverts `Cell(YearOf(y), x)` through the memo table level by level.
    #[test]
    fn nested_skolem_terms_stay_incremental() {
        let db = base_db();
        let program = parse(
            r#"
            where Publications(x), x -> "year" -> y
            create YearOf(y), Cell(YearOf(y), x)
            link YearOf(y) -> "cell" -> Cell(YearOf(y), x)
            collect Cells(Cell(YearOf(y), x))
        "#,
        )
        .unwrap();
        let p1 = db.graph().node_by_name("p1").unwrap();

        let old = Evaluator::new(&db).eval(&program).unwrap();
        let mut insert = GraphDelta::new();
        insert.add_edge(p1, "year", Value::Int(1998));
        let reference = full_reference(&db, &program, &insert);
        let out = incremental_update(&program, &db, &insert, old).unwrap();
        assert!(graphs_equivalent(&out.result.graph, &reference.graph));

        // Removing the year again retracts Cell(YearOf(1998), p1) and its
        // link, but YearOf(1998) keeps p2's cell.
        let mut g = db.graph().clone();
        insert.apply(&mut g).unwrap();
        let db2 = Database::from_graph(g, IndexLevel::Full);
        let mut remove = GraphDelta::new();
        remove.remove_edge(p1, "year", Value::Int(1998));
        let reference = full_reference(&db2, &program, &remove);
        let out = incremental_update(&program, &db2, &remove, out.result).unwrap();
        assert_eq!(out.result.graph.members_str("Cells").len(), 2);
        let y98 = out.result.skolem_node("YearOf", &[Value::Int(1998)]).unwrap();
        assert_eq!(out.result.graph.attr_str(y98, "cell").count(), 1);
        assert_eq!(out.result.graph.node_count(), reference.graph.node_count() + 1);
        assert!(equivalent_modulo_orphans(&out.result.graph, &reference.graph));
    }

    #[test]
    fn delta_removing_its_own_insert_does_not_panic() {
        // A mixed delta that adds an edge and removes it again: the delete
        // fact references a node the OLD graph never issued, which must
        // never be probed with it.
        let g = ddl::parse(r#"object p1 { year : 1997; }"#).unwrap();
        let db = Database::from_graph(g, IndexLevel::Full);
        let program = parse(
            r#"
            where x -> "year" -> y
            create P(x)
            link P(x) -> "year" -> y
            collect Out(P(x))
        "#,
        )
        .unwrap();
        let old = Evaluator::new(&db).eval(&program).unwrap();
        let base = db.graph().node_count();
        let mut delta = GraphDelta::new();
        delta.add_node(Some("p2"));
        let p2 = Oid::from_index(base);
        delta.add_edge(p2, "year", Value::Int(1998));
        delta.remove_edge(p2, "year", Value::Int(1998));

        let reference = full_reference(&db, &program, &delta);
        let out = incremental_update(&program, &db, &delta, old).unwrap();
        assert_eq!(
            out.result.graph.members_str("Out").len(),
            reference.graph.members_str("Out").len()
        );
    }

    #[test]
    fn kleene_insertion_extends_paths_through_the_middle() {
        let db = {
            let g = ddl::parse(
                r#"
                object root in Roots { child : &a; }
                object a { label : "a"; }
                object b { label : "b"; }
            "#,
            )
            .unwrap();
            Database::from_graph(g, IndexLevel::Full)
        };
        let program = parse(
            r#"
            where Roots(r), r -> * -> n
            create Copy(n)
            collect Reach(Copy(n))
        "#,
        )
        .unwrap();
        let old = Evaluator::new(&db).eval(&program).unwrap();
        assert_eq!(old.graph.members_str("Reach").len(), 3, "root, a, label");

        // Adding a->child->b extends reachability through the middle of
        // existing paths.
        let a = db.graph().node_by_name("a").unwrap();
        let b = db.graph().node_by_name("b").unwrap();
        let mut delta = GraphDelta::new();
        delta.add_edge(a, "child", Value::Node(b));

        let reference = full_reference(&db, &program, &delta);
        let out = incremental_update(&program, &db, &delta, old).unwrap();
        assert!(graphs_equivalent(&out.result.graph, &reference.graph));
    }

    /// Deleting an edge whose label the chain's Kleene closure can never
    /// traverse must not touch the chain at all.
    #[test]
    fn irrelevant_label_deletion_stays_incremental_despite_kleene() {
        let g0 = ddl::parse(
            r#"
            object root in Roots { child : &a; note : "draft"; }
            object a { label : "a"; }
        "#,
        )
        .unwrap();
        let db = Database::from_graph(g0, IndexLevel::Full);
        let program = parse(
            r#"
            where Roots(r), r -> "child"* -> n
            create Copy(n)
            collect Reach(Copy(n))
        "#,
        )
        .unwrap();
        let old = Evaluator::new(&db).eval(&program).unwrap();
        let root = db.graph().node_by_name("root").unwrap();
        let mut delta = GraphDelta::new();
        delta.remove_edge(root, "note", Value::string("draft"));
        let reference = full_reference(&db, &program, &delta);
        let out = incremental_update(&program, &db, &delta, old).unwrap();
        assert_eq!(out.rows_recomputed, 0, "'note' cannot be traversed by \"child\"*");
        assert!(graphs_equivalent(&out.result.graph, &reference.graph));
    }

    /// Inserting an edge irrelevant to a Kleene chain must not re-derive
    /// that chain.
    #[test]
    fn irrelevant_insert_skips_kleene_chain() {
        let g0 = ddl::parse(
            r#"
            object root in Roots { child : &a; }
            object a { label : "a"; }
        "#,
        )
        .unwrap();
        let db = Database::from_graph(g0, IndexLevel::Full);
        let program = parse(
            r#"
            where Roots(r), r -> "child"* -> n
            create Copy(n)
            collect Reach(Copy(n))
        "#,
        )
        .unwrap();
        let old = Evaluator::new(&db).eval(&program).unwrap();
        let root = db.graph().node_by_name("root").unwrap();
        let mut delta = GraphDelta::new();
        delta.add_edge(root, "note", Value::string("draft"));
        let reference = full_reference(&db, &program, &delta);
        let out = incremental_update(&program, &db, &delta, old).unwrap();
        assert_eq!(
            out.rows_recomputed, 0,
            "no chain atom relates to 'note'; nothing to rederive"
        );
        assert!(graphs_equivalent(&out.result.graph, &reference.graph));
    }

    #[test]
    fn empty_delta_changes_nothing() {
        let db = base_db();
        let program = parse(QUERY).unwrap();
        let old = Evaluator::new(&db).eval(&program).unwrap();
        let nodes = old.graph.node_count();
        let edges = old.graph.edge_count();
        let out =
            incremental_update(&program, &db, &GraphDelta::new(), old).unwrap();
        assert_eq!(out.rows_recomputed, 0);
        assert_eq!(out.result.graph.node_count(), nodes);
        assert_eq!(out.result.graph.edge_count(), edges);
    }

    #[test]
    fn incremental_matches_full_on_a_burst_of_inserts() {
        let db = base_db();
        let program = parse(QUERY).unwrap();
        let old = Evaluator::new(&db).eval(&program).unwrap();

        let base = db.graph().node_count();
        let mut delta = GraphDelta::new();
        for i in 0..5 {
            delta.add_node(Some(&format!("np{i}")));
            let oid = Oid::from_index(base + i);
            delta.add_edge(oid, "title", Value::string(format!("New {i}")));
            delta.add_edge(oid, "year", Value::Int(1997 + (i as i64 % 3)));
            delta.collect("Publications", Value::Node(oid));
        }
        let reference = full_reference(&db, &program, &delta);
        let out = incremental_update(&program, &db, &delta, old).unwrap();
        assert!(graphs_equivalent(&out.result.graph, &reference.graph));
        assert_eq!(out.result.graph.members_str("Pages").len(), 7);
    }
}

