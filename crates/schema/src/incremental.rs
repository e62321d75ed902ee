//! Incremental maintenance of a materialized site graph.
//!
//! The paper lists "computing incremental updates of site graphs" as an
//! open problem (§7/§8). This module projects the repository's one delta
//! mechanism: per block of the site-definition query, enclosing where
//! clauses conjoined (the flattening that yields site-schema guards),
//! [`delta_rows`] returns the exact signed bindings rows a delta adds or
//! retracts, `not(…)` and Kleene closures included.
//!
//! A [`MaintainedSite`] counts the *support* of every link and membership
//! of the site graph: its `(block, row, link/collect expression)`
//! derivations, in the multiset semantics of [`delta_rows`], where a
//! data-graph membership is a row of a block `where C(x) collect C(x)`.
//! The counts are taken once. After that, added rows go through a
//! [`Constructor`] that resumes the Skolem table, every signed row moves
//! the counts of what it derives, and what reaches zero leaves the graph.
//! Nothing is rederived.
//!
//! Site nodes are never deleted: a page object whose every derivation is
//! gone lingers with no edge and no membership, like an orphaned oid in
//! the paper's repository, and no page of the site can reach it. The
//! maintained graph therefore equals a fresh evaluation *plus* such
//! nodes; [`equivalent_modulo_orphans`] is that contract as an oracle.

use std::collections::BTreeSet;
use std::sync::Arc;
use strudel_graph::hash::FastMap;
use strudel_graph::{
    graphs_equivalent, CollectionId, DeltaOp, Graph, GraphDelta, Label, Oid, SkolemTable, Value,
};
use strudel_repo::{Database, IndexLevel};
use strudel_struql::{
    delta_rows, Block, CollectExpr, Condition, Constructor, DiffOutcome, EvalResult, Evaluator,
    LabelTerm, Program, StruqlError, StruqlResult, Term,
};

/// A site graph kept equal to a fresh evaluation of its query on the
/// current data graph, up to orphaned site nodes, as deltas arrive.
#[derive(Debug)]
pub struct MaintainedSite {
    chains: Vec<Chain>,
    db: Arc<Database>,
    result: EvalResult,
    supports: FastMap<Fact, i64>,
    /// The site-graph oid of every data node a delta created: the site
    /// nodes follow the data nodes the query was evaluated on.
    site_oids: FastMap<Oid, Oid>,
}

/// A link or a membership of the site graph.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Fact {
    Link(Oid, Label, Value),
    Member(CollectionId, Value),
}

impl MaintainedSite {
    /// Maintains `result`, the evaluation of `program` on `db`, counting
    /// its supports with one where-clause evaluation per block.
    pub fn new(
        program: &Program,
        db: impl Into<Arc<Database>>,
        result: EvalResult,
    ) -> StruqlResult<Self> {
        let db = db.into();
        let mut chains = flatten(program);
        chains.extend(db.graph().collections().map(|(_, name)| data_members(name)));
        let mut site = MaintainedSite {
            chains,
            db,
            result,
            supports: FastMap::default(),
            site_oids: FastMap::default(),
        };
        site.supports = site.count()?;
        Ok(site)
    }

    /// The maintained evaluation result (site graph, Skolem table, …).
    pub fn result(&self) -> &EvalResult {
        &self.result
    }

    /// Applies `delta` (in data-graph space) to the data and the site, and
    /// returns how many signed bindings rows it propagated. A delta the
    /// data graph refuses changes nothing; after any other error the site
    /// is no longer maintained.
    pub fn apply(&mut self, delta: &GraphDelta) -> StruqlResult<usize> {
        let old = self.db.graph();
        let mut new_input = old.clone();
        let created = delta.apply(&mut new_input).map_err(|e| StruqlError::Eval {
            message: format!("delta failed on data graph: {e}"),
        })?;
        let named: BTreeSet<&str> = delta.collections().collect();
        for name in named.into_iter().filter(|n| old.collection_id(n).is_none()) {
            self.result.graph.intern_collection(name);
            self.chains.push(data_members(name));
        }
        let new_db = Database::from_graph(new_input, IndexLevel::Full);
        let (old_ev, new_ev) = (Evaluator::new(&self.db), Evaluator::new(&new_db));
        let mut diffs: Vec<DiffOutcome> = self
            .chains
            .iter()
            .map(|chain| delta_rows(&old_ev, &new_ev, &chain.conds, delta))
            .collect::<StruqlResult<_>>()?;

        // The site graph contains the data graph, so the delta's nodes and
        // edges apply there too (memberships go by their counts). Nodes
        // are appended in order, so the site-graph counterpart of each
        // node the delta creates is known before it is: every op and row
        // is rewritten through the correspondence.
        let base = self.result.graph.node_count();
        let site_oids = &mut self.site_oids;
        site_oids.extend((0..created.len()).map(|i| (created[i], Oid::from_index(base + i))));
        let node = |o: &Oid| *site_oids.get(o).unwrap_or(o);
        let value = |v: &Value| v.as_node().map_or_else(|| v.clone(), |o| Value::Node(node(&o)));
        let mut site_delta = GraphDelta::new();
        for op in delta.ops() {
            match op {
                DeltaOp::AddNode { .. } => site_delta.push(op.clone()),
                DeltaOp::AddEdge { from, label, to } => {
                    site_delta.add_edge(node(from), label, value(to))
                }
                DeltaOp::RemoveEdge { from, label, to } => {
                    site_delta.remove_edge(node(from), label, value(to))
                }
                DeltaOp::Collect { .. } | DeltaOp::Uncollect { .. } => {}
            }
        }
        site_delta.apply(&mut self.result.graph).map_err(|e| StruqlError::Eval {
            message: format!("delta failed on site graph: {e}"),
        })?;
        for (row, _) in diffs.iter_mut().flat_map(|d| &mut d.rows) {
            to_site(row, site_oids);
        }

        let empty = Constructor::new(Graph::new()).finish();
        let mut constructor = Constructor::resume(std::mem::replace(&mut self.result, empty));
        for (chain, d) in self.chains.iter().zip(&diffs) {
            let added: Vec<_> = d.rows.iter().filter(|r| r.1 > 0).map(|r| r.0.clone()).collect();
            constructor.apply_block(&chain.block, &d.vars, &added)?;
        }
        self.result = constructor.finish();

        // Retracted rows resolve through Skolem entries the old table held,
        // and resuming only adds entries.
        let mut change = FastMap::default();
        for (chain, d) in self.chains.iter().zip(&diffs) {
            for (row, n) in &d.rows {
                chain.derive(&d.vars, row, *n, &self.result, &mut change);
            }
        }
        let graph = &mut self.result.graph;
        for (fact, n) in change {
            let count = self.supports.entry(fact.clone()).or_default();
            *count += n;
            debug_assert!(*count >= 0, "{fact:?} lost more derivations than it had");
            if *count <= 0 {
                self.supports.remove(&fact);
                match fact {
                    Fact::Link(src, label, dst) => graph.remove_edge(src, label, &dst),
                    Fact::Member(cid, member) => graph.uncollect(cid, &member),
                };
            }
        }
        self.db = Arc::new(new_db);
        Ok(diffs.iter().map(|d| d.rows.len()).sum())
    }

    /// Counts every derivation from scratch, on the current data.
    fn count(&self) -> StruqlResult<FastMap<Fact, i64>> {
        let ev = Evaluator::new(&self.db);
        let mut counts = FastMap::default();
        for chain in &self.chains {
            let (vars, rows) = ev.eval_where_bindings(&chain.conds, &[])?;
            for mut row in rows {
                to_site(&mut row, &self.site_oids);
                chain.derive(&vars, &row, 1, &self.result, &mut counts);
            }
        }
        Ok(counts)
    }
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
#[derive(Debug)]
struct Chain {
    conds: Vec<Condition>,
    /// The block's construction stage (nested blocks cleared — each gets
    /// its own chain).
    block: Block,
}

impl Chain {
    /// Adds `n` to the count of every link and membership `row` derives,
    /// each instantiated in lookup-only mode (never minting a node): a
    /// term naming a Skolem application never made, or an unbound
    /// variable, derives nothing.
    fn derive(
        &self,
        vars: &[String],
        row: &[Option<Value>],
        n: i64,
        site: &EvalResult,
        counts: &mut FastMap<Fact, i64>,
    ) {
        let term = |t: &Term| term_instance(t, vars, row, &site.skolem);
        let links = self.block.link.iter().filter_map(|l| {
            let label = match &l.label {
                LabelTerm::Const(s) => site.graph.label(s)?,
                LabelTerm::Var(v) => {
                    let slot = vars.iter().position(|x| x == v)?;
                    site.graph.label(row.get(slot)?.as_ref()?.as_str()?)?
                }
            };
            Some(Fact::Link(term(&l.src)?.as_node()?, label, term(&l.dst)?))
        });
        let members = self.block.collect.iter().filter_map(|ce| {
            Some(Fact::Member(site.graph.collection_id(&ce.collection)?, term(&ce.arg)?))
        });
        for fact in links.chain(members) {
            *counts.entry(fact).or_default() += n;
        }
    }
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

/// `where C(x) collect C(x)` for the data collection `C`: each membership
/// the data graph holds is one support of the site graph's.
fn data_members(name: &str) -> Chain {
    let x = Term::Var("x".into());
    Chain {
        conds: vec![Condition::Collection {
            name: name.into(),
            arg: x.clone(),
            span: Default::default(),
        }],
        block: Block {
            collect: vec![CollectExpr {
                collection: name.into(),
                arg: x,
                span: Default::default(),
            }],
            ..Block::default()
        },
    }
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

/// Rewrites the data-graph oids a bindings row binds into site-graph oids.
fn to_site(row: &mut [Option<Value>], site_oids: &FastMap<Oid, Oid>) {
    for slot in row.iter_mut().flatten() {
        if let Value::Node(o) = slot {
            *o = *site_oids.get(o).unwrap_or(o);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strudel_graph::ddl;
    use strudel_prng::{Rng, SeedableRng, SmallRng};
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

    fn db_of(ddl: &str) -> Database {
        Database::from_graph(ddl::parse(ddl).unwrap(), IndexLevel::Full)
    }

    fn base_db() -> Database {
        db_of(
            r#"
            object p1 in Publications { title : "Alpha"; year : 1997; }
            object p2 in Publications { title : "Beta"; year : 1998; }
        "#,
        )
    }

    /// Evaluate fully on (base + delta) for comparison.
    fn full_reference(db: &Database, program: &Program, delta: &GraphDelta) -> EvalResult {
        let mut g = db.graph().clone();
        delta.apply(&mut g).unwrap();
        let db2 = Database::from_graph(g, IndexLevel::Full);
        Evaluator::new(&db2).eval(program).unwrap()
    }

    struct Outcome {
        result: EvalResult,
        rows_recomputed: usize,
    }

    /// Maintains `old`, the evaluation of `program` on a copy of `db`.
    fn maintain(program: &Program, db: &Database, old: EvalResult) -> MaintainedSite {
        let db = Database::from_graph(db.graph().clone(), IndexLevel::Full);
        MaintainedSite::new(program, db, old).unwrap()
    }

    /// Maintains `old` through one delta, counting from scratch first.
    fn maintain_once(
        program: &Program,
        db: &Database,
        delta: &GraphDelta,
        old: EvalResult,
    ) -> StruqlResult<Outcome> {
        let mut site = maintain(program, db, old);
        Ok(Outcome { rows_recomputed: site.apply(delta)?, result: site.result })
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
        let out = maintain_once(&program, &db, &delta, old).unwrap();
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
        let out = maintain_once(&program, &db, &delta, old).unwrap();
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
        let out = maintain_once(&program, &db, &delta, old).unwrap();
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

        let out = maintain_once(&program, &db, &delta, old).unwrap();
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

        let out = maintain_once(&program, &db, &delta, old).unwrap();
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
        let db = db_of(r#"object d in Publications { title : "Dup"; year : 1997; year : 1997; }"#);
        let program = parse(QUERY).unwrap();
        let old = Evaluator::new(&db).eval(&program).unwrap();
        let d = db.graph().node_by_name("d").unwrap();
        let y97 = old.skolem_node("YearPage", &[Value::Int(1997)]).unwrap();
        let page = old.skolem_node("PaperPage", &[Value::Node(d)]).unwrap();

        let mut delta = GraphDelta::new();
        delta.remove_edge(d, "year", Value::Int(1997));
        let mut site = maintain(&program, &db, old);
        site.apply(&delta).unwrap();
        let g = &site.result.graph;
        assert!(
            g.has_edge(y97, g.label("paper").unwrap(), &Value::Node(page)),
            "one year edge remains, so the link survives rederivation"
        );
        let reference = full_reference(&db, &program, &delta);
        assert!(graphs_equivalent(g, &reference.graph));

        // The count carried over: the second removal takes the link.
        let reference = full_reference(&site.db.clone(), &program, &delta);
        site.apply(&delta).unwrap();
        let g = &site.result.graph;
        assert!(!g.has_edge(y97, g.label("paper").unwrap(), &Value::Node(page)));
        assert!(equivalent_modulo_orphans(g, &reference.graph));
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

        let out = maintain_once(&program, &db, &delta, old).unwrap();
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
        let db = db_of(
            r#"object root in Roots { child : &a; }
               object a { label : "a"; child : &b; } object b { label : "b"; }"#,
        );
        let program = parse(
            r#"where Roots(r), r -> * -> n
               create Copy(n)
               collect Reach(Copy(n))"#,
        )
        .unwrap();
        let old = Evaluator::new(&db).eval(&program).unwrap();
        assert_eq!(old.graph.members_str("Reach").len(), 5);
        let a = db.graph().node_by_name("a").unwrap();
        let b = db.graph().node_by_name("b").unwrap();
        let mut delta = GraphDelta::new();
        delta.remove_edge(a, "child", Value::Node(b));
        let reference = full_reference(&db, &program, &delta);
        let out = maintain_once(&program, &db, &delta, old).unwrap();
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
            r#"where Publications(x), not(x -> "retracted" -> r)
               create P(x)
               collect Live(P(x))"#,
        )
        .unwrap();
        let p1 = db.graph().node_by_name("p1").unwrap();

        // An insertion under not(…) retracts a row: P(p1) leaves Live and
        // lingers unreferenced…
        let old = Evaluator::new(&db).eval(&program).unwrap();
        let mut retract = GraphDelta::new();
        retract.add_edge(p1, "retracted", Value::Bool(true));
        let reference = full_reference(&db, &program, &retract);
        let out = maintain_once(&program, &db, &retract, old).unwrap();
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
        let out = maintain_once(&program, &db2, &restore, out.result).unwrap();
        assert_eq!(out.result.graph.members_str("Live").len(), 2);
        assert!(graphs_equivalent(&out.result.graph, &reference.graph));
    }

    #[test]
    fn negation_over_kleene_stays_incremental() {
        // Both out-of-fragment shapes of the old DRed path at once: the
        // retraction changes a closure under not(…).
        let db = db_of(
            r#"object p1 in Publications { rel : &p2; }
               object p2 in Publications { title : "Beta"; }"#,
        );
        let program = parse(
            r#"create Index()
               collect Roots(Index())
               { where Publications(x), not(x -> "rel"+ -> y)
                 link Index() -> "leaf" -> x }"#,
        )
        .unwrap();
        let old = Evaluator::new(&db).eval(&program).unwrap();
        let p1 = db.graph().node_by_name("p1").unwrap();
        let p2 = db.graph().node_by_name("p2").unwrap();
        let mut delta = GraphDelta::new();
        delta.remove_edge(p1, "rel", Value::Node(p2));
        let reference = full_reference(&db, &program, &delta);
        let out = maintain_once(&program, &db, &delta, old).unwrap();
        assert!(graphs_equivalent(&out.result.graph, &reference.graph));
    }

    /// Nested Skolem construction terms take the same path: a row resolves
    /// `Cell(YearOf(y), x)` through the memo table level by level.
    #[test]
    fn nested_skolem_terms_stay_incremental() {
        let db = base_db();
        let program = parse(
            r#"where Publications(x), x -> "year" -> y
               create YearOf(y), Cell(YearOf(y), x)
               link YearOf(y) -> "cell" -> Cell(YearOf(y), x)
               collect Cells(Cell(YearOf(y), x))"#,
        )
        .unwrap();
        let p1 = db.graph().node_by_name("p1").unwrap();

        let old = Evaluator::new(&db).eval(&program).unwrap();
        let mut insert = GraphDelta::new();
        insert.add_edge(p1, "year", Value::Int(1998));
        let reference = full_reference(&db, &program, &insert);
        let out = maintain_once(&program, &db, &insert, old).unwrap();
        assert!(graphs_equivalent(&out.result.graph, &reference.graph));

        // Removing the year again retracts Cell(YearOf(1998), p1) and its
        // link, but YearOf(1998) keeps p2's cell.
        let mut g = db.graph().clone();
        insert.apply(&mut g).unwrap();
        let db2 = Database::from_graph(g, IndexLevel::Full);
        let mut remove = GraphDelta::new();
        remove.remove_edge(p1, "year", Value::Int(1998));
        let reference = full_reference(&db2, &program, &remove);
        let out = maintain_once(&program, &db2, &remove, out.result).unwrap();
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
        // never be looked up in it.
        let db = db_of(r#"object p1 { year : 1997; }"#);
        let program = parse(
            r#"where x -> "year" -> y
               create P(x)
               link P(x) -> "year" -> y
               collect Out(P(x))"#,
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
        let out = maintain_once(&program, &db, &delta, old).unwrap();
        assert_eq!(
            out.result.graph.members_str("Out").len(),
            reference.graph.members_str("Out").len()
        );
    }

    #[test]
    fn kleene_insertion_extends_paths_through_the_middle() {
        let db = db_of(
            r#"object root in Roots { child : &a; }
               object a { label : "a"; } object b { label : "b"; }"#,
        );
        let program = parse(
            r#"where Roots(r), r -> * -> n
               create Copy(n)
               collect Reach(Copy(n))"#,
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
        let out = maintain_once(&program, &db, &delta, old).unwrap();
        assert!(graphs_equivalent(&out.result.graph, &reference.graph));
    }

    /// Deleting an edge whose label the chain's Kleene closure can never
    /// traverse must not touch the chain at all.
    #[test]
    fn irrelevant_label_deletion_stays_incremental_despite_kleene() {
        let db = db_of(
            r#"object root in Roots { child : &a; note : "draft"; } object a { label : "a"; }"#,
        );
        let program = parse(
            r#"where Roots(r), r -> "child"* -> n
               create Copy(n)
               collect Reach(Copy(n))"#,
        )
        .unwrap();
        let old = Evaluator::new(&db).eval(&program).unwrap();
        let root = db.graph().node_by_name("root").unwrap();
        let mut delta = GraphDelta::new();
        delta.remove_edge(root, "note", Value::string("draft"));
        let reference = full_reference(&db, &program, &delta);
        let out = maintain_once(&program, &db, &delta, old).unwrap();
        assert_eq!(out.rows_recomputed, 0, "'note' cannot be traversed by \"child\"*");
        assert!(graphs_equivalent(&out.result.graph, &reference.graph));
    }

    /// Inserting an edge irrelevant to a Kleene chain must not re-derive
    /// that chain.
    #[test]
    fn irrelevant_insert_skips_kleene_chain() {
        let db = db_of(r#"object root in Roots { child : &a; } object a { label : "a"; }"#);
        let program = parse(
            r#"where Roots(r), r -> "child"* -> n
               create Copy(n)
               collect Reach(Copy(n))"#,
        )
        .unwrap();
        let old = Evaluator::new(&db).eval(&program).unwrap();
        let root = db.graph().node_by_name("root").unwrap();
        let mut delta = GraphDelta::new();
        delta.add_edge(root, "note", Value::string("draft"));
        let reference = full_reference(&db, &program, &delta);
        let out = maintain_once(&program, &db, &delta, old).unwrap();
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
            maintain_once(&program, &db, &GraphDelta::new(), old).unwrap();
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
        let out = maintain_once(&program, &db, &delta, old).unwrap();
        assert!(graphs_equivalent(&out.result.graph, &reference.graph));
        assert_eq!(out.result.graph.members_str("Pages").len(), 7);
    }

    /// A data collection may share its name with a `collect`: the data
    /// graph's membership and the derived one each support the member, and
    /// it stays while either does.
    #[test]
    fn data_and_derived_memberships_share_a_collection() {
        type Case = (&'static str, &'static str, fn(&mut GraphDelta, Oid));
        let cases: [Case; 2] = [
            // The derivation goes; the data membership stays.
            (
                r#"object p1 in Pubs { year : 1998; } object p2 { year : 1998; }"#,
                r#"where x -> "year" -> 1998 collect Pubs(x)"#,
                |delta, p1| delta.remove_edge(p1, "year", Value::Int(1998)),
            ),
            // The data membership goes; the derivation stays.
            (
                r#"object p1 in Pubs, Other { } object p2 in Other { }"#,
                r#"where Other(x) collect Pubs(x)"#,
                |delta, p1| delta.uncollect("Pubs", Value::Node(p1)),
            ),
        ];
        for (data, query, change) in cases {
            let db = db_of(data);
            let program = parse(query).unwrap();
            let mut site = maintain(&program, &db, Evaluator::new(&db).eval(&program).unwrap());
            let p1 = db.graph().node_by_name("p1").unwrap();
            let mut delta = GraphDelta::new();
            change(&mut delta, p1);
            let reference = full_reference(&db, &program, &delta);
            site.apply(&delta).unwrap();
            let pubs = site.result.graph.members_str("Pubs");
            assert!(pubs.contains(&Value::Node(p1)), "{query}");
            assert!(equivalent_modulo_orphans(&site.result.graph, &reference.graph));
            assert_eq!(site.supports, site.count().unwrap());
        }
    }

    /// Seeded chains of mixed deltas over a Kleene closure, `not(…)`, and
    /// facts inserted and retracted within one delta: after every round
    /// the site equals a fresh evaluation up to orphans, and the carried
    /// counts equal counts taken from scratch.
    #[test]
    fn carried_counts_match_recounted_counts() {
        let program = parse(
            r#"create Index()
               { where Items(x), x -> "next"* -> y, not(y -> "hidden" -> h)
                 create Page(x), Seen(y)
                 link Page(x) -> "reaches" -> Seen(y), Index() -> "item" -> Page(x)
                 collect Items(y), Pages(Page(x)) }
               { where Items(x), x -> "tag" -> t
                 create Tag(t)
                 link Tag(t) -> "item" -> x
                 collect Tags(Tag(t)) }"#,
        )
        .unwrap();
        for seed in 0..16u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut g = Graph::new();
            for i in 0..6 {
                let node = g.add_named_node(&format!("n{i}"));
                if rng.gen_bool(0.5) {
                    g.collect_str("Items", node);
                }
            }
            let db = Database::from_graph(g, IndexLevel::Full);
            let mut site = maintain(&program, &db, Evaluator::new(&db).eval(&program).unwrap());
            for round in 0..8 {
                let data = site.db.graph().clone();
                let n = data.node_count();
                let mut node = || Value::Node(Oid::from_index(rng.gen_range(0..n)));
                let (a, b, c) = (node(), node(), node());
                let from = a.as_node().unwrap();
                let mut delta = GraphDelta::new();
                match rng.gen_range(0..4u32) {
                    // Named: a Skolem node's name spells an anonymous
                    // argument by its oid, which differs in the site graph.
                    0 => delta.add_node(Some(&format!("m{seed}.{round}"))),
                    1 => delta.add_edge(from, "tag", Value::Int(rng.gen_range(0..3i64))),
                    2 => delta.add_edge(from, "hidden", Value::Bool(true)),
                    _ => delta.add_edge(from, "next", b.clone()),
                }
                // Inserted and retracted within the delta.
                delta.add_edge(from, "next", c.clone());
                delta.remove_edge(from, "next", c);
                if let Some(e) = data.edges(b.as_node().unwrap()).first() {
                    let label = data.label_name(e.label).to_owned();
                    delta.remove_edge(b.as_node().unwrap(), &label, e.to.clone());
                }
                if data.members_str("Items").contains(&a) {
                    delta.uncollect("Items", a);
                } else {
                    delta.collect("Items", a);
                }
                let db = Database::from_graph(data, IndexLevel::Full);
                let mut reference = full_reference(&db, &program, &delta);
                // A collection whose every member left stays interned, like
                // an orphaned node: the fresh graph gets the same names.
                for (_, name) in site.result.graph.collections() {
                    reference.graph.intern_collection(name);
                }
                site.apply(&delta).unwrap();
                let ok = equivalent_modulo_orphans(&site.result.graph, &reference.graph);
                assert!(ok, "seed {seed} round {round}: {:?}", delta.ops());
                assert_eq!(site.supports, site.count().unwrap(), "seed {seed} round {round}");
            }
        }
    }
}
