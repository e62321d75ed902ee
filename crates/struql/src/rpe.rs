//! Regular path expression compilation and evaluation.
//!
//! A [`PathRegex`] is compiled by Thompson construction into a small NFA
//! over edge predicates, then evaluated as a product BFS over
//! `(node, state)` pairs. Zero-length paths are supported (`*` includes
//! the start node itself: "finds all nodes q reachable from the root p,
//! including p itself", §2.2), and a path may *end* at an atomic value —
//! only intermediate stops must be nodes, since atomic values have no
//! out-edges.

use crate::ast::PathRegex;
use std::collections::HashSet;
use strudel_graph::{Graph, Label, Oid, Value};

impl PathRegex {
    /// Whether a traversal matching this regex could ever cross an edge
    /// labelled `label`. Conservative in one direction only: `true` may be
    /// a false positive (the label appears but no full match uses it), but
    /// `false` is exact — no matching path contains such an edge, so a
    /// delta touching only that label cannot change this regex's results.
    pub fn could_traverse(&self, label: &str) -> bool {
        match self {
            PathRegex::Label(l) => l == label,
            PathRegex::Any => true,
            PathRegex::Seq(a, b) | PathRegex::Alt(a, b) => {
                a.could_traverse(label) || b.could_traverse(label)
            }
            PathRegex::Star(inner) | PathRegex::Plus(inner) | PathRegex::Opt(inner) => {
                inner.could_traverse(label)
            }
        }
    }

    /// The mirror-image regex: `r.reversed()` matches the label sequence
    /// `l1 … lk` exactly when `r` matches `lk … l1`. Compiling the reversed
    /// regex lets a bound *destination* be answered by a BFS over the
    /// reverse adjacency index instead of a forward scan from every node.
    pub fn reversed(&self) -> PathRegex {
        match self {
            PathRegex::Label(_) | PathRegex::Any => self.clone(),
            PathRegex::Seq(a, b) => {
                PathRegex::Seq(Box::new(b.reversed()), Box::new(a.reversed()))
            }
            PathRegex::Alt(a, b) => {
                PathRegex::Alt(Box::new(a.reversed()), Box::new(b.reversed()))
            }
            PathRegex::Star(inner) => PathRegex::Star(Box::new(inner.reversed())),
            PathRegex::Plus(inner) => PathRegex::Plus(Box::new(inner.reversed())),
            PathRegex::Opt(inner) => PathRegex::Opt(Box::new(inner.reversed())),
        }
    }
}

/// An edge predicate on a compiled transition. Labels are resolved against
/// a concrete graph: a label name the graph never interned can never match.
#[derive(Clone, Debug)]
enum CompiledPred {
    Any,
    Label(Option<Label>),
}

impl CompiledPred {
    #[inline]
    fn matches(&self, label: Label) -> bool {
        match self {
            CompiledPred::Any => true,
            CompiledPred::Label(l) => *l == Some(label),
        }
    }
}

/// A Thompson NFA over transition predicates `P`, built from a
/// [`PathRegex`]: [`Nfa`] resolves labels against a graph, and the
/// constraint verifier runs its predicates over schema edges by name.
#[derive(Clone, Debug)]
pub struct Thompson<P> {
    /// Labeled transitions per state.
    trans: Vec<Vec<(P, usize)>>,
    /// Epsilon transitions per state.
    eps: Vec<Vec<usize>>,
}

impl<P> Thompson<P> {
    /// The start state.
    pub const START: usize = 0;
    /// The one accepting state.
    pub const ACCEPT: usize = 1;

    /// Thompson construction of `regex`. `pred` gives the predicate of
    /// each one-edge leaf: `Some(name)` for a label, `None` for `true`.
    pub fn new(regex: &PathRegex, mut pred: impl FnMut(Option<&str>) -> P) -> Self {
        let mut t = Thompson {
            trans: vec![Vec::new(), Vec::new()],
            eps: vec![Vec::new(), Vec::new()],
        };
        t.build(regex, &mut pred, Self::START, Self::ACCEPT);
        t
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.trans.len()
    }

    /// The labeled transitions out of state `s`.
    pub fn transitions(&self, s: usize) -> &[(P, usize)] {
        &self.trans[s]
    }

    /// Epsilon closure of `seed`, pushed into `out` and deduplicated
    /// through `mark` (one flag per state; states already marked are
    /// skipped).
    pub fn closure(&self, seed: usize, out: &mut Vec<usize>, mark: &mut [bool]) {
        let mut stack = vec![seed];
        while let Some(s) = stack.pop() {
            if mark[s] {
                continue;
            }
            mark[s] = true;
            out.push(s);
            for &t in &self.eps[s] {
                stack.push(t);
            }
        }
    }

    fn state(&mut self) -> usize {
        self.trans.push(Vec::new());
        self.eps.push(Vec::new());
        self.trans.len() - 1
    }

    /// Thompson construction of `regex` between `from` and `to`.
    fn build<F: FnMut(Option<&str>) -> P>(
        &mut self,
        regex: &PathRegex,
        pred: &mut F,
        from: usize,
        to: usize,
    ) {
        match regex {
            PathRegex::Label(name) => self.trans[from].push((pred(Some(name)), to)),
            PathRegex::Any => self.trans[from].push((pred(None), to)),
            PathRegex::Seq(a, b) => {
                let mid = self.state();
                self.build(a, pred, from, mid);
                self.build(b, pred, mid, to);
            }
            PathRegex::Alt(a, b) => {
                self.build(a, pred, from, to);
                self.build(b, pred, from, to);
            }
            PathRegex::Star(inner) => {
                let hub = self.state();
                self.eps[from].push(hub);
                self.eps[hub].push(to);
                self.build(inner, pred, hub, hub);
            }
            PathRegex::Plus(inner) => {
                // R+ = R . R*
                let mid = self.state();
                self.build(inner, pred, from, mid);
                self.build(&PathRegex::Star(inner.clone()), pred, mid, to);
            }
            PathRegex::Opt(inner) => {
                self.eps[from].push(to);
                self.build(inner, pred, from, to);
            }
        }
    }
}

/// A compiled NFA, specialized to one graph's label interner.
#[derive(Clone, Debug)]
pub struct Nfa(Thompson<CompiledPred>);

const START: usize = Thompson::<CompiledPred>::START;
const ACCEPT: usize = Thompson::<CompiledPred>::ACCEPT;

impl Nfa {
    /// Compiles `regex` against `graph`'s label interner.
    pub fn compile(regex: &PathRegex, graph: &Graph) -> Nfa {
        Nfa(Thompson::new(regex, |name| match name {
            Some(name) => CompiledPred::Label(graph.label(name)),
            None => CompiledPred::Any,
        }))
    }

    /// Number of NFA states (for tests and plan costing).
    pub fn state_count(&self) -> usize {
        self.0.state_count()
    }

    /// All values reachable from `start` along paths matching the regex.
    ///
    /// The result preserves first-discovery order (BFS order), which makes
    /// query results deterministic.
    pub fn eval_from(&self, graph: &Graph, start: &Value) -> Vec<Value> {
        let mut results: Vec<Value> = Vec::new();
        let mut seen_results: HashSet<Value> = HashSet::new();
        let emit = |v: Value, results: &mut Vec<Value>, seen: &mut HashSet<Value>| {
            if seen.insert(v.clone()) {
                results.push(v);
            }
        };

        let mut mark = vec![false; self.state_count()];
        let mut start_states = Vec::new();
        self.0.closure(START, &mut start_states, &mut mark);

        let Some(o) = start.as_node() else {
            // An atomic start can only satisfy a zero-length path.
            if start_states.contains(&ACCEPT) {
                emit(start.clone(), &mut results, &mut seen_results);
            }
            return results;
        };

        // visited[(node, state)] as a flat bitset when small, else a set.
        let mut visited: HashSet<(Oid, usize)> = HashSet::new();
        let mut queue: std::collections::VecDeque<(Oid, usize)> = Default::default();
        for &s in &start_states {
            if visited.insert((o, s)) {
                queue.push_back((o, s));
            }
        }

        let mut closure_buf = Vec::new();
        while let Some((n, s)) = queue.pop_front() {
            if s == ACCEPT {
                emit(Value::Node(n), &mut results, &mut seen_results);
            }
            if self.0.transitions(s).is_empty() {
                continue;
            }
            for e in graph.edges(n) {
                for (pred, t) in self.0.transitions(s) {
                    if !pred.matches(e.label) {
                        continue;
                    }
                    closure_buf.clear();
                    mark.iter_mut().for_each(|m| *m = false);
                    self.0.closure(*t, &mut closure_buf, &mut mark);
                    match &e.to {
                        Value::Node(m) => {
                            for &u in &closure_buf {
                                if visited.insert((*m, u)) {
                                    queue.push_back((*m, u));
                                }
                            }
                        }
                        atomic => {
                            if closure_buf.contains(&ACCEPT) {
                                emit(atomic.clone(), &mut results, &mut seen_results);
                            }
                        }
                    }
                }
            }
        }
        results
    }

    /// Compiles the reversal of `regex` (see [`PathRegex::reversed`]),
    /// suitable for [`Nfa::eval_from_reverse`].
    pub fn compile_reversed(regex: &PathRegex, graph: &Graph) -> Nfa {
        Nfa::compile(&regex.reversed(), graph)
    }

    /// Whether the regex matches the empty path (the start's epsilon
    /// closure contains the accept state).
    pub fn matches_empty(&self) -> bool {
        let mut mark = vec![false; self.state_count()];
        let mut start_states = Vec::new();
        self.0.closure(START, &mut start_states, &mut mark);
        start_states.contains(&ACCEPT)
    }

    /// All *source nodes* with a path matching the original regex ending at
    /// `target`, found by BFS over [`Graph::edges_in`]. `self` must have
    /// been compiled with [`Nfa::compile_reversed`].
    ///
    /// When `target` is an atomic value it has no incoming-edge index;
    /// `atomic_seeds` supplies the `(source, label)` pairs of edges whose
    /// target coerces equal to it (the caller gathers those from the value
    /// index or an edge scan), and the zero-length match emits `target`
    /// itself, mirroring the forward semantics for atomic starts.
    ///
    /// Results preserve first-discovery (BFS) order; intermediate hops are
    /// node-to-node only, exactly as in the forward direction.
    pub fn eval_from_reverse(
        &self,
        graph: &Graph,
        target: &Value,
        atomic_seeds: &[(Oid, Label)],
    ) -> Vec<Value> {
        let mut results: Vec<Value> = Vec::new();
        let mut seen_results: HashSet<Value> = HashSet::new();
        let emit = |v: Value, results: &mut Vec<Value>, seen: &mut HashSet<Value>| {
            if seen.insert(v.clone()) {
                results.push(v);
            }
        };

        let mut mark = vec![false; self.state_count()];
        let mut start_states = Vec::new();
        self.0.closure(START, &mut start_states, &mut mark);

        if start_states.contains(&ACCEPT) {
            // Zero-length path: the target itself is a matching source.
            emit(target.clone(), &mut results, &mut seen_results);
        }

        let mut visited: HashSet<(Oid, usize)> = HashSet::new();
        let mut queue: std::collections::VecDeque<(Oid, usize)> = Default::default();
        let mut closure_buf = Vec::new();

        match target.as_node() {
            Some(o) => {
                for &s in &start_states {
                    if visited.insert((o, s)) {
                        queue.push_back((o, s));
                    }
                }
            }
            None => {
                // Consume the (forward-)final edge into the atomic value:
                // one reverse transition from each start state per seed.
                for &(from, label) in atomic_seeds {
                    for &s in &start_states {
                        for (pred, t) in self.0.transitions(s) {
                            if !pred.matches(label) {
                                continue;
                            }
                            closure_buf.clear();
                            mark.iter_mut().for_each(|m| *m = false);
                            self.0.closure(*t, &mut closure_buf, &mut mark);
                            for &u in &closure_buf {
                                if visited.insert((from, u)) {
                                    queue.push_back((from, u));
                                }
                            }
                        }
                    }
                }
            }
        }

        while let Some((n, s)) = queue.pop_front() {
            if s == ACCEPT {
                emit(Value::Node(n), &mut results, &mut seen_results);
            }
            if self.0.transitions(s).is_empty() {
                continue;
            }
            for ie in graph.edges_in(n) {
                for (pred, t) in self.0.transitions(s) {
                    if !pred.matches(ie.label) {
                        continue;
                    }
                    closure_buf.clear();
                    mark.iter_mut().for_each(|m| *m = false);
                    self.0.closure(*t, &mut closure_buf, &mut mark);
                    for &u in &closure_buf {
                        if visited.insert((ie.from, u)) {
                            queue.push_back((ie.from, u));
                        }
                    }
                }
            }
        }
        results
    }

    /// Whether a path matching the regex leads from `from` to `to`.
    pub fn connects(&self, graph: &Graph, from: &Value, to: &Value) -> bool {
        // Simple and correct; evaluation is bounded by reachable size. A
        // bidirectional search would be faster but this is only used for
        // bound-bound checks, which are rare.
        self.eval_from(graph, from).iter().any(|v| v == to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strudel_graph::FileKind;

    /// root -a-> mid -b-> leaf("end"), root -c-> img(image file),
    /// cycle: mid -a-> root
    fn sample() -> Graph {
        let mut g = Graph::new();
        let root = g.add_named_node("root");
        let mid = g.add_named_node("mid");
        let leaf = g.add_named_node("leaf");
        g.add_edge_str(root, "a", Value::Node(mid));
        g.add_edge_str(mid, "b", Value::Node(leaf));
        g.add_edge_str(leaf, "val", Value::string("end"));
        g.add_edge_str(root, "c", Value::file(FileKind::Image, "x.gif"));
        g.add_edge_str(mid, "a", Value::Node(root));
        g
    }

    fn eval(g: &Graph, r: &PathRegex, from: &str) -> Vec<Value> {
        let nfa = Nfa::compile(r, g);
        let start = Value::Node(g.node_by_name(from).unwrap());
        nfa.eval_from(g, &start)
    }

    fn node(g: &Graph, name: &str) -> Value {
        Value::Node(g.node_by_name(name).unwrap())
    }

    #[test]
    fn single_label_step() {
        let g = sample();
        let r = PathRegex::Label("a".into());
        assert_eq!(eval(&g, &r, "root"), vec![node(&g, "mid")]);
    }

    #[test]
    fn any_step_reaches_atomic_values() {
        let g = sample();
        let r = PathRegex::Any;
        let out = eval(&g, &r, "root");
        assert!(out.contains(&node(&g, "mid")));
        assert!(out.contains(&Value::file(FileKind::Image, "x.gif")));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn star_includes_start_and_handles_cycles() {
        let g = sample();
        let r = PathRegex::Star(Box::new(PathRegex::Any));
        let out = eval(&g, &r, "root");
        assert!(out.contains(&node(&g, "root")), "zero-length path");
        assert!(out.contains(&node(&g, "mid")));
        assert!(out.contains(&node(&g, "leaf")));
        assert!(out.contains(&Value::string("end")));
        assert!(out.contains(&Value::file(FileKind::Image, "x.gif")));
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn seq_concatenates() {
        let g = sample();
        let r = PathRegex::Seq(
            Box::new(PathRegex::Label("a".into())),
            Box::new(PathRegex::Label("b".into())),
        );
        assert_eq!(eval(&g, &r, "root"), vec![node(&g, "leaf")]);
    }

    #[test]
    fn alt_unions() {
        let g = sample();
        let r = PathRegex::Alt(
            Box::new(PathRegex::Label("a".into())),
            Box::new(PathRegex::Label("c".into())),
        );
        let out = eval(&g, &r, "root");
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn plus_requires_at_least_one() {
        let g = sample();
        let r = PathRegex::Plus(Box::new(PathRegex::Label("a".into())));
        let out = eval(&g, &r, "root");
        // a, aa, aaa… cycles root->mid->root->…
        assert!(out.contains(&node(&g, "mid")));
        assert!(out.contains(&node(&g, "root")));
        assert_eq!(out.len(), 2);
        // but not zero-length only: from leaf (no 'a' edges) nothing.
        assert!(eval(&g, &r, "leaf").is_empty());
    }

    #[test]
    fn opt_is_zero_or_one() {
        let g = sample();
        let r = PathRegex::Opt(Box::new(PathRegex::Label("a".into())));
        let out = eval(&g, &r, "root");
        assert!(out.contains(&node(&g, "root")));
        assert!(out.contains(&node(&g, "mid")));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn unknown_label_matches_nothing() {
        let g = sample();
        let r = PathRegex::Label("never-interned".into());
        assert!(eval(&g, &r, "root").is_empty());
    }

    #[test]
    fn atomic_start_only_matches_zero_length() {
        let g = sample();
        let star = Nfa::compile(&PathRegex::Star(Box::new(PathRegex::Any)), &g);
        let v = Value::string("atom");
        assert_eq!(star.eval_from(&g, &v), vec![v.clone()]);
        let one = Nfa::compile(&PathRegex::Any, &g);
        assert!(one.eval_from(&g, &v).is_empty());
    }

    #[test]
    fn connects_checks_pairs() {
        let g = sample();
        let star = Nfa::compile(&PathRegex::Star(Box::new(PathRegex::Any)), &g);
        assert!(star.connects(&g, &node(&g, "root"), &Value::string("end")));
        assert!(!star.connects(&g, &node(&g, "leaf"), &node(&g, "root")));
    }

    #[test]
    fn could_traverse_is_exact_on_false() {
        let rel_star = PathRegex::Star(Box::new(PathRegex::Label("rel".into())));
        assert!(rel_star.could_traverse("rel"));
        assert!(!rel_star.could_traverse("title"));

        let seq = PathRegex::Seq(
            Box::new(PathRegex::Label("a".into())),
            Box::new(PathRegex::Plus(Box::new(PathRegex::Label("b".into())))),
        );
        assert!(seq.could_traverse("a"));
        assert!(seq.could_traverse("b"));
        assert!(!seq.could_traverse("c"));

        let any = PathRegex::Opt(Box::new(PathRegex::Any));
        assert!(any.could_traverse("anything"));

        let alt = PathRegex::Alt(
            Box::new(PathRegex::Label("x".into())),
            Box::new(PathRegex::Label("y".into())),
        );
        assert!(alt.could_traverse("y"));
        assert!(!alt.could_traverse("z"));
    }

    #[test]
    fn reversed_mirrors_sequences() {
        let r = PathRegex::Seq(
            Box::new(PathRegex::Label("a".into())),
            Box::new(PathRegex::Star(Box::new(PathRegex::Label("b".into())))),
        );
        let rev = r.reversed();
        assert_eq!(
            rev,
            PathRegex::Seq(
                Box::new(PathRegex::Star(Box::new(PathRegex::Label("b".into())))),
                Box::new(PathRegex::Label("a".into())),
            )
        );
        assert_eq!(rev.reversed(), r, "reversal is an involution");
    }

    #[test]
    fn reverse_eval_agrees_with_forward_on_node_targets() {
        let g = sample();
        let regexes = vec![
            PathRegex::Label("a".into()),
            PathRegex::Any,
            PathRegex::Star(Box::new(PathRegex::Any)),
            PathRegex::Plus(Box::new(PathRegex::Label("a".into()))),
            PathRegex::Seq(
                Box::new(PathRegex::Label("a".into())),
                Box::new(PathRegex::Label("b".into())),
            ),
            PathRegex::Opt(Box::new(PathRegex::Label("a".into()))),
        ];
        for r in &regexes {
            let fwd = Nfa::compile(r, &g);
            let rev = Nfa::compile_reversed(r, &g);
            for target in g.node_oids() {
                let tv = Value::Node(target);
                let mut expect: Vec<Value> = g
                    .node_oids()
                    .filter(|&s| fwd.eval_from(&g, &Value::Node(s)).contains(&tv))
                    .map(Value::Node)
                    .collect();
                let mut got = rev.eval_from_reverse(&g, &tv, &[]);
                let key = |v: &Value| v.as_node().unwrap().index();
                got.sort_by_key(key);
                expect.sort_by_key(key);
                assert_eq!(got, expect, "regex {r:?} target {target:?}");
            }
        }
    }

    #[test]
    fn reverse_eval_atomic_target_uses_seeds() {
        let g = sample();
        let star = Nfa::compile_reversed(&PathRegex::Star(Box::new(PathRegex::Any)), &g);
        let leaf = g.node_by_name("leaf").unwrap();
        let val = g.label("val").unwrap();
        let out = star.eval_from_reverse(&g, &Value::string("end"), &[(leaf, val)]);
        // Zero-length match surfaces the atomic itself, then every node
        // that reaches it: leaf directly, mid and root transitively.
        assert_eq!(out[0], Value::string("end"));
        assert!(out.contains(&node(&g, "leaf")));
        assert!(out.contains(&node(&g, "mid")));
        assert!(out.contains(&node(&g, "root")));
        assert_eq!(out.len(), 4);
        // Without seeds, only the zero-length match remains.
        assert_eq!(
            star.eval_from_reverse(&g, &Value::string("end"), &[]),
            vec![Value::string("end")]
        );
    }

    #[test]
    fn matches_empty_detects_nullable_regexes() {
        let g = sample();
        assert!(Nfa::compile(&PathRegex::Star(Box::new(PathRegex::Any)), &g).matches_empty());
        assert!(Nfa::compile(&PathRegex::Opt(Box::new(PathRegex::Any)), &g).matches_empty());
        assert!(!Nfa::compile(&PathRegex::Any, &g).matches_empty());
        assert!(!Nfa::compile(&PathRegex::Plus(Box::new(PathRegex::Any)), &g).matches_empty());
    }

    #[test]
    fn nested_star_terminates() {
        let g = sample();
        let r = PathRegex::Star(Box::new(PathRegex::Star(Box::new(PathRegex::Label(
            "a".into(),
        )))));
        let out = eval(&g, &r, "root");
        assert!(out.contains(&node(&g, "root")));
        assert!(out.contains(&node(&g, "mid")));
    }
}
