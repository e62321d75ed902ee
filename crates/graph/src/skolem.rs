//! Deterministic Skolem-function object creation.
//!
//! STRUQL's `create` clause names new objects with Skolem terms like
//! `AbstractPage(x)`. *By definition, a Skolem function applied to the same
//! inputs produces the same node oid* (§2.2) — this is what makes the
//! construction stage declarative: the same `create` executed for two
//! where-clause rows with equal arguments yields one object, and separate
//! `link` clauses can address the same object from different parts of a
//! query. [`SkolemTable`] is that function: a memo table from
//! `(symbol, argument values)` to the oid it minted.

use crate::hash::FastMap;
use crate::{Graph, Oid, Value};
use std::fmt;
use std::sync::Arc;

/// One Skolem application, as [`SkolemTable::iter`] reports it: the
/// function symbol plus its fully evaluated arguments.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SkolemKey<'t> {
    /// The function symbol, e.g. `AbstractPage`.
    pub symbol: &'t str,
    /// The argument tuple. Zero-ary symbols (e.g. `RootPage()`) have an
    /// empty tuple.
    pub args: &'t [Value],
}

impl fmt::Debug for SkolemKey<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.symbol)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{a}")?;
        }
        f.write_str(")")
    }
}

/// A function symbol interned by [`SkolemTable::symbol`]; only meaningful
/// relative to the table that issued it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SkolemSymbol(usize);

/// The applications of one function symbol: argument tuple → minted oid.
#[derive(Debug, Clone)]
struct Applications {
    symbol: Arc<str>,
    by_args: FastMap<Box<[Value]>, Oid>,
}

/// A memo table realizing Skolem functions over a [`Graph`].
///
/// One table is scoped to one query evaluation (or to one composed pipeline
/// of queries when later queries must address objects created by earlier
/// ones, as in the suciu navigation-bar example of §5.1).
///
/// The table is keyed by symbol first and argument tuple second, so a
/// caller that applies one symbol to many rows resolves the symbol once
/// ([`SkolemTable::symbol`]) and each application is one hash of the
/// arguments; an application that has been seen before allocates nothing.
#[derive(Default, Debug, Clone)]
pub struct SkolemTable {
    symbols: FastMap<Arc<str>, SkolemSymbol>,
    applications: Vec<Applications>,
}

impl SkolemTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a function symbol for [`SkolemTable::apply_symbol`].
    pub fn symbol(&mut self, name: &str) -> SkolemSymbol {
        if let Some(&s) = self.symbols.get(name) {
            return s;
        }
        let symbol: Arc<str> = name.into();
        let s = SkolemSymbol(self.applications.len());
        self.applications.push(Applications {
            symbol: symbol.clone(),
            by_args: FastMap::default(),
        });
        self.symbols.insert(symbol, s);
        s
    }

    /// Applies the Skolem function `symbol` to `args`, minting a node in
    /// `graph` on first application and returning the memoized oid on every
    /// later one. The second component reports whether the node is new.
    ///
    /// Freshly minted nodes receive a symbolic name of the form
    /// `Symbol(arg,…)` when that name is still free in the graph — a
    /// debugging and HTML-naming aid, not part of the semantics.
    pub fn apply(&mut self, graph: &mut Graph, symbol: &str, args: &[Value]) -> (Oid, bool) {
        let symbol = self.symbol(symbol);
        self.apply_symbol(graph, symbol, args)
    }

    /// [`SkolemTable::apply`] for a symbol this table interned.
    pub fn apply_symbol(
        &mut self,
        graph: &mut Graph,
        symbol: SkolemSymbol,
        args: &[Value],
    ) -> (Oid, bool) {
        let applications = &mut self.applications[symbol.0];
        if let Some(&oid) = applications.by_args.get(args) {
            return (oid, false);
        }
        let oid = graph.add_node();
        let mut name = String::with_capacity(applications.symbol.len() + 8 * args.len());
        write_skolem_name(&mut name, graph, &applications.symbol, args);
        graph.name_node(oid, &name);
        applications.by_args.insert(args.into(), oid);
        (oid, true)
    }

    /// The oid previously minted for `symbol(args)`, if any.
    pub fn lookup(&self, symbol: &str, args: &[Value]) -> Option<Oid> {
        let s = self.symbols.get(symbol)?;
        self.applications[s.0].by_args.get(args).copied()
    }

    /// Number of distinct applications so far.
    pub fn len(&self) -> usize {
        self.applications.iter().map(|a| a.by_args.len()).sum()
    }

    /// Whether no applications have happened.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over all `(key, oid)` applications in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (SkolemKey<'_>, Oid)> + '_ {
        self.applications.iter().flat_map(|a| {
            a.by_args.iter().map(|(args, &oid)| {
                let key = SkolemKey {
                    symbol: &a.symbol,
                    args,
                };
                (key, oid)
            })
        })
    }
}

/// Appends the human-readable name of a Skolem node to `out`:
/// `Symbol(arg,…)`, or `Symbol` alone for a nullary one, with node-valued
/// arguments rendered by their symbolic names in `graph` when present.
/// The static build names the nodes it mints this way, and the click-time
/// renderer names pages with it, so link text agrees between the two.
pub fn write_skolem_name(out: &mut String, graph: &Graph, symbol: &str, args: &[Value]) {
    use std::fmt::Write;
    out.push_str(symbol);
    if !args.is_empty() {
        out.push('(');
        for (i, a) in args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match a {
                Value::Node(o) => match graph.node_name(*o) {
                    Some(n) => out.push_str(n),
                    None => {
                        let _ = write!(out, "{o}");
                    }
                },
                other => out.push_str(&other.display_text()),
            }
        }
        out.push(')');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_inputs_same_oid() {
        let mut g = Graph::new();
        let mut t = SkolemTable::new();
        let x = g.add_named_node("pub1");
        let (a, new_a) = t.apply(&mut g, "AbstractPage", &[Value::Node(x)]);
        let (b, new_b) = t.apply(&mut g, "AbstractPage", &[Value::Node(x)]);
        assert_eq!(a, b);
        assert!(new_a);
        assert!(!new_b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn different_args_different_oids() {
        let mut g = Graph::new();
        let mut t = SkolemTable::new();
        let (a, _) = t.apply(&mut g, "YearPage", &[Value::Int(1997)]);
        let (b, _) = t.apply(&mut g, "YearPage", &[Value::Int(1998)]);
        assert_ne!(a, b);
    }

    #[test]
    fn different_symbols_different_oids() {
        let mut g = Graph::new();
        let mut t = SkolemTable::new();
        let (a, _) = t.apply(&mut g, "RootPage", &[]);
        let (b, _) = t.apply(&mut g, "AbstractsPage", &[]);
        assert_ne!(a, b);
    }

    #[test]
    fn lookup_does_not_create() {
        let mut g = Graph::new();
        let mut t = SkolemTable::new();
        assert_eq!(t.lookup("RootPage", &[]), None);
        assert_eq!(g.node_count(), 0);
        let (a, _) = t.apply(&mut g, "RootPage", &[]);
        assert_eq!(t.lookup("RootPage", &[]), Some(a));
    }

    #[test]
    fn minted_nodes_get_readable_names() {
        let mut g = Graph::new();
        let mut t = SkolemTable::new();
        let x = g.add_named_node("pub1");
        let (page, _) = t.apply(&mut g, "AbstractPage", &[Value::Node(x)]);
        assert_eq!(g.node_name(page), Some("AbstractPage(pub1)"));
        let (yp, _) = t.apply(&mut g, "YearPage", &[Value::Int(1998)]);
        assert_eq!(g.node_name(yp), Some("YearPage(1998)"));
        let (root, _) = t.apply(&mut g, "RootPage", &[]);
        assert_eq!(g.node_name(root), Some("RootPage"));
    }

    #[test]
    fn name_clash_leaves_node_anonymous_but_distinct() {
        let mut g = Graph::new();
        g.add_named_node("RootPage"); // squat on the name
        let mut t = SkolemTable::new();
        let (root, new) = t.apply(&mut g, "RootPage", &[]);
        assert!(new);
        assert_eq!(g.node_name(root), None);
        assert_ne!(g.node_by_name("RootPage"), Some(root));
    }

    #[test]
    fn interned_symbols_share_the_memo_with_named_applications() {
        let mut g = Graph::new();
        let mut t = SkolemTable::new();
        let year = t.symbol("YearPage");
        assert_eq!(t.symbol("YearPage"), year);
        assert!(t.is_empty(), "interning a symbol applies nothing");
        let (a, new_a) = t.apply_symbol(&mut g, year, &[Value::Int(1997)]);
        let (b, new_b) = t.apply(&mut g, "YearPage", &[Value::Int(1997)]);
        assert_eq!((a, new_a, new_b), (b, true, false));
        assert_eq!(t.lookup("YearPage", &[Value::Int(1997)]), Some(a));
        assert_eq!(t.lookup("NoSuchSymbol", &[]), None);
        let keys: Vec<String> = t.iter().map(|(k, _)| format!("{k:?}")).collect();
        assert_eq!(keys, ["YearPage(1997)"]);
    }

    #[test]
    fn iter_reports_all_applications() {
        let mut g = Graph::new();
        let mut t = SkolemTable::new();
        t.apply(&mut g, "A", &[Value::Int(1)]);
        t.apply(&mut g, "A", &[Value::Int(2)]);
        t.apply(&mut g, "B", &[]);
        assert_eq!(t.iter().count(), 3);
        assert!(!t.is_empty());
    }
}
