//! The STRUQL abstract syntax tree.

use crate::token::Span;
use strudel_graph::Value;

/// A whole STRUQL program: one or more blocks evaluated in order against
/// the same input graph, sharing one Skolem table and one output graph.
///
/// Multiple blocks let "different queries create different parts of the
/// same site" (§6.2).
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// Top-level blocks in source order.
    pub blocks: Vec<Block>,
}

impl Program {
    /// All blocks of the program in pre-order (each top-level block
    /// followed by its nested blocks, recursively).
    pub fn blocks_preorder(&self) -> Vec<&Block> {
        let mut out = Vec::new();
        fn walk<'a>(b: &'a Block, out: &mut Vec<&'a Block>) {
            out.push(b);
            for n in &b.nested {
                walk(n, out);
            }
        }
        for b in &self.blocks {
            walk(b, &mut out);
        }
        out
    }

    /// Number of `link` expressions in the whole program — the paper's
    /// proxy measure for a site's structural complexity (§6.1).
    pub fn link_clause_count(&self) -> usize {
        self.blocks_preorder().iter().map(|b| b.link.len()).sum()
    }

    /// All Skolem symbols mentioned anywhere, in first-appearance order.
    pub fn skolem_symbols(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        // Symbol counts are tiny; linear scans beat a set here.
        fn term<'a>(t: &'a Term, out: &mut Vec<&'a str>) {
            if let Term::Skolem { symbol, args } = t {
                if !out.contains(&symbol.as_str()) {
                    out.push(symbol);
                }
                for a in args {
                    term(a, out);
                }
            }
        }
        for b in self.blocks_preorder() {
            for t in &b.create {
                term(t, &mut out);
            }
            for l in &b.link {
                term(&l.src, &mut out);
                term(&l.dst, &mut out);
            }
            for c in &b.collect {
                term(&c.arg, &mut out);
            }
        }
        out
    }
}

/// One query block: a `where` stage, a construction stage, and nested
/// blocks whose `where` clauses conjoin with this one.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Block {
    /// Conditions of the `where` clause (empty = one trivial binding).
    pub where_: Vec<Condition>,
    /// Skolem terms of the `create` clause.
    pub create: Vec<Term>,
    /// Link expressions.
    pub link: Vec<LinkExpr>,
    /// Collect expressions.
    pub collect: Vec<CollectExpr>,
    /// Nested blocks.
    pub nested: Vec<Block>,
    /// Source position of the block start.
    pub span: Span,
}

/// A condition of a `where` clause.
#[derive(Clone, Debug, PartialEq)]
pub enum Condition {
    /// Collection membership: `Publications(x)`.
    Collection {
        /// Collection name.
        name: String,
        /// The member term.
        arg: Term,
        /// Source position.
        span: Span,
    },
    /// A path atom `src -> path -> dst`.
    Path {
        /// Path start (node).
        src: Term,
        /// The path specification: arc variable or regular path expression.
        path: PathSpec,
        /// Path end (node or atomic value).
        dst: Term,
        /// Source position.
        span: Span,
    },
    /// A coercing comparison `lhs op rhs`.
    Compare {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: Term,
        /// Right operand.
        rhs: Term,
        /// Source position.
        span: Span,
    },
    /// A built-in type predicate, e.g. `isImageFile(q)`.
    Builtin {
        /// Which predicate.
        pred: BuiltinPred,
        /// Its argument.
        arg: Term,
        /// Source position.
        span: Span,
    },
    /// Negation of a fully bound condition.
    Not(Box<Condition>, Span),
}

impl Condition {
    /// The source position of this condition.
    pub fn span(&self) -> Span {
        match self {
            Condition::Collection { span, .. }
            | Condition::Path { span, .. }
            | Condition::Compare { span, .. }
            | Condition::Builtin { span, .. }
            | Condition::Not(_, span) => *span,
        }
    }
}

/// Comparison operators; all compare with the dynamic coercion rules of
/// [`strudel_graph::coerce`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The surface syntax of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// Built-in predicates on the run-time type of a value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuiltinPred {
    /// The value is an image file.
    IsImageFile,
    /// The value is a PostScript file.
    IsPostScript,
    /// The value is a text file.
    IsTextFile,
    /// The value is an HTML file.
    IsHtmlFile,
    /// The value is a URL.
    IsUrl,
    /// The value is an integer.
    IsInt,
    /// The value is a string.
    IsString,
    /// The value is an internal node.
    IsNode,
    /// The value is atomic (not an internal node).
    IsAtomic,
}

impl BuiltinPred {
    /// Looks a predicate up by its surface name.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "isImageFile" => BuiltinPred::IsImageFile,
            "isPostScript" => BuiltinPred::IsPostScript,
            "isTextFile" => BuiltinPred::IsTextFile,
            "isHtmlFile" => BuiltinPred::IsHtmlFile,
            "isUrl" => BuiltinPred::IsUrl,
            "isInt" => BuiltinPred::IsInt,
            "isString" => BuiltinPred::IsString,
            "isNode" => BuiltinPred::IsNode,
            "isAtomic" => BuiltinPred::IsAtomic,
            _ => return None,
        })
    }

    /// The surface name of the predicate.
    pub fn name(self) -> &'static str {
        match self {
            BuiltinPred::IsImageFile => "isImageFile",
            BuiltinPred::IsPostScript => "isPostScript",
            BuiltinPred::IsTextFile => "isTextFile",
            BuiltinPred::IsHtmlFile => "isHtmlFile",
            BuiltinPred::IsUrl => "isUrl",
            BuiltinPred::IsInt => "isInt",
            BuiltinPred::IsString => "isString",
            BuiltinPred::IsNode => "isNode",
            BuiltinPred::IsAtomic => "isAtomic",
        }
    }
}

/// The path part of a path atom.
#[derive(Clone, Debug, PartialEq)]
pub enum PathSpec {
    /// An arc variable: matches any single edge and binds the variable to
    /// the edge's label (as a string — labels are string-valued attribute
    /// names). This is how STRUQL queries the schema.
    ArcVar(String),
    /// A regular path expression over edge labels.
    Regex(PathRegex),
}

/// What the label of the one edge a single-edge path atom crosses must
/// be: a named label, any label (`true`), or an arc variable, which binds
/// it. `N` holds the name and `V` the variable — the atom's strings here,
/// a label id and a row slot in a compiled where step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EdgeLabel<N, V> {
    Is(N),
    Any,
    Binds(V),
}

impl PathSpec {
    /// The label of the one edge this path crosses, or, as the error, the
    /// regular path expression when it may cross any other number of
    /// edges. The planner, the where stage and the delta walk all ask this
    /// one question.
    pub(crate) fn single_edge(&self) -> Result<EdgeLabel<&str, &str>, &PathRegex> {
        match self {
            PathSpec::ArcVar(l) => Ok(EdgeLabel::Binds(l)),
            PathSpec::Regex(PathRegex::Label(l)) => Ok(EdgeLabel::Is(l)),
            PathSpec::Regex(PathRegex::Any) => Ok(EdgeLabel::Any),
            PathSpec::Regex(r) => Err(r),
        }
    }
}

/// Regular path expressions: `R := Pred | R.R | R|R | R*` (§2.2), with the
/// common `+` and `?` extensions. `true` denotes any edge label; `*` alone
/// abbreviates `true*`.
#[derive(Clone, Debug, PartialEq)]
pub enum PathRegex {
    /// A single edge whose label equals the literal.
    Label(String),
    /// A single edge with any label (`true`).
    Any,
    /// Concatenation `R . R`.
    Seq(Box<PathRegex>, Box<PathRegex>),
    /// Alternation `R | R`.
    Alt(Box<PathRegex>, Box<PathRegex>),
    /// Kleene star `R*` (zero or more).
    Star(Box<PathRegex>),
    /// One or more `R+`.
    Plus(Box<PathRegex>),
    /// Zero or one `R?`.
    Opt(Box<PathRegex>),
}

/// Terms: variables, constants, and Skolem applications.
#[derive(Clone, Debug, PartialEq)]
pub enum Term {
    /// A variable.
    Var(String),
    /// A constant value.
    Const(Value),
    /// A Skolem term `F(t1, …, tn)`; only legal in the construction stage.
    Skolem {
        /// The function symbol.
        symbol: String,
        /// Argument terms (variables, constants, or nested Skolem terms).
        args: Vec<Term>,
    },
}

impl Term {
    /// Convenience constructor for a variable term.
    pub fn var(name: &str) -> Self {
        Term::Var(name.to_owned())
    }

    /// Collects the names of all variables in the term into `out`.
    pub fn vars<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Term::Var(v) => out.push(v),
            Term::Const(_) => {}
            Term::Skolem { args, .. } => {
                for a in args {
                    a.vars(out);
                }
            }
        }
    }
}

/// The label position of a `link` expression.
#[derive(Clone, Debug, PartialEq)]
pub enum LabelTerm {
    /// A constant label.
    Const(String),
    /// An arc variable bound in the `where` stage — this is what carries
    /// data irregularity into the site graph (§6.2).
    Var(String),
}

/// One `link` expression: `src -> label -> dst`. `src` must be a Skolem
/// term — existing nodes are immutable.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkExpr {
    /// The (new) source node.
    pub src: Term,
    /// The edge label.
    pub label: LabelTerm,
    /// The target.
    pub dst: Term,
    /// Source position.
    pub span: Span,
}

/// One `collect` expression: `Collection(term)`.
#[derive(Clone, Debug, PartialEq)]
pub struct CollectExpr {
    /// The output collection name.
    pub collection: String,
    /// The member term.
    pub arg: Term,
    /// Source position.
    pub span: Span,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_names_round_trip() {
        for p in [
            BuiltinPred::IsImageFile,
            BuiltinPred::IsPostScript,
            BuiltinPred::IsTextFile,
            BuiltinPred::IsHtmlFile,
            BuiltinPred::IsUrl,
            BuiltinPred::IsInt,
            BuiltinPred::IsString,
            BuiltinPred::IsNode,
            BuiltinPred::IsAtomic,
        ] {
            assert_eq!(BuiltinPred::from_name(p.name()), Some(p));
        }
        assert_eq!(BuiltinPred::from_name("Publications"), None);
    }

    #[test]
    fn term_vars_walks_skolem_args() {
        let t = Term::Skolem {
            symbol: "F".into(),
            args: vec![
                Term::var("x"),
                Term::Const(Value::Int(1)),
                Term::Skolem {
                    symbol: "G".into(),
                    args: vec![Term::var("y")],
                },
            ],
        };
        let mut vars = Vec::new();
        t.vars(&mut vars);
        assert_eq!(vars, ["x", "y"]);
    }

    #[test]
    fn single_edge_detection() {
        let re = |r: PathRegex| PathSpec::Regex(r);
        assert_eq!(re(PathRegex::Label("a".into())).single_edge(), Ok(EdgeLabel::Is("a")));
        assert_eq!(re(PathRegex::Any).single_edge(), Ok(EdgeLabel::Any));
        assert_eq!(PathSpec::ArcVar("l".into()).single_edge(), Ok(EdgeLabel::Binds("l")));
        let star = PathRegex::Star(Box::new(PathRegex::Any));
        assert_eq!(re(star.clone()).single_edge(), Err(&star));
    }

    #[test]
    fn cmp_symbols() {
        assert_eq!(CmpOp::Le.symbol(), "<=");
        assert_eq!(CmpOp::Ne.symbol(), "!=");
    }
}
