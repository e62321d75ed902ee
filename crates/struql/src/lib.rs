//! # strudel-struql
//!
//! STRUQL, the declarative query and restructuring language for
//! semistructured graphs at the heart of the Strudel web-site management
//! system (§2.2 of the paper).
//!
//! A STRUQL *program* is a sequence of blocks; each block has the shape
//!
//! ```text
//! where   C1, …, Ck          -- query stage
//! create  N1, …, Nn          -- construction stage
//! link    S -> "label" -> T, …
//! collect Coll(T), …
//! { nested block }*          -- conjoins with the enclosing where
//! ```
//!
//! The **query stage** (`where`) produces a bindings relation: all
//! assignments of variables to oids and labels of the data graph that
//! satisfy every condition. Conditions are collection membership
//! (`Publications(x)`), edge and path atoms (`x -> R -> y` for a regular
//! path expression `R`, or `x -> l -> y` binding the *arc variable* `l` to
//! edge labels — STRUQL can query the schema), built-in predicates
//! (`isImageFile(q)`), comparisons with dynamic coercion, and `not(…)` over
//! fully bound conditions.
//!
//! The **construction stage** (`create`/`link`/`collect`) builds a new
//! graph using Skolem terms: `AbstractPage(x)` denotes the *same* node for
//! the same binding of `x` wherever it appears. Edges may only originate at
//! nodes created by the program — existing nodes are immutable (§2.2).
//!
//! ## Example: the TextOnly site (§2.2)
//!
//! ```
//! use strudel_repo::{Database, IndexLevel};
//! use strudel_struql::{parse, Evaluator};
//!
//! let g = strudel_graph::ddl::parse(r#"
//!     object home in Root { label : "welcome"; child : &pics; }
//!     object pics { shot : image("p.gif"); caption : "me"; }
//! "#).unwrap();
//! let db = Database::from_graph(g, IndexLevel::Full);
//!
//! let program = parse(r#"
//!     where Root(p), p -> * -> q, q -> l -> qq, not(isImageFile(qq))
//!     create New(p), New(q), New(qq)
//!     link   New(q) -> l -> New(qq)
//!     collect TextOnlyRoot(New(p))
//! "#).unwrap();
//!
//! let result = Evaluator::new(&db).eval(&program).unwrap();
//! assert_eq!(result.graph.members_str("TextOnlyRoot").len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod ast;
pub mod builder;
mod builtins;
mod error;
pub mod eval;
pub mod explain;
mod lexer;
mod parser;
pub mod plan;
mod pretty;
pub mod rpe;
mod token;

pub use ast::{
    Block, BuiltinPred, CmpOp, CollectExpr, Condition, LabelTerm, LinkExpr, PathRegex, PathSpec,
    Program, Term,
};
pub use error::{StruqlError, StruqlResult};
pub use eval::diff::{delta_rows, old_half, DeltaTouch, DiffOutcome, OldHalf, SignedRow};
pub use eval::{where_vars, EvalOptions, EvalResult, Evaluator, PreparedWhere};
pub use explain::{ExplainReport, ExplainStep};
pub use parser::{parse, parse_conjunction, parse_path_regex};
pub use pretty::{pretty, pretty_condition};
pub use token::Span;

/// The worker count a caller once passed to the click-time cache
/// warm-up. Kept only because the perfbench harness still passes it to
/// `SiteService::warm` and its `ClickService` implementations, which
/// ignore it — the warm-up is one crawl on the calling thread; it goes
/// when the harness stops naming it (ROADMAP item 1).
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// The calling thread.
    #[default]
    Sequential,
    /// Once `n` worker threads; now the calling thread too.
    Threads(usize),
}
