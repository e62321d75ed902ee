//! # strudel-schema
//!
//! Site schemas and the machinery built on them (§2.5 of the paper).
//!
//! A **site schema** is an equivalent reformulation of a STRUQL
//! site-definition query as a labeled graph: one node per Skolem function
//! symbol plus a special `NS` node for non-Skolem targets, and one edge per
//! `link` expression, labeled with the link's label and the conjunction of
//! where clauses governing it (for a link inside nested blocks, the
//! conjunction `Q1 ∧ Q2` of the enclosing clauses — exactly the edge
//! labels of Fig. 7).
//!
//! Site schemas serve three purposes here, as in the paper:
//!
//! * **Visualization** — [`SiteSchema::to_dot`] renders the site's
//!   abstract structure for inspection during iterative design.
//! * **Integrity-constraint verification** ([`constraint`]) — site-graph
//!   constraints like "every PaperPresentation is reachable from a
//!   CategoryPage" are checked *statically* against the schema (a sound
//!   proof procedure based on query-implication between edge guards), and
//!   decided on materialized graphs by running the constraint's body
//!   through STRUQL's evaluator under a loop over its quantifiers.
//! * **Dynamic evaluation** ([`dynamic`]) — the schema decomposes one
//!   site-definition query into per-node incremental queries evaluated at
//!   "click time", each seeded by the visited page's own arguments.
//!
//! The same engine answers the paper's future-work item, incremental
//! updates of site graphs (§7): [`invalidate`] routes the signed rows of
//! [`strudel_struql::delta_rows`] to the pages a delta dirties, and
//! [`dynamic::DynamicSite::apply_delta`] patches each cached page's
//! counted rows with them. A fully crawled engine is the maintained site.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod constraint;
pub mod dynamic;
pub mod invalidate;
mod site_schema;

pub use site_schema::{SchemaEdge, SchemaNode, SiteSchema};
