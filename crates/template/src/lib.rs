//! # strudel-template
//!
//! Strudel's HTML-template language and site HTML generator (§2.4 of the
//! paper).
//!
//! A template is plain HTML extended with three expressions (Fig. 5):
//!
//! * `<SFMT attrExpr directives…>` — a **format expression**: renders the
//!   value(s) of an attribute expression. Directives: `EMBED` (render a
//!   referenced object inline instead of linking to its page), `ENUM`
//!   (emit all values), `DELIM="…"`, `UL`/`OL` (emit values as HTML
//!   lists), `ORDER=ascend|descend` with optional `KEY=attr` (sort values;
//!   the paper's answer to ordering in an order-free data model, §6.3).
//! * `<SIF attrExpr> … <SELSE> … </SIF>` — a **conditional**: the branch is
//!   taken when the attribute expression has at least one value —
//!   exactly the test semistructured data needs ("does this publication
//!   have an abstract?").
//! * `<SFOR v IN attrExpr …> … </SFOR>` — an **enumeration**: binds `$v`
//!   to each value.
//!
//! An *attribute expression* is `$var` or a bounded sequence of attribute
//! names (`Paper.title`) navigated from the current object.
//!
//! The [`HtmlGenerator`] walks a site graph from root objects, selects a
//! template for every internal object — (1) an object-specific template,
//! (2) the object's `html-template` attribute, (3) the template of a
//! collection it belongs to, else a built-in default — and produces one
//! HTML page per *realized* object. Whether an object becomes a page or a
//! page component is decided at generation time: a reference rendered
//! without `EMBED` realizes its target as a page.
//!
//! The generator reads a site through [`SiteSource`]: the static build's
//! site graph, or the page views a click-time server computes
//! ([`render_page`] renders one page of either).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
mod error;
mod escape;
mod eval;
mod generate;
mod parser;

pub use ast::{AttrExpr, AttrId, Base, Directives, ListKind, Node, OrderDir, Template};
pub use error::TemplateError;
pub use escape::{escape_html, escape_into};
pub use generate::{
    render_page, FileResolver, HtmlGenerator, Item, Page, PageNamer, Rule, SiteOutput, SiteSource,
    TemplateId, TemplateSet, LINK_TEXT_ATTRS,
};
pub use parser::parse_template;
