//! # strudel
//!
//! A reproduction of the **Strudel web-site management system** (Fernández,
//! Florescu, Kang, Levy, Suciu: *Catching the Boat with Strudel*, SIGMOD
//! 1998) as a Rust library.
//!
//! Strudel separates the three tasks of building a web site:
//!
//! 1. **managing the site's data** — wrappers translate external sources
//!    (BibTeX, relational tables, record files, HTML pages) into
//!    semistructured labeled graphs, and a GAV mediator warehouses them
//!    into one *data graph*;
//! 2. **managing the site's structure** — a declarative *site-definition
//!    query* in STRUQL maps the data graph to a *site graph* capturing
//!    both content and structure;
//! 3. **visual presentation** — HTML templates (SFMT/SIF/SFOR) render each
//!    site object as a page or page component.
//!
//! The [`SiteBuilder`] façade drives all three stages, plus the machinery
//! the paper derives from site schemas: static integrity-constraint
//! verification, and dynamic click-time evaluation whose cached pages
//! are patched, not recomputed, when the data changes (the paper's
//! incremental site update, §7).
//!
//! ```
//! use strudel::{SiteBuilder, Source, SourceFormat};
//!
//! let site = SiteBuilder::new("quickstart")
//!     .source(Source::new(
//!         "bib",
//!         SourceFormat::Bibtex,
//!         r#"@article{p1, title={Strudel}, author={M. Fernandez}, year=1998}"#,
//!     ))
//!     .query(r#"
//!         create RootPage()
//!         where Publications(x)
//!         create PaperPage(x)
//!         link RootPage() -> "paper" -> PaperPage(x)
//!         { where x -> l -> v link PaperPage(x) -> l -> v }
//!         collect Roots(RootPage())
//!     "#)
//!     .template("root", r#"<h1>Papers</h1><SFMT paper UL>"#)
//!     .template("paper", r#"<h2><SFMT title></h2><SFMT author ENUM DELIM=", ">"#)
//!     .assign_object("RootPage", "root")
//!     .default_template("paper")
//!     .root_collection("Roots")
//!     .build()
//!     .unwrap();
//!
//! let html = site.render().unwrap();
//! assert_eq!(html.pages.len(), 2);
//! ```
//!
//! The sub-crates are re-exported for direct access: [`graph`], [`repo`],
//! [`struql`], [`template`], [`wrappers`], [`mediator`], [`schema`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod error;
pub mod sites;
mod stats;

pub use builder::{Site, SiteBuilder, Verification};
pub use error::StrudelError;
pub use stats::{count_spec_lines, SiteStats};

pub use strudel_mediator::{Source, SourceFormat};

/// Re-export: the semistructured graph model.
pub use strudel_graph as graph;
/// Re-export: the GAV warehousing mediator.
pub use strudel_mediator as mediator;
/// Re-export: the indexed repository.
pub use strudel_repo as repo;
/// Re-export: site schemas, verification, the click-time engine.
pub use strudel_schema as schema;
/// Re-export: the STRUQL query language.
pub use strudel_struql as struql;
/// Re-export: the HTML-template language and generator.
pub use strudel_template as template;
/// Re-export: the source wrappers.
pub use strudel_wrappers as wrappers;
