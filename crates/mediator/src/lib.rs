//! # strudel-mediator
//!
//! The Strudel mediator: a uniform, integrated view of all data feeding a
//! site, irrespective of where it is stored (§2.1).
//!
//! Two design choices from the paper are reproduced:
//!
//! * **Warehousing** — wrapped sources are materialized into one data
//!   graph in the repository ("this simplified our implementation and
//!   sufficed for our applications, which have small databases"). The
//!   [`Mediator`] keeps each source's wrapped snapshot until that source
//!   is edited, so [`Mediator::build`] after an edit re-wraps only what
//!   changed; [`Mediator::into_warehouse`] is the one-shot build that
//!   caches nothing.
//! * **GAV mappings** — the relationship between the mediated schema and
//!   each source is a query *over the source* producing mediated
//!   collections ("for each relation R in the mediated schema, a query
//!   over the source relations specifies how to obtain R's tuples"). A
//!   source's mapping is a STRUQL program applied to its wrapped graph;
//!   sources without a mapping are imported as-is. GAV was the right fit
//!   because it "was immediately extensible to STRUQL".
//!
//! ```
//! use strudel_mediator::{Mediator, Source, SourceFormat};
//!
//! let mut m = Mediator::new();
//! m.add_source(Source::new(
//!     "bib",
//!     SourceFormat::Bibtex,
//!     "@article{p1, title={T}, year=1998, author={A. Author}}",
//! ));
//! let w = m.build().unwrap();
//! assert_eq!(w.graph.members_str("Publications").len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod source;
mod warehouse;

pub use error::MediatorError;
pub use source::{Source, SourceFormat};
pub use warehouse::{Mediator, SourceReport, Warehouse};
