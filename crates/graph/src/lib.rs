//! # strudel-graph
//!
//! The semistructured data model underlying the Strudel web-site management
//! system (Fernández et al., SIGMOD 1998).
//!
//! Every level of Strudel — external source snapshots, the integrated *data
//! graph*, and the generated *site graph* — is a **labeled directed graph**
//! in the style of OEM: objects connected by directed edges labeled with
//! string-valued attribute names. Objects are either *nodes* (identified by
//! a unique [`Oid`]) or *atomic values* ([`Value`]) such as integers,
//! strings, URLs, and typed files. Objects are grouped into named
//! *collections*; an object may belong to several collections, and members
//! of one collection need not share a representation (the defining property
//! of semistructured data).
//!
//! The crate provides:
//!
//! * [`Graph`] — the labeled directed multigraph with named collections;
//! * [`Value`] / [`FileKind`] — atomic types that commonly appear in Web
//!   pages, with the dynamic coercion rules of [`coerce`];
//! * [`Label`] / [`LabelInterner`] — interned attribute names so that the
//!   hot comparison paths of query evaluation are integer operations;
//! * [`SkolemTable`] — deterministic Skolem-function object creation used by
//!   STRUQL's `create` clause (same inputs ⇒ same oid);
//! * [`GraphDelta`] — a replayable batch of mutations, the unit of
//!   incremental maintenance and write-ahead logging;
//! * [`traverse`] — reachability and walk utilities used by verification;
//! * [`ddl`] — reader and printer for Strudel's textual data-definition
//!   language, the exchange format between wrappers and the repository.
//!
//! ## Example
//!
//! ```
//! use strudel_graph::{Graph, Value};
//!
//! let mut g = Graph::new();
//! let pub1 = g.add_named_node("pub1");
//! g.add_edge_str(pub1, "title", Value::string("Catching the Boat with Strudel"));
//! g.add_edge_str(pub1, "year", Value::Int(1998));
//! g.collect_str("Publications", pub1);
//!
//! let title = g.attr_str(pub1, "title").next().unwrap();
//! assert_eq!(title.as_str(), Some("Catching the Boat with Strudel"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coerce;
pub mod ddl;
mod delta;
mod graph;
pub mod hash;
mod label;
mod oid;
mod skolem;
pub mod traverse;
mod value;

pub use delta::{Change, DeltaError, DeltaOp, GraphDelta};
pub use graph::{graphs_equivalent, CollectionId, Edge, Graph, InEdge, NodeRef};
pub use label::{Label, LabelInterner};
pub use oid::Oid;
pub use skolem::{write_skolem_name, SkolemKey, SkolemSymbol, SkolemTable};
pub use value::{FileKind, FileRef, Value};
