//! # strudel-repo
//!
//! The Strudel data repository: storage and indexing for semistructured
//! graphs.
//!
//! Unlike a relational or object-oriented store, the repository cannot rely
//! on schema information to organize data on disk — there is no schema. The
//! paper's answer (§2.1) is to **fully index both the schema and the
//! data**:
//!
//! * a *schema index* over the names of all collections and attributes in
//!   the graph, with their usage counts: the planner's [`Stats`];
//! * *extension indexes* for each collection and each attribute;
//! * *value indexes* that are **global** to the graph, not per collection
//!   or attribute.
//!
//! "Obviously, maintaining these indexes is expensive, but they provide
//! many benefits to our query language." The [`Database`] type maintains
//! all of them incrementally under its one mutation,
//! [`Database::apply_delta`]; [`IndexLevel`] lets the indexing ablation
//! experiment (E-index) dial them down.
//!
//! Whether a delta applies is decided in one place,
//! [`GraphDelta::validate`](strudel_graph::GraphDelta::validate): the
//! database, the durable store's commit and its WAL replay all apply
//! through [`GraphDelta::apply`](strudel_graph::GraphDelta::apply),
//! which runs that rule first and so applies a delta all or nothing.
//!
//! There is one durable store, and [`Database`] is not it: `Database` is
//! the indexed graph in memory and never sees a file. [`PagedRepo`]
//! ([`pager`]) is the only code that touches disk — a write-ahead log
//! ([`wal`]) of [`GraphDelta`](strudel_graph::GraphDelta)s over a
//! checkpointed graph image, and one recovery matrix. A service that
//! wants durability pairs the two itself: each delta commits to the
//! `PagedRepo` (the durable authority) and is then applied to an
//! `Arc<Database>` (the read path), which at start-up is built from what
//! the store recovered ([`PagedRepo::materialize`] or
//! [`replay_committed`]). [`snapshot`] is the canonical byte encoding of
//! a graph: the store's image format, and the bytes the two are compared
//! by.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod codec;
pub(crate) mod crc;
pub mod dataguide;
mod database;
mod error;
mod index;
pub mod pager;
pub mod snapshot;
mod stats;
pub mod vfs;
pub mod wal;

pub use database::{Database, IndexLevel};
pub use dataguide::{AttributeFact, DataGuide, GuideNode};
pub use error::RepoError;
pub use index::{ExtensionIndex, ValueIndex};
pub use pager::{
    committed_wal_deltas, committed_wal_deltas_with, replay_committed, replay_committed_with,
    PagedRepo, PagerConfig, ReplayedStore,
};
pub use stats::{LabelStats, Stats};
