//! # aidx-table — table-level adaptive indexing
//!
//! The paper's storage model (Section 5.1) is a table of positionally
//! aligned columns; its evaluation, like most of the adaptive-indexing
//! literature, cracks *one* column at a time. This crate closes the gap
//! between the two: a **table engine** that maintains one rowid-preserving
//! concurrent cracker per indexed column of an
//! [`aidx_storage::Table`], over one shared row-id space, and answers
//! **multi-column conjunctive selections**
//!
//! ```sql
//! select count(*) from R where v1 <= A < v2 and w1 <= B < w2 and ...
//! ```
//!
//! by cracking the most selective column first and intersecting rowid
//! sets — the workload shape Stochastic Database Cracking (Halim et al.)
//! and Main Memory Adaptive Indexing for Multi-core Systems (Alvarez et
//! al.) evaluate on.
//!
//! Pieces:
//!
//! Every indexed column is a `Box<dyn `[`aidx_core::Index`]`>`: the one
//! rowid-carrying index surface the serial
//! [`aidx_core::ConcurrentCracker`] and the range-partitioned
//! [`aidx_parallel::RangePartitionedCracker`] each implement once, so
//! every latch protocol and compaction mode of the single-column stack
//! composes per column, and a per-operation cut is one
//! [`aidx_core::Index::pin`] per column.
//!
//! * [`TableOp`] / [`TableOpResult`] — the table-level operation set:
//!   multi-predicate selects, whole-tuple inserts, key-predicate
//!   deletes, and key/FK equi-joins against another table engine.
//! * [`TableEngine`] — the engine: planner (most-selective-first, rowid
//!   intersection, aligned projection for tiny candidate sets), a row
//!   store for tuple reconstruction, and positionally aligned writes
//!   (one insert/delete per column per tuple, each under that column's
//!   own latch protocol) serialised by a writer mutex that reads hold
//!   only while they pin their per-operation cut.
//! * [`JoinStrategy`] — the join's physical strategies: a galloping
//!   leapfrog merge over lazily-sorted `(key, rowid)` runs (cracks both
//!   join columns, so repeated joins converge), a hash build/probe
//!   through the row store, and a nested-loop oracle baseline. `Auto`
//!   picks gallop or hash from measured per-row cost EMAs.
//! * [`CheckedTableEngine`] — the verifying wrapper: replays every op
//!   against a `BTreeMap<RowId, tuple>` oracle, comparing *rowid sets*
//!   (tuple identity), not just counts; joins are verified pair-for-pair
//!   against a dual-oracle nested loop.

#![warn(missing_docs)]

pub mod checked;
pub mod engine;
pub mod ops;

pub use checked::{CheckedTableEngine, TableMismatch};
pub use engine::{TableBackend, TableEngine};
pub use ops::{ColumnPredicate, JoinStrategy, TableOp, TableOpResult};
