//! # aidx-table — table-level adaptive indexing
//!
//! The paper's storage model (Section 5.1) is a table of positionally
//! aligned columns; its evaluation, like most of the adaptive-indexing
//! literature, cracks *one* column at a time. This crate closes the gap
//! between the two: a **table engine** that maintains one rowid-preserving
//! concurrent cracker per indexed column (named, positionally aligned
//! `Vec<i64>` columns), over one shared row-id space, and answers
//! **multi-column conjunctive selections**
//!
//! ```sql
//! select count(*) from R where v1 <= A < v2 and w1 <= B < w2 and ...
//! ```
//!
//! by cracking the most selective column first and filtering its rowid
//! set through every further predicate's column read — the workload shape Stochastic Database Cracking (Halim et al.)
//! and Main Memory Adaptive Indexing for Multi-core Systems (Alvarez et
//! al.) evaluate on.
//!
//! Pieces:
//!
//! Every indexed column is one rowid-carrying
//! [`aidx_core::ConcurrentCracker`] — under any latch protocol, or
//! piece-latched and range-partitioned by cracks made when it is built
//! ([`aidx_core::ConcurrentCracker::with_ranges`]) — so every latch
//! protocol and compaction mode of the single-column stack composes per
//! column, and a per-operation cut is one
//! [`aidx_core::ConcurrentCracker::pin`] per column.
//!
//! * [`TableOp`] / [`TableOpResult`] — the table-level operation set:
//!   multi-predicate selects, whole-tuple inserts, key-predicate
//!   deletes, and key/FK equi-joins against another table engine.
//! * [`TableEngine`] — the engine: planner (most-selective-first, each
//!   further predicate's column read `Within` the candidates, aligned
//!   projection when the candidates are few against the rows a predicate
//!   would read — a rule on counts, so plans never depend on timing), a row store for tuple
//!   reconstruction, and positionally aligned writes
//!   (one insert/delete per column per tuple, each under that column's
//!   own latch protocol) serialised by a writer mutex that reads hold
//!   only while they pin their per-operation cut.
//! * [`JoinStrategy`] — the engine's join (`Auto`), which reads both
//!   sides' `(key, rowid)` runs from their join columns at the joint key
//!   window (cracking both, so repeated joins converge) and hashes the
//!   side that returned fewer rows, and a nested-loop oracle baseline.
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
