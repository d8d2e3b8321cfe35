//! # aidx-core — concurrency control for adaptive indexing
//!
//! This crate is the reproduction of the core contribution of *Concurrency
//! Control for Adaptive Indexing* (Graefe, Halim, Idreos, Kuno, Manegold,
//! PVLDB 5(7), 2012): making index refinement that happens as a side effect
//! of read-only queries safe — and cheap — under concurrency.
//!
//! The two observations the paper builds on:
//!
//! 1. Adaptive indexing changes only the **physical structure** of an index,
//!    never its logical contents, so short-term latches (plus small system
//!    transactions) suffice; transactional locks are never acquired, only
//!    respected.
//! 2. The pieces created by cracking are a natural, **adaptive lock
//!    granularity**: as the workload refines the index, latched regions
//!    shrink and conflicts decay.
//!
//! Main types:
//!
//! * [`ConcurrentCracker`] — a cracker index shared by concurrent query
//!   threads, with column-latch, piece-latch, or latch-free protocols
//!   ([`LatchProtocol`]), conflict avoidance ([`RefinementPolicy`]), bound
//!   re-evaluation after wake-up, and middle-first waiter scheduling. It
//!   is the engine's one index type: range partitioning is the same
//!   cracker built with cracks at key-range splits
//!   ([`ConcurrentCracker::with_ranges`]), each range counting the ops it
//!   serves, and a pin ([`ConcurrentCracker::pin`]) is a [`Snapshot`] at
//!   one epoch. Both answer through [`ColumnRead`], one `read` behind
//!   every typed read.
//! * [`ConcurrentAdaptiveMerge`] — concurrency control for adaptive merging
//!   over a partitioned B-tree, with instantly-committing merge steps that
//!   respect user-transaction key-range locks.
//! * [`PendingDelta`] — the pending-update side structure (Section 4):
//!   inserts and deletes reconciled with the cracked structure under the
//!   same latch protocols, making every index read/write. One record per
//!   row — its place (main array or delta) and its `[born, died)` epochs
//!   — from which every count, row-id view and snapshot answer is folded.
//! * [`CompactionPolicy`] — the bound on the pending delta: past the
//!   threshold the main array is rebuilt from `main + pending −
//!   tombstones` under a quiescing system transaction, and cracks that
//!   already hold a piece's write latch physically reclaim tombstoned rows
//!   (delete-aware piece shrinking).
//! * [`RowIdSet`] — the candidate row ids one table operator hands the
//!   next: a bitmap over their span when dense, a sorted vector when
//!   sparse.
//! * [`QueryMetrics`] — the wait/refinement/conflict breakdown the
//!   paper's evaluation reports (Figures 13–15).
//! * [`SharedCrackerArray`] — the latch-mediated shared cracker array.
//!
//! Crate-internal: `piece_directory` owns what a piece *is* — the value →
//! position tree, one record per piece start (crack values, dead tail,
//! compaction watermark, latch), and the quiesce gate. `concurrent_index`
//! finds and write-latches pieces through it and nowhere else.

#![warn(missing_docs)]

pub mod compaction;
pub mod concurrent_index;
pub mod index;
pub mod key_runs;
pub mod merge_concurrent;
pub mod metrics;
pub mod pending;
mod piece_directory;
pub mod protocol;
pub mod range_partitioned;
pub mod rowid_set;
pub mod shared_array;

/// Re-export of the workspace sync facade so downstream crates
/// (`aidx-table`) can route through it without depending on `aidx-latch`
/// directly.
pub use aidx_latch::dcheck;
pub use aidx_latch::facade;

pub use compaction::{CompactionMode, CompactionPolicy};
pub use concurrent_index::{ConcurrentCracker, ReadAnswer, ReadShape, Snapshot, WriteOp};
pub use index::ColumnRead;
pub use key_runs::{merge_join_pairs, KeyRun, KeyRuns, KeyRunsIter, MergeJoinStats};
pub use merge_concurrent::ConcurrentAdaptiveMerge;
pub use metrics::QueryMetrics;
pub use pending::{DeltaAdjust, DrainedDelta, PairView, PendingDelta};
pub use protocol::{Aggregate, LatchProtocol, RefinementPolicy};
pub use range_partitioned::resolve_ranges;
pub use rowid_set::{intersect_sets, IntersectStrategy, RowIdSet};
pub use shared_array::SharedCrackerArray;
