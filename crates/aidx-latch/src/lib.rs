//! # aidx-latch — latches, ordered wait queues, and a lock manager
//!
//! Section 3 of *Concurrency Control for Adaptive Indexing* (VLDB 2012)
//! builds its argument on the classic separation summarised in the paper's
//! Table 1: **locks** separate user transactions and protect logical
//! database contents for whole transactions, whereas **latches** separate
//! threads and protect in-memory data structures during short critical
//! sections. Adaptive indexing only changes index *structure*, never index
//! *contents*, so it can rely on latches plus small system transactions and
//! never needs to acquire transactional locks (it must only *respect* those
//! held by user transactions).
//!
//! This crate provides exactly those building blocks:
//!
//! * [`ordered::OrderedWaitLatch`] — the one latch: shared or exclusive,
//!   with its write waiters kept sorted by their crack bound and woken
//!   **middle-first**, the scheduling optimisation of Section 5.3 that
//!   maximises the parallelism available after each release. It counts
//!   its acquisitions, conflicts and wait time inside its own mutex, and
//!   hands them out as a [`stats::LatchStatsSnapshot`], so a run can
//!   report conflict behaviour over a query sequence (Figures 13 and 15).
//! * [`lockmgr::LockManager`] — a hierarchical lock manager (S/X/IS/IX/SIX/U
//!   modes over table → column → piece resources). Adaptive indexing's
//!   system transactions use it only to *verify* that no conflicting user
//!   locks exist before latching (Section 3.3, "Concurrency Control by
//!   Latching").
//! * [`systxn::SystemTransaction`] — the small, instantly-committing system
//!   transactions in which structural refinement runs, with support for
//!   abandoning work under contention (conflict avoidance) and committing a
//!   prefix of the planned work (adaptive early termination).
//!
//! Two correctness-tooling layers ride on top (PR 8):
//!
//! * [`facade`] — the sync-primitive facade every latch-path crate imports
//!   from; under the `check` feature it swaps `parking_lot` for
//!   `aidx-check`'s instrumented model-checking primitives.
//! * [`dcheck`] — a runtime latch-order / seqlock-discipline checker behind
//!   the default-off `dcheck` feature (thread-local acquisition stacks, a
//!   cross-thread witness graph, transaction waits-for cycle detection).

#![warn(missing_docs)]

pub mod dcheck;
pub mod facade;
pub mod lockmgr;
pub mod ordered;
mod rwlatch;
pub mod stats;
pub mod systxn;

pub use lockmgr::{LockManager, LockMode, LockRequest, LockResource, WaitsForEdge};
pub use ordered::{OrderedWaitLatch, WaitOutcome};
pub use rwlatch::RwLatch;
pub use stats::LatchStatsSnapshot;
pub use systxn::{SystemTransaction, SystemTxnManager, SystemTxnOutcome, SystemTxnState};
