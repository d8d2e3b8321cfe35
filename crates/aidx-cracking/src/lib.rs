//! # aidx-cracking — database cracking
//!
//! From-scratch implementation of *database cracking* (Idreos, Kersten,
//! Manegold, CIDR 2007) as described and used by *Concurrency Control for
//! Adaptive Indexing* (VLDB 2012), Sections 2 and 5:
//!
//! * [`CrackerArray`] — the auxiliary pair-of-arrays copy of a column that
//!   is physically reorganised ("cracked") as a side effect of queries
//!   (Figure 7), with `crack_in_two` / `crack_in_three` partitioning steps.
//! * [`PieceMap`] / [`Piece`] — the table of contents: the cracks recorded
//!   so far (a `std` ordered map where the paper uses an AVL tree) and the
//!   pieces they delimit, the granule of the piece-latching protocol
//!   (Figure 9). `aidx-core`'s piece directory is built on it.
//! * [`CrackerIndex`] — the single-threaded, read-only cracker index:
//!   `crack_select`, `count` (Q1), `sum` (Q2), row-id selection, and
//!   invariant checking. It is the serial baseline of the experiments;
//!   cracked columns take updates only through `aidx-core`.
//! * [`ScanBaseline`] / [`SortIndex`] — the two non-adaptive baselines of
//!   the evaluation (plain scan and full sort + binary search).
//!
//! The concurrent protocols (column latches, piece latches) live in
//! `aidx-core`, and so does the workload-robust pivot policy of stochastic
//! cracking (reference 16 of the paper), at the one crack body every
//! backend shares; this crate is purely single-threaded, cracks exactly at
//! the query bounds, and is what the sequential arms of the experiments
//! run.

#![warn(missing_docs)]

pub mod baseline;
pub mod cracker_array;
pub mod index;
pub mod piece;

pub use baseline::{ScanBaseline, SortIndex};
pub use cracker_array::CrackerArray;
pub use index::{CrackSelectOutcome, CrackerIndex};
pub use piece::{Piece, PieceLookup, PieceMap};
