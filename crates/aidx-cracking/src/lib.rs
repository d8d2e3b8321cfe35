//! # aidx-cracking — the serial structures and baselines
//!
//! The single-threaded substrate of *Concurrency Control for Adaptive
//! Indexing* (VLDB 2012). The paper runs on a narrow slice of MonetDB:
//! dense, fixed-width columns read by bulk operators (Figure 6). Here a
//! column is a plain `Vec<i64>` and a row is its position, a [`RowId`].
//!
//! Database cracking (Idreos, Kersten, Manegold, CIDR 2007; Sections 2
//! and 5 of the paper):
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
//!
//! The B-tree side of adaptive indexing (Sections 2 and 4):
//!
//! * [`PartitionedBTree`] — a single B-tree (the `std` ordered set) holding
//!   many partitions through an artificial leading key field; partitions
//!   appear and disappear by plain record insertion/deletion (Section 4.1),
//!   and a *merge step* is just `move_range` between partitions.
//! * [`AdaptiveMergeIndex`] — adaptive merging: sorted runs on first query,
//!   incremental merging of exactly the queried key ranges afterwards
//!   (Figure 3).
//! * [`HybridCrackSort`] — the hybrid of Figure 4: unsorted initial
//!   partitions that are cracked per query, feeding a sorted final
//!   partition. It is read-only: built once, then refined by queries.
//! * [`KeyRangeLockTable`] — key-range locking on separator keys,
//!   connecting the B-tree structures to the lock manager of `aidx-latch`
//!   (Sections 3.2, 4.3).
//!
//! Baselines and data:
//!
//! * [`ScanBaseline`] / [`SortIndex`] — the two non-adaptive baselines of
//!   the evaluation (plain scan and full sort + binary search).
//! * [`ops`] — operator-at-a-time bulk operators (`select_range`, `fetch`,
//!   `sum`, `count`) mirroring the plan in Figure 6; the tests' scan oracle.
//! * [`generate_unique_shuffled`] — the experiment data: the keys `0..n` in
//!   a random order (the paper uses 100 million of them).
//!
//! The concurrent protocols (column latches, piece latches) live in
//! `aidx-core`, and so does the workload-robust pivot policy of stochastic
//! cracking (reference 16 of the paper), at the one crack body every
//! backend shares; the cracking here is purely single-threaded, cracks
//! exactly at the query bounds, and is what the sequential arms of the
//! experiments run.

#![warn(missing_docs)]

pub mod adaptive_merge;
pub mod baseline;
pub mod cracker_array;
pub mod generator;
pub mod hybrid;
pub mod index;
pub mod keyrange_lock;
pub mod ops;
pub mod partitioned;
pub mod piece;

pub use adaptive_merge::{AdaptiveMergeIndex, MergeStats, UPDATE_PARTITION};
pub use baseline::{ScanBaseline, SortIndex};
pub use cracker_array::CrackerArray;
pub use generator::generate_unique_shuffled;
pub use hybrid::{HybridCrackSort, HybridStats};
pub use index::{CrackSelectOutcome, CrackerIndex};
pub use keyrange_lock::KeyRangeLockTable;
pub use partitioned::{PartKey, PartitionId, PartitionedBTree, FINAL_PARTITION};
pub use piece::{Piece, PieceLookup, PieceMap};

/// A row identifier: the position of a tuple within its table.
///
/// The paper's cracker arrays store (rowID, value) pairs; 32-bit row ids are
/// sufficient for the 100 M row experiments and halve the auxiliary memory.
pub type RowId = u32;

/// Converts a self-assigned row-id counter value to a [`RowId`].
///
/// # Panics
///
/// Panics with "row-id space exhausted" when `n` does not fit a `RowId`,
/// rather than wrapping onto the id of an existing row.
pub fn rowid(n: u64) -> RowId {
    RowId::try_from(n).expect("row-id space exhausted")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "row-id space exhausted")]
    fn rowid_accepts_the_last_id_and_refuses_the_next() {
        assert_eq!(rowid(u64::from(u32::MAX)), RowId::MAX);
        rowid(u64::from(u32::MAX) + 1);
    }
}
