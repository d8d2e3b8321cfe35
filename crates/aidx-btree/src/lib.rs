//! # aidx-btree — partitioned B-trees, adaptive merging, hybrid crack-sort
//!
//! The B-tree side of adaptive indexing (Sections 2 and 4 of *Concurrency
//! Control for Adaptive Indexing*, VLDB 2012):
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

#![warn(missing_docs)]

pub mod adaptive_merge;
pub mod hybrid;
pub mod keyrange_lock;
pub mod partitioned;

pub use adaptive_merge::{AdaptiveMergeIndex, MergeStats, UPDATE_PARTITION};
pub use hybrid::{HybridCrackSort, HybridStats};
pub use keyrange_lock::KeyRangeLockTable;
pub use partitioned::{PartKey, PartitionId, PartitionedBTree, FINAL_PARTITION};
