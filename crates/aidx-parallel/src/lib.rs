//! # aidx-parallel — the range-partitioned column the benchmark names
//!
//! A range partition is a [`ConcurrentCracker`] cracked at balanced
//! key-range splits when it is built ([`ConcurrentCracker::with_ranges`])
//! — the coarse-granular index of Alvarez et al. on one piece
//! directory, which `aidx-core` builds. This crate is pinned surface: it
//! keeps only the two calls `benchmark/` makes of it,
//! [`RangePartitionedCracker::new`] and
//! [`RangePartitionedCracker::select_rowid_set`].

#![warn(missing_docs)]

use aidx_core::{CompactionPolicy, ConcurrentCracker, LatchProtocol, QueryMetrics, RowIdSet};

/// A piece-latched column cracked at range splits when it is built.
#[derive(Debug)]
pub struct RangePartitionedCracker(ConcurrentCracker);

impl RangePartitionedCracker {
    /// Cracks `values` at the splits of `partitions` balanced key ranges,
    /// with the delta bounded at 10% of the main array and merged
    /// incrementally.
    pub fn new(values: Vec<i64>, partitions: usize) -> Self {
        let compaction = CompactionPolicy::fraction(0.1).incremental(8);
        let index = ConcurrentCracker::from_values(values, LatchProtocol::Piece)
            .with_compaction(compaction)
            .with_ranges(partitions);
        RangePartitionedCracker(index)
    }

    /// [`ConcurrentCracker::select_rowid_set`].
    pub fn select_rowid_set(&self, low: i64, high: i64) -> (RowIdSet, QueryMetrics) {
        self.0.select_rowid_set(low, high)
    }
}
