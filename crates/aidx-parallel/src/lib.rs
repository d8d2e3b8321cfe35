//! # aidx-parallel — range-partitioned adaptive indexing
//!
//! [`RangePartitionedCracker`] — **range-partitioned cracking**: a
//! one-time range partition splits a column into disjoint key ranges,
//! each a piece-latched [`aidx_core::ConcurrentCracker`]. A router sends
//! each query only to the partitions its range overlaps and runs them on
//! the calling thread, so the parallelism comes from the concurrent
//! queries themselves, kept apart by piece latches — the paper's design,
//! and that of the parallel variants in *Main Memory Adaptive Indexing
//! for Multi-core Systems* (Alvarez, Schuhknecht, Dittrich, Richter).
//! Narrow queries touch a single partition. The routing table is fixed
//! when the index is built, so routing takes no lock and the crate runs
//! no thread of its own.
//!
//! It implements [`aidx_core::Index`] once — one `read`, one `pin`, one
//! `write(`[`aidx_core::WriteOp`]`)` — and inherits every typed read and
//! write from it: every op routes by [`aidx_core::WriteOp::key`] to the
//! one partition owning that key.
//!
//! Per-query [`aidx_core::QueryMetrics`] are summed across the partitions
//! a read visits ([`aidx_core::QueryMetrics::accumulate`]), with `total`
//! the whole read's wall-clock, so the experiment harness reports
//! parallel arms in the same breakdown as the serial ones.

#![warn(missing_docs)]

pub mod range_partitioned;

pub use range_partitioned::RangePartitionedCracker;

/// Returns the number of hardware threads, falling back to 4 when the
/// parallelism cannot be determined. Worker-count knobs resolve `0` to
/// this.
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}
