//! # aidx-parallel — multi-core parallel adaptive indexing
//!
//! The paper's protocols make adaptive indexing *safe* under concurrency;
//! this crate makes it *scale*: refinement itself runs in parallel across
//! cores, following the range-partitioned design of *Main Memory Adaptive
//! Indexing for Multi-core Systems* (Alvarez, Schuhknecht, Dittrich,
//! Richter), and answers the paper's Q1/Q2 range aggregates with results
//! identical to a scan.
//!
//! [`RangePartitionedCracker`] — **range-partitioned cracking**: a
//! one-time parallel range partition gives each worker a disjoint key
//! range which it cracks **latch-free**, exclusive ownership replacing
//! latches altogether; a router sends each query only to the owners its
//! range overlaps, over one channel per owner. Narrow queries touch a
//! single partition and different queries proceed on different cores
//! with zero coordination. The **skew-adaptive** mode
//! ([`RangePartitionedCracker::adaptive`], tuned by [`AdaptiveConfig`])
//! additionally re-partitions online — hot partitions split at crack
//! boundaries, cold neighbours merge — and lets idle owners steal
//! refinement work from loaded ones, so a skewed or drifting workload
//! cannot serialise on one owner.
//!
//! It implements [`aidx_core::Index`] once — one `read`, one `pin`, one
//! `write(`[`aidx_core::WriteOp`]`)` — and inherits every typed read and
//! write from it: every op routes by [`aidx_core::WriteOp::key`] to the
//! one owner of that key.
//!
//! Per-query [`aidx_core::QueryMetrics`] are merged across owners with
//! [`aidx_core::QueryMetrics::merge_parallel`] (work counters summed,
//! wall-clock = critical path), so the experiment harness reports
//! parallel arms in the same breakdown as the serial ones.

#![warn(missing_docs)]

pub mod range_partitioned;

pub use range_partitioned::{AdaptiveConfig, RangePartitionedCracker, Rebalance, RoutingStats};

/// Returns the number of hardware threads, falling back to 4 when the
/// parallelism cannot be determined. Worker-count knobs resolve `0` to
/// this.
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}
