//! # aidx-parallel — range-partitioned adaptive indexing
//!
//! [`RangePartitionedCracker`] — **range-partitioned cracking** as cracks
//! made at build: a column is one piece-latched
//! [`aidx_core::ConcurrentCracker`], cracked at balanced key-range splits
//! when it is built ([`aidx_core::ConcurrentCracker::with_cracks`]), so
//! every read starts from a coarse range partitioning and refines inside
//! it — the coarse-granular index of *Main Memory Adaptive Indexing for
//! Multi-core Systems* (Alvarez, Schuhknecht, Dittrich, Richter) on one
//! piece directory. The parallelism comes from the concurrent queries
//! themselves, kept apart by piece latches, as in the paper; the crate
//! runs no thread of its own.
//!
//! It implements [`aidx_core::Index`] once — one `read`, one `pin`, one
//! `write(`[`aidx_core::WriteOp`]`)` — each the cracker's own, and
//! inherits every typed read and write from it. A pin is one epoch. Each
//! op is also counted in the key ranges it touches, which is the
//! [`aidx_obs::StructureProbe::partition_load`] it reports.

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
