//! # aidx-parallel — multi-core parallel adaptive indexing
//!
//! The paper's protocols make adaptive indexing *safe* under concurrency;
//! this crate makes it *scale*: refinement itself runs in parallel across
//! cores, following *Main Memory Adaptive Indexing for Multi-core
//! Systems* (Alvarez, Schuhknecht, Dittrich, Richter). Two designs are
//! provided, both answering the paper's Q1/Q2 range aggregates with
//! results identical to a scan:
//!
//! * [`ChunkedCracker`] — **parallel-chunked cracking**: the column is
//!   split positionally into per-core chunks, each an independent cracker
//!   with its own table of contents and latch hierarchy (a
//!   [`aidx_core::ConcurrentCracker`] under the paper's protocols).
//!   Queries fan out to every chunk over a shared [`WorkerPool`] and
//!   partial aggregates are summed. Best for early workloads, where
//!   per-query refinement dominates and parallelising it wins.
//! * [`RangePartitionedCracker`] — **range-partitioned cracking**: a
//!   one-time parallel range partition gives each worker a disjoint key
//!   range which it cracks **latch-free**, exclusive ownership replacing
//!   latches altogether; a router sends each query only to the owners its
//!   range overlaps. Best once the workload is known to spread across the
//!   domain: narrow queries touch a single partition and different
//!   queries proceed on different cores with zero coordination. The
//!   **skew-adaptive** mode ([`RangePartitionedCracker::adaptive`],
//!   tuned by [`AdaptiveConfig`]) additionally re-partitions online —
//!   hot partitions split at crack boundaries, cold neighbours merge —
//!   and lets idle owners steal refinement work from loaded ones, so a
//!   skewed or drifting workload cannot serialise on one owner.
//!
//! Both implement [`aidx_core::Index`] once — one `read`, one `pin`, one
//! `write(`[`aidx_core::WriteOp`]`)` — and inherit every typed read and
//! write from it: the chunked index appends inserts to its designated
//! chunk and fans deletes out to every chunk, the range index routes every
//! op by [`aidx_core::WriteOp::key`] to the one owner of that key.
//!
//! Per-query [`aidx_core::QueryMetrics`] are merged across workers with
//! [`aidx_core::QueryMetrics::merge_parallel`] (work counters summed,
//! wall-clock = critical path), so the experiment harness reports
//! parallel arms in the same breakdown as the serial ones.

#![warn(missing_docs)]

pub mod chunked;
pub mod pool;
pub mod range_partitioned;

pub use chunked::ChunkedCracker;
pub use pool::{available_cores, WorkerPool};
pub use range_partitioned::{AdaptiveConfig, RangePartitionedCracker, Rebalance, RoutingStats};
