//! # adaptive-indexing
//!
//! A from-scratch Rust reproduction of **“Concurrency Control for Adaptive
//! Indexing”** (Goetz Graefe, Felix Halim, Stratos Idreos, Harumi Kuno,
//! Stefan Manegold — PVLDB 5(7), 2012).
//!
//! Adaptive indexing builds and refines indexes incrementally, as a side
//! effect of query processing: database cracking partitions a column a
//! little further with every range query, adaptive merging merges the
//! queried key ranges of sorted runs into a final partition. Because those
//! refinements are *purely structural* — they never change the logical
//! contents of the index — they can be coordinated with short-term latches
//! and small system transactions instead of transactional locks, and the
//! pieces created by refinement become an ever finer, workload-adaptive
//! latching granularity.
//!
//! This crate is a facade over the workspace:
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`latch`] | the one latch (`OrderedWaitLatch`: shared/exclusive, bound-ordered write waiters woken middle-first, in-mutex counts), hierarchical lock manager, system transactions |
//! | [`cracking`] | the serial structures and baselines: row ids, cracker array, piece map (table of contents), read-only plain-cracking index, partitioned B-tree, adaptive merging, read-only hybrid crack-sort, key-range locks, scan/sort baselines, scan operators, data generator |
//! | [`core`] | **the paper's contribution**: the concurrent cracker with column/piece latch protocols, conflict avoidance, a data-driven pivot policy for oversized pieces, range partitioning as cracks made at build, pinned snapshots, the one `ColumnRead` surface of a cracker and its pins, metrics |
//! | [`table`] | table-level engine: rowid-preserving crackers per column, multi-column selections via rowid intersection, equi-joins, and the `gates` example that times them against a scan and a nested loop |
//!
//! ## Quick start
//!
//! ```
//! use adaptive_indexing::prelude::*;
//!
//! // 1 million unique keys in random order (the paper uses 100 million).
//! let values = generate_unique_shuffled(1_000_000, 42);
//!
//! // A cracker index shared by concurrent queries, latched per piece.
//! let index = ConcurrentCracker::from_values(values, LatchProtocol::Piece);
//!
//! // Q2: sum over a range; the index refines itself as a side effect.
//! // The keys are exactly 0..1_000_000, so the answer has a closed form.
//! let (sum, metrics) = index.sum(250_000, 260_000);
//! assert_eq!(sum, (250_000..260_000i128).sum());
//! assert!(metrics.cracks_performed > 0, "first query refines the index");
//!
//! // The same range again: the bounds are already cracks, so no policy
//! // performs further refinement.
//! let (same, metrics) = index.sum(250_000, 260_000);
//! assert_eq!(same, sum);
//! assert_eq!(metrics.cracks_performed, 0);
//!
//! // Or crack at 3 range splits when the index is built: 4 key ranges
//! // that concurrent queries go on refining under piece latches.
//! // Identical answers, and a read whose bounds are splits cracks nothing.
//! let values = generate_unique_shuffled(1_000_000, 42);
//! let index = ConcurrentCracker::from_values(values, LatchProtocol::Piece).with_ranges(4);
//! assert_eq!(index.sum(250_000, 260_000).0, sum);
//! let (low, high) = (index.range_splits()[0], index.range_splits()[2]);
//! assert_eq!(index.count(low, high).1.cracks_performed, 0);
//!
//! // Contents change through one `write(WriteOp)`, which the typed
//! // `insert`/`delete` methods wrap; a pin still answers as of the
//! // moment it was opened.
//! let pin = index.pin();
//! let (removed, _) = index.write(WriteOp::Delete { value: 255_000 });
//! assert_eq!(removed, 1);
//! assert_eq!(index.sum(250_000, 260_000).0, sum - 255_000);
//! assert_eq!(pin.sum(250_000, 260_000).0, sum);
//! ```

pub use aidx_core as core;
pub use aidx_cracking as cracking;
pub use aidx_latch as latch;
pub use aidx_table as table;

/// The most commonly used types, re-exported for convenience.
pub mod prelude {
    pub use aidx_core::{
        resolve_ranges, Aggregate, ColumnRead, ConcurrentAdaptiveMerge, ConcurrentCracker,
        LatchProtocol, QueryMetrics, RefinementPolicy, Snapshot, WriteOp,
    };
    pub use aidx_cracking::{
        generate_unique_shuffled, AdaptiveMergeIndex, CrackerIndex, HybridCrackSort,
        PartitionedBTree, RowId, ScanBaseline, SortIndex,
    };
    pub use aidx_latch::{LockManager, LockMode, LockResource};
    pub use aidx_table::{CheckedTableEngine, ColumnPredicate, TableBackend, TableEngine, TableOp};
}

// Unit tests of the concurrent engines (`engine`), and of the op stream
// (`generator`) and scoped-thread clients (`runner`) that the integration
// tests replay against a `BTreeMap` oracle. They share the integration
// tests' helpers, which name this crate as an outside user would.
#[cfg(test)]
extern crate self as adaptive_indexing;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;
#[cfg(test)]
mod engine;
#[cfg(test)]
mod generator;
#[cfg(test)]
mod runner;

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_re_exports_work_together() {
        let values = generate_unique_shuffled(10_000, 1);
        let index = ConcurrentCracker::from_values(values, LatchProtocol::Piece);
        let (count, _) = index.count(1000, 2000);
        assert_eq!(count, 1000);
    }

    #[test]
    fn facade_exposes_the_parallel_subsystem() {
        let values = generate_unique_shuffled(10_000, 1);
        let ranged = ConcurrentCracker::from_values(values, LatchProtocol::Piece).with_ranges(2);
        assert_eq!(ranged.count(1000, 2000).0, 1000);
        assert!(resolve_ranges(0) >= 1);
    }
}
