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
//! | [`storage`] | column-store substrate (columns, tables, bulk operators, data generator) |
//! | [`latch`] | instrumented latches, ordered wait queues, hierarchical lock manager, system transactions |
//! | [`cracking`] | serial database cracking: cracker array, AVL table of contents, plain-cracking index, scan/sort baselines |
//! | [`btree`] | B+-tree, partitioned B-tree, adaptive merging, hybrid crack-sort, key-range locks |
//! | [`core`] | **the paper's contribution**: the one `Index`/`ColumnRead` surface every backend implements, concurrent cracker with column/piece latch protocols, conflict avoidance, a data-driven pivot policy for oversized pieces, metrics |
//! | [`parallel`] | multi-core parallel cracking: range-partitioned latch-free workers behind a query router, skew-adaptive re-partitioning |
//! | [`table`] | table-level engine: rowid-preserving crackers per column, multi-column selections via rowid intersection |
//! | [`workload`] | Q1/Q2 + multi-column workload generation, multi-client runner, experiment configs |
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
//! // Crack in parallel across 4 key-range partitions instead, each owned
//! // by one latch-free worker: identical answers.
//! let index = RangePartitionedCracker::new(generate_unique_shuffled(1_000_000, 42), 4);
//! assert_eq!(index.sum(250_000, 260_000).0, sum);
//!
//! // Every backend implements one `Index` surface: contents change
//! // through one `write(WriteOp)`, and the typed `insert`/`delete`
//! // methods are wrappers over it.
//! let (removed, _) = index.write(WriteOp::Delete { value: 255_000 });
//! assert_eq!(removed, 1);
//! assert_eq!(index.sum(250_000, 260_000).0, sum - 255_000);
//! ```

pub use aidx_btree as btree;
pub use aidx_core as core;
pub use aidx_cracking as cracking;
pub use aidx_latch as latch;
pub use aidx_parallel as parallel;
pub use aidx_storage as storage;
pub use aidx_table as table;
pub use aidx_workload as workload;

/// The most commonly used types, re-exported for convenience.
pub mod prelude {
    pub use aidx_btree::{AdaptiveMergeIndex, HybridCrackSort, PartitionedBTree};
    pub use aidx_core::{
        Aggregate, ColumnRead, ConcurrentAdaptiveMerge, ConcurrentCracker, Index, LatchProtocol,
        QueryMetrics, RefinementPolicy, RunMetrics, WriteOp,
    };
    pub use aidx_cracking::{CrackerIndex, ScanBaseline, SortIndex};
    pub use aidx_latch::{LockManager, LockMode, LockResource};
    pub use aidx_parallel::{available_cores, RangePartitionedCracker};
    pub use aidx_storage::{generate_unique_shuffled, Catalog, Column, RowId, Table};
    pub use aidx_table::{CheckedTableEngine, ColumnPredicate, TableBackend, TableEngine, TableOp};
    pub use aidx_workload::{
        run_experiment, AdaptiveEngine, Approach, ExperimentConfig, IndexEngine, MultiClientRunner,
        MultiColumnWorkload, Operation, QuerySpec, WorkloadGenerator,
    };
}

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
        let ranged = RangePartitionedCracker::new(values, 2);
        assert_eq!(ranged.count(1000, 2000).0, 1000);
        assert!(available_cores() >= 1);
    }
}
