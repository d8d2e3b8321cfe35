//! # aidx-workload — workload generation and the multi-client experiment runner
//!
//! Reproduces the experimental methodology of *Concurrency Control for
//! Adaptive Indexing* (VLDB 2012), Section 6:
//!
//! * [`QuerySpec`] — the paper's Q1 (count) and Q2 (sum) range-query
//!   templates, with selectivity expressed as a fraction of the key domain.
//! * [`Operation`] — the read/write superset: selects plus inserts and
//!   deletes (Section 4's update workloads).
//! * [`WorkloadGenerator`] — deterministic random / sequential / skewed
//!   query sequences, identical across every experiment arm, with a
//!   write-ratio knob for mixed read/write runs.
//! * [`AdaptiveEngine`] and its implementations — the approaches under
//!   test: plain scan, full sort, adaptive merging, and one
//!   [`IndexEngine`] over an [`aidx_core::ConcurrentCracker`]: cracking
//!   under column or piece latches, and the range-partitioned arm, a
//!   piece-latched cracker cracked at key-range splits when it is built.
//!   Every arm executes
//!   reads *and* writes through the same `execute(Operation)` entry point.
//! * [`MultiColumnWorkload`] — conjunctive multi-column selections with
//!   per-column selectivity knobs (plus tuple inserts and key deletes)
//!   for the `aidx-table` engines (serial and range-partitioned arms,
//!   `aidx_table::TableBackend`).
//! * [`JoinWorkload`] — a dimension/fact table pair with key/FK
//!   structure (uniform or zipfian-skewed foreign keys, dense or strided
//!   dimension keys) plus deterministic join-query sequences for the
//!   equi-join benchmarks.
//! * [`MultiClientRunner`] — replays one operation sequence with N
//!   concurrent clients against a shared engine and reports the wall-clock
//!   time of the last client to finish, plus per-op metric breakdowns.
//! * [`ExperimentConfig`] / [`run_experiment`] — one cell of a figure's
//!   parameter sweep.

#![warn(missing_docs)]

pub mod engine;
pub mod experiment;
pub mod generator;
pub mod join_workload;
pub mod query;
pub mod runner;
pub mod table_workload;

pub use engine::{
    oracle_apply, AdaptiveEngine, CheckedEngine, IndexEngine, MergeEngine, Mismatch, OpResult,
    ScanEngine, SortEngine,
};
pub use experiment::{
    run_experiment, run_experiment_with_engine, Approach, ExperimentConfig, DEFAULT_QUERIES,
    DEFAULT_ROWS, DEFAULT_RUN_SIZE,
};
pub use generator::{AccessPattern, WorkloadGenerator};
pub use join_workload::{
    JoinQuery, JoinWorkload, DIM_ATTR_COL, DIM_KEY_COL, FACT_FK_COL, FACT_VAL_COL,
};
pub use query::{selectivity_to_width, Operation, QuerySpec};
pub use runner::MultiClientRunner;
pub use table_workload::MultiColumnWorkload;
