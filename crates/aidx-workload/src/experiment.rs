//! Typed experiment configurations for the paper's figures.
//!
//! Each figure of the evaluation section is a sweep over a small set of
//! parameters — approach, number of clients, selectivity, query type — run
//! against the same data and the same query sequence. [`ExperimentConfig`]
//! captures one cell of such a sweep and [`run_experiment`] executes it,
//! so the `aidx-bench` figure binaries are thin loops over configs.
//!
//! The defaults are scaled down from the paper's 100 M-row table so the
//! whole suite runs in seconds on a laptop or CI container; every harness
//! accepts a row-count override to reproduce the original scale.

use crate::engine::{AdaptiveEngine, IndexEngine, MergeEngine, ScanEngine, SortEngine};
use crate::generator::WorkloadGenerator;
use crate::query::{Operation, QuerySpec};
use crate::runner::MultiClientRunner;
use aidx_core::{
    Aggregate, CompactionPolicy, ConcurrentCracker, Index, LatchProtocol, RefinementPolicy,
    RunMetrics,
};
use aidx_parallel::{AdaptiveConfig, RangePartitionedCracker};
use aidx_storage::generate_unique_shuffled;
use std::str::FromStr;
use std::sync::Arc;

/// Default number of rows used by the figure harnesses (the paper uses
/// 100 000 000; see DESIGN.md for the substitution rationale).
pub const DEFAULT_ROWS: usize = 10_000_000;

/// Default number of queries per run (the paper uses 1024).
pub const DEFAULT_QUERIES: usize = 1024;

/// Seed used for data generation unless overridden.
pub const DEFAULT_DATA_SEED: u64 = 0xA1D1;

/// Seed used for query generation unless overridden.
pub const DEFAULT_QUERY_SEED: u64 = 0xC0FFEE;

/// Default run size for the adaptive-merge arm (used by
/// [`Approach::from_str`] when no explicit size is given).
pub const DEFAULT_RUN_SIZE: usize = 1024;

/// Which approach an experiment arm uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Approach {
    /// Plain scans, no index.
    Scan,
    /// Full index built with the first query (sort + binary search).
    Sort,
    /// Database cracking under the given latch protocol.
    Crack(LatchProtocol),
    /// Database cracking with conflict avoidance (skip refinement under
    /// contention) — an extension arm used by the ablation bench.
    CrackSkipOnContention(LatchProtocol),
    /// Adaptive merging over a partitioned B-tree with the given run size.
    AdaptiveMerge {
        /// Records per initial sorted run.
        run_size: usize,
    },
    /// Range-partitioned latch-free parallel cracking: each worker owns a
    /// disjoint key range; a router fans queries out to the overlapping
    /// owners (`aidx-parallel`).
    ParallelRange {
        /// Number of partitions (0 = one per available core).
        partitions: usize,
    },
    /// Skew-adaptive range-partitioned cracking: partitions split and
    /// merge online under observed load, and idle owners steal
    /// refinement work from loaded ones (`aidx-parallel`, default
    /// [`aidx_parallel::AdaptiveConfig`]).
    ParallelRangeAdaptive {
        /// Number of initial partitions (0 = one per available core).
        partitions: usize,
    },
}

impl Approach {
    /// Stable label used in reports.
    pub fn label(&self) -> String {
        match self {
            Approach::Scan => "scan".to_string(),
            Approach::Sort => "sort".to_string(),
            Approach::Crack(p) => format!("crack-{p}"),
            Approach::CrackSkipOnContention(p) => format!("crack-{p}-skip"),
            Approach::AdaptiveMerge { .. } => "adaptive-merge".to_string(),
            Approach::ParallelRange { partitions } => {
                format!("parallel-range-{}", effective_workers(*partitions))
            }
            Approach::ParallelRangeAdaptive { partitions } => {
                format!("parallel-range-adaptive-{}", effective_workers(*partitions))
            }
        }
    }

    /// Every standard experiment arm, with default knobs (worker count `0`
    /// = one per core). The single source of truth for "all arms" sweeps —
    /// benches, tests, and figure binaries iterate this instead of
    /// repeating the list.
    pub fn all() -> Vec<Approach> {
        vec![
            Approach::Scan,
            Approach::Sort,
            Approach::Crack(LatchProtocol::Column),
            Approach::Crack(LatchProtocol::Piece),
            Approach::CrackSkipOnContention(LatchProtocol::Piece),
            Approach::AdaptiveMerge {
                run_size: DEFAULT_RUN_SIZE,
            },
            Approach::ParallelRange { partitions: 0 },
            Approach::ParallelRangeAdaptive { partitions: 0 },
        ]
    }
}

fn parse_protocol(s: &str) -> Option<LatchProtocol> {
    match s {
        "none" => Some(LatchProtocol::None),
        "column" => Some(LatchProtocol::Column),
        "piece" => Some(LatchProtocol::Piece),
        _ => None,
    }
}

impl FromStr for Approach {
    type Err = String;

    /// Parses the labels [`Approach::label`] produces (plus a few spelled
    /// variants), e.g. `scan`, `crack-piece`, `crack-column-skip`,
    /// `adaptive-merge-512`, `parallel-range-4`, `parallel-range`
    /// (worker count omitted = one per core).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim().to_ascii_lowercase();
        let err = || format!("unknown approach '{s}'");
        match s.as_str() {
            "scan" => return Ok(Approach::Scan),
            "sort" => return Ok(Approach::Sort),
            "adaptive-merge" => {
                return Ok(Approach::AdaptiveMerge {
                    run_size: DEFAULT_RUN_SIZE,
                })
            }
            _ => {}
        }
        if let Some(rest) = s.strip_prefix("adaptive-merge-") {
            let run_size: usize = rest.parse().map_err(|_| err())?;
            return Ok(Approach::AdaptiveMerge {
                run_size: run_size.max(1),
            });
        }
        if let Some(rest) = s.strip_prefix("crack-") {
            let (proto, skip) = match rest.strip_suffix("-skip") {
                Some(proto) => (proto, true),
                None => (rest, false),
            };
            let protocol = parse_protocol(proto).ok_or_else(err)?;
            return Ok(if skip {
                Approach::CrackSkipOnContention(protocol)
            } else {
                Approach::Crack(protocol)
            });
        }
        if s == "parallel-range" {
            return Ok(Approach::ParallelRange { partitions: 0 });
        }
        if s == "parallel-range-adaptive" {
            return Ok(Approach::ParallelRangeAdaptive { partitions: 0 });
        }
        if let Some(rest) = s.strip_prefix("parallel-range-adaptive-") {
            let partitions: usize = rest.parse().map_err(|_| err())?;
            return Ok(Approach::ParallelRangeAdaptive { partitions });
        }
        if let Some(rest) = s.strip_prefix("parallel-range-") {
            let partitions: usize = rest.parse().map_err(|_| err())?;
            return Ok(Approach::ParallelRange { partitions });
        }
        Err(err())
    }
}

/// Resolves a worker-count knob: `0` means one worker per available core.
fn effective_workers(requested: usize) -> usize {
    if requested == 0 {
        aidx_parallel::available_cores()
    } else {
        requested
    }
}

/// One cell of an experiment sweep.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Number of rows in the generated column.
    pub rows: usize,
    /// Number of queries in the (shared) sequence.
    pub queries: usize,
    /// Number of concurrent clients replaying the sequence.
    pub clients: usize,
    /// Selectivity of every query (fraction of the key domain).
    pub selectivity: f64,
    /// Q1 (count) or Q2 (sum).
    pub aggregate: Aggregate,
    /// Fraction of operations that are writes (half inserts, half
    /// deletes); `0.0` reproduces the paper's read-only workloads.
    pub write_ratio: f64,
    /// Delta compaction threshold in rows: adaptive arms rebuild their
    /// main structure once the pending delta reaches this many rows
    /// (per partition for `ParallelRange`).
    /// `0` disables compaction, reproducing the unbounded pre-compaction
    /// delta — except for `ParallelRange`, whose partition owners have
    /// always bounded their deltas (merge-on-next-crack historically,
    /// the bounded incremental default now). Arms without a pending
    /// delta (scan, sort, adaptive-merge) ignore the knob.
    pub compaction_threshold: u64,
    /// Pieces per incremental compaction walk step: `> 0` switches the
    /// triggered compaction from the quiescing whole-array rebuild to the
    /// piece-at-a-time walk (readers never block; the exclusive gate is
    /// only the no-holes fallback). `0` keeps the quiescing rebuild.
    /// Meaningless unless `compaction_threshold > 0`.
    pub incremental_pieces: usize,
    /// Route every select of an indexed arm through a pin
    /// ([`aidx_core::Index::pin`]) opened for it alone: the select answers
    /// frozen at the epoch it started at and releases the pin. Arms
    /// without an [`aidx_core::Index`] (scan, sort, adaptive-merge) answer
    /// at the latest state, unchanged.
    pub snapshot_scans: bool,
    /// The approach under test.
    pub approach: Approach,
    /// Seed for the data permutation.
    pub data_seed: u64,
    /// Seed for the query sequence.
    pub query_seed: u64,
}

impl ExperimentConfig {
    /// A config with the paper's defaults (scaled rows), ready to be
    /// customised field by field.
    pub fn new(approach: Approach) -> Self {
        ExperimentConfig {
            rows: DEFAULT_ROWS,
            queries: DEFAULT_QUERIES,
            clients: 1,
            selectivity: 0.0001,
            aggregate: Aggregate::Sum,
            write_ratio: 0.0,
            compaction_threshold: 0,
            incremental_pieces: 0,
            snapshot_scans: false,
            approach,
            data_seed: DEFAULT_DATA_SEED,
            query_seed: DEFAULT_QUERY_SEED,
        }
    }

    /// Sets the number of rows (builder style).
    pub fn rows(mut self, rows: usize) -> Self {
        self.rows = rows;
        self
    }

    /// Sets the number of queries (builder style).
    pub fn queries(mut self, queries: usize) -> Self {
        self.queries = queries;
        self
    }

    /// Sets the number of clients (builder style).
    pub fn clients(mut self, clients: usize) -> Self {
        self.clients = clients;
        self
    }

    /// Sets the selectivity (builder style).
    pub fn selectivity(mut self, selectivity: f64) -> Self {
        self.selectivity = selectivity;
        self
    }

    /// Sets the aggregate / query type (builder style).
    pub fn aggregate(mut self, aggregate: Aggregate) -> Self {
        self.aggregate = aggregate;
        self
    }

    /// Sets the write ratio (builder style).
    pub fn write_ratio(mut self, write_ratio: f64) -> Self {
        self.write_ratio = write_ratio;
        self
    }

    /// Sets the delta compaction threshold (builder style; 0 disables).
    pub fn compaction_threshold(mut self, compaction_threshold: u64) -> Self {
        self.compaction_threshold = compaction_threshold;
        self
    }

    /// Sets the incremental compaction step budget (builder style; 0 =
    /// quiescing rebuilds).
    pub fn incremental_pieces(mut self, incremental_pieces: usize) -> Self {
        self.incremental_pieces = incremental_pieces;
        self
    }

    /// Routes selects through the snapshot path (builder style).
    pub fn snapshot_scans(mut self, snapshot_scans: bool) -> Self {
        self.snapshot_scans = snapshot_scans;
        self
    }

    /// The compaction policy the threshold + incremental knobs describe.
    pub fn compaction_policy(&self) -> CompactionPolicy {
        let policy = if self.compaction_threshold > 0 {
            CompactionPolicy::rows(self.compaction_threshold)
        } else {
            CompactionPolicy::disabled()
        };
        if self.incremental_pieces > 0 {
            policy.incremental(self.incremental_pieces)
        } else {
            policy
        }
    }

    fn generator(&self) -> WorkloadGenerator {
        WorkloadGenerator::new(
            self.rows as u64,
            self.selectivity,
            self.aggregate,
            self.query_seed,
        )
    }

    /// Generates the query sequence this config describes (ignores the
    /// write ratio; see [`Self::generate_operations`] for mixed runs).
    pub fn generate_queries(&self) -> Vec<QuerySpec> {
        self.generator().generate(self.queries)
    }

    /// Generates the operation sequence this config describes, honouring
    /// the write ratio.
    pub fn generate_operations(&self) -> Vec<Operation> {
        self.generator()
            .generate_mixed(self.queries, self.write_ratio)
    }

    /// Builds the engine this config describes over freshly generated data.
    pub fn build_engine(&self) -> Arc<dyn AdaptiveEngine> {
        let values = generate_unique_shuffled(self.rows, self.data_seed);
        self.build_engine_with(values)
    }

    /// Builds the engine over caller-provided data (so a sweep can reuse one
    /// generated column across arms). The engine reports the arm's
    /// [`Approach::label`] as its name.
    pub fn build_engine_with(&self, values: Vec<i64>) -> Arc<dyn AdaptiveEngine> {
        let compaction = self.compaction_policy();
        match self.approach {
            Approach::Scan => Arc::new(ScanEngine::new(values)),
            Approach::Sort => Arc::new(SortEngine::new(values)),
            Approach::Crack(protocol) => self.index_arm(
                ConcurrentCracker::from_values(values, protocol).with_compaction(compaction),
            ),
            Approach::CrackSkipOnContention(protocol) => self.index_arm(
                ConcurrentCracker::from_values(values, protocol)
                    .with_policy(RefinementPolicy::SkipOnContention)
                    .with_compaction(compaction),
            ),
            Approach::AdaptiveMerge { run_size } => Arc::new(MergeEngine::new(values, run_size)),
            Approach::ParallelRange { partitions } => {
                // Threshold 0 keeps the range arm's bounded per-partition
                // default (the pre-PR 4 owners merged pending rows on the
                // next crack; "disabled" would regress them to unbounded
                // delta growth, unlike the serial arms where disabled
                // reproduces the historical behaviour).
                let partitions = effective_workers(partitions);
                self.index_arm(if compaction.is_enabled() {
                    RangePartitionedCracker::with_compaction(values, partitions, compaction)
                } else {
                    RangePartitionedCracker::new(values, partitions)
                })
            }
            // The adaptive arm owns its compaction policy (a bounded delta
            // is part of its steal-safety contract), so the threshold knob
            // is ignored like the delta-free arms.
            Approach::ParallelRangeAdaptive { partitions } => {
                self.index_arm(RangePartitionedCracker::adaptive(
                    values,
                    effective_workers(partitions),
                    AdaptiveConfig::default(),
                ))
            }
        }
    }

    /// `index` as this config's arm: named by the approach label, selects
    /// pinned when [`ExperimentConfig::snapshot_scans`] says so.
    fn index_arm<I: Index + 'static>(&self, index: I) -> Arc<dyn AdaptiveEngine> {
        let engine = IndexEngine::new(self.approach.label(), index);
        Arc::new(engine.with_pinned_selects(self.snapshot_scans))
    }
}

/// Runs one experiment cell end to end: generate data, build the engine,
/// generate the operation sequence, replay it with the configured client
/// count.
pub fn run_experiment(config: &ExperimentConfig) -> RunMetrics {
    let engine = config.build_engine();
    run_experiment_with_engine(config, engine)
}

/// Runs one experiment cell against an already-built engine (lets sweeps
/// reuse expensive data generation; note the engine's index state carries
/// over, so callers should build a fresh engine per arm unless they
/// explicitly want a warm index). How selects read — now or pinned — was
/// fixed when the engine was built ([`ExperimentConfig::build_engine_with`]).
pub fn run_experiment_with_engine(
    config: &ExperimentConfig,
    engine: Arc<dyn AdaptiveEngine>,
) -> RunMetrics {
    let ops = config.generate_operations();
    MultiClientRunner::new(config.clients).run_ops(engine, &ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(approach: Approach) -> ExperimentConfig {
        ExperimentConfig::new(approach)
            .rows(5_000)
            .queries(32)
            .selectivity(0.01)
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Approach::Scan.label(), "scan");
        assert_eq!(Approach::Sort.label(), "sort");
        assert_eq!(Approach::Crack(LatchProtocol::Piece).label(), "crack-piece");
        assert_eq!(
            Approach::CrackSkipOnContention(LatchProtocol::Column).label(),
            "crack-column-skip"
        );
        assert_eq!(
            Approach::AdaptiveMerge { run_size: 8 }.label(),
            "adaptive-merge"
        );
        assert_eq!(
            Approach::ParallelRange { partitions: 8 }.label(),
            "parallel-range-8"
        );
        // partitions = 0 resolves to the core count, which is at least 1.
        assert!(
            Approach::ParallelRange { partitions: 0 }
                .label()
                .strip_prefix("parallel-range-")
                .unwrap()
                .parse::<usize>()
                .unwrap()
                >= 1
        );
    }

    #[test]
    fn config_builders_set_fields() {
        let c = tiny(Approach::Scan).clients(4).aggregate(Aggregate::Count);
        assert_eq!(c.rows, 5_000);
        assert_eq!(c.queries, 32);
        assert_eq!(c.clients, 4);
        assert_eq!(c.aggregate, Aggregate::Count);
        assert_eq!(c.selectivity, 0.01);
        assert_eq!(c.generate_queries().len(), 32);
    }

    #[test]
    fn run_experiment_produces_metrics_for_every_approach() {
        for approach in Approach::all() {
            let config = tiny(approach);
            let run = run_experiment(&config);
            assert_eq!(run.query_count(), 32, "{}", approach.label());
            assert!(run.wall_clock > std::time::Duration::ZERO);
        }
    }

    #[test]
    fn mixed_experiments_run_for_every_approach() {
        for approach in Approach::all() {
            let config = tiny(approach).write_ratio(0.2);
            let run = run_experiment(&config);
            assert_eq!(run.query_count(), 32, "{}", approach.label());
            let totals = run.totals();
            assert!(
                totals.inserts_applied + totals.deletes_applied > 0,
                "{}: no writes executed",
                approach.label()
            );
        }
    }

    #[test]
    fn mixed_experiments_run_with_compaction_on_every_approach() {
        // An aggressive threshold forces rebuilds mid-run on every arm
        // that has a delta; arms without one must simply ignore the knob.
        for approach in Approach::all() {
            let config = tiny(approach).write_ratio(0.5).compaction_threshold(16);
            assert_eq!(config.compaction_threshold, 16);
            let run = run_experiment(&config);
            assert_eq!(run.query_count(), 32, "{}", approach.label());
            let totals = run.totals();
            assert!(
                totals.inserts_applied + totals.deletes_applied > 0,
                "{}: no writes executed",
                approach.label()
            );
        }
    }

    #[test]
    fn compaction_runs_stay_oracle_correct_under_concurrency() {
        use crate::engine::CheckedEngine;
        use crate::runner::MultiClientRunner;
        use aidx_storage::generate_unique_shuffled;

        for approach in [
            Approach::Crack(LatchProtocol::Piece),
            Approach::Crack(LatchProtocol::Column),
            Approach::ParallelRange { partitions: 3 },
        ] {
            let config = tiny(approach)
                .queries(64)
                .clients(4)
                .write_ratio(0.5)
                .compaction_threshold(8);
            let values = generate_unique_shuffled(config.rows, config.data_seed);
            let engine = Arc::new(CheckedEngine::new(
                config.build_engine_with(values.clone()),
                values,
            ));
            let ops = config.generate_operations();
            MultiClientRunner::new(config.clients).run_ops(engine.clone(), &ops);
            assert_eq!(
                engine.mismatches(),
                vec![],
                "{} diverged from the oracle with compaction every 8 rows",
                approach.label()
            );
        }
    }

    #[test]
    fn snapshot_scan_runs_stay_oracle_correct_under_concurrency() {
        use crate::engine::CheckedEngine;
        use crate::runner::MultiClientRunner;
        use aidx_storage::generate_unique_shuffled;

        // Every select reads through a pin of its own while
        // writers churn and incremental compaction merges piece by piece;
        // the serialized oracle must still agree op for op.
        for approach in [
            Approach::Crack(LatchProtocol::Piece),
            Approach::Crack(LatchProtocol::Column),
            Approach::ParallelRange { partitions: 3 },
        ] {
            let config = tiny(approach)
                .queries(64)
                .clients(4)
                .write_ratio(0.5)
                .compaction_threshold(8)
                .incremental_pieces(4)
                .snapshot_scans(true);
            assert!(config.snapshot_scans);
            assert_eq!(
                config.compaction_policy(),
                aidx_core::CompactionPolicy::rows(8).incremental(4)
            );
            let values = generate_unique_shuffled(config.rows, config.data_seed);
            let engine = Arc::new(CheckedEngine::new(
                config.build_engine_with(values.clone()),
                values,
            ));
            let ops = config.generate_operations();
            MultiClientRunner::new(config.clients).run_ops(engine.clone(), &ops);
            assert_eq!(
                engine.mismatches(),
                vec![],
                "{} snapshot scans diverged from the oracle",
                approach.label()
            );
        }
    }

    #[test]
    fn snapshot_scans_knob_threads_through_run_experiment() {
        for approach in Approach::all() {
            let config = tiny(approach)
                .write_ratio(0.3)
                .compaction_threshold(16)
                .incremental_pieces(2)
                .snapshot_scans(true);
            let run = run_experiment(&config);
            assert_eq!(run.query_count(), 32, "{}", approach.label());
        }
    }

    #[test]
    fn built_engines_are_named_by_their_approach_label() {
        let mut arms = Approach::all();
        arms.extend([
            Approach::ParallelRange { partitions: 3 },
            Approach::ParallelRangeAdaptive { partitions: 2 },
        ]);
        for approach in arms {
            assert_eq!(tiny(approach).build_engine().name(), approach.label());
        }
    }

    #[test]
    fn labels_round_trip_through_from_str() {
        for approach in Approach::all() {
            let parsed: Approach = approach
                .label()
                .parse()
                .unwrap_or_else(|e| panic!("label '{}' failed to parse: {e}", approach.label()));
            assert_eq!(
                parsed.label(),
                approach.label(),
                "round trip changed the arm"
            );
        }
    }

    #[test]
    fn from_str_accepts_spelled_variants_and_rejects_junk() {
        assert_eq!("scan".parse::<Approach>().unwrap(), Approach::Scan);
        assert_eq!(
            " Crack-Piece ".parse::<Approach>().unwrap(),
            Approach::Crack(LatchProtocol::Piece)
        );
        assert_eq!(
            "crack-column-skip".parse::<Approach>().unwrap(),
            Approach::CrackSkipOnContention(LatchProtocol::Column)
        );
        assert_eq!(
            "adaptive-merge-512".parse::<Approach>().unwrap(),
            Approach::AdaptiveMerge { run_size: 512 }
        );
        assert_eq!(
            "parallel-range".parse::<Approach>().unwrap(),
            Approach::ParallelRange { partitions: 0 }
        );
        assert_eq!(
            "parallel-range-3".parse::<Approach>().unwrap(),
            Approach::ParallelRange { partitions: 3 }
        );
        assert_eq!(
            "parallel-range-adaptive".parse::<Approach>().unwrap(),
            Approach::ParallelRangeAdaptive { partitions: 0 }
        );
        assert_eq!(
            "parallel-range-adaptive-4".parse::<Approach>().unwrap(),
            Approach::ParallelRangeAdaptive { partitions: 4 }
        );
        for junk in [
            "",
            "scam",
            "crack",
            "crack-row",
            "parallel-chunk-4",
            "parallel-chunk-piece-4",
            "adaptive-merge-x",
        ] {
            assert!(junk.parse::<Approach>().is_err(), "'{junk}' must not parse");
        }
    }

    #[test]
    fn concurrent_experiment_counts_every_query_once() {
        let config = tiny(Approach::Crack(LatchProtocol::Piece)).clients(4);
        let run = run_experiment(&config);
        assert_eq!(run.query_count(), 32);
    }

    #[test]
    fn identical_configs_generate_identical_queries() {
        let a = tiny(Approach::Scan).generate_queries();
        let b = tiny(Approach::Sort).generate_queries();
        assert_eq!(a, b, "every arm must replay the same query sequence");
    }
}
