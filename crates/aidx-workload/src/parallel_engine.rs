//! Adaptive-engine adapters for the `aidx-parallel` subsystem.
//!
//! Wraps [`ChunkedCracker`] and [`RangePartitionedCracker`] as
//! [`AdaptiveEngine`]s so the parallel arms run under the exact same
//! [`crate::MultiClientRunner`] protocol as scan / sort / crack / merge:
//! N concurrent *clients* each fan their operations out across M
//! *workers*, exercising parallelism both between and within operations.
//! Writes route the way each design prescribes: chunked inserts append to
//! the designated chunk (rebalancing when it outgrows its peers), range
//! inserts go to the single partition owning the key.

use crate::engine::{execute_on_index, snapshot_select_on_index, AdaptiveEngine, OpResult};
use crate::query::{Operation, QuerySpec};
use aidx_core::{Aggregate, CompactionPolicy, LatchProtocol, QueryMetrics, RefinementPolicy};
use aidx_obs::StructureStats;
use aidx_parallel::{AdaptiveConfig, ChunkedCracker, RangePartitionedCracker};

/// Parallel-chunked cracking as an experiment arm.
#[derive(Debug)]
pub struct ParallelChunkEngine {
    index: ChunkedCracker,
    name: String,
}

impl ParallelChunkEngine {
    /// Builds the engine with `chunks` chunks cracked under the paper's
    /// concurrency control (`protocol`, [`RefinementPolicy::Always`]).
    pub fn new(values: Vec<i64>, chunks: usize, protocol: LatchProtocol) -> Self {
        let index = ChunkedCracker::new(values, chunks, protocol, RefinementPolicy::Always);
        let name = format!("parallel-chunk-{protocol}-{}", index.chunk_count());
        ParallelChunkEngine { index, name }
    }

    /// Sets the per-chunk delta compaction policy (builder style; must be
    /// applied before the engine is shared).
    pub fn with_compaction(mut self, compaction: CompactionPolicy) -> Self {
        self.index.set_compaction(compaction);
        self
    }

    /// The underlying chunked cracker (for post-run inspection).
    pub fn index(&self) -> &ChunkedCracker {
        &self.index
    }
}

impl AdaptiveEngine for ParallelChunkEngine {
    fn name(&self) -> &str {
        &self.name
    }

    fn execute(&self, op: Operation) -> OpResult {
        execute_on_index!(self.index, op)
    }

    fn snapshot_select(&self, query: &QuerySpec) -> (i128, QueryMetrics) {
        snapshot_select_on_index!(self.index, query)
    }

    fn structure_stats(&self) -> Option<StructureStats> {
        Some(self.index.structure_probe().summarize())
    }
}

/// Range-partitioned latch-free cracking as an experiment arm.
#[derive(Debug)]
pub struct ParallelRangeEngine {
    index: RangePartitionedCracker,
    name: String,
}

impl ParallelRangeEngine {
    /// Builds the engine with `partitions` latch-free partitions.
    pub fn new(values: Vec<i64>, partitions: usize) -> Self {
        Self::with_compaction_threshold(values, partitions, 0)
    }

    /// As [`ParallelRangeEngine::new`], with every partition eagerly
    /// merging its pending delta at `compaction_threshold` rows (0 =
    /// merge only on crack).
    pub fn with_compaction_threshold(
        values: Vec<i64>,
        partitions: usize,
        compaction_threshold: usize,
    ) -> Self {
        // Route through the index constructor so threshold 0 keeps its
        // "bounded default policy" meaning instead of decaying to
        // rows(0) == disabled (which would reintroduce unbounded
        // per-partition delta growth for default-configured engines).
        let index = RangePartitionedCracker::with_compaction_threshold(
            values,
            partitions,
            compaction_threshold,
        );
        let name = format!("parallel-range-{}", index.partition_count());
        ParallelRangeEngine { index, name }
    }

    /// As [`ParallelRangeEngine::new`] with an explicit per-partition
    /// compaction policy (thresholds and quiescing/incremental mode).
    pub fn with_compaction(
        values: Vec<i64>,
        partitions: usize,
        compaction: CompactionPolicy,
    ) -> Self {
        let index = RangePartitionedCracker::with_compaction(values, partitions, compaction);
        let name = format!("parallel-range-{}", index.partition_count());
        ParallelRangeEngine { index, name }
    }

    /// Skew-adaptive arm: partitions split/merge online under observed
    /// load and idle owners steal refinement work (`config` tunes the
    /// monitor). The label reports the *initial* partition count — the
    /// live count is workload-dependent by design.
    pub fn adaptive(values: Vec<i64>, partitions: usize, config: AdaptiveConfig) -> Self {
        let index = RangePartitionedCracker::adaptive(values, partitions, config);
        let name = format!("parallel-range-adaptive-{}", index.partition_count());
        ParallelRangeEngine { index, name }
    }

    /// The underlying range-partitioned cracker (for post-run inspection).
    pub fn index(&self) -> &RangePartitionedCracker {
        &self.index
    }
}

impl AdaptiveEngine for ParallelRangeEngine {
    fn name(&self) -> &str {
        &self.name
    }

    fn execute(&self, op: Operation) -> OpResult {
        execute_on_index!(self.index, op)
    }

    fn snapshot_select(&self, query: &QuerySpec) -> (i128, QueryMetrics) {
        snapshot_select_on_index!(self.index, query)
    }

    fn structure_stats(&self) -> Option<StructureStats> {
        Some(self.index.structure_probe().summarize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CheckedEngine, ScanEngine};
    use crate::generator::WorkloadGenerator;
    use crate::query::QuerySpec;
    use crate::runner::MultiClientRunner;
    use std::sync::Arc;

    fn shuffled(n: usize) -> Vec<i64> {
        (0..n as i64).map(|i| (i * 48271) % n as i64).collect()
    }

    #[test]
    fn engine_names_encode_configuration() {
        let values = shuffled(200);
        assert_eq!(
            ParallelChunkEngine::new(values.clone(), 4, LatchProtocol::Piece).name(),
            "parallel-chunk-piece-4"
        );
        assert_eq!(
            ParallelChunkEngine::new(values.clone(), 2, LatchProtocol::Column).name(),
            "parallel-chunk-column-2"
        );
        assert_eq!(
            ParallelRangeEngine::new(values, 4).name(),
            "parallel-range-4"
        );
    }

    #[test]
    fn parallel_engines_agree_with_scan() {
        let values = shuffled(3000);
        let scan = ScanEngine::new(values.clone());
        let engines: Vec<Box<dyn AdaptiveEngine>> = vec![
            Box::new(ParallelChunkEngine::new(
                values.clone(),
                4,
                LatchProtocol::Piece,
            )),
            Box::new(ParallelRangeEngine::new(values.clone(), 4)),
        ];
        for engine in engines {
            for q in [
                QuerySpec::count(100, 700),
                QuerySpec::sum(0, 3000),
                QuerySpec::sum(2999, 3000),
                QuerySpec::count(500, 100),
            ] {
                let (expected, em) = scan.select(&q);
                let (got, m) = engine.select(&q);
                assert_eq!(got, expected, "{} disagrees on {q:?}", engine.name());
                assert_eq!(m.result_count, em.result_count, "{}", engine.name());
            }
        }
    }

    #[test]
    fn parallel_engines_execute_interleaved_writes_correctly() {
        let values = shuffled(2000);
        let engines: Vec<Box<dyn AdaptiveEngine>> = vec![
            Box::new(ParallelChunkEngine::new(
                values.clone(),
                3,
                LatchProtocol::Piece,
            )),
            Box::new(ParallelRangeEngine::new(values.clone(), 3)),
        ];
        for engine in engines {
            let name = engine.name().to_string();
            let checked = CheckedEngine::new(engine, values.clone());
            for op in [
                Operation::Select(QuerySpec::sum(0, 2000)),
                Operation::Insert(700),
                Operation::Insert(700),
                Operation::Delete(300),
                Operation::Select(QuerySpec::count(200, 800)),
                Operation::Delete(700),
                Operation::Insert(9000),
                Operation::Select(QuerySpec::sum(0, 10_000)),
            ] {
                checked.execute(op);
            }
            assert_eq!(checked.mismatches(), vec![], "{name} diverged");
        }
    }

    #[test]
    fn multi_client_runner_drives_parallel_engines() {
        let values = shuffled(5000);
        let queries = WorkloadGenerator::new(5000, 0.02, Aggregate::Sum, 9).generate(48);
        let engine = Arc::new(CheckedEngine::new(
            ParallelChunkEngine::new(values.clone(), 4, LatchProtocol::Piece),
            values.clone(),
        ));
        let run = MultiClientRunner::new(4).run(engine.clone(), &queries);
        assert_eq!(run.query_count(), 48);
        assert!(engine.mismatches().is_empty());
        let engine = Arc::new(CheckedEngine::new(
            ParallelRangeEngine::new(values.clone(), 4),
            values,
        ));
        let run = MultiClientRunner::new(4).run(engine.clone(), &queries);
        assert_eq!(run.query_count(), 48);
        assert!(engine.mismatches().is_empty());
    }

    #[test]
    fn default_range_engine_keeps_the_delta_bounded() {
        // Regression guard: the default-constructed range engine must not
        // accumulate an unbounded per-partition delta under a sustained
        // insert stream (its owners historically merged pending rows on
        // the next crack; the bounded incremental default preserves that).
        let engine = ParallelRangeEngine::new(shuffled(2000), 2);
        engine.select(&QuerySpec::sum(0, 2000));
        for i in 0..2000 {
            engine.execute(Operation::Insert(10_000 + i));
        }
        let (pending, merges) = engine.index().delta_stats();
        assert!(
            pending < 2000,
            "default policy must bound the delta, saw {pending}"
        );
        assert!(merges > 0, "reconciliation actually ran");
        assert_eq!(engine.select(&QuerySpec::count(10_000, 12_000)).0, 2000);
        assert!(engine.index().check_invariants());
    }

    #[test]
    fn post_run_inspection_is_available() {
        let values = shuffled(1000);
        let chunked = ParallelChunkEngine::new(values.clone(), 2, LatchProtocol::Piece);
        chunked.select(&QuerySpec::sum(100, 900));
        assert!(chunked.index().crack_count() >= 2);
        let ranged = ParallelRangeEngine::new(values, 2);
        ranged.select(&QuerySpec::sum(100, 900));
        assert_eq!(ranged.index().partition_count(), 2);
        assert!(ranged.index().check_invariants());
    }

    #[test]
    fn parallel_engines_report_structure_stats() {
        let values = shuffled(2000);
        let chunked = ParallelChunkEngine::new(values.clone(), 4, LatchProtocol::Piece);
        chunked.select(&QuerySpec::sum(100, 1900));
        let stats = chunked.structure_stats().expect("chunked has structure");
        assert_eq!(stats.rows, 2000);
        assert!(stats.piece_count >= 4, "one piece per chunk at minimum");

        let ranged = ParallelRangeEngine::new(values, 4);
        ranged.select(&QuerySpec::sum(100, 1900));
        let stats = ranged.structure_stats().expect("range has structure");
        assert_eq!(stats.rows, 2000);
        assert_eq!(stats.partitions, 4);
        assert_eq!(stats.partition_load.count, 4);
        assert!(stats.partition_load.max > 0, "routed ops counted");
    }
}
