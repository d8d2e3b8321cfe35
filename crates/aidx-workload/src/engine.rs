//! Adaptive engines: the approaches compared by the evaluation.
//!
//! Every experiment arm is something that can execute an [`Operation`] —
//! a Q1/Q2 range query, an insert, or a delete — and report a
//! [`QueryMetrics`] breakdown:
//!
//! * [`ScanEngine`] — plain full scans over a latched vector, no index.
//! * [`SortEngine`] — full index built (by sorting) when the first query
//!   arrives, binary search afterwards; writes keep the index sorted.
//! * [`IndexEngine`] — any [`Index`]: the concurrent cracker of
//!   `aidx-core` under a chosen latch protocol and refinement policy, and
//!   the range-partitioned cracker of `aidx-parallel`; writes flow through each backend's pending delta
//!   (Section 4).
//! * [`MergeEngine`] — adaptive merging over the partitioned B-tree;
//!   inserts enter the update partition like a late run.
//!
//! The read-only `QueryEngine` trait of earlier revisions became
//! [`AdaptiveEngine`]: the paper's whole point is concurrency control for
//! indexes that *mutate under queries*, so the write path is part of the
//! unified engine API rather than a per-engine afterthought.
//!
//! All engines are `Send + Sync` so the multi-client runner can drive one
//! shared instance from many threads, exactly like concurrent clients
//! hitting one server process.

use crate::query::{Operation, QuerySpec};
use aidx_core::{Aggregate, ColumnRead, ConcurrentAdaptiveMerge, Index, QueryMetrics};
use aidx_cracking::SortIndex;
use aidx_latch::lockmgr::LockManager;
use aidx_latch::LatchStatsSnapshot;
use aidx_obs::StructureStats;
use aidx_storage::ops;
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Result of executing one [`Operation`]: the numeric outcome (count or
/// sum for selects, rows inserted/removed for writes) plus the per-op
/// metrics breakdown.
#[derive(Debug, Clone, Copy)]
pub struct OpResult {
    /// Select: the count (Q1) or sum (Q2). Insert: rows inserted (always
    /// 1). Delete: rows removed.
    pub value: i128,
    /// The operation's timing/conflict/refinement breakdown.
    pub metrics: QueryMetrics,
}

/// Something that can execute the experiment's operations — reads *and*
/// writes — against one shared index.
pub trait AdaptiveEngine: Send + Sync {
    /// Short, stable name used in reports ("scan", "sort", "crack", ...).
    fn name(&self) -> &str;

    /// Executes one operation.
    fn execute(&self, op: Operation) -> OpResult;

    /// Convenience: executes one select, returning its numeric result (the
    /// count for Q1, the sum for Q2) and the per-query metrics breakdown.
    fn select(&self, query: &QuerySpec) -> (i128, QueryMetrics) {
        let result = self.execute(Operation::Select(*query));
        (result.value, result.metrics)
    }

    /// Structure summary of the underlying adaptive index — piece layout,
    /// delta pressure, routed load — or `None` for engines with no
    /// adaptive structure to observe (scan, sort, adaptive-merge).
    fn structure_stats(&self) -> Option<StructureStats> {
        None
    }

    /// Per-latch-object wait/conflict attribution
    /// ([`Index::latch_attribution`]). Empty for engines whose concurrency
    /// control is not piece-granular.
    fn latch_attribution(&self) -> Vec<(u64, LatchStatsSnapshot)> {
        Vec::new()
    }
}

impl<T: AdaptiveEngine + ?Sized> AdaptiveEngine for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn execute(&self, op: Operation) -> OpResult {
        (**self).execute(op)
    }

    fn structure_stats(&self) -> Option<StructureStats> {
        (**self).structure_stats()
    }

    fn latch_attribution(&self) -> Vec<(u64, LatchStatsSnapshot)> {
        (**self).latch_attribution()
    }
}

impl<T: AdaptiveEngine + ?Sized> AdaptiveEngine for Arc<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn execute(&self, op: Operation) -> OpResult {
        (**self).execute(op)
    }

    fn structure_stats(&self) -> Option<StructureStats> {
        (**self).structure_stats()
    }

    fn latch_attribution(&self) -> Vec<(u64, LatchStatsSnapshot)> {
        (**self).latch_attribution()
    }
}

/// The plain-scan baseline engine. A read/write latch over the backing
/// vector stands in for the concurrency control every mutable structure
/// needs — even "no index" must coordinate writers.
#[derive(Debug)]
pub struct ScanEngine {
    values: RwLock<Vec<i64>>,
}

impl ScanEngine {
    /// Wraps a copy of the column values.
    pub fn new(values: Vec<i64>) -> Self {
        ScanEngine {
            values: RwLock::new(values),
        }
    }
}

impl AdaptiveEngine for ScanEngine {
    fn name(&self) -> &str {
        "scan"
    }

    fn execute(&self, op: Operation) -> OpResult {
        let start = Instant::now();
        let mut metrics = QueryMetrics::default();
        let value = match op {
            Operation::Select(q) => {
                let values = self.values.read();
                match q.aggregate {
                    Aggregate::Count => {
                        let c = ops::count(&values, q.low, q.high);
                        metrics.result_count = c;
                        c as i128
                    }
                    Aggregate::Sum => {
                        metrics.result_count = ops::count(&values, q.low, q.high);
                        ops::sum(&values, q.low, q.high)
                    }
                }
            }
            Operation::Insert(v) => {
                self.values.write().push(v);
                metrics.inserts_applied = 1;
                metrics.result_count = 1;
                1
            }
            Operation::Delete(v) => {
                let mut values = self.values.write();
                let before = values.len();
                values.retain(|&x| x != v);
                let removed = (before - values.len()) as u64;
                metrics.deletes_applied = 1;
                metrics.result_count = removed;
                removed as i128
            }
        };
        metrics.total = start.elapsed();
        OpResult { value, metrics }
    }
}

/// State of the sort-baseline engine: unsorted base values until the first
/// query arrives, the sorted index afterwards.
#[derive(Debug)]
enum SortState {
    /// No query has arrived yet; writes mutate the base values directly.
    Unbuilt(Vec<i64>),
    /// The index exists; writes keep it sorted.
    Built(SortIndex),
}

/// The full-index baseline engine: the complete sort happens lazily when
/// the first query arrives (that query pays the build cost, as in
/// Figure 11). Writes before the build edit the base column; writes after
/// maintain the sorted index.
#[derive(Debug)]
pub struct SortEngine {
    state: RwLock<SortState>,
}

impl SortEngine {
    /// Wraps the column values; the index is built on first use.
    pub fn new(values: Vec<i64>) -> Self {
        SortEngine {
            state: RwLock::new(SortState::Unbuilt(values)),
        }
    }

    /// True once the full index has been built.
    pub fn is_built(&self) -> bool {
        matches!(*self.state.read(), SortState::Built(_))
    }

    fn ensure_built(state: &mut SortState) -> &mut SortIndex {
        if let SortState::Unbuilt(values) = state {
            *state = SortState::Built(SortIndex::build_from_values(std::mem::take(values)));
        }
        match state {
            SortState::Built(index) => index,
            SortState::Unbuilt(_) => unreachable!("just built"),
        }
    }
}

impl AdaptiveEngine for SortEngine {
    fn name(&self) -> &str {
        "sort"
    }

    fn execute(&self, op: Operation) -> OpResult {
        let start = Instant::now();
        let mut metrics = QueryMetrics::default();
        let value = match op {
            Operation::Select(q) => {
                // Fast path: answer under the read latch once built.
                let maybe = {
                    let state = self.state.read();
                    match &*state {
                        SortState::Built(index) => Some(match q.aggregate {
                            Aggregate::Count => {
                                let c = index.count(q.low, q.high);
                                metrics.result_count = c;
                                c as i128
                            }
                            Aggregate::Sum => {
                                metrics.result_count = index.count(q.low, q.high);
                                index.sum(q.low, q.high)
                            }
                        }),
                        SortState::Unbuilt(_) => None,
                    }
                };
                match maybe {
                    Some(v) => v,
                    None => {
                        // First query: build under the write latch.
                        let mut state = self.state.write();
                        let index = Self::ensure_built(&mut state);
                        match q.aggregate {
                            Aggregate::Count => {
                                let c = index.count(q.low, q.high);
                                metrics.result_count = c;
                                c as i128
                            }
                            Aggregate::Sum => {
                                metrics.result_count = index.count(q.low, q.high);
                                index.sum(q.low, q.high)
                            }
                        }
                    }
                }
            }
            Operation::Insert(v) => {
                let mut state = self.state.write();
                match &mut *state {
                    SortState::Unbuilt(values) => values.push(v),
                    SortState::Built(index) => {
                        index.insert(v);
                    }
                }
                metrics.inserts_applied = 1;
                metrics.result_count = 1;
                1
            }
            Operation::Delete(v) => {
                let mut state = self.state.write();
                let removed = match &mut *state {
                    SortState::Unbuilt(values) => {
                        let before = values.len();
                        values.retain(|&x| x != v);
                        (before - values.len()) as u64
                    }
                    SortState::Built(index) => index.delete_all(v),
                };
                metrics.deletes_applied = 1;
                metrics.result_count = removed;
                removed as i128
            }
        };
        metrics.total = start.elapsed();
        OpResult { value, metrics }
    }
}

/// Any [`Index`] as an experiment arm — the concurrent cracker and the
/// range-partitioned cracker alike — so every
/// indexed arm runs the same select, insert and delete bodies. Writes
/// route the way each backend prescribes; a select reads *now*, or,
/// when the experiment asks for snapshot scans, through a pin opened for
/// it alone: frozen at the epoch the select started at, ignoring every
/// concurrent write, piece shrink and compaction step.
#[derive(Debug)]
pub struct IndexEngine<I> {
    index: I,
    name: String,
    pinned_selects: bool,
}

impl<I: Index> IndexEngine<I> {
    /// Wraps `index` under the report name `name`; selects read now.
    pub fn new(name: impl Into<String>, index: I) -> Self {
        IndexEngine {
            index,
            name: name.into(),
            pinned_selects: false,
        }
    }

    /// Answers every select through its own pin (builder style): the
    /// `snapshot_scans` experiment setting.
    pub(crate) fn with_pinned_selects(mut self, pinned_selects: bool) -> Self {
        self.pinned_selects = pinned_selects;
        self
    }

    /// The underlying index (for post-run inspection).
    pub fn index(&self) -> &I {
        &self.index
    }
}

/// One Q1/Q2 select against `reader`.
fn answer<R: ColumnRead + ?Sized>(reader: &R, q: QuerySpec) -> (i128, QueryMetrics) {
    match q.aggregate {
        Aggregate::Count => {
            let (count, metrics) = reader.count(q.low, q.high);
            (count as i128, metrics)
        }
        Aggregate::Sum => reader.sum(q.low, q.high),
    }
}

impl<I: Index> AdaptiveEngine for IndexEngine<I> {
    fn name(&self) -> &str {
        &self.name
    }

    fn execute(&self, op: Operation) -> OpResult {
        let (value, metrics) = match op {
            Operation::Select(q) if self.pinned_selects => answer(&*self.index.pin(), q),
            Operation::Select(q) => answer(&self.index, q),
            Operation::Insert(v) => (1, self.index.insert(v)),
            Operation::Delete(v) => {
                let (removed, metrics) = self.index.delete(v);
                (removed as i128, metrics)
            }
        };
        OpResult { value, metrics }
    }

    fn structure_stats(&self) -> Option<StructureStats> {
        Some(self.index.structure_probe().summarize())
    }

    fn latch_attribution(&self) -> Vec<(u64, LatchStatsSnapshot)> {
        self.index.latch_attribution()
    }
}

/// Adaptive merging over a partitioned B-tree under concurrency control.
#[derive(Debug)]
pub struct MergeEngine {
    merge: ConcurrentAdaptiveMerge,
}

impl MergeEngine {
    /// Builds an adaptive-merging engine with the given run size.
    pub fn new(values: Vec<i64>, run_size: usize) -> Self {
        MergeEngine {
            merge: ConcurrentAdaptiveMerge::build_from_values(
                &values,
                run_size,
                Arc::new(LockManager::new()),
            ),
        }
    }

    /// The underlying concurrent adaptive-merging index.
    pub fn index(&self) -> &ConcurrentAdaptiveMerge {
        &self.merge
    }
}

impl AdaptiveEngine for MergeEngine {
    fn name(&self) -> &str {
        "adaptive-merge"
    }

    fn execute(&self, op: Operation) -> OpResult {
        let (value, metrics) = match op {
            Operation::Select(q) => match q.aggregate {
                Aggregate::Count => {
                    let (count, metrics) = self.merge.count(q.low, q.high);
                    (count as i128, metrics)
                }
                Aggregate::Sum => self.merge.sum(q.low, q.high),
            },
            Operation::Insert(v) => (1, self.merge.insert(v)),
            Operation::Delete(v) => {
                let (removed, metrics) = self.merge.delete(v);
                (removed as i128, metrics)
            }
        };
        OpResult { value, metrics }
    }
}

/// One operation whose engine result disagreed with the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mismatch {
    /// The operation that disagreed.
    pub op: Operation,
    /// What the engine returned.
    pub got: i128,
    /// What the oracle expected.
    pub expected: i128,
}

/// The verifying wrapper used by tests and the update benchmark: replays
/// every operation against a `BTreeMap` multiset oracle and records any
/// disagreement.
///
/// The oracle lock is held across the inner engine call, so under
/// concurrent clients the oracle sees exactly the engine's linearization
/// order — interleaved reads and writes stay comparable op by op. (This
/// serializes the wrapped engine; use it to check correctness, not to
/// measure scalability.)
#[derive(Debug)]
pub struct CheckedEngine<E> {
    inner: E,
    oracle: Mutex<BTreeMap<i64, u64>>,
    mismatches: Mutex<Vec<Mismatch>>,
}

impl<E: AdaptiveEngine> CheckedEngine<E> {
    /// Wraps `inner`, checking every result against an oracle seeded with
    /// `values`.
    pub fn new(inner: E, values: Vec<i64>) -> Self {
        let mut oracle = BTreeMap::new();
        for v in values {
            *oracle.entry(v).or_insert(0u64) += 1;
        }
        CheckedEngine {
            inner,
            oracle: Mutex::new(oracle),
            mismatches: Mutex::new(Vec::new()),
        }
    }

    /// Operations whose results disagreed with the oracle.
    pub fn mismatches(&self) -> Vec<Mismatch> {
        self.mismatches.lock().clone()
    }
}

/// Applies one operation to a `value → multiplicity` oracle multiset and
/// returns the result a correct engine must produce. This is the single
/// definition of the oracle semantics — [`CheckedEngine`] and the
/// `bench_compaction` harness both use it, so they can never drift apart.
pub fn oracle_apply(oracle: &mut BTreeMap<i64, u64>, op: Operation) -> i128 {
    match op {
        Operation::Select(q) => {
            if q.low >= q.high {
                return 0;
            }
            match q.aggregate {
                Aggregate::Count => oracle.range(q.low..q.high).map(|(_, &n)| n as i128).sum(),
                Aggregate::Sum => oracle
                    .range(q.low..q.high)
                    .map(|(&v, &n)| v as i128 * n as i128)
                    .sum(),
            }
        }
        Operation::Insert(v) => {
            *oracle.entry(v).or_insert(0) += 1;
            1
        }
        Operation::Delete(v) => oracle.remove(&v).unwrap_or(0) as i128,
    }
}

impl<E: AdaptiveEngine> AdaptiveEngine for CheckedEngine<E> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute(&self, op: Operation) -> OpResult {
        // Hold the oracle across the engine call: the pair (engine op,
        // oracle op) becomes one atomic step, so the oracle replays the
        // engine's exact linearization order.
        let mut oracle = self.oracle.lock();
        let result = self.inner.execute(op);
        let expected = oracle_apply(&mut oracle, op);
        drop(oracle);
        if result.value != expected {
            self.mismatches.lock().push(Mismatch {
                op,
                got: result.value,
                expected,
            });
        }
        result
    }

    fn structure_stats(&self) -> Option<StructureStats> {
        self.inner.structure_stats()
    }

    fn latch_attribution(&self) -> Vec<(u64, LatchStatsSnapshot)> {
        self.inner.latch_attribution()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aidx_core::{CompactionPolicy, ConcurrentCracker, LatchProtocol};
    use aidx_obs::TraceEvent;
    use aidx_parallel::RangePartitionedCracker;

    fn shuffled(n: usize) -> Vec<i64> {
        (0..n as i64).map(|i| (i * 48271) % n as i64).collect()
    }

    fn crack(values: &[i64], protocol: LatchProtocol) -> IndexEngine<ConcurrentCracker> {
        let index = ConcurrentCracker::from_values(values.to_vec(), protocol);
        IndexEngine::new(format!("crack-{protocol}"), index)
    }

    /// Every indexed arm, its selects reading now or through a pin each.
    fn index_engines(values: &[i64], pinned: bool) -> Vec<Box<dyn AdaptiveEngine>> {
        let range = RangePartitionedCracker::new(values.to_vec(), 3);
        vec![
            Box::new(crack(values, LatchProtocol::Piece).with_pinned_selects(pinned)),
            Box::new(crack(values, LatchProtocol::Column).with_pinned_selects(pinned)),
            Box::new(IndexEngine::new("parallel-range-3", range).with_pinned_selects(pinned)),
        ]
    }

    fn engines(values: &[i64]) -> Vec<Box<dyn AdaptiveEngine>> {
        let mut engines: Vec<Box<dyn AdaptiveEngine>> = vec![
            Box::new(ScanEngine::new(values.to_vec())),
            Box::new(SortEngine::new(values.to_vec())),
            Box::new(MergeEngine::new(values.to_vec(), 256)),
        ];
        engines.extend(index_engines(values, false));
        engines
    }

    #[test]
    fn all_engines_agree_on_results() {
        let values = shuffled(2000);
        let scan = ScanEngine::new(values.clone());
        for engine in engines(&values) {
            for q in [
                QuerySpec::count(100, 700),
                QuerySpec::sum(0, 2000),
                QuerySpec::sum(1999, 2000),
                QuerySpec::count(500, 100),
            ] {
                let (expected, _) = scan.select(&q);
                let (got, metrics) = engine.select(&q);
                assert_eq!(got, expected, "{} disagrees on {q:?}", engine.name());
                assert_eq!(metrics.result_count, scan.select(&q).1.result_count);
            }
        }
    }

    #[test]
    fn all_engines_agree_under_interleaved_writes() {
        let values = shuffled(1000);
        let ops = [
            Operation::Select(QuerySpec::sum(100, 600)),
            Operation::Insert(250),
            Operation::Insert(250),
            Operation::Delete(500),
            Operation::Select(QuerySpec::count(200, 600)),
            Operation::Insert(5000),
            Operation::Delete(250),
            Operation::Select(QuerySpec::sum(0, 6000)),
            Operation::Delete(123_456), // absent key
            Operation::Select(QuerySpec::count(0, 6000)),
        ];
        for engine in engines(&values) {
            let checked = CheckedEngine::new(engine, values.clone());
            for op in ops {
                checked.execute(op);
            }
            assert_eq!(
                checked.mismatches(),
                vec![],
                "{} diverged from the oracle",
                checked.name()
            );
        }
    }

    #[test]
    fn engine_names_are_stable() {
        let values = shuffled(100);
        assert_eq!(ScanEngine::new(values.clone()).name(), "scan");
        assert_eq!(SortEngine::new(values.clone()).name(), "sort");
        assert_eq!(crack(&values, LatchProtocol::Piece).name(), "crack-piece");
        assert_eq!(MergeEngine::new(values, 10).name(), "adaptive-merge");
    }

    #[test]
    fn sort_engine_builds_lazily_exactly_once() {
        let engine = SortEngine::new(shuffled(1000));
        assert!(!engine.is_built());
        engine.execute(Operation::Insert(42)); // pre-build write
        assert!(!engine.is_built(), "writes alone do not build the index");
        engine.select(&QuerySpec::count(10, 20));
        assert!(engine.is_built());
        engine.select(&QuerySpec::count(30, 40));
        assert!(engine.is_built());
        // The pre-build write is visible after the build.
        assert_eq!(engine.select(&QuerySpec::count(42, 43)).0, 2);
    }

    #[test]
    fn crack_engine_exposes_its_cracker() {
        let engine = crack(&shuffled(500), LatchProtocol::Piece);
        engine.select(&QuerySpec::sum(100, 400));
        assert!(engine.index().crack_count() >= 2);
        assert!(engine.index().check_invariants());
        // Every backend stays inspectable behind the one adapter.
        let values = shuffled(1000);
        let ranged = IndexEngine::new("parallel-range-2", RangePartitionedCracker::new(values, 2));
        ranged.select(&QuerySpec::sum(100, 900));
        assert_eq!(ranged.index().partition_count(), 2);
        assert!(ranged.index().check_invariants());
    }

    #[test]
    fn merge_engine_exposes_progress() {
        let engine = MergeEngine::new(shuffled(500), 100);
        engine.select(&QuerySpec::count(0, 500));
        assert!(engine.index().is_fully_merged());
    }

    #[test]
    fn default_range_engine_keeps_the_delta_bounded() {
        // Regression guard: the default-constructed range index must not
        // accumulate an unbounded per-partition delta under a sustained
        // insert stream (its owners historically merged pending rows on
        // the next crack; the bounded incremental default preserves that).
        let engine = IndexEngine::new("range", RangePartitionedCracker::new(shuffled(2000), 2));
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
    fn checked_engine_flags_no_mismatches_for_correct_engines() {
        let values = shuffled(300);
        let checked = CheckedEngine::new(crack(&values, LatchProtocol::Piece), values);
        for q in [QuerySpec::count(10, 200), QuerySpec::sum(50, 290)] {
            checked.select(&q);
        }
        assert!(checked.mismatches().is_empty());
    }

    #[test]
    fn snapshot_selects_agree_with_plain_selects_when_serialized() {
        // With no concurrent writers, a select through its own pin and a
        // plain select must be indistinguishable, on every indexed arm.
        let values = shuffled(1500);
        let plain = index_engines(&values, false);
        for (pinned, plain) in index_engines(&values, true).iter().zip(&plain) {
            for q in [
                QuerySpec::count(100, 700),
                QuerySpec::sum(0, 1500),
                QuerySpec::count(500, 100),
            ] {
                assert_eq!(
                    pinned.select(&q).0,
                    plain.select(&q).0,
                    "{} pinned select diverged on {q:?}",
                    plain.name()
                );
            }
        }
    }

    #[test]
    fn crack_engine_snapshot_select_releases_its_registration() {
        let engine = crack(&shuffled(800), LatchProtocol::Piece).with_pinned_selects(true);
        engine.select(&QuerySpec::sum(100, 700));
        assert_eq!(
            engine.index().live_snapshots(),
            0,
            "the per-select pin is transient"
        );
    }

    #[test]
    fn checked_engine_verifies_the_snapshot_path() {
        let values = shuffled(1000);
        let index = ConcurrentCracker::from_values(values.clone(), LatchProtocol::Piece)
            .with_compaction(CompactionPolicy::rows(8).incremental(2));
        let engine = IndexEngine::new("crack-piece", index).with_pinned_selects(true);
        let checked = CheckedEngine::new(engine, values);
        for op in [
            Operation::Select(QuerySpec::sum(100, 600)),
            Operation::Insert(250),
            Operation::Delete(500),
            Operation::Select(QuerySpec::count(200, 600)),
            Operation::Delete(250),
            Operation::Select(QuerySpec::sum(0, 6000)),
            Operation::Select(QuerySpec::count(0, 1000)),
        ] {
            checked.execute(op);
        }
        assert_eq!(checked.mismatches(), vec![], "snapshot scans diverged");
    }

    #[test]
    fn snapshot_scan_engine_routes_selects_through_snapshots() {
        let values = shuffled(600);
        let engine = crack(&values, LatchProtocol::Piece).with_pinned_selects(true);
        assert_eq!(engine.name(), "crack-piece");
        let q = QuerySpec::count(50, 400);
        let expected = ScanEngine::new(values).select(&q).0;
        assert_eq!(engine.execute(Operation::Select(q)).value, expected);
        assert_eq!(engine.execute(Operation::Insert(60)).value, 1);
        // Each select pins afresh, at the epoch it starts at.
        assert_eq!(engine.execute(Operation::Select(q)).value, expected + 1);
        assert_eq!(engine.index().live_snapshots(), 0);
    }

    #[test]
    fn crack_engine_reports_structure_and_latch_attribution() {
        let values = shuffled(1000);
        let engine = crack(&values, LatchProtocol::Piece);
        for q in [QuerySpec::count(100, 400), QuerySpec::sum(500, 900)] {
            engine.select(&q);
        }
        let stats = engine.structure_stats().expect("cracker has structure");
        assert_eq!(stats.rows, 1000);
        assert!(stats.piece_count >= 3, "two selects crack >= 3 pieces");

        let latches = engine.latch_attribution();
        assert!(
            latches.iter().any(|(k, _)| *k == TraceEvent::COLUMN_LATCH),
            "column latch entry present"
        );
        let acquisitions: u64 = latches
            .iter()
            .map(|(_, s)| s.read_acquisitions + s.write_acquisitions)
            .sum();
        assert!(acquisitions > 0, "selects acquire latches");

        // Attribution and structure survive the wrappers unchanged.
        let boxed: Box<dyn AdaptiveEngine> = Box::new(engine);
        assert_eq!(boxed.structure_stats().unwrap().rows, 1000);
        assert_eq!(boxed.latch_attribution().len(), latches.len());
        let checked = CheckedEngine::new(boxed, values.clone());
        assert_eq!(checked.structure_stats().unwrap().rows, 1000);
        assert!(!checked.latch_attribution().is_empty());

        // Every indexed arm reports its structure; the range arm its load.
        for engine in index_engines(&values, false) {
            engine.select(&QuerySpec::sum(100, 900));
            let stats = engine
                .structure_stats()
                .expect("indexed arms have structure");
            assert_eq!(stats.rows, 1000, "{}", engine.name());
            assert!(stats.piece_count >= 3, "{}", engine.name());
        }
        let ranged = IndexEngine::new("range", RangePartitionedCracker::new(values, 4));
        ranged.select(&QuerySpec::sum(100, 900));
        let stats = ranged.structure_stats().expect("range has structure");
        assert_eq!(stats.partitions, 4);
        assert_eq!(stats.partition_load.count, 4);
        assert!(stats.partition_load.max > 0, "routed ops counted");
        assert!(ranged.latch_attribution().is_empty(), "latch-free owners");

        // Baseline engines expose neither.
        let scan = ScanEngine::new(shuffled(10));
        assert!(scan.structure_stats().is_none());
        assert!(scan.latch_attribution().is_empty());
    }

    #[test]
    fn checked_engine_detects_a_wrong_answer() {
        /// An engine that always answers 7 (and claims nothing else).
        struct BrokenEngine;
        impl AdaptiveEngine for BrokenEngine {
            fn name(&self) -> &str {
                "broken"
            }
            fn execute(&self, _: Operation) -> OpResult {
                OpResult {
                    value: 7,
                    metrics: QueryMetrics::default(),
                }
            }
        }
        let checked = CheckedEngine::new(BrokenEngine, vec![1, 2, 3]);
        checked.select(&QuerySpec::count(0, 10));
        let mismatches = checked.mismatches();
        assert_eq!(mismatches.len(), 1);
        assert_eq!(mismatches[0].got, 7);
        assert_eq!(mismatches[0].expected, 3);
    }
}
