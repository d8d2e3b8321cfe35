//! Per-query and per-run metrics.
//!
//! The evaluation section of the paper reports, besides end-to-end times,
//! the *breakdown* of where a query's time goes: how long it waited for
//! latches versus how long it spent refining the index (Figure 15), how many
//! conflicts occurred, and how much administration overhead concurrency
//! control added (Figure 13). Every query executed through `aidx-core`
//! returns a [`QueryMetrics`] carrying exactly those numbers, and
//! [`RunMetrics`] aggregates them across a workload — including percentile
//! latency breakdowns ([`LatencyBreakdown`]) and time-windowed per-client
//! throughput, because means hide exactly the tail behaviour (latch
//! convoys, snapshot retries) the evaluation is about.

use aidx_obs::{Json, LatencyHistogram};
use std::time::Duration;

/// Timing and conflict breakdown of one executed query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryMetrics {
    /// Wall-clock time of the whole query.
    pub total: Duration,
    /// Time spent waiting to acquire latches (write latches for cracking and
    /// read latches for aggregation) — the "wait time" series of Figure 15.
    pub wait_time: Duration,
    /// Time spent physically reorganising the index under write latches —
    /// the "index refinement" series of Figure 15.
    pub crack_time: Duration,
    /// Time spent computing the aggregate under read latches.
    pub aggregate_time: Duration,
    /// Time spent rebuilding the main array from `main + pending −
    /// tombstones` (delta compaction), attributed to the write that
    /// tripped the threshold.
    pub compaction_time: Duration,
    /// Number of crack (partitioning) steps performed.
    pub cracks_performed: u32,
    /// Number of delta compactions (whole-array rebuilds) this operation
    /// triggered.
    pub compactions_performed: u32,
    /// Number of incremental compaction steps (single-piece delta merges
    /// under that piece's write latch) this operation performed.
    pub compaction_steps: u32,
    /// Number of times this operation's snapshot validation (the
    /// shrink-epoch seqlock around its main-phase + delta-snapshot pair)
    /// failed and the read was retried.
    pub snapshot_retries: u32,
    /// Rows physically reclaimed or merged in place by this operation's
    /// incremental compaction steps (tombstoned rows swept into holes plus
    /// pending inserts placed into holes).
    pub rows_reclaimed: u64,
    /// Number of latch acquisitions that had to wait (conflicts).
    pub conflicts: u32,
    /// Number of optional refinements skipped because of contention
    /// (conflict avoidance) or early termination.
    pub refinements_skipped: u32,
    /// Number of insert operations applied by this operation (writes run
    /// through the same engines as queries; see `Operation::Insert`).
    pub inserts_applied: u32,
    /// Number of delete operations applied by this operation.
    pub deletes_applied: u32,
    /// Number of qualifying tuples (the query's logical result size); for
    /// deletes, the number of rows removed.
    pub result_count: u64,
    /// Compressed bytes of the candidate row-id set(s) this operation
    /// materialised (0 for operations that never built one).
    pub candidate_set_bytes: u64,
    /// Whole compressed blocks bypassed by galloping seeks during
    /// candidate-set intersection.
    pub blocks_skipped: u64,
    /// Output `(left rowid, right rowid)` pairs emitted by an equi-join
    /// (0 for non-join operations).
    pub join_pairs: u64,
    /// `(key, rowid)` rows bypassed *unsorted* by key-run seeks during a
    /// gallop join: whole runs whose key range fell outside the join
    /// frontier were discarded without ever being sorted or walked.
    pub join_rows_skipped: u64,
}

impl QueryMetrics {
    /// Adds another query's numbers into this one (used for aggregation).
    ///
    /// Work counters use saturating arithmetic: a whole run's counters are
    /// folded into one record, and clamping at the type maximum is more
    /// useful (and safer) than wrapping for very long runs.
    pub fn accumulate(&mut self, other: &QueryMetrics) {
        self.total += other.total;
        self.wait_time += other.wait_time;
        self.crack_time += other.crack_time;
        self.aggregate_time += other.aggregate_time;
        self.compaction_time += other.compaction_time;
        self.cracks_performed = self.cracks_performed.saturating_add(other.cracks_performed);
        self.compactions_performed = self
            .compactions_performed
            .saturating_add(other.compactions_performed);
        self.compaction_steps = self.compaction_steps.saturating_add(other.compaction_steps);
        self.snapshot_retries = self.snapshot_retries.saturating_add(other.snapshot_retries);
        self.rows_reclaimed = self.rows_reclaimed.saturating_add(other.rows_reclaimed);
        self.conflicts = self.conflicts.saturating_add(other.conflicts);
        self.refinements_skipped = self
            .refinements_skipped
            .saturating_add(other.refinements_skipped);
        self.inserts_applied = self.inserts_applied.saturating_add(other.inserts_applied);
        self.deletes_applied = self.deletes_applied.saturating_add(other.deletes_applied);
        self.result_count = self.result_count.saturating_add(other.result_count);
        self.candidate_set_bytes = self
            .candidate_set_bytes
            .saturating_add(other.candidate_set_bytes);
        self.blocks_skipped = self.blocks_skipped.saturating_add(other.blocks_skipped);
        self.join_pairs = self.join_pairs.saturating_add(other.join_pairs);
        self.join_rows_skipped = self
            .join_rows_skipped
            .saturating_add(other.join_rows_skipped);
    }

    /// Merges the per-worker metrics of **one** query that was executed in
    /// parallel across workers (range partitions) into a single
    /// per-query record.
    ///
    /// Work counters (cracks, conflicts, skips, result sizes) and busy
    /// times (wait / crack / aggregate) are *summed* — they measure total
    /// work done on the query's behalf. `total` is the *maximum* of the
    /// worker totals, i.e. the critical path: workers ran concurrently, so
    /// summing their wall-clocks would overstate the query's latency.
    /// Callers that know the true fan-out/fan-in wall-clock should
    /// overwrite `total` with it afterwards.
    pub fn merge_parallel<I: IntoIterator<Item = QueryMetrics>>(parts: I) -> QueryMetrics {
        let mut merged = QueryMetrics::default();
        let mut critical_path = Duration::ZERO;
        for part in parts {
            critical_path = critical_path.max(part.total);
            merged.accumulate(&part);
        }
        merged.total = critical_path;
        merged
    }
}

/// Percentile histograms of every timing component of [`QueryMetrics`],
/// built per run. Each histogram is mergeable across clients/partitions.
#[derive(Debug, Clone, Default)]
pub struct LatencyBreakdown {
    /// End-to-end per-operation latency.
    pub total: LatencyHistogram,
    /// Latch wait time per operation.
    pub wait: LatencyHistogram,
    /// Index-refinement (crack) time per operation.
    pub crack: LatencyHistogram,
    /// Aggregate-computation time per operation.
    pub aggregate: LatencyHistogram,
    /// Compaction time per operation.
    pub compaction: LatencyHistogram,
}

impl LatencyBreakdown {
    /// Creates an empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one operation's timing components.
    pub fn record(&mut self, q: &QueryMetrics) {
        self.total.record_duration(q.total);
        self.wait.record_duration(q.wait_time);
        self.crack.record_duration(q.crack_time);
        self.aggregate.record_duration(q.aggregate_time);
        self.compaction.record_duration(q.compaction_time);
    }

    /// Folds another breakdown into this one (bucket-wise, lossless).
    pub fn merge(&mut self, other: &LatencyBreakdown) {
        self.total.merge(&other.total);
        self.wait.merge(&other.wait);
        self.crack.merge(&other.crack);
        self.aggregate.merge(&other.aggregate);
        self.compaction.merge(&other.compaction);
    }

    /// Encodes each component's percentile summary as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("total", self.total.to_json()),
            ("wait", self.wait.to_json()),
            ("crack", self.crack.to_json()),
            ("aggregate", self.aggregate.to_json()),
            ("compaction", self.compaction.to_json()),
        ])
    }
}

/// One operation completion: which client finished it and when (offset
/// from the run start). The raw material of windowed throughput series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Client (thread) index within the run.
    pub client: u32,
    /// Completion instant, as an offset from the run start.
    pub at: Duration,
}

/// Throughput of one time window of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowThroughput {
    /// Window start, as an offset from the run start.
    pub start: Duration,
    /// Operations completed in the window, per client index.
    pub per_client: Vec<u64>,
    /// Operations completed in the window, across all clients.
    pub total: u64,
}

/// Aggregated metrics of a whole query sequence (one experiment run).
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Per-query metrics in execution order (order of completion for
    /// concurrent runs).
    pub per_query: Vec<QueryMetrics>,
    /// Wall-clock time of the whole run (as perceived by the last client to
    /// finish, which is what the paper plots).
    pub wall_clock: Duration,
    /// Per-operation completion stamps (client, offset from run start),
    /// when the runner recorded them; empty for runners that don't.
    pub completions: Vec<Completion>,
}

impl RunMetrics {
    /// Creates an empty run record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queries recorded.
    pub fn query_count(&self) -> usize {
        self.per_query.len()
    }

    /// Sum of all per-query metrics.
    pub fn totals(&self) -> QueryMetrics {
        let mut total = QueryMetrics::default();
        for q in &self.per_query {
            total.accumulate(q);
        }
        total
    }

    /// Throughput in queries per second over the wall-clock time.
    pub fn throughput_qps(&self) -> f64 {
        if self.wall_clock.is_zero() {
            return 0.0;
        }
        self.per_query.len() as f64 / self.wall_clock.as_secs_f64()
    }

    /// Mean per-query total time.
    pub fn mean_query_time(&self) -> Duration {
        if self.per_query.is_empty() {
            return Duration::ZERO;
        }
        // Duration division takes a u32; clamp rather than truncate for
        // (hypothetical) >4G-query runs.
        self.totals().total / u32::try_from(self.per_query.len()).unwrap_or(u32::MAX)
    }

    /// Running average of per-query time after each query (Figure 11b).
    pub fn running_average(&self) -> Vec<Duration> {
        let mut out = Vec::with_capacity(self.per_query.len());
        let mut acc = Duration::ZERO;
        for (i, q) in self.per_query.iter().enumerate() {
            acc += q.total;
            out.push(acc / u32::try_from(i + 1).unwrap_or(u32::MAX));
        }
        out
    }

    /// Total number of latch conflicts across the run.
    pub fn total_conflicts(&self) -> u64 {
        self.per_query.iter().map(|q| q.conflicts as u64).sum()
    }

    /// Total time spent waiting for latches across the run.
    pub fn total_wait_time(&self) -> Duration {
        self.per_query.iter().map(|q| q.wait_time).sum()
    }

    /// Total time spent refining (cracking) across the run.
    pub fn total_crack_time(&self) -> Duration {
        self.per_query.iter().map(|q| q.crack_time).sum()
    }

    /// Builds the percentile latency breakdown of the run's operations.
    pub fn latency_breakdown(&self) -> LatencyBreakdown {
        let mut b = LatencyBreakdown::new();
        for q in &self.per_query {
            b.record(q);
        }
        b
    }

    /// Buckets the recorded completion stamps into fixed windows, yielding
    /// a per-client (and total) throughput series. Returns an empty series
    /// when no completions were recorded. The window is clamped to at
    /// least one microsecond.
    pub fn throughput_windows(&self, window: Duration) -> Vec<WindowThroughput> {
        if self.completions.is_empty() {
            return Vec::new();
        }
        let window = window.max(Duration::from_micros(1));
        let clients = self
            .completions
            .iter()
            .map(|c| c.client as usize + 1)
            .max()
            .unwrap_or(1);
        let last = self
            .completions
            .iter()
            .map(|c| c.at)
            .max()
            .unwrap_or(Duration::ZERO);
        let windows = (last.as_nanos() / window.as_nanos()) as usize + 1;
        let mut out: Vec<WindowThroughput> = (0..windows)
            .map(|i| WindowThroughput {
                start: window * u32::try_from(i).unwrap_or(u32::MAX),
                per_client: vec![0; clients],
                total: 0,
            })
            .collect();
        for c in &self.completions {
            let w = ((c.at.as_nanos() / window.as_nanos()) as usize).min(windows - 1);
            out[w].per_client[c.client as usize] += 1;
            out[w].total += 1;
        }
        out
    }

    /// Encodes a throughput series as a JSON array of window objects.
    pub fn throughput_windows_json(&self, window: Duration) -> Json {
        Json::Arr(
            self.throughput_windows(window)
                .iter()
                .map(|w| {
                    Json::obj(vec![
                        (
                            "start_ns",
                            Json::UInt(u64::try_from(w.start.as_nanos()).unwrap_or(u64::MAX)),
                        ),
                        ("total", Json::UInt(w.total)),
                        (
                            "per_client",
                            Json::Arr(w.per_client.iter().map(|&n| Json::UInt(n)).collect()),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(total_ms: u64, wait_ms: u64, crack_ms: u64, conflicts: u32) -> QueryMetrics {
        QueryMetrics {
            total: Duration::from_millis(total_ms),
            wait_time: Duration::from_millis(wait_ms),
            crack_time: Duration::from_millis(crack_ms),
            cracks_performed: 2,
            conflicts,
            result_count: 10,
            ..QueryMetrics::default()
        }
    }

    #[test]
    fn accumulate_adds_all_fields() {
        let mut a = metrics(10, 2, 3, 1);
        a.accumulate(&metrics(20, 4, 5, 2));
        assert_eq!(a.total, Duration::from_millis(30));
        assert_eq!(a.wait_time, Duration::from_millis(6));
        assert_eq!(a.crack_time, Duration::from_millis(8));
        assert_eq!(a.cracks_performed, 4);
        assert_eq!(a.conflicts, 3);
        assert_eq!(a.result_count, 20);
    }

    #[test]
    fn merge_parallel_sums_work_and_takes_critical_path() {
        let merged = QueryMetrics::merge_parallel([
            metrics(10, 2, 3, 1),
            metrics(25, 4, 5, 0),
            metrics(15, 1, 1, 2),
        ]);
        // Critical path, not sum: the workers ran concurrently.
        assert_eq!(merged.total, Duration::from_millis(25));
        // Work counters are summed across the workers.
        assert_eq!(merged.wait_time, Duration::from_millis(7));
        assert_eq!(merged.crack_time, Duration::from_millis(9));
        assert_eq!(merged.cracks_performed, 6);
        assert_eq!(merged.conflicts, 3);
        assert_eq!(merged.result_count, 30);
    }

    #[test]
    fn merge_parallel_of_nothing_is_the_default_record() {
        // A query that fanned out to zero workers (e.g. an empty range on a
        // range-partitioned index) merges to an all-zero record.
        let merged = QueryMetrics::merge_parallel([]);
        assert_eq!(merged, QueryMetrics::default());
        assert_eq!(merged.total, Duration::ZERO);
        assert_eq!(merged.result_count, 0);
    }

    #[test]
    fn merge_parallel_of_one_worker_is_the_identity() {
        // With a single worker the merge must neither lose nor double any
        // field: the worker's record is the query's record.
        let single = QueryMetrics::merge_parallel([metrics(7, 1, 1, 3)]);
        assert_eq!(single, metrics(7, 1, 1, 3));
    }

    #[test]
    fn merge_parallel_saturates_work_counters() {
        // Counter sums clamp at the type maximum instead of wrapping.
        let near_max = QueryMetrics {
            cracks_performed: u32::MAX - 1,
            compactions_performed: u32::MAX - 3,
            compaction_steps: u32::MAX - 2,
            snapshot_retries: u32::MAX - 1,
            rows_reclaimed: u64::MAX - 3,
            conflicts: u32::MAX,
            refinements_skipped: u32::MAX - 2,
            inserts_applied: u32::MAX,
            deletes_applied: u32::MAX - 1,
            result_count: u64::MAX - 5,
            candidate_set_bytes: u64::MAX - 2,
            blocks_skipped: u64::MAX - 4,
            join_pairs: u64::MAX - 1,
            join_rows_skipped: u64::MAX - 2,
            ..QueryMetrics::default()
        };
        let more = QueryMetrics {
            cracks_performed: 5,
            compactions_performed: 8,
            compaction_steps: 9,
            snapshot_retries: 4,
            rows_reclaimed: 50,
            conflicts: 1,
            refinements_skipped: 7,
            inserts_applied: 2,
            deletes_applied: 9,
            result_count: 100,
            candidate_set_bytes: 7,
            blocks_skipped: 6,
            join_pairs: 4,
            join_rows_skipped: 5,
            ..QueryMetrics::default()
        };
        let merged = QueryMetrics::merge_parallel([near_max, more]);
        assert_eq!(merged.cracks_performed, u32::MAX);
        assert_eq!(merged.compactions_performed, u32::MAX);
        assert_eq!(merged.compaction_steps, u32::MAX);
        assert_eq!(merged.snapshot_retries, u32::MAX);
        assert_eq!(merged.rows_reclaimed, u64::MAX);
        assert_eq!(merged.conflicts, u32::MAX);
        assert_eq!(merged.refinements_skipped, u32::MAX);
        assert_eq!(merged.inserts_applied, u32::MAX);
        assert_eq!(merged.deletes_applied, u32::MAX);
        assert_eq!(merged.result_count, u64::MAX);
        assert_eq!(merged.candidate_set_bytes, u64::MAX);
        assert_eq!(merged.blocks_skipped, u64::MAX);
        assert_eq!(merged.join_pairs, u64::MAX);
        assert_eq!(merged.join_rows_skipped, u64::MAX);
    }

    #[test]
    fn accumulate_folds_compaction_fields() {
        let mut a = QueryMetrics {
            compaction_time: Duration::from_millis(5),
            compactions_performed: 1,
            ..QueryMetrics::default()
        };
        a.accumulate(&QueryMetrics {
            compaction_time: Duration::from_millis(7),
            compactions_performed: 2,
            ..QueryMetrics::default()
        });
        assert_eq!(a.compaction_time, Duration::from_millis(12));
        assert_eq!(a.compactions_performed, 3);
    }

    #[test]
    fn run_metrics_aggregation() {
        let mut run = RunMetrics::new();
        run.per_query.push(metrics(10, 1, 2, 1));
        run.per_query.push(metrics(30, 3, 4, 0));
        run.wall_clock = Duration::from_millis(40);
        assert_eq!(run.query_count(), 2);
        assert_eq!(run.totals().total, Duration::from_millis(40));
        assert_eq!(run.mean_query_time(), Duration::from_millis(20));
        assert_eq!(run.total_conflicts(), 1);
        assert_eq!(run.total_wait_time(), Duration::from_millis(4));
        assert_eq!(run.total_crack_time(), Duration::from_millis(6));
        let qps = run.throughput_qps();
        assert!(
            (qps - 50.0).abs() < 1e-9,
            "2 queries / 0.04 s = 50 qps, got {qps}"
        );
    }

    #[test]
    fn running_average_matches_definition() {
        let mut run = RunMetrics::new();
        run.per_query.push(metrics(10, 0, 0, 0));
        run.per_query.push(metrics(30, 0, 0, 0));
        run.per_query.push(metrics(20, 0, 0, 0));
        let avg = run.running_average();
        assert_eq!(
            avg,
            vec![
                Duration::from_millis(10),
                Duration::from_millis(20),
                Duration::from_millis(20),
            ]
        );
    }

    #[test]
    fn empty_run_is_well_behaved() {
        let run = RunMetrics::new();
        assert_eq!(run.query_count(), 0);
        assert_eq!(run.throughput_qps(), 0.0);
        assert_eq!(run.mean_query_time(), Duration::ZERO);
        assert!(run.running_average().is_empty());
        assert!(run.latency_breakdown().total.is_empty());
        assert!(run.throughput_windows(Duration::from_millis(1)).is_empty());
    }

    #[test]
    fn latency_breakdown_bounds_the_recorded_latencies() {
        let mut run = RunMetrics::new();
        run.per_query.push(metrics(10, 1, 2, 0));
        run.per_query.push(metrics(30, 3, 4, 0));
        let b = run.latency_breakdown();
        assert_eq!(b.total.count(), 2);
        assert_eq!(b.total.min(), Duration::from_millis(10).as_nanos() as u64);
        assert!(b.total.p99() >= Duration::from_millis(30).as_nanos() as u64);
        assert_eq!(b.wait.min(), Duration::from_millis(1).as_nanos() as u64);
        // Merging two breakdowns equals recording into one.
        let mut half_a = LatencyBreakdown::new();
        half_a.record(&run.per_query[0]);
        let mut half_b = LatencyBreakdown::new();
        half_b.record(&run.per_query[1]);
        half_a.merge(&half_b);
        assert_eq!(half_a.total.p99(), b.total.p99());
        let json = b.to_json();
        assert!(json.get("wait").unwrap().get("p99_ns").is_some());
    }

    #[test]
    fn throughput_windows_bucket_completions_per_client() {
        let mut run = RunMetrics::new();
        for (client, ms) in [(0, 1), (1, 2), (0, 12), (0, 13), (1, 25)] {
            run.completions.push(Completion {
                client,
                at: Duration::from_millis(ms),
            });
        }
        let windows = run.throughput_windows(Duration::from_millis(10));
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].total, 2);
        assert_eq!(windows[0].per_client, vec![1, 1]);
        assert_eq!(windows[1].total, 2);
        assert_eq!(windows[1].per_client, vec![2, 0]);
        assert_eq!(windows[2].total, 1);
        assert_eq!(windows[2].per_client, vec![0, 1]);
        assert_eq!(windows[1].start, Duration::from_millis(10));
        let json = run.throughput_windows_json(Duration::from_millis(10));
        assert_eq!(json.as_arr().unwrap().len(), 3);
        assert_eq!(
            json.as_arr().unwrap()[1].get("total").unwrap().as_u64(),
            Some(2)
        );
    }
}
