//! Per-query metrics.
//!
//! The evaluation section of the paper reports, besides end-to-end times,
//! the *breakdown* of where a query's time goes: how long it waited for
//! latches versus how long it spent refining the index (Figure 15), how many
//! conflicts occurred, and how much administration overhead concurrency
//! control added (Figure 13). Every query executed through `aidx-core`
//! returns a [`QueryMetrics`] carrying exactly those numbers; a caller sums
//! them with [`QueryMetrics::accumulate`].

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
    /// Rows physically reclaimed or merged in place by this operation:
    /// tombstoned rows its piece shrinks and incremental compaction steps
    /// swept into holes, plus pending inserts its steps placed into holes.
    /// A full rebuild is counted in `compactions_performed` instead.
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
    /// Bytes of the candidate row-id set(s) this operation materialised
    /// (0 for operations that never built one).
    pub candidate_set_bytes: u64,
    /// Always 0: row-id sets have no blocks to skip. Kept because the
    /// benchmark's table metrics (`benchmark/src/measure.rs`) read it.
    pub blocks_skipped: u64,
    /// Output `(left rowid, right rowid)` pairs emitted by an equi-join
    /// (0 for non-join operations).
    pub join_pairs: u64,
    /// `(key, rowid)` rows a join bypassed without reading them. No join
    /// skips rows today, so it reads 0; it stays because reports name it.
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
    fn accumulate_saturates_work_counters() {
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
        let mut merged = near_max;
        merged.accumulate(&more);
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
}
