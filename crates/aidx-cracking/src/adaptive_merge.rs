//! Adaptive merging (Graefe & Kuno, EDBT 2010) over a partitioned B-tree.
//!
//! Adaptive merging "resembles an incremental external merge sort": the
//! first query against a column produces sorted runs (one partition per
//! run in the partitioned B-tree); every subsequent query merges the
//! qualifying key range out of the runs and into the *final* partition,
//! applying at most one merge step per record (Section 2, Figure 3).
//! Records in key ranges that are never queried stay in their runs forever.
//!
//! Each merge step only changes the artificial leading key field of the
//! records it touches — the logical index contents are untouched, which is
//! why the paper can treat merge steps as instantly-committing system
//! transactions (Section 4.3).

use crate::partitioned::{PartitionId, PartitionedBTree, FINAL_PARTITION};
use crate::RowId;

/// The partition that newly inserted records land in. Inserts enter the
/// partitioned B-tree exactly like a late-arriving run: the records are a
/// valid part of the index immediately, and queries merge the qualifying
/// key ranges into the final partition like any other run (Section 4's
/// observation that updates reuse the merge machinery).
pub const UPDATE_PARTITION: PartitionId = PartitionId::MAX - 1;

/// Counters describing how far the adaptive merge index has converged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Queries answered so far.
    pub queries: u64,
    /// Merge steps executed (a step = one source partition contributing
    /// records to the final partition during one query).
    pub merge_steps: u64,
    /// Records moved into the final partition so far.
    pub records_merged: u64,
    /// Number of initial runs created by index initialisation.
    pub initial_runs: u32,
    /// Rows inserted since initialisation.
    pub inserts: u64,
    /// Rows deleted since initialisation.
    pub deletes: u64,
}

/// An adaptive-merging index over one column.
#[derive(Debug, Clone)]
pub struct AdaptiveMergeIndex {
    tree: PartitionedBTree,
    run_partitions: Vec<PartitionId>,
    total_records: usize,
    next_rowid: RowId,
    stats: MergeStats,
}

impl AdaptiveMergeIndex {
    /// Initialises the index from a slice of key values (row ids are the
    /// positions in the slice): the data is cut into runs of `run_size`
    /// records, each run is sorted in memory and loaded as its own partition
    /// (the expensive side effect of the *first* query).
    pub fn build_from_values(values: &[i64], run_size: usize) -> Self {
        let run_size = run_size.max(1);
        let mut tree = PartitionedBTree::new();
        let mut run_partitions = Vec::new();
        for (chunk_idx, chunk) in values.chunks(run_size).enumerate() {
            let base = chunk_idx * run_size;
            let mut run: Vec<(i64, RowId)> = chunk
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, (base + i) as RowId))
                .collect();
            run.sort_unstable();
            let pid = FINAL_PARTITION + 1 + chunk_idx as PartitionId;
            for (key, rowid) in run {
                tree.insert(pid, key, rowid);
            }
            run_partitions.push(pid);
        }
        let initial_runs = u32::try_from(run_partitions.len()).unwrap_or(u32::MAX);
        AdaptiveMergeIndex {
            tree,
            run_partitions,
            total_records: values.len(),
            next_rowid: values.len() as RowId,
            stats: MergeStats {
                initial_runs,
                ..MergeStats::default()
            },
        }
    }

    /// Total number of indexed records.
    pub fn len(&self) -> usize {
        self.total_records
    }

    /// True if the index holds no records.
    pub fn is_empty(&self) -> bool {
        self.total_records == 0
    }

    /// Progress counters.
    pub fn stats(&self) -> MergeStats {
        self.stats
    }

    /// Number of records already merged into the final partition.
    pub fn final_partition_len(&self) -> usize {
        self.tree.partition_len(FINAL_PARTITION)
    }

    /// True once every record has been merged into the final partition (the
    /// index is fully optimised for any workload).
    pub fn is_fully_merged(&self) -> bool {
        self.final_partition_len() == self.total_records
    }

    /// The underlying partitioned B-tree (read-only).
    pub fn tree(&self) -> &PartitionedBTree {
        &self.tree
    }

    /// Answers a range query, merging the qualifying key range out of the
    /// runs and into the final partition as a side effect. Returns the
    /// qualifying `(key, rowid)` pairs in key order.
    pub fn query_range(&mut self, low: i64, high: i64) -> Vec<(i64, RowId)> {
        self.stats.queries += 1;
        if low < high {
            for &pid in &self.run_partitions {
                let moved = self.tree.move_range(pid, FINAL_PARTITION, low, high);
                if moved > 0 {
                    self.stats.merge_steps += 1;
                    self.stats.records_merged += moved as u64;
                }
            }
            // Inserted records merge out of the update partition exactly
            // like run records.
            let moved = self
                .tree
                .move_range(UPDATE_PARTITION, FINAL_PARTITION, low, high);
            if moved > 0 {
                self.stats.merge_steps += 1;
                self.stats.records_merged += moved as u64;
            }
        }
        self.tree.range_in_partition(FINAL_PARTITION, low, high)
    }

    /// Inserts one row with the given key into the update partition,
    /// returning its new row id. The row is immediately visible to queries
    /// (a partitioned B-tree is a valid index at every merge state) and
    /// migrates to the final partition when a query merges its key range.
    pub fn insert(&mut self, key: i64) -> RowId {
        let rowid = self.next_rowid;
        self.next_rowid += 1;
        self.tree.insert(UPDATE_PARTITION, key, rowid);
        self.total_records += 1;
        self.stats.inserts += 1;
        rowid
    }

    /// Deletes every row whose key equals `key` — wherever it currently
    /// lives (final partition, any run, or the update partition) — and
    /// returns how many rows were removed.
    pub fn delete(&mut self, key: i64) -> u64 {
        let mut removed = self
            .tree
            .remove_key_in_partition(FINAL_PARTITION, key)
            .len();
        removed += self
            .tree
            .remove_key_in_partition(UPDATE_PARTITION, key)
            .len();
        for &pid in &self.run_partitions {
            removed += self.tree.remove_key_in_partition(pid, key).len();
        }
        self.total_records -= removed;
        self.stats.deletes += removed as u64;
        removed as u64
    }

    /// Q1 (`count(*)`) with adaptive merging as a side effect.
    pub fn count(&mut self, low: i64, high: i64) -> u64 {
        self.query_range(low, high).len() as u64
    }

    /// Q2 (`sum(A)`) with adaptive merging as a side effect.
    pub fn sum(&mut self, low: i64, high: i64) -> i128 {
        self.query_range(low, high)
            .iter()
            .map(|&(k, _)| k as i128)
            .sum()
    }

    /// Verifies that no records were lost or duplicated and the underlying
    /// tree invariants hold.
    pub fn check_invariants(&self) -> bool {
        self.tree.check_invariants() && self.tree.len() == self.total_records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    fn shuffled(n: usize) -> Vec<i64> {
        // Deterministic pseudo-shuffle of 0..n.
        (0..n as i64).map(|i| (i * 48271) % n as i64).collect()
    }

    #[test]
    fn build_creates_sorted_runs() {
        let values = shuffled(100);
        let idx = AdaptiveMergeIndex::build_from_values(&values, 25);
        assert_eq!(idx.len(), 100);
        assert!(!idx.is_empty());
        assert_eq!(idx.stats().initial_runs, 4);
        assert_eq!(idx.final_partition_len(), 0);
        assert!(!idx.is_fully_merged());
        // Every run partition is sorted (scan_partition returns key order by
        // construction) and the runs together hold all records.
        let total: usize = idx
            .tree()
            .partitions()
            .iter()
            .map(|&p| idx.tree().partition_len(p))
            .sum();
        assert_eq!(total, 100);
        assert!(idx.check_invariants());
    }

    #[test]
    fn run_count_rounds_up() {
        let idx = AdaptiveMergeIndex::build_from_values(&shuffled(10), 3);
        assert_eq!(idx.stats().initial_runs, 4); // 3+3+3+1
        let idx = AdaptiveMergeIndex::build_from_values(&shuffled(9), 3);
        assert_eq!(idx.stats().initial_runs, 3);
        let idx = AdaptiveMergeIndex::build_from_values(&[], 3);
        assert_eq!(idx.stats().initial_runs, 0);
        assert!(idx.is_empty());
    }

    #[test]
    fn query_results_match_scan() {
        let values = shuffled(500);
        let mut idx = AdaptiveMergeIndex::build_from_values(&values, 64);
        for (low, high) in [(100, 200), (0, 500), (499, 500), (250, 100), (490, 600)] {
            assert_eq!(
                idx.count(low, high),
                ops::count(&values, low, high),
                "[{low},{high})"
            );
            assert_eq!(idx.sum(low, high), ops::sum(&values, low, high));
            assert!(idx.check_invariants());
        }
    }

    #[test]
    fn queried_ranges_move_to_final_partition() {
        let values = shuffled(200);
        let mut idx = AdaptiveMergeIndex::build_from_values(&values, 50);
        idx.count(50, 100);
        assert_eq!(idx.final_partition_len(), 50);
        assert!(idx.stats().merge_steps > 0);
        assert_eq!(idx.stats().records_merged, 50);
        // A repeated query finds everything already in the final partition
        // and performs no further merge steps.
        let steps_before = idx.stats().merge_steps;
        idx.count(50, 100);
        assert_eq!(idx.stats().merge_steps, steps_before);
        assert_eq!(idx.final_partition_len(), 50);
    }

    #[test]
    fn rowids_are_preserved_through_merging() {
        let values = vec![50, 10, 90, 30, 70];
        let mut idx = AdaptiveMergeIndex::build_from_values(&values, 2);
        let result = idx.query_range(20, 80);
        let mut rowids: Vec<RowId> = result.iter().map(|&(_, r)| r).collect();
        rowids.sort_unstable();
        assert_eq!(rowids, vec![0, 3, 4]); // positions of 50, 30, 70
        for &(k, r) in &result {
            assert_eq!(values[r as usize], k);
        }
    }

    #[test]
    fn whole_domain_query_fully_merges() {
        let values = shuffled(120);
        let mut idx = AdaptiveMergeIndex::build_from_values(&values, 16);
        idx.count(i64::MIN, i64::MAX);
        assert!(idx.is_fully_merged());
        assert_eq!(idx.final_partition_len(), 120);
        // The final partition is sorted.
        let final_keys: Vec<i64> = idx
            .tree()
            .scan_partition(FINAL_PARTITION)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert!(final_keys.windows(2).all(|w| w[0] <= w[1]));
        assert!(idx.check_invariants());
    }

    #[test]
    fn merge_effort_decreases_for_overlapping_queries() {
        let values = shuffled(1000);
        let mut idx = AdaptiveMergeIndex::build_from_values(&values, 100);
        idx.count(100, 600);
        let merged_after_first = idx.stats().records_merged;
        idx.count(200, 500); // fully contained: nothing new to merge
        assert_eq!(idx.stats().records_merged, merged_after_first);
        idx.count(550, 650); // partial overlap: only 600..650 is new
        assert_eq!(idx.stats().records_merged, merged_after_first + 50);
    }

    #[test]
    fn inserts_enter_the_update_partition_and_merge_out() {
        let values = shuffled(200);
        let mut idx = AdaptiveMergeIndex::build_from_values(&values, 50);
        let rid = idx.insert(42);
        assert_eq!(rid, 200);
        idx.insert(42);
        assert_eq!(idx.len(), 202);
        assert_eq!(idx.tree().partition_len(UPDATE_PARTITION), 2);
        // A query over the inserted key sees the new rows and merges them
        // into the final partition.
        assert_eq!(idx.count(42, 43), ops::count(&values, 42, 43) + 2);
        assert_eq!(idx.tree().partition_len(UPDATE_PARTITION), 0);
        assert_eq!(idx.stats().inserts, 2);
        assert!(idx.check_invariants());
    }

    #[test]
    fn delete_removes_rows_from_every_partition() {
        let values = shuffled(300);
        let mut idx = AdaptiveMergeIndex::build_from_values(&values, 64);
        idx.count(100, 150); // move some rows into the final partition
        idx.insert(120); // and one into the update partition
                         // 120 now exists in the final partition (merged) and the update
                         // partition; other keys still sit in their runs.
        assert_eq!(idx.delete(120), 2);
        assert_eq!(idx.delete(120), 0);
        assert_eq!(idx.delete(250), 1, "run-resident key");
        assert_eq!(idx.count(0, 300), 298);
        assert_eq!(idx.stats().deletes, 3);
        assert!(idx.check_invariants());
    }

    #[test]
    fn full_merge_includes_inserted_rows() {
        let mut idx = AdaptiveMergeIndex::build_from_values(&shuffled(100), 25);
        idx.insert(1000);
        idx.count(i64::MIN, i64::MAX);
        assert!(idx.is_fully_merged());
        assert_eq!(idx.final_partition_len(), 101);
        assert!(idx.check_invariants());
    }

    #[test]
    fn extreme_keys_insert_and_delete() {
        let mut idx = AdaptiveMergeIndex::build_from_values(&shuffled(50), 10);
        idx.insert(i64::MAX);
        idx.insert(i64::MAX);
        idx.insert(i64::MIN);
        assert_eq!(idx.delete(i64::MAX), 2);
        assert_eq!(idx.delete(i64::MIN), 1);
        assert_eq!(idx.len(), 50);
        assert!(idx.check_invariants());
    }

    #[test]
    fn empty_and_inverted_queries_do_no_work() {
        let values = shuffled(50);
        let mut idx = AdaptiveMergeIndex::build_from_values(&values, 10);
        assert_eq!(idx.count(10, 10), 0);
        assert_eq!(idx.count(30, 20), 0);
        assert_eq!(idx.stats().merge_steps, 0);
        assert_eq!(idx.final_partition_len(), 0);
        assert_eq!(idx.stats().queries, 2);
    }
}
