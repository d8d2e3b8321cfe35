//! The two non-adaptive baselines of the evaluation (Section 6.1).
//!
//! * [`ScanBaseline`] — "the system accesses the data using plain scans,
//!   with no indexing mechanism present": every query pays a full O(n) pass.
//! * [`SortIndex`] — "when the first query arrives, we build the complete
//!   index before we evaluate the query": the column is fully sorted once
//!   (with aligned row ids) and every query thereafter uses binary search.
//!
//! Both are read-only at query time and therefore need no concurrency
//! control of their own, which is exactly the contrast the paper draws with
//! adaptive indexing.

use crate::{ops, RowId};

/// The plain-scan baseline: no auxiliary structure at all.
#[derive(Debug, Clone)]
pub struct ScanBaseline {
    values: Vec<i64>,
}

impl ScanBaseline {
    /// Wraps the given values.
    pub fn from_values(values: Vec<i64>) -> Self {
        ScanBaseline { values }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Q1 by full scan.
    pub fn count(&self, low: i64, high: i64) -> u64 {
        ops::count(&self.values, low, high)
    }

    /// Q2 by full scan.
    pub fn sum(&self, low: i64, high: i64) -> i128 {
        ops::sum(&self.values, low, high)
    }

    /// Qualifying row ids by full scan.
    pub fn select_rowids(&self, low: i64, high: i64) -> Vec<RowId> {
        ops::select_positions(&self.values, low, high)
    }
}

/// The full-index baseline: sort everything up front, then binary-search.
#[derive(Debug, Clone)]
pub struct SortIndex {
    values: Vec<i64>,
    rowids: Vec<RowId>,
    next_rowid: RowId,
}

impl SortIndex {
    /// Builds the full index by sorting the values (the expensive
    /// first-query investment of Figure 11).
    pub fn build_from_values(values: Vec<i64>) -> Self {
        let next_rowid = values.len() as RowId;
        let mut pairs: Vec<(i64, RowId)> = values
            .into_iter()
            .enumerate()
            .map(|(i, v)| (v, i as RowId))
            .collect();
        pairs.sort_unstable();
        let values = pairs.iter().map(|&(v, _)| v).collect();
        let rowids = pairs.iter().map(|&(_, r)| r).collect();
        SortIndex {
            values,
            rowids,
            next_rowid,
        }
    }

    /// Inserts one row with the given key at its sorted position,
    /// returning its new row id.
    pub fn insert(&mut self, value: i64) -> RowId {
        let rowid = self.next_rowid;
        self.next_rowid += 1;
        let pos = self.values.partition_point(|&v| v <= value);
        self.values.insert(pos, value);
        self.rowids.insert(pos, rowid);
        rowid
    }

    /// Deletes every row whose key equals `value`, returning how many rows
    /// were removed.
    pub fn delete_all(&mut self, value: i64) -> u64 {
        let start = self.values.partition_point(|&v| v < value);
        let end = self.values.partition_point(|&v| v <= value);
        self.values.drain(start..end);
        self.rowids.drain(start..end);
        (end - start) as u64
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The sorted key array (used by adaptive merging's final partition
    /// comparisons in tests).
    pub fn sorted_values(&self) -> &[i64] {
        &self.values
    }

    /// Position range of all values in `[low, high)` via binary search.
    pub fn lookup_range(&self, low: i64, high: i64) -> std::ops::Range<usize> {
        if low >= high {
            return 0..0;
        }
        let start = self.values.partition_point(|&v| v < low);
        let end = self.values.partition_point(|&v| v < high);
        start..end
    }

    /// Q1 by binary search.
    pub fn count(&self, low: i64, high: i64) -> u64 {
        self.lookup_range(low, high).len() as u64
    }

    /// Q2 by binary search plus a contiguous sum.
    pub fn sum(&self, low: i64, high: i64) -> i128 {
        let r = self.lookup_range(low, high);
        self.values[r].iter().map(|&v| v as i128).sum()
    }

    /// Qualifying row ids (unsorted by row id, sorted by key).
    pub fn select_rowids(&self, low: i64, high: i64) -> Vec<RowId> {
        let r = self.lookup_range(low, high);
        self.rowids[r].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Vec<i64> {
        vec![50, 10, 90, 30, 70, 20, 80, 60, 40, 0]
    }

    #[test]
    fn scan_baseline_counts_and_sums() {
        let scan = ScanBaseline::from_values(data());
        assert_eq!(scan.len(), 10);
        assert!(!scan.is_empty());
        assert_eq!(scan.count(20, 70), 5); // 50,30,20,60,40
        assert_eq!(scan.sum(20, 70), 200);
        assert_eq!(scan.count(100, 200), 0);
        let mut ids = scan.select_rowids(20, 70);
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 3, 5, 7, 8]);
    }

    #[test]
    fn sort_index_matches_scan() {
        let scan = ScanBaseline::from_values(data());
        let sorted = SortIndex::build_from_values(data());
        for (low, high) in [(20, 70), (0, 100), (55, 56), (90, 20), (-10, 5)] {
            assert_eq!(sorted.count(low, high), scan.count(low, high));
            assert_eq!(sorted.sum(low, high), scan.sum(low, high));
            let mut a = sorted.select_rowids(low, high);
            let mut b = scan.select_rowids(low, high);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn sort_index_is_sorted_and_aligned() {
        let sorted = SortIndex::build_from_values(data());
        assert!(sorted.sorted_values().windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(sorted.len(), 10);
        assert!(!sorted.is_empty());
        // Each rowid must point at the original position of its value.
        let original = data();
        for (i, &v) in sorted.sorted_values().iter().enumerate() {
            let rid = sorted.select_rowids(v, v + 1)[0];
            assert_eq!(original[rid as usize], v);
            let _ = i;
        }
    }

    #[test]
    fn lookup_range_edges() {
        let sorted = SortIndex::build_from_values(data());
        assert_eq!(sorted.lookup_range(0, 100), 0..10);
        assert_eq!(sorted.lookup_range(0, 0), 0..0);
        assert_eq!(sorted.lookup_range(95, 100), 10..10);
        assert_eq!(sorted.lookup_range(-10, 1), 0..1);
    }

    #[test]
    fn sort_index_inserts_and_deletes_stay_sorted() {
        let mut sorted = SortIndex::build_from_values(data());
        let rid = sorted.insert(55);
        assert_eq!(rid, 10);
        sorted.insert(55);
        sorted.insert(-5);
        assert!(sorted.sorted_values().windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(sorted.count(55, 56), 2);
        assert_eq!(sorted.delete_all(55), 2);
        assert_eq!(sorted.delete_all(55), 0);
        assert_eq!(sorted.delete_all(90), 1);
        assert_eq!(sorted.len(), 10); // 10 initial + 3 − 3
        assert_eq!(sorted.count(-10, 0), 1);
        assert!(sorted.sorted_values().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn empty_inputs() {
        let scan = ScanBaseline::from_values(vec![]);
        let sorted = SortIndex::build_from_values(vec![]);
        assert!(scan.is_empty());
        assert!(sorted.is_empty());
        assert_eq!(scan.count(0, 10), 0);
        assert_eq!(sorted.count(0, 10), 0);
        assert_eq!(sorted.sum(0, 10), 0);
    }
}
