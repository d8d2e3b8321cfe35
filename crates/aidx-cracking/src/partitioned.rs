//! The partitioned B-tree (Section 4.1).
//!
//! A partitioned B-tree is "a traditional B-tree index with an artificial
//! leading key field that captures partition identifiers". Partitions appear
//! and disappear simply by inserting and deleting records with the
//! appropriate leading value — no catalog updates, no per-partition trees.
//! This makes it the natural home for the intermediate states of an external
//! merge sort, which is exactly what adaptive merging exploits.
//!
//! Here the composite key is `(partition, key, rowid)`: the trailing row id
//! guarantees uniqueness even when key values repeat, so the underlying
//! B-tree is a plain ordered set — the `std` [`BTreeSet`].

use crate::RowId;
use std::collections::{BTreeMap, BTreeSet};

/// Identifier of a partition inside the partitioned B-tree.
pub type PartitionId = u32;

/// The partition that adaptive merging merges qualifying records into.
pub const FINAL_PARTITION: PartitionId = 0;

/// Composite key of the partitioned B-tree: artificial leading partition
/// identifier, then the indexed key, then the row id as a tie-breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PartKey {
    /// The artificial leading key field.
    pub partition: PartitionId,
    /// The indexed key value.
    pub key: i64,
    /// Row id of the tuple, making composite keys unique.
    pub rowid: RowId,
}

impl PartKey {
    /// Smallest possible composite key within `partition` at or above `key`.
    pub fn lower(partition: PartitionId, key: i64) -> Self {
        PartKey {
            partition,
            key,
            rowid: 0,
        }
    }

    /// Smallest composite key of the next partition (used as an exclusive
    /// upper bound for whole-partition scans).
    pub fn partition_end(partition: PartitionId) -> Self {
        PartKey {
            partition: partition + 1,
            key: i64::MIN,
            rowid: 0,
        }
    }
}

/// A single B-tree holding multiple partitions through an artificial leading
/// key field, plus a small table of contents with per-partition counts.
#[derive(Debug, Clone)]
pub struct PartitionedBTree {
    tree: BTreeSet<PartKey>,
    /// Table of contents: partition → number of records currently stored.
    toc: BTreeMap<PartitionId, usize>,
}

impl Default for PartitionedBTree {
    fn default() -> Self {
        Self::new()
    }
}

impl PartitionedBTree {
    /// Creates an empty partitioned B-tree.
    pub fn new() -> Self {
        PartitionedBTree {
            tree: BTreeSet::new(),
            toc: BTreeMap::new(),
        }
    }

    /// Total number of records across all partitions.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True if no records are stored.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Inserts one record into a partition.
    pub fn insert(&mut self, partition: PartitionId, key: i64, rowid: RowId) {
        let inserted = self.tree.insert(PartKey {
            partition,
            key,
            rowid,
        });
        if inserted {
            *self.toc.entry(partition).or_insert(0) += 1;
        }
    }

    /// Number of records currently in `partition`.
    pub fn partition_len(&self, partition: PartitionId) -> usize {
        self.toc.get(&partition).copied().unwrap_or(0)
    }

    /// Partitions that currently hold at least one record, in id order.
    pub fn partitions(&self) -> Vec<PartitionId> {
        self.toc
            .iter()
            .filter(|(_, &n)| n > 0)
            .map(|(&p, _)| p)
            .collect()
    }

    /// All `(key, rowid)` records of `partition` with `low <= key < high`,
    /// in key order.
    pub fn range_in_partition(
        &self,
        partition: PartitionId,
        low: i64,
        high: i64,
    ) -> Vec<(i64, RowId)> {
        if low >= high {
            return Vec::new();
        }
        let lo = PartKey::lower(partition, low);
        let hi = PartKey::lower(partition, high);
        self.tree.range(lo..hi).map(|k| (k.key, k.rowid)).collect()
    }

    /// All `(key, rowid)` records of `partition`, in key order.
    pub fn scan_partition(&self, partition: PartitionId) -> Vec<(i64, RowId)> {
        let lo = PartKey {
            partition,
            key: i64::MIN,
            rowid: 0,
        };
        let hi = PartKey::partition_end(partition);
        self.tree.range(lo..hi).map(|k| (k.key, k.rowid)).collect()
    }

    /// Removes and returns all records of `partition` with
    /// `low <= key < high`.
    pub fn remove_range_in_partition(
        &mut self,
        partition: PartitionId,
        low: i64,
        high: i64,
    ) -> Vec<(i64, RowId)> {
        if low >= high {
            return Vec::new();
        }
        let lo = PartKey::lower(partition, low);
        let hi = PartKey::lower(partition, high);
        self.remove_between(partition, lo, hi)
    }

    /// Removes and returns every record of `partition` whose key equals
    /// `key` (the delete operation of the unified read/write engine API).
    /// Unlike [`Self::remove_range_in_partition`] this covers the whole
    /// key domain, including `i64::MAX`.
    pub fn remove_key_in_partition(
        &mut self,
        partition: PartitionId,
        key: i64,
    ) -> Vec<(i64, RowId)> {
        let lo = PartKey::lower(partition, key);
        let hi = match key.checked_add(1) {
            Some(next) => PartKey::lower(partition, next),
            None => PartKey::partition_end(partition),
        };
        self.remove_between(partition, lo, hi)
    }

    fn remove_between(
        &mut self,
        partition: PartitionId,
        lo: PartKey,
        hi: PartKey,
    ) -> Vec<(i64, RowId)> {
        let removed: Vec<(i64, RowId)> = self
            .tree
            .extract_if(lo..hi, |_| true)
            .map(|k| (k.key, k.rowid))
            .collect();
        if !removed.is_empty() {
            let count = self
                .toc
                .get_mut(&partition)
                .expect("partition with records must be in the table of contents");
            *count -= removed.len();
        }
        removed
    }

    /// Moves all records with `low <= key < high` from partition `from` to
    /// partition `to` — one *merge step*. Returns the number of records
    /// moved. Records keep their key and row id; only the artificial leading
    /// key field changes, so logical index contents are untouched.
    pub fn move_range(&mut self, from: PartitionId, to: PartitionId, low: i64, high: i64) -> usize {
        let records = self.remove_range_in_partition(from, low, high);
        let moved = records.len();
        for (key, rowid) in records {
            self.insert(to, key, rowid);
        }
        moved
    }

    /// Range query across *all* partitions (index lookup per partition):
    /// all `(key, rowid)` pairs with `low <= key < high`.
    pub fn range_all_partitions(&self, low: i64, high: i64) -> Vec<(i64, RowId)> {
        let mut out = Vec::new();
        for (&p, _) in self.toc.iter().filter(|(_, &n)| n > 0) {
            out.extend(self.range_in_partition(p, low, high));
        }
        out
    }

    /// Verifies that the table of contents agrees with the stored records.
    pub fn check_invariants(&self) -> bool {
        let mut counts: BTreeMap<PartitionId, usize> = BTreeMap::new();
        for k in &self.tree {
            *counts.entry(k.partition).or_insert(0) += 1;
        }
        for (&p, &n) in &self.toc {
            if counts.get(&p).copied().unwrap_or(0) != n {
                return false;
            }
        }
        counts
            .iter()
            .all(|(p, &n)| self.toc.get(p).copied().unwrap_or(0) == n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded_tree() -> PartitionedBTree {
        let mut t = PartitionedBTree::new();
        // Partition 1: even keys, partition 2: odd keys.
        for i in 0..100i64 {
            let pid = if i % 2 == 0 { 1 } else { 2 };
            t.insert(pid, i, i as RowId);
        }
        t
    }

    #[test]
    fn empty_tree_basics() {
        let t = PartitionedBTree::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.partitions().is_empty());
        assert_eq!(t.partition_len(3), 0);
        assert!(t.range_all_partitions(0, 100).is_empty());
        assert!(t.check_invariants());
    }

    #[test]
    fn insert_and_per_partition_scan() {
        let t = loaded_tree();
        assert_eq!(t.len(), 100);
        assert_eq!(t.partitions(), vec![1, 2]);
        assert_eq!(t.partition_len(1), 50);
        assert_eq!(t.partition_len(2), 50);
        let evens = t.scan_partition(1);
        assert_eq!(evens.len(), 50);
        assert!(evens.iter().all(|&(k, _)| k % 2 == 0));
        assert!(evens.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(t.check_invariants());
    }

    #[test]
    fn range_in_partition_respects_bounds() {
        let t = loaded_tree();
        let r = t.range_in_partition(1, 10, 20);
        assert_eq!(
            r.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            vec![10, 12, 14, 16, 18]
        );
        assert!(t.range_in_partition(1, 20, 10).is_empty());
        assert!(t.range_in_partition(7, 0, 100).is_empty());
    }

    #[test]
    fn range_all_partitions_combines() {
        let t = loaded_tree();
        let mut keys: Vec<i64> = t
            .range_all_partitions(10, 20)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        keys.sort_unstable();
        assert_eq!(keys, (10..20).collect::<Vec<_>>());
    }

    #[test]
    fn move_range_is_a_merge_step() {
        let mut t = loaded_tree();
        let moved = t.move_range(1, FINAL_PARTITION, 10, 30);
        assert_eq!(moved, 10); // even keys 10..30
        assert_eq!(t.partition_len(FINAL_PARTITION), 10);
        assert_eq!(t.partition_len(1), 40);
        assert_eq!(t.len(), 100, "moving must not change logical contents");
        assert!(t.range_in_partition(1, 10, 30).is_empty());
        let final_keys: Vec<i64> = t
            .scan_partition(FINAL_PARTITION)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(
            final_keys,
            (10..30).filter(|k| k % 2 == 0).collect::<Vec<_>>()
        );
        assert!(t.check_invariants());
        // Moving the same range again moves nothing.
        assert_eq!(t.move_range(1, FINAL_PARTITION, 10, 30), 0);
    }

    #[test]
    fn partitions_disappear_when_emptied() {
        let mut t = PartitionedBTree::new();
        for i in 0..10i64 {
            t.insert(5, i, i as RowId);
        }
        assert_eq!(t.partitions(), vec![5]);
        let removed = t.remove_range_in_partition(5, 0, 10);
        assert_eq!(removed.len(), 10);
        assert!(t.partitions().is_empty());
        assert_eq!(t.partition_len(5), 0);
        assert!(t.check_invariants());
    }

    #[test]
    fn duplicate_keys_with_distinct_rowids_coexist() {
        let mut t = PartitionedBTree::new();
        t.insert(1, 42, 0);
        t.insert(1, 42, 1);
        t.insert(1, 42, 1); // exact duplicate: stored and counted once
        assert_eq!(t.partition_len(1), 2);
        assert_eq!(t.range_in_partition(1, 42, 43).len(), 2);
        assert!(t.check_invariants());
    }

    #[test]
    fn part_key_ordering_groups_by_partition_first() {
        assert!(PartKey::lower(1, i64::MAX) < PartKey::lower(2, i64::MIN));
        assert!(
            PartKey::lower(1, 5)
                < PartKey {
                    partition: 1,
                    key: 5,
                    rowid: 1
                }
        );
        assert!(PartKey::partition_end(1) == PartKey::lower(2, i64::MIN));
    }
}
