//! Concurrency control for adaptive merging (Section 4).
//!
//! Adaptive merging over a partitioned B-tree inherits proven B-tree
//! concurrency techniques. The key properties the paper relies on are:
//!
//! * a partitioned B-tree is a valid index regardless of how many merge
//!   steps have completed, so **any merge step can be committed instantly**
//!   and conflicts can be resolved by simply committing what was done so far
//!   (adaptive early termination);
//! * merge steps are optional, so under contention they can be skipped
//!   entirely (conflict avoidance);
//! * system transactions must respect locks held by user transactions but
//!   never acquire locks of their own.
//!
//! [`ConcurrentAdaptiveMerge`] packages those rules around the
//! single-threaded [`AdaptiveMergeIndex`] of `aidx-cracking`, the crate of
//! serial structures and baselines: queries answer under a shared
//! latch; merge refinement runs in small, instantly-committed system
//! transactions under a short exclusive latch, checked against a
//! [`KeyRangeLockTable`] (also in `aidx-cracking`) so it never tramples a
//! user transaction's range locks.

use crate::metrics::QueryMetrics;
use crate::protocol::RefinementPolicy;
use aidx_cracking::{AdaptiveMergeIndex, KeyRangeLockTable, MergeStats, RowId};
use aidx_latch::facade::Mutex;
use aidx_latch::lockmgr::{LockManager, LockMode, TxnId};
use aidx_latch::ordered::OrderedWaitLatch;
use aidx_latch::systxn::{SystemTxnManager, SystemTxnStats};
use std::sync::Arc;
use std::time::Instant;

/// A thread-safe adaptive-merging index with optional, instantly-committing
/// merge refinement.
#[derive(Debug)]
pub struct ConcurrentAdaptiveMerge {
    index: Mutex<AdaptiveMergeIndex>,
    latch: OrderedWaitLatch,
    locks: Mutex<KeyRangeLockTable>,
    systxn: SystemTxnManager,
    policy: RefinementPolicy,
    /// Transaction id used by the index's own system transactions when
    /// checking for conflicting user locks.
    system_txn_id: TxnId,
}

impl ConcurrentAdaptiveMerge {
    /// Reserved transaction id for system transactions (never used by user
    /// transactions, which the caller numbers from 1 upwards).
    pub const SYSTEM_TXN_ID: TxnId = u64::MAX;

    /// Builds the index from raw values with the given run size.
    pub fn build_from_values(
        values: &[i64],
        run_size: usize,
        lock_manager: Arc<LockManager>,
    ) -> Self {
        ConcurrentAdaptiveMerge {
            index: Mutex::new(AdaptiveMergeIndex::build_from_values(values, run_size)),
            latch: OrderedWaitLatch::new(),
            locks: Mutex::new(KeyRangeLockTable::new("adaptive-merge", lock_manager)),
            systxn: SystemTxnManager::new(),
            policy: RefinementPolicy::Always,
            system_txn_id: Self::SYSTEM_TXN_ID,
        }
    }

    /// Sets the refinement policy (builder style).
    pub fn with_policy(mut self, policy: RefinementPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.index.lock().len()
    }

    /// True if the index holds no records.
    pub fn is_empty(&self) -> bool {
        self.index.lock().is_empty()
    }

    /// Merge-progress counters of the underlying index.
    pub fn merge_stats(&self) -> MergeStats {
        self.index.lock().stats()
    }

    /// System-transaction statistics.
    pub fn systxn_stats(&self) -> SystemTxnStats {
        self.systxn.stats()
    }

    /// True once every record sits in the final partition.
    pub fn is_fully_merged(&self) -> bool {
        self.index.lock().is_fully_merged()
    }

    /// Registers a user transaction's exclusive lock on a key range (e.g. an
    /// updater). System-transaction refinement will avoid that range.
    pub fn lock_user_range(&self, txn: TxnId, low: i64, high: i64) -> bool {
        self.locks
            .lock()
            .try_lock_range(txn, low, high, LockMode::Exclusive)
            .is_ok()
    }

    /// Releases every lock a user transaction holds.
    pub fn release_user_locks(&self, txn: TxnId) -> usize {
        self.locks.lock().release_all(txn)
    }

    /// Range query `[low, high)` returning `(key, rowid)` pairs.
    ///
    /// The query first tries to refine (merge the qualifying range into the
    /// final partition) inside a system transaction under an exclusive
    /// latch; if the latch is contended (with
    /// [`RefinementPolicy::SkipOnContention`]) or a user transaction holds a
    /// conflicting range lock, the refinement is skipped and the query
    /// answers from the runs directly under a shared latch.
    pub fn query_range(&self, low: i64, high: i64) -> (Vec<(i64, RowId)>, QueryMetrics) {
        let start = Instant::now();
        let mut metrics = QueryMetrics::default();
        if low >= high {
            metrics.total = start.elapsed();
            return (Vec::new(), metrics);
        }

        // Refinement attempt (optional).
        let refine_allowed = !self.locks.lock().conflicts_in_range(
            self.system_txn_id,
            low,
            high,
            LockMode::Exclusive,
        );
        if refine_allowed {
            let guard = match self.policy {
                RefinementPolicy::Always => Some(self.latch.acquire_write(low)),
                RefinementPolicy::SkipOnContention => self.latch.try_acquire_write(),
            };
            if let Some(_g) = guard {
                let crack_start = Instant::now();
                let mut index = self.index.lock();
                let steps_before = index.stats().merge_steps;
                let result = index.query_range(low, high);
                let steps =
                    u32::try_from(index.stats().merge_steps - steps_before).unwrap_or(u32::MAX);
                drop(index);
                metrics.crack_time += crack_start.elapsed();
                metrics.cracks_performed += steps;
                if steps > 0 {
                    let mut txn = self.systxn.begin(steps);
                    for _ in 0..steps {
                        txn.complete_step();
                    }
                    txn.commit();
                }
                metrics.result_count = result.len() as u64;
                metrics.total = start.elapsed();
                return (result, metrics);
            }
            metrics.refinements_skipped += 1;
            self.systxn.begin(1).abandon();
        } else {
            metrics.refinements_skipped += 1;
            self.systxn.begin(1).abandon();
        }

        // Read-only fallback: answer from the current state under a shared
        // latch, without any merging.
        let read_guard = self.latch.acquire_read();
        let agg_start = Instant::now();
        let mut result = self.index.lock().tree().range_all_partitions(low, high);
        result.sort_unstable();
        metrics.aggregate_time += agg_start.elapsed();
        drop(read_guard);
        metrics.result_count = result.len() as u64;
        metrics.total = start.elapsed();
        (result, metrics)
    }

    /// Inserts one row with the given key. The row enters the update
    /// partition under a short exclusive latch — a partitioned B-tree is a
    /// valid index at every merge state, so the insert commits instantly
    /// and is immediately visible to queries.
    pub fn insert(&self, key: i64) -> QueryMetrics {
        let start = Instant::now();
        let mut metrics = QueryMetrics::default();
        {
            let _guard = self.latch.acquire_write(key);
            self.index.lock().insert(key);
        }
        metrics.inserts_applied = 1;
        metrics.result_count = 1;
        metrics.total = start.elapsed();
        metrics
    }

    /// Deletes every row whose key equals `key` under a short exclusive
    /// latch, returning how many rows were removed.
    pub fn delete(&self, key: i64) -> (u64, QueryMetrics) {
        let start = Instant::now();
        let mut metrics = QueryMetrics::default();
        let removed = {
            let _guard = self.latch.acquire_write(key);
            self.index.lock().delete(key)
        };
        metrics.deletes_applied = 1;
        metrics.result_count = removed;
        metrics.total = start.elapsed();
        (removed, metrics)
    }

    /// Q1 over the adaptive-merging index.
    pub fn count(&self, low: i64, high: i64) -> (u64, QueryMetrics) {
        let (rows, metrics) = self.query_range(low, high);
        (rows.len() as u64, metrics)
    }

    /// Q2 over the adaptive-merging index.
    pub fn sum(&self, low: i64, high: i64) -> (i128, QueryMetrics) {
        let (rows, metrics) = self.query_range(low, high);
        (rows.iter().map(|&(k, _)| k as i128).sum(), metrics)
    }

    /// Verifies the underlying index invariants (quiescent).
    pub fn check_invariants(&self) -> bool {
        self.index.lock().check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aidx_cracking::ops;
    use std::thread;

    fn shuffled(n: usize) -> Vec<i64> {
        (0..n as i64).map(|i| (i * 7919) % n as i64).collect()
    }

    fn build(n: usize) -> ConcurrentAdaptiveMerge {
        ConcurrentAdaptiveMerge::build_from_values(
            &shuffled(n),
            (n / 8).max(1),
            Arc::new(LockManager::new()),
        )
    }

    #[test]
    fn sequential_queries_match_scan() {
        let values = shuffled(2000);
        let idx =
            ConcurrentAdaptiveMerge::build_from_values(&values, 256, Arc::new(LockManager::new()));
        for (low, high) in [(100, 1500), (0, 2000), (1999, 2000), (500, 400)] {
            assert_eq!(idx.count(low, high).0, ops::count(&values, low, high));
            assert_eq!(idx.sum(low, high).0, ops::sum(&values, low, high));
        }
        assert!(idx.check_invariants());
        assert_eq!(idx.len(), 2000);
        assert!(!idx.is_empty());
    }

    #[test]
    fn merge_steps_are_recorded_as_system_transactions() {
        let idx = build(1000);
        let (_, m) = idx.count(100, 500);
        assert!(m.cracks_performed > 0);
        let stats = idx.systxn_stats();
        assert_eq!(stats.committed, 1);
        assert_eq!(stats.abandoned, 0);
        assert!(stats.steps_completed > 0);
        assert!(idx.merge_stats().records_merged >= 400);
    }

    #[test]
    fn user_range_lock_blocks_refinement_but_not_answers() {
        let values = shuffled(1000);
        let idx =
            ConcurrentAdaptiveMerge::build_from_values(&values, 128, Arc::new(LockManager::new()));
        assert!(idx.lock_user_range(1, 0, 1000));
        let merged_before = idx.merge_stats().records_merged;
        let (c, m) = idx.count(100, 300);
        assert_eq!(c, ops::count(&values, 100, 300));
        assert_eq!(m.refinements_skipped, 1);
        assert_eq!(idx.merge_stats().records_merged, merged_before);
        assert_eq!(idx.systxn_stats().abandoned, 1);
        // After the user transaction releases its locks, refinement resumes.
        assert!(idx.release_user_locks(1) > 0);
        idx.count(100, 300);
        assert!(idx.merge_stats().records_merged > merged_before);
        assert!(idx.check_invariants());
    }

    #[test]
    fn concurrent_queries_are_correct() {
        let n = 5000usize;
        let values = Arc::new(shuffled(n));
        let idx = Arc::new(ConcurrentAdaptiveMerge::build_from_values(
            &values,
            512,
            Arc::new(LockManager::new()),
        ));
        let mut handles = Vec::new();
        for t in 0..6u64 {
            let idx = Arc::clone(&idx);
            let values = Arc::clone(&values);
            handles.push(thread::spawn(move || {
                let mut seed = t * 97 + 3;
                for _ in 0..30 {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let a = (seed >> 18) as i64 % n as i64;
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let b = (seed >> 18) as i64 % n as i64;
                    let (low, high) = if a <= b { (a, b) } else { (b, a) };
                    assert_eq!(idx.count(low, high).0, ops::count(&values, low, high));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(idx.check_invariants());
    }

    #[test]
    fn skip_on_contention_policy_still_correct() {
        let n = 5000usize;
        let values = Arc::new(shuffled(n));
        let idx = Arc::new(
            ConcurrentAdaptiveMerge::build_from_values(&values, 512, Arc::new(LockManager::new()))
                .with_policy(RefinementPolicy::SkipOnContention),
        );
        let mut handles = Vec::new();
        for t in 0..6u64 {
            let idx = Arc::clone(&idx);
            let values = Arc::clone(&values);
            handles.push(thread::spawn(move || {
                let mut seed = t * 131 + 17;
                for _ in 0..30 {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let a = (seed >> 18) as i64 % n as i64;
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let b = (seed >> 18) as i64 % n as i64;
                    let (low, high) = if a <= b { (a, b) } else { (b, a) };
                    assert_eq!(idx.sum(low, high).0, ops::sum(&values, low, high));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(idx.check_invariants());
    }

    #[test]
    fn concurrent_inserts_and_deletes_converge() {
        // Disjoint write domains make the final state order-independent.
        let n = 2000usize;
        let values = shuffled(n);
        let idx = Arc::new(ConcurrentAdaptiveMerge::build_from_values(
            &values,
            256,
            Arc::new(LockManager::new()),
        ));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let idx = Arc::clone(&idx);
            handles.push(thread::spawn(move || {
                for i in 0..25u64 {
                    let m = idx.insert((n as u64 + t * 25 + i) as i64);
                    assert_eq!(m.inserts_applied, 1);
                    let (removed, dm) = idx.delete((t * 25 + i) as i64);
                    assert_eq!(removed, 1);
                    assert_eq!(dm.deletes_applied, 1);
                    idx.count(0, n as i64);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(idx.count(i64::MIN, i64::MAX).0, n as u64);
        assert_eq!(idx.count(0, 100).0, 0, "first 100 keys deleted");
        assert_eq!(idx.len(), n);
        assert!(idx.check_invariants());
    }

    #[test]
    fn whole_domain_query_converges_to_fully_merged() {
        let idx = build(500);
        assert!(!idx.is_fully_merged());
        idx.count(i64::MIN, i64::MAX);
        assert!(idx.is_fully_merged());
    }

    #[test]
    fn empty_and_inverted_queries() {
        let idx = build(100);
        assert_eq!(idx.count(10, 10).0, 0);
        assert_eq!(idx.sum(90, 10).0, 0);
        assert_eq!(idx.merge_stats().records_merged, 0);
    }
}
