//! Acceptance tests for epoch-stamped snapshot reads + incremental
//! compaction: a scan holding a snapshot open across at least three
//! incremental compaction steps must return exactly the `BTreeMap`
//! oracle's answer at the snapshot epoch — for the serial cracker (every
//! latch protocol) and the range-partitioned cracker.

use adaptive_indexing::core::{
    ColumnRead, CompactionPolicy, ConcurrentCracker, Index, LatchProtocol,
};
use adaptive_indexing::parallel::RangePartitionedCracker;
use std::collections::BTreeMap;

fn shuffled(n: usize) -> Vec<i64> {
    (0..n as i64).map(|i| (i * 48271) % n as i64).collect()
}

fn oracle_from(values: &[i64]) -> BTreeMap<i64, u64> {
    let mut oracle = BTreeMap::new();
    for &v in values {
        *oracle.entry(v).or_insert(0u64) += 1;
    }
    oracle
}

fn oracle_count(oracle: &BTreeMap<i64, u64>, low: i64, high: i64) -> u64 {
    if low >= high {
        return 0;
    }
    oracle.range(low..high).map(|(_, &n)| n).sum()
}

fn oracle_sum(oracle: &BTreeMap<i64, u64>, low: i64, high: i64) -> i128 {
    if low >= high {
        return 0;
    }
    oracle
        .range(low..high)
        .map(|(&v, &n)| v as i128 * n as i128)
        .sum()
}

/// The churn script every arm replays while a snapshot is pinned: delete
/// a seeded key, re-insert it, and (for the serial arm) force incremental
/// steps in between. Returns the (key, delta) pairs applied.
const CHURN_KEYS: [i64; 8] = [150, 600, 1100, 1700, 2300, 2900, 3400, 3900];
const QUERIES: [(i64, i64); 5] = [
    (0, 4096),
    (100, 200),
    (599, 601),
    (1500, 3000),
    (4000, 9000),
];

#[test]
fn serial_snapshot_scan_across_incremental_steps_matches_the_oracle() {
    for protocol in [
        LatchProtocol::None,
        LatchProtocol::Column,
        LatchProtocol::Piece,
    ] {
        let values = shuffled(4096);
        let idx = ConcurrentCracker::from_values(values.clone(), protocol)
            .with_compaction(CompactionPolicy::rows(1_000_000).incremental(4));
        idx.sum(0, 4096);
        // Pre-snapshot churn so the pinned epoch is non-trivial.
        idx.delete(42);
        idx.insert(42);
        let frozen = oracle_from(&values);
        let snap = idx.pin();
        let mut steps = 0;
        for key in CHURN_KEYS {
            assert_eq!(idx.delete(key).0, 1, "{protocol}");
            idx.insert(key);
            if steps < 5 {
                idx.compact_step(8);
                steps += 1;
            }
            for (low, high) in QUERIES {
                assert_eq!(
                    snap.count(low, high).0,
                    oracle_count(&frozen, low, high),
                    "{protocol} pinned count [{low},{high}) after {steps} steps"
                );
                assert_eq!(
                    snap.sum(low, high).0,
                    oracle_sum(&frozen, low, high),
                    "{protocol} pinned sum [{low},{high}) after {steps} steps"
                );
            }
        }
        assert!(steps >= 3, "the snapshot spanned >= 3 incremental steps");
        assert!(
            idx.compaction_steps_performed() >= 3,
            "{protocol}: steps actually ran"
        );
        drop(snap);
        assert!(idx.check_invariants(), "{protocol}");
    }
}

#[test]
fn range_snapshot_scan_across_incremental_steps_matches_the_oracle() {
    let values = shuffled(4096);
    let idx = RangePartitionedCracker::with_compaction(
        values.clone(),
        3,
        CompactionPolicy::rows(4).incremental(4),
    );
    idx.sum(0, 4096);
    let frozen = oracle_from(&values);
    let snap = idx.pin();
    for key in CHURN_KEYS {
        assert_eq!(idx.delete(key).0, 1);
        idx.insert(key);
        idx.delete(key + 1);
        idx.insert(key + 1);
        for (low, high) in QUERIES {
            assert_eq!(
                snap.count(low, high).0,
                oracle_count(&frozen, low, high),
                "range pinned count [{low},{high})"
            );
            assert_eq!(
                snap.sum(low, high).0,
                oracle_sum(&frozen, low, high),
                "range pinned sum [{low},{high})"
            );
        }
    }
    let (_, merges) = idx.delta_stats();
    assert!(
        merges >= 3,
        "the snapshot spanned >= 3 incremental steps, saw {merges}"
    );
    drop(snap);
    assert_eq!(idx.count(0, 4096).0, 4096, "live view converged");
    assert!(idx.check_invariants());
}
