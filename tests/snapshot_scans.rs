//! Acceptance tests for epoch-stamped snapshot reads + incremental
//! compaction: a scan holding a snapshot open across at least three
//! incremental compaction steps must return exactly the `BTreeMap`
//! oracle's answer at the snapshot epoch — for the serial cracker (every
//! latch protocol) and the range-partitioned cracker. A churn stream keeps
//! long scans and a stream-long pin exact under quiescing and incremental
//! compaction, and pinned reads stay exact among concurrent writers.

mod common;

use adaptive_indexing::core::{
    Aggregate, ColumnRead, CompactionPolicy, ConcurrentCracker, LatchProtocol,
};
use common::{ops, ranged, run_checked, Column, Pinned};
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
    let idx = ConcurrentCracker::from_values(values.clone(), LatchProtocol::Piece)
        .with_compaction(CompactionPolicy::rows(4).incremental(4))
        .with_ranges(3);
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
    let merges = idx.compactions_performed() + idx.compaction_steps_performed();
    assert!(
        merges >= 3,
        "the snapshot spanned >= 3 incremental steps, saw {merges}"
    );
    drop(snap);
    assert_eq!(idx.count(0, 4096).0, 4096, "live view converged");
    assert!(idx.check_invariants());
}

/// Each pair deletes one distinct seeded key, whose row the delete's own
/// crack reclaims, and re-inserts it into the delta, so the delta grows a
/// row per pair until compaction trips: a quiescing rebuild, or a walk of
/// 4 pieces a step. Between pairs the column equals the seed, so every
/// interleaved scan through a fresh pin has a closed-form answer; a pin
/// held across the whole stream answers as of its epoch; and the delta
/// never passes the threshold.
#[test]
fn churned_snapshot_scans_and_a_stream_long_pin_match_the_oracle() {
    let (rows, pairs, threshold) = (20_000usize, 4_000usize, 256u64);
    let values = shuffled(rows);
    let expected_sum: i128 = values.iter().map(|&v| v as i128).sum();
    for policy in [
        CompactionPolicy::rows(threshold),
        CompactionPolicy::rows(threshold).incremental(4),
    ] {
        let idx = ConcurrentCracker::from_values(values.clone(), LatchProtocol::Piece)
            .with_compaction(policy);
        idx.sum(0, rows as i64 / 2);
        idx.sum(rows as i64 / 4, rows as i64);
        let pinned = idx.pin();
        let mut max_delta = 0;
        for i in 0..pairs {
            let key = i as i64;
            assert_eq!(
                idx.delete(key).0,
                1,
                "{policy:?}: churned keys are distinct"
            );
            idx.insert(key);
            max_delta = max_delta.max(idx.delta_rows());
            if i % 20 == 19 {
                let whole = (i64::MIN, i64::MAX);
                assert_eq!(
                    idx.pin().sum(whole.0, whole.1).0,
                    expected_sum,
                    "{policy:?} {i}"
                );
                assert_eq!(idx.count(whole.0, whole.1).0, rows as u64, "{policy:?} {i}");
            }
        }
        assert_eq!(pinned.sum(i64::MIN, i64::MAX).0, expected_sum, "{policy:?}");
        assert_eq!(
            pinned.count(i64::MIN, i64::MAX).0,
            rows as u64,
            "{policy:?}"
        );
        drop(pinned);
        assert!(max_delta <= threshold, "{policy:?}: delta {max_delta}");
        let merges = idx.compactions_performed() + idx.compaction_steps_performed();
        assert!(merges > 0, "{policy:?}: compaction ran");
        assert!(idx.check_invariants(), "{policy:?}");
    }
}

/// Every read through a pin of its own while four clients write half the
/// time and incremental compaction merges every 8 delta rows: the oracle,
/// locked across each call, agrees op for op.
#[test]
fn snapshot_scan_runs_stay_oracle_correct_under_concurrency() {
    let values = shuffled(5_000);
    let ops = ops(5_000, 64, 0.01, Aggregate::Sum, 0.5, 0xC0FFEE);
    let policy = CompactionPolicy::rows(8).incremental(4);
    let crack = |protocol| {
        Pinned(ConcurrentCracker::from_values(values.clone(), protocol).with_compaction(policy))
    };
    let arms: Vec<(&str, Box<dyn Column>)> = vec![
        ("crack-piece", Box::new(crack(LatchProtocol::Piece))),
        ("crack-column", Box::new(crack(LatchProtocol::Column))),
        ("range-3", Box::new(Pinned(ranged(&values, 3, policy)))),
    ];
    for (label, arm) in arms {
        let mismatches = run_checked(arm.as_ref(), &values, &ops, 4);
        assert_eq!(mismatches, vec![], "{label} pinned reads diverged");
    }
}
