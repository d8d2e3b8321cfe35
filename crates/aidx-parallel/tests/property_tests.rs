//! Property tests for the range-partitioned cracker's write paths: random
//! op interleavings against a `BTreeMap` multiset oracle with aggressive
//! compaction, so rebuilds fire mid-sequence across the build cracks.

use aidx_core::{ColumnRead, CompactionPolicy, Index};
use aidx_parallel::RangePartitionedCracker;
use proptest::prelude::*;
use std::collections::BTreeMap;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn range_partitioned_mixed_ops_with_eager_merges_match_the_oracle(
        values in prop::collection::vec(-150i64..150, 0..150),
        ops in prop::collection::vec((0u8..4, -200i64..200, -200i64..200), 1..40),
        partitions in 1usize..5,
    ) {
        let idx = RangePartitionedCracker::with_compaction(
            values.clone(),
            partitions,
            CompactionPolicy::rows(3),
        );
        let mut oracle = oracle_from(&values);
        for &(kind, a, b) in &ops {
            match kind {
                0 => {
                    let (low, high) = if a <= b { (a, b) } else { (b, a) };
                    prop_assert_eq!(idx.count(low, high).0, oracle_count(&oracle, low, high));
                }
                1 => {
                    let (low, high) = if a <= b { (a, b) } else { (b, a) };
                    prop_assert_eq!(idx.sum(low, high).0, oracle_sum(&oracle, low, high));
                }
                2 => {
                    idx.insert(a);
                    *oracle.entry(a).or_insert(0) += 1;
                }
                _ => {
                    let removed = idx.delete(a).0;
                    let expected = oracle.remove(&a).unwrap_or(0);
                    prop_assert_eq!(removed, expected, "delete {}", a);
                }
            }
            prop_assert!(idx.check_invariants());
        }
        let total: u64 = oracle.values().sum();
        prop_assert_eq!(idx.count(i64::MIN, i64::MAX).0, total);
        prop_assert_eq!(idx.len() as u64, total);
    }

    #[test]
    fn pinned_snapshots_match_the_oracle_for_both_parallel_arms(
        values in prop::collection::vec(-150i64..150, 0..120),
        pre_ops in prop::collection::vec((0u8..2, -200i64..200), 0..15),
        post_ops in prop::collection::vec((0u8..2, -200i64..200), 3..30),
        queries in prop::collection::vec((-250i64..250, -250i64..250), 1..6),
        workers in 1usize..4,
    ) {
        // Long scans pin a snapshot on each parallel arm, then writes and
        // aggressive compaction race past it; every pinned
        // read must equal the oracle frozen at snapshot time, for the arm
        // with aggressive incremental steps and the default-policy arm
        // alike.
        let policy = CompactionPolicy::rows(4).incremental(2);
        let ranged = RangePartitionedCracker::with_compaction(values.clone(), workers, policy);
        let defaulted = RangePartitionedCracker::new(values.clone(), workers);
        let mut oracle = oracle_from(&values);
        let apply = |kind: u8, v: i64, oracle: &mut BTreeMap<i64, u64>| {
            if kind == 0 {
                defaulted.insert(v);
                ranged.insert(v);
                *oracle.entry(v).or_insert(0) += 1;
            } else {
                let a = defaulted.delete(v).0;
                let b = ranged.delete(v).0;
                let expected = oracle.remove(&v).unwrap_or(0);
                assert_eq!(a, expected, "default delete {v}");
                assert_eq!(b, expected, "ranged delete {v}");
            }
        };
        for &(kind, v) in &pre_ops {
            apply(kind, v, &mut oracle);
        }
        let frozen = oracle.clone();
        let default_snap = defaulted.pin();
        let range_snap = ranged.pin();
        for &(kind, v) in &post_ops {
            apply(kind, v, &mut oracle);
            for &(a, b) in &queries {
                let (low, high) = if a <= b { (a, b) } else { (b, a) };
                prop_assert_eq!(
                    default_snap.count(low, high).0,
                    oracle_count(&frozen, low, high),
                    "default pinned count [{},{})", low, high
                );
                prop_assert_eq!(
                    range_snap.sum(low, high).0,
                    oracle_sum(&frozen, low, high),
                    "ranged pinned sum [{},{})", low, high
                );
                prop_assert_eq!(
                    defaulted.count(low, high).0,
                    oracle_count(&oracle, low, high),
                    "default live count [{},{})", low, high
                );
                prop_assert_eq!(
                    ranged.count(low, high).0,
                    oracle_count(&oracle, low, high),
                    "ranged live count [{},{})", low, high
                );
            }
        }
        prop_assert_eq!(
            default_snap.sum(i64::MIN, i64::MAX).0,
            oracle_sum(&frozen, i64::MIN, i64::MAX)
        );
        prop_assert_eq!(
            range_snap.count(i64::MIN, i64::MAX).0,
            oracle_count(&frozen, i64::MIN, i64::MAX)
        );
        drop(default_snap);
        drop(range_snap);
        let total: u64 = oracle.values().sum();
        prop_assert_eq!(defaulted.count(i64::MIN, i64::MAX).0, total);
        prop_assert_eq!(ranged.count(i64::MIN, i64::MAX).0, total);
        prop_assert!(defaulted.check_invariants());
        prop_assert!(ranged.check_invariants());
    }
}

// An all-duplicate column collapses every quantile split to one key, so the
// build makes one useful crack at most; queries must still answer without
// panicking.
#[test]
fn duplicated_values_query_does_not_panic() {
    let idx = RangePartitionedCracker::new(vec![7; 5000], 4);
    let (c, _) = idx.count(0, 10);
    assert_eq!(c, 5000);
}
