//! Property tests for the concurrent cracker's write path: random
//! interleavings of selects, inserts, and deletes against a `BTreeMap`
//! multiset oracle, with an aggressive compaction threshold so rebuilds
//! (and delete-aware piece shrinks) fire constantly mid-sequence, on
//! columns built plain or range-partitioned (`ranges > 0`: cracked at
//! that many key ranges' splits when built). The piece/array/hole
//! invariants must hold after every compaction.

use aidx_core::{ColumnRead, CompactionPolicy, ConcurrentCracker, LatchProtocol};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn apply_oracle_delete(oracle: &mut BTreeMap<i64, u64>, v: i64) -> u64 {
    oracle.remove(&v).unwrap_or(0)
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

/// A cracker over `values`, range-partitioned at build unless `ranges`
/// is 0.
fn built(
    values: Vec<i64>,
    protocol: LatchProtocol,
    compaction: CompactionPolicy,
    ranges: usize,
) -> ConcurrentCracker {
    let idx = ConcurrentCracker::from_values(values, protocol).with_compaction(compaction);
    match ranges {
        0 => idx,
        n => idx.with_ranges(n),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn mixed_ops_across_compaction_events_match_the_oracle(
        values in prop::collection::vec(-200i64..200, 0..200),
        ops in prop::collection::vec((0u8..4, -250i64..250, -250i64..250), 1..60),
        threshold in 1u64..12,
    ) {
        for protocol in [
            LatchProtocol::None,
            LatchProtocol::Column,
            LatchProtocol::Piece,
        ] {
            let idx = ConcurrentCracker::from_values(values.clone(), protocol)
                .with_compaction(CompactionPolicy::rows(threshold));
            let mut oracle = oracle_from(&values);
            let mut compactions_seen = 0;
            for &(kind, a, b) in &ops {
                match kind {
                    0 => {
                        let (low, high) = if a <= b { (a, b) } else { (b, a) };
                        prop_assert_eq!(
                            idx.count(low, high).0,
                            oracle_count(&oracle, low, high),
                            "{} count [{},{})", protocol, low, high
                        );
                    }
                    1 => {
                        let (low, high) = if a <= b { (a, b) } else { (b, a) };
                        prop_assert_eq!(
                            idx.sum(low, high).0,
                            oracle_sum(&oracle, low, high),
                            "{} sum [{},{})", protocol, low, high
                        );
                    }
                    2 => {
                        idx.insert(a);
                        *oracle.entry(a).or_insert(0) += 1;
                    }
                    _ => {
                        let removed = idx.delete(a).0;
                        let expected = oracle.remove(&a).unwrap_or(0);
                        prop_assert_eq!(removed, expected, "{} delete {}", protocol, a);
                    }
                }
                // The policy bounds the delta after every single op: a
                // write that reaches the threshold compacts on the spot.
                prop_assert!(
                    idx.delta_rows() < threshold,
                    "{}: delta {} outgrew threshold {}",
                    protocol, idx.delta_rows(), threshold
                );
                // Invariants must hold right after every compaction event.
                let now = idx.compactions_performed();
                if now > compactions_seen {
                    compactions_seen = now;
                    prop_assert!(
                        idx.check_invariants(),
                        "{}: invariants broken after compaction #{}",
                        protocol, now
                    );
                }
            }
            prop_assert!(idx.check_invariants(), "{protocol}");
            let total: u64 = oracle.values().sum();
            prop_assert_eq!(idx.logical_len(), total, "{}", protocol);
            prop_assert_eq!(idx.count(i64::MIN, i64::MAX).0, total, "{}", protocol);
        }
    }

    #[test]
    fn delete_heavy_sequences_shrink_and_stay_consistent(
        values in prop::collection::vec(-100i64..100, 1..150),
        doomed in prop::collection::vec(-120i64..120, 1..40),
    ) {
        // Deletes only (no compaction): every removal is reconciled by
        // delete-aware piece shrinking, so tombstones never accumulate
        // and the hole ledger stays exact.
        let idx = ConcurrentCracker::from_values(values.clone(), LatchProtocol::Piece);
        let mut oracle = oracle_from(&values);
        for &v in &doomed {
            let removed = idx.delete(v).0;
            let expected = oracle.remove(&v).unwrap_or(0);
            prop_assert_eq!(removed, expected, "delete {}", v);
            prop_assert_eq!(idx.tombstoned_rows(), 0, "shrink retires tombstones");
            prop_assert!(idx.check_invariants());
        }
        let total: u64 = oracle.values().sum();
        prop_assert_eq!(idx.count(i64::MIN, i64::MAX).0, total);
        prop_assert_eq!(idx.logical_len(), total);
        // Compaction reclaims every hole the shrinks left behind.
        idx.compact();
        prop_assert_eq!(idx.hole_count(), 0);
        prop_assert_eq!(idx.len() as u64, total);
        prop_assert!(idx.check_invariants());
    }

    #[test]
    fn pinned_snapshots_match_the_oracle_at_their_epoch(
        values in prop::collection::vec(-150i64..150, 0..150),
        pre_ops in prop::collection::vec((0u8..3, -200i64..200), 0..20),
        post_ops in prop::collection::vec((0u8..3, -200i64..200), 1..40),
        queries in prop::collection::vec((-250i64..250, -250i64..250), 1..8),
        step_budget in 1usize..6,
    ) {
        // A long scan pins a snapshot, then inserts/deletes and multiple
        // incremental compaction steps race past it; every read through
        // the snapshot must equal the oracle frozen at the snapshot epoch,
        // while the live view tracks the evolving oracle.
        for protocol in [
            LatchProtocol::None,
            LatchProtocol::Column,
            LatchProtocol::Piece,
        ] {
            let idx = ConcurrentCracker::from_values(values.clone(), protocol)
                .with_compaction(CompactionPolicy::rows(8).incremental(step_budget));
            let mut oracle = oracle_from(&values);
            idx.sum(i64::MIN, i64::MAX);
            let apply = |idx: &ConcurrentCracker, oracle: &mut BTreeMap<i64, u64>,
                         kind: u8, v: i64| -> (u64, u64) {
                match kind {
                    0 | 1 => {
                        idx.insert(v);
                        *oracle.entry(v).or_insert(0) += 1;
                        (1, 1)
                    }
                    _ => (idx.delete(v).0, apply_oracle_delete(oracle, v)),
                }
            };
            for &(kind, v) in &pre_ops {
                let (got, expected) = apply(&idx, &mut oracle, kind, v);
                prop_assert_eq!(got, expected, "{} pre-op", protocol);
            }
            let frozen = oracle.clone();
            let snap = idx.pin();
            // Interleave post-snapshot writes with explicit incremental
            // steps (at least 3) and re-validate the pinned view between
            // arms.
            let mut steps = 0;
            for (i, &(kind, v)) in post_ops.iter().enumerate() {
                let (got, expected) = apply(&idx, &mut oracle, kind, v);
                prop_assert_eq!(got, expected, "{} post-op", protocol);
                if i % 2 == 0 || steps < 3 {
                    idx.compact_step(step_budget);
                    steps += 1;
                }
                for &(a, b) in &queries {
                    let (low, high) = if a <= b { (a, b) } else { (b, a) };
                    prop_assert_eq!(
                        snap.count(low, high).0,
                        oracle_count(&frozen, low, high),
                        "{} pinned count [{},{}) after {} steps", protocol, low, high, steps
                    );
                    prop_assert_eq!(
                        snap.sum(low, high).0,
                        oracle_sum(&frozen, low, high),
                        "{} pinned sum [{},{}) after {} steps", protocol, low, high, steps
                    );
                    prop_assert_eq!(
                        idx.count(low, high).0,
                        oracle_count(&oracle, low, high),
                        "{} live count [{},{})", protocol, low, high
                    );
                }
            }
            // Guarantee the acceptance shape even for short op sequences:
            // the snapshot stays pinned across at least 3 steps.
            while steps < 3 {
                idx.compact_step(step_budget);
                steps += 1;
            }
            for &(a, b) in &queries {
                let (low, high) = if a <= b { (a, b) } else { (b, a) };
                prop_assert_eq!(
                    snap.count(low, high).0,
                    oracle_count(&frozen, low, high),
                    "{} final pinned count [{},{})", protocol, low, high
                );
            }
            drop(snap);
            let total: u64 = oracle.values().sum();
            prop_assert_eq!(idx.logical_len(), total, "{}", protocol);
            prop_assert!(idx.check_invariants(), "{}", protocol);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn range_partitioned_mixed_ops_with_eager_merges_match_the_oracle(
        values in prop::collection::vec(-150i64..150, 0..150),
        ops in prop::collection::vec((0u8..4, -200i64..200, -200i64..200), 1..40),
        partitions in 1usize..5,
    ) {
        for protocol in [
            LatchProtocol::None,
            LatchProtocol::Column,
            LatchProtocol::Piece,
        ] {
            let idx = built(values.clone(), protocol, CompactionPolicy::rows(3), partitions);
            let mut oracle = oracle_from(&values);
            for &(kind, a, b) in &ops {
                match kind {
                    0 => {
                        let (low, high) = if a <= b { (a, b) } else { (b, a) };
                        prop_assert_eq!(
                            idx.count(low, high).0,
                            oracle_count(&oracle, low, high),
                            "{} count [{},{})", protocol, low, high
                        );
                    }
                    1 => {
                        let (low, high) = if a <= b { (a, b) } else { (b, a) };
                        prop_assert_eq!(
                            idx.sum(low, high).0,
                            oracle_sum(&oracle, low, high),
                            "{} sum [{},{})", protocol, low, high
                        );
                    }
                    2 => {
                        idx.insert(a);
                        *oracle.entry(a).or_insert(0) += 1;
                    }
                    _ => {
                        let removed = idx.delete(a).0;
                        let expected = oracle.remove(&a).unwrap_or(0);
                        prop_assert_eq!(removed, expected, "{} delete {}", protocol, a);
                    }
                }
                prop_assert!(idx.check_invariants(), "{}", protocol);
            }
            let total: u64 = oracle.values().sum();
            prop_assert_eq!(idx.count(i64::MIN, i64::MAX).0, total, "{}", protocol);
            prop_assert_eq!(idx.logical_len(), total, "{}", protocol);
        }
    }

    #[test]
    fn pinned_snapshots_match_the_oracle_for_both_parallel_arms(
        values in prop::collection::vec(-150i64..150, 0..120),
        pre_ops in prop::collection::vec((0u8..2, -200i64..200), 0..15),
        post_ops in prop::collection::vec((0u8..2, -200i64..200), 3..30),
        queries in prop::collection::vec((-250i64..250, -250i64..250), 1..6),
        partitions in 1usize..4,
    ) {
        // Long scans pin a snapshot on two range-partitioned columns, then
        // writes and compaction race past it; every pinned read must equal
        // the oracle frozen at snapshot time, for the column with
        // aggressive incremental steps and for the one under the range
        // arm's default policy (10 % of the column, steps of 8) alike.
        for protocol in [
            LatchProtocol::None,
            LatchProtocol::Column,
            LatchProtocol::Piece,
        ] {
            let eager = CompactionPolicy::rows(4).incremental(2);
            let default = CompactionPolicy::fraction(0.1).incremental(8);
            let ranged = built(values.clone(), protocol, eager, partitions);
            let defaulted = built(values.clone(), protocol, default, partitions);
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
                    assert_eq!(a, expected, "{protocol} default delete {v}");
                    assert_eq!(b, expected, "{protocol} ranged delete {v}");
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
                        "{} default pinned count [{},{})", protocol, low, high
                    );
                    prop_assert_eq!(
                        range_snap.sum(low, high).0,
                        oracle_sum(&frozen, low, high),
                        "{} ranged pinned sum [{},{})", protocol, low, high
                    );
                    prop_assert_eq!(
                        defaulted.count(low, high).0,
                        oracle_count(&oracle, low, high),
                        "{} default live count [{},{})", protocol, low, high
                    );
                    prop_assert_eq!(
                        ranged.count(low, high).0,
                        oracle_count(&oracle, low, high),
                        "{} ranged live count [{},{})", protocol, low, high
                    );
                }
            }
            prop_assert_eq!(
                default_snap.sum(i64::MIN, i64::MAX).0,
                oracle_sum(&frozen, i64::MIN, i64::MAX),
                "{}", protocol
            );
            prop_assert_eq!(
                range_snap.count(i64::MIN, i64::MAX).0,
                oracle_count(&frozen, i64::MIN, i64::MAX),
                "{}", protocol
            );
            drop(default_snap);
            drop(range_snap);
            let total: u64 = oracle.values().sum();
            prop_assert_eq!(defaulted.count(i64::MIN, i64::MAX).0, total, "{}", protocol);
            prop_assert_eq!(ranged.count(i64::MIN, i64::MAX).0, total, "{}", protocol);
            prop_assert!(defaulted.check_invariants(), "{}", protocol);
            prop_assert!(ranged.check_invariants(), "{}", protocol);
        }
    }
}

// An all-duplicate column collapses every quantile split to one key, so the
// build makes one useful crack at most; queries must still answer without
// panicking.
#[test]
fn duplicated_values_query_does_not_panic() {
    let idx = built(
        vec![7; 5000],
        LatchProtocol::Piece,
        CompactionPolicy::disabled(),
        4,
    );
    let (c, _) = idx.count(0, 10);
    assert_eq!(c, 5000);
}
