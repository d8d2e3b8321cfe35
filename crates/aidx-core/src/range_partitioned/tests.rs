//! The range-partitioned column: a piece-latched [`ConcurrentCracker`]
//! built [`ConcurrentCracker::with_ranges`], its answers, its build
//! cracks, and the load its ranges count.

use super::*;
use crate::{ColumnRead, CompactionPolicy, ConcurrentCracker, LatchProtocol};
use aidx_cracking::{ops, RowId};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread;

/// A piece-latched column cracked at `ranges` build ranges, with the
/// bounded incremental delta a range arm runs with.
fn ranged(values: Vec<i64>, ranges: usize) -> ConcurrentCracker {
    ranged_with(
        values,
        ranges,
        CompactionPolicy::fraction(0.1).incremental(8),
    )
}

fn ranged_with(values: Vec<i64>, ranges: usize, compaction: CompactionPolicy) -> ConcurrentCracker {
    ConcurrentCracker::from_values(values, LatchProtocol::Piece)
        .with_compaction(compaction)
        .with_ranges(ranges)
}

/// The range owning `key`.
fn partition_of(splits: &[i64], key: i64) -> usize {
    BuildRanges::new(splits.to_vec()).owner(key)
}

/// `(delta rows, compactions + incremental steps)`.
fn delta_stats(idx: &ConcurrentCracker) -> (u64, u64) {
    let merges = idx.compactions_performed() + idx.compaction_steps_performed();
    (idx.delta_rows(), merges)
}

fn shuffled(n: usize) -> Vec<i64> {
    (0..n as i64).map(|i| (i * 48271) % n as i64).collect()
}

#[test]
fn results_match_scan_for_every_partition_count() {
    let values = shuffled(5000);
    for partitions in [1, 2, 4, 7] {
        let idx = ranged(values.clone(), partitions);
        assert_eq!(idx.structure_probe().partition_load.len(), partitions);
        assert_eq!(idx.logical_len() as usize, 5000);
        for (low, high) in [(10, 4000), (100, 200), (0, 5000), (4999, 5000), (300, 100)] {
            let (c, _) = idx.count(low, high);
            assert_eq!(
                c,
                ops::count(&values, low, high),
                "{partitions} parts count"
            );
            let (s, _) = idx.sum(low, high);
            assert_eq!(s, ops::sum(&values, low, high), "{partitions} parts sum");
        }
        assert!(idx.check_invariants(), "{partitions} parts");
    }
}

/// The rows in each split range, read with bounds that are build cracks.
fn range_sizes(idx: &ConcurrentCracker) -> Vec<u64> {
    let mut bounds = vec![i64::MIN];
    bounds.extend_from_slice(idx.range_splits());
    bounds.push(i64::MAX);
    bounds
        .windows(2)
        .map(|w| {
            let (rows, m) = idx.count(w[0], w[1]);
            assert_eq!(m.cracks_performed, 0, "[{}, {}) is cracked", w[0], w[1]);
            rows
        })
        .collect()
}

#[test]
fn partitions_are_disjoint_and_cover_everything() {
    let values = shuffled(10_000);
    let idx = ranged(values.clone(), 8);
    let sizes = range_sizes(&idx);
    assert_eq!(sizes.len(), 8);
    assert_eq!(sizes.iter().sum::<u64>(), 10_000);
    // Sampled quantiles over a uniform permutation: every range within 3x
    // of the ideal size.
    let ideal = 10_000 / 8;
    for size in sizes {
        assert!(
            size <= ideal * 3,
            "unbalanced range: {size} vs ideal {ideal}"
        );
    }
    assert!(idx.range_splits().windows(2).all(|w| w[0] < w[1]));
    // The build cracks are the column's only pieces, and no read made them.
    assert_eq!(idx.piece_count(), 8);
    assert_eq!(idx.crack_count(), 0);
    assert!(idx.check_invariants());
}

#[test]
fn narrow_queries_touch_one_partition() {
    let values = shuffled(8000);
    let idx = ranged(values.clone(), 4);
    // A one-key query overlaps exactly one range: it is charged there
    // only, and cracks at most its two bounds.
    let (c, m) = idx.count(100, 101);
    assert_eq!(c, 1);
    assert!(m.cracks_performed <= 2);
    let load = idx.structure_probe().partition_load;
    assert_eq!(load.iter().sum::<u64>(), 1, "{load:?}");
    assert_eq!(load[partition_of(idx.range_splits(), 100)], 1, "{load:?}");
}

#[test]
fn skewed_data_still_balances() {
    // All keys in a tiny range, heavily duplicated.
    let values: Vec<i64> = (0..9000).map(|i| (i % 13) as i64).collect();
    let idx = ranged(values.clone(), 4);
    for (low, high) in [(0, 13), (3, 7), (12, 13), (5, 5)] {
        assert_eq!(idx.count(low, high).0, ops::count(&values, low, high));
        assert_eq!(idx.sum(low, high).0, ops::sum(&values, low, high));
    }
    assert_eq!(idx.logical_len() as usize, 9000);
}

#[test]
fn empty_input_and_ranges() {
    let idx = ranged(vec![], 4);
    assert!(idx.is_empty());
    assert_eq!(idx.structure_probe().partition_load.len(), 1);
    assert_eq!(idx.count(0, 10).0, 0);
    let idx = ranged(shuffled(100), 4);
    assert_eq!(idx.count(50, 50).0, 0);
    assert_eq!(idx.sum(70, 20).0, 0);
}

#[test]
fn concurrent_clients_get_correct_answers() {
    let n = 20_000usize;
    let values = shuffled(n);
    let idx = Arc::new(ranged(values.clone(), 4));
    let values = Arc::new(values);
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let idx = Arc::clone(&idx);
        let values = Arc::clone(&values);
        handles.push(thread::spawn(move || {
            let mut seed = t * 104729 + 7;
            for _ in 0..30 {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                let a = (seed >> 17) as i64 % n as i64;
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                let b = (seed >> 17) as i64 % n as i64;
                let (low, high) = if a <= b { (a, b) } else { (b, a) };
                let (c, _) = idx.count(low, high);
                assert_eq!(c, ops::count(&values, low, high), "[{low},{high})");
                let (s, _) = idx.sum(low, high);
                assert_eq!(s, ops::sum(&values, low, high), "[{low},{high})");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(idx.check_invariants());
}

#[test]
fn inserts_route_to_the_owning_partition() {
    let idx = ranged(shuffled(4000), 4);
    idx.sum(0, 4000); // warm
    let sizes_before = range_sizes(&idx);
    let load_before = idx.structure_probe().partition_load;
    let m = idx.insert(100);
    assert_eq!(m.inserts_applied, 1);
    idx.insert(100);
    idx.insert(3900);
    // Exactly the ranges owning 100 and 3900 grew, and were charged.
    let owner_low = partition_of(idx.range_splits(), 100);
    let owner_high = partition_of(idx.range_splits(), 3900);
    let load = idx.structure_probe().partition_load;
    assert_eq!(load[owner_low], load_before[owner_low] + 2);
    assert_eq!(load[owner_high], load_before[owner_high] + 1);
    assert_eq!(
        load.iter().sum::<u64>(),
        load_before.iter().sum::<u64>() + 3
    );
    let sizes_after = range_sizes(&idx);
    assert_eq!(sizes_after[owner_low], sizes_before[owner_low] + 2);
    assert_eq!(sizes_after[owner_high], sizes_before[owner_high] + 1);
    assert_eq!(idx.logical_len() as usize, 4003);
    // And the owning range shrinks where the delete applies.
    let (removed, dm) = idx.delete(100);
    assert_eq!(removed, 3, "the seeded 100 plus both inserts");
    assert_eq!(dm.deletes_applied, 1);
    assert_eq!(range_sizes(&idx)[owner_low], sizes_before[owner_low] - 1);
    assert!(idx.check_invariants());
}

#[test]
fn concurrent_writers_with_disjoint_domains_converge() {
    let n = 8000usize;
    let values = shuffled(n);
    let idx = Arc::new(ranged(values.clone(), 4));
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let idx = Arc::clone(&idx);
        handles.push(thread::spawn(move || {
            for i in 0..40u64 {
                idx.insert((n as u64 + t * 40 + i) as i64);
                assert_eq!(idx.delete((t * 40 + i) as i64).0, 1);
                idx.count(0, n as i64);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(idx.count(i64::MIN, i64::MAX).0, n as u64);
    assert_eq!(idx.count(0, 160).0, 0);
    assert_eq!(idx.count(n as i64, (n + 160) as i64).0, 160);
    assert_eq!(idx.logical_len() as usize, n);
    assert!(idx.check_invariants());
}

/// Writes spread over every range share the column's one delta, which
/// the compaction policy keeps bounded.
#[test]
fn per_partition_compaction_bounds_each_partitions_delta() {
    let values = shuffled(4000);
    let idx = ranged_with(values.clone(), 4, CompactionPolicy::rows(16));
    idx.sum(0, 4000); // warm
    let mut oracle = values.clone();
    let mut max_pending = 0;
    for i in 0..800 {
        let key = i * 5; // spread inserts across all ranges
        idx.insert(key);
        oracle.push(key);
        let (pending, _) = delta_stats(&idx);
        max_pending = max_pending.max(pending);
    }
    // The column compacts once its one delta reaches 16 rows, whichever
    // ranges the rows fall in.
    assert!(
        max_pending <= 16,
        "compaction must bound the delta, saw {max_pending}"
    );
    let (_, merges) = delta_stats(&idx);
    assert!(merges >= 800 / 16, "eager merges happened: {merges}");
    for (low, high) in [(0, 4000), (100, 300), (3000, 4000)] {
        assert_eq!(idx.count(low, high).0, ops::count(&oracle, low, high));
        assert_eq!(idx.sum(low, high).0, ops::sum(&oracle, low, high));
    }
    assert_eq!(idx.logical_len() as usize, oracle.len());
    assert!(idx.check_invariants());
}

#[test]
fn incremental_compaction_threads_through_partitions() {
    let values = shuffled(4000);
    let idx = ranged_with(values.clone(), 4, CompactionPolicy::rows(16).incremental(4));
    idx.sum(0, 4000); // warm
    let mut oracle = values.clone();
    let mut max_pending = 0;
    // Churn: delete + re-insert spread across the ranges, so the
    // incremental walk merges in place in each of them.
    for i in 0..600 {
        let key = (i * 5) % 4000;
        let removed = idx.delete(key).0;
        let expected = oracle.iter().filter(|&&v| v == key).count() as u64;
        assert_eq!(removed, expected, "delete {key}");
        oracle.retain(|&v| v != key);
        idx.insert(key);
        oracle.push(key);
        let (pending, _) = delta_stats(&idx);
        max_pending = max_pending.max(pending);
    }
    assert!(
        max_pending <= 16,
        "incremental compaction must bound the delta, saw {max_pending}"
    );
    let (_, merges) = delta_stats(&idx);
    assert!(merges > 0, "incremental steps ran: {merges}");
    for (low, high) in [(0, 4000), (100, 300), (3000, 4000)] {
        assert_eq!(idx.count(low, high).0, ops::count(&oracle, low, high));
        assert_eq!(idx.sum(low, high).0, ops::sum(&oracle, low, high));
    }
    assert_eq!(idx.logical_len() as usize, oracle.len());
    assert!(idx.check_invariants());
}

#[test]
fn snapshot_pins_every_partition() {
    let values = shuffled(4000);
    let idx = ranged(values.clone(), 4);
    idx.sum(0, 4000);
    let snap = idx.pin();
    assert_eq!(idx.live_snapshots(), 1, "one epoch for every range");
    // A second pin opens and closes on another thread while the first
    // stays open; the close releases its own registration only.
    let both = thread::scope(|s| {
        let second = s.spawn(|| {
            let _pin = idx.pin();
            idx.live_snapshots()
        });
        second.join().unwrap()
    });
    assert_eq!(both, 2);
    assert_eq!(idx.live_snapshots(), 1);
    // Writes to several ranges after the pin are invisible through it.
    for key in [10, 1010, 2010, 3010] {
        assert_eq!(idx.delete(key).0, 1);
        idx.insert(key);
        idx.insert(key);
    }
    for (low, high) in [(0, 4000), (0, 50), (1000, 1050), (3000, 3050)] {
        assert_eq!(
            snap.count(low, high).0,
            ops::count(&values, low, high),
            "pinned count [{low},{high})"
        );
        assert_eq!(
            snap.sum(low, high).0,
            ops::sum(&values, low, high),
            "pinned sum [{low},{high})"
        );
    }
    // The live view sees the churn (each key net +1).
    assert_eq!(idx.count(0, 4000).0, 4004);
    drop(snap);
    assert_eq!(idx.live_snapshots(), 0);
    assert!(idx.check_invariants());
}

/// A pin is one epoch, so a pin opened while a writer runs sees a prefix
/// of its writes across every range: the writer inserts below and above
/// the split by turns, and each pin finds the two ranges' new rows equal,
/// or the lower range one ahead.
#[test]
fn a_pin_taken_while_a_writer_runs_sees_a_prefix_of_its_writes() {
    let idx = Arc::new(ranged(shuffled(4000), 2));
    let split = idx.range_splits()[0];
    let seeded = |low, high| idx.count(low, high).0;
    let (below0, above0) = (seeded(i64::MIN, split), seeded(split, i64::MAX));
    let done = Arc::new(AtomicBool::new(false));
    let writer = {
        let (idx, done) = (Arc::clone(&idx), Arc::clone(&done));
        thread::spawn(move || {
            for i in 0..2000 {
                idx.insert(if i % 2 == 0 { -1 - i } else { 10_000 + i });
            }
            done.store(true, Ordering::Release);
        })
    };
    let mut pins = 0;
    while pins == 0 || !done.load(Ordering::Acquire) {
        let pin = idx.pin();
        let below = pin.count(i64::MIN, split).0 - below0;
        let above = pin.count(split, i64::MAX).0 - above0;
        assert!(
            below == above || below == above + 1,
            "a pin saw {below} new rows below the split and {above} above"
        );
        pins += 1;
    }
    writer.join().unwrap();
    assert_eq!(idx.logical_len() as usize, 6000);
    assert!(idx.check_invariants());
}

#[test]
fn snapshot_survives_incremental_compaction_steps() {
    let values = shuffled(3000);
    let idx = ranged_with(values.clone(), 3, CompactionPolicy::rows(8).incremental(4));
    idx.sum(0, 3000);
    let snap = idx.pin();
    // Churn enough rows that the threshold trips many times.
    for i in 0..300 {
        let key = (i * 7) % 3000;
        idx.delete(key);
        idx.insert(key);
    }
    let (_, merges) = delta_stats(&idx);
    assert!(merges >= 3, "steps ran while the snapshot was pinned");
    for (low, high) in [(0, 3000), (100, 200), (2500, 3000)] {
        assert_eq!(
            snap.count(low, high).0,
            ops::count(&values, low, high),
            "pinned count [{low},{high}) across steps"
        );
        assert_eq!(
            snap.sum(low, high).0,
            ops::sum(&values, low, high),
            "pinned sum [{low},{high}) across steps"
        );
    }
    drop(snap);
    assert!(idx.check_invariants());
}

#[test]
fn rowid_reads_route_to_overlapping_partitions() {
    let values = shuffled(4000);
    let idx = ranged(values.clone(), 4);
    let oracle = |low: i64, high: i64| -> Vec<RowId> {
        let mut out: Vec<RowId> = values
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v >= low && v < high)
            .map(|(i, _)| i as RowId)
            .collect();
        out.sort_unstable();
        out
    };
    for (low, high) in [(0, 4000), (100, 300), (3999, 4000), (300, 100)] {
        let (rows, m) = idx.select_rowids(low, high);
        assert_eq!(rows, oracle(low, high), "[{low},{high})");
        assert_eq!(m.result_count, rows.len() as u64);
    }
    assert!(idx.check_invariants());
}

#[test]
fn range_snapshot_rowid_reads_are_frozen() {
    let values = shuffled(3000);
    let idx = ranged_with(values.clone(), 3, CompactionPolicy::rows(8).incremental(4));
    idx.sum(0, 3000);
    let before = idx.select_rowids(1000, 1100).0;
    let snap = idx.pin();
    for key in [1000, 1050, 1099] {
        assert_eq!(idx.delete(key).0, 1);
        idx.insert(key);
    }
    assert_eq!(
        snap.select_rowids(1000, 1100).0,
        before,
        "pinned rowid view"
    );
    drop(snap);
    let after = idx.select_rowids(1000, 1100).0;
    assert_eq!(after.len(), before.len());
    assert_ne!(after, before, "replacement rows have fresh ids");
    assert!(idx.check_invariants());
}

#[test]
fn structure_probe_merges_partitions_and_reports_routed_load() {
    let values = shuffled(4000);
    let idx = ranged(values, 4);
    // Narrow queries against the low end: the load skews to range 0.
    for i in 0..20 {
        idx.count(i, i + 5);
    }
    // A full-range sum, through a pin: charged to every range.
    idx.pin().sum(0, 4000);
    let probe = idx.structure_probe();
    assert_eq!(probe.rows, 4000);
    assert_eq!(probe.partition_load.len(), 4);
    assert!(probe.piece_count() >= 4, "the build cracked every range");
    assert_eq!(probe.piece_sizes.iter().sum::<u64>(), 4000);
    let load = &probe.partition_load;
    assert!(
        load[0] > load[1] && load[0] > load[2] && load[0] > load[3],
        "low-end queries must skew the load: {load:?}"
    );
    // 20 one-range reads plus the full-range sum in each of the 4 ranges;
    // the probe itself is not load.
    assert_eq!(
        load.iter().sum::<u64>(),
        20 + 4,
        "a read counts in every range it overlaps"
    );
    assert!(load.iter().max() >= Some(&20));
}

#[test]
fn partition_of_routes_keys_to_split_ranges() {
    let ranges = BuildRanges::new(vec![10, 20, 30]);
    let owners = [
        (i64::MIN, 0),
        (9, 0),
        (10, 1),
        (19, 1),
        (20, 2),
        (30, 3),
        (i64::MAX, 3),
    ];
    for (key, owner) in owners {
        assert_eq!(ranges.owner(key), owner, "key {key}");
    }
    // An op counts once in every range its keys span.
    ranges.charge(19, 20);
    ranges.charge(i64::MIN, i64::MAX);
    assert_eq!(ranges.load(), [1, 2, 2, 1]);
    // A cracker built without cracks has no ranges to charge.
    let unranged = BuildRanges::default();
    unranged.charge(0, 9);
    assert!(unranged.load().is_empty());
}

#[test]
#[should_panic(expected = "row-id space exhausted")]
fn self_assigned_rowid_past_the_max_panics_instead_of_wrapping() {
    let idx = ConcurrentCracker::from_rows(vec![10, 20], vec![0, RowId::MAX], LatchProtocol::Piece)
        .with_ranges(2);
    idx.insert(30);
}

/// The build cracks must keep every value with its own row id:
/// non-identity, permuted row ids and duplicate keys, across one, a few
/// and many more partitions than distinct split points.
#[test]
fn from_rows_keeps_each_value_with_its_rowid() {
    let n = 3000usize;
    // Keys repeat (n / 7 distinct values); row ids are a permutation of
    // a sparse id space, unrelated to position and to key order.
    let values: Vec<i64> = (0..n).map(|i| ((i * 7919) % (n / 7)) as i64).collect();
    let rowids: Vec<RowId> = (0..n)
        .map(|i| ((i * 48271) % n) as RowId * 3 + 11)
        .collect();
    let mut expected: Vec<(i64, RowId)> =
        values.iter().copied().zip(rowids.iter().copied()).collect();
    expected.sort_unstable();
    for partitions in [1, 3, 300] {
        let idx =
            ConcurrentCracker::from_rows(values.clone(), rowids.clone(), LatchProtocol::Piece)
                .with_ranges(partitions);
        assert_eq!(idx.logical_len() as usize, n);
        let (runs, _) = idx.select_key_runs(i64::MIN, i64::MAX);
        let mut pairs = runs.into_sorted_pairs();
        pairs.sort_unstable();
        assert_eq!(pairs, expected, "{partitions} partitions: key runs");
        for (low, high) in [(0, 50), (100, 101), (200, 429)] {
            let (set, _) = idx.select_rowid_set(low, high);
            let mut want: Vec<RowId> = expected
                .iter()
                .filter(|&&(v, _)| v >= low && v < high)
                .map(|&(_, rid)| rid)
                .collect();
            want.sort_unstable();
            assert_eq!(
                set.to_vec(),
                want,
                "{partitions} partitions: rowid set [{low},{high})"
            );
        }
        assert!(idx.check_invariants(), "{partitions} partitions");
    }
}
