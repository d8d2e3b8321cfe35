use super::*;
use aidx_storage::ops;
use std::thread;

fn shuffled(n: usize) -> Vec<i64> {
    (0..n as i64).map(|i| (i * 48271) % n as i64).collect()
}

/// An adaptive config with no monitor thread and no stealing:
/// rebalancing only happens through explicit `try_rebalance` calls,
/// so tests drive every system transaction deterministically.
fn quiet(threshold: f64, min_rows: usize, min_window: u64) -> AdaptiveConfig {
    AdaptiveConfig {
        check_interval: None,
        imbalance_threshold: threshold,
        min_partition_rows: min_rows,
        min_window_ops: min_window,
        steal: false,
        ..AdaptiveConfig::default()
    }
}

#[test]
fn results_match_scan_for_every_partition_count() {
    let values = shuffled(5000);
    for partitions in [1, 2, 4, 7] {
        let idx = RangePartitionedCracker::new(values.clone(), partitions);
        assert_eq!(idx.partition_count(), partitions);
        assert_eq!(idx.len(), 5000);
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

#[test]
fn partitions_are_disjoint_and_cover_everything() {
    let values = shuffled(10_000);
    let idx = RangePartitionedCracker::new(values.clone(), 8);
    assert_eq!(idx.partition_sizes().iter().sum::<usize>(), 10_000);
    // Sampled quantiles over a uniform permutation: every partition
    // within 3x of the ideal size.
    let ideal = 10_000 / 8;
    for size in idx.partition_sizes() {
        assert!(
            size <= ideal * 3,
            "unbalanced partition: {size} vs ideal {ideal}"
        );
    }
    assert!(idx.splits().windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn narrow_queries_touch_one_partition() {
    let values = shuffled(8000);
    let idx = RangePartitionedCracker::new(values.clone(), 4);
    // A one-key query overlaps exactly one partition; its metrics come
    // from a single owner, so at most 2 cracks happen.
    let (c, m) = idx.count(100, 101);
    assert_eq!(c, 1);
    assert!(m.cracks_performed <= 2);
}

#[test]
fn skewed_data_still_balances() {
    // All keys in a tiny range, heavily duplicated.
    let values: Vec<i64> = (0..9000).map(|i| (i % 13) as i64).collect();
    let idx = RangePartitionedCracker::new(values.clone(), 4);
    for (low, high) in [(0, 13), (3, 7), (12, 13), (5, 5)] {
        assert_eq!(idx.count(low, high).0, ops::count(&values, low, high));
        assert_eq!(idx.sum(low, high).0, ops::sum(&values, low, high));
    }
    assert_eq!(idx.partition_sizes().iter().sum::<usize>(), 9000);
}

#[test]
fn empty_input_and_ranges() {
    let idx = RangePartitionedCracker::new(vec![], 4);
    assert!(idx.is_empty());
    assert_eq!(idx.partition_count(), 1);
    assert_eq!(idx.count(0, 10).0, 0);
    let idx = RangePartitionedCracker::new(shuffled(100), 4);
    assert_eq!(idx.count(50, 50).0, 0);
    assert_eq!(idx.sum(70, 20).0, 0);
}

#[test]
fn concurrent_clients_get_correct_answers() {
    let n = 20_000usize;
    let values = shuffled(n);
    let idx = Arc::new(RangePartitionedCracker::new(values.clone(), 4));
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
    let idx = RangePartitionedCracker::new(shuffled(4000), 4);
    idx.sum(0, 4000); // warm
    let sizes_before = idx.partition_sizes();
    let m = idx.insert(100);
    assert_eq!(m.inserts_applied, 1);
    idx.insert(100);
    idx.insert(3900);
    let sizes_after = idx.partition_sizes();
    // Exactly the owners of 100 and 3900 grew.
    let owner_low = partition_of(&idx.splits(), 100);
    let owner_high = partition_of(&idx.splits(), 3900);
    assert_eq!(sizes_after[owner_low], sizes_before[owner_low] + 2);
    assert_eq!(sizes_after[owner_high], sizes_before[owner_high] + 1);
    assert_eq!(idx.len(), 4003);
    // And the owner's ledger shrinks where the delete applies.
    let (removed, dm) = idx.delete(100);
    assert_eq!(removed, 3, "the seeded 100 plus both inserts");
    assert_eq!(dm.deletes_applied, 1);
    assert_eq!(
        idx.partition_sizes()[owner_low],
        sizes_before[owner_low] - 1
    );
    assert!(idx.check_invariants());
}

#[test]
fn concurrent_writers_with_disjoint_domains_converge() {
    let n = 8000usize;
    let values = shuffled(n);
    let idx = Arc::new(RangePartitionedCracker::new(values.clone(), 4));
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
    assert_eq!(idx.len(), n);
    assert!(idx.check_invariants());
}

#[test]
fn per_partition_compaction_bounds_each_partitions_delta() {
    let values = shuffled(4000);
    let idx =
        RangePartitionedCracker::with_compaction(values.clone(), 4, CompactionPolicy::rows(16));
    idx.sum(0, 4000); // warm: every partition cracks
    let mut oracle = values.clone();
    let mut max_pending = 0;
    for i in 0..800 {
        let key = i * 5; // spread inserts across all partitions
        idx.insert(key);
        oracle.push(key);
        let (pending, _) = idx.delta_stats();
        max_pending = max_pending.max(pending);
    }
    // Each partition compacts once its own delta reaches 16, so the
    // total across 4 partitions stays under 4 × 16.
    assert!(
        max_pending < 4 * 16,
        "per-partition compaction must bound the delta, saw {max_pending}"
    );
    let (_, merges) = idx.delta_stats();
    assert!(merges >= 800 / 64, "eager merges happened: {merges}");
    for (low, high) in [(0, 4000), (100, 300), (3000, 4000)] {
        assert_eq!(idx.count(low, high).0, ops::count(&oracle, low, high));
        assert_eq!(idx.sum(low, high).0, ops::sum(&oracle, low, high));
    }
    assert_eq!(idx.len(), oracle.len());
    assert!(idx.check_invariants());
}

#[test]
fn incremental_compaction_threads_through_partitions() {
    let values = shuffled(4000);
    let idx = RangePartitionedCracker::with_compaction(
        values.clone(),
        4,
        CompactionPolicy::rows(16).incremental(4),
    );
    idx.sum(0, 4000); // warm: every partition cracks
    let mut oracle = values.clone();
    let mut max_pending = 0;
    // Churn: delete + re-insert spread across partitions, so the
    // per-partition walks merge in place.
    for i in 0..600 {
        let key = (i * 5) % 4000;
        let removed = idx.delete(key).0;
        let expected = oracle.iter().filter(|&&v| v == key).count() as u64;
        assert_eq!(removed, expected, "delete {key}");
        oracle.retain(|&v| v != key);
        idx.insert(key);
        oracle.push(key);
        let (pending, _) = idx.delta_stats();
        max_pending = max_pending.max(pending);
    }
    assert!(
        max_pending < 4 * 16,
        "incremental per-partition compaction must bound the delta, saw {max_pending}"
    );
    let (_, merges) = idx.delta_stats();
    assert!(merges > 0, "incremental steps ran: {merges}");
    for (low, high) in [(0, 4000), (100, 300), (3000, 4000)] {
        assert_eq!(idx.count(low, high).0, ops::count(&oracle, low, high));
        assert_eq!(idx.sum(low, high).0, ops::sum(&oracle, low, high));
    }
    assert_eq!(idx.len(), oracle.len());
    assert!(idx.check_invariants());
}

#[test]
fn snapshot_pins_every_partition() {
    let values = shuffled(4000);
    let idx = RangePartitionedCracker::new(values.clone(), 4);
    idx.sum(0, 4000);
    let snap = idx.snapshot();
    assert_eq!(snap.epochs.len(), 4);
    // Writes to several partitions after the snapshot are invisible
    // through it.
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
    assert!(idx.check_invariants());
}

#[test]
fn snapshot_open_and_close_do_not_wait_for_a_busy_owner() {
    let values = shuffled(2000);
    let idx = RangePartitionedCracker::new(values.clone(), 2);
    // Park partition 0's owner inside a long Inspect until released.
    let (entered_tx, entered_rx) = channel();
    let (release_tx, release_rx) = channel::<()>();
    let table = idx.shared.current_table();
    let _parked = post(&table.partitions[0], move |_| {
        entered_tx.send(()).unwrap();
        release_rx.recv().unwrap();
    });
    entered_rx.recv().unwrap();
    let (opened_tx, opened_rx) = channel();
    std::thread::scope(|s| {
        s.spawn(|| {
            let snap = idx.snapshot();
            let epochs = snap.epochs.to_vec();
            drop(snap);
            opened_tx.send(epochs).unwrap();
        });
        let opened = opened_rx.recv_timeout(Duration::from_secs(30));
        release_tx.send(()).unwrap();
        let epochs = opened.expect("a snapshot open/close waited for the parked owner");
        assert_eq!(epochs.len(), 2);
    });
    let registered: usize = table
        .partitions
        .iter()
        .map(|p| p.index.live_snapshots())
        .sum();
    assert_eq!(registered, 0, "the close released every partition");
    assert_eq!(idx.count(0, 2000).0, 2000);
    assert!(idx.check_invariants());
}

#[test]
fn snapshot_survives_incremental_compaction_steps() {
    let values = shuffled(3000);
    let idx = RangePartitionedCracker::with_compaction(
        values.clone(),
        3,
        CompactionPolicy::rows(8).incremental(4),
    );
    idx.sum(0, 3000);
    let snap = idx.snapshot();
    // Churn enough rows that every partition's threshold trips
    // several times — at least 3 incremental steps per partition.
    for i in 0..300 {
        let key = (i * 7) % 3000;
        idx.delete(key);
        idx.insert(key);
    }
    let (_, merges) = idx.delta_stats();
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
    let idx = RangePartitionedCracker::new(values.clone(), 4);
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
    let idx = RangePartitionedCracker::with_compaction(
        values.clone(),
        3,
        CompactionPolicy::rows(8).incremental(4),
    );
    idx.sum(0, 3000);
    let before = idx.select_rowids(1000, 1100).0;
    let snap = idx.snapshot();
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
fn batch_routing_coalesces_under_many_clients() {
    // 16 clients hammer queries that all overlap every partition: the
    // owners' drain loop must process several queued requests per
    // wakeup at least some of the time.
    let n = 30_000usize;
    let values = shuffled(n);
    let idx = Arc::new(RangePartitionedCracker::new(values.clone(), 2));
    let values = Arc::new(values);
    let mut handles = Vec::new();
    for t in 0..16u64 {
        let idx = Arc::clone(&idx);
        let values = Arc::clone(&values);
        handles.push(thread::spawn(move || {
            let mut seed = t * 6151 + 3;
            for _ in 0..50 {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                let a = (seed >> 17) as i64 % n as i64;
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                let b = (seed >> 17) as i64 % n as i64;
                let (low, high) = if a <= b { (a, b) } else { (b, a) };
                let (c, _) = idx.count(low, high);
                assert_eq!(c, ops::count(&values, low, high), "[{low},{high})");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let stats = idx.routing_stats();
    assert!(
        stats.ops >= 16 * 50,
        "every routed request was processed: {stats:?}"
    );
    assert!(
        stats.ops > stats.batches,
        "16 clients against 2 owners must coalesce at least once: {stats:?}"
    );
    assert!(stats.ops_per_batch() > 1.0, "{stats:?}");
    assert!(idx.check_invariants());
}

#[test]
fn structure_probe_merges_partitions_and_reports_routed_load() {
    let values = shuffled(4000);
    let idx = RangePartitionedCracker::new(values, 4);
    // Narrow queries against the low end: the routed load skews to
    // partition 0.
    for i in 0..20 {
        idx.count(i, i + 5);
    }
    idx.sum(0, 4000); // cracks every partition
    let probe = idx.structure_probe();
    assert_eq!(probe.rows, 4000);
    assert_eq!(probe.partition_load.len(), 4);
    assert!(probe.piece_count() >= 4, "every partition cracked");
    assert_eq!(probe.piece_sizes.iter().sum::<u64>(), 4000);
    let load = &probe.partition_load;
    assert!(
        load[0] > load[1] && load[0] > load[2] && load[0] > load[3],
        "low-end queries must skew the routed load: {load:?}"
    );
    assert_eq!(
        load.iter().sum::<u64>(),
        idx.routing_stats().ops,
        "per-partition loads account for every routed request"
    );
    let stats = probe.summarize();
    assert_eq!(stats.partitions, 4);
    assert!(stats.partition_load.max >= 20);
}

#[test]
fn drop_joins_owner_threads() {
    let idx = RangePartitionedCracker::new(shuffled(1000), 4);
    idx.count(10, 500);
    drop(idx); // must not hang or leak threads
}

#[test]
fn partition_of_routes_keys_to_split_ranges() {
    let splits = vec![10, 20, 30];
    assert_eq!(partition_of(&splits, i64::MIN), 0);
    assert_eq!(partition_of(&splits, 9), 0);
    assert_eq!(partition_of(&splits, 10), 1);
    assert_eq!(partition_of(&splits, 19), 1);
    assert_eq!(partition_of(&splits, 20), 2);
    assert_eq!(partition_of(&splits, 30), 3);
    assert_eq!(partition_of(&splits, i64::MAX), 3);
}

#[test]
fn adaptive_answers_match_oracle_without_rebalance() {
    // Thresholds high enough that no rebalance ever triggers: the
    // adaptive arm must behave exactly like the static one.
    let values = shuffled(6000);
    let idx = RangePartitionedCracker::adaptive(values.clone(), 3, quiet(1e9, 6000, u64::MAX));
    assert!(idx.is_adaptive());
    assert!(!RangePartitionedCracker::new(vec![1, 2], 1).is_adaptive());
    let mut oracle = values.clone();
    for (low, high) in [(0, 6000), (100, 200), (5999, 6000), (300, 100)] {
        assert_eq!(idx.count(low, high).0, ops::count(&oracle, low, high));
        assert_eq!(idx.sum(low, high).0, ops::sum(&oracle, low, high));
    }
    idx.insert(42);
    oracle.push(42);
    assert_eq!(idx.delete(100).0, 1);
    oracle.retain(|&v| v != 100);
    assert_eq!(idx.count(0, 6000).0, ops::count(&oracle, 0, 6000));
    assert_eq!(idx.len(), oracle.len());
    assert_eq!(idx.try_rebalance(), Rebalance::Balanced);
    assert_eq!(idx.partition_count(), 3);
    assert!(idx.check_invariants());
}

#[test]
fn adaptive_split_occurs_under_skew_and_preserves_answers() {
    let values = shuffled(8000);
    let idx = RangePartitionedCracker::adaptive(values.clone(), 2, quiet(1.5, 64, 16));
    // Hammer the low end: all load lands on partition 0.
    for i in 0..300i64 {
        let low = i % 1000;
        idx.count(low, low + 50);
    }
    let outcome = idx.try_rebalance();
    assert!(
        matches!(outcome, Rebalance::Split { .. }),
        "skewed load must split the hot partition: {outcome:?}"
    );
    assert_eq!(idx.partition_count(), 3);
    assert_eq!(idx.splits_performed(), 1);
    assert!(idx.splits().windows(2).all(|w| w[0] < w[1]));
    assert_eq!(idx.partition_sizes().iter().sum::<usize>(), 8000);
    let mut oracle = values.clone();
    for (low, high) in [(0, 8000), (0, 1050), (500, 600), (7000, 8000)] {
        assert_eq!(idx.count(low, high).0, ops::count(&oracle, low, high));
        assert_eq!(idx.sum(low, high).0, ops::sum(&oracle, low, high));
    }
    // Writes still route correctly through the new generation.
    idx.insert(500);
    oracle.push(500);
    assert_eq!(idx.delete(501).0, 1);
    oracle.retain(|&v| v != 501);
    assert_eq!(idx.count(0, 8000).0, ops::count(&oracle, 0, 8000));
    assert_eq!(idx.len(), oracle.len());
    assert!(idx.check_invariants());
}

#[test]
fn adaptive_merge_recycles_cold_partitions_at_cap() {
    let values = shuffled(9000);
    let mut config = quiet(1.5, 64, 16);
    config.max_partitions = 3;
    let idx = RangePartitionedCracker::adaptive(values.clone(), 3, config);
    // Hot partition 0 at the owner cap: the pass merges the coldest
    // adjacent pair (1, 2) instead of splitting.
    for i in 0..300i64 {
        let low = i % 500;
        idx.count(low, low + 20);
    }
    let outcome = idx.try_rebalance();
    assert!(
        matches!(outcome, Rebalance::Merged { .. }),
        "at the cap the coldest pair must merge: {outcome:?}"
    );
    assert_eq!(idx.partition_count(), 2);
    assert_eq!(idx.merges_performed(), 1);
    assert_eq!(idx.partition_sizes().iter().sum::<usize>(), 9000);
    for (low, high) in [(0, 9000), (0, 520), (4000, 8000)] {
        assert_eq!(idx.count(low, high).0, ops::count(&values, low, high));
        assert_eq!(idx.sum(low, high).0, ops::sum(&values, low, high));
    }
    // With a freed owner the still-hot partition can now split.
    for i in 0..300i64 {
        let low = i % 500;
        idx.count(low, low + 20);
    }
    let outcome = idx.try_rebalance();
    assert!(
        matches!(outcome, Rebalance::Split { .. }),
        "after the merge the hot partition splits: {outcome:?}"
    );
    assert_eq!(idx.partition_count(), 3);
    assert_eq!(idx.count(0, 9000).0, 9000);
    assert!(idx.check_invariants());
}

#[test]
fn queries_racing_repartition_never_drop_rows() {
    let n = 20_000usize;
    let values = shuffled(n);
    let mut config = quiet(1.05, 64, 1);
    config.max_partitions = 6;
    let idx = Arc::new(RangePartitionedCracker::adaptive(values.clone(), 4, config));
    let stop = Arc::new(AtomicBool::new(false));
    let mut clients = Vec::new();
    for _ in 0..4 {
        let idx = Arc::clone(&idx);
        let stop = Arc::clone(&stop);
        clients.push(thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                // A full-range count sees every row exactly once,
                // whichever routing generation served it.
                let (c, _) = idx.count(i64::MIN, i64::MAX);
                assert_eq!(c, n as u64, "racing query dropped or doubled rows");
            }
        }));
    }
    for round in 0..40 {
        for i in 0..200i64 {
            let low = (round * 37 + i) % 1000;
            idx.count(low, low + 50);
        }
        idx.try_rebalance();
        if idx.splits_performed() >= 3 {
            break;
        }
    }
    stop.store(true, Ordering::Relaxed);
    for c in clients {
        c.join().unwrap();
    }
    assert!(
        idx.splits_performed() >= 1,
        "the race test must exercise at least one split"
    );
    for (low, high) in [(0, n as i64), (0, 1050), (500, 600)] {
        assert_eq!(idx.count(low, high).0, ops::count(&values, low, high));
        assert_eq!(idx.sum(low, high).0, ops::sum(&values, low, high));
    }
    assert_eq!(idx.partition_sizes().iter().sum::<usize>(), n);
    assert!(idx.check_invariants());
}

#[test]
fn snapshot_blocks_repartition() {
    let values = shuffled(8000);
    let idx = RangePartitionedCracker::adaptive(values.clone(), 2, quiet(1.5, 64, 16));
    for i in 0..300i64 {
        let low = i % 1000;
        idx.count(low, low + 50);
    }
    let snap = idx.snapshot();
    assert_eq!(
        idx.try_rebalance(),
        Rebalance::SnapshotPinned,
        "a live snapshot pins row positions"
    );
    assert_eq!(idx.partition_count(), 2);
    assert_eq!(snap.count(0, 8000).0, 8000);
    drop(snap);
    // The aborted pass must not have consumed the load window: the
    // retry still sees the skew and splits.
    let outcome = idx.try_rebalance();
    assert!(
        matches!(outcome, Rebalance::Split { .. }),
        "closing the snapshot unblocks the split: {outcome:?}"
    );
    assert_eq!(idx.partition_count(), 3);
    assert_eq!(idx.count(0, 8000).0, 8000);
    assert!(idx.check_invariants());
}

#[test]
fn stealing_precracks_idle_partitions() {
    let values = shuffled(16_000);
    let config = AdaptiveConfig {
        check_interval: None,
        steal: true,
        steal_min_piece: 128,
        steal_poll: Duration::from_millis(1),
        ..AdaptiveConfig::default()
    };
    let idx = RangePartitionedCracker::adaptive(values.clone(), 4, config);
    // No queries at all: the owners are idle, so their poll timeouts
    // must turn into refinement steals against the big uncracked
    // initial pieces.
    for _ in 0..500 {
        if idx.steal_count() > 0 {
            break;
        }
        thread::sleep(Duration::from_millis(2));
    }
    assert!(
        idx.steal_count() > 0,
        "idle owners must pre-crack large pieces"
    );
    for (low, high) in [(0, 16_000), (100, 300), (8000, 9000)] {
        assert_eq!(idx.count(low, high).0, ops::count(&values, low, high));
        assert_eq!(idx.sum(low, high).0, ops::sum(&values, low, high));
    }
    assert!(idx.check_invariants(), "stolen refinement kept invariants");
}

#[test]
fn monitor_thread_rebalances_automatically() {
    let values = shuffled(8000);
    let config = AdaptiveConfig {
        check_interval: Some(Duration::from_millis(1)),
        imbalance_threshold: 1.2,
        min_partition_rows: 64,
        min_window_ops: 32,
        steal: false,
        ..AdaptiveConfig::default()
    };
    let idx = RangePartitionedCracker::adaptive(values.clone(), 2, config);
    for _ in 0..200 {
        for i in 0..100i64 {
            let low = i % 1000;
            idx.count(low, low + 50);
        }
        if idx.splits_performed() > 0 {
            break;
        }
        thread::sleep(Duration::from_millis(2));
    }
    assert!(
        idx.splits_performed() > 0,
        "the monitor thread must split the hot partition on its own"
    );
    assert_eq!(idx.count(0, 8000).0, 8000);
    // The monitor is still running: a live snapshot fences further
    // re-partitioning, so the size ledgers are read between splits
    // (mid-split the moved rows are in neither partition's ledger).
    let _fence = idx.snapshot();
    assert_eq!(idx.partition_sizes().iter().sum::<usize>(), 8000);
    assert!(idx.check_invariants());
}
