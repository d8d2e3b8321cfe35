use super::*;
use aidx_storage::ops;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn shuffled(n: usize) -> Vec<i64> {
    (0..n as i64).map(|i| (i * 48271) % n as i64).collect()
}

fn protocols() -> [LatchProtocol; 3] {
    [
        LatchProtocol::None,
        LatchProtocol::Column,
        LatchProtocol::Piece,
    ]
}

#[test]
fn sequential_results_match_scan_for_all_protocols() {
    let values = shuffled(3000);
    for protocol in protocols() {
        let idx = ConcurrentCracker::from_values(values.clone(), protocol);
        for (low, high) in [(10, 2500), (100, 200), (0, 3000), (2999, 3000), (50, 40)] {
            let (c, _) = idx.count(low, high);
            assert_eq!(
                c,
                ops::count(&values, low, high),
                "{protocol} count [{low},{high})"
            );
            let (s, _) = idx.sum(low, high);
            assert_eq!(
                s,
                ops::sum(&values, low, high),
                "{protocol} sum [{low},{high})"
            );
        }
        assert!(idx.check_invariants(), "{protocol} invariants");
        assert_eq!(idx.len(), 3000);
        assert!(!idx.is_empty());
        assert_eq!(idx.protocol(), protocol);
    }
}

#[test]
fn metrics_record_cracks_and_result_counts() {
    let values = shuffled(1000);
    let idx = ConcurrentCracker::from_values(values.clone(), LatchProtocol::Piece);
    let (c, m) = idx.count(100, 300);
    assert_eq!(c, 200);
    assert_eq!(m.result_count, 200);
    assert_eq!(m.cracks_performed, 2);
    assert!(m.crack_time > Duration::ZERO);
    // Repeat query: no new cracks, much less work.
    let (_, m2) = idx.count(100, 300);
    assert_eq!(m2.cracks_performed, 0);
    assert_eq!(m2.crack_time, Duration::ZERO);
    assert_eq!(idx.crack_count(), 2);
    assert_eq!(idx.queries_served(), 2);
    assert_eq!(idx.piece_count(), 3);
}

#[test]
fn sum_metrics_include_aggregation_time() {
    let values = shuffled(2000);
    let idx = ConcurrentCracker::from_values(values.clone(), LatchProtocol::Piece);
    let (s, m) = idx.sum(0, 2000);
    assert_eq!(s, ops::sum(&values, 0, 2000));
    assert_eq!(m.result_count, 2000);
    assert!(m.aggregate_time > Duration::ZERO);
}

#[test]
fn empty_and_inverted_ranges() {
    for protocol in protocols() {
        let idx = ConcurrentCracker::from_values(shuffled(100), protocol);
        assert_eq!(idx.count(50, 50).0, 0);
        assert_eq!(idx.count(70, 20).0, 0);
        assert_eq!(idx.sum(70, 20).0, 0);
        let idx = ConcurrentCracker::from_values(vec![], protocol);
        assert_eq!(idx.count(0, 10).0, 0);
    }
}

#[test]
fn concurrent_counts_match_scan_piece_protocol() {
    let n = 20_000usize;
    let values = shuffled(n);
    let idx = Arc::new(ConcurrentCracker::from_values(
        values.clone(),
        LatchProtocol::Piece,
    ));
    let values = Arc::new(values);
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let idx = Arc::clone(&idx);
        let values = Arc::clone(&values);
        handles.push(thread::spawn(move || {
            let mut seed = t * 7919 + 13;
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
    assert!(idx.check_invariants());
    // All data still present.
    let mut snap = idx.snapshot_values();
    snap.sort_unstable();
    assert_eq!(
        snap,
        (0..n as i64)
            .map(|i| (i * 48271) % n as i64)
            .collect::<Vec<_>>()
            .tap_sorted()
    );
}

#[test]
fn concurrent_sums_match_scan_all_protocols() {
    let n = 10_000usize;
    let values = shuffled(n);
    for protocol in [LatchProtocol::Column, LatchProtocol::Piece] {
        let idx = Arc::new(ConcurrentCracker::from_values(values.clone(), protocol));
        let values = Arc::new(values.clone());
        let mut handles = Vec::new();
        for t in 0..6u64 {
            let idx = Arc::clone(&idx);
            let values = Arc::clone(&values);
            handles.push(thread::spawn(move || {
                let mut seed = t * 104729 + 7;
                for _ in 0..40 {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let a = (seed >> 17) as i64 % n as i64;
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let b = (seed >> 17) as i64 % n as i64;
                    let (low, high) = if a <= b { (a, b) } else { (b, a) };
                    let (s, _) = idx.sum(low, high);
                    assert_eq!(s, ops::sum(&values, low, high), "{protocol} [{low},{high})");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(idx.check_invariants(), "{protocol}");
    }
}

#[test]
fn skip_on_contention_still_answers_correctly() {
    let n = 30_000usize;
    let values = shuffled(n);
    let idx = Arc::new(
        ConcurrentCracker::from_values(values.clone(), LatchProtocol::Piece)
            .with_policy(RefinementPolicy::SkipOnContention),
    );
    assert_eq!(idx.policy(), RefinementPolicy::SkipOnContention);
    let values = Arc::new(values);
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let idx = Arc::clone(&idx);
        let values = Arc::clone(&values);
        handles.push(thread::spawn(move || {
            let mut seed = t * 31 + 1;
            for _ in 0..40 {
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
    // With contention and the skip policy, at least some refinements
    // should have been abandoned (this is probabilistic but with 8
    // threads and 320 queries over a fresh index it is effectively
    // certain; if it ever flakes the assertion can be relaxed).
    let stats = idx.systxn_stats();
    assert!(stats.started > 0);
}

#[test]
fn piece_count_grows_and_piece_sizes_shrink() {
    let values = shuffled(5000);
    let idx = ConcurrentCracker::from_values(values, LatchProtocol::Piece);
    let (_, m1) = idx.sum(1000, 4000);
    let (_, m2) = idx.sum(2000, 3000);
    let (_, m3) = idx.sum(2200, 2800);
    // Later queries refine ever smaller pieces, so their crack times
    // cannot exceed the first query's by much; what must hold strictly
    // is that the piece count grows and repeat bounds are reused.
    assert!(idx.piece_count() >= 6);
    assert_eq!(m1.cracks_performed, 2);
    assert_eq!(m2.cracks_performed, 2);
    assert_eq!(m3.cracks_performed, 2);
    let (_, m_repeat) = idx.sum(2200, 2800);
    assert_eq!(m_repeat.cracks_performed, 0);
}

#[test]
fn structure_probe_reflects_cracks_and_delta() {
    let idx = ConcurrentCracker::from_values((0..100).rev().collect(), LatchProtocol::Piece);
    let probe0 = idx.structure_probe();
    assert_eq!(probe0.piece_count(), 1);
    assert_eq!(probe0.rows, 100);
    idx.count(10, 40);
    idx.insert(1000);
    idx.delete(5);
    let probe = idx.structure_probe();
    assert_eq!(probe.piece_count(), idx.piece_count());
    assert!(probe.piece_count() >= 3);
    assert_eq!(probe.piece_sizes.iter().sum::<u64>(), 100);
    assert_eq!(probe.pending_inserts, 1);
    assert_eq!(probe.rows, 100);
    let stats = probe.summarize();
    assert_eq!(stats.rows, 100);
    assert!(stats.piece_size.max <= 100);
    // Per-piece latch attribution exists for the touched pieces.
    assert!(!idx.latch_stats_by_piece().is_empty());
}

#[test]
fn latch_stats_reflect_activity() {
    let values = shuffled(1000);
    let idx = ConcurrentCracker::from_values(values, LatchProtocol::Piece);
    idx.sum(100, 900);
    let stats = idx.latch_stats();
    assert!(stats.write_acquisitions >= 2);
    assert!(stats.read_acquisitions >= 1);
    let idx_col = ConcurrentCracker::from_values(shuffled(1000), LatchProtocol::Column);
    idx_col.sum(100, 900);
    let stats = idx_col.latch_stats();
    assert!(stats.write_acquisitions >= 1);
    assert!(stats.read_acquisitions >= 1);
}

#[test]
fn inserts_and_deletes_adjust_answers_for_all_protocols() {
    for protocol in protocols() {
        let values = shuffled(2000);
        let idx = ConcurrentCracker::from_values(values.clone(), protocol);
        // Warm the index with a query, then mutate.
        idx.sum(100, 900);
        let m = idx.insert(150);
        assert_eq!(m.inserts_applied, 1);
        idx.insert(150);
        idx.insert(5000); // outside the original domain
        let (removed, dm) = idx.delete(700);
        assert_eq!(removed, 1, "{protocol}: 700 occurs once");
        assert_eq!(dm.deletes_applied, 1);
        assert_eq!(dm.result_count, 1);
        // Oracle: the same edits applied to a plain vector.
        let mut oracle = values.clone();
        oracle.push(150);
        oracle.push(150);
        oracle.push(5000);
        oracle.retain(|&v| v != 700);
        for (low, high) in [(0, 2000), (100, 200), (699, 701), (140, 160), (4000, 6000)] {
            assert_eq!(
                idx.count(low, high).0,
                ops::count(&oracle, low, high),
                "{protocol} count [{low},{high})"
            );
            assert_eq!(
                idx.sum(low, high).0,
                ops::sum(&oracle, low, high),
                "{protocol} sum [{low},{high})"
            );
        }
        assert_eq!(idx.logical_len(), oracle.len() as u64);
        assert_eq!(idx.inserts_applied(), 3);
        assert_eq!(idx.deletes_applied(), 1);
        assert!(idx.check_invariants(), "{protocol}");
    }
}

#[test]
fn write_reports_rows_affected_and_the_ops_own_bookkeeping() {
    let idx = ConcurrentCracker::from_values(vec![7, 42, 9, 42], LatchProtocol::Piece);
    let insert = WriteOp::Insert {
        value: 42,
        rowid: 90,
    };
    let delete_row = WriteOp::DeleteRow {
        value: 42,
        rowid: 1,
    };
    let delete = WriteOp::Delete { value: 42 };
    assert_eq!([insert.key(), delete_row.key(), delete.key()], [42; 3]);
    let mut len = idx.logical_len() as isize;
    for (op, rows) in [(insert, 1), (delete_row, 1), (delete_row, 0), (delete, 2)] {
        let (affected, m) = idx.write(op);
        assert_eq!(affected, rows, "{op:?}");
        assert_eq!(m.result_count, rows, "{op:?}");
        let is_insert = matches!(op, WriteOp::Insert { .. });
        assert_eq!(m.inserts_applied, u32::from(is_insert), "{op:?}");
        assert_eq!(m.deletes_applied, u32::from(!is_insert), "{op:?}");
        len += op.len_delta(affected);
        assert_eq!(idx.logical_len() as isize, len, "{op:?}");
    }
    assert_eq!(idx.select_rowids(i64::MIN, i64::MAX).0, vec![0, 2]);
    assert_eq!((idx.inserts_applied(), idx.deletes_applied()), (1, 3));
    assert!(idx.check_invariants());
}

#[test]
fn repeated_and_missing_deletes_remove_nothing_extra() {
    let idx = ConcurrentCracker::from_values(shuffled(500), LatchProtocol::Piece);
    assert_eq!(idx.delete(42).0, 1);
    assert_eq!(idx.delete(42).0, 0, "second delete finds nothing");
    assert_eq!(idx.delete(100_000).0, 0, "absent key");
    idx.insert(42);
    assert_eq!(idx.count(42, 43).0, 1, "insert after delete survives");
    assert_eq!(idx.delete(42).0, 1, "pending insert is reclaimed");
    assert_eq!(idx.count(42, 43).0, 0);
    assert!(idx.check_invariants());
}

#[test]
fn writes_into_an_initially_empty_index() {
    for protocol in protocols() {
        let idx = ConcurrentCracker::from_values(vec![], protocol);
        idx.insert(3);
        idx.insert(7);
        idx.insert(7);
        assert_eq!(idx.count(0, 10).0, 3, "{protocol}");
        assert_eq!(idx.sum(0, 10).0, 17, "{protocol}");
        assert_eq!(idx.delete(7).0, 2, "{protocol}");
        assert_eq!(idx.count(0, 10).0, 1, "{protocol}");
        assert_eq!(idx.logical_len(), 1);
    }
}

#[test]
fn extreme_keys_can_be_inserted_and_deleted() {
    let mut values = shuffled(100);
    values.push(i64::MAX);
    values.push(i64::MAX);
    values.push(i64::MIN);
    for protocol in protocols() {
        let idx = ConcurrentCracker::from_values(values.clone(), protocol);
        assert_eq!(idx.delete(i64::MAX).0, 2, "{protocol}");
        assert_eq!(idx.delete(i64::MIN).0, 1, "{protocol}");
        assert_eq!(idx.count(i64::MIN, i64::MAX).0, 100, "{protocol}");
        assert!(idx.check_invariants(), "{protocol}");
    }
}

#[test]
fn concurrent_mixed_readers_and_writers_converge() {
    // Writers insert values from a domain disjoint from the initial
    // data and delete distinct initial values, so the final state is
    // independent of the interleaving and can be checked exactly.
    let n = 10_000usize;
    let values = shuffled(n);
    let idx = Arc::new(ConcurrentCracker::from_values(
        values.clone(),
        LatchProtocol::Piece,
    ));
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let idx = Arc::clone(&idx);
        handles.push(thread::spawn(move || {
            for i in 0..50u64 {
                let key = (n as u64 + t * 50 + i) as i64; // unique, disjoint
                idx.insert(key);
                let doomed = (t * 50 + i) as i64; // distinct initial value
                assert_eq!(idx.delete(doomed).0, 1);
                // Interleaved reads must never panic or corrupt.
                idx.sum(0, n as i64 / 2);
                idx.count(doomed, doomed + 1);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Final state: initial values 0..200 gone, n..n+200 added.
    let mut oracle = values;
    oracle.retain(|&v| v >= 200);
    oracle.extend(n as i64..(n + 200) as i64);
    assert_eq!(idx.count(i64::MIN, i64::MAX).0, oracle.len() as u64);
    assert_eq!(
        idx.sum(i64::MIN, i64::MAX).0,
        oracle.iter().map(|&v| v as i128).sum::<i128>()
    );
    assert_eq!(idx.logical_len(), oracle.len() as u64);
    assert!(idx.check_invariants());
}

// ----- delta compaction + piece shrinking ------------------------------

#[test]
fn forced_compaction_merges_delta_and_preserves_cracks() {
    for protocol in protocols() {
        let values = shuffled(2000);
        let idx = ConcurrentCracker::from_values(values.clone(), protocol);
        idx.sum(200, 1500);
        idx.sum(600, 900);
        let pieces_before = idx.piece_count();
        for i in 0..50 {
            idx.insert(3000 + i);
        }
        idx.delete(250);
        idx.delete(700);
        assert!(idx.delta_rows() > 0, "{protocol}");

        assert!(idx.compact(), "{protocol}: delta present, must rebuild");
        assert_eq!(idx.delta_rows(), 0, "{protocol}: delta drained");
        assert_eq!(idx.hole_count(), 0, "{protocol}: holes reclaimed");
        assert_eq!(idx.compactions_performed(), 1);
        assert_eq!(idx.pending_rows_compacted(), 50);
        // Crack values survive the rebuild (piece count can only have
        // grown via the deletes' own refinement, never shrunk).
        assert!(idx.piece_count() >= pieces_before, "{protocol}");

        let mut oracle = values.clone();
        oracle.extend(3000..3050);
        oracle.retain(|&v| v != 250 && v != 700);
        assert_eq!(idx.len() as u64, idx.logical_len(), "{protocol}");
        assert_eq!(idx.logical_len(), oracle.len() as u64, "{protocol}");
        for (low, high) in [(0, 2000), (200, 1500), (600, 900), (2900, 3100), (249, 251)] {
            assert_eq!(
                idx.count(low, high).0,
                ops::count(&oracle, low, high),
                "{protocol} count [{low},{high}) after compaction"
            );
            assert_eq!(
                idx.sum(low, high).0,
                ops::sum(&oracle, low, high),
                "{protocol} sum [{low},{high}) after compaction"
            );
        }
        assert!(idx.check_invariants(), "{protocol}");
        // A second forced compaction has nothing to do.
        assert!(!idx.compact(), "{protocol}: nothing left to reclaim");
    }
}

#[test]
fn policy_keeps_the_delta_bounded_under_an_insert_stream() {
    const THRESHOLD: u64 = 64;
    for protocol in protocols() {
        let values = shuffled(1000);
        let idx = ConcurrentCracker::from_values(values.clone(), protocol)
            .with_compaction(CompactionPolicy::rows(THRESHOLD));
        assert_eq!(idx.compaction_policy(), CompactionPolicy::rows(THRESHOLD));
        idx.sum(100, 800);
        let mut oracle = values.clone();
        let mut max_delta = 0;
        for i in 0..1000i64 {
            let key = 10_000 + i;
            let m = idx.insert(key);
            oracle.push(key);
            max_delta = max_delta.max(idx.delta_rows());
            if i % 100 == 7 {
                assert_eq!(
                    idx.count(0, 20_000).0,
                    ops::count(&oracle, 0, 20_000),
                    "{protocol} @ insert {i}"
                );
            }
            if m.compactions_performed > 0 {
                assert!(m.compaction_time > Duration::ZERO);
            }
        }
        assert!(
            idx.compactions_performed() >= 1000 / THRESHOLD - 1,
            "{protocol}: expected regular rebuilds, got {}",
            idx.compactions_performed()
        );
        assert!(
            max_delta <= THRESHOLD,
            "{protocol}: delta must stay bounded by the threshold, saw {max_delta}"
        );
        assert_eq!(
            idx.sum(0, 20_000).0,
            ops::sum(&oracle, 0, 20_000),
            "{protocol}"
        );
        assert!(idx.check_invariants(), "{protocol}");
    }
}

#[test]
fn fraction_policy_scales_with_main_size() {
    let idx = ConcurrentCracker::from_values(shuffled(100), LatchProtocol::Piece)
        .with_compaction(CompactionPolicy::fraction(0.5));
    for i in 0..200 {
        idx.insert(1000 + i);
    }
    assert!(idx.compactions_performed() >= 1);
    // After merging, main grew, so the absolute trigger point grows too.
    assert!(idx.len() > 100);
    assert_eq!(idx.count(1000, 1200).0, 200);
    assert!(idx.check_invariants());
}

#[test]
fn cracks_shrink_pieces_with_tombstoned_rows() {
    for protocol in protocols() {
        let values = shuffled(2000);
        let idx = ConcurrentCracker::from_values(values.clone(), protocol);
        // Tombstone some keys; the deletes' own bound cracks reclaim
        // the doomed rows immediately (the crack holds the write
        // latch), so tombstones retire as they are created.
        for doomed in [100, 101, 500] {
            assert_eq!(idx.delete(doomed).0, 1, "{protocol}");
        }
        assert_eq!(
            idx.tombstoned_rows(),
            0,
            "{protocol}: merge-on-crack reclaimed the tombstones"
        );
        assert_eq!(idx.hole_count(), 3, "{protocol}");
        assert!(idx.piece_shrinks() >= 1, "{protocol}");
        assert_eq!(idx.tombstones_reclaimed(), 3, "{protocol}");

        let mut oracle = values.clone();
        oracle.retain(|&v| v != 100 && v != 101 && v != 500);
        for (low, high) in [(0, 2000), (90, 110), (499, 502), (100, 101)] {
            assert_eq!(
                idx.count(low, high).0,
                ops::count(&oracle, low, high),
                "{protocol} count [{low},{high}) with holes"
            );
            assert_eq!(
                idx.sum(low, high).0,
                ops::sum(&oracle, low, high),
                "{protocol} sum [{low},{high}) with holes"
            );
        }
        assert_eq!(idx.logical_len(), oracle.len() as u64, "{protocol}");
        let mut live = idx.snapshot_values();
        live.sort_unstable();
        let mut expected = oracle.clone();
        expected.sort_unstable();
        assert_eq!(live, expected, "{protocol}: holes excluded from snapshots");
        assert!(idx.check_invariants(), "{protocol}");

        // Compaction reclaims the dead slots for good.
        assert!(idx.compact(), "{protocol}");
        assert_eq!(idx.hole_count(), 0, "{protocol}");
        assert_eq!(idx.len(), oracle.len(), "{protocol}");
        assert_eq!(idx.count(0, 2000).0, ops::count(&oracle, 0, 2000));
        assert!(idx.check_invariants(), "{protocol}");
    }
}

#[test]
fn shrinking_handles_duplicates_and_reinserts() {
    let mut values = shuffled(500);
    values.extend([42, 42, 42]); // 42 now occurs 4 times
    let idx = ConcurrentCracker::from_values(values.clone(), LatchProtocol::Piece);
    assert_eq!(idx.delete(42).0, 4);
    idx.insert(42); // back as a pending insert
    assert_eq!(idx.count(42, 43).0, 1);
    assert_eq!(idx.sum(40, 45).0, {
        let mut oracle = values.clone();
        oracle.retain(|&v| v != 42);
        oracle.push(42);
        ops::sum(&oracle, 40, 45)
    });
    // The delete cracked [42, 43): its piece was swept on the spot.
    assert_eq!(idx.tombstoned_rows(), 0);
    assert_eq!(idx.hole_count(), 4);
    assert!(idx.check_invariants());
}

#[test]
fn writes_into_an_empty_index_materialise_via_compaction() {
    for protocol in protocols() {
        let idx = ConcurrentCracker::from_values(vec![], protocol)
            .with_compaction(CompactionPolicy::rows(4));
        for v in [5, 1, 9, 1, 7] {
            idx.insert(v);
        }
        assert!(
            idx.compactions_performed() >= 1,
            "{protocol}: threshold 4 must have tripped"
        );
        assert!(idx.len() >= 4, "{protocol}: main array materialised");
        assert_eq!(idx.count(0, 10).0, 5, "{protocol}");
        assert_eq!(idx.sum(0, 10).0, 23, "{protocol}");
        assert_eq!(idx.delete(1).0, 2, "{protocol}");
        assert_eq!(idx.logical_len(), 3, "{protocol}");
        assert!(idx.check_invariants(), "{protocol}");
    }
}

#[test]
fn concurrent_mixed_workload_with_aggressive_compaction_converges() {
    // Same disjoint-domain convergence test as above, but with the
    // delta compacting every 32 rows and deletes shrinking pieces, so
    // rebuilds race selects, inserts, deletes, and cracks constantly.
    let n = 10_000usize;
    let values = shuffled(n);
    for protocol in [LatchProtocol::Column, LatchProtocol::Piece] {
        let idx = Arc::new(
            ConcurrentCracker::from_values(values.clone(), protocol)
                .with_compaction(CompactionPolicy::rows(32)),
        );
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let idx = Arc::clone(&idx);
            handles.push(thread::spawn(move || {
                for i in 0..50u64 {
                    let key = (n as u64 + t * 50 + i) as i64;
                    idx.insert(key);
                    let doomed = (t * 50 + i) as i64;
                    assert_eq!(idx.delete(doomed).0, 1);
                    idx.sum(0, n as i64 / 2);
                    idx.count(doomed, doomed + 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut oracle = values.clone();
        oracle.retain(|&v| v >= 200);
        oracle.extend(n as i64..(n + 200) as i64);
        assert_eq!(
            idx.count(i64::MIN, i64::MAX).0,
            oracle.len() as u64,
            "{protocol}"
        );
        assert_eq!(
            idx.sum(i64::MIN, i64::MAX).0,
            oracle.iter().map(|&v| v as i128).sum::<i128>(),
            "{protocol}"
        );
        assert!(
            idx.compactions_performed() > 0,
            "{protocol}: 400 delta rows over threshold 32 must compact"
        );
        assert_eq!(idx.logical_len(), oracle.len() as u64, "{protocol}");
        assert!(idx.check_invariants(), "{protocol}");
    }
}

// ----- snapshot reads + incremental compaction -------------------------

#[test]
fn snapshot_pins_the_view_across_writes() {
    for protocol in protocols() {
        let values = shuffled(2000);
        let idx = ConcurrentCracker::from_values(values.clone(), protocol);
        idx.sum(100, 900);
        idx.insert(150);
        let (count_then, _) = idx.count(0, 3000);
        let (sum_then, _) = idx.sum(0, 3000);
        let snap = idx.snapshot();
        assert_eq!(idx.live_snapshots(), 1, "{protocol}");
        // Writes after the snapshot are invisible through it.
        idx.insert(150);
        idx.insert(2500);
        idx.delete(150);
        idx.delete(700);
        assert_eq!(snap.count(0, 3000).0, count_then, "{protocol}");
        assert_eq!(snap.sum(0, 3000).0, sum_then, "{protocol}");
        // The live view moved on.
        let mut oracle = values.clone();
        oracle.push(2500);
        oracle.retain(|&v| v != 150 && v != 700);
        assert_eq!(idx.count(0, 3000).0, ops::count(&oracle, 0, 3000));
        drop(snap);
        assert_eq!(idx.live_snapshots(), 0, "{protocol}");
        assert!(idx.check_invariants(), "{protocol}");
    }
}

#[test]
fn snapshot_survives_piece_shrinks_and_full_compaction() {
    for protocol in protocols() {
        let values = shuffled(1500);
        let idx = ConcurrentCracker::from_values(values.clone(), protocol);
        idx.sum(200, 1200);
        let snap = idx.snapshot();
        // Deletes reclaim their rows on the spot (piece shrinking) and
        // a forced full compaction rebuilds the array — the pinned
        // snapshot must notice neither.
        for doomed in [100, 101, 500, 900] {
            idx.delete(doomed);
        }
        for v in 0..50 {
            idx.insert(5000 + v);
        }
        assert!(idx.compact(), "{protocol}");
        for (low, high) in [(0, 1500), (90, 110), (499, 501), (0, 6000)] {
            assert_eq!(
                snap.count(low, high).0,
                ops::count(&values, low, high),
                "{protocol} snapshot count [{low},{high}) after compaction"
            );
            assert_eq!(
                snap.sum(low, high).0,
                ops::sum(&values, low, high),
                "{protocol} snapshot sum [{low},{high}) after compaction"
            );
        }
        drop(snap);
        let mut oracle = values.clone();
        oracle.retain(|&v| ![100, 101, 500, 900].contains(&v));
        oracle.extend(5000..5050);
        assert_eq!(idx.count(0, 6000).0, ops::count(&oracle, 0, 6000));
        assert!(idx.check_invariants(), "{protocol}");
    }
}

#[test]
fn incremental_steps_fill_holes_with_pending_inserts() {
    for protocol in protocols() {
        let values = shuffled(2000);
        let idx = ConcurrentCracker::from_values(values.clone(), protocol);
        idx.sum(0, 2000);
        // Churn: deletes carve holes, re-inserts of the same keys go
        // pending. Steps must reconcile them in place — no rebuild.
        let mut oracle = values.clone();
        for key in [100, 101, 500, 900, 1500] {
            assert_eq!(idx.delete(key).0, 1, "{protocol}");
            idx.insert(key);
        }
        assert_eq!(idx.pending_inserts(), 5, "{protocol}");
        assert_eq!(idx.hole_count(), 5, "{protocol}");
        let len_before = idx.len();
        let mut reconciled = 0;
        let mut steps = 0;
        while reconciled < 5 && steps < 64 {
            reconciled += idx.compact_step(4);
            steps += 1;
        }
        assert_eq!(reconciled, 5, "{protocol}: all pending rows placed");
        assert_eq!(idx.pending_inserts(), 0, "{protocol}");
        assert_eq!(idx.hole_count(), 0, "{protocol}: holes refilled");
        assert_eq!(idx.len(), len_before, "{protocol}: no rebuild happened");
        assert_eq!(idx.compactions_performed(), 0, "{protocol}");
        assert!(idx.compaction_steps_performed() > 0, "{protocol}");
        oracle.sort_unstable();
        let mut live = idx.snapshot_values();
        live.sort_unstable();
        assert_eq!(live, oracle, "{protocol}: multiset preserved in place");
        for (low, high) in [(0, 2000), (90, 110), (499, 501), (1400, 1600)] {
            assert_eq!(
                idx.count(low, high).0,
                ops::count(&oracle, low, high),
                "{protocol} count [{low},{high}) after steps"
            );
        }
        assert!(idx.check_invariants(), "{protocol}");
    }
}

#[test]
fn incremental_policy_bounds_the_delta_under_churn() {
    const THRESHOLD: u64 = 16;
    for protocol in protocols() {
        let values = shuffled(3000);
        let idx = ConcurrentCracker::from_values(values.clone(), protocol)
            .with_compaction(CompactionPolicy::rows(THRESHOLD).incremental(4));
        idx.sum(0, 3000);
        let oracle = values.clone();
        let mut max_delta = 0;
        for i in 0..1500i64 {
            let key = i * 2; // every seeded even key: delete + re-insert
            assert_eq!(idx.delete(key).0, 1, "{protocol} delete {key}");
            idx.insert(key);
            max_delta = max_delta.max(idx.delta_rows());
            if i % 250 == 13 {
                assert_eq!(
                    idx.count(0, 3000).0,
                    ops::count(&oracle, 0, 3000),
                    "{protocol} @ churn {i}"
                );
            }
        }
        assert!(
            max_delta <= THRESHOLD,
            "{protocol}: delta must stay bounded, saw {max_delta}"
        );
        assert!(
            idx.compaction_steps_performed() > 0,
            "{protocol}: incremental steps must have run"
        );
        assert_eq!(
            idx.compactions_performed(),
            0,
            "{protocol}: churn delta merges in place, no quiescing rebuild"
        );
        assert_eq!(idx.sum(0, 3000).0, ops::sum(&oracle, 0, 3000), "{protocol}");
        assert!(idx.check_invariants(), "{protocol}");
    }
}

#[test]
fn incremental_policy_falls_back_to_rebuild_without_holes() {
    // Insert-only stream: there are no holes to fill, so the bound can
    // only be kept by the quiescing final fixup.
    let idx = ConcurrentCracker::from_values(shuffled(500), LatchProtocol::Piece)
        .with_compaction(CompactionPolicy::rows(32).incremental(4));
    idx.sum(0, 500);
    let mut max_delta = 0;
    for i in 0..200 {
        idx.insert(10_000 + i);
        max_delta = max_delta.max(idx.delta_rows());
    }
    assert!(max_delta <= 32, "bound kept, saw {max_delta}");
    assert!(
        idx.compactions_performed() >= 1,
        "fallback rebuilds must have fired"
    );
    assert_eq!(idx.count(10_000, 10_200).0, 200);
    assert!(idx.check_invariants());
}

#[test]
fn compacted_through_watermark_advances() {
    let values = shuffled(1000);
    let idx = ConcurrentCracker::from_values(values, LatchProtocol::Piece);
    idx.sum(200, 800);
    assert_eq!(idx.compacted_through(), 0, "no writes yet");
    for key in [100, 300, 500] {
        idx.delete(key);
        idx.insert(key);
    }
    let epoch_now = idx.current_epoch();
    assert!(idx.compacted_through() < epoch_now, "pending work exists");
    // A full lap of steps must carry every piece past those writes.
    let mut walked = 0;
    while walked < 64 && idx.compacted_through() < epoch_now {
        idx.compact_step(8);
        walked += 1;
    }
    assert!(
        idx.compacted_through() >= epoch_now,
        "the walk advances every piece's watermark"
    );
    assert_eq!(idx.pending_inserts(), 0);
    // A full rebuild raises the floor in one go.
    for key in [101, 301] {
        idx.delete(key);
    }
    idx.insert(5000);
    idx.compact();
    assert!(idx.compacted_through() >= idx.current_epoch());
    assert!(idx.check_invariants());
}

#[test]
fn incomplete_piece_merges_do_not_overstate_the_watermark() {
    let idx = ConcurrentCracker::from_values(shuffled(1000), LatchProtocol::Piece);
    idx.sum(0, 1000);
    // One hole, three pending inserts for the same key: a full lap of
    // steps can place only one row, so the key's piece is not fully
    // reconciled and the column watermark must not reach the epoch of
    // the unplaced inserts.
    assert_eq!(idx.delete(500).0, 1);
    idx.insert(500);
    idx.insert(500);
    idx.insert(500);
    let epoch_now = idx.current_epoch();
    let mut walked = 0;
    while walked < 64 {
        idx.compact_step(8);
        walked += 1;
    }
    assert_eq!(idx.pending_inserts(), 2, "hole budget placed one row");
    assert!(
        idx.compacted_through() < epoch_now,
        "unreconciled epochs must keep the watermark behind: {} vs {}",
        idx.compacted_through(),
        epoch_now
    );
    assert_eq!(idx.count(500, 501).0, 3, "answers stay exact regardless");
    assert!(idx.check_invariants());
}

#[test]
fn snapshot_stays_exact_across_incremental_steps() {
    // The acceptance shape: a scan pinned open across >= 3 incremental
    // steps answers exactly at its epoch, for every protocol.
    for protocol in protocols() {
        let values = shuffled(2000);
        let idx = ConcurrentCracker::from_values(values.clone(), protocol)
            .with_compaction(CompactionPolicy::rows(1_000_000).incremental(4));
        idx.sum(0, 2000);
        // Pre-snapshot churn so the snapshot epoch is non-trivial.
        idx.delete(10);
        idx.insert(10);
        let oracle_at = values.clone();
        let snap = idx.snapshot();
        // Post-snapshot churn + >= 3 explicit incremental steps.
        let mut steps = 0;
        for (i, key) in [200, 600, 1000, 1400, 1800].into_iter().enumerate() {
            assert_eq!(idx.delete(key).0, 1, "{protocol}");
            idx.insert(key);
            if i < 4 {
                idx.compact_step(8);
                steps += 1;
            }
        }
        assert!(steps >= 3);
        for (low, high) in [(0, 2000), (150, 250), (599, 601), (0, 20_000)] {
            assert_eq!(
                snap.count(low, high).0,
                ops::count(&oracle_at, low, high),
                "{protocol} pinned count [{low},{high})"
            );
            assert_eq!(
                snap.sum(low, high).0,
                ops::sum(&oracle_at, low, high),
                "{protocol} pinned sum [{low},{high})"
            );
        }
        drop(snap);
        assert!(idx.check_invariants(), "{protocol}");
    }
}

#[test]
fn many_interleaved_snapshots_read_their_own_epochs() {
    let idx = ConcurrentCracker::from_values(shuffled(500), LatchProtocol::Piece);
    idx.sum(0, 500);
    let baseline = idx.count(0, 500).0;
    let s1 = idx.snapshot();
    idx.insert(100);
    let s2 = idx.snapshot();
    idx.insert(100);
    idx.delete(100); // removes the seeded row + both pending
    let s3 = idx.snapshot();
    idx.insert(100);
    assert_eq!(s1.count(0, 500).0, baseline);
    assert_eq!(s2.count(0, 500).0, baseline + 1);
    assert_eq!(s3.count(0, 500).0, baseline - 1, "delete removed 3 rows");
    assert_eq!(idx.count(0, 500).0, baseline);
    drop(s2);
    drop(s1);
    drop(s3);
    assert_eq!(idx.live_snapshots(), 0);
    assert!(idx.check_invariants());
}

#[test]
fn concurrent_snapshot_scans_race_churn_and_incremental_steps() {
    // Readers pin snapshots while writers churn and the policy merges
    // piece by piece; every pinned read must reproduce its epoch. The
    // oracle is the count over a domain the writers never touch, plus
    // the churn keys' contribution frozen at snapshot time.
    let n = 8000usize;
    let values = shuffled(n);
    for protocol in [LatchProtocol::Column, LatchProtocol::Piece] {
        let idx = Arc::new(
            ConcurrentCracker::from_values(values.clone(), protocol)
                .with_compaction(CompactionPolicy::rows(24).incremental(4)),
        );
        idx.sum(0, n as i64);
        let total = n as u64;
        let mut handles = Vec::new();
        for t in 0..2u64 {
            let idx = Arc::clone(&idx);
            handles.push(thread::spawn(move || {
                for i in 0..60u64 {
                    let key = (t * 60 + i) as i64; // churn distinct keys
                    assert_eq!(idx.delete(key).0, 1);
                    idx.insert(key);
                }
            }));
        }
        for _ in 0..3 {
            let idx = Arc::clone(&idx);
            handles.push(thread::spawn(move || {
                for _ in 0..40 {
                    let snap = idx.snapshot();
                    // Churn preserves the total multiset count at every
                    // epoch boundary... except while one churn pair is
                    // half-applied (delete landed, re-insert not yet).
                    // Each writer has at most one such pair in flight,
                    // so the pinned total is within 2 of the seed.
                    let (c, _) = snap.count(i64::MIN, i64::MAX);
                    assert!(
                        total - 2 <= c && c <= total,
                        "pinned total {c} drifted from {total}"
                    );
                    // And it is *stable*: re-reading the same snapshot
                    // during further churn returns the same answer.
                    assert_eq!(snap.count(i64::MIN, i64::MAX).0, c);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(idx.count(i64::MIN, i64::MAX).0, total, "{protocol}");
        assert_eq!(idx.live_snapshots(), 0, "{protocol}");
        assert!(idx.check_invariants(), "{protocol}");
    }
}

// ----- rowid-preserving reads and positional deletes -------------------

/// Oracle for rowid reads: the rowids of `rows` whose value is in
/// `[low, high)`, sorted.
fn rowid_oracle(rows: &[(i64, RowId)], low: i64, high: i64) -> Vec<RowId> {
    let mut out: Vec<RowId> = rows
        .iter()
        .filter(|&&(v, _)| v >= low && v < high)
        .map(|&(_, r)| r)
        .collect();
    out.sort_unstable();
    out
}

#[test]
fn select_rowids_matches_the_oracle_for_all_protocols() {
    let values = shuffled(3000);
    let rows: Vec<(i64, RowId)> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as RowId))
        .collect();
    for protocol in protocols() {
        let idx = ConcurrentCracker::from_values(values.clone(), protocol);
        for (low, high) in [(10, 2500), (100, 200), (0, 3000), (2999, 3000), (50, 40)] {
            let (got, m) = idx.select_rowids(low, high);
            let expected = rowid_oracle(&rows, low, high);
            assert_eq!(got, expected, "{protocol} rowids [{low},{high})");
            assert_eq!(m.result_count, expected.len() as u64);
        }
        // Rowid reads refine the index like any other query.
        assert!(idx.crack_count() >= 2, "{protocol}");
        assert!(idx.check_invariants(), "{protocol}");
    }
}

#[test]
fn rowids_survive_cracks_writes_shrinks_and_compaction_steps() {
    // The rowid-stability pin: whatever physical reorganisation runs —
    // cracks, delete-aware shrinks, incremental steps, full rebuilds —
    // the (value → rowid set) mapping answers exactly like a frozen
    // oracle.
    for protocol in protocols() {
        let values = shuffled(2000);
        let mut rows: Vec<(i64, RowId)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as RowId))
            .collect();
        let idx = ConcurrentCracker::from_values(values.clone(), protocol)
            .with_compaction(CompactionPolicy::rows(16).incremental(2));
        idx.sum(100, 1500); // crack
                            // Inserts get fresh self-assigned ids continuing after the
                            // base rows.
        idx.insert(2500);
        rows.push((2500, 2000));
        idx.insert(2500);
        rows.push((2500, 2001));
        // Value-wide delete kills exactly the rows carrying the value.
        assert_eq!(idx.delete(700).0, 1);
        rows.retain(|&(v, _)| v != 700);
        // Churn enough to trip incremental steps and a rebuild.
        for i in 0..40 {
            idx.insert(3000 + i);
            rows.push((3000 + i, 2002 + i as RowId));
        }
        idx.compact_step(4);
        assert!(idx.compact(), "forced rebuild");
        for (low, high) in [(0, 2000), (600, 800), (2400, 3100), (0, 4000)] {
            assert_eq!(
                idx.select_rowids(low, high).0,
                rowid_oracle(&rows, low, high),
                "{protocol} rowids [{low},{high}) after reorganisation"
            );
        }
        assert!(idx.check_invariants(), "{protocol}");
    }
}

#[test]
fn delete_row_removes_exactly_one_tuple_among_duplicates() {
    for protocol in protocols() {
        // Three rows share value 42: rowids 1, 3, 4.
        let values = vec![7, 42, 9, 42, 42, 13];
        let idx = ConcurrentCracker::from_values(values, protocol);
        let (removed, m) = idx.delete_row(42, 3);
        assert_eq!(removed, 1, "{protocol}");
        assert_eq!(m.deletes_applied, 1);
        assert_eq!(
            idx.select_rowids(42, 43).0,
            vec![1, 4],
            "{protocol}: rows 1 and 4 survive"
        );
        assert_eq!(idx.count(42, 43).0, 2, "{protocol}");
        // Repeating the positional delete removes nothing further.
        assert_eq!(idx.delete_row(42, 3).0, 0, "{protocol}");
        // Deleting a (value, rowid) pair that does not exist is a no-op
        // (wrong value for the rowid, or absent rowid).
        assert_eq!(idx.delete_row(13, 3).0, 0, "{protocol}");
        assert_eq!(idx.delete_row(42, 99).0, 0, "{protocol}");
        assert_eq!(idx.logical_len(), 5, "{protocol}");
        assert!(idx.check_invariants(), "{protocol}");
    }
}

#[test]
fn delete_row_reaches_pending_rows_too() {
    let idx = ConcurrentCracker::from_values(shuffled(200), LatchProtocol::Piece);
    idx.insert_row(42, 7000);
    idx.insert_row(42, 7001);
    assert_eq!(idx.delete_row(42, 7000).0, 1, "pending row dies");
    let (rowids, _) = idx.select_rowids(42, 43);
    assert!(rowids.contains(&7001));
    assert!(!rowids.contains(&7000));
    // And the empty-main path: a fresh empty index with pending rows.
    let empty = ConcurrentCracker::from_values(vec![], LatchProtocol::Piece);
    empty.insert_row(5, 1);
    assert_eq!(empty.delete_row(5, 1).0, 1);
    assert_eq!(empty.logical_len(), 0);
}

#[test]
fn external_rowids_thread_through_every_reconciliation_path() {
    // A table engine assigns rowids; the cracker must carry them
    // through pending → hole-fill placement and pending → rebuild.
    let idx = ConcurrentCracker::from_rows(
        vec![10, 30, 20, 40],
        vec![100, 101, 102, 103],
        LatchProtocol::Piece,
    )
    .with_compaction(CompactionPolicy::rows(64).incremental(2));
    idx.sum(15, 35); // crack
    assert_eq!(idx.delete(20).0, 1, "row 102 dies");
    idx.insert_row(25, 500);
    idx.insert_row(12, 501);
    // Incremental step places the pending rows into the delete's hole
    // (budget permitting); a full rebuild merges the rest.
    idx.compact_step(8);
    idx.compact();
    assert_eq!(idx.select_rowids(0, 100).0, vec![100, 101, 103, 500, 501]);
    assert_eq!(idx.select_rowids(12, 26).0, vec![500, 501]);
    // Self-assigned ids continue above the externally assigned ones.
    idx.insert(60);
    let (rowids, _) = idx.select_rowids(60, 61);
    assert_eq!(rowids, vec![502], "next_rowid seeds past the max given id");
    assert!(idx.check_invariants());
}

#[test]
fn snapshot_rowid_reads_are_frozen_at_their_epoch() {
    for protocol in protocols() {
        let values = shuffled(1000);
        let rows: Vec<(i64, RowId)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as RowId))
            .collect();
        let idx = ConcurrentCracker::from_values(values.clone(), protocol)
            .with_compaction(CompactionPolicy::rows(8).incremental(2));
        idx.sum(0, 1000);
        let snap = idx.snapshot();
        // Post-snapshot churn: delete seeded rows, insert new ones,
        // force physical reconciliation under the pinned snapshot.
        for key in [100, 200, 300] {
            assert_eq!(idx.delete(key).0, 1);
            idx.insert_row(key, 5000 + key as RowId);
        }
        idx.compact_step(8);
        for (low, high) in [(0, 1000), (90, 310), (150, 250)] {
            assert_eq!(
                snap.rowids(low, high).0,
                rowid_oracle(&rows, low, high),
                "{protocol} pinned rowids [{low},{high})"
            );
        }
        // The live view sees the replacement rows.
        let (live, _) = idx.select_rowids(100, 101);
        assert_eq!(live, vec![5100], "{protocol}");
        drop(snap);
        assert_eq!(idx.live_snapshots(), 0, "{protocol}");
        assert!(idx.check_invariants(), "{protocol}");
    }
}

// ----- watermark-driven walk scheduling --------------------------------

#[test]
fn incremental_walk_reconciles_the_densest_piece_first() {
    // Two hot keys occur six times each. Deleting a key cracks out
    // its own piece (key interval [v, v+1), six dead slots); pending
    // re-inserts of the key then give that piece a measurable delta
    // density. Key 2500 gets six pending rows (density 1.0), key 100
    // one (density 1/6): a single walk step must reconcile the dense
    // piece and leave the sparse piece's delta untouched, even though
    // the round-robin cursor starts at position 0 (the sparse side).
    let mut values = shuffled(2000);
    values.extend(std::iter::repeat_n(100, 5)); // 100 now occurs 6x
    values.extend(std::iter::repeat_n(2500, 6));
    let idx = ConcurrentCracker::from_values(values, LatchProtocol::Piece);
    assert_eq!(idx.delete(100).0, 6, "six dead slots in [100, 101)");
    assert_eq!(idx.delete(2500).0, 6, "six dead slots in [2500, 2501)");
    idx.insert(100);
    for _ in 0..6 {
        idx.insert(2500);
    }
    assert_eq!(idx.delta.rows_in(Some(100), Some(101)), 1);
    assert_eq!(idx.delta.rows_in(Some(2500), Some(2501)), 6);
    idx.compact_step(1);
    assert_eq!(
        idx.delta.rows_in(Some(2500), Some(2501)),
        0,
        "densest piece reconciled first"
    );
    assert_eq!(
        idx.delta.rows_in(Some(100), Some(101)),
        1,
        "sparse piece untouched by the first step"
    );
    // The next step picks the remaining (now densest) piece.
    idx.compact_step(1);
    assert_eq!(idx.delta.rows_in(Some(100), Some(101)), 0);
    assert_eq!(idx.count(100, 101).0, 1);
    assert_eq!(idx.count(2500, 2501).0, 6);
    assert!(idx.check_invariants());
}

#[test]
fn split_off_partitions_rows_and_cracks_exactly() {
    for protocol in protocols() {
        let idx = ConcurrentCracker::from_values(shuffled(2000), protocol);
        // Refine, then dirty the delta so the handoff must reconcile it.
        idx.count(300, 700);
        idx.count(1200, 1600);
        idx.insert(150);
        idx.insert(1500);
        assert_eq!(idx.delete(10).0, 1);
        assert_eq!(idx.delete(1990).0, 1);
        let at = idx.median_crack_key().expect("cracks exist");
        assert!(at > i64::MIN);
        let (values, rowids, cracks) = idx.split_off(at);
        assert_eq!(values.len(), rowids.len());
        assert!(values.iter().all(|&v| v >= at), "moved rows all >= at");
        assert!(idx.snapshot_values().iter().all(|&v| v < at));
        for &(cv, pos) in &cracks {
            assert!(cv > at);
            assert!(pos <= values.len());
            assert!(values[..pos].iter().all(|&v| v < cv));
            assert!(values[pos..].iter().all(|&v| v >= cv));
        }
        assert!(idx.check_invariants());
        // Kept + moved together are exactly the logical contents.
        let mut all = idx.snapshot_values();
        all.extend_from_slice(&values);
        let expected: Vec<i64> = (0..2000)
            .filter(|&v| v != 10 && v != 1990)
            .chain([150, 1500])
            .collect();
        assert_eq!(all.tap_sorted(), expected.tap_sorted());
        assert_eq!(idx.pending_inserts(), 0, "delta reconciled by handoff");
        assert_eq!(idx.tombstoned_rows(), 0);

        // The receiving side answers queries identically.
        let moved_rows = values.len() as u64;
        let child = ConcurrentCracker::from_rows_with_cracks(values, rowids, &cracks, protocol);
        assert!(child.check_invariants());
        assert_eq!(child.count(0, 2000).0, moved_rows);
        assert_eq!(
            idx.count(0, 2000).0 + child.count(0, 2000).0,
            2000,
            "no row dropped or duplicated across the split"
        );
    }
}

#[test]
fn split_off_min_extracts_everything_and_absorb_reunites() {
    let a = ConcurrentCracker::from_values(shuffled(500), LatchProtocol::Piece);
    let b = ConcurrentCracker::from_rows(
        (500..1000).collect(),
        (500..1000).collect(),
        LatchProtocol::Piece,
    );
    a.count(100, 300);
    b.count(600, 800);
    b.insert(999);
    let (values, rowids, cracks) = b.split_off(i64::MIN);
    assert_eq!(values.len(), 501);
    assert!(b.is_empty(), "merge-away donor fully drained");
    a.absorb_upper(values, rowids, &cracks, 500);
    assert!(a.check_invariants());
    assert_eq!(a.count(0, 2000).0, 1001);
    assert_eq!(a.count(600, 800).0, 200);
    assert!(
        a.piece_count() > 3,
        "both sides' refinement survives the merge, got {}",
        a.piece_count()
    );
    // Row ids from the absorbed side stay unique for future inserts.
    a.insert(42);
    assert_eq!(a.count(42, 43).0, 2);
    assert!(a.check_invariants());
}

#[test]
fn refine_largest_piece_cracks_without_changing_contents() {
    let idx = ConcurrentCracker::from_values(shuffled(1024), LatchProtocol::Piece);
    assert_eq!(idx.piece_count(), 1);
    let refined = idx.refine_largest_piece(64);
    assert_eq!(refined, Some(1024), "the single piece is the largest");
    assert!(idx.piece_count() > 1, "refinement cracked it");
    assert!(idx.check_invariants());
    assert_eq!(idx.count(0, 1024).0, 1024);
    // Bound respected: nothing big enough left → None, structure
    // untouched.
    let before = idx.piece_count();
    assert_eq!(idx.refine_largest_piece(4096), None);
    assert_eq!(idx.piece_count(), before);
}

// ----- pivot policy ---------------------------------------------------------

/// Upper bound on the rows `crack_piece` partitions to resolve `bound`
/// right now: the piece's live rows, twice when the pivot policy may add
/// its pass (the second one runs over a part of the piece).
fn rows_to_resolve(idx: &ConcurrentCracker, bound: i64, floor: usize) -> usize {
    idx.dir.find(Target::Bound(bound)).map_or(0, |piece| {
        let live = idx.dir.live_end(&piece) - piece.start;
        live * if live > floor { 2 } else { 1 }
    })
}

#[test]
fn a_sequential_sweep_moves_geometrically_fewer_rows() {
    let (n, floor, queries) = (1usize << 16, 1usize << 10, 128usize);
    let values = shuffled(n);
    let stride = (n / queries) as i64;
    for protocol in protocols() {
        let idx = ConcurrentCracker::from_values(values.clone(), protocol).with_pivot_floor(floor);
        let mut partitioned = 0usize;
        for k in 0..queries as i64 {
            let (low, high) = (k * stride + stride / 4, k * stride + 3 * stride / 4);
            let mut metrics = QueryMetrics::default();
            for bound in [low, high] {
                partitioned += rows_to_resolve(&idx, bound, floor);
                idx.force_bound(bound, &mut metrics);
            }
            assert_eq!(
                idx.sum(low, high).0,
                ops::sum(&values, low, high),
                "{protocol} sweep [{low},{high})"
            );
        }
        assert!(idx.check_invariants(), "{protocol}");
        // Plain cracking re-partitions the whole remaining tail for every
        // bound (`queries * n` rows over the sweep); with the policy each
        // row takes part in about one pass per halving of its piece down
        // to the floor, plus the at-most-floor-sized passes of every query.
        let halvings = (n / floor).ilog2() as usize;
        assert!(
            partitioned <= 4 * n * halvings + queries * 2 * floor,
            "{protocol}: {partitioned} rows partitioned"
        );
        assert!(partitioned * 4 < queries * n, "{protocol}: {partitioned}");
        // Every bound is a crack, and at most one pivot crack rode along
        // with each.
        let cracks = idx.crack_count() as usize;
        assert!((2 * queries..=4 * queries).contains(&cracks), "{protocol}");
        assert_eq!(idx.piece_count(), cracks + 1, "{protocol}");
    }
}

#[test]
fn duplicate_columns_never_get_an_empty_sided_pivot_crack() {
    let floor = 64;
    let all_equal = vec![7i64; 4096];
    let two_values: Vec<i64> = (0..4096).map(|i| (i * 48271 % 4096) % 2).collect();
    for (values, distinct) in [(all_equal, 1), (two_values, 2)] {
        for protocol in protocols() {
            let idx =
                ConcurrentCracker::from_values(values.clone(), protocol).with_pivot_floor(floor);
            let bounds = [-3i64, 0, 1, 2, 5, 7, 8, 12];
            for _round in 0..2 {
                for (i, &low) in bounds.iter().enumerate() {
                    for &high in &bounds[i + 1..] {
                        assert_eq!(
                            idx.count(low, high).0,
                            ops::count(&values, low, high),
                            "{protocol} [{low},{high})"
                        );
                    }
                }
            }
            // Every crack is a query bound or separates two values that
            // both occur: nothing else was ever published.
            assert!(
                (idx.crack_count() as usize) < bounds.len() + distinct,
                "{protocol}: {} cracks",
                idx.crack_count()
            );
            let pieces = idx.dir.live_pieces();
            for pair in pieces.windows(2) {
                let pivot = pair[1].0.low_value.expect("a crack");
                if !bounds.contains(&pivot) {
                    assert!(
                        !pair[0].0.is_empty() && !pair[1].0.is_empty(),
                        "{protocol}: empty side at pivot crack {pivot}"
                    );
                }
            }
            assert!(idx.check_invariants(), "{protocol}");
        }
    }
}

#[test]
fn a_pivot_crack_of_a_piece_with_a_dead_tail_keeps_the_tail_on_top() {
    let (n, floor, doomed) = (4096usize, 256usize, [10i64, 2000, 4000]);
    let values = shuffled(n);
    // A bound far below any pivot the policy can pick, and one far above.
    for bound in [5i64, 4090] {
        for protocol in protocols() {
            let idx =
                ConcurrentCracker::from_values(values.clone(), protocol).with_pivot_floor(floor);
            // Delete, sweep: one big piece with a three-slot dead tail
            // and a watermark to inherit.
            for value in doomed {
                let rowid = values.iter().position(|&v| v == value).unwrap() as RowId;
                idx.delta.apply_delete(value, None, &[rowid], || true);
            }
            let whole = idx.dir.find(Target::Position(0)).unwrap();
            assert_eq!(idx.shrink_piece_locked(&whole), (n - 3, 3), "{protocol}");
            let through = idx.current_epoch();
            idx.dir.mark_compacted(0, through);
            // Then crack: pivot and bound, two splits, three pieces.
            let mut metrics = QueryMetrics::default();
            let pos = idx.force_bound(bound, &mut metrics);
            assert_eq!(metrics.cracks_performed, 2, "{protocol} bound {bound}");
            assert_eq!(idx.crack_count(), 2);
            let pieces = idx.dir.live_pieces();
            let [(low, low_live), (mid, mid_live), (top, top_live)] = pieces[..] else {
                panic!("{protocol} bound {bound}: {pieces:?}");
            };
            let pivot = if bound == 5 {
                top.low_value
            } else {
                mid.low_value
            };
            assert_ne!(pivot, Some(bound));
            assert!(pos == mid.start || pos == top.start);
            assert_eq!((low_live, mid_live), (low.end, mid.end), "{protocol}");
            assert_eq!((top.end, top_live), (n, n - 3), "{protocol}");
            let holes = [low, mid, top].map(|p| idx.dir.holes_in(p.start, p.end));
            assert_eq!(holes, [0, 0, 3], "{protocol} bound {bound}");
            assert_eq!(idx.compacted_through(), through, "{protocol}");
            assert_eq!(
                idx.hole_cracks_performed(),
                (bound == 4090) as u64 + 1,
                "{protocol}: every pass next to the tail used it"
            );
            let mut oracle = values.clone();
            oracle.retain(|v| !doomed.contains(v));
            for (low, high) in [(0, 4096), (bound, 4096), (0, bound), (1990, 2010)] {
                assert_eq!(idx.sum(low, high).0, ops::sum(&oracle, low, high));
                assert_eq!(idx.count(low, high).0, ops::count(&oracle, low, high));
            }
            assert!(idx.check_invariants(), "{protocol} bound {bound}");
        }
    }
}

/// Reads and writes at `i64::MIN` / `i64::MAX` — where the delete's
/// `value + 1` bound overflows — with the pivot policy cracking every
/// piece on the way: all must agree with a scan. The half-open `[low,
/// high)` can never select a key of `i64::MAX`, for the scan either.
#[test]
fn pivot_policy_survives_the_domain_edges() {
    for protocol in protocols() {
        let mut values: Vec<i64> = (0..500i64).map(|i| (i * 48271) % 500).collect();
        values.extend([i64::MAX, i64::MAX, i64::MIN, i64::MIN + 1, i64::MAX - 1]);
        let idx = ConcurrentCracker::from_values(values.clone(), protocol).with_pivot_floor(64);
        let agree = |values: &[i64]| {
            for (low, high) in [
                (i64::MIN, i64::MAX),
                (i64::MIN, i64::MIN + 2),
                (i64::MAX - 1, i64::MAX),
            ] {
                assert_eq!(idx.count(low, high).0, ops::count(values, low, high));
                assert_eq!(idx.sum(low, high).0, ops::sum(values, low, high));
            }
            assert_eq!(idx.logical_len(), values.len() as u64);
            assert!(idx.check_invariants(), "{protocol}");
        };
        agree(&values);
        for key in [i64::MAX, i64::MIN, i64::MAX] {
            idx.insert(key);
            values.push(key);
        }
        agree(&values);
        // 4 rows at the top (2 seeded + 2 inserted), 2 at the bottom, then
        // the edges again with nothing left, then their neighbours.
        for (key, doomed) in [
            (i64::MAX, 4),
            (i64::MIN, 2),
            (i64::MAX, 0),
            (i64::MIN + 1, 1),
            (i64::MAX - 1, 1),
        ] {
            assert_eq!(idx.delete(key).0, doomed, "{protocol} delete {key}");
            values.retain(|&v| v != key);
            agree(&values);
        }
        idx.insert(i64::MAX);
        values.push(i64::MAX);
        assert_eq!(
            idx.delete(i64::MAX).0,
            1,
            "re-insert after delete at the edge"
        );
        values.retain(|&v| v != i64::MAX);
        agree(&values);
        assert!(idx.crack_count() > 6, "{protocol}: the policy added cracks");
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

    /// Whatever the floor, the policy only ever adds cracks: answers equal
    /// a scan and the invariants hold after every query.
    #[test]
    fn pivot_policy_agrees_with_scan_under_random_floors(
        values in proptest::collection::vec(-400i64..400, 1..300),
        queries in proptest::collection::vec((-450i64..450, -450i64..450), 1..15),
        floor in 2usize..64,
        protocol in 0usize..3,
    ) {
        let idx = ConcurrentCracker::from_values(values.clone(), protocols()[protocol])
            .with_pivot_floor(floor);
        for (a, b) in queries {
            let (low, high) = (a.min(b), a.max(b));
            proptest::prop_assert_eq!(idx.count(low, high).0, ops::count(&values, low, high));
            proptest::prop_assert_eq!(idx.sum(low, high).0, ops::sum(&values, low, high));
            proptest::prop_assert!(idx.check_invariants());
        }
    }
}

trait TapSorted {
    fn tap_sorted(self) -> Self;
}
impl TapSorted for Vec<i64> {
    fn tap_sorted(mut self) -> Self {
        self.sort_unstable();
        self
    }
}
