use super::*;
use aidx_cracking::ops;
use std::collections::BTreeMap;
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
    let idx =
        ConcurrentCracker::from_values(values.clone(), LatchProtocol::Piece).with_crack_floor(0);
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
    assert_eq!(idx.piece_count(), 3);
    // Each read shows in the latch counts: one write latch for the first
    // count's two cracks, none for the positional counts' interiors, and
    // one read latch for the one piece the sum walks.
    let (_, m3) = idx.sum(100, 300);
    assert_eq!((m3.cracks_performed, m3.result_count), (0, 200));
    let stats = idx.latch_stats();
    assert_eq!((stats.write_acquisitions, stats.read_acquisitions), (1, 1));
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
    let idx = ConcurrentCracker::from_values(values, LatchProtocol::Piece).with_crack_floor(0);
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
    assert_eq!(
        probe.tombstoned_rows + probe.hole_rows,
        1,
        "the delete's row"
    );
    assert!(probe.piece_sizes.iter().all(|&size| size <= 100));
    // Per-piece latch attribution exists for the touched pieces, beside
    // the column latch's.
    assert!(idx.latch_attribution().len() > 1);
}

/// On a converged layout — ten pieces of 100 rows, cracked at build —
/// reads crack nothing and read-latch exactly the pieces they walk: every
/// piece of a sum's range, only the edge pieces of a count. The latch
/// totals rise by exactly that many read acquisitions per read, and the
/// per-piece attribution lists every latched piece with its own count.
#[test]
fn converged_reads_latch_exactly_the_pieces_they_walk() {
    let splits: Vec<i64> = (1..10).map(|k| k * 100).collect();
    let idx =
        ConcurrentCracker::from_values(shuffled(1000), LatchProtocol::Piece).with_cracks(&splits);
    // (low, high, sum, piece starts walked)
    let reads: [(i64, i64, bool, &[u64]); 6] = [
        (200, 500, true, &[200, 300, 400]),
        (250, 450, true, &[200, 300, 400]),
        (250, 450, false, &[200, 400]),
        (300, 400, false, &[]),
        (950, 2000, true, &[900]),
        (-5, 30, false, &[0]),
    ];
    let mut walked: BTreeMap<u64, u64> = BTreeMap::new();
    for (low, high, sum, pieces) in reads {
        let before = idx.latch_stats().read_acquisitions;
        let (low_in, high_in) = (low.clamp(0, 1000), high.clamp(0, 1000));
        let (answer, metrics) = if sum {
            idx.sum(low, high)
        } else {
            let (count, metrics) = idx.count(low, high);
            (count as i128, metrics)
        };
        let expected = if sum {
            (low_in..high_in).map(i128::from).sum()
        } else {
            i128::from(high_in - low_in)
        };
        assert_eq!(answer, expected, "[{low}, {high})");
        assert_eq!(metrics.cracks_performed, 0, "converged: no crack");
        let read = idx.latch_stats().read_acquisitions - before;
        assert_eq!(read, pieces.len() as u64, "[{low}, {high}) sum={sum}");
        for &start in pieces {
            *walked.entry(start).or_default() += 1;
        }
    }
    let stats = idx.latch_stats();
    assert_eq!(stats.read_acquisitions, walked.values().sum::<u64>());
    assert_eq!(stats.write_acquisitions + stats.total_conflicts(), 0);
    let attribution = idx.latch_attribution();
    let (column, pieces) = attribution.split_last().expect("the column latch");
    assert_eq!(column.0, TraceEvent::COLUMN_LATCH);
    let by_piece: BTreeMap<u64, u64> = pieces
        .iter()
        .map(|(start, s)| (*start, s.read_acquisitions))
        .collect();
    assert_eq!(by_piece, walked, "every latched piece, with its own count");
}

#[test]
fn latch_stats_reflect_activity() {
    let values = shuffled(1000);
    let idx = ConcurrentCracker::from_values(values, LatchProtocol::Piece).with_crack_floor(0);
    // Both bounds in the one piece: one write latch cracks both.
    let (_, m) = idx.sum(100, 900);
    assert_eq!(m.cracks_performed, 2);
    let stats = idx.latch_stats();
    assert_eq!(stats.write_acquisitions, 1);
    assert!(stats.read_acquisitions >= 1);
    // Bounds in two different pieces: one write latch each.
    let (_, m) = idx.sum(50, 950);
    assert_eq!(m.cracks_performed, 2);
    assert!(idx.latch_stats().write_acquisitions >= 3);
    let idx_col =
        ConcurrentCracker::from_values(shuffled(1000), LatchProtocol::Column).with_crack_floor(0);
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
        len += if is_insert {
            affected as isize
        } else {
            -(affected as isize)
        };
        assert_eq!(idx.logical_len() as isize, len, "{op:?}");
    }
    assert_eq!(idx.select_rowids(i64::MIN, i64::MAX).0, vec![0, 2]);
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
        assert_eq!(idx.len(), 2000 - 2 + 50, "{protocol}: 50 inserts merged");
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
        let mut reclaimed = 0;
        for doomed in [100, 101, 500] {
            let (removed, m) = idx.delete(doomed);
            assert_eq!(removed, 1, "{protocol}");
            reclaimed += m.rows_reclaimed;
        }
        assert_eq!(
            idx.tombstoned_rows(),
            0,
            "{protocol}: merge-on-crack reclaimed the tombstones"
        );
        assert_eq!(idx.hole_count(), 3, "{protocol}");
        assert_eq!(reclaimed, 3, "{protocol}: each swept row counted once");

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
        let snap = idx.pin();
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
        let snap = idx.pin();
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
        let snap = idx.pin();
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
    let s1 = idx.pin();
    idx.insert(100);
    let s2 = idx.pin();
    idx.insert(100);
    idx.delete(100); // removes the seeded row + both pending
    let s3 = idx.pin();
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
                    let snap = idx.pin();
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
#[should_panic(expected = "row-id space exhausted")]
fn self_assigned_rowid_past_the_max_panics_instead_of_wrapping() {
    let idx = ConcurrentCracker::from_rows(vec![10, 20], vec![0, RowId::MAX], LatchProtocol::Piece);
    idx.insert(30);
}

/// Build cracks assume the one piece of a fresh index: an index that has
/// been written to (or cracked) is refused, not silently mis-split.
#[test]
#[should_panic(expected = "build cracks go on an index as built")]
fn build_cracks_refuse_an_index_that_has_changed() {
    let idx = ConcurrentCracker::from_values(shuffled(100), LatchProtocol::Piece);
    idx.insert(5);
    let _ = idx.with_cracks(&[50]);
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
        let snap = idx.pin();
        // Post-snapshot churn: delete seeded rows, insert new ones,
        // force physical reconciliation under the pinned snapshot.
        for key in [100, 200, 300] {
            assert_eq!(idx.delete(key).0, 1);
            idx.insert_row(key, 5000 + key as RowId);
        }
        idx.compact_step(8);
        for (low, high) in [(0, 1000), (90, 310), (150, 250)] {
            assert_eq!(
                snap.select_rowids(low, high).0,
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
            let dead = idx.data.pairs_in_range(n - 3, n);
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
                idx.data.pairs_in_range(n - 3, n),
                dead,
                "{protocol} bound {bound}: no pass reads or writes the dead tail"
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

#[test]
fn a_candidates_read_keeps_the_bitmap_a_rowid_set_read_encodes() {
    // One qualifying row per ~100 row ids: scattered into a bitmap, which
    // costs more than the sorted vector, so compaction walks it into one.
    let n = 64_000;
    let (low, high) = (0, n as i64 / 100);
    for protocol in protocols() {
        let idx = ConcurrentCracker::from_values(shuffled(n), protocol);
        let candidates = idx
            .read(low, high, None, ReadShape::Candidates)
            .0
            .into_set();
        let (compact, metrics) = idx.select_rowid_set(low, high);
        assert!(candidates.is_bitmap(), "{protocol}: the scattered bitmap");
        assert!(!compact.is_bitmap(), "{protocol}: a sorted vector");
        assert_eq!(candidates.len(), n / 100);
        assert_eq!(candidates, compact, "{protocol}");
        assert_eq!(compact.heap_bytes(), 4 * compact.len(), "{protocol}");
        assert_eq!(metrics.candidate_set_bytes, compact.heap_bytes() as u64);
        // The compacted set is the flat answer, now and through a pin
        // taken before a delete and an insert in the range.
        let before = idx.select_rowids(low, high).0;
        let pin = idx.pin();
        idx.write(WriteOp::Delete { value: low + 7 });
        idx.write(WriteOp::Insert {
            value: low + 9,
            rowid: 10 * n as RowId,
        });
        let now = idx.select_rowids(low, high).0;
        assert_ne!(now, before, "{protocol}");
        assert_eq!(idx.select_rowid_set(low, high).0.to_vec(), now);
        assert_eq!(pin.select_rowids(low, high).0, before, "{protocol}");
        assert_eq!(pin.select_rowid_set(low, high).0.to_vec(), before);
    }
}

// ----- crack floor ----------------------------------------------------------

const SHAPES: [ReadShape<'static>; 5] = [
    ReadShape::Count,
    ReadShape::Sum,
    ReadShape::RowIds,
    ReadShape::Candidates,
    ReadShape::KeyRuns,
];

/// True if `answer`, a `shape` read of `[low, high)`, is what the oracle's
/// `(key, rowid)` rows give.
fn answers_like_the_oracle(
    shape: ReadShape<'_>,
    answer: ReadAnswer,
    rows: &[(i64, RowId)],
    low: i64,
    high: i64,
) -> bool {
    let mut hits: Vec<(i64, RowId)> = rows
        .iter()
        .copied()
        .filter(|&(v, _)| v >= low && v < high)
        .collect();
    hits.sort_unstable();
    let mut ids: Vec<RowId> = hits.iter().map(|&(_, rowid)| rowid).collect();
    ids.sort_unstable();
    match shape {
        ReadShape::Count => answer.into_agg() == hits.len() as i128,
        ReadShape::Sum => answer.into_agg() == hits.iter().map(|&(v, _)| v as i128).sum::<i128>(),
        ReadShape::RowIds => answer.into_rowids() == ids,
        // What `select_rowid_set` returns is the set compacted.
        ReadShape::Candidates => {
            let set = answer.into_set();
            set.to_vec() == ids && set.compact().to_vec() == ids
        }
        ReadShape::Within(filter) => {
            ids.retain(|&id| filter.contains(id));
            answer.into_set().to_vec() == ids
        }
        ReadShape::KeyRuns => answer.into_runs().into_sorted_pairs() == hits,
    }
}

/// True if a read resolving `bound` now meets a crack or a piece of at most
/// `floor` rows — a bound the read must not crack.
fn bound_at_or_below_floor(idx: &ConcurrentCracker, bound: i64, floor: usize) -> bool {
    !idx.dir
        .find(Target::Bound(bound))
        .is_ok_and(|piece| piece.len() > floor)
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

    /// The crack floor changes where reads crack, never what they answer:
    /// for floors of 0, 7, 64 and the production floor, under every latch
    /// protocol and refinement policy, every read shape — now and through a
    /// snapshot pinned mid-stream — agrees with a sorted-`Vec` oracle
    /// across inserts and deletes, and a read whose two bounds both fall in
    /// pieces at or below the floor cracks nothing.
    #[test]
    fn crack_floor_reads_agree_with_a_sorted_oracle(
        values in proptest::collection::vec(-2000i64..2000, 0..4096),
        // (kind, shape, a, b): kind 0 inserts `a`, 1 deletes `a`, any
        // other reads `[min, max)` of `a` and `b` in `SHAPES[shape]`.
        ops in proptest::collection::vec((0u8..8, 0usize..SHAPES.len(), -2100i64..2100, -2100i64..2100), 1..40),
        floor in 0usize..4,
        protocol in 0usize..3,
        skip in proptest::prelude::any::<bool>(),
        pin_at in 0usize..40,
    ) {
        let floor = [0, 7, 64, ConcurrentCracker::CRACK_FLOOR][floor];
        let policy = if skip {
            RefinementPolicy::SkipOnContention
        } else {
            RefinementPolicy::Always
        };
        let idx = ConcurrentCracker::from_values(values.clone(), protocols()[protocol])
            .with_policy(policy)
            .with_crack_floor(floor);
        let mut rows: Vec<(i64, RowId)> =
            values.iter().enumerate().map(|(i, &v)| (v, i as RowId)).collect();
        let mut next_rowid = rows.len() as RowId;
        let mut pinned: Option<(u64, Vec<(i64, RowId)>)> = None;
        for (step, (kind, shape, a, b)) in ops.into_iter().enumerate() {
            if step == pin_at {
                pinned = Some((idx.register_snapshot_epoch(), rows.clone()));
            }
            match kind {
                0 => {
                    idx.write(WriteOp::Insert { value: a, rowid: next_rowid });
                    rows.push((a, next_rowid));
                    next_rowid += 1;
                }
                1 => {
                    let before = rows.len();
                    rows.retain(|&(v, _)| v != a);
                    let (removed, _) = idx.write(WriteOp::Delete { value: a });
                    proptest::prop_assert_eq!(removed, (before - rows.len()) as u64);
                }
                _ => {
                    let (shape, low, high) = (SHAPES[shape], a.min(b), a.max(b));
                    let frozen = pinned.as_ref().map(|(epoch, rows)| (Some(*epoch), rows));
                    for (at, oracle) in [(None, &rows)].into_iter().chain(frozen) {
                        let uncracked = bound_at_or_below_floor(&idx, low, floor)
                            && bound_at_or_below_floor(&idx, high, floor);
                        let pieces = idx.piece_count();
                        let (answer, metrics) = idx.read(low, high, at, shape);
                        proptest::prop_assert!(
                            answers_like_the_oracle(shape, answer, oracle, low, high),
                            "{:?} [{}, {}) at {:?}", shape, low, high, at
                        );
                        if uncracked {
                            proptest::prop_assert_eq!(metrics.cracks_performed, 0);
                            proptest::prop_assert_eq!(idx.piece_count(), pieces);
                        }
                    }
                }
            }
        }
        if let Some((epoch, _)) = pinned {
            idx.release_snapshot_epoch(epoch);
        }
        proptest::prop_assert!(idx.check_invariants());
    }
}

/// Every read shape on a converged `Piece` cracker whose directory spans
/// dozens of leaves agrees with a scan and cracks nothing, with bounds at
/// crack values, inside empty pieces, and in the first and last piece of
/// every leaf — so narrow reads cross leaf edges, and wide ones take
/// several span batches.
#[test]
fn read_shapes_on_a_multi_leaf_directory_agree_with_a_scan() {
    // Keys are multiples of 4, so `[80 i + 1, 80 i + 3)` holds none: a
    // left-to-right sweep cracks each bound in the uncracked tail (a high
    // bound of `i64::MAX` is never cracked), which leaves an empty piece
    // there and pieces of 5 to 10 rows elsewhere.
    let values: Vec<i64> = shuffled(6000).into_iter().map(|v| 4 * v).collect();
    let rows: Vec<(i64, RowId)> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as RowId))
        .collect();
    let idx = ConcurrentCracker::from_values(values, LatchProtocol::Piece).with_crack_floor(16);
    for base in (0..24_000).step_by(80) {
        for low in [1, 3, 21, 61] {
            idx.count(base + low, i64::MAX);
        }
    }
    let edges = idx.dir.leaf_edges();
    assert!(edges.len() > 20, "{} leaves", edges.len());
    // Crack values, and keys inside empty pieces: `80 i + 2`.
    let mut bounds: Vec<i64> = (2..24_000).step_by(80 * 7).collect();
    bounds.extend([1, 3, 21, 61, 24_001]);
    for (first, last) in edges {
        for piece in [first, last] {
            let low = piece.low_value.unwrap_or(i64::MIN);
            let high = piece.high_value.unwrap_or(i64::MAX);
            bounds.extend([low, low.saturating_add(1), high.saturating_sub(1)]);
        }
    }
    bounds.sort_unstable();
    bounds.dedup();
    let empty = |bound: i64| {
        let piece = idx.dir.find(Target::Bound(bound));
        piece.is_ok_and(|piece| piece.is_empty())
    };
    assert!(bounds.iter().filter(|&&bound| empty(bound)).count() > 40);
    let pieces = idx.piece_count();
    // Neighbouring bounds, and ranges reaching across a few leaves.
    let pairs = bounds.windows(2).map(|w| (w[0], w[1]));
    let wide = bounds
        .iter()
        .zip(bounds.iter().skip(17))
        .map(|(&l, &h)| (l, h));
    for (low, high) in pairs.chain(wide) {
        for shape in SHAPES {
            let (answer, metrics) = idx.read(low, high, None, shape);
            assert!(
                answers_like_the_oracle(shape, answer, &rows, low, high),
                "{shape:?} [{low}, {high})"
            );
            assert_eq!(metrics.cracks_performed, 0, "{shape:?} [{low}, {high})");
        }
    }
    assert_eq!(idx.piece_count(), pieces);
    assert!(idx.check_invariants());
}

// ----- bounds that share a piece --------------------------------------------

/// A read over the whole key domain of an uncracked column cracks nothing:
/// no key lies below `i64::MIN`, and `[low, i64::MAX)` only leaves out the
/// keys of `i64::MAX`, which the walk filters from the one piece.
#[test]
fn a_full_domain_read_cracks_nothing() {
    let mut values: Vec<i64> = shuffled(19_996)
        .into_iter()
        .map(|v| v * 7 - 70_000)
        .collect();
    values.splice(5_000..5_000, [i64::MIN, i64::MAX]);
    values.splice(12_000..12_000, [i64::MAX, i64::MIN]);
    assert_eq!(values.len(), 20_000);
    let rows: Vec<(i64, RowId)> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as RowId))
        .collect();
    for protocol in protocols() {
        let idx = ConcurrentCracker::from_values(values.clone(), protocol);
        for shape in [ReadShape::Count, ReadShape::Sum, ReadShape::RowIds] {
            let (answer, metrics) = idx.read(i64::MIN, i64::MAX, None, shape);
            assert!(
                answers_like_the_oracle(shape, answer, &rows, i64::MIN, i64::MAX),
                "{protocol} {shape:?}"
            );
            assert_eq!(metrics.cracks_performed, 0, "{protocol} {shape:?}");
            assert_eq!(idx.piece_count(), 1, "{protocol} {shape:?}");
        }
        assert!(idx.check_invariants(), "{protocol}");
    }
}

/// The rows of every crack pass traced during `read`, in pass order, as
/// `(crack value, rows)`, keeping only passes at `bounds`. Tracing is
/// process-wide, so the caller's bounds must be values no other test
/// cracks at.
fn traced_passes(read: impl FnOnce(), bounds: [i64; 2]) -> Vec<(i64, u64)> {
    aidx_obs::drain();
    aidx_obs::enable();
    read();
    aidx_obs::disable();
    aidx_obs::drain()
        .into_iter()
        .filter_map(|record| match record.event {
            TraceEvent::Crack { pivot, rows, .. } if bounds.contains(&pivot) => Some((pivot, rows)),
            _ => None,
        })
        .collect()
}

/// Two bounds in one big piece: the first pass runs over the whole piece,
/// the second only over the side the first crack leaves the other bound.
/// Bounds at the low end crack `high` first, so the second pass covers at
/// most the rows below `high`; bounds at the high end crack `low` first,
/// so it covers at most the rows at or above `low`. A second bound whose
/// side is at or below the crack floor is not cracked at all.
#[test]
fn a_read_cracks_first_the_bound_that_leaves_the_shorter_second_pass() {
    // Keys far from every other test's, so only this test's passes match.
    const BASE: i64 = 7_340_000_000;
    let n = 20_000u64;
    let values: Vec<i64> = shuffled(n as usize).into_iter().map(|v| BASE + v).collect();
    for protocol in protocols() {
        // (low, high, the bound cracked first, the rows the second pass
        // may cover; none if that side is at or below the floor)
        for (low, high, first, second_rows) in [
            (1_000, 2_000, 2_000, Some(2_000)),
            (18_000, 19_000, 18_000, Some(2_000)),
            (100, 600, 600, None),
            (19_400, 19_900, 19_400, None),
        ] {
            let (low, high, first) = (BASE + low, BASE + high, BASE + first);
            let idx = ConcurrentCracker::from_values(values.clone(), protocol);
            let mut read = (0, QueryMetrics::default());
            let passes = traced_passes(|| read = idx.count(low, high), [low, high]);
            let what = format!("{protocol} [{low}, {high}): passes {passes:?}");
            assert_eq!(read.0, (high - low) as u64, "{what}");
            assert_eq!(passes.first(), Some(&(first, n)), "{what}");
            match second_rows {
                Some(most) => assert!(passes.len() == 2 && passes[1].1 <= most, "{what}"),
                None => assert_eq!(passes.len(), 1, "{what}"),
            }
            assert_eq!(read.1.cracks_performed as usize, passes.len(), "{what}");
            // One write latch for both bounds (none without latches).
            let latched = u64::from(protocol != LatchProtocol::None);
            assert_eq!(idx.latch_stats().write_acquisitions, latched, "{what}");
            assert!(idx.check_invariants(), "{what}");
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

    /// A read whose two bounds share a piece resolves both under one write
    /// access in one crack call. Over columns with duplicates, crack floors
    /// of 0, 7, 64 and the production floor, a small and the production
    /// pivot floor, every latch protocol and both refinement policies, such
    /// a read answers like a sorted oracle, leaves each bound it cracks
    /// where a forced crack of that bound puts it on a twin column, and
    /// keeps the invariants.
    #[test]
    fn a_read_whose_bounds_share_a_piece_cracks_them_where_forced_bounds_land(
        values in proptest::collection::vec(-300i64..300, 0..3000),
        reads in proptest::collection::vec((0usize..SHAPES.len(), -320i64..320, -320i64..320), 1..12),
        floor in 0usize..4,
        small_pivot in proptest::prelude::any::<bool>(),
        protocol in 0usize..3,
        skip in proptest::prelude::any::<bool>(),
    ) {
        let floor = [0, 7, 64, ConcurrentCracker::CRACK_FLOOR][floor];
        let pivot_floor = if small_pivot { 64 } else { ConcurrentCracker::PIVOT_FLOOR };
        let policy = if skip {
            RefinementPolicy::SkipOnContention
        } else {
            RefinementPolicy::Always
        };
        let protocol = protocols()[protocol];
        let idx = ConcurrentCracker::from_values(values.clone(), protocol)
            .with_policy(policy)
            .with_crack_floor(floor)
            .with_pivot_floor(pivot_floor);
        let twin = ConcurrentCracker::from_values(values.clone(), protocol)
            .with_pivot_floor(pivot_floor);
        let rows: Vec<(i64, RowId)> =
            values.iter().enumerate().map(|(i, &v)| (v, i as RowId)).collect();
        for (shape, a, b) in reads {
            let (shape, low, high) = (SHAPES[shape], a.min(b), a.max(b));
            let shared = idx.dir.find(Target::Bound(low)).is_ok_and(|piece| {
                low < high && high != i64::MAX && piece.high_value.is_none_or(|hv| high < hv)
            });
            let (answer, _) = idx.read(low, high, None, shape);
            proptest::prop_assert!(
                answers_like_the_oracle(shape, answer, &rows, low, high),
                "{:?} [{}, {})", shape, low, high
            );
            proptest::prop_assert!(idx.check_invariants());
            if !shared {
                continue;
            }
            for bound in [low, high] {
                if let Err(AlreadyCrack(pos)) = idx.dir.find(Target::Bound(bound)) {
                    let forced = twin.force_bound(bound, &mut QueryMetrics::default());
                    proptest::prop_assert_eq!(pos, forced, "bound {} of [{}, {})", bound, low, high);
                }
            }
        }
        proptest::prop_assert!(twin.check_invariants());
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
