//! The permanent concurrency-scenario suite.
//!
//! Two kinds of scenario live here:
//!
//! * **Real-code models** — the actual `ConcurrentCracker` (plain and
//!   range-partitioned), `OrderedWaitLatch` and
//!   `TableEngine` run on virtual threads. This works because `aidx-core`
//!   and `aidx-table` are built with
//!   the `check` feature in this crate's test graph, so every facade lock
//!   the production code takes routes through the scheduler — and so does
//!   the shrink-epoch seqlock, whose
//!   `AtomicU64` comes from the same facade and whose reader waits for an
//!   in-flight reclamation on `shrink_serial` instead of spinning, so the
//!   real delete path is explorable too.
//! * **Protocol mini-models** — hand-written reductions of the cracker's
//!   trickiest protocols (seqlock select-vs-shrink, bounded-retry
//!   reclaim-pause, incremental compaction vs snapshots, delete-vs-sweep
//!   tombstone accounting). Each has a
//!   correct variant that must survive *every* schedule and a deliberately
//!   buggy "teeth" variant that the explorer must catch — proving the suite
//!   would notice a regression in the real protocol, not just rubber-stamp
//!   it.
//!
//! One of the mini-models ports a protocol this codebase defends: the
//! bounded-retry reclaim-pause drain.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use aidx_check::sync::{
    yield_now, CheckedAtomicU64, CheckedAtomicUsize, CheckedCondvar, CheckedMutex,
};
use aidx_check::{explore, explore_default, ExploreConfig, Scenario};
use aidx_core::{
    ColumnRead, CompactionPolicy, ConcurrentCracker, LatchProtocol, ReadShape, RowIdSet, WriteOp,
};
use aidx_latch::ordered::OrderedWaitLatch;
use aidx_table::{ColumnPredicate, TableBackend, TableEngine, TableOp};

fn capped(max_schedules: usize) -> ExploreConfig {
    ExploreConfig {
        max_schedules,
        max_steps: 20_000,
        preemption_bound: None,
    }
}

// ---------------------------------------------------------------------------
// Real cracker under the model
// ---------------------------------------------------------------------------

/// Rows per listed value in the real-code scenarios that must crack: a read
/// cracks no piece of at most 1 024 rows, so each listed value `v` becomes
/// the distinct run `v·K … v·K+K−1`, and every piece such a scenario
/// cracks holds whole runs — more than the floor.
const K: i64 = 1_280;

/// `values` with each value `v` stretched into the run `v·K … v·K+K−1`.
fn stretched(values: &[i64]) -> Vec<i64> {
    values.iter().flat_map(|&v| v * K..(v + 1) * K).collect()
}

/// ISSUE scenario 1 — crack-vs-crack on one column. Two crack selects with
/// overlapping bounds run on virtual threads against the *real*
/// `ConcurrentCracker`; every explored interleaving of their latch
/// acquisitions must produce exact counts and leave the column intact.
///
/// This is also the "≥ 1000 distinct schedules" acceptance gate: the
/// per-piece latch protocol has enough decision points that full DFS blows
/// well past a thousand schedules before the cap.
#[test]
fn real_cracker_crack_vs_crack_explored() {
    let column = stretched(&[9, 3, 7, 1, 8, 2, 6, 4]);
    let rows = column.len() as u64;
    let oracle = |lo: i64, hi: i64| column.iter().filter(|&&v| v >= lo && v < hi).count() as u64;
    let (e1, e2) = (oracle(2 * K, 6 * K), oracle(5 * K, 9 * K));
    let report = explore(capped(1200), move || {
        let idx = Arc::new(ConcurrentCracker::from_values(
            column.clone(),
            LatchProtocol::Piece,
        ));
        let a = Arc::clone(&idx);
        let b = Arc::clone(&idx);
        Scenario::new()
            .thread(move || {
                let (n, _) = a.count(2 * K, 6 * K);
                assert_eq!(n, e1, "crack select [2K,6K) returned a wrong count");
            })
            .thread(move || {
                let (n, _) = b.count(5 * K, 9 * K);
                assert_eq!(n, e2, "crack select [5K,9K) returned a wrong count");
            })
            .finale(move || {
                let (n, _) = idx.count(i64::MIN, i64::MAX);
                assert_eq!(n, rows, "rows lost or duplicated by cracking");
                assert!(
                    idx.piece_count() >= 2,
                    "both selects finished without cracking"
                );
            })
    });
    report.assert_ok();
    assert!(
        report.schedules >= 1000,
        "expected >= 1000 distinct schedules, explored {}",
        report.schedules
    );
}

/// Crack select racing an insert: the count must be atomic — it sees the
/// delta row or it doesn't, and afterwards the row is durably there.
#[test]
fn real_cracker_count_vs_insert_linearises() {
    let report = explore(capped(800), move || {
        let idx = Arc::new(ConcurrentCracker::from_values(
            vec![1, 2, 3, 4],
            LatchProtocol::Piece,
        ));
        let a = Arc::clone(&idx);
        let b = Arc::clone(&idx);
        Scenario::new()
            .thread(move || {
                a.insert(2);
            })
            .thread(move || {
                let (n, _) = b.count(0, 10);
                assert!(
                    n == 4 || n == 5,
                    "count racing one insert must see 4 or 5 rows, saw {n}"
                );
            })
            .finale(move || {
                let (n, _) = idx.count(0, 10);
                assert_eq!(n, 5, "insert lost after both operations completed");
            })
    });
    report.assert_ok();
}

/// The empty-delta fast path on the real cracker: a read whose delta
/// mirror reads 0 inside its seqlock window answers from the main array
/// alone, without the delta lock. The `sum` races a client that inserts
/// the first row into the empty delta and then deletes a main-array row —
/// the delete raises a tombstone and its own sweep retires it at once,
/// moving the row out of the main array and taking the delta back down to
/// the one pending insert. Every schedule must give a sum the column had
/// at some instant — before the insert, between the two writes, or after
/// both — and the explored schedules must include the fast path's answer
/// (before the insert) and both later ones. A mirror read before the
/// window opens, on a schedule where both writes land in between, would
/// pair the swept main array with the empty delta it saw: a sum with the
/// delete and without the insert, which the column never had.
#[test]
fn real_empty_delta_fast_path_vs_first_insert_and_sweeping_delete_linearises() {
    const INSERTED: i64 = 5;
    const DELETED: i64 = 3;
    let before: i128 = 1 + 2 + 3 + 4;
    let between = before + i128::from(INSERTED);
    let after = between - i128::from(DELETED);
    let seen = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let seen_in = Arc::clone(&seen);
    let one_preemption = ExploreConfig {
        preemption_bound: Some(1),
        ..capped(5_000)
    };
    let report = explore(one_preemption, move || {
        let idx = Arc::new(ConcurrentCracker::from_values(
            vec![1, 2, 3, 4],
            LatchProtocol::Piece,
        ));
        let (reader, writer, seen) = (Arc::clone(&idx), Arc::clone(&idx), Arc::clone(&seen_in));
        Scenario::new()
            .thread(move || {
                let (sum, _) = reader.sum(0, 10);
                let outcome = [before, between, after].iter().position(|&s| s == sum);
                let outcome = outcome.unwrap_or_else(|| {
                    panic!("sum {sum} racing insert-then-delete is no state of the column")
                });
                seen.fetch_or(1 << outcome, Ordering::SeqCst);
            })
            .thread(move || {
                writer.insert(INSERTED);
                let (removed, _) = writer.write(WriteOp::Delete { value: DELETED });
                assert_eq!(removed, 1, "the main row of key 3 is deleted");
            })
            .finale(move || {
                assert_eq!(idx.sum(0, 10).0, after, "a write lost");
                assert_eq!(idx.delta_rows(), 1, "the sweep retired the tombstone");
                assert_eq!(idx.hole_count(), 1, "the swept row left a hole");
                assert!(idx.check_invariants());
            })
    });
    report.assert_ok();
    assert!(report.exhausted, "one preemption fits under the cap");
    let seen = seen.load(Ordering::SeqCst);
    assert_eq!(
        seen, 0b111,
        "every state must be read on some schedule, saw {seen:#b}"
    );
}

/// The real delete path — `write(WriteOp::Delete)`: bound cracks, the
/// seqlock window, the validated delta applier, the reclaiming piece
/// shrink — racing a `Sum` on a two-piece cracker whose key `5K` occurs
/// twice (the listed 5 appears twice, stretched). The sum's piece walk
/// and its delta view are taken under different locks, and the delete's
/// shrink moves the doomed rows from one domain to the other in between;
/// every schedule must see the whole delete or none of it, and both
/// outcomes must occur (the sum is the first thread, so the schedules
/// nearest the default one preempt it mid-read and send it through the
/// seqlock retry).
#[test]
fn real_cracker_delete_vs_sum_is_atomic() {
    let column = stretched(&[5, 1, 7, 3, 5, 9]);
    let rows = column.len() as u64;
    let all_sum: i128 = column.iter().map(|&v| v as i128).sum();
    let doomed = 2 * (5 * K) as i128;
    let saw_none = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let saw_all = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let (none, all) = (Arc::clone(&saw_none), Arc::clone(&saw_all));
    let report = explore(capped(1500), move || {
        let idx = Arc::new(ConcurrentCracker::from_values(
            column.clone(),
            LatchProtocol::Piece,
        ));
        idx.count(i64::MIN, 5 * K); // two pieces: < 5K and >= 5K
        assert_eq!(idx.piece_sizes(), [2 * K as u64, 4 * K as u64]);
        let a = Arc::clone(&idx);
        let b = Arc::clone(&idx);
        let (none, all) = (Arc::clone(&none), Arc::clone(&all));
        Scenario::new()
            .thread(move || {
                let (sum, _) = a.sum(0, 10 * K);
                match all_sum - sum {
                    0 => none.store(true, Ordering::SeqCst),
                    gone if gone == doomed => all.store(true, Ordering::SeqCst),
                    _ => panic!("sum racing the delete saw half of it: {sum}"),
                }
            })
            .thread(move || {
                let (removed, _) = b.write(WriteOp::Delete { value: 5 * K });
                assert_eq!(removed, 2, "both rows of key 5K are deleted");
            })
            .finale(move || {
                assert_eq!(idx.sum(0, 10 * K).0, all_sum - doomed, "delete lost");
                assert_eq!(idx.count(i64::MIN, i64::MAX).0, rows - 2);
                assert_eq!(
                    idx.tombstoned_rows(),
                    0,
                    "the shrink retired the tombstones"
                );
                assert!(idx.check_invariants());
            })
    });
    report.assert_ok();
    assert!(
        saw_none.load(Ordering::SeqCst) && saw_all.load(Ordering::SeqCst),
        "the explored schedules must include a sum on either side of the delete"
    );
}

/// The delta's record lifecycle on the real cracker: `write(WriteOp::
/// DeleteRow)` — tombstone, sweep, `Main → Delta` retirement — racing a
/// `Count` and a `RowIds` read pinned at an epoch registered *before* the
/// delete. Whichever state the doomed row's record is in when a read
/// takes its delta view — not recorded yet, a tombstone (hidden from
/// current readers, nothing to a pinned one), or retired (an extra row
/// for the pinned one) — both folds must give the pre-delete answer, and
/// once the epoch is released the record must be gone and the delta
/// consistent with the array. Full DFS under the cap only ever varies the
/// tail of the first thread, so the exploration is bounded to one
/// preemption instead and covers every such schedule: with the deleting
/// thread first the reads start at each step of the delete and meet all
/// three states; with the reading thread first the whole delete lands
/// inside a read's seqlock window and sends it through the retry.
#[test]
fn real_cracker_delete_row_vs_pinned_reads_keeps_the_snapshot() {
    const VALUES: [i64; 6] = [5, 1, 7, 3, 5, 9];
    let states_met = Arc::new(std::sync::atomic::AtomicU64::new(0));
    for reads_first in [false, true] {
        let met = Arc::clone(&states_met);
        let one_preemption = ExploreConfig {
            preemption_bound: Some(1),
            ..capped(1500)
        };
        let report = explore(one_preemption, move || {
            let idx = Arc::new(ConcurrentCracker::from_values(
                VALUES.to_vec(),
                LatchProtocol::Piece,
            ));
            let epoch = idx.register_snapshot_epoch();
            let (a, b, met) = (Arc::clone(&idx), Arc::clone(&idx), Arc::clone(&met));
            let delete = move || {
                let (removed, _) = a.write(WriteOp::DeleteRow { value: 5, rowid: 0 });
                assert_eq!(removed, 1, "row 0 carries key 5");
            };
            let reads = move || {
                // Bit 0: no record yet, bit 1: tombstone, bit 2: retired.
                let state = b.tombstoned_rows() + 2 * b.hole_count() as u64;
                let (count, counted) = b.read(0, 10, Some(epoch), ReadShape::Count);
                let (rows, listed) = b.read(0, 10, Some(epoch), ReadShape::RowIds);
                assert_eq!(count.into_agg(), 6, "pinned count saw the later delete");
                assert_eq!(rows.into_rowids(), [0, 1, 2, 3, 4, 5]);
                let retried = counted.snapshot_retries + listed.snapshot_retries > 0;
                met.fetch_or(1 << state | (retried as u64) << 3, Ordering::SeqCst);
            };
            let threads = if reads_first {
                Scenario::new().thread(reads).thread(delete)
            } else {
                Scenario::new().thread(delete).thread(reads)
            };
            threads.finale(move || {
                let pinned = idx.read(0, 10, Some(epoch), ReadShape::Count).0;
                assert_eq!(pinned.into_agg(), 6);
                idx.release_snapshot_epoch(epoch);
                assert_eq!(idx.select_rowids(0, 10).0, [1, 2, 3, 4, 5]);
                assert_eq!(
                    (idx.tombstoned_rows(), idx.hole_count()),
                    (0, 1),
                    "the delete's own sweep reclaimed the row"
                );
                assert!(idx.check_invariants());
            })
        });
        report.assert_ok();
        assert!(report.exhausted, "one preemption fits under the cap");
    }
    assert_eq!(
        states_met.load(Ordering::SeqCst),
        0b1111,
        "reads must meet the record absent, tombstoned and retired, and retry once"
    );
}

/// A pinned `Within` read on the real cracker, the table planner's filter
/// read. The column holds a pending insert from before the pin whose row
/// id the filter does not hold; once the epoch is registered, a writer
/// inserts a row whose key is in the read's range and whose row id the
/// filter holds, then deletes a seed row the filter holds. Whatever state
/// the delta is in when the read takes its view — the insert pending or
/// not yet recorded, the deleted row live, tombstoned or retired into a
/// ghost — the pinned answer is exactly the epoch's rows that the filter
/// holds: the later insert is invisible, the deleted row is kept, and the
/// earlier pending insert, an extra row of the delta, is dropped because
/// the filter does not hold it. Afterwards a current `Within` read sees
/// both writes. One preemption, exhaustively, with either thread first.
#[test]
fn real_pinned_within_read_keeps_the_epochs_filtered_rows() {
    const VALUES: [i64; 6] = [5, 1, 7, 3, 5, 9];
    let states_met = Arc::new(std::sync::atomic::AtomicU64::new(0));
    for reads_first in [false, true] {
        let met = Arc::clone(&states_met);
        let one_preemption = ExploreConfig {
            preemption_bound: Some(1),
            ..capped(3000)
        };
        let report = explore(one_preemption, move || {
            let idx = Arc::new(ConcurrentCracker::from_values(
                VALUES.to_vec(),
                LatchProtocol::Piece,
            ));
            idx.insert_row(4, 10);
            let epoch = idx.register_snapshot_epoch();
            let filter = Arc::new(RowIdSet::from_sorted(&[0, 1, 3, 11]));
            let (a, b, f) = (Arc::clone(&idx), Arc::clone(&idx), Arc::clone(&filter));
            let met = Arc::clone(&met);
            let writes = move || {
                a.insert_row(6, 11);
                let (removed, _) = a.write(WriteOp::DeleteRow { value: 5, rowid: 0 });
                assert_eq!(removed, 1, "row 0 carries key 5");
            };
            let read = move || {
                // Bit 0: row 0 live, bit 1: tombstoned, bit 2: retired.
                let state = b.tombstoned_rows() + 2 * b.hole_count() as u64;
                let (rows, _) = b.read(0, 10, Some(epoch), ReadShape::Within(&f));
                assert_eq!(
                    rows.into_set().to_vec(),
                    [0, 1, 3],
                    "the epoch's filtered rows"
                );
                met.fetch_or(1 << state, Ordering::SeqCst);
            };
            let threads = if reads_first {
                Scenario::new().thread(read).thread(writes)
            } else {
                Scenario::new().thread(writes).thread(read)
            };
            threads.finale(move || {
                let pinned = idx.read(0, 10, Some(epoch), ReadShape::Within(&filter)).0;
                assert_eq!(pinned.into_set().to_vec(), [0, 1, 3]);
                idx.release_snapshot_epoch(epoch);
                let now = idx.read(0, 10, None, ReadShape::Within(&filter)).0;
                assert_eq!(now.into_set().to_vec(), [1, 3, 11]);
                assert!(idx.check_invariants());
            })
        });
        report.assert_ok();
        assert!(report.exhausted, "one preemption fits under the cap");
    }
    assert_eq!(
        states_met.load(Ordering::SeqCst),
        0b111,
        "the read must meet row 0 live, tombstoned and retired"
    );
}

/// The crack body's publish rule on the real cracker: a column just above
/// the pivot policy's floor, so the first bound to be resolved partitions
/// the one oversized piece twice — around a pivot sampled from it, then at
/// the bound inside the half that holds it — and publishes both cracks in
/// one directory acquisition, after all physical work. All bounds lie near
/// the top of the domain, in the upper half the pivot crack creates, and
/// 2 000 keys apart, so every piece between two of them stays above the
/// read path's 1 024-row crack floor and every bound is cracked: thread A
/// counts a range there, thread B sums the range above it, thread C
/// counts the one above that. Whoever reaches
/// the oversized piece first cracks it twice; the others queue on its
/// latch and, once granted, re-evaluate their bound against both new
/// cracks at once. A thread that could see the pivot crack before the
/// bound pass had run would take the upper half's fresh latch and
/// partition rows the first thread is still moving: on every schedule all
/// three answers equal the closed form, nothing is lost, and the
/// invariants — every published piece physically within its key bounds —
/// hold. One preemption, exhaustively: every thread gets to be the one
/// that meets the oversized piece, and is interrupted by either of the
/// others at every step of cracking it.
#[test]
fn real_cracker_two_crack_publish_vs_readers_of_the_upper_half() {
    const ROWS: i64 = 262_200; // the floor is 256 Ki = 262 144 live rows
    let column: Vec<i64> = (0..ROWS).map(|i| (i * 48271) % ROWS).collect();
    let closed_sum = |low: i64, high: i64| (low + high - 1) as i128 * (high - low) as i128 / 2;
    let cracked_twice = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let twice = Arc::clone(&cracked_twice);
    let one_preemption = ExploreConfig {
        preemption_bound: Some(1),
        ..capped(1500)
    };
    let report = explore(one_preemption, move || {
        let idx = Arc::new(ConcurrentCracker::from_values(
            column.clone(),
            LatchProtocol::Piece,
        ));
        // A read that resolved a bound in the oversized piece reports the
        // pivot crack on top of its two bound cracks.
        let reader = |who: u64, low: i64, sum: bool| {
            let (idx, twice) = (Arc::clone(&idx), Arc::clone(&twice));
            move || {
                let high = low + 2_000;
                let (got, metrics) = if sum {
                    idx.sum(low, high)
                } else {
                    let (n, metrics) = idx.count(low, high);
                    (n as i128, metrics)
                };
                let expected = if sum { closed_sum(low, high) } else { 2_000 };
                assert_eq!(got, expected, "thread {who} read [{low},{high})");
                if metrics.cracks_performed > 2 {
                    twice.fetch_or(1 << who, Ordering::SeqCst);
                }
            }
        };
        Scenario::new()
            .thread(reader(0, 250_000, false))
            .thread(reader(1, 254_000, true))
            .thread(reader(2, 258_000, false))
            .finale(move || {
                assert_eq!(idx.count(i64::MIN, i64::MAX).0, ROWS as u64, "rows lost");
                assert_eq!(idx.sum(249_000, 262_000).0, closed_sum(249_000, 262_000));
                assert!(idx.crack_count() >= 7, "six bounds and a pivot");
                assert!(idx.check_invariants());
            })
    });
    report.assert_ok();
    assert!(report.exhausted, "one preemption fits under the cap");
    assert_eq!(
        cracked_twice.load(Ordering::SeqCst),
        0b111,
        "each thread must be the one that cracks the oversized piece on some schedule"
    );
}

/// A read whose two bounds share a piece resolves both under that piece's
/// one write latch, in one crack call and one publish. Here the wide count
/// `[K, 6K)` on an uncracked column races the narrow count `[3K, 4K)`,
/// which cracks between its bounds. When the narrow count publishes first
/// while the wide one already holds its lookup of the one piece — queued
/// on its latch, or preempted before taking it — the wide count's
/// re-evaluation under the granted latch still finds `K` in the piece at
/// position 0, but `6K` gone from it: it cracks `K` alone and resolves
/// `6K` on its own in the piece above the narrow count's cracks. On every
/// schedule with one preemption both counts are exact, each cracks its
/// two bounds, no row is lost and the invariants hold. Both ways of
/// resolving occur: some schedules take the two reads' four cracks under
/// two write latches (each read's bounds share a piece when it cracks),
/// others under three.
#[test]
fn real_paired_bounds_race_a_crack_between_them() {
    let column = stretched(&[7, 2, 5, 0, 3, 6, 1, 4]);
    let rows = column.len() as u64;
    let oracle = |lo: i64, hi: i64| column.iter().filter(|&&v| v >= lo && v < hi).count() as u64;
    let (e_wide, e_narrow) = (oracle(K, 6 * K), oracle(3 * K, 4 * K));
    let latch_counts = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let seen = Arc::clone(&latch_counts);
    let one_preemption = ExploreConfig {
        preemption_bound: Some(1),
        ..capped(5_000)
    };
    let report = explore(one_preemption, move || {
        let idx = Arc::new(ConcurrentCracker::from_values(
            column.clone(),
            LatchProtocol::Piece,
        ));
        let (wide, narrow, seen) = (Arc::clone(&idx), Arc::clone(&idx), Arc::clone(&seen));
        Scenario::new()
            .thread(move || {
                let (n, metrics) = wide.count(K, 6 * K);
                assert_eq!(n, e_wide, "count [K,6K) racing a crack between its bounds");
                assert_eq!(
                    metrics.cracks_performed, 2,
                    "the wide count cracks both bounds"
                );
            })
            .thread(move || {
                let (n, metrics) = narrow.count(3 * K, 4 * K);
                assert_eq!(n, e_narrow, "count [3K,4K)");
                assert_eq!(
                    metrics.cracks_performed, 2,
                    "the narrow count cracks both bounds"
                );
            })
            .finale(move || {
                assert_eq!(idx.count(i64::MIN, i64::MAX).0, rows, "rows lost");
                assert_eq!(idx.crack_count(), 4, "four bounds, no pivot");
                assert!(idx.check_invariants());
                let writes = idx.latch_stats().write_acquisitions;
                seen.fetch_or(1 << writes.min(63), Ordering::SeqCst);
            })
    });
    report.assert_ok();
    assert!(report.exhausted, "one preemption fits under the cap");
    let seen = latch_counts.load(Ordering::SeqCst);
    assert_eq!(
        seen & 0b1100,
        0b1100,
        "both two and three write latches must occur, saw {seen:#b}"
    );
}

/// The crack floor on the real cracker, at the production floor: an
/// eight-row column is one piece far below it, so a `count` and a `sum`
/// whose bounds both fall in that piece plan without a write latch and
/// read it as an edge, filtered under its read latch. They race a
/// `delete` that force-cracks inside that very piece — writes ignore the
/// floor — and an `insert` of a key inside it. On every schedule with one
/// preemption each read cracks nothing and returns an answer the oracle
/// gives for some subset of the two writes, and afterwards the column
/// agrees with the oracle and passes its invariants.
#[test]
fn real_floor_reads_filter_their_piece_while_a_delete_cracks_it() {
    const VALUES: [i64; 8] = [9, 3, 7, 1, 8, 2, 6, 4];
    const DOOMED: i64 = 4;
    const INSERTED: i64 = 5;
    // The oracle's answer for [low, high) after the given writes.
    let oracle = |low: i64, high: i64, deleted: bool, inserted: bool| {
        let mut column = VALUES.to_vec();
        if deleted {
            column.retain(|&v| v != DOOMED);
        }
        if inserted {
            column.push(INSERTED);
        }
        let hits = column.into_iter().filter(|&v| v >= low && v < high);
        hits.fold((0u64, 0i128), |(n, sum), v| (n + 1, sum + v as i128))
    };
    let allowed = move |low: i64, high: i64| -> Vec<(u64, i128)> {
        let writes = [(false, false), (true, false), (false, true), (true, true)];
        writes.map(|(d, i)| oracle(low, high, d, i)).to_vec()
    };
    let one_preemption = ExploreConfig {
        preemption_bound: Some(1),
        ..capped(10_000)
    };
    let report = explore(one_preemption, move || {
        let idx = Arc::new(ConcurrentCracker::from_values(
            VALUES.to_vec(),
            LatchProtocol::Piece,
        ));
        let (c, s, d, i) = (
            Arc::clone(&idx),
            Arc::clone(&idx),
            Arc::clone(&idx),
            Arc::clone(&idx),
        );
        let (count_ok, sum_ok) = (allowed(2, 6), allowed(3, 8));
        Scenario::new()
            .thread(move || {
                let (n, metrics) = c.count(2, 6);
                assert!(
                    count_ok.iter().any(|&(want, _)| want == n),
                    "count [2,6) racing a delete and an insert saw {n}"
                );
                assert_eq!(metrics.cracks_performed, 0, "a read cracked a floor piece");
            })
            .thread(move || {
                let (sum, metrics) = s.sum(3, 8);
                assert!(
                    sum_ok.iter().any(|&(_, want)| want == sum),
                    "sum [3,8) racing a delete and an insert saw {sum}"
                );
                assert_eq!(metrics.cracks_performed, 0, "a read cracked a floor piece");
            })
            .thread(move || {
                let (removed, metrics) = d.write(WriteOp::Delete { value: DOOMED });
                assert_eq!(removed, 1, "key {DOOMED} occurs once");
                assert!(metrics.cracks_performed > 0, "the delete cracks its key");
            })
            .thread(move || {
                i.insert(INSERTED);
            })
            .finale(move || {
                for (low, high) in [(2, 6), (3, 8), (DOOMED, INSERTED), (i64::MIN, i64::MAX)] {
                    let (n, sum) = oracle(low, high, true, true);
                    assert_eq!(idx.count(low, high).0, n, "count [{low},{high})");
                    assert_eq!(idx.sum(low, high).0, sum, "sum [{low},{high})");
                }
                assert!(idx.check_invariants());
            })
    });
    report.assert_ok();
    assert!(report.exhausted, "one preemption fits under the cap");
}

/// The span walk on the real cracker. Four cracks leave the sum's bounds
/// at piece boundaries with three pieces of 2K rows between them, so the
/// sum plans without a write latch and gets its three-piece span batch
/// from the plan's one directory acquisition. It races a count that
/// cracks the batch's third piece, and a writer that deletes a key inside
/// the second piece — two cracks, then a sweep that turns the key's row
/// into a dead tail — and then inserts the key again. Every schedule's sum
/// is the oracle's after a prefix of the writer's two ops: a walk that
/// trusted its batch after the structure version moved would scan the
/// dead row as live and, with the insert folded from the delta, count the
/// key twice. Afterwards the column agrees with the oracle and passes its
/// invariants. One preemption, exhaustively: the sum is the first thread,
/// so it is preempted between its plan and its walk, and the whole writer
/// runs in between.
#[test]
fn real_span_walk_revalidates_a_batch_a_crack_and_a_sweep_changed() {
    let column = stretched(&[5, 1, 7, 3, 0, 6, 2, 4]);
    let rows = column.len() as u64;
    let doomed = 4 * K + 5;
    let sum_of = |low: i64, high: i64| -> i128 {
        let hits = column.iter().filter(|&&v| v >= low && v < high);
        hits.map(|&v| v as i128).sum()
    };
    let all = sum_of(K, 7 * K);
    let one_preemption = ExploreConfig {
        preemption_bound: Some(1),
        ..capped(20_000)
    };
    let report = explore(one_preemption, move || {
        let idx = Arc::new(ConcurrentCracker::from_values(
            column.clone(),
            LatchProtocol::Piece,
        ));
        idx.count(K, 3 * K);
        idx.count(5 * K, 7 * K);
        let two_k = 2 * K as u64;
        assert_eq!(idx.piece_sizes(), [K as u64, two_k, two_k, two_k, K as u64]);
        let (s, c, d) = (Arc::clone(&idx), Arc::clone(&idx), Arc::clone(&idx));
        Scenario::new()
            .thread(move || {
                let (sum, metrics) = s.sum(K, 7 * K);
                assert!(
                    sum == all || sum == all - doomed as i128,
                    "sum over a walk racing a crack, a delete and an insert saw {sum}"
                );
                assert_eq!(metrics.cracks_performed, 0, "both bounds are cracks");
            })
            .thread(move || {
                let (n, metrics) = c.count(6 * K, 7 * K);
                assert_eq!(n, K as u64, "count [6K,7K)");
                assert_eq!(metrics.cracks_performed, 1, "the count cracks at 6K");
            })
            .thread(move || {
                let (removed, _) = d.write(WriteOp::Delete { value: doomed });
                assert_eq!(removed, 1, "the key occurs once");
                d.insert(doomed);
            })
            .finale(move || {
                assert_eq!(idx.sum(K, 7 * K).0, all, "delete and insert cancel");
                assert_eq!(idx.count(i64::MIN, i64::MAX).0, rows);
                assert_eq!(idx.hole_count(), 1, "the delete's sweep left a dead tail");
                assert!(idx.check_invariants());
            })
    });
    report.assert_ok();
    assert!(report.exhausted, "one preemption fits under the cap");
}

/// The latch's sleeper count at its lost-wakeup window: a release notifies
/// the condvar only when a thread sleeps on it. Two writers and a reader
/// on one real `OrderedWaitLatch`; on some schedule the second writer is
/// queued when the first releases and is chosen, the reader arrives before
/// it runs and sleeps behind it, and the chosen writer then releases with
/// no write waiter left. That release must still wake the reader: every
/// schedule completes, and the latch ends up free.
#[test]
fn real_ordered_wait_latch_wakes_a_reader_behind_a_chosen_writer() {
    let two_preemptions = ExploreConfig {
        preemption_bound: Some(2),
        ..capped(20_000)
    };
    let report = explore(two_preemptions, move || {
        let latch = Arc::new(OrderedWaitLatch::new());
        let (w1, w2, r) = (Arc::clone(&latch), Arc::clone(&latch), Arc::clone(&latch));
        Scenario::new()
            .thread(move || w1.acquire_write(10).release())
            .thread(move || w2.acquire_write(20).release())
            .thread(move || r.acquire_read().release())
            .finale(move || {
                assert!(latch.try_acquire_write().is_some(), "the latch ends free");
            })
    });
    report.assert_ok();
    assert!(report.exhausted, "two preemptions fit under the cap");
}

/// The real `OrderedWaitLatch` (bound-ordered writer queue) model-checked
/// directly: its internal mutex/condvar waits route through the scheduler,
/// so the explorer enumerates grant orders and verifies mutual exclusion.
#[test]
fn real_ordered_wait_latch_mutual_exclusion() {
    let report = explore_default(move || {
        let latch = Arc::new(OrderedWaitLatch::new());
        let critical = Arc::new(CheckedAtomicUsize::new(0));
        let mut scenario = Scenario::new();
        for bound in [10i64, 20] {
            let latch = Arc::clone(&latch);
            let critical = Arc::clone(&critical);
            scenario = scenario.thread(move || {
                let guard = latch.acquire_write(bound);
                let inside = critical.fetch_add(1, Ordering::SeqCst);
                assert_eq!(inside, 0, "two writers inside the latch at once");
                critical.fetch_sub(1, Ordering::SeqCst);
                guard.release();
            });
        }
        scenario
    });
    report.assert_ok();
    assert!(report.schedules >= 2, "both grant orders must be explored");
}

// ---------------------------------------------------------------------------
// Seqlock: select vs shrink (ISSUE scenario 2) + PR 4 reclaim-pause port
// ---------------------------------------------------------------------------

/// Mini-model of the shrink seqlock. Two cells whose sum is invariantly 100
/// stand in for a piece's payload; a sweep moves 10 units between them under
/// an odd/even epoch, serialised by `shrink_serial` — exactly the
/// `ConcurrentCracker` discipline, with checked atomics replacing the raw
/// ones so the scheduler can preempt at every step.
struct SeqlockPiece {
    epoch: CheckedAtomicU64,
    cell_a: CheckedAtomicU64,
    cell_b: CheckedAtomicU64,
    shrink_serial: CheckedMutex<()>,
}

impl SeqlockPiece {
    fn new() -> Self {
        SeqlockPiece {
            epoch: CheckedAtomicU64::new(0),
            cell_a: CheckedAtomicU64::new(60),
            cell_b: CheckedAtomicU64::new(40),
            shrink_serial: CheckedMutex::new(()),
        }
    }

    /// One shrink: bump to odd, mutate, bump to even — all under the serial
    /// mutex.
    fn sweep(&self) {
        let _serial = self.shrink_serial.lock();
        self.epoch.store(1, Ordering::SeqCst);
        let a = self.cell_a.load(Ordering::SeqCst);
        self.cell_a.store(a - 10, Ordering::SeqCst);
        let b = self.cell_b.load(Ordering::SeqCst);
        self.cell_b.store(b + 10, Ordering::SeqCst);
        self.epoch.store(2, Ordering::SeqCst);
    }

    fn cells_sum(&self) -> u64 {
        self.cell_a.load(Ordering::SeqCst) + self.cell_b.load(Ordering::SeqCst)
    }

    /// Optimistic read with bounded retries, falling back to draining the
    /// sweep through `shrink_serial` (the PR 4 reclaim-pause shape). With
    /// `validate` off, a mid-sweep read is returned unchecked — the seeded
    /// bug the explorer must catch.
    fn read_sum(&self, validate: bool) -> u64 {
        for _ in 0..3 {
            let before = self.epoch.load(Ordering::SeqCst);
            if !before.is_multiple_of(2) {
                continue; // sweep in progress; bounded retry
            }
            let sum = self.cells_sum();
            if !validate || self.epoch.load(Ordering::SeqCst) == before {
                return sum;
            }
        }
        // Retry cap exceeded: pause reclamation by draining the in-flight
        // sweep, then read non-optimistically while holding the serial lock.
        let _serial = self.shrink_serial.lock();
        self.cells_sum()
    }
}

/// Correct seqlock protocol: every schedule of select-vs-shrink yields the
/// invariant sum, including schedules that exhaust the retry budget and take
/// the drain path.
#[test]
fn seqlock_select_vs_shrink_holds_on_every_schedule() {
    let report = explore_default(move || {
        let piece = Arc::new(SeqlockPiece::new());
        let reader = Arc::clone(&piece);
        let sweeper = Arc::clone(&piece);
        Scenario::new()
            .thread(move || {
                let sum = reader.read_sum(true);
                assert_eq!(sum, 100, "validated read saw a torn sweep");
            })
            .thread(move || sweeper.sweep())
            .finale(move || {
                assert_eq!(piece.cells_sum(), 100, "sweep corrupted the payload");
                assert_eq!(piece.epoch.load(Ordering::SeqCst) % 2, 0, "epoch left odd");
            })
    });
    report.assert_ok();
    assert!(report.exhausted, "seqlock model should be fully enumerable");
}

/// Teeth: skipping the second epoch validation lets a reader that started
/// before the sweep observe the half-updated cells. The explorer must find
/// that interleaving.
#[test]
fn seqlock_unvalidated_read_is_caught() {
    let report = explore_default(move || {
        let piece = Arc::new(SeqlockPiece::new());
        let reader = Arc::clone(&piece);
        let sweeper = Arc::clone(&piece);
        Scenario::new()
            .thread(move || {
                let sum = reader.read_sum(false);
                assert_eq!(sum, 100, "unvalidated read saw a torn sweep");
            })
            .thread(move || sweeper.sweep())
    });
    let failure = report.expect_failure("panic");
    assert!(
        failure.message.contains("torn sweep"),
        "failure should come from the torn-read assert, got: {}",
        failure.message
    );
}

/// PR 4 port — the reclaim-pause drain. A reader past its retry cap must
/// acquire `shrink_serial` (draining the in-flight sweep) before reading
/// unvalidated; with the drain present every schedule is consistent.
#[test]
fn reclaim_pause_drains_inflight_sweep() {
    let report = explore_default(move || {
        let piece = Arc::new(SeqlockPiece::new());
        let reader = Arc::clone(&piece);
        let sweeper = Arc::clone(&piece);
        Scenario::new()
            .thread(move || {
                // Skip the optimistic attempts entirely: go straight to the
                // pause path, which must drain through the serial mutex.
                let _serial = reader.shrink_serial.lock();
                let sum = reader.cells_sum();
                assert_eq!(sum, 100, "drained pause read saw a torn sweep");
            })
            .thread(move || sweeper.sweep())
    });
    report.assert_ok();
}

/// Teeth for the PR 4 port: the same pause path *without* the serial drain
/// reads mid-sweep on some schedule.
#[test]
fn reclaim_pause_without_drain_is_caught() {
    let report = explore_default(move || {
        let piece = Arc::new(SeqlockPiece::new());
        let reader = Arc::clone(&piece);
        let sweeper = Arc::clone(&piece);
        Scenario::new()
            .thread(move || {
                // Buggy pause: no drain, no validation.
                let sum = reader.cells_sum();
                assert_eq!(sum, 100, "undrained pause read saw a torn sweep");
            })
            .thread(move || sweeper.sweep())
    });
    report.expect_failure("panic");
}

// ---------------------------------------------------------------------------
// Snapshot vs incremental compaction (ISSUE scenario 3)
// ---------------------------------------------------------------------------

/// Mini-model of incremental compaction: rows migrate one at a time from the
/// delta to the main store. A snapshot must see every row exactly once, so
/// the two-step move has to be covered by the structure latch.
struct CompactionModel {
    structure: CheckedMutex<()>,
    main: CheckedMutex<Vec<u64>>,
    delta: CheckedMutex<Vec<u64>>,
}

impl CompactionModel {
    fn new() -> Self {
        CompactionModel {
            structure: CheckedMutex::new(()),
            main: CheckedMutex::new(vec![1, 2]),
            delta: CheckedMutex::new(vec![3]),
        }
    }

    /// Move one row delta → main. `guarded` is the correct protocol; without
    /// it the row is in flight (in neither store) across a preemption point.
    fn compact_step(&self, guarded: bool) {
        let _g = if guarded {
            Some(self.structure.lock())
        } else {
            None
        };
        let moved = self.delta.lock().pop();
        yield_now();
        if let Some(row) = moved {
            self.main.lock().push(row);
        }
    }

    fn snapshot_total(&self) -> usize {
        let _g = self.structure.lock();
        self.main.lock().len() + self.delta.lock().len()
    }
}

#[test]
fn snapshot_vs_incremental_compaction_sees_every_row_once() {
    let report = explore_default(move || {
        let model = Arc::new(CompactionModel::new());
        let compactor = Arc::clone(&model);
        let snapshotter = Arc::clone(&model);
        Scenario::new()
            .thread(move || compactor.compact_step(true))
            .thread(move || {
                let total = snapshotter.snapshot_total();
                assert_eq!(total, 3, "snapshot saw a row in flight");
            })
            .finale(move || {
                assert_eq!(model.delta.lock().len(), 0, "compaction step did not drain");
                assert_eq!(model.main.lock().len(), 3, "compacted row lost");
            })
    });
    report.assert_ok();
    assert!(report.exhausted);
}

/// Teeth: an unguarded two-step move leaves the row in neither store across
/// a preemption; some schedule's snapshot counts 2 rows.
#[test]
fn unguarded_compaction_step_is_caught() {
    let report = explore_default(move || {
        let model = Arc::new(CompactionModel::new());
        let compactor = Arc::clone(&model);
        let snapshotter = Arc::clone(&model);
        Scenario::new()
            .thread(move || compactor.compact_step(false))
            .thread(move || {
                let total = snapshotter.snapshot_total();
                assert_eq!(total, 3, "snapshot saw a row in flight");
            })
    });
    report.expect_failure("panic");
}

// ---------------------------------------------------------------------------
// Delete vs sweep (ISSUE scenario 4)
// ---------------------------------------------------------------------------

/// Mini-model of tombstone accounting: deletes mark rows dead and bump the
/// tombstone counter under the piece latch; the sweep removes dead rows and
/// must decrement by *what it actually removed* — not by a count read before
/// it took the latch.
struct SweepModel {
    rows: CheckedMutex<Vec<(u64, bool)>>,
    tombstones: CheckedAtomicUsize,
    shrink_serial: CheckedMutex<()>,
}

impl SweepModel {
    fn new() -> Self {
        SweepModel {
            // Row 3 starts dead so the sweep always has work to do.
            rows: CheckedMutex::new(vec![(1, false), (2, false), (3, true)]),
            tombstones: CheckedAtomicUsize::new(1),
            shrink_serial: CheckedMutex::new(()),
        }
    }

    fn delete(&self, value: u64) {
        let mut rows = self.rows.lock();
        if let Some(row) = rows.iter_mut().find(|r| r.0 == value && !r.1) {
            row.1 = true;
            // Mark + count together under the piece latch.
            self.tombstones.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn sweep(&self, stale_count: bool) {
        let _serial = self.shrink_serial.lock();
        if stale_count {
            // Buggy: count read before the latch; a delete landing in
            // between is reclaimed but never deducted.
            let n = self.tombstones.load(Ordering::SeqCst);
            yield_now();
            let mut rows = self.rows.lock();
            rows.retain(|r| !r.1);
            self.tombstones.fetch_sub(n, Ordering::SeqCst);
        } else {
            let mut rows = self.rows.lock();
            let before = rows.len();
            rows.retain(|r| !r.1);
            let removed = before - rows.len();
            self.tombstones.fetch_sub(removed, Ordering::SeqCst);
        }
    }

    fn surviving_dead(&self) -> usize {
        self.rows.lock().iter().filter(|r| r.1).count()
    }
}

#[test]
fn delete_vs_sweep_keeps_tombstone_accounting_exact() {
    let report = explore_default(move || {
        let model = Arc::new(SweepModel::new());
        let deleter = Arc::clone(&model);
        let sweeper = Arc::clone(&model);
        Scenario::new()
            .thread(move || deleter.delete(2))
            .thread(move || sweeper.sweep(false))
            .finale(move || {
                assert_eq!(
                    model.tombstones.load(Ordering::SeqCst),
                    model.surviving_dead(),
                    "tombstone counter drifted from the surviving dead rows"
                );
            })
    });
    report.assert_ok();
    assert!(report.exhausted);
}

/// Teeth: subtracting a pre-latch tombstone count lets a racing delete leave
/// the counter permanently high.
#[test]
fn sweep_with_stale_tombstone_count_is_caught() {
    let report = explore_default(move || {
        let model = Arc::new(SweepModel::new());
        let deleter = Arc::clone(&model);
        let sweeper = Arc::clone(&model);
        Scenario::new()
            .thread(move || deleter.delete(2))
            .thread(move || sweeper.sweep(true))
            .finale(move || {
                assert_eq!(
                    model.tombstones.load(Ordering::SeqCst),
                    model.surviving_dead(),
                    "tombstone counter drifted from the surviving dead rows"
                );
            })
    });
    report.expect_failure("finale-panic");
}

// ---------------------------------------------------------------------------
// Range partitions as build cracks: one cracker, one epoch per pin
// ---------------------------------------------------------------------------

/// The real range-partitioned column over eight values: one piece-latched
/// cracker, cracked at its one range split when it is built
/// (`with_ranges`), its delta bounded like a range arm's. Thread C
/// counts the whole key range, which straddles the build crack; threads I
/// and J each insert one key, one on either side of the crack; thread P
/// pins the column before either insert starts (the inserts wait on its
/// signal) and counts through the pin. The live count sees each insert or
/// not (N, N + 1 or N + 2 rows), and the pinned count, answering at the
/// one epoch registered before the inserts, sees exactly N. One
/// preemption, exhaustively.
#[test]
fn real_pre_cracked_column_straddling_and_pinned_reads_race_two_inserts() {
    let column = vec![9, 3, 7, 1, 8, 2, 6, 4];
    let n = column.len() as u64;
    let one_preemption = ExploreConfig {
        preemption_bound: Some(1),
        ..capped(20_000)
    };
    let report = explore(one_preemption, move || {
        let idx = ConcurrentCracker::from_values(column.clone(), LatchProtocol::Piece)
            .with_compaction(CompactionPolicy::fraction(0.1).incremental(8))
            .with_ranges(2);
        let idx = Arc::new(idx);
        let split = idx.range_splits()[0];
        assert_eq!(idx.range_splits().len(), 1, "two ranges");
        assert_eq!(idx.structure_probe().piece_count(), 2, "one build crack");
        let pinned = Arc::new((CheckedMutex::new(false), CheckedCondvar::new()));
        let insert = |key: i64| {
            let (idx, pinned) = (Arc::clone(&idx), Arc::clone(&pinned));
            move || {
                let (opened, signal) = &*pinned;
                let mut opened = opened.lock();
                while !*opened {
                    signal.wait(&mut opened);
                }
                drop(opened);
                idx.insert(key);
            }
        };
        let (below, above) = (insert(split - 1), insert(split + 1));
        let (c, p) = (Arc::clone(&idx), Arc::clone(&idx));
        Scenario::new()
            .thread(move || {
                let (seen, _) = c.count(i64::MIN, i64::MAX);
                assert!(
                    (n..=n + 2).contains(&seen),
                    "a straddling count racing two inserts saw {seen} rows"
                );
            })
            .thread(below)
            .thread(above)
            .thread(move || {
                let snap = p.pin();
                assert_eq!(p.structure_probe().live_snapshots, 1, "one epoch");
                let (opened, signal) = &*pinned;
                *opened.lock() = true;
                signal.notify_all();
                let (seen, _) = snap.count(i64::MIN, i64::MAX);
                assert_eq!(seen, n, "a pinned count saw a later insert");
            })
            .finale(move || {
                assert_eq!(idx.count(i64::MIN, i64::MAX).0, n + 2, "rows lost");
                assert_eq!(idx.logical_len(), n + 2);
                assert_eq!(idx.structure_probe().live_snapshots, 0);
                assert!(idx.check_invariants());
            })
    });
    report.assert_ok();
    assert!(report.exhausted, "one preemption fits under the cap");
}

// ---------------------------------------------------------------------------
// Seeded latch-order inversion (explorer side of the dual-catch criterion)
// ---------------------------------------------------------------------------

/// Order tags mirror the real hierarchy (Piece = 3, Delta = 5 in
/// `aidx_latch::dcheck::Level`). Taking a piece latch while holding the
/// delta lock inverts it; the explorer must fail the schedule with the full
/// acquisition stack. The dcheck half of this criterion is
/// `aidx-latch`'s `seeded_inversion_is_caught_with_trace`.
#[test]
fn seeded_latch_order_inversion_is_caught_by_explorer() {
    let report = explore_default(move || {
        let delta = Arc::new(CheckedMutex::ordered((), 5, "delta"));
        let piece = Arc::new(CheckedMutex::ordered((), 3, "piece-latch"));
        Scenario::new().thread(move || {
            let _d = delta.lock();
            let _p = piece.lock(); // inversion: Piece(3) while holding Delta(5)
        })
    });
    let failure = report.expect_failure("latch-order");
    assert!(
        failure.message.contains("piece-latch") && failure.message.contains("delta"),
        "diagnostic should name both latches, got: {}",
        failure.message
    );
}

// ---------------------------------------------------------------------------
// Two-crack publish (pivot policy) mini-model
// ---------------------------------------------------------------------------

/// Mini-model of the crack body's publish rule. One piece of six rows,
/// its latch, and the latch of the piece a split at the pivot creates.
/// The cracking thread holds the piece's latch and makes two passes —
/// around `PIVOT`, then at `UPPER_BOUND` inside the upper half — whose
/// loads and stores are separate scheduling points, as on real cores. The
/// real protocol publishes the pivot crack only after the second pass;
/// the teeth variant publishes it in between, when the upper half has a
/// start, hence a latch, of its own that the cracking thread does not
/// hold.
struct PivotPublishModel {
    rows: Vec<CheckedAtomicU64>,
    /// The directory: where the published upper piece starts.
    upper_start: CheckedMutex<Option<usize>>,
    piece_latch: CheckedMutex<()>,
    upper_latch: CheckedMutex<()>,
}

const PIVOT: u64 = 2;
const UPPER_BOUND: u64 = 4;
const PIVOT_MODEL_ROWS: [u64; 6] = [3, 5, 1, 4, 0, 2];

impl PivotPublishModel {
    fn new() -> Self {
        PivotPublishModel {
            rows: PIVOT_MODEL_ROWS.map(CheckedAtomicU64::new).into(),
            upper_start: CheckedMutex::new(None),
            piece_latch: CheckedMutex::new(()),
            upper_latch: CheckedMutex::new(()),
        }
    }

    /// Two-pointer partition of `[from, to)`; the caller's latch is all
    /// that keeps another partition out of the range.
    fn partition(&self, from: usize, to: usize, pivot: u64) -> usize {
        let (mut lo, mut hi) = (from, to);
        while lo < hi {
            let row = self.rows[lo].load(Ordering::SeqCst);
            if row < pivot {
                lo += 1;
            } else {
                hi -= 1;
                let other = self.rows[hi].load(Ordering::SeqCst);
                self.rows[lo].store(other, Ordering::SeqCst);
                self.rows[hi].store(row, Ordering::SeqCst);
            }
        }
        lo
    }

    /// The crack body on the oversized piece.
    fn crack_twice(&self, publish_after_all_passes: bool) {
        let _held = self.piece_latch.lock();
        let split = self.partition(0, self.rows.len(), PIVOT);
        if !publish_after_all_passes {
            *self.upper_start.lock() = Some(split);
        }
        self.partition(split, self.rows.len(), UPPER_BOUND);
        *self.upper_start.lock() = Some(split);
    }

    /// Another thread's crack at a bound above the pivot, Figure 10 style:
    /// find the piece, take its latch, re-evaluate, partition.
    fn crack_above_the_pivot(&self, bound: u64) {
        loop {
            let found = *self.upper_start.lock();
            let _held = match found {
                Some(_) => self.upper_latch.lock(),
                None => self.piece_latch.lock(),
            };
            if *self.upper_start.lock() == found {
                self.partition(found.unwrap_or(0), self.rows.len(), bound);
                return;
            }
        }
    }

    fn sorted_rows(&self) -> Vec<u64> {
        let mut rows: Vec<u64> = self.rows.iter().map(|r| r.load(Ordering::SeqCst)).collect();
        rows.sort_unstable();
        rows
    }
}

fn pivot_publish_scenario(publish_after_all_passes: bool) -> Scenario {
    let model = Arc::new(PivotPublishModel::new());
    let (cracker, other, fin) = (Arc::clone(&model), Arc::clone(&model), Arc::clone(&model));
    Scenario::new()
        .thread(move || cracker.crack_twice(publish_after_all_passes))
        .thread(move || other.crack_above_the_pivot(UPPER_BOUND + 1))
        .finale(move || {
            assert_eq!(
                fin.sorted_rows(),
                [0, 1, 2, 3, 4, 5],
                "two writers partitioned the upper half at once"
            );
        })
}

/// Physical work before publish: whichever thread gets to the piece
/// first, the other partitions the upper half only under a latch that
/// excludes it.
#[test]
fn two_crack_publish_after_all_passes_keeps_writers_apart() {
    let two_preemptions = ExploreConfig {
        preemption_bound: Some(2),
        ..capped(20_000)
    };
    let report = explore(two_preemptions, || pivot_publish_scenario(true));
    report.assert_ok();
    assert!(report.exhausted, "two preemptions fit under the cap");
}

/// Teeth: publishing the pivot crack before the bound pass has run hands
/// the upper half's latch to a second writer mid-pass. The explorer must
/// find the interleaving that loses a row.
#[test]
fn pivot_crack_published_before_the_bound_pass_is_caught() {
    let one_preemption = ExploreConfig {
        preemption_bound: Some(1),
        ..capped(5_000)
    };
    let report = explore(one_preemption, || pivot_publish_scenario(false));
    let failure = report.expect_failure("finale-panic");
    assert!(
        failure
            .message
            .contains("two writers partitioned the upper half"),
        "failure should come from the lost-row assert, got: {}",
        failure.message
    );
}

// ---------------------------------------------------------------------------
// Real table engine: a write racing pinned cuts
// ---------------------------------------------------------------------------

/// The table engine's writer mutex and per-operation cut, on the real
/// `TableEngine` over two serial piece-latched columns: thread D deletes
/// tuple 0 `(5, 50)` — first from column `a`, then from column `b` — while
/// thread R1 selects `a = 5` and thread R2 selects `b = 50`. If R1 has
/// already seen the tuple gone when R2 starts, R2 must not find it on
/// column `b`: the two selects would otherwise reveal half a delete.
/// `met` collects which outcomes the explored schedules produced.
fn torn_tuple_scenario(
    backend: TableBackend,
    lazy_pins: bool,
    met: Arc<std::sync::atomic::AtomicU64>,
) -> Scenario {
    let mut engine = TableEngine::new(
        "r",
        vec![
            ("a".into(), vec![5, 1, 7, 3]),
            ("b".into(), vec![50, 10, 70, 30]),
        ],
        backend,
        CompactionPolicy::disabled(),
    );
    if lazy_pins {
        engine = engine.with_lazy_pins();
    }
    let engine = Arc::new(engine);
    let seen_gone = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let (d, r1, r2) = (
        Arc::clone(&engine),
        Arc::clone(&engine),
        Arc::clone(&engine),
    );
    let (seen1, seen2, met1) = (Arc::clone(&seen_gone), seen_gone, Arc::clone(&met));
    Scenario::new()
        .thread(move || {
            let deleted = d.execute(&TableOp::DeleteWhere {
                column: 0,
                value: 5,
            });
            assert_eq!(deleted.rowids, [0], "tuple 0 carries a = 5");
        })
        .thread(move || {
            let found = r1.execute(&TableOp::SelectMulti(vec![ColumnPredicate::new(0, 5, 6)]));
            if found.rowids.is_empty() {
                seen1.store(true, Ordering::SeqCst);
                met1.fetch_or(1, Ordering::SeqCst);
            }
        })
        .thread(move || {
            let started_after = seen2.load(Ordering::SeqCst);
            let found = r2.execute(&TableOp::SelectMulti(vec![ColumnPredicate::new(1, 50, 51)]));
            if started_after {
                assert!(
                    found.rowids.is_empty(),
                    "torn tuple: an earlier select saw tuple 0 gone from column a, \
                     a later one still finds it on column b"
                );
                met.fetch_or(2, Ordering::SeqCst);
            } else if !found.rowids.is_empty() {
                met.fetch_or(4, Ordering::SeqCst);
            }
        })
        .finale(move || {
            let all = engine.execute(&TableOp::SelectMulti(vec![]));
            assert_eq!(all.rowids, [1, 2, 3], "the delete removed exactly tuple 0");
            assert!(engine.check_invariants());
        })
}

/// Every schedule of one preemption keeps the two selects consistent, on
/// serial piece-latched columns and on two-partition range columns alike:
/// a select pins its columns under the writer mutex, which the delete
/// holds from its first column to its last. The schedules must include R1
/// seeing the tuple gone, R2 starting after that, and R2 seeing the
/// tuple before the delete.
#[test]
fn real_table_delete_vs_pinned_selects_never_tears_a_tuple() {
    for backend in [
        TableBackend::Serial(LatchProtocol::Piece),
        TableBackend::Range { partitions: 2 },
    ] {
        let met = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let one_preemption = ExploreConfig {
            preemption_bound: Some(1),
            ..capped(5_000)
        };
        let report = explore(one_preemption, || {
            torn_tuple_scenario(backend, false, Arc::clone(&met))
        });
        report.assert_ok();
        assert!(
            report.exhausted,
            "{backend:?}: one preemption fits under the cap"
        );
        assert_eq!(
            met.load(Ordering::SeqCst),
            0b111,
            "{backend:?}: schedules must meet the tuple gone, a select after that, \
             and the tuple still there"
        );
    }
}

/// Teeth: pinning each column at its first read, outside the writer
/// mutex, lets R2 pin column `b` between the delete's two columns. The
/// explorer must find that schedule.
#[test]
fn table_pins_taken_outside_the_writer_mutex_are_caught() {
    let met = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let one_preemption = ExploreConfig {
        preemption_bound: Some(1),
        ..capped(5_000)
    };
    let report = explore(one_preemption, || {
        torn_tuple_scenario(
            TableBackend::Serial(LatchProtocol::Piece),
            true,
            Arc::clone(&met),
        )
    });
    let failure = report.expect_failure("panic");
    assert!(
        failure.message.contains("torn tuple"),
        "failure should come from the torn-tuple assert, got: {}",
        failure.message
    );
}
