//! The permanent concurrency-scenario suite.
//!
//! Two kinds of scenario live here:
//!
//! * **Real-code models** — the actual `ConcurrentCracker`, posting-list
//!   intersection, `OrderedWaitLatch` and `TableEngine` run on virtual
//!   threads. This works because `aidx-core` and `aidx-table` are built with
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
//! Two of the mini-models are ports of bugs this codebase actually had or
//! defends against: the PR 7 galloping-intersection frontier bug and the
//! PR 4 bounded-retry reclaim-pause drain. The split-handoff model at the bottom covers the skew-adaptive
//! router's epoch-fenced re-partitioning: a query racing a split must see
//! exactly the old or the new routing, never a dropped key range.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use aidx_check::sync::{yield_now, CheckedAtomicU64, CheckedAtomicUsize, CheckedMutex};
use aidx_check::{explore, explore_default, ExploreConfig, Scenario};
use aidx_core::{
    intersect_iters_gallop, intersect_iters_linear, ColumnRead, CompactionPolicy,
    ConcurrentCracker, Index, LatchProtocol, ReadShape, RowIdSet, WriteOp,
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
    const VALUES: [i64; 8] = [9, 3, 7, 1, 8, 2, 6, 4];
    let oracle = |lo: i64, hi: i64| VALUES.iter().filter(|&&v| v >= lo && v < hi).count() as u64;
    let (e1, e2) = (oracle(2, 6), oracle(5, 9));
    let report = explore(capped(1200), move || {
        let idx = Arc::new(ConcurrentCracker::from_values(
            VALUES.to_vec(),
            LatchProtocol::Piece,
        ));
        let a = Arc::clone(&idx);
        let b = Arc::clone(&idx);
        Scenario::new()
            .thread(move || {
                let (n, _) = a.count(2, 6);
                assert_eq!(n, e1, "crack select [2,6) returned a wrong count");
            })
            .thread(move || {
                let (n, _) = b.count(5, 9);
                assert_eq!(n, e2, "crack select [5,9) returned a wrong count");
            })
            .finale(move || {
                let (n, _) = idx.count(i64::MIN, i64::MAX);
                assert_eq!(
                    n,
                    VALUES.len() as u64,
                    "rows lost or duplicated by cracking"
                );
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

/// The real delete path — `write(WriteOp::Delete)`: bound cracks, the
/// seqlock window, the validated delta applier, the reclaiming piece
/// shrink — racing a `Sum` on a two-piece cracker. The sum's piece walk
/// and its delta view are taken under different locks, and the delete's
/// shrink moves the doomed rows from one domain to the other in between;
/// every schedule must see the whole delete or none of it, and both
/// outcomes must occur (the sum is the first thread, so the schedules
/// nearest the default one preempt it mid-read and send it through the
/// seqlock retry).
#[test]
fn real_cracker_delete_vs_sum_is_atomic() {
    const VALUES: [i64; 6] = [5, 1, 7, 3, 5, 9];
    const ALL: i128 = 30;
    let saw_none = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let saw_all = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let (none, all) = (Arc::clone(&saw_none), Arc::clone(&saw_all));
    let report = explore(capped(1500), move || {
        let idx = Arc::new(ConcurrentCracker::from_values(
            VALUES.to_vec(),
            LatchProtocol::Piece,
        ));
        idx.count(i64::MIN, 5); // two non-empty pieces: < 5 and >= 5
        assert_eq!(idx.piece_sizes(), [0, 2, 4]);
        let a = Arc::clone(&idx);
        let b = Arc::clone(&idx);
        let (none, all) = (Arc::clone(&none), Arc::clone(&all));
        Scenario::new()
            .thread(move || {
                let (sum, _) = a.sum(0, 10);
                match ALL - sum {
                    0 => none.store(true, Ordering::SeqCst),
                    10 => all.store(true, Ordering::SeqCst),
                    _ => panic!("sum racing the delete saw half of it: {sum}"),
                }
            })
            .thread(move || {
                let (removed, _) = b.write(WriteOp::Delete { value: 5 });
                assert_eq!(removed, 2, "both rows of key 5 are deleted");
            })
            .finale(move || {
                assert_eq!(idx.sum(0, 10).0, ALL - 10, "delete lost");
                assert_eq!(idx.count(i64::MIN, i64::MAX).0, 4);
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

/// The crack body's publish rule on the real cracker: a column just above
/// the pivot policy's floor, so the first bound to be resolved partitions
/// the one oversized piece twice — around a pivot sampled from it, then at
/// the bound inside the half that holds it — and publishes both cracks in
/// one directory acquisition, after all physical work. All bounds lie near
/// the top of the domain, in the upper half the pivot crack creates (and
/// every piece after the first two passes is small, which keeps a
/// schedule cheap): thread A counts a range there, thread B sums the
/// range above it, thread C counts the one above that. Whoever reaches
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
                let high = low + 400;
                let (got, metrics) = if sum {
                    idx.sum(low, high)
                } else {
                    let (n, metrics) = idx.count(low, high);
                    (n as i128, metrics)
                };
                let expected = if sum { closed_sum(low, high) } else { 400 };
                assert_eq!(got, expected, "thread {who} read [{low},{high})");
                if metrics.cracks_performed > 2 {
                    twice.fetch_or(1 << who, Ordering::SeqCst);
                }
            }
        };
        Scenario::new()
            .thread(reader(0, 260_000, false))
            .thread(reader(1, 260_500, true))
            .thread(reader(2, 261_000, false))
            .finale(move || {
                assert_eq!(idx.count(i64::MIN, i64::MAX).0, ROWS as u64, "rows lost");
                assert_eq!(idx.sum(259_000, 262_000).0, closed_sum(259_000, 262_000));
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
// PR 7 port: galloping-intersection frontier
// ---------------------------------------------------------------------------

/// PR 7's proptest found a missed match when the leapfrog driver's seek
/// lands *exactly* on the large side's frontier (here: small seeks to 7
/// after large's `next_seek` already consumed its 7). Two virtual threads
/// build the runs concurrently; the finale intersects with the real
/// galloping and linear walkers from `aidx-core` and cross-checks them.
#[test]
fn gallop_frontier_regression_concurrent_build() {
    let report = explore_default(move || {
        let small_run = Arc::new(CheckedMutex::new(Vec::<u32>::new()));
        let large_run = Arc::new(CheckedMutex::new(Vec::<u32>::new()));
        let s = Arc::clone(&small_run);
        let l = Arc::clone(&large_run);
        Scenario::new()
            .thread(move || {
                for id in [0u32, 7, 20] {
                    s.lock().push(id);
                    yield_now();
                }
            })
            .thread(move || {
                for id in [7u32, 9, 20, 33] {
                    l.lock().push(id);
                    yield_now();
                }
            })
            .finale(move || {
                let small = RowIdSet::from_sorted(&small_run.lock());
                let large = RowIdSet::from_sorted(&large_run.lock());
                let (gallop, _) = intersect_iters_gallop(small.iter(), large.iter());
                let linear = intersect_iters_linear(small.iter(), large.iter());
                assert_eq!(
                    gallop,
                    vec![7, 20],
                    "driver landing on the large side's frontier missed a match"
                );
                assert_eq!(gallop, linear, "gallop and linear walks disagree");
            })
    });
    // The run-building tree is larger than the default schedule cap;
    // exhaustiveness is not required — every explored schedule must pass.
    report.assert_ok();
    assert!(report.schedules >= 1000);
}

// ---------------------------------------------------------------------------
// Skew-adaptive split handoff (the tentpole's re-partitioning protocol)
// ---------------------------------------------------------------------------

/// Mini-model of the adaptive router's split system transaction. Owner 0
/// holds four rows; a split moves the rows at or above `BOUNDARY` to a new
/// owner 1 and publishes a new routing generation. The real protocol's
/// ordering — move the rows *and* install the owner's redirect in one
/// critical section, only then swap the routing table — is the `correct`
/// variant; the teeth variant publishes the new table first, opening a
/// window where a query routed by the new table finds the child empty.
struct SplitModel {
    /// Routing generation: 0 = everything to owner 0, 1 = split routing.
    generation: CheckedAtomicUsize,
    /// Owner 0: its rows plus the redirect flag a split installs.
    p0: CheckedMutex<(Vec<u64>, bool)>,
    /// Owner 1: the split child's rows.
    p1: CheckedMutex<Vec<u64>>,
}

const BOUNDARY: u64 = 2;

impl SplitModel {
    fn new() -> Self {
        SplitModel {
            generation: CheckedAtomicUsize::new(0),
            p0: CheckedMutex::new((vec![0, 1, 2, 3], false)),
            p1: CheckedMutex::new(Vec::new()),
        }
    }

    /// The split system transaction. `correct` moves rows + installs the
    /// redirect atomically before swapping the table; the buggy variant
    /// swaps first, with the handoff still in flight across a preemption.
    fn split(&self, correct: bool) {
        if !correct {
            self.generation.store(1, Ordering::SeqCst);
            yield_now();
        }
        {
            let mut owner = self.p0.lock();
            let moved: Vec<u64> = owner.0.iter().copied().filter(|&v| v >= BOUNDARY).collect();
            owner.0.retain(|&v| v < BOUNDARY);
            owner.1 = true;
            self.p1.lock().extend(moved);
        }
        if correct {
            self.generation.store(1, Ordering::SeqCst);
        }
    }

    /// A full-range count routed by whichever table generation the query
    /// observes. Old routing sends everything to owner 0, which answers
    /// locally and forwards the moved range through its redirect; new
    /// routing clips the request per owner. Either way the answer must
    /// cover every row exactly once.
    fn count_all(&self) -> usize {
        if self.generation.load(Ordering::SeqCst) == 0 {
            let owner = self.p0.lock();
            let forwarded = if owner.1 { self.p1.lock().len() } else { 0 };
            owner.0.len() + forwarded
        } else {
            let low = self.p0.lock().0.iter().filter(|&&v| v < BOUNDARY).count();
            low + self.p1.lock().len()
        }
    }
}

/// The split handoff is atomic under every schedule: a query racing the
/// re-partition sees exactly the old or the new routing — four rows either
/// way, never a dropped (or doubled) range — and the rows end up disjoint
/// across the two owners.
#[test]
fn split_handoff_query_sees_old_or_new_routing() {
    let report = explore_default(move || {
        let model = Arc::new(SplitModel::new());
        let splitter = Arc::clone(&model);
        let querier = Arc::clone(&model);
        Scenario::new()
            .thread(move || splitter.split(true))
            .thread(move || {
                let n = querier.count_all();
                assert_eq!(n, 4, "query racing the split dropped a key range");
            })
            .finale(move || {
                assert_eq!(model.count_all(), 4, "rows lost by the split");
                let owner = model.p0.lock();
                assert!(
                    owner.0.iter().all(|&v| v < BOUNDARY),
                    "parent kept rows beyond the split boundary"
                );
                assert_eq!(model.p1.lock().len(), 2, "child missing its half");
            })
    });
    report.assert_ok();
    assert!(report.exhausted, "split model should be fully enumerable");
}

/// Teeth: publishing the new routing table before the rows and redirect
/// move lets a new-routed query find the child empty — the dropped-range
/// bug the epoch fence exists to prevent. The explorer must find it.
#[test]
fn split_published_before_handoff_is_caught() {
    let report = explore_default(move || {
        let model = Arc::new(SplitModel::new());
        let splitter = Arc::clone(&model);
        let querier = Arc::clone(&model);
        Scenario::new()
            .thread(move || splitter.split(false))
            .thread(move || {
                let n = querier.count_all();
                assert_eq!(n, 4, "query racing the split dropped a key range");
            })
    });
    let failure = report.expect_failure("panic");
    assert!(
        failure.message.contains("dropped a key range"),
        "failure should come from the dropped-range assert, got: {}",
        failure.message
    );
}

/// The tentpole's new top-of-hierarchy latch levels (Repartition = 1,
/// SnapshotGate = 2, Router = 3 in `aidx_latch::dcheck::Level`) run through
/// the explorer's order tags: the gate-first rebalance takes them strictly
/// downward, and two controllers contending on the full stack must be clean
/// on every schedule.
#[test]
fn repartition_gate_router_levels_order_cleanly() {
    let report = explore_default(move || {
        let repartition = Arc::new(CheckedMutex::ordered((), 1, "repartition"));
        let gate = Arc::new(CheckedMutex::ordered((), 2, "snapshot-gate"));
        let router = Arc::new(CheckedMutex::ordered((), 3, "router"));
        let (r2, g2, t2) = (
            Arc::clone(&repartition),
            Arc::clone(&gate),
            Arc::clone(&router),
        );
        Scenario::new()
            .thread(move || {
                let _r = repartition.lock();
                let _g = gate.lock();
                let _t = router.lock();
            })
            .thread(move || {
                let _r = r2.lock();
                let _g = g2.lock();
                let _t = t2.lock();
            })
    });
    report.assert_ok();
    assert!(
        report.schedules >= 2,
        "both controller orders must be explored"
    );
}

/// Teeth for the new levels: a controller that grabbed the router swap
/// latch before the repartition latch inverts the hierarchy; the order
/// tags must fail the schedule naming both latches.
#[test]
fn router_before_repartition_inversion_is_caught() {
    let report = explore_default(move || {
        let repartition = Arc::new(CheckedMutex::ordered((), 1, "repartition"));
        let router = Arc::new(CheckedMutex::ordered((), 3, "router"));
        Scenario::new().thread(move || {
            let _t = router.lock();
            let _r = repartition.lock(); // inversion: Repartition(1) while holding Router(3)
        })
    });
    let failure = report.expect_failure("latch-order");
    assert!(
        failure.message.contains("router") && failure.message.contains("repartition"),
        "diagnostic should name both latches, got: {}",
        failure.message
    );
}

// ---------------------------------------------------------------------------
// Seeded latch-order inversion (explorer side of the dual-catch criterion)
// ---------------------------------------------------------------------------

/// Order tags mirror the real hierarchy (Piece = 6, Delta = 8 in
/// `aidx_latch::dcheck::Level`). Taking a piece latch while holding the
/// delta lock inverts it; the explorer must fail the schedule with the full
/// acquisition stack. The dcheck half of this criterion is
/// `aidx-latch`'s `seeded_inversion_is_caught_with_trace`.
#[test]
fn seeded_latch_order_inversion_is_caught_by_explorer() {
    let report = explore_default(move || {
        let delta = Arc::new(CheckedMutex::ordered((), 8, "delta"));
        let piece = Arc::new(CheckedMutex::ordered((), 6, "piece-latch"));
        Scenario::new().thread(move || {
            let _d = delta.lock();
            let _p = piece.lock(); // inversion: Piece(6) while holding Delta(8)
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
fn torn_tuple_scenario(lazy_pins: bool, met: Arc<std::sync::atomic::AtomicU64>) -> Scenario {
    let mut engine = TableEngine::new(
        "r",
        vec![
            ("a".into(), vec![5, 1, 7, 3]),
            ("b".into(), vec![50, 10, 70, 30]),
        ],
        TableBackend::Serial(LatchProtocol::Piece),
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

/// Every schedule of one preemption keeps the two selects consistent: a
/// select pins its columns under the writer mutex, which the delete holds
/// from its first column to its last. The schedules must include R1
/// seeing the tuple gone, R2 starting after that, and R2 seeing the
/// tuple before the delete.
#[test]
fn real_table_delete_vs_pinned_selects_never_tears_a_tuple() {
    let met = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let one_preemption = ExploreConfig {
        preemption_bound: Some(1),
        ..capped(5_000)
    };
    let report = explore(one_preemption, || {
        torn_tuple_scenario(false, Arc::clone(&met))
    });
    report.assert_ok();
    assert!(report.exhausted, "one preemption fits under the cap");
    assert_eq!(
        met.load(Ordering::SeqCst),
        0b111,
        "schedules must meet the tuple gone, a select after that, and the tuple still there"
    );
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
        torn_tuple_scenario(true, Arc::clone(&met))
    });
    let failure = report.expect_failure("panic");
    assert!(
        failure.message.contains("torn tuple"),
        "failure should come from the torn-tuple assert, got: {}",
        failure.message
    );
}
