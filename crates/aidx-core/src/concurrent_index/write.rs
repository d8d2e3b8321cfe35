//! The write path of [`ConcurrentCracker`]: inserts, deletes, and the
//! delete-aware reclamation (piece shrinking) cracks and deletes perform.

use super::read::{Accumulator, DeltaView, MainPlan};
use super::*;

/// One content-changing operation on a single-column index. Refinement is
/// latch-only side work; these are the few operations that change what the
/// index *contains*, and every backend executes them through one
/// `write(op)` ([`ConcurrentCracker::write`] at the bottom).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOp {
    /// Insert one row. The caller owns row-id uniqueness: a table engine
    /// gives one tuple the same id in every column's index.
    Insert {
        /// The row's key.
        value: i64,
        /// The row's id.
        rowid: RowId,
    },
    /// Delete every row whose key equals `value`.
    Delete {
        /// The doomed key.
        value: i64,
    },
    /// Delete the one row `(value, rowid)` — the positional delete a table
    /// engine issues against every column of a doomed tuple, so exactly
    /// that tuple dies even when other tuples share the value.
    DeleteRow {
        /// The doomed row's key.
        value: i64,
        /// The doomed row's id.
        rowid: RowId,
    },
}

impl WriteOp {
    /// The key the operation addresses — what partitioned backends route
    /// it by.
    pub fn key(&self) -> i64 {
        match *self {
            WriteOp::Insert { value, .. }
            | WriteOp::Delete { value }
            | WriteOp::DeleteRow { value, .. } => value,
        }
    }

    /// The change in logical row count when the operation affected `rows`
    /// rows: what a backend adds to its `len`/size ledgers.
    pub fn len_delta(&self, rows: u64) -> isize {
        match self {
            WriteOp::Insert { .. } => rows as isize,
            WriteOp::Delete { .. } | WriteOp::DeleteRow { .. } => -(rows as isize),
        }
    }
}

impl ConcurrentCracker {
    /// The one write path: applies `op` and returns `(rows affected,
    /// metrics)` — 1 for an insert, the rows removed for a delete.
    ///
    /// An insert lands in the pending delta (the main cracker array keeps
    /// its footprint between compactions) and is folded into every
    /// subsequent query's answer.
    ///
    /// A delete first refines the index at the key's bounds under the
    /// normal latch protocol (merge-on-crack: it performs — and pays for —
    /// exactly the cracks a query for `[value, value + 1)` would), which
    /// pins down exactly *which* main-array rows carry the key. Inside one
    /// shrink-epoch seqlock window it then re-reads those rows and hands
    /// them, with the delete's target, to the delta, which negates the
    /// doomed pending rows and tombstones the doomed main rows in one
    /// atomic step under its latch — so concurrent selects see the whole
    /// delete or none of it. The delete's own cracks made the doomed main
    /// rows contiguous, so they are swept out right away.
    ///
    /// Either way, if the write pushed the delta past the compaction
    /// threshold, this write pays for the merge.
    pub fn write(&self, op: WriteOp) -> (u64, QueryMetrics) {
        let start = Instant::now();
        let mut metrics = QueryMetrics::default();
        let affected = match op {
            WriteOp::Insert { value, rowid } => {
                self.inserts.fetch_add(1, Ordering::Relaxed);
                metrics.inserts_applied = 1;
                // Self-assigned ids must never collide with externally
                // assigned ones, so the counter stays past the largest seen.
                self.next_rowid
                    .fetch_max(rowid as u64 + 1, Ordering::Relaxed);
                let delta_rows = self.delta.insert_row(value, rowid);
                self.maybe_compact_with(delta_rows, &mut metrics);
                1
            }
            WriteOp::Delete { value } | WriteOp::DeleteRow { value, .. } => {
                self.deletes.fetch_add(1, Ordering::Relaxed);
                metrics.deletes_applied = 1;
                let only = match op {
                    WriteOp::DeleteRow { rowid, .. } => Some(rowid),
                    _ => None,
                };
                let gate = self.enter_if_compactable();
                let key_rows = (!self.data.is_empty()).then(|| self.plan_key(value, &mut metrics));
                // The collected row set is exact only against a main
                // multiset no reclamation has touched since it was taken:
                // the delta validates the shrink epoch under its lock, and
                // a lost race recollects (the bounds are cracks already, so
                // a retry re-reads one small piece).
                let (from_pending, newly) = self.seqlock_retry(&mut metrics, |attempt, valid| {
                    let main = key_rows.map_or_else(Vec::new, |p| self.main_rows(p, attempt));
                    self.delta.apply_delete(value, only, &main, valid)
                });
                if newly > 0 {
                    // Delete-aware piece shrinking: re-latch the key's
                    // piece — the bound cracks left `value`'s rows
                    // contiguous in exactly one, since no crack value lies
                    // strictly between `value` and `value + 1` — and retire
                    // the tombstones just raised.
                    let sweep = |piece: &Piece, _: &mut QueryMetrics| {
                        self.shrink_piece_locked(piece);
                    };
                    let always = RefinementPolicy::Always;
                    self.write_piece(Target::Key(value), always, &mut metrics, sweep)
                        .done();
                }
                // The trigger runs outside the operation's own gate entry.
                drop(gate);
                self.maybe_compact(&mut metrics);
                from_pending + newly
            }
        };
        metrics.result_count = affected;
        metrics.total = start.elapsed();
        (affected, metrics)
    }

    /// Inserts one row with the given key, self-assigning a fresh row id.
    pub fn insert(&self, value: i64) -> QueryMetrics {
        let rowid = self.next_rowid.fetch_add(1, Ordering::Relaxed) as RowId;
        self.insert_row(value, rowid)
    }

    /// [`WriteOp::Insert`]: inserts one row with an externally assigned row
    /// id.
    pub fn insert_row(&self, value: i64, rowid: RowId) -> QueryMetrics {
        self.write(WriteOp::Insert { value, rowid }).1
    }

    /// [`WriteOp::Delete`]: deletes every row whose key equals `value`,
    /// returning how many rows were removed.
    pub fn delete(&self, value: i64) -> (u64, QueryMetrics) {
        self.write(WriteOp::Delete { value })
    }

    /// [`WriteOp::DeleteRow`]: deletes the row `(value, rowid)`, returning
    /// `(rows removed — 0 or 1, metrics)`.
    pub fn delete_row(&self, value: i64, rowid: RowId) -> (u64, QueryMetrics) {
        self.write(WriteOp::DeleteRow { value, rowid })
    }

    /// Refines both bounds of `[value, value + 1)` into cracks (deletes are
    /// mandatory writes, so conflict avoidance does not apply): the
    /// returned plan covers exactly the main-array rows carrying `value`.
    fn plan_key(&self, value: i64, metrics: &mut QueryMetrics) -> MainPlan {
        let start = self.force_bound(value, metrics);
        let end = match value.checked_add(1) {
            Some(next) => self.force_bound(next, metrics),
            None => self.data.len(),
        };
        MainPlan::Exact { start, end }
    }

    /// The ids of the *live* main-array rows of `plan`, read under the
    /// protocol's read latches (dead hole tails skipped).
    fn main_rows(&self, plan: MainPlan, metrics: &mut QueryMetrics) -> Vec<RowId> {
        let mut rows = Accumulator::RowIds(Vec::new());
        self.walk(plan, (0, 0), &mut rows, metrics);
        // No delta to fold: the delete applies it under the delta lock.
        rows.finish(DeltaView::Rows(PairView::default()), metrics)
            .into_rowids()
    }

    /// Delete-aware piece shrinking (the caller holds the write latch — or
    /// exclusive column access — covering `piece`): moves every row the
    /// delta has tombstoned out of the piece's live range into its dead
    /// tail, retires the matching tombstones, and records the new holes.
    /// Returns `(live end, rows swept)` — the live end is exact whether or
    /// not anything was swept.
    ///
    /// The reclamation is stamped with the shrink epoch (odd while in
    /// flight) so concurrent readers and deletes — whose main phase and
    /// delta snapshot are taken under different locks — detect that rows
    /// moved between the main multiset and the delta domain and retry.
    /// While a bounded-retry reader holds the reclaim pause, the sweep is
    /// deferred (reclamation is always opportunistic).
    pub(super) fn shrink_piece_locked(&self, piece: &Piece) -> (usize, usize) {
        // Fast path for the read-only steady state: two lock-free probes
        // and no lock at all. This piece's holes cannot change under our
        // write latch (a prior shrink of it released that same latch, so
        // its hole-mirror increment is visible to us), and a stale
        // tombstone miss merely defers reclamation to a later crack.
        let live_end = self.dir.live_end(piece);
        if !self.delta.has_tombstones() {
            return (live_end, 0);
        }
        let doomed = self
            .delta
            .tombstone_rows_in(piece.low_value, piece.high_value);
        if doomed.is_empty() {
            return (live_end, 0);
        }
        // Serialise reclamations so epoch parity stays meaningful when
        // cracks on different pieces race.
        let _serial = self.lock_shrink_serial();
        if self.reclaim_pause.load(Ordering::Acquire) > 0 {
            // A reader in the bounded fallback is mid-pass: defer.
            return (live_end, 0);
        }
        self.shrink_epoch.fetch_add(1, Ordering::AcqRel); // odd: in flight
        let doomed_ids: HashSet<RowId> = doomed.values().flatten().copied().collect();
        let (new_live_end, removed) = self.data.sweep_rowids(piece.start, live_end, &doomed_ids);
        let moved = removed.len();
        if moved > 0 {
            let retired = self.delta.retire_tombstones(&removed);
            debug_assert_eq!(retired as usize, moved, "tombstones are exact");
            self.dir.add_holes(piece.start, moved);
            self.shrinks.fetch_add(1, Ordering::Relaxed);
            self.tombstones_reclaimed
                .fetch_add(moved as u64, Ordering::Relaxed);
        }
        self.shrink_epoch.fetch_add(1, Ordering::AcqRel); // even: done
        (new_live_end, moved)
    }
}
