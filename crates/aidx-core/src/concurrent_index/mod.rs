//! The concurrent cracker index — the paper's core contribution.
//!
//! [`ConcurrentCracker`] lets many query threads share one cracker index.
//! Index refinement (cracking) is a purely structural change, so it is
//! coordinated with short-term latches only (Section 3): a *column latch*
//! regime takes one read/write latch over the whole column per operator, and
//! a *piece latch* regime latches only the piece(s) a query actually touches
//! (Section 5.3). The protocol implements the paper's specific techniques:
//!
//! * **Bound re-evaluation after wake-up** (Figure 10): a query that waited
//!   for a piece latch re-checks, once granted, which piece its bound now
//!   falls into — the piece may have been split while it waited — and moves
//!   on to the correct piece if necessary.
//! * **Middle-first waiter scheduling** (Section 5.3 "Optimizations"): the
//!   underlying [`OrderedWaitLatch`] wakes the waiter with the median
//!   bound first so the remaining waiters can run in parallel on the two
//!   halves.
//! * **Conflict avoidance** (Section 3.3): with
//!   [`RefinementPolicy::SkipOnContention`] a query that cannot get a write
//!   latch immediately skips the optional refinement; the piece its bound
//!   falls in becomes an edge of the read, filtered under its read latch,
//!   while the pieces between the two edges are still read unfiltered.
//! * **System transactions** (Sections 3.3–3.4): every query's refinement is
//!   wrapped in an instantly-committing system transaction whose outcome
//!   (complete, early-terminated, abandoned) is tracked.
//! * **Aggregation under read latches**: sums hold a read latch per piece
//!   while scanning it; counts over fully-cracked bounds need no data access
//!   at all. Values never cross crack boundaries, so scanning piece by piece
//!   and releasing each read latch before the next preserves correctness
//!   while maximising concurrency.
//!
//! # Bounded deltas: compaction and piece shrinking
//!
//! Two mechanisms keep the Section 4 pending delta from growing without
//! bound under sustained writes:
//!
//! * **Delta compaction**: once the delta passes a [`CompactionPolicy`]
//!   threshold, the write that tripped it rebuilds the cracker array from
//!   `main + pending inserts − tombstones` in one pass as an
//!   instantly-committing system transaction. The rebuild quiesces the
//!   index through the piece directory's gate (column-latch regime: the
//!   exclusive column latch is also taken, making the quiesce visible to
//!   the protocol's own latch statistics), preserves every existing crack
//!   value — each pending insert lands inside the piece whose key interval
//!   contains it and each boundary shifts by the net row movement below
//!   it, the same fixup `aidx-cracking`'s delta merge applies — and then
//!   installs the rebuilt structure in the directory, retiring every piece
//!   latch, since piece start positions changed meaning.
//! * **Delete-aware piece shrinking**: a crack already holds the write
//!   latch of the piece it reorganises, so before partitioning it sweeps
//!   rows whose values the delta has tombstoned to the piece's tail, turns
//!   that tail into a *hole* (dead slots every scan skips), and retires
//!   the matching tombstones. Because a shrink moves rows between the main
//!   multiset and the delta domain — the one thing the "main is
//!   immutable, one delta snapshot suffices" argument relied on — every
//!   query validates a *shrink epoch* (a seqlock: odd while a reclamation
//!   is in flight) around its main-phase + delta-snapshot pair and retries
//!   on a concurrent reclamation; deletes validate the epoch under the
//!   delta lock before raising a tombstone computed from a possibly-stale
//!   main count. Holes are reclaimed for good by the next compaction.

mod compaction;
mod read;
#[cfg(test)]
mod tests;
mod write;

pub use read::{ReadAnswer, ReadShape, Snapshot};
pub use write::WriteOp;

use crate::compaction::{CompactionMode, CompactionPolicy};
use crate::index::ColumnRead;
use crate::key_runs::KeyRuns;
use crate::metrics::QueryMetrics;
use crate::pending::{DeltaAdjust, PairView, PendingDelta};
use crate::piece_directory::{
    AlreadyCrack, Found, OperationGuard, PieceDirectory, Ranges, Span, Target,
};
use crate::protocol::{LatchProtocol, RefinementPolicy};
use crate::range_partitioned::{choose_splits, BuildRanges};
use crate::rowid_set::{Bits, RowIdSet};
use crate::shared_array::SharedCrackerArray;
use aidx_cracking::{Piece, RowId};
use aidx_latch::dcheck;
use aidx_latch::facade::{self, Mutex, MutexGuard};
use aidx_latch::ordered::{OrderedWaitLatch, OrderedWriteGuard, WaitOutcome};
use aidx_latch::stats::LatchStatsSnapshot;
use aidx_latch::systxn::{SystemTxnManager, SystemTxnStats};
use aidx_obs::{emit, LatchMode, StructureProbe, TraceEvent};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A cracker index shared by concurrent query threads.
#[derive(Debug)]
pub struct ConcurrentCracker {
    data: SharedCrackerArray,
    /// The table of contents, the per-piece latches and the quiesce gate.
    dir: PieceDirectory,
    column_latch: OrderedWaitLatch,
    protocol: LatchProtocol,
    policy: RefinementPolicy,
    compaction: CompactionPolicy,
    /// [`Self::PIVOT_FLOOR`]; a field only so that this crate's tests can
    /// reach the pivot policy on small columns.
    pivot_floor: usize,
    /// [`Self::CRACK_FLOOR`]; a field only so that this crate's tests can
    /// crack small columns, or set other floors.
    crack_floor: usize,
    systxn: SystemTxnManager,
    delta: PendingDelta,
    /// Main-multiset version seqlock for piece shrinking: odd while a
    /// physical reclamation is in flight, bumped to the next even value
    /// when it completes. Readers snapshot an even value before their main
    /// phase and retry if it changed by the time their delta snapshot is
    /// taken; deletes validate it under the delta lock.
    shrink_epoch: facade::AtomicU64,
    /// Serialises shrink critical sections so the epoch's odd/even parity
    /// stays meaningful when cracks on different pieces race.
    shrink_serial: Mutex<()>,
    /// Process-unique id tagging this index's latches in `dcheck`'s
    /// witness graph (no-op unless the feature is on).
    instance: usize,
    /// Number of readers currently in the bounded-retry fallback: while
    /// positive, physical reclamations (piece sweeps and incremental
    /// hole-fills) are deferred, so a reader that lost the seqlock race
    /// too many times is guaranteed to finish on its next attempt instead
    /// of spinning unbounded under a pathological writer stream.
    reclaim_pause: AtomicU64,
    /// Next row id handed to a compacted-in pending insert (survivor rows
    /// keep their original ids).
    next_rowid: AtomicU64,
    cracks: AtomicU64,
    compactions: AtomicU64,
    incremental_steps: AtomicU64,
    /// The key ranges the build cracked at, with their op counters (none
    /// unless built [`ConcurrentCracker::with_cracks`]).
    ranges: BuildRanges,
}

impl ConcurrentCracker {
    /// Builds a concurrent cracker from raw values (row ids positional).
    pub fn from_values(values: Vec<i64>, protocol: LatchProtocol) -> Self {
        let rowids: Vec<RowId> = (0..values.len() as RowId).collect();
        Self::from_rows(values, rowids, protocol)
    }

    /// Builds a concurrent cracker from explicit, aligned `(value, rowid)`
    /// vectors — the table-engine path, where one row-id space spans every
    /// indexed column of a table. Self-assigned row ids (plain
    /// [`ConcurrentCracker::insert`]) continue above the largest given id.
    ///
    /// # Panics
    /// Panics if the vectors differ in length.
    pub fn from_rows(values: Vec<i64>, rowids: Vec<RowId>, protocol: LatchProtocol) -> Self {
        let next_rowid = rowids.iter().max().map(|&r| r as u64 + 1).unwrap_or(0);
        let data = SharedCrackerArray::from_rows(values, rowids);
        let len = data.len();
        let instance = dcheck::instance_id();
        let idx = ConcurrentCracker {
            data,
            dir: PieceDirectory::new(len),
            column_latch: OrderedWaitLatch::new(),
            instance,
            protocol,
            policy: RefinementPolicy::Always,
            compaction: CompactionPolicy::disabled(),
            pivot_floor: Self::PIVOT_FLOOR,
            crack_floor: Self::CRACK_FLOOR,
            systxn: SystemTxnManager::new(),
            delta: PendingDelta::new(),
            shrink_epoch: facade::AtomicU64::new(0),
            shrink_serial: Mutex::new(()),
            reclaim_pause: AtomicU64::new(0),
            next_rowid: AtomicU64::new(next_rowid),
            cracks: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            incremental_steps: AtomicU64::new(0),
            ranges: BuildRanges::default(),
        };
        idx.column_latch
            .set_dcheck_tag(dcheck::Level::Column, instance, "column-latch");
        idx
    }

    /// Sets the refinement policy (builder style).
    pub fn with_policy(mut self, policy: RefinementPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Lowers the pivot policy's floor so small test columns cross it.
    #[cfg(test)]
    pub(crate) fn with_pivot_floor(mut self, rows: usize) -> Self {
        self.pivot_floor = rows;
        self
    }

    /// Sets the read path's crack floor, so that small test columns crack
    /// (`0`) or meet other floors.
    #[cfg(test)]
    pub(crate) fn with_crack_floor(mut self, rows: usize) -> Self {
        self.crack_floor = rows;
        self
    }

    /// Sets the delta compaction policy (builder style). The default is
    /// [`CompactionPolicy::disabled`], which reproduces the unbounded
    /// pre-compaction delta exactly.
    pub fn with_compaction(mut self, compaction: CompactionPolicy) -> Self {
        self.compaction = compaction;
        self
    }

    /// Cracks the array at every key of `splits` before the index is
    /// shared (builder style): a coarse range partitioning done up front,
    /// inside whose ranges reads go on cracking. Each key partitions its
    /// range in place with the branch-free block kernel, the middle key
    /// first and each half recursively, so `k` keys cost O(n log k); the
    /// cracks are then installed as ordinary pieces. Keys may come
    /// unsorted or repeated; a key at or below every row cracks at
    /// position 0, one above every row at the end. No read runs: no pivot
    /// crack, and [`ConcurrentCracker::crack_count`] stays 0. The keys
    /// bound the build ranges, each of which counts the ops it serves
    /// ([`StructureProbe::partition_load`]).
    ///
    /// # Panics
    /// Panics unless the index is as built: one piece and an empty delta.
    pub fn with_cracks(mut self, splits: &[i64]) -> Self {
        assert!(
            self.piece_count() == 1 && self.hole_count() == 0 && self.delta_rows() == 0,
            "build cracks go on an index as built"
        );
        let mut keys = splits.to_vec();
        keys.sort_unstable();
        keys.dedup();
        let mut cracks = Vec::with_capacity(keys.len());
        self.crack_at(0, self.data.len(), &keys, &mut cracks);
        self.dir.split(&cracks);
        self.ranges = BuildRanges::new(keys);
        self
    }

    /// Range-partitions the column as it is built (builder style): cracks
    /// it [`ConcurrentCracker::with_cracks`] at the splits of `ranges`
    /// key ranges (clamped to `1..=len.max(1)`), balanced over a
    /// deterministic sample of its rows.
    ///
    /// # Panics
    /// As [`ConcurrentCracker::with_cracks`].
    pub fn with_ranges(self, ranges: usize) -> Self {
        let splits = choose_splits(self.data.len(), |pos| self.data.value_at(pos), ranges);
        self.with_cracks(&splits)
    }

    /// The split keys of the build ranges, ascending: range `i + 1` starts
    /// at `range_splits()[i]`. Empty for a cracker built without cracks.
    pub fn range_splits(&self) -> &[i64] {
        self.ranges.splits()
    }

    /// Partitions `[start, end)` at the middle of `keys` (ascending), then
    /// each side at its half of the rest, appending the cracks in key
    /// order.
    fn crack_at(&self, start: usize, end: usize, keys: &[i64], cracks: &mut Vec<(i64, usize)>) {
        let Some(&key) = keys.get(keys.len() / 2) else {
            return;
        };
        let (below, above) = (&keys[..keys.len() / 2], &keys[keys.len() / 2 + 1..]);
        let pos = self.data.crack_in_two_range(start, end, key);
        self.crack_at(start, pos, below, cracks);
        cracks.push((key, pos));
        self.crack_at(pos, end, above, cracks);
    }

    /// The delta compaction policy in use.
    pub fn compaction_policy(&self) -> CompactionPolicy {
        self.compaction
    }

    /// Number of entries in the fixed main array. Pending inserted rows and
    /// tombstoned rows are *not* reflected here; see
    /// [`ConcurrentCracker::logical_len`].
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the main array is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Logical row count: live main-array rows (holes excluded) plus
    /// pending inserts minus tombstoned rows. The delta counters are read
    /// in one consistent snapshot; the hole count is read separately, so
    /// the value is exact only in quiescence (like every other aggregate
    /// accessor here).
    pub fn logical_len(&self) -> u64 {
        let live = self.data.len() - self.dir.total_holes();
        let (pending, tombstoned) = self.delta.counters();
        live as u64 + pending - tombstoned
    }

    /// The latch protocol in use.
    pub fn protocol(&self) -> LatchProtocol {
        self.protocol
    }

    /// The refinement policy in use.
    pub fn policy(&self) -> RefinementPolicy {
        self.policy
    }

    /// Number of pieces the index currently has.
    pub fn piece_count(&self) -> usize {
        self.dir.piece_count()
    }

    /// Total cracks performed so far.
    pub fn crack_count(&self) -> u64 {
        self.cracks.load(Ordering::Relaxed)
    }

    /// Rows currently sitting in the pending-insert delta.
    pub fn pending_inserts(&self) -> u64 {
        self.delta.pending_inserts()
    }

    /// Main-array rows currently tombstoned (logically deleted).
    pub fn tombstoned_rows(&self) -> u64 {
        self.delta.tombstoned_rows()
    }

    /// Rows currently sitting in the delta: pending inserts plus
    /// tombstones, the quantity the [`CompactionPolicy`] bounds.
    pub fn delta_rows(&self) -> u64 {
        let (pending, tombstoned) = self.delta.counters();
        pending + tombstoned
    }

    /// Delta compactions (whole-array rebuilds) performed so far.
    pub fn compactions_performed(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
    }

    /// Incremental compaction walk steps performed so far.
    pub fn compaction_steps_performed(&self) -> u64 {
        self.incremental_steps.load(Ordering::Relaxed)
    }

    /// The delta epoch every piece has been compacted through: writes
    /// stamped at or below this epoch are physically reconciled with the
    /// main array everywhere. Advanced piece by piece by the incremental
    /// walk and column-wide by full rebuilds.
    pub fn compacted_through(&self) -> u64 {
        self.dir.compacted_through()
    }

    /// Dead (hole) slots currently awaiting reclamation by the next
    /// compaction.
    pub fn hole_count(&self) -> usize {
        self.dir.total_holes()
    }

    /// Merged latch statistics: piece latches plus the column latch.
    pub fn latch_stats(&self) -> LatchStatsSnapshot {
        let mut stats = self.dir.latch_stats();
        stats.merge(&self.column_latch.stats());
        stats
    }

    /// Per-latch-object wait/conflict attribution: every live piece latch
    /// keyed by its piece start, ascending, then the column latch under
    /// [`TraceEvent::COLUMN_LATCH`] (zeroes under
    /// [`LatchProtocol::None`]: the latch exists but is never taken).
    /// Latches retired by compaction rebuilds are folded into
    /// [`ConcurrentCracker::latch_stats`] but carry no position here.
    pub fn latch_attribution(&self) -> Vec<(u64, LatchStatsSnapshot)> {
        let pieces = self.dir.latch_stats_by_piece().into_iter();
        let mut stats: Vec<_> = pieces.map(|(start, s)| (start as u64, s)).collect();
        stats.push((TraceEvent::COLUMN_LATCH, self.column_latch.stats()));
        stats
    }

    /// Current size of every piece, in positions (dead hole tails
    /// included), in position order.
    pub fn piece_sizes(&self) -> Vec<u64> {
        let pieces = self.dir.live_pieces();
        pieces.iter().map(|(p, _)| p.len() as u64).collect()
    }

    /// One observation of the index's physical structure, for convergence
    /// introspection. Counters are read individually (exact in
    /// quiescence, like every aggregate accessor here).
    pub fn structure_probe(&self) -> StructureProbe {
        let (pending, tombstoned) = self.delta.counters();
        StructureProbe {
            rows: self.logical_len(),
            piece_sizes: self.piece_sizes(),
            hole_rows: self.hole_count() as u64,
            pending_inserts: pending,
            tombstoned_rows: tombstoned,
            live_snapshots: self.live_snapshots() as u64,
            compactions: self.compactions_performed(),
            compaction_steps: self.compaction_steps_performed(),
            partition_load: self.ranges.load(),
            // Candidate-set accounting is per-query (QueryMetrics) and
            // engine-level (TableEngine); a single column reports none.
            candidate_set_bytes: 0,
        }
    }

    /// System-transaction statistics (refinements committed / abandoned /
    /// early-terminated).
    pub fn systxn_stats(&self) -> SystemTxnStats {
        self.systxn.stats()
    }

    /// Locks the shrink-serial mutex, tracked at dcheck level
    /// `ShrinkSerial` (above the delta lock and the TOC).
    fn lock_shrink_serial(&self) -> dcheck::Tracked<MutexGuard<'_, ()>> {
        dcheck::Tracked::new(
            dcheck::Level::ShrinkSerial,
            self.instance,
            "shrink-serial",
            self.shrink_serial.lock(),
        )
    }

    /// Records one latch acquisition's wait into the metrics and, for
    /// contended acquisitions, emits a piece-attributed trace event
    /// (`piece` is the piece start position, or
    /// [`TraceEvent::COLUMN_LATCH`] for the column latch).
    fn note_wait(metrics: &mut QueryMetrics, piece: u64, mode: LatchMode, outcome: WaitOutcome) {
        if let WaitOutcome::Waited(waited) = outcome {
            metrics.conflicts += 1;
            metrics.wait_time += waited;
            emit(TraceEvent::LatchWait {
                piece,
                mode,
                ns: u64::try_from(waited.as_nanos()).unwrap_or(u64::MAX),
            });
        }
    }

    /// Takes the column write latch, queued under `wake_key`.
    fn column_write(&self, wake_key: i64, metrics: &mut QueryMetrics) -> OrderedWriteGuard<'_> {
        let guard = self.column_latch.acquire_write(wake_key);
        let outcome = guard.outcome();
        Self::note_wait(metrics, TraceEvent::COLUMN_LATCH, LatchMode::Write, outcome);
        guard
    }

    /// Registers the operation with the quiesce gate — but only when a
    /// policy-triggered compaction could actually rebuild the array
    /// underneath it. With compaction disabled (the default) the gate is
    /// skipped entirely, so the measured latch protocols pay no extra
    /// shared-cache-line traffic per operation; the policy is fixed
    /// before the index is shared (`with_compaction` needs ownership), so
    /// the decision cannot flip mid-flight.
    fn enter_if_compactable(&self) -> Option<OperationGuard<'_>> {
        self.compaction.is_enabled().then(|| self.dir.enter())
    }

    /// Records one query's (or forced bound's) refinement as an
    /// instantly-committing system transaction of `performed + skipped`
    /// planned steps: committed with the cracks it performed, abandoned if
    /// conflict avoidance skipped them all.
    fn note_refinement(&self, performed: u32, skipped: u32) {
        if performed + skipped == 0 {
            return;
        }
        let mut txn = self.systxn.begin(performed + skipped);
        if performed == 0 {
            txn.abandon();
            return;
        }
        for _ in 0..performed {
            txn.complete_step();
        }
        txn.commit();
    }

    /// Verifies piece/array consistency: the piece directory's own
    /// invariants (piece map, records, hole ledger, watermarks — see
    /// `PieceDirectory::check_invariants`) and the value bounds of every
    /// piece's *live* range (dead tails hold stale values by design), and
    /// the delta against those live slots (see
    /// [`PendingDelta::check_invariants`]). Only meaningful when no other
    /// thread is using the index (tests call this after joining workers).
    pub fn check_invariants(&self) -> bool {
        let (values, rowids) = self.data.snapshot();
        let pieces = self.dir.live_pieces();
        let live_slots = pieces
            .iter()
            .flat_map(|(piece, live_end)| piece.start..*live_end);
        values.len() == rowids.len()
            && self
                .dir
                .check_invariants(values.len(), self.delta.current_epoch())
            && pieces.iter().all(|(piece, live_end)| {
                values[piece.start..*live_end].iter().all(|&v| {
                    piece.low_value.is_none_or(|lo| v >= lo)
                        && piece.high_value.is_none_or(|hi| v < hi)
                })
            })
            && self
                .delta
                .check_invariants(live_slots.map(|slot| (values[slot], rowids[slot])))
    }

    /// A quiescent snapshot of the *live* cracker-array values (dead hole
    /// tails excluded; tests only).
    pub fn snapshot_values(&self) -> Vec<i64> {
        let values = self.data.snapshot().0;
        let pieces = self.dir.live_pieces();
        let live = pieces
            .iter()
            .map(|(p, live_end)| &values[p.start..*live_end]);
        live.flatten().copied().collect()
    }
}

impl ColumnRead for ConcurrentCracker {
    fn read(&self, low: i64, high: i64, shape: ReadShape<'_>) -> (ReadAnswer, QueryMetrics) {
        ConcurrentCracker::read(self, low, high, None, shape)
    }
}
