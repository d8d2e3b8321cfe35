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
//!   underlying [`OrderedWaitLatch`](aidx_latch::OrderedWaitLatch) wakes the
//!   waiter with the median bound first so the remaining waiters can run in
//!   parallel on the two halves.
//! * **Conflict avoidance** (Section 3.3): with
//!   [`RefinementPolicy::SkipOnContention`] a query that cannot get a write
//!   latch immediately skips the optional refinement and answers by
//!   filtering under read latches instead.
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
//!   index through the piece registry's gate (column-latch regime: the
//!   exclusive column latch is also taken, making the quiesce visible to
//!   the protocol's own latch statistics), preserves every existing crack
//!   value — each pending insert lands inside the piece whose key interval
//!   contains it and each boundary shifts by the net row movement below
//!   it, the same fixup `aidx-cracking`'s delta merge applies — and then
//!   resets the piece-latch registry, since piece start positions changed
//!   meaning.
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
mod repartition;
#[cfg(test)]
mod tests;
mod write;

pub use read::{ReadAnswer, ReadShape, Snapshot};
pub use write::WriteOp;

use crate::compaction::{CompactionMode, CompactionPolicy};
use crate::key_runs::KeyRuns;
use crate::metrics::QueryMetrics;
use crate::pending::{DeltaAdjust, PairView, PendingDelta};
use crate::piece_registry::{OperationGuard, PieceLatchRegistry};
use crate::protocol::{LatchProtocol, RefinementPolicy};
use crate::rowid_set::RowIdSet;
use crate::shared_array::SharedCrackerArray;
use aidx_cracking::{Piece, PieceLookup, PieceMap};
use aidx_latch::dcheck;
use aidx_latch::facade::{self, Mutex, MutexGuard};
use aidx_latch::ordered::OrderedWaitLatch;
use aidx_latch::stats::LatchStatsSnapshot;
use aidx_latch::systxn::{SystemTxnManager, SystemTxnStats};
use aidx_obs::{emit, LatchMode, StructureProbe, TraceEvent};
use aidx_storage::{Column, RowId};
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Table-of-contents state guarded by the index latch (a short-held mutex):
/// the piece map plus an auxiliary position index for piece-walk queries
/// and the hole ledger for delete-aware piece shrinking.
#[derive(Debug)]
struct TocState {
    map: PieceMap,
    /// Crack positions in ascending order: position → `(min, max)` crack
    /// value recorded at that position (several crack values share a
    /// position when the piece between them is empty). Lets the
    /// aggregation walk find "the end of the piece starting at position p"
    /// in O(log #cracks), and lets the incremental compactor reconstruct a
    /// piece's *exact* key interval from a position: the piece starting at
    /// `s` holds values `>= max(s)` and `< min(end)`.
    crack_positions: BTreeMap<usize, (i64, i64)>,
    /// Piece start → dead slots at the piece's *tail*: physically
    /// reclaimed tombstoned rows that every scan skips, awaiting the next
    /// compaction. Holes only ever sit at a piece's tail, so the live part
    /// of piece `[s, e)` with `h` holes is `[s, e − h)`.
    holes: BTreeMap<usize, usize>,
    /// Sum of all hole counts (cheap "are there any holes?" probe).
    total_holes: usize,
    /// Piece start → delta epoch the incremental compactor has merged
    /// that piece through. Pieces absent from the map sit at the
    /// column-wide floor (the epoch of the last full rebuild).
    compacted_through: BTreeMap<usize, u64>,
}

impl TocState {
    fn new(len: usize) -> Self {
        TocState {
            map: PieceMap::new(len),
            crack_positions: BTreeMap::new(),
            holes: BTreeMap::new(),
            total_holes: 0,
            compacted_through: BTreeMap::new(),
        }
    }

    fn add_crack(&mut self, value: i64, position: usize) {
        self.map.add_crack(value, position);
        self.crack_positions
            .entry(position)
            .and_modify(|(min, max)| {
                *min = (*min).min(value);
                *max = (*max).max(value);
            })
            .or_insert((value, value));
    }

    /// The piece containing position `pos`, with exact key bounds
    /// reconstructed from the crack-position index (the piece starting at
    /// a crack position holds values `>=` the *largest* crack value there;
    /// its upper bound is the *smallest* crack value at its end).
    fn piece_containing(&self, pos: usize) -> Piece {
        let start_entry = self.crack_positions.range(..=pos).next_back();
        let start = start_entry.map(|(&s, _)| s).unwrap_or(0);
        let low_value = start_entry.map(|(_, &(_, max))| max);
        let end_entry = self.crack_positions.range(pos + 1..).next();
        let end = end_entry.map(|(&e, _)| e).unwrap_or(self.map.array_len());
        let high_value = end_entry.map(|(_, &(min, _))| min);
        Piece {
            start,
            end,
            low_value,
            high_value,
        }
    }

    /// End of the piece starting at `pos`: the smallest crack position
    /// strictly greater than `pos`, or the array length.
    fn piece_end_after(&self, pos: usize) -> usize {
        self.crack_positions
            .range(pos + 1..)
            .next()
            .map(|(&p, _)| p)
            .unwrap_or_else(|| self.map.array_len())
    }

    /// Dead slots at the tail of the piece starting at `piece_start`.
    fn holes_at(&self, piece_start: usize) -> usize {
        self.holes.get(&piece_start).copied().unwrap_or(0)
    }

    /// Dead slots across all pieces starting in `[start, end)`. Valid for
    /// any `[start, end)` that is a union of whole pieces (hole zones
    /// never straddle piece boundaries).
    fn holes_in(&self, start: usize, end: usize) -> usize {
        self.holes.range(start..end).map(|(_, &h)| h).sum()
    }

    /// Records `n` freshly swept dead slots at the tail of the piece
    /// starting at `piece_start`.
    fn add_holes(&mut self, piece_start: usize, n: usize) {
        if n > 0 {
            *self.holes.entry(piece_start).or_insert(0) += n;
            self.total_holes += n;
        }
    }

    /// After a crack split piece `old_start` at `new_start`: the dead tail
    /// (if any) belongs to the upper sub-piece, so its hole-ledger entry
    /// moves; both sub-pieces inherit the original piece's
    /// `compacted_through` watermark.
    fn on_piece_split(&mut self, old_start: usize, new_start: usize) {
        if old_start == new_start {
            return;
        }
        if let Some(h) = self.holes.remove(&old_start) {
            *self.holes.entry(new_start).or_insert(0) += h;
        }
        if let Some(&w) = self.compacted_through.get(&old_start) {
            self.compacted_through.insert(new_start, w);
        }
    }

    /// The live (non-hole) extent of the piece starting at `start` and
    /// physically ending at `end`.
    fn live_end(&self, start: usize, end: usize) -> usize {
        end - self.holes_at(start).min(end - start)
    }
}

/// A cracker index shared by concurrent query threads.
#[derive(Debug)]
pub struct ConcurrentCracker {
    data: SharedCrackerArray,
    toc: Mutex<TocState>,
    registry: PieceLatchRegistry,
    column_latch: OrderedWaitLatch,
    protocol: LatchProtocol,
    policy: RefinementPolicy,
    compaction: CompactionPolicy,
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
    /// Next main-array position the incremental compaction walk resumes
    /// from (wraps at the array length; racing walkers merely duplicate a
    /// piece probe).
    walk_cursor: AtomicUsize,
    /// Delta epoch the last *full* rebuild merged everything through;
    /// pieces without a `compacted_through` entry sit at this floor.
    compacted_floor: AtomicU64,
    /// Lock-free mirror of the hole ledger's total (the toc mutex holds
    /// the truth): lets the hot read paths skip the toc lock entirely in
    /// the common hole-free state. Readers that race a shrink making it
    /// stale are caught by the shrink-epoch validation.
    hole_rows: AtomicU64,
    /// Next row id handed to a compacted-in pending insert (survivor rows
    /// keep their original ids).
    next_rowid: AtomicU64,
    queries: AtomicU64,
    cracks: AtomicU64,
    /// Cracks that routed through the hole-aware gap partition because the
    /// piece carried a dead tail whose first slot served as scratch.
    hole_cracks: AtomicU64,
    inserts: AtomicU64,
    deletes: AtomicU64,
    compactions: AtomicU64,
    incremental_steps: AtomicU64,
    pending_compacted: AtomicU64,
    tombstones_reclaimed: AtomicU64,
    shrinks: AtomicU64,
}

impl ConcurrentCracker {
    /// Builds a concurrent cracker over a copy of a base column.
    pub fn from_column(column: &Column, protocol: LatchProtocol) -> Self {
        Self::from_values(column.values().to_vec(), protocol)
    }

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
            toc: Mutex::new(TocState::new(len)),
            registry: PieceLatchRegistry::new(),
            column_latch: OrderedWaitLatch::new(),
            instance,
            protocol,
            policy: RefinementPolicy::Always,
            compaction: CompactionPolicy::disabled(),
            systxn: SystemTxnManager::new(),
            delta: PendingDelta::new(),
            shrink_epoch: facade::AtomicU64::new(0),
            shrink_serial: Mutex::new(()),
            reclaim_pause: AtomicU64::new(0),
            walk_cursor: AtomicUsize::new(0),
            compacted_floor: AtomicU64::new(0),
            hole_rows: AtomicU64::new(0),
            hole_cracks: AtomicU64::new(0),
            next_rowid: AtomicU64::new(next_rowid),
            queries: AtomicU64::new(0),
            cracks: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            incremental_steps: AtomicU64::new(0),
            pending_compacted: AtomicU64::new(0),
            tombstones_reclaimed: AtomicU64::new(0),
            shrinks: AtomicU64::new(0),
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

    /// Sets the delta compaction policy (builder style). The default is
    /// [`CompactionPolicy::disabled`], which reproduces the unbounded
    /// pre-compaction delta exactly.
    pub fn with_compaction(mut self, compaction: CompactionPolicy) -> Self {
        self.compaction = compaction;
        self
    }

    /// Sets the delta compaction policy on an existing (exclusively owned)
    /// index.
    pub fn set_compaction(&mut self, compaction: CompactionPolicy) {
        self.compaction = compaction;
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
        let live = self.data.len() - self.lock_toc().total_holes;
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
        self.lock_toc().map.piece_count()
    }

    /// Total cracks performed so far.
    pub fn crack_count(&self) -> u64 {
        self.cracks.load(Ordering::Relaxed)
    }

    /// Total queries served so far.
    pub fn queries_served(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Total insert operations applied so far.
    pub fn inserts_applied(&self) -> u64 {
        self.inserts.load(Ordering::Relaxed)
    }

    /// Total delete operations applied so far.
    pub fn deletes_applied(&self) -> u64 {
        self.deletes.load(Ordering::Relaxed)
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
        let floor = self.compacted_floor.load(Ordering::Acquire);
        let toc = self.lock_toc();
        let pieces = toc.map.piece_count();
        if toc.compacted_through.len() < pieces {
            // Some piece has never been visited since the last rebuild.
            return floor;
        }
        let min_entry = toc
            .compacted_through
            .values()
            .copied()
            .min()
            .unwrap_or(floor);
        floor.max(min_entry)
    }

    /// Pending inserted rows physically merged into the main array by
    /// compactions so far.
    pub fn pending_rows_compacted(&self) -> u64 {
        self.pending_compacted.load(Ordering::Relaxed)
    }

    /// Tombstoned rows physically reclaimed so far, by piece shrinks and
    /// compactions together.
    pub fn tombstones_reclaimed(&self) -> u64 {
        self.tombstones_reclaimed.load(Ordering::Relaxed)
    }

    /// Delete-aware piece shrinks performed so far (cracks that swept
    /// tombstoned rows out of their piece).
    pub fn piece_shrinks(&self) -> u64 {
        self.shrinks.load(Ordering::Relaxed)
    }

    /// Dead (hole) slots currently awaiting reclamation by the next
    /// compaction.
    pub fn hole_count(&self) -> usize {
        self.lock_toc().total_holes
    }

    /// Number of cracks that partitioned through the hole-aware gap walk
    /// (the piece had a dead tail to use as scratch) rather than the
    /// classic three-move swap loop.
    pub fn hole_cracks_performed(&self) -> u64 {
        self.hole_cracks.load(Ordering::Relaxed)
    }

    /// Merged latch statistics: piece latches plus the column latch.
    pub fn latch_stats(&self) -> LatchStatsSnapshot {
        let mut stats = self.registry.stats();
        stats.merge(&self.column_latch.stats());
        stats
    }

    /// Per-piece latch statistics for every live piece latch, sorted by
    /// piece start position. Latches retired by compaction rebuilds are
    /// folded into [`ConcurrentCracker::latch_stats`] but carry no
    /// position here.
    pub fn latch_stats_by_piece(&self) -> Vec<(usize, LatchStatsSnapshot)> {
        self.registry.stats_by_piece()
    }

    /// The column latch's own statistics (None-protocol indexes report
    /// zeroes: the latch exists but is never taken).
    pub fn column_latch_stats(&self) -> LatchStatsSnapshot {
        self.column_latch.stats()
    }

    /// Current size of every piece, in positions (dead hole tails
    /// included), in position order.
    pub fn piece_sizes(&self) -> Vec<u64> {
        let toc = self.lock_toc();
        toc.map.pieces().iter().map(|p| p.len() as u64).collect()
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
            partition_load: Vec::new(),
            // Candidate-set accounting is per-query (QueryMetrics) and
            // engine-level (TableEngine); a single column reports none.
            candidate_set_bytes: 0,
            blocks_skipped: 0,
        }
    }

    /// System-transaction statistics (refinements committed / abandoned /
    /// early-terminated).
    pub fn systxn_stats(&self) -> SystemTxnStats {
        self.systxn.stats()
    }

    /// Locks the table of contents, tracked at dcheck level `Toc`
    /// (innermost in the global latch order).
    fn lock_toc(&self) -> dcheck::Tracked<MutexGuard<'_, TocState>> {
        dcheck::Tracked::new(dcheck::Level::Toc, self.instance, "toc", self.toc.lock())
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
    fn note_wait(
        metrics: &mut QueryMetrics,
        piece: u64,
        mode: LatchMode,
        waited: Duration,
        contended: bool,
    ) {
        if contended {
            metrics.conflicts += 1;
            metrics.wait_time += waited;
            emit(TraceEvent::LatchWait {
                piece,
                mode,
                ns: u64::try_from(waited.as_nanos()).unwrap_or(u64::MAX),
            });
        }
    }

    /// Registers the operation with the quiesce gate — but only when a
    /// policy-triggered compaction could actually rebuild the array
    /// underneath it. With compaction disabled (the default) the gate is
    /// skipped entirely, so the measured latch protocols pay no extra
    /// shared-cache-line traffic per operation; the policy is fixed
    /// before the index is shared (`with_compaction`/`set_compaction`
    /// need ownership), so the decision cannot flip mid-flight.
    fn enter_if_compactable(&self) -> Option<OperationGuard<'_>> {
        self.compaction.is_enabled().then(|| self.registry.enter())
    }

    /// Verifies piece/array consistency: the piece map's structure, the
    /// value bounds of every piece's *live* range (dead tails hold stale
    /// values by design), and the hole ledger (each hole zone fits inside
    /// its piece; totals agree). Only meaningful when no other thread is
    /// using the index (tests call this after joining workers).
    pub fn check_invariants(&self) -> bool {
        let toc = self.lock_toc();
        if !toc.map.check_invariants() {
            return false;
        }
        let (values, rowids) = self.data.snapshot();
        if values.len() != rowids.len() {
            return false;
        }
        let pieces = toc.map.pieces();
        for piece in &pieces {
            // Empty pieces share their start with the non-empty piece that
            // physically owns the hole zone; clamping attributes the dead
            // tail to the piece that can actually hold it.
            let holes = toc.holes_at(piece.start).min(piece.len());
            for &v in &values[piece.start..piece.end - holes] {
                if piece.low_value.is_some_and(|lo| v < lo) {
                    return false;
                }
                if piece.high_value.is_some_and(|hi| v >= hi) {
                    return false;
                }
            }
        }
        // Ledger sanity: every entry fits inside the (unique non-empty)
        // piece starting at its key, and the counts add up.
        let mut holes_seen = 0usize;
        for (&start, &h) in &toc.holes {
            if h == 0 {
                continue;
            }
            holes_seen += h;
            if !pieces.iter().any(|p| p.start == start && p.len() >= h) {
                return false;
            }
        }
        holes_seen == toc.total_holes
    }

    /// A quiescent snapshot of the *live* cracker-array values (dead hole
    /// tails excluded; tests only).
    pub fn snapshot_values(&self) -> Vec<i64> {
        let toc = self.lock_toc();
        let values = self.data.snapshot().0;
        if toc.total_holes == 0 {
            return values;
        }
        let mut live = Vec::with_capacity(values.len() - toc.total_holes);
        for piece in toc.map.pieces() {
            let live_end = toc.live_end(piece.start, piece.end);
            live.extend_from_slice(&values[piece.start..live_end]);
        }
        live
    }
}
