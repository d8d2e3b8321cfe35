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
use aidx_latch::facade::{Mutex, MutexGuard};
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

/// How one query bound was resolved.
#[derive(Debug, Clone, Copy)]
enum BoundResolution {
    /// The bound is (now) an exact crack; qualifying values start/stop here.
    Exact(usize),
    /// Refinement was skipped (conflict avoidance); the bound lies somewhere
    /// inside this piece, which must be filtered during aggregation.
    SkippedInPiece(Piece),
}

/// The main-array part of one query, produced by the (cracking) plan phase
/// and consumed — possibly several times, if a concurrent reclamation
/// forces a retry — by the aggregation phase. Positions stay valid across
/// retries: cracks never move, and compaction (which would move them) is
/// excluded by the operation's quiesce-gate guard.
#[derive(Debug, Clone, Copy)]
enum MainPlan {
    /// Both bounds are cracks: aggregate `[start, end)` positionally.
    Exact {
        /// First qualifying position.
        start: usize,
        /// One past the last qualifying position.
        end: usize,
    },
    /// Refinement was skipped for at least one bound: scan `[start, end)`
    /// (whole pieces) filtering by the original query bounds.
    Filtered {
        /// Start of the first (conservatively included) piece.
        start: usize,
        /// End of the last (conservatively included) piece.
        end: usize,
    },
}

/// What one read accumulates over the qualifying pieces. Every shape runs
/// the same plan → piece walk → delta fold ([`ConcurrentCracker::read`]);
/// only the per-piece accumulator differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadShape {
    /// Q1: how many rows qualify. With both bounds resolved into cracks
    /// the count is *positional* — range width minus recorded holes — and
    /// touches neither the data nor a read latch.
    Count,
    /// Q2: the sum of the qualifying values.
    Sum,
    /// The qualifying row ids as one flat ascending vector — the
    /// uncompressed reference the other row shapes are checked against.
    RowIds,
    /// The qualifying row ids as a block-compressed [`RowIdSet`]: each
    /// visited piece yields one sorted run, and the (position-disjoint,
    /// hence rowid-disjoint) runs are k-way merged straight into the
    /// encoder — no flat vector of the whole candidate set ever exists.
    RowIdSet,
    /// The qualifying `(key, rowid)` pairs as lazily-merged [`KeyRuns`]:
    /// each visited piece contributes one *raw* run in its physical order
    /// and nothing is sorted here — the consuming
    /// [`KeyRunsIter`](crate::key_runs::KeyRunsIter) pays for a run only
    /// when its merge frontier reaches the run's key envelope.
    KeyRuns,
}

/// The answer to one read, by [`ReadShape`].
#[derive(Debug)]
pub enum ReadAnswer {
    /// [`ReadShape::Count`] or [`ReadShape::Sum`].
    Agg(i128),
    /// [`ReadShape::RowIds`], sorted ascending.
    RowIds(Vec<RowId>),
    /// [`ReadShape::RowIdSet`].
    Set(RowIdSet),
    /// [`ReadShape::KeyRuns`].
    Runs(KeyRuns),
}

impl ReadAnswer {
    /// The answer of `shape` over nothing.
    pub fn empty(shape: ReadShape) -> Self {
        Self::merge(shape, []).0
    }

    /// Fan-in of one `shape` read executed across chunks or partitions:
    /// partial answers are summed / concatenated and re-sorted / k-way
    /// merged without decoding / absorbed run by run (key runs stay
    /// unsorted), the workers' metrics merge as
    /// [`QueryMetrics::merge_parallel`], and the result size and
    /// candidate-set footprint are those of the *merged* answer the caller
    /// receives, not the sum of the transient parts. Callers that know the
    /// fan-out's wall-clock overwrite `total`.
    ///
    /// # Panics
    /// Panics if a part's variant does not match `shape`.
    pub fn merge(
        shape: ReadShape,
        parts: impl IntoIterator<Item = (ReadAnswer, QueryMetrics)>,
    ) -> (ReadAnswer, QueryMetrics) {
        let (answers, part_metrics): (Vec<ReadAnswer>, Vec<QueryMetrics>) =
            parts.into_iter().unzip();
        let answers = answers.into_iter();
        let merged = match shape {
            ReadShape::Count | ReadShape::Sum => {
                ReadAnswer::Agg(answers.map(ReadAnswer::into_agg).sum())
            }
            ReadShape::RowIds => {
                let mut rows: Vec<RowId> = answers.flat_map(ReadAnswer::into_rowids).collect();
                rows.sort_unstable();
                ReadAnswer::RowIds(rows)
            }
            ReadShape::RowIdSet => {
                let sets: Vec<RowIdSet> = answers.map(ReadAnswer::into_set).collect();
                ReadAnswer::Set(RowIdSet::merge_sets(&sets))
            }
            ReadShape::KeyRuns => {
                let mut runs = KeyRuns::default();
                answers.for_each(|part| runs.absorb(part.into_runs()));
                ReadAnswer::Runs(runs)
            }
        };
        let mut metrics = QueryMetrics::merge_parallel(part_metrics);
        merged.stamp(&mut metrics);
        (merged, metrics)
    }

    /// Rows in a row-carrying answer; `None` for aggregates, whose row
    /// count travels in [`QueryMetrics::result_count`] instead.
    pub fn rows(&self) -> Option<u64> {
        match self {
            ReadAnswer::Agg(_) => None,
            ReadAnswer::RowIds(rows) => Some(rows.len() as u64),
            ReadAnswer::Set(set) => Some(set.len() as u64),
            ReadAnswer::Runs(runs) => Some(runs.total_rows() as u64),
        }
    }

    /// Records this answer's size (and compressed footprint) in `metrics`.
    fn stamp(&self, metrics: &mut QueryMetrics) {
        if let Some(rows) = self.rows() {
            metrics.result_count = rows;
        }
        if let ReadAnswer::Set(set) = self {
            metrics.candidate_set_bytes = set.heap_bytes() as u64;
        }
    }

    /// The aggregate value. Panics unless the read was a count or a sum.
    pub fn into_agg(self) -> i128 {
        match self {
            ReadAnswer::Agg(value) => value,
            other => panic!("expected an aggregate answer, got {other:?}"),
        }
    }

    /// The flat row ids. Panics unless the read was [`ReadShape::RowIds`].
    pub fn into_rowids(self) -> Vec<RowId> {
        match self {
            ReadAnswer::RowIds(rows) => rows,
            other => panic!("expected a flat rowid answer, got {other:?}"),
        }
    }

    /// The compressed set. Panics unless the read was
    /// [`ReadShape::RowIdSet`].
    pub fn into_set(self) -> RowIdSet {
        match self {
            ReadAnswer::Set(set) => set,
            other => panic!("expected a rowid-set answer, got {other:?}"),
        }
    }

    /// The key runs. Panics unless the read was [`ReadShape::KeyRuns`].
    pub fn into_runs(self) -> KeyRuns {
        match self {
            ReadAnswer::Runs(runs) => runs,
            other => panic!("expected a key-runs answer, got {other:?}"),
        }
    }
}

/// What one read accumulates while the walk feeds it latched pieces — one
/// variant per [`ReadShape`]. Row shapes keep one run per piece (the
/// compressed encoder and the lazy join merge both want the runs apart);
/// the flat shape is the same walk with the runs concatenated.
enum Accumulator {
    Count(u64),
    Sum { rows: u64, sum: i128 },
    RowIds(Vec<RowId>),
    IdRuns(Vec<Vec<RowId>>),
    PairRuns(Vec<Vec<(i64, RowId)>>),
}

/// The delta's contribution to one read, snapshotted inside the seqlock
/// window and folded only once the window validated.
enum DeltaView {
    Counts(DeltaAdjust),
    Rows(PairView),
}

impl Accumulator {
    fn new(shape: ReadShape) -> Self {
        match shape {
            ReadShape::Count => Accumulator::Count(0),
            ReadShape::Sum => Accumulator::Sum { rows: 0, sum: 0 },
            ReadShape::RowIds => Accumulator::RowIds(Vec::new()),
            ReadShape::RowIdSet => Accumulator::IdRuns(Vec::new()),
            ReadShape::KeyRuns => Accumulator::PairRuns(Vec::new()),
        }
    }

    /// Aggregates do not care where one piece ends and the next begins.
    fn is_aggregate(&self) -> bool {
        matches!(self, Accumulator::Count(_) | Accumulator::Sum { .. })
    }

    /// Folds in the live range `[start, end)` — one piece, or for
    /// aggregates any hole-free union of pieces — optionally filtered by
    /// the original query bounds. Caller holds latches covering the range.
    fn feed(
        &mut self,
        data: &SharedCrackerArray,
        start: usize,
        end: usize,
        filter: Option<(i64, i64)>,
    ) {
        let pairs = || match filter {
            None => data.pairs_in_range(start, end),
            Some((low, high)) => data.pairs_filtered(start, end, low, high),
        };
        let rowids = || match filter {
            None => data.rowids_in_range(start, end),
            Some(_) => pairs().into_iter().map(|(_, rowid)| rowid).collect(),
        };
        match self {
            Accumulator::Count(rows) => {
                *rows += match filter {
                    None => (end - start) as u64,
                    Some((low, high)) => data.count_filtered(start, end, low, high),
                }
            }
            Accumulator::Sum { rows, sum } => match filter {
                None => {
                    *rows += (end - start) as u64;
                    *sum += data.sum_range(start, end);
                }
                Some((low, high)) => {
                    *rows += data.count_filtered(start, end, low, high);
                    *sum += data.sum_filtered(start, end, low, high);
                }
            },
            Accumulator::RowIds(out) => out.extend(rowids()),
            Accumulator::IdRuns(runs) => runs.push(rowids()),
            Accumulator::PairRuns(runs) => runs.push(pairs()),
        }
    }

    /// Folds the delta view into the main-array accumulation: logical
    /// contents are always `live main + pending inserts − tombstones` (at
    /// the snapshot epoch, for snapshot reads). Aggregates record their
    /// logical row count in `metrics`; row answers carry their own.
    fn finish(self, view: DeltaView, metrics: &mut QueryMetrics) -> ReadAnswer {
        match (self, view) {
            (Accumulator::Count(rows), DeltaView::Counts(adjust)) => {
                let count = (rows + adjust.insert_count).saturating_sub(adjust.tombstone_count);
                metrics.result_count = count;
                ReadAnswer::Agg(count as i128)
            }
            (Accumulator::Sum { rows, sum }, DeltaView::Counts(adjust)) => {
                metrics.result_count =
                    (rows + adjust.insert_count).saturating_sub(adjust.tombstone_count);
                ReadAnswer::Agg(sum + adjust.insert_sum - adjust.tombstone_sum)
            }
            (Accumulator::RowIds(mut rows), DeltaView::Rows(view)) => {
                if !view.hidden.is_empty() {
                    rows.retain(|rowid| !view.hidden.contains(rowid));
                }
                rows.extend(view.extra.into_iter().map(|(_, rowid)| rowid));
                rows.sort_unstable();
                ReadAnswer::RowIds(rows)
            }
            (Accumulator::IdRuns(mut runs), DeltaView::Rows(view)) => {
                for run in &mut runs {
                    if !view.hidden.is_empty() {
                        run.retain(|rowid| !view.hidden.contains(rowid));
                    }
                    run.sort_unstable();
                }
                let mut extra: Vec<RowId> =
                    view.extra.into_iter().map(|(_, rowid)| rowid).collect();
                extra.sort_unstable();
                runs.push(extra);
                ReadAnswer::Set(RowIdSet::from_runs(runs))
            }
            (Accumulator::PairRuns(runs), DeltaView::Rows(view)) => {
                let mut out = KeyRuns::default();
                for mut run in runs {
                    if !view.hidden.is_empty() {
                        run.retain(|(_, rowid)| !view.hidden.contains(rowid));
                    }
                    out.push_run(run);
                }
                // The delta's rows (pending inserts / snapshot ghosts)
                // form one additional, pre-sorted run.
                let mut extra = view.extra;
                extra.sort_unstable();
                out.push_run(extra);
                ReadAnswer::Runs(out)
            }
            _ => unreachable!("aggregates fold counts, row shapes fold rows"),
        }
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
    shrink_epoch: AtomicU64,
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

/// A registered snapshot of a [`ConcurrentCracker`]: reads through the
/// handle see exactly `main@epoch + delta≤epoch` — the column as of the
/// moment [`ConcurrentCracker::snapshot`] was called — no matter how many
/// writes, piece shrinks, or (incremental or full) compactions race or
/// complete in between. Dropping the handle releases the registration and
/// lets the delta garbage-collect the history kept on its behalf.
#[derive(Debug)]
pub struct Snapshot<'a> {
    idx: &'a ConcurrentCracker,
    epoch: u64,
}

impl Snapshot<'_> {
    /// The column epoch this snapshot reads at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// [`ConcurrentCracker::read`] frozen at the snapshot epoch.
    pub fn read(&self, low: i64, high: i64, shape: ReadShape) -> (ReadAnswer, QueryMetrics) {
        self.idx.read(low, high, Some(self.epoch), shape)
    }

    /// Q1 at the snapshot epoch: count of values in `[low, high)`.
    pub fn count(&self, low: i64, high: i64) -> (u64, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::Count);
        (answer.into_agg() as u64, metrics)
    }

    /// Q2 at the snapshot epoch: sum of values in `[low, high)`.
    pub fn sum(&self, low: i64, high: i64) -> (i128, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::Sum);
        (answer.into_agg(), metrics)
    }

    /// Row ids of the rows with values in `[low, high)` as of the
    /// snapshot epoch (sorted ascending): rows inserted or physically
    /// placed after the epoch are invisible, rows deleted or reclaimed
    /// after it are restored (ghosts).
    pub fn rowids(&self, low: i64, high: i64) -> (Vec<RowId>, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::RowIds);
        (answer.into_rowids(), metrics)
    }

    /// As [`Snapshot::rowids`], but materialised as a compressed
    /// [`RowIdSet`] built from per-piece sorted runs.
    pub fn rowid_set(&self, low: i64, high: i64) -> (RowIdSet, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::RowIdSet);
        (answer.into_set(), metrics)
    }

    /// As [`Snapshot::rowids`], but as raw per-piece `(key, rowid)`
    /// [`KeyRuns`] (the join-side read).
    pub fn key_runs(&self, low: i64, high: i64) -> (KeyRuns, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::KeyRuns);
        (answer.into_runs(), metrics)
    }
}

impl Drop for Snapshot<'_> {
    fn drop(&mut self) {
        self.idx.release_snapshot_epoch(self.epoch);
    }
}

/// RAII guard for the bounded-retry fallback: physical reclamations are
/// deferred while at least one of these is live.
#[derive(Debug)]
struct ReclaimPauseGuard<'a> {
    idx: &'a ConcurrentCracker,
}

impl Drop for ReclaimPauseGuard<'_> {
    fn drop(&mut self) {
        self.idx.reclaim_pause.fetch_sub(1, Ordering::AcqRel);
    }
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
            shrink_epoch: AtomicU64::new(0),
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

    /// Q1: count of values in `[low, high)`, refining the index as a side
    /// effect. Returns the count and the query's metrics breakdown.
    pub fn count(&self, low: i64, high: i64) -> (u64, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, None, ReadShape::Count);
        (answer.into_agg() as u64, metrics)
    }

    /// Q2: sum of values in `[low, high)`, refining the index as a side
    /// effect. Returns the sum and the query's metrics breakdown.
    pub fn sum(&self, low: i64, high: i64) -> (i128, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, None, ReadShape::Sum);
        (answer.into_agg(), metrics)
    }

    /// Opens a snapshot at the current column epoch. Reads through the
    /// returned handle are frozen at that epoch — concurrent inserts,
    /// deletes, piece shrinks, and compaction steps (incremental or full)
    /// are all invisible to them — while still refining the index like any
    /// other query.
    pub fn snapshot(&self) -> Snapshot<'_> {
        Snapshot {
            idx: self,
            epoch: self.register_snapshot_epoch(),
        }
    }

    /// Registers a snapshot at the current column epoch and returns it.
    /// Raw building block for the RAII [`ConcurrentCracker::snapshot`];
    /// parallel wrappers that manage many chunk/partition epochs at once
    /// use this pair directly. Every registration must be matched by a
    /// [`ConcurrentCracker::release_snapshot_epoch`].
    pub fn register_snapshot_epoch(&self) -> u64 {
        self.delta.register_snapshot()
    }

    /// Releases one snapshot registration taken by
    /// [`ConcurrentCracker::register_snapshot_epoch`].
    pub fn release_snapshot_epoch(&self, epoch: u64) {
        self.delta.release_snapshot(epoch);
    }

    /// Number of currently registered snapshot handles.
    pub fn live_snapshots(&self) -> usize {
        self.delta.live_snapshots()
    }

    /// The current column epoch (advanced by every insert/delete).
    pub fn current_epoch(&self) -> u64 {
        self.delta.current_epoch()
    }

    /// Row ids of every live row whose value falls in `[low, high)`,
    /// sorted ascending, refining the index as a side effect exactly like
    /// a count/sum query. This is the rowid-set read a table engine
    /// intersects across columns for multi-column conjunctive selections:
    /// physical reorganisation (cracks, shrinks, compaction steps, full
    /// rebuilds) never changes the answer, because every row carries its
    /// id through every swap.
    pub fn select_rowids(&self, low: i64, high: i64) -> (Vec<RowId>, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, None, ReadShape::RowIds);
        (answer.into_rowids(), metrics)
    }

    /// As [`ConcurrentCracker::select_rowids`], but materialised as a
    /// block-compressed [`RowIdSet`] ([`ReadShape::RowIdSet`]);
    /// `metrics.candidate_set_bytes` records the compressed footprint.
    pub fn select_rowid_set(&self, low: i64, high: i64) -> (RowIdSet, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, None, ReadShape::RowIdSet);
        (answer.into_set(), metrics)
    }

    /// Live `(key, rowid)` pairs of `[low, high)` as lazily-merged
    /// [`KeyRuns`] ([`ReadShape::KeyRuns`]) — the substrate of the gallop
    /// equi-join, where seeks discard whole off-frontier runs unsorted.
    pub fn select_key_runs(&self, low: i64, high: i64) -> (KeyRuns, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, None, ReadShape::KeyRuns);
        (answer.into_runs(), metrics)
    }

    /// Inserts one row with the given key, self-assigning a fresh row id.
    /// The row lands in the pending delta (the main cracker array keeps
    /// its footprint between compactions) and is folded into every
    /// subsequent query's answer; if the insert pushes the delta past the
    /// compaction threshold, this write pays for the rebuild.
    pub fn insert(&self, value: i64) -> QueryMetrics {
        let rowid = self.next_rowid.fetch_add(1, Ordering::Relaxed) as RowId;
        self.insert_row(value, rowid)
    }

    /// Inserts one row with the given key and an externally assigned row
    /// id — the table-engine path, where one tuple's row id must be the
    /// same in every column's cracker. The caller owns row-id uniqueness.
    pub fn insert_row(&self, value: i64, rowid: RowId) -> QueryMetrics {
        let start = Instant::now();
        self.inserts.fetch_add(1, Ordering::Relaxed);
        // Self-assigned ids must never collide with externally assigned
        // ones, so the counter always stays past the largest id seen.
        self.next_rowid
            .fetch_max(rowid as u64 + 1, Ordering::Relaxed);
        let delta_rows = self.delta.insert_row(value, rowid);
        let mut metrics = QueryMetrics {
            inserts_applied: 1,
            result_count: 1,
            ..QueryMetrics::default()
        };
        self.maybe_compact_with(delta_rows, &mut metrics);
        metrics.total = start.elapsed();
        metrics
    }

    /// Deletes every row whose key equals `value`, returning how many rows
    /// were removed. The index is first refined at the key's bounds under
    /// the normal latch protocol (merge-on-crack: the delete performs —
    /// and pays for — exactly the cracks a query for `[value, value + 1)`
    /// would), which pins down exactly *which* main-array rows carry the
    /// key; then the delta drops the key's pending inserts and tombstones
    /// those rows in one atomic step, so concurrent selects see the whole
    /// delete or none of it.
    pub fn delete(&self, value: i64) -> (u64, QueryMetrics) {
        let start = Instant::now();
        self.deletes.fetch_add(1, Ordering::Relaxed);
        let mut metrics = QueryMetrics {
            deletes_applied: 1,
            ..QueryMetrics::default()
        };
        let (from_pending, newly) = {
            let _op = self.enter_if_compactable();
            if self.data.is_empty() {
                self.delta.apply_delete(value, &[])
            } else {
                // The collected row set is exact only against a main
                // multiset no reclamation has touched since it was taken:
                // validate the shrink epoch under the delta lock and
                // recollect on a race (the bounds are cracks after the
                // first pass, so a retry re-reads one small piece).
                // Retries are bounded the same way as reads: past the
                // cap, pause reclamations and the set can no longer go
                // stale.
                let mut failures = 0u32;
                let (from_pending, newly) = loop {
                    let paused =
                        (failures >= Self::SEQLOCK_RETRY_CAP).then(|| self.pause_reclaims());
                    let epoch = self.seq_read_epoch();
                    let doomed = self.main_rows_exact(value, &mut metrics);
                    let applied = self.delta.apply_delete_validated(value, &doomed, || {
                        self.seq_read_valid(epoch, paused.is_some())
                    });
                    if let Some(result) = applied {
                        break result;
                    }
                    failures += 1;
                    metrics.snapshot_retries = metrics.snapshot_retries.saturating_add(1);
                    emit(TraceEvent::SnapshotRetry { attempt: failures });
                };
                if newly > 0 {
                    // The delete's own cracks made the doomed rows
                    // contiguous: re-latch that piece and sweep them out
                    // right away (delete-aware piece shrinking), retiring
                    // the tombstones this very delete raised.
                    self.reclaim_key_piece(value, &mut metrics);
                }
                (from_pending, newly)
            }
        };
        let removed = from_pending + newly;
        metrics.result_count = removed;
        self.maybe_compact(&mut metrics);
        metrics.total = start.elapsed();
        (removed, metrics)
    }

    /// Deletes one specific row `(value, rowid)` — the positional delete a
    /// table engine issues against every column of a doomed tuple, so
    /// exactly that tuple dies even when other tuples share the value.
    /// Refines the index at the key's bounds like
    /// [`ConcurrentCracker::delete`], decides under the shrink-epoch
    /// seqlock whether the row currently lives in the main array or the
    /// pending delta, and applies the removal atomically under the delta
    /// latch. Returns `(rows removed — 0 or 1, metrics)`.
    pub fn delete_row(&self, value: i64, rowid: RowId) -> (u64, QueryMetrics) {
        let start = Instant::now();
        self.deletes.fetch_add(1, Ordering::Relaxed);
        let mut metrics = QueryMetrics {
            deletes_applied: 1,
            ..QueryMetrics::default()
        };
        let removed = {
            let _op = self.enter_if_compactable();
            if self.data.is_empty() {
                self.delta
                    .apply_delete_row_validated(value, rowid, false, || true)
                    .expect("validation closure always passes")
            } else {
                let mut failures = 0u32;
                let (removed, in_main) = loop {
                    let paused =
                        (failures >= Self::SEQLOCK_RETRY_CAP).then(|| self.pause_reclaims());
                    let epoch = self.seq_read_epoch();
                    let in_main = self.main_rows_exact(value, &mut metrics).contains(&rowid);
                    let applied =
                        self.delta
                            .apply_delete_row_validated(value, rowid, in_main, || {
                                self.seq_read_valid(epoch, paused.is_some())
                            });
                    if let Some(removed) = applied {
                        break (removed, in_main);
                    }
                    failures += 1;
                    metrics.snapshot_retries = metrics.snapshot_retries.saturating_add(1);
                    emit(TraceEvent::SnapshotRetry { attempt: failures });
                };
                if removed > 0 && in_main {
                    self.reclaim_key_piece(value, &mut metrics);
                }
                removed
            }
        };
        metrics.result_count = removed;
        self.maybe_compact(&mut metrics);
        metrics.total = start.elapsed();
        (removed, metrics)
    }

    /// The exact set of *live* main-array rows carrying `value`: refines
    /// both bounds into cracks (deletes are mandatory writes, so conflict
    /// avoidance does not apply), then reads the doomed rows' ids under
    /// the protocol's read latches, skipping dead hole tails.
    fn main_rows_exact(&self, value: i64, metrics: &mut QueryMetrics) -> Vec<RowId> {
        let a = self.force_bound(value, metrics);
        let b = match value.checked_add(1) {
            Some(next) => self.force_bound(next, metrics),
            None => self.data.len(),
        };
        let mut doomed = Accumulator::RowIds(Vec::new());
        self.walk(
            MainPlan::Exact { start: a, end: b },
            (value, value),
            &mut doomed,
            metrics,
        );
        // No delta to fold: the delete applies it under the delta lock.
        doomed
            .finish(DeltaView::Rows(PairView::default()), metrics)
            .into_rowids()
    }

    /// Ensures a crack exists at `bound` under the active latch protocol,
    /// blocking for latches even under [`RefinementPolicy::SkipOnContention`].
    fn force_bound(&self, bound: i64, metrics: &mut QueryMetrics) -> usize {
        match self.protocol {
            LatchProtocol::Piece => {
                match self.resolve_bound_piece_with(bound, RefinementPolicy::Always, metrics) {
                    BoundResolution::Exact(pos) => pos,
                    BoundResolution::SkippedInPiece(_) => {
                        unreachable!("Always policy never skips refinement")
                    }
                }
            }
            LatchProtocol::Column | LatchProtocol::None => {
                let guard = (self.protocol != LatchProtocol::None).then(|| {
                    let g = self.column_latch.acquire_write(bound);
                    Self::note_wait(
                        metrics,
                        TraceEvent::COLUMN_LATCH,
                        LatchMode::Write,
                        g.outcome().wait_time(),
                        g.outcome().contended(),
                    );
                    g
                });
                let crack_start = Instant::now();
                let (pos, cracked) = self.crack_bound_locked(bound);
                if cracked {
                    let mut txn = self.systxn.begin(1);
                    txn.complete_step();
                    txn.commit();
                    metrics.crack_time += crack_start.elapsed();
                    metrics.cracks_performed += 1;
                    self.cracks.fetch_add(1, Ordering::Relaxed);
                }
                drop(guard);
                pos
            }
        }
    }

    /// Seqlock-validation failures tolerated before a read switches to the
    /// pausing fallback ([`ConcurrentCracker::reclaim_pause`]): bounded
    /// progress even under a pathological stream of reclaiming writers.
    const SEQLOCK_RETRY_CAP: u32 = 3;

    /// The one read path. Every read — any [`ReadShape`], now (`at =
    /// None`) or frozen at a registered snapshot epoch — runs the paper's
    /// crack-select operator: resolve both bounds under write latches
    /// (refining the index as a side effect, or falling back to a
    /// conservative filtered range under conflict avoidance), walk the
    /// qualifying pieces under read latches, fold the pending delta.
    /// Invariants every shape inherits:
    ///
    /// * **One delta view per seqlock window.** The main multiset changes
    ///   only through epoch-stamped reclamations (piece shrinks and
    ///   incremental hole-fills), so a (piece walk, delta view) pair taken
    ///   at one stable shrink epoch is consistent; on an epoch change the
    ///   pair is re-read — bounds are already cracks, so a retry is a
    ///   cheap re-scan. Retries are bounded: past
    ///   [`Self::SEQLOCK_RETRY_CAP`] the read pauses reclamations outright
    ///   and finishes in one pass.
    /// * **Per-piece run granularity.** Row shapes receive one run per
    ///   visited piece, and [`ReadShape::KeyRuns`] runs are never sorted.
    /// * **Positional count.** An exact-plan [`ReadShape::Count`] takes no
    ///   read latch and reads no data.
    pub fn read(
        &self,
        low: i64,
        high: i64,
        at: Option<u64>,
        shape: ReadShape,
    ) -> (ReadAnswer, QueryMetrics) {
        let start = Instant::now();
        self.queries.fetch_add(1, Ordering::Relaxed);
        let mut metrics = QueryMetrics::default();
        if low >= high {
            metrics.total = start.elapsed();
            return (ReadAnswer::empty(shape), metrics);
        }
        let answer = {
            // Register with the quiesce gate for the whole operation:
            // positions resolved by the plan phase stay valid because no
            // compaction can rebuild the array underneath us.
            let _op = self.enter_if_compactable();
            let plan = (!self.data.is_empty()).then(|| match self.protocol {
                LatchProtocol::Piece => self.plan_piece(low, high, &mut metrics),
                LatchProtocol::Column | LatchProtocol::None => {
                    self.plan_column(low, high, &mut metrics)
                }
            });
            let mut failures = 0u32;
            loop {
                let paused = (failures >= Self::SEQLOCK_RETRY_CAP).then(|| self.pause_reclaims());
                let epoch = self.seq_read_epoch();
                let mut attempt = QueryMetrics::default();
                let mut acc = Accumulator::new(shape);
                if let Some(plan) = plan {
                    self.walk(plan, (low, high), &mut acc, &mut attempt);
                }
                let view = if acc.is_aggregate() {
                    DeltaView::Counts(self.delta.adjust(low, high, at))
                } else {
                    DeltaView::Rows(self.delta.pair_view(low, high, at))
                };
                if self.seq_read_valid(epoch, paused.is_some()) {
                    metrics.accumulate(&attempt);
                    break acc.finish(view, &mut metrics);
                }
                // A reclamation raced the read: keep the failed attempt's
                // latch timing honest, discard what it accumulated, and
                // retry.
                failures += 1;
                metrics.snapshot_retries = metrics.snapshot_retries.saturating_add(1);
                emit(TraceEvent::SnapshotRetry { attempt: failures });
                metrics.wait_time += attempt.wait_time;
                metrics.aggregate_time += attempt.aggregate_time;
                metrics.conflicts = metrics.conflicts.saturating_add(attempt.conflicts);
            }
        };
        answer.stamp(&mut metrics);
        metrics.total = start.elapsed();
        (answer, metrics)
    }

    /// The piece walk: feeds `acc` the live part of every piece of the
    /// plan's range, holding the latches the active protocol prescribes —
    /// piece read latches one piece at a time, or the column read latch —
    /// and skipping each piece's dead hole tail. A filtered plan (skipped
    /// refinement) passes the original query `bounds` along for exact
    /// filtering. Only reads, so seqlock retries may repeat it.
    fn walk(
        &self,
        plan: MainPlan,
        bounds: (i64, i64),
        acc: &mut Accumulator,
        metrics: &mut QueryMetrics,
    ) {
        let (start, end, filter) = match plan {
            MainPlan::Exact { start, end } => (start, end, None),
            MainPlan::Filtered { start, end } => (start, end, Some(bounds)),
        };
        if start >= end {
            return;
        }
        // A fully-resolved count is purely positional: range width minus
        // the dead slots recorded in the hole ledger, no data access — and
        // no toc lock at all in the common hole-free state (a racing
        // shrink that invalidates the lock-free probe is caught by the
        // caller's epoch validation).
        if let (Accumulator::Count(rows), None) = (&mut *acc, filter) {
            let holes = if self.hole_rows.load(Ordering::Acquire) == 0 {
                0
            } else {
                self.lock_toc().holes_in(start, end)
            };
            *rows += (end - start - holes) as u64;
            return;
        }
        // `[pos, piece end)` and its live end, for the piece starting at
        // `pos` (clipped to the walked range).
        let piece_extent = |pos: usize| {
            let toc = self.lock_toc();
            let piece_end = toc.piece_end_after(pos).min(end);
            (piece_end, toc.live_end(pos, piece_end))
        };
        match self.protocol {
            LatchProtocol::Piece => {
                let mut pos = start;
                while pos < end {
                    let latch = self.registry.latch_for(pos);
                    let guard = latch.acquire_read();
                    Self::note_wait(
                        metrics,
                        pos as u64,
                        LatchMode::Read,
                        guard.outcome().wait_time(),
                        guard.outcome().contended(),
                    );
                    let (piece_end, live_end) = piece_extent(pos);
                    let agg_start = Instant::now();
                    acc.feed(&self.data, pos, live_end, filter);
                    metrics.aggregate_time += agg_start.elapsed();
                    drop(guard);
                    pos = piece_end;
                }
            }
            LatchProtocol::Column | LatchProtocol::None => {
                let guard = (self.protocol == LatchProtocol::Column).then(|| {
                    let g = self.column_latch.acquire_read();
                    Self::note_wait(
                        metrics,
                        TraceEvent::COLUMN_LATCH,
                        LatchMode::Read,
                        g.outcome().wait_time(),
                        g.outcome().contended(),
                    );
                    g
                });
                let agg_start = Instant::now();
                // The hole layout is frozen while we hold the column read
                // latch (shrinks run only under the column *write* latch),
                // so one probe lets a hole-free aggregate scan the whole
                // range in a single pass. `[start, end)` is a union of
                // whole pieces, so the range-scoped probe is exact: holes
                // elsewhere in the array don't matter here.
                let one_pass = acc.is_aggregate()
                    && (self.hole_rows.load(Ordering::Acquire) == 0
                        || self.lock_toc().holes_in(start, end) == 0);
                if one_pass {
                    acc.feed(&self.data, start, end, filter);
                } else {
                    let mut pos = start;
                    while pos < end {
                        let (piece_end, live_end) = piece_extent(pos);
                        acc.feed(&self.data, pos, live_end, filter);
                        pos = piece_end;
                    }
                }
                metrics.aggregate_time += agg_start.elapsed();
                drop(guard);
            }
        }
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

    /// Opens one seqlock read attempt: waits for a stable (even) shrink
    /// epoch and registers the read with dcheck, which will insist it is
    /// closed via [`ConcurrentCracker::seq_read_valid`] before the next
    /// attempt begins.
    fn seq_read_epoch(&self) -> u64 {
        let epoch = self.stable_shrink_epoch();
        dcheck::seq_read_begin(epoch);
        epoch
    }

    /// Closes the seqlock read attempt opened by
    /// [`ConcurrentCracker::seq_read_epoch`] and reports whether the pair
    /// of (main phase, delta snapshot) taken under `epoch` is consistent:
    /// always when reclamations were paused, otherwise iff no reclamation
    /// bumped the epoch in between.
    fn seq_read_valid(&self, epoch: u64, paused: bool) -> bool {
        dcheck::seq_read_end();
        paused || self.shrink_epoch.load(Ordering::Acquire) == epoch
    }

    /// Enters the bounded-retry fallback: while the returned guard lives,
    /// no physical reclamation can start (sweeps and hole-fills defer),
    /// and any in-flight reclamation has drained, so a subsequent
    /// (main phase, delta snapshot) pair cannot be torn. Taken *before*
    /// any piece latch, so the `gate → shrink_serial → latch` order is
    /// never inverted.
    fn pause_reclaims(&self) -> ReclaimPauseGuard<'_> {
        self.reclaim_pause.fetch_add(1, Ordering::AcqRel);
        // Barrier: reclamations already past their pause check finish
        // here; later ones observe the pause under the same mutex.
        drop(self.lock_shrink_serial());
        ReclaimPauseGuard { idx: self }
    }

    /// Waits for (and returns) an even shrink epoch: no physical
    /// reclamation in flight. Reclamation windows are short — one piece
    /// sweep plus two map updates — so yielding is enough.
    fn stable_shrink_epoch(&self) -> u64 {
        loop {
            let epoch = self.shrink_epoch.load(Ordering::Acquire);
            if epoch.is_multiple_of(2) {
                return epoch;
            }
            std::thread::yield_now();
        }
    }

    // ----- column-latch (and latch-free) protocol ------------------------

    /// Crack-select phase under the column write latch: resolves both
    /// bounds into cracks, or falls back to a conservative filtered plan
    /// when conflict avoidance skips the refinement.
    fn plan_column(&self, low: i64, high: i64, metrics: &mut QueryMetrics) -> MainPlan {
        let latched = self.protocol != LatchProtocol::None;
        let mut skipped = false;
        let guard = if latched {
            match self.policy {
                RefinementPolicy::Always => {
                    let g = self.column_latch.acquire_write(low);
                    Self::note_wait(
                        metrics,
                        TraceEvent::COLUMN_LATCH,
                        LatchMode::Write,
                        g.outcome().wait_time(),
                        g.outcome().contended(),
                    );
                    Some(g)
                }
                RefinementPolicy::SkipOnContention => match self.column_latch.try_acquire_write() {
                    Some(g) => Some(g),
                    None => {
                        skipped = true;
                        None
                    }
                },
            }
        } else {
            None
        };

        if skipped {
            metrics.refinements_skipped += 2;
            self.systxn.begin(2).abandon();
            // Fall back to a filtered scan of the conservative range.
            let (lo_piece, hi_piece) = {
                let toc = self.lock_toc();
                (toc.map.piece_for_value(low), toc.map.piece_for_value(high))
            };
            return MainPlan::Filtered {
                start: lo_piece.start,
                end: hi_piece.end,
            };
        }

        let crack_start = Instant::now();
        let (a, cracked_low) = self.crack_bound_locked(low);
        let (b, cracked_high) = self.crack_bound_locked(high);
        let planned = u32::from(cracked_low) + u32::from(cracked_high);
        if planned > 0 {
            let mut txn = self.systxn.begin(planned);
            for _ in 0..planned {
                txn.complete_step();
            }
            txn.commit();
            metrics.crack_time += crack_start.elapsed();
            metrics.cracks_performed += planned;
            self.cracks.fetch_add(planned as u64, Ordering::Relaxed);
        }
        drop(guard);
        MainPlan::Exact { start: a, end: b }
    }

    /// Partitions `[start, live_end)` around `bound` under the caller's
    /// write latch, routing through the hole-aware gap walk when the piece
    /// carries a dead tail (`live_end < piece_end`): the first dead slot is
    /// free scratch — its contents are reclaimed-tombstone garbage no read
    /// path ever touches — and the gap walk writes every misplaced element
    /// once instead of paying three moves per swap.
    fn crack_range_hole_aware(
        &self,
        start: usize,
        live_end: usize,
        piece_end: usize,
        bound: i64,
    ) -> usize {
        if live_end < piece_end {
            let (pos, moves) = self
                .data
                .crack_in_two_with_hole(start, live_end, bound, live_end);
            if moves > 0 {
                self.hole_cracks.fetch_add(1, Ordering::Relaxed);
            }
            pos
        } else {
            self.data.crack_in_two_range(start, live_end, bound)
        }
    }

    /// Resolves one bound while the caller holds exclusive access to the
    /// whole column (column write latch, or single-threaded execution).
    /// Sweeps reclaimable tombstoned rows out of the piece first — the
    /// exclusive access is exactly the write latch piece shrinking needs.
    fn crack_bound_locked(&self, bound: i64) -> (usize, bool) {
        let piece = {
            let toc = self.lock_toc();
            match toc.map.lookup(bound) {
                PieceLookup::Exact(pos) => return (pos, false),
                PieceLookup::NeedsCrack(p) => p,
            }
        };
        // Timestamps only when tracing is live: the untraced hot path pays
        // nothing beyond the `enabled` load.
        let traced = aidx_obs::enabled().then(Instant::now);
        let (live_end, _) = self.shrink_piece_locked(&piece);
        let pos = self.crack_range_hole_aware(piece.start, live_end, piece.end, bound);
        let mut toc = self.lock_toc();
        toc.add_crack(bound, pos);
        toc.on_piece_split(piece.start, pos);
        drop(toc);
        if let Some(t0) = traced {
            emit(TraceEvent::Crack {
                piece: piece.start as u64,
                pivot: bound,
                ns: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
            });
        }
        (pos, true)
    }

    // ----- piece-latch protocol -------------------------------------------

    /// Bound-resolution phase under piece latches, producing the plan the
    /// aggregation walk executes.
    fn plan_piece(&self, low: i64, high: i64, metrics: &mut QueryMetrics) -> MainPlan {
        let r_low = self.resolve_bound_piece(low, metrics);
        let r_high = self.resolve_bound_piece(high, metrics);

        // Wrap this query's refinement in a system transaction record.
        let performed = metrics.cracks_performed;
        let skipped = metrics.refinements_skipped;
        if performed + skipped > 0 {
            let mut txn = self.systxn.begin(performed + skipped);
            if performed == 0 {
                txn.abandon();
            } else {
                for _ in 0..performed {
                    txn.complete_step();
                }
                txn.commit();
            }
        }

        match (r_low, r_high) {
            (BoundResolution::Exact(a), BoundResolution::Exact(b)) => {
                MainPlan::Exact { start: a, end: b }
            }
            (r_low, r_high) => {
                let start = match r_low {
                    BoundResolution::Exact(p) => p,
                    BoundResolution::SkippedInPiece(piece) => piece.start,
                };
                let end = match r_high {
                    BoundResolution::Exact(p) => p,
                    BoundResolution::SkippedInPiece(piece) => piece.end,
                };
                MainPlan::Filtered { start, end }
            }
        }
    }

    /// Ensures a crack exists at `bound`, latching only the piece that
    /// contains it. Implements bound re-evaluation after wake-up.
    fn resolve_bound_piece(&self, bound: i64, metrics: &mut QueryMetrics) -> BoundResolution {
        self.resolve_bound_piece_with(bound, self.policy, metrics)
    }

    /// As [`Self::resolve_bound_piece`] but with an explicit refinement
    /// policy, so writes can force refinement regardless of the index's
    /// configured conflict avoidance.
    fn resolve_bound_piece_with(
        &self,
        bound: i64,
        policy: RefinementPolicy,
        metrics: &mut QueryMetrics,
    ) -> BoundResolution {
        loop {
            let piece = {
                let toc = self.lock_toc();
                match toc.map.lookup(bound) {
                    PieceLookup::Exact(pos) => return BoundResolution::Exact(pos),
                    PieceLookup::NeedsCrack(p) => p,
                }
            };
            let latch = self.registry.latch_for(piece.start);

            let guard = match policy {
                RefinementPolicy::Always => {
                    let g = latch.acquire_write(bound);
                    Self::note_wait(
                        metrics,
                        piece.start as u64,
                        LatchMode::Write,
                        g.outcome().wait_time(),
                        g.outcome().contended(),
                    );
                    g
                }
                RefinementPolicy::SkipOnContention => match latch.try_acquire_write() {
                    Some(g) => g,
                    None => {
                        metrics.refinements_skipped += 1;
                        return BoundResolution::SkippedInPiece(piece);
                    }
                },
            };

            // Bound re-evaluation: while we waited, the piece we queued on
            // may have been cracked. Walk to the piece the bound falls in
            // *now* (Figure 10); if it is a different piece, release and try
            // again against that piece's latch.
            let current = {
                let toc = self.lock_toc();
                match toc.map.lookup(bound) {
                    PieceLookup::Exact(pos) => {
                        drop(guard);
                        return BoundResolution::Exact(pos);
                    }
                    PieceLookup::NeedsCrack(p) => p,
                }
            };
            if current.start != piece.start {
                drop(guard);
                continue;
            }

            // We hold the write latch of the piece the bound falls in:
            // sweep reclaimable tombstoned rows to its tail, then crack the
            // live range.
            let crack_start = Instant::now();
            let (live_end, _) = self.shrink_piece_locked(&current);
            let pos = self.crack_range_hole_aware(current.start, live_end, current.end, bound);
            {
                let mut toc = self.lock_toc();
                toc.add_crack(bound, pos);
                toc.on_piece_split(current.start, pos);
            }
            let cracked_in = crack_start.elapsed();
            metrics.crack_time += cracked_in;
            metrics.cracks_performed += 1;
            self.cracks.fetch_add(1, Ordering::Relaxed);
            emit(TraceEvent::Crack {
                piece: current.start as u64,
                pivot: bound,
                ns: u64::try_from(cracked_in.as_nanos()).unwrap_or(u64::MAX),
            });
            drop(guard);
            return BoundResolution::Exact(pos);
        }
    }

    /// Re-latches the piece whose key interval contains `value` and sweeps
    /// its tombstoned rows out (called after a delete raised tombstones:
    /// the delete's bound cracks left `value`'s rows contiguous in exactly
    /// one piece, since no crack value can lie strictly between `value`
    /// and `value + 1`).
    fn reclaim_key_piece(&self, value: i64, metrics: &mut QueryMetrics) {
        match self.protocol {
            LatchProtocol::Piece => loop {
                let piece = self.lock_toc().map.piece_for_value(value);
                let latch = self.registry.latch_for(piece.start);
                let guard = latch.acquire_write(value);
                Self::note_wait(
                    metrics,
                    piece.start as u64,
                    LatchMode::Write,
                    guard.outcome().wait_time(),
                    guard.outcome().contended(),
                );
                // Bound re-evaluation, as for any piece-latch acquisition.
                let current = self.lock_toc().map.piece_for_value(value);
                if current.start != piece.start {
                    drop(guard);
                    continue;
                }
                let _ = self.shrink_piece_locked(&current);
                drop(guard);
                return;
            },
            LatchProtocol::Column => {
                let guard = self.column_latch.acquire_write(value);
                Self::note_wait(
                    metrics,
                    TraceEvent::COLUMN_LATCH,
                    LatchMode::Write,
                    guard.outcome().wait_time(),
                    guard.outcome().contended(),
                );
                let piece = self.lock_toc().map.piece_for_value(value);
                let _ = self.shrink_piece_locked(&piece);
                drop(guard);
            }
            LatchProtocol::None => {
                let piece = self.lock_toc().map.piece_for_value(value);
                let _ = self.shrink_piece_locked(&piece);
            }
        }
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
    fn shrink_piece_locked(&self, piece: &Piece) -> (usize, usize) {
        // Fast path for the read-only steady state: two lock-free probes
        // and no mutex at all. This piece's holes cannot change under our
        // write latch (a prior shrink of it released that same latch, so
        // its `hole_rows` increment is visible to us), and a stale
        // tombstone miss merely defers reclamation to a later crack.
        let live_end = if self.hole_rows.load(Ordering::Acquire) == 0 {
            piece.end
        } else {
            let toc = self.lock_toc();
            toc.live_end(piece.start, piece.end)
        };
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
            self.lock_toc().add_holes(piece.start, moved);
            // Mirror the ledger total before the epoch goes even again, so
            // a reader whose epoch validates also saw a current mirror.
            self.hole_rows.fetch_add(moved as u64, Ordering::Release);
            self.shrinks.fetch_add(1, Ordering::Relaxed);
            self.tombstones_reclaimed
                .fetch_add(moved as u64, Ordering::Relaxed);
        }
        self.shrink_epoch.fetch_add(1, Ordering::AcqRel); // even: done
        (new_live_end, moved)
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

    // ----- delta compaction ------------------------------------------------

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

    /// Forces a compaction now (regardless of policy): rebuilds the main
    /// array from `live main + pending inserts − tombstones` under full
    /// quiescence. Returns true if a rebuild happened (false when there
    /// was nothing to reclaim). Ordinary operation goes through the policy
    /// trigger instead; this entry point serves tests and administrative
    /// maintenance.
    ///
    /// With the compaction policy *disabled*, ordinary operations do not
    /// register with the quiesce gate (see
    /// [`ConcurrentCracker::enter_if_compactable`]), so a forced
    /// compaction then requires the caller to guarantee quiescence — no
    /// concurrent operations — exactly like
    /// [`ConcurrentCracker::check_invariants`].
    pub fn compact(&self) -> bool {
        let mut metrics = QueryMetrics::default();
        self.compact_now(&mut metrics, None)
    }

    /// Policy trigger: compact if the delta outgrew the configured
    /// threshold. Called at the end of every write, after the write's own
    /// quiesce-gate guard (if any) is released.
    fn maybe_compact(&self, metrics: &mut QueryMetrics) {
        if !self.compaction.is_enabled() {
            return;
        }
        self.maybe_compact_with(self.delta_rows(), metrics);
    }

    /// As [`ConcurrentCracker::maybe_compact`], with the delta row count
    /// already in hand (inserts get it back from the delta update itself,
    /// saving a second delta-lock acquisition per write).
    fn maybe_compact_with(&self, delta_rows: u64, metrics: &mut QueryMetrics) {
        if !self.compaction.is_enabled() {
            return;
        }
        if !self.compaction.should_compact(delta_rows, self.data.len()) {
            return;
        }
        match self.compaction.mode {
            CompactionMode::Quiesce => {
                self.compact_now(metrics, Some(self.compaction));
            }
            CompactionMode::Incremental { pieces_per_step } => {
                self.compact_incremental(pieces_per_step, metrics);
            }
        }
    }

    /// The incremental trigger path: walk the pieces (at most one full lap)
    /// merging deltas in place until the delta is back under the
    /// threshold. Only if a whole lap cannot get there — no holes to fill,
    /// e.g. an insert-only stream — does the exclusive piece-registry gate
    /// come out for the final fixup: the quiescing rebuild.
    fn compact_incremental(&self, pieces_per_step: usize, metrics: &mut QueryMetrics) {
        let len = self.data.len();
        let policy = self.compaction;
        if len > 0 {
            let mut covered = 0usize;
            while policy.should_compact(self.delta_rows(), len) && covered < len {
                // In-place progress needs either existing holes to fill or
                // tombstones to sweep into new ones; with neither, go
                // straight to the fallback.
                if self.hole_rows.load(Ordering::Acquire) == 0 && !self.delta.has_tombstones() {
                    break;
                }
                let span = self.compact_step_with(pieces_per_step, metrics);
                if span == 0 {
                    break;
                }
                covered += span;
            }
        }
        if policy.should_compact(self.delta_rows(), len) {
            self.compact_now(metrics, Some(policy));
        }
    }

    /// Forces one incremental compaction walk step over up to `max_pieces`
    /// pieces, regardless of the trigger policy: each visited piece's
    /// tombstoned rows are swept into its dead tail and its pending
    /// inserts placed into that tail's holes, one piece write latch at a
    /// time — readers never block. Returns the number of rows physically
    /// reconciled (swept plus merged). Ordinary operation goes through the
    /// policy trigger instead; this entry point serves tests, benches, and
    /// administrative maintenance.
    pub fn compact_step(&self, max_pieces: usize) -> u64 {
        let mut metrics = QueryMetrics::default();
        self.compact_step_with(max_pieces, &mut metrics);
        metrics.rows_reclaimed
    }

    /// One bounded walk step: visits up to `max_pieces` pieces starting at
    /// the persistent walk cursor (wrapping at the array end). Holds the
    /// piece-registry gate in *shared* mode for the walk — full rebuilds
    /// are excluded, ordinary operations are not. Returns the number of
    /// positions covered (the trigger loop's lap accounting).
    fn compact_step_with(&self, max_pieces: usize, metrics: &mut QueryMetrics) -> usize {
        let len = self.data.len();
        if len == 0 {
            return 0;
        }
        let start = Instant::now();
        let _op = self.registry.enter();
        self.steer_walk_cursor();
        let step_start = self.walk_cursor.load(Ordering::Relaxed) % len;
        let reclaimed_before = metrics.rows_reclaimed;
        let mut covered = 0usize;
        for _ in 0..max_pieces.max(1) {
            let cursor = self.walk_cursor.load(Ordering::Relaxed) % len;
            let span = self.compact_piece_at(cursor, metrics);
            covered += span;
            if covered >= len {
                break;
            }
        }
        self.incremental_steps.fetch_add(1, Ordering::Relaxed);
        metrics.compaction_steps = metrics.compaction_steps.saturating_add(1);
        let step_time = start.elapsed();
        metrics.compaction_time += step_time;
        emit(TraceEvent::CompactionStep {
            piece: step_start as u64,
            rows: metrics.rows_reclaimed.saturating_sub(reclaimed_before),
            ns: u64::try_from(step_time.as_nanos()).unwrap_or(u64::MAX),
        });
        covered
    }

    /// Watermark-driven walk scheduling: points the walk cursor at the
    /// piece with the densest pending delta (pending rows plus tombstones
    /// per live position), breaking ties toward the stalest
    /// `compacted_through` watermark, so the pieces with the most
    /// reconciliation work per latch acquisition merge first. Leaves the
    /// cursor where the round-robin walk parked it when no piece has any
    /// delta rows (hole-only reclamation keeps the lap order).
    ///
    /// Cost: the delta's distinct values are grouped into pieces in one
    /// pass — `O(delta · log pieces)` against the *bounded* delta, so
    /// steering stays cheap no matter how finely cracked the column is.
    fn steer_walk_cursor(&self) {
        let counts = self.delta.value_counts();
        if counts.is_empty() {
            return;
        }
        let toc = self.lock_toc();
        if toc.map.piece_count() <= 1 {
            return;
        }
        let floor = self.compacted_floor.load(Ordering::Acquire);
        // piece start → (delta rows, piece span).
        let mut per_piece: BTreeMap<usize, (u64, usize)> = BTreeMap::new();
        for (value, rows) in counts {
            let piece = toc.map.piece_for_value(value);
            let entry = per_piece.entry(piece.start).or_insert((0, piece.len()));
            entry.0 += rows;
        }
        let mut best: Option<(usize, f64, u64)> = None; // (start, density, watermark)
        for (&start, &(rows, span)) in &per_piece {
            if span == 0 {
                continue;
            }
            let density = rows as f64 / span as f64;
            let watermark = toc.compacted_through.get(&start).copied().unwrap_or(floor);
            let better = match best {
                None => true,
                Some((_, d, w)) => density > d || (density == d && watermark < w),
            };
            if better {
                best = Some((start, density, watermark));
            }
        }
        drop(toc);
        if let Some((start, _, _)) = best {
            self.walk_cursor.store(start, Ordering::Relaxed);
        }
    }

    /// Merges the delta of the piece containing position `cursor` in
    /// place, under that piece's write latch (or the column latch, per
    /// protocol), then advances the walk cursor past the piece. Returns
    /// the piece's span in positions.
    fn compact_piece_at(&self, cursor: usize, metrics: &mut QueryMetrics) -> usize {
        let piece = match self.protocol {
            LatchProtocol::Piece => loop {
                let piece = self.lock_toc().piece_containing(cursor);
                let latch = self.registry.latch_for(piece.start);
                let guard = latch.acquire_write(piece.low_value.unwrap_or(i64::MIN));
                Self::note_wait(
                    metrics,
                    piece.start as u64,
                    LatchMode::Write,
                    guard.outcome().wait_time(),
                    guard.outcome().contended(),
                );
                // Bound re-evaluation, as for any piece-latch acquisition:
                // a crack may have split the piece while we waited. The
                // piece *containing the cursor* may then start elsewhere —
                // release and latch that one instead. (A split behind the
                // cursor keeps the start and only shrinks the end, which
                // re-reading under the latch handles.)
                let current = self.lock_toc().piece_containing(cursor);
                if current.start != piece.start {
                    drop(guard);
                    continue;
                }
                self.merge_piece_locked(&current, metrics);
                drop(guard);
                break current;
            },
            LatchProtocol::Column => {
                let guard = self.column_latch.acquire_write(i64::MIN);
                Self::note_wait(
                    metrics,
                    TraceEvent::COLUMN_LATCH,
                    LatchMode::Write,
                    guard.outcome().wait_time(),
                    guard.outcome().contended(),
                );
                let piece = self.lock_toc().piece_containing(cursor);
                self.merge_piece_locked(&piece, metrics);
                drop(guard);
                piece
            }
            LatchProtocol::None => {
                let piece = self.lock_toc().piece_containing(cursor);
                self.merge_piece_locked(&piece, metrics);
                piece
            }
        };
        let next = if piece.end >= self.data.len() {
            0
        } else {
            piece.end
        };
        self.walk_cursor.store(next, Ordering::Relaxed);
        piece.end.saturating_sub(cursor.min(piece.start)).max(1)
    }

    /// The per-piece merge (caller holds the write latch — or exclusive
    /// column access — covering `piece`): sweep the piece's tombstoned
    /// rows into its dead tail, then fill that tail's holes with the
    /// piece's pending inserts, retiring/compensating the moved stamps so
    /// current readers and snapshots both stay exact. Advances the piece's
    /// `compacted_through` watermark — but only when the merge actually
    /// left nothing of the piece's key range in the delta (a deferred
    /// sweep or an over-full hole budget keeps the old watermark, so
    /// [`ConcurrentCracker::compacted_through`] never overstates).
    fn merge_piece_locked(&self, piece: &Piece, metrics: &mut QueryMetrics) {
        // Watermark candidate first: if the piece's key range ends up
        // fully reconciled, everything stamped up to here is merged (later
        // writes may also be; a lagging watermark is fine, a leading one
        // is not).
        let through = self.delta.current_epoch();
        let traced = aidx_obs::enabled().then(Instant::now);
        let (live_end, swept) = self.shrink_piece_locked(piece);
        let mut merged = 0usize;
        let holes = piece.end - live_end;
        if holes > 0 && self.delta.pending_inserts() > 0 {
            let _serial = self.lock_shrink_serial();
            if self.reclaim_pause.load(Ordering::Acquire) == 0 {
                self.shrink_epoch.fetch_add(1, Ordering::AcqRel); // odd: in flight
                let rows =
                    self.delta
                        .take_inserts_in(piece.low_value, piece.high_value, holes as u64);
                if !rows.is_empty() {
                    merged = rows.len();
                    // Every row keeps the id its insert assigned: physical
                    // placement never renames a tuple.
                    let values: Vec<i64> = rows.iter().map(|&(v, _)| v).collect();
                    let rowids: Vec<RowId> = rows.iter().map(|&(_, r)| r).collect();
                    self.data.write_rows(live_end, &values, &rowids);
                    {
                        let mut toc = self.lock_toc();
                        let entry = toc
                            .holes
                            .get_mut(&piece.start)
                            .expect("holes exist: the ledger has the entry");
                        *entry -= merged;
                        if *entry == 0 {
                            toc.holes.remove(&piece.start);
                        }
                        toc.total_holes -= merged;
                    }
                    self.hole_rows.fetch_sub(merged as u64, Ordering::Release);
                    self.pending_compacted
                        .fetch_add(merged as u64, Ordering::Relaxed);
                }
                self.shrink_epoch.fetch_add(1, Ordering::AcqRel); // even: done
            }
        }
        // Only a fully reconciled piece advances its watermark: rows of
        // this key range still in the delta (sweep deferred by a paused
        // reader, or more pending inserts than the hole budget could
        // place) mean epochs up to `through` are *not* all merged here.
        if self.delta.rows_in(piece.low_value, piece.high_value) == 0 {
            self.toc
                .lock()
                .compacted_through
                .insert(piece.start, through);
        }
        metrics.rows_reclaimed = metrics
            .rows_reclaimed
            .saturating_add(swept as u64 + merged as u64);
        if let Some(t0) = traced {
            if swept + merged > 0 {
                emit(TraceEvent::DeltaMerge {
                    rows: (swept + merged) as u64,
                    ns: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    rebuild: false,
                });
            }
        }
    }

    /// Quiesces the index and rebuilds the main array. When `recheck` is
    /// set, the trigger condition is re-evaluated under the quiesce guard:
    /// racing writes all observe the same overgrown delta, but only the
    /// first one through the gate pays for the rebuild.
    fn compact_now(&self, metrics: &mut QueryMetrics, recheck: Option<CompactionPolicy>) -> bool {
        let start = Instant::now();
        let quiesce = self.registry.quiesce();
        let delta_rows = self.delta_rows();
        if let Some(policy) = recheck {
            if !policy.should_compact(delta_rows, self.data.len()) {
                return false;
            }
        } else if delta_rows == 0 && self.lock_toc().total_holes == 0 {
            return false;
        }
        // Column-latch regime: the quiesce is also expressed through the
        // protocol's own latch, so the exclusive window shows up in the
        // column latch statistics like any other structural change.
        let column_guard = (self.protocol == LatchProtocol::Column)
            .then(|| self.column_latch.acquire_write(i64::MIN));
        // The rebuild is one instantly-committing system transaction.
        let mut txn = self.systxn.begin(1);
        let (merged, reclaimed) = self.rebuild_from_delta();
        txn.complete_step();
        txn.commit();
        // Everything stamped so far is merged: raise the column-wide
        // watermark floor and restart the incremental walk.
        self.compacted_floor
            .store(self.delta.current_epoch(), Ordering::Release);
        self.walk_cursor.store(0, Ordering::Relaxed);
        // Piece start positions changed meaning: stale piece latches must
        // not be reused.
        self.registry.reset_latches();
        drop(column_guard);
        drop(quiesce);
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.pending_compacted.fetch_add(merged, Ordering::Relaxed);
        self.tombstones_reclaimed
            .fetch_add(reclaimed, Ordering::Relaxed);
        metrics.compactions_performed += 1;
        let rebuild_time = start.elapsed();
        metrics.compaction_time += rebuild_time;
        emit(TraceEvent::DeltaMerge {
            rows: merged.saturating_add(reclaimed),
            ns: u64::try_from(rebuild_time.as_nanos()).unwrap_or(u64::MAX),
            rebuild: true,
        });
        true
    }

    /// The rebuild pass (caller holds the quiesce guard): drains the
    /// delta, then walks the pieces in position order copying live rows
    /// (skipping dead tails), dropping each piece's tombstoned rows, and
    /// appending each pending insert to the piece whose key interval
    /// contains it — so every existing crack value survives, its position
    /// shifted by the net row movement below it, exactly the boundary
    /// fixup `PieceMap::apply_insert_batch`/`apply_delete` perform for the
    /// single-threaded cracker's delta merge. Returns `(pending rows
    /// merged, tombstoned rows dropped)`.
    fn rebuild_from_delta(&self) -> (u64, u64) {
        let drained = self.delta.drain();
        let mut toc = self.lock_toc();
        let pieces = toc.map.pieces();
        let old_len = self.data.len();
        let new_len = (old_len - toc.total_holes + drained.pending_inserts as usize)
            .saturating_sub(drained.tombstoned_rows as usize);
        let mut inserts = drained.inserts.iter().copied().peekable();
        let mut values = Vec::with_capacity(new_len);
        let mut rowids = Vec::with_capacity(new_len);
        let mut cracks: Vec<(i64, usize)> = Vec::with_capacity(pieces.len().saturating_sub(1));
        for piece in &pieces {
            let live_end = toc.live_end(piece.start, piece.end);
            for (v, rid) in self.data.pairs_in_range(piece.start, live_end) {
                if drained.doomed.contains(&rid) {
                    continue;
                }
                values.push(v);
                rowids.push(rid);
            }
            while let Some(&(v, rid)) = inserts.peek() {
                if piece.high_value.is_none_or(|hv| v < hv) {
                    values.push(v);
                    rowids.push(rid);
                    inserts.next();
                } else {
                    break;
                }
            }
            if let Some(high_value) = piece.high_value {
                cracks.push((high_value, values.len()));
            }
        }
        debug_assert!(inserts.peek().is_none(), "every pending insert placed");
        debug_assert_eq!(
            values.len(),
            new_len,
            "tombstoned row ids are exact, so every one finds its row"
        );
        let rebuilt_len = values.len();
        self.data.replace(values, rowids);
        let mut fresh = TocState::new(rebuilt_len);
        for (value, position) in cracks {
            fresh.add_crack(value, position);
        }
        *toc = fresh;
        // The rebuild reclaimed every hole (quiesced, so no reader races
        // the mirror reset).
        self.hole_rows.store(0, Ordering::Release);
        (drained.pending_inserts, drained.tombstoned_rows)
    }

    /// Builds a concurrent cracker from rows plus an existing crack
    /// structure: ascending `(crack value, position)` boundaries, exactly
    /// the shape [`ConcurrentCracker::split_off`] returns — the receiving
    /// half of a repartition split, where the donor's refinement work
    /// survives the handoff instead of being rediscovered query by query.
    pub fn from_rows_with_cracks(
        values: Vec<i64>,
        rowids: Vec<RowId>,
        cracks: &[(i64, usize)],
        protocol: LatchProtocol,
    ) -> Self {
        let idx = Self::from_rows(values, rowids, protocol);
        {
            let mut toc = idx.lock_toc();
            for &(value, position) in cracks {
                toc.add_crack(value, position);
            }
        }
        idx
    }

    /// The crack boundary nearest the middle of the main array — the split
    /// key a repartition hands off at, chosen so the handoff itself needs
    /// no cracking. Returns `None` when the index has no interior crack
    /// (single piece, or every boundary at position 0 / len). Advisory:
    /// positions include dead hole tails and ignore delta rows, which is
    /// fine for load balancing.
    pub fn median_crack_key(&self) -> Option<i64> {
        let toc = self.lock_toc();
        let len = self.data.len();
        if len < 2 {
            return None;
        }
        let mid = len / 2;
        let mut best: Option<(usize, i64)> = None;
        for piece in toc.map.pieces() {
            let Some(hv) = piece.high_value else { continue };
            if piece.end == 0 || piece.end >= len {
                continue;
            }
            let dist = piece.end.abs_diff(mid);
            if best.is_none_or(|(d, _)| dist < d) {
                best = Some((dist, hv));
            }
        }
        best.map(|(_, key)| key)
    }

    /// Physically extracts every row with value `>= at` — plus the crack
    /// structure above `at` — out of this index, reconciling the pending
    /// delta first so the handoff carries no side state. `at == i64::MIN`
    /// extracts everything (the merge-away path). The index quiesces for
    /// the duration, committing as one system transaction; the caller
    /// must guarantee no epoch-pinned snapshot is live, because rows
    /// physically leave the column. Returns `(values, rowids, cracks)`
    /// with crack positions relative to the extracted vectors — ready for
    /// [`ConcurrentCracker::from_rows_with_cracks`] or
    /// [`ConcurrentCracker::absorb_upper`].
    pub fn split_off(&self, at: i64) -> (Vec<i64>, Vec<RowId>, Vec<(i64, usize)>) {
        let quiesce = self.registry.quiesce();
        debug_assert_eq!(self.live_snapshots(), 0, "split_off with a live snapshot");
        let column_guard = (self.protocol == LatchProtocol::Column)
            .then(|| self.column_latch.acquire_write(i64::MIN));
        let mut txn = self.systxn.begin(1);
        let drained = self.delta.drain();
        let mut toc = self.lock_toc();
        let pieces = toc.map.pieces();
        let mut inserts = drained.inserts.iter().copied().peekable();
        let (mut kept_values, mut kept_rowids) = (Vec::new(), Vec::<RowId>::new());
        let mut kept_cracks: Vec<(i64, usize)> = Vec::new();
        let (mut moved_values, mut moved_rowids) = (Vec::new(), Vec::<RowId>::new());
        let mut moved_cracks: Vec<(i64, usize)> = Vec::new();
        for piece in &pieces {
            let live_end = toc.live_end(piece.start, piece.end);
            for (v, rid) in self.data.pairs_in_range(piece.start, live_end) {
                if drained.doomed.contains(&rid) {
                    continue;
                }
                if v >= at {
                    moved_values.push(v);
                    moved_rowids.push(rid);
                } else {
                    kept_values.push(v);
                    kept_rowids.push(rid);
                }
            }
            while let Some(&(v, rid)) = inserts.peek() {
                if piece.high_value.is_none_or(|hv| v < hv) {
                    if v >= at {
                        moved_values.push(v);
                        moved_rowids.push(rid);
                    } else {
                        kept_values.push(v);
                        kept_rowids.push(rid);
                    }
                    inserts.next();
                } else {
                    break;
                }
            }
            if let Some(hv) = piece.high_value {
                match hv.cmp(&at) {
                    std::cmp::Ordering::Less => kept_cracks.push((hv, kept_values.len())),
                    // The crack *at* the split key becomes the partition
                    // boundary itself.
                    std::cmp::Ordering::Equal => {}
                    std::cmp::Ordering::Greater => moved_cracks.push((hv, moved_values.len())),
                }
            }
        }
        debug_assert!(inserts.peek().is_none(), "every pending insert placed");
        let kept_len = kept_values.len();
        self.data.replace(kept_values, kept_rowids);
        let mut fresh = TocState::new(kept_len);
        for (value, position) in kept_cracks {
            fresh.add_crack(value, position);
        }
        *toc = fresh;
        self.hole_rows.store(0, Ordering::Release);
        drop(toc);
        self.compacted_floor
            .store(self.delta.current_epoch(), Ordering::Release);
        self.walk_cursor.store(0, Ordering::Relaxed);
        self.registry.reset_latches();
        txn.complete_step();
        txn.commit();
        drop(column_guard);
        drop(quiesce);
        (moved_values, moved_rowids, moved_cracks)
    }

    /// Absorbs rows handed off by the neighbouring partition directly
    /// above: every absorbed value must be `>= boundary` and every value
    /// already here `< boundary`. Reconciles the local delta, appends the
    /// absorbed rows with their crack structure intact (positions relative
    /// to the absorbed vectors), and records `boundary` itself as a crack
    /// — the receiving half of a repartition merge, after which this index
    /// covers both key ranges. Quiesces; the caller must guarantee no live
    /// epoch-pinned snapshot.
    pub fn absorb_upper(
        &self,
        values: Vec<i64>,
        rowids: Vec<RowId>,
        cracks: &[(i64, usize)],
        boundary: i64,
    ) {
        debug_assert!(values.iter().all(|&v| v >= boundary));
        let quiesce = self.registry.quiesce();
        debug_assert_eq!(self.live_snapshots(), 0, "absorb with a live snapshot");
        let column_guard = (self.protocol == LatchProtocol::Column)
            .then(|| self.column_latch.acquire_write(i64::MIN));
        let mut txn = self.systxn.begin(1);
        self.rebuild_from_delta();
        let mut toc = self.lock_toc();
        let (mut all_values, mut all_rowids) = self.data.snapshot();
        let base_len = all_values.len();
        let mut all_cracks: Vec<(i64, usize)> = toc
            .map
            .pieces()
            .iter()
            .filter_map(|p| p.high_value.map(|hv| (hv, p.end)))
            .collect();
        if base_len > 0 && !values.is_empty() {
            all_cracks.push((boundary, base_len));
        }
        for &(v, pos) in cracks {
            all_cracks.push((v, base_len + pos));
        }
        let max_rid = rowids.iter().copied().max();
        all_values.extend_from_slice(&values);
        all_rowids.extend_from_slice(&rowids);
        let new_len = all_values.len();
        self.data.replace(all_values, all_rowids);
        let mut fresh = TocState::new(new_len);
        for (value, position) in all_cracks {
            fresh.add_crack(value, position);
        }
        *toc = fresh;
        drop(toc);
        if let Some(m) = max_rid {
            self.next_rowid.fetch_max(m as u64 + 1, Ordering::Relaxed);
        }
        self.compacted_floor
            .store(self.delta.current_epoch(), Ordering::Release);
        self.walk_cursor.store(0, Ordering::Relaxed);
        self.registry.reset_latches();
        txn.complete_step();
        txn.commit();
        drop(column_guard);
        drop(quiesce);
    }

    /// Refines the largest piece if it holds at least `min_rows` live
    /// rows: samples values from the piece, picks two interior order
    /// statistics, and runs a count query between them — cracking the
    /// piece into up to three as idempotent side work. Used by idle
    /// range-partition owners to pre-crack a hot neighbour's index ("work
    /// stealing"); safe to race any concurrent operation including the
    /// victim's own queries, because it *is* an ordinary query. Returns
    /// the refined piece's live size, or `None` when no piece met the
    /// bound (or the piece's values are too uniform to split).
    pub fn refine_largest_piece(&self, min_rows: usize) -> Option<u64> {
        let min_rows = min_rows.max(2);
        // Sample under a gate entry (the array must not be swapped out
        // underneath the reads), then DROP it before querying: count()
        // re-enters the gate itself, and holding our entry across that
        // call could deadlock against a structural quiesce.
        let (p1, p2, rows) = {
            let _enter = self.registry.enter();
            let toc = self.lock_toc();
            let best = toc
                .map
                .pieces()
                .into_iter()
                .max_by_key(|p| toc.live_end(p.start, p.end) - p.start)?;
            let live_end = toc.live_end(best.start, best.end);
            let n = live_end - best.start;
            if n < min_rows {
                return None;
            }
            let mut sample: Vec<i64> = (0..32)
                .map(|i| best.start + i * n / 32)
                .flat_map(|pos| self.data.values_in_range(pos, pos + 1))
                .collect();
            drop(toc);
            sample.sort_unstable();
            (sample[sample.len() / 3], sample[2 * sample.len() / 3], n)
        };
        if p1 == p2 {
            // Too uniform to pick interior pivots; a single-sided crack at
            // the repeated value still makes progress when possible.
            if p1 == i64::MAX {
                return None;
            }
            self.count(p1, p1 + 1);
        } else {
            self.count(p1, p2);
        }
        Some(rows as u64)
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

#[cfg(test)]
mod tests {
    use super::*;
    use aidx_storage::ops;
    use std::sync::Arc;
    use std::thread;

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

    trait TapSorted {
        fn tap_sorted(self) -> Self;
    }
    impl TapSorted for Vec<i64> {
        fn tap_sorted(mut self) -> Self {
            self.sort_unstable();
            self
        }
    }
}
