//! The one read path of [`ConcurrentCracker`]: plan (bound resolution under
//! write latches), piece walk under read latches, per-shape accumulators,
//! and the shrink-epoch seqlock that ties the walk to one delta view.
//!
//! **One directory acquisition per converged read.** The plan looks both
//! bounds up in one piece-directory acquisition
//! ([`PieceDirectory::find_bounds`]). A bound that is a crack already, or
//! falls in a piece at or below the crack floor, needs no write latch;
//! when neither does, the same acquisition hands the walk its first
//! *span* — up to 64 consecutive pieces with their extents, live ends and
//! latches, and the directory's structure version. The walk then latches
//! the pieces one at a time and, instead of looking each up again, checks
//! that the version has not moved: every change of a piece's extent or
//! live end happens under that piece's write latch (or with the index
//! quiesced) and bumps the version before the latch is released, so an
//! unchanged version under the piece's read latch means the recorded
//! extent is the piece's current one. On a changed version the walk
//! re-spans from the piece it holds — whose extent its latch freezes — so
//! every re-span feeds at least one piece. Only a bound that needs its
//! write latch goes through [`ConcurrentCracker::write_piece`]'s
//! latch-and-re-evaluate loop, starting from the batched lookup.
//!
//! **The crack floor.** A read cracks no piece of at most
//! [`ConcurrentCracker::CRACK_FLOOR`] rows. A bound that falls inside such
//! a piece takes no write latch: the piece becomes an *edge* of the plan,
//! which the walk filters by the query bounds under its read latch, while
//! every piece between the two edges stays an exact, unfiltered range.
//! Writes ([`ConcurrentCracker::force_bound`]) ignore the floor: a delete
//! needs its key's rows at exact positions.
//!
//! **The domain's ends.** A read over the whole key domain cracks
//! nothing: no key lies below `i64::MIN`, so a low bound there is the
//! crack at position 0, and a high bound of `i64::MAX` leaves its piece
//! an edge to filter ([`ConcurrentCracker::read_skips`]).
//!
//! It also holds the one crack body, [`ConcurrentCracker::crack_piece`]:
//! every protocol, every backend built on this cracker (serial, range
//! partitions) and the write path resolve their bounds there and nowhere
//! else, so that is where the *pivot policy* and the *pass order* live.
//! A write resolves one bound per call. **A read whose two bounds share a
//! piece write-latches it once and publishes once**: the low bound's
//! write access re-evaluates the piece, and if the high bound still falls
//! in it, one call cracks both — classic cracking's crack-in-three, as
//! two passes, the one that leaves the shorter second pass first. Three
//! rules it keeps:
//!
//! * **Where the cracks go is a pure function of the piece** — a hash of
//!   its extent and the bounds picks the rows the pivot and the pass
//!   order are sampled from. No generator, no seed, no shared state: a
//!   schedule replayed by `aidx-check`, a proptest case being shrunk and
//!   a benchmark run with the same op stream all crack exactly where the
//!   first run did.
//! * **A crack's position does not depend on the pass order** — it is the
//!   count of the piece's live rows below the bound, so a bound lands
//!   where a crack of it alone would put it.
//! * **Physical work before publish** — all partition passes of one call
//!   run before the directory learns of any crack they made, and it
//!   learns of all of them in one exclusive acquisition: a published piece
//!   start is a latch the cracking thread does not hold.

use super::*;

/// How a request for write access to one piece
/// ([`ConcurrentCracker::write_piece`]) ended.
#[derive(Debug, Clone, Copy)]
pub(super) enum PieceWrite<R> {
    /// A [`Target::Bound`] that is a crack already, at this position: no
    /// piece needs reorganising.
    Crack(usize),
    /// The optional work was skipped — the piece's latch was busy
    /// (conflict avoidance) or the piece is at or below the crack floor.
    /// The bound lies somewhere inside this piece, which a reader must
    /// filter instead.
    Skipped(Piece),
    /// The work ran under write access to the piece; its result.
    Done(R),
}

impl<R> PieceWrite<R> {
    /// The result of work that had to run: a blocking request for the
    /// piece of a key or a position.
    pub(super) fn done(self) -> R {
        match self {
            PieceWrite::Done(result) => result,
            _ => unreachable!("a blocking request for a key or position always runs"),
        }
    }
}

/// How [`ConcurrentCracker::crack_piece`] resolved a read's low bound, and
/// its high bound if the two shared the piece.
type Resolved = (PieceWrite<usize>, Option<PieceWrite<usize>>);

impl PieceWrite<Resolved> {
    /// The low bound's resolution, and the high bound's if the crack body
    /// resolved it too.
    fn unpair(self) -> Resolved {
        match self {
            PieceWrite::Done(resolved) => resolved,
            PieceWrite::Crack(pos) => (PieceWrite::Crack(pos), None),
            PieceWrite::Skipped(piece) => (PieceWrite::Skipped(piece), None),
        }
    }
}

/// `high` if it falls in `piece` — the piece of a read's low bound, as
/// re-evaluated under write access to it — so that the crack body resolves
/// both bounds in one call; never `i64::MAX`, which a read does not crack
/// ([`ConcurrentCracker::read_skips`]).
fn shared_high(piece: &Piece, high: i64) -> Option<i64> {
    (high != i64::MAX && piece.high_value.is_none_or(|hv| high < hv)).then_some(high)
}

/// The two sub-pieces a crack at `value`, found at `pos`, splits `piece`
/// into; the upper one keeps the dead tail.
fn split_at(piece: &Piece, value: i64, pos: usize) -> [Piece; 2] {
    let below = Piece {
        end: pos,
        high_value: Some(value),
        ..*piece
    };
    let above = Piece {
        start: pos,
        low_value: Some(value),
        ..*piece
    };
    [below, above]
}

/// The main-array part of one query, produced by the (cracking) plan phase
/// and consumed — possibly several times, if a concurrent reclamation
/// forces a retry — by the aggregation phase. Positions stay valid across
/// retries: cracks never move, and compaction (which would move them) is
/// excluded by the operation's quiesce-gate guard.
///
/// The walk scans `[start, end)`. Every row of the *interior* `[lo, hi)`
/// qualifies; the pieces outside it — the *edges*, the pieces a bound fell
/// inside without being cracked — are filtered by the query bounds. All
/// four positions are piece boundaries, so a piece is wholly edge or
/// wholly interior. Both bounds cracks: no edges. Both bounds in one
/// piece: no interior.
#[derive(Debug, Clone, Copy)]
pub(super) struct MainPlan {
    start: usize,
    lo: usize,
    hi: usize,
    end: usize,
}

impl MainPlan {
    /// Both bounds are cracks: every row of `[start, end)` qualifies.
    pub(super) fn exact(start: usize, end: usize) -> Self {
        MainPlan {
            start,
            lo: start,
            hi: end,
            end,
        }
    }

    /// The plan of a range whose low and high bound resolved as given —
    /// possibly in one crack call, so one bound's piece may be a split the
    /// other bound's crack left. A crack bounds the range exactly; a
    /// skipped bound contributes its piece as an edge. Every row strictly
    /// between the two edge pieces lies inside the bounds: keys at or
    /// past the low piece's end are at least its upper key bound, above
    /// `low`, and keys before the high piece's start are below its lower
    /// key bound, at most `high`.
    fn resolved(low: PieceWrite<usize>, high: PieceWrite<usize>) -> Self {
        let (start, lo) = match low {
            PieceWrite::Crack(pos) | PieceWrite::Done(pos) => (pos, pos),
            PieceWrite::Skipped(piece) => (piece.start, piece.end),
        };
        let (hi, end) = match high {
            PieceWrite::Crack(pos) | PieceWrite::Done(pos) => (pos, pos),
            PieceWrite::Skipped(piece) => (piece.start, piece.end),
        };
        debug_assert!(start <= end, "a range's bounds resolve in key order");
        // Both bounds in one piece (or its later split): no interior.
        let lo = lo.min(end);
        MainPlan {
            start,
            lo,
            hi: hi.clamp(lo, end),
            end,
        }
    }

    /// The query bounds to filter the piece starting at `pos` by: `None`
    /// in the interior, `bounds` on an edge.
    fn filter_at(&self, pos: usize, bounds: (i64, i64)) -> Option<(i64, i64)> {
        (pos < self.lo || pos >= self.hi).then_some(bounds)
    }

    /// The position ranges a walk visits: the whole scanned range, or for
    /// a positional count only the two edges.
    fn ranges(&self, count: bool) -> Ranges {
        if count {
            [(self.start, self.lo), (self.hi, self.end)]
        } else {
            [(self.start, self.end), (self.end, self.end)]
        }
    }
}

/// `ranges` from position `pos` on: what a walk has left once it reached
/// `pos`.
fn ranges_from(ranges: &Ranges, pos: usize) -> Ranges {
    ranges.map(|(from, to)| (from.max(pos), to))
}

/// A bound lookup that took no latch, as the bound's resolution: a crack,
/// or a piece the read filters.
fn unlatched(found: &Found) -> PieceWrite<usize> {
    match found {
        Err(AlreadyCrack(pos)) => PieceWrite::Crack(*pos),
        Ok((piece, _)) => PieceWrite::Skipped(*piece),
    }
}

/// What one read accumulates over the qualifying pieces. Every shape runs
/// the same plan → piece walk → delta fold ([`ConcurrentCracker::read`]);
/// only the per-piece accumulator differs. A shape that names a set
/// borrows it for the read, hence the lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadShape<'a> {
    /// Q1: how many rows qualify. With both bounds resolved into cracks
    /// the count is *positional* — range width minus recorded holes — and
    /// touches neither the data nor a read latch.
    Count,
    /// Q2: the sum of the qualifying values.
    Sum,
    /// The qualifying row ids as one flat ascending vector — the
    /// uncompressed reference the other row shapes are checked against.
    RowIds,
    /// The qualifying row ids as a [`RowIdSet`] in the planner form, for
    /// a consumer that uses and drops the set within one operation: every
    /// visited piece's row ids are scattered, unsorted, into a bitmap over
    /// the set's id span, delta rows clear or set their bits, and the set
    /// is that bitmap — no sort, no heap merge. Only ids sparser than one
    /// per 1 024 of span are sorted into a vector instead.
    /// [`ColumnRead::select_rowid_set`](crate::ColumnRead::select_rowid_set)
    /// is this read, compacted ([`RowIdSet::compact`]).
    Candidates,
    /// The qualifying row ids that are also in the given set: the
    /// [`ReadShape::Candidates`] set of the read, intersected with it
    /// inside the walk. Every visited row id is tested against the set's
    /// bitmap without a branch — interior pieces read row ids only, edge
    /// pieces their values too — and only survivors are scattered into
    /// the planner-form result. Pending inserts count only if the set
    /// holds them; hidden rows are cleared as for any read. A sorted set
    /// is scattered into a pooled bitmap once, before the walk
    /// ([`RowIdSet::as_bitmap`]). The read cracks its bounds like any
    /// other: this is how a table planner filters a candidate set by a
    /// further predicate and refines that predicate's column.
    Within(&'a RowIdSet),
    /// The qualifying `(key, rowid)` pairs as raw [`KeyRuns`]: each
    /// visited piece contributes one run in its physical order and nothing
    /// is sorted — the table join hashes the pairs as they come.
    KeyRuns,
}

/// The answer to one read, by [`ReadShape`].
#[derive(Debug)]
pub enum ReadAnswer {
    /// [`ReadShape::Count`] or [`ReadShape::Sum`].
    Agg(i128),
    /// [`ReadShape::RowIds`], sorted ascending.
    RowIds(Vec<RowId>),
    /// [`ReadShape::Candidates`] or [`ReadShape::Within`].
    Set(RowIdSet),
    /// [`ReadShape::KeyRuns`].
    Runs(KeyRuns),
}

impl ReadAnswer {
    /// The answer of `shape` over nothing.
    pub fn empty(shape: ReadShape<'_>) -> Self {
        match shape {
            ReadShape::Count | ReadShape::Sum => ReadAnswer::Agg(0),
            ReadShape::RowIds => ReadAnswer::RowIds(Vec::new()),
            ReadShape::Candidates | ReadShape::Within(_) => ReadAnswer::Set(RowIdSet::default()),
            ReadShape::KeyRuns => ReadAnswer::Runs(KeyRuns::default()),
        }
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

    /// Records this answer's size (and a set's footprint) in `metrics`.
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

    /// The row-id set. Panics unless the read was
    /// [`ReadShape::Candidates`] or [`ReadShape::Within`].
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
/// variant per [`ReadShape`], the two set shapes sharing one. The id
/// shapes append every piece's row ids in physical order (a
/// [`ReadShape::Within`] read only those its filter holds): the flat shape
/// sorts them, the set shapes scatter them into a bitmap. Key runs stay
/// one run per piece, which the lazy join merge wants apart.
pub(super) enum Accumulator<'a> {
    Count(u64),
    Sum {
        rows: u64,
        sum: i128,
    },
    RowIds(Vec<RowId>),
    IdSet {
        ids: Vec<RowId>,
        within: Option<Bits<'a>>,
    },
    PairRuns(Vec<Vec<(i64, RowId)>>),
}

/// The delta's contribution to one read, snapshotted inside the seqlock
/// window and folded only once the window validated.
pub(super) enum DeltaView {
    Counts(DeltaAdjust),
    Rows(PairView),
}

impl<'a> Accumulator<'a> {
    /// An empty accumulator; id shapes reserve room for `rows` ids, the
    /// most the plan's scanned range can yield — a [`ReadShape::Within`]
    /// read no more than its filter holds. `within` is the bitmap of a
    /// [`ReadShape::Within`] read's set ([`RowIdSet::as_bitmap`]).
    fn new(shape: ReadShape<'_>, rows: usize, within: Option<Bits<'a>>) -> Self {
        match shape {
            ReadShape::Count => Accumulator::Count(0),
            ReadShape::Sum => Accumulator::Sum { rows: 0, sum: 0 },
            ReadShape::RowIds => Accumulator::RowIds(Vec::with_capacity(rows)),
            ReadShape::Candidates | ReadShape::Within(_) => {
                let most = match shape {
                    ReadShape::Within(filter) => rows.min(filter.len()),
                    _ => rows,
                };
                Accumulator::IdSet {
                    ids: Vec::with_capacity(most),
                    within,
                }
            }
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
        match self {
            Accumulator::Count(rows) => {
                *rows += match filter {
                    None => (end - start) as u64,
                    Some((low, high)) => data.count_sum_filtered(start, end, low, high).0,
                }
            }
            Accumulator::Sum { rows, sum } => {
                let (n, s) = match filter {
                    None => ((end - start) as u64, data.sum_range(start, end)),
                    Some((low, high)) => data.count_sum_filtered(start, end, low, high),
                };
                *rows += n;
                *sum += s;
            }
            Accumulator::IdSet {
                ids,
                within: Some(bits),
                ..
            } => data.extend_rowids_within(start, end, filter, *bits, ids),
            Accumulator::RowIds(out) | Accumulator::IdSet { ids: out, .. } => match filter {
                None => data.extend_rowids(start, end, out),
                Some((low, high)) => data.extend_rowids_filtered(start, end, low, high, out),
            },
            Accumulator::PairRuns(runs) => runs.push(match filter {
                None => data.pairs_in_range(start, end),
                Some((low, high)) => data.pairs_filtered(start, end, low, high),
            }),
        }
    }

    /// Folds the delta view into the main-array accumulation: logical
    /// contents are always `live main + pending inserts − tombstones` (at
    /// the snapshot epoch, for snapshot reads). Aggregates record their
    /// logical row count in `metrics`; row answers carry their own.
    pub(super) fn finish(self, view: DeltaView, metrics: &mut QueryMetrics) -> ReadAnswer {
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
            (Accumulator::IdSet { ids, within }, DeltaView::Rows(view)) => {
                let extra = view.extra.iter().map(|&(_, rowid)| rowid);
                let extra: Vec<RowId> = match within {
                    Some(bits) => extra.filter(|&rowid| bits.holds(rowid)).collect(),
                    None => extra.collect(),
                };
                ReadAnswer::Set(RowIdSet::scattered(&[ids], &view.hidden, &extra))
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

/// A registered snapshot of a [`ConcurrentCracker`], opened by
/// [`ConcurrentCracker::pin`]: reads through the handle see exactly
/// `main@epoch + delta≤epoch` — the column as of the moment it was opened
/// — no matter how many writes, piece shrinks, or (incremental or full)
/// compactions race or complete in between. Dropping the handle releases
/// the registration and lets the delta garbage-collect the history kept
/// on its behalf.
#[derive(Debug)]
pub struct Snapshot<'a> {
    idx: &'a ConcurrentCracker,
    epoch: u64,
}

impl ColumnRead for Snapshot<'_> {
    /// [`ConcurrentCracker::read`] frozen at the snapshot epoch: rows
    /// inserted or physically placed after it are invisible, rows deleted
    /// or reclaimed after it are restored (ghosts).
    fn read(&self, low: i64, high: i64, shape: ReadShape<'_>) -> (ReadAnswer, QueryMetrics) {
        self.idx.read(low, high, Some(self.epoch), shape)
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
pub(super) struct ReclaimPauseGuard<'a> {
    idx: &'a ConcurrentCracker,
}

impl Drop for ReclaimPauseGuard<'_> {
    fn drop(&mut self) {
        self.idx.reclaim_pause.fetch_sub(1, Ordering::AcqRel);
    }
}

impl ConcurrentCracker {
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

    /// Opens a pinned read handle at the current column epoch. Reads
    /// through it are frozen at that epoch — concurrent inserts, deletes,
    /// piece shrinks, and compaction steps (incremental or full) are all
    /// invisible to them — while still refining the index like any other
    /// query. The registration is released when the handle drops.
    pub fn pin(&self) -> Snapshot<'_> {
        Snapshot {
            idx: self,
            epoch: self.register_snapshot_epoch(),
        }
    }

    /// Registers a snapshot at the current column epoch and returns it.
    /// Raw building block for the RAII [`ConcurrentCracker::pin`]. Every
    /// registration must be matched by a
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

    /// [`ColumnRead::select_rowid_set`] at the current epoch, refining the
    /// index as a side effect; inherent so that callers without the trait
    /// in scope reach it.
    pub fn select_rowid_set(&self, low: i64, high: i64) -> (RowIdSet, QueryMetrics) {
        ColumnRead::select_rowid_set(self, low, high)
    }

    /// Ensures a crack exists at `bound` under the active latch protocol,
    /// blocking for latches even under [`RefinementPolicy::SkipOnContention`].
    pub(super) fn force_bound(&self, bound: i64, metrics: &mut QueryMetrics) -> usize {
        let crack = |piece: &Piece, m: &mut QueryMetrics| self.crack_one(piece, bound, m);
        let always = RefinementPolicy::Always;
        let cracks_before = metrics.cracks_performed;
        match self.write_piece(Target::Bound(bound), None, always, false, metrics, crack) {
            PieceWrite::Crack(pos) => pos,
            PieceWrite::Done(pos) => {
                // A forced crack is its own system transaction where the
                // column is held exclusively; under piece latches only
                // queries record theirs.
                if self.protocol != LatchProtocol::Piece {
                    self.note_refinement(metrics.cracks_performed - cracks_before, 0);
                }
                pos
            }
            PieceWrite::Skipped(_) => unreachable!("Always policy never skips refinement"),
        }
    }

    /// Write access to one piece under the active latch protocol — the
    /// paper's Figure 10, and the only place it is spelled out: find the
    /// piece `target` addresses, take the latch that covers it, and once
    /// granted *re-evaluate the target* — the piece queued on may have
    /// been split while this thread waited, so if the target now falls in
    /// a piece with another start, release and go after that piece's latch
    /// (found by the re-evaluation) instead. (A split that keeps the start
    /// only moved the end, which the re-evaluated piece reflects.) `work`
    /// then runs on the piece as it is now, under its write latch; under
    /// the column protocol under the column write latch; latch-free under
    /// the caller's exclusivity. Under piece latches `first`, a lookup of
    /// `target` the caller already made (the plan's batched one), stands
    /// in for the first lookup. `policy` applies to piece latches: with
    /// `SkipOnContention` a busy latch is not waited for and `work` is
    /// skipped. With `floor` (reads) a piece the read leaves uncracked
    /// ([`Self::read_skips`]) — on the first lookup or on the re-evaluation
    /// after the latch was granted — is skipped without `work`, and on the
    /// first lookup without touching its latch.
    pub(super) fn write_piece<R>(
        &self,
        target: Target,
        first: Option<Found>,
        policy: RefinementPolicy,
        floor: bool,
        metrics: &mut QueryMetrics,
        work: impl FnOnce(&Piece, &mut QueryMetrics) -> R,
    ) -> PieceWrite<R> {
        let below_floor = |piece: &Piece| match target {
            Target::Bound(bound) => floor && self.read_skips(bound, piece),
            Target::Key(_) | Target::Position(_) => false,
        };
        match self.protocol {
            LatchProtocol::Piece => {
                let mut found =
                    first.unwrap_or_else(|| self.dir.find_latched(target, |p| !below_floor(p)));
                loop {
                    let (piece, latch) = match found {
                        Ok((piece, Some(latch))) => (piece, latch),
                        Ok((piece, None)) => return PieceWrite::Skipped(piece),
                        Err(AlreadyCrack(pos)) => return PieceWrite::Crack(pos),
                    };
                    let _guard = match policy {
                        RefinementPolicy::Always => {
                            let g = latch.acquire_write(target.wake_key(Some(&piece)));
                            Self::note_wait(
                                metrics,
                                piece.start as u64,
                                LatchMode::Write,
                                g.outcome(),
                            );
                            g
                        }
                        RefinementPolicy::SkipOnContention => match latch.try_acquire_write() {
                            Some(g) => g,
                            None => {
                                metrics.refinements_skipped += 1;
                                return PieceWrite::Skipped(piece);
                            }
                        },
                    };
                    // A piece with another start comes with its latch, unless
                    // it is at the floor, which the next round skips.
                    let moved = |p: &Piece| p.start != piece.start && !below_floor(p);
                    found = self.dir.find_latched(target, moved);
                    match &found {
                        // Shrank to the floor by a split while this thread queued.
                        Ok((current, _))
                            if current.start == piece.start && below_floor(current) =>
                        {
                            return PieceWrite::Skipped(*current);
                        }
                        Ok((current, _)) if current.start == piece.start => {
                            return PieceWrite::Done(work(current, metrics));
                        }
                        _ => {}
                    }
                }
            }
            LatchProtocol::Column | LatchProtocol::None => {
                let _guard = (self.protocol == LatchProtocol::Column)
                    .then(|| self.column_write(target.wake_key(None), metrics));
                match self.dir.find(target) {
                    Err(AlreadyCrack(pos)) => PieceWrite::Crack(pos),
                    Ok(piece) if below_floor(&piece) => PieceWrite::Skipped(piece),
                    Ok(piece) => PieceWrite::Done(work(&piece, metrics)),
                }
            }
        }
    }

    /// Seqlock-validation failures tolerated before a read switches to the
    /// pausing fallback ([`ConcurrentCracker::reclaim_pause`]): bounded
    /// progress even under a pathological stream of reclaiming writers.
    pub(super) const SEQLOCK_RETRY_CAP: u32 = 3;

    /// Live rows above which a piece gets the pivot policy's extra crack
    /// ([`ConcurrentCracker::crack_piece`]): 3 MiB of 12-byte rows, a piece
    /// that no longer fits L2. Measured, not configurable, and the largest
    /// floor that keeps the sequential sweep's gain: lower floors make the
    /// sweep faster still, but every extra piece was one more per-piece
    /// run in each multi-column select, and at 4 Ki rows the table
    /// workloads' cold phase paid for it (sweep in CHANGES.md, PR 21).
    /// That cost is gone — a row-id set scatters every piece's ids into
    /// one bitmap, so a piece costs no sort and no heap entry. Its
    /// counterpart at the small end is [`Self::CRACK_FLOOR`]. That sweep
    /// was taken on the block partition kernel; the vector kernel moves a
    /// row faster, which may move the best floor too.
    pub(super) const PIVOT_FLOOR: usize = 256 << 10;

    /// Rows at or below which a read does not crack a piece: a bound inside
    /// it is filtered by the walk under the piece's read latch instead
    /// ([`ConcurrentCracker::read`]). 1 024 rows of 12 bytes fit L1 twice
    /// over; cracking such a piece saves less than its latch round trip and
    /// the directory entry every later read walks past. Measured, not
    /// configurable: on the benchmark's `col_uniform` (two clients reading
    /// a 16 Mi-row column, 2 vCPUs), floors of 0, 128, 256, 512, 1 024,
    /// 2 048, 4 096 and 8 192 rows gave 31, 40, 51, 75, 96, 94, 85 and
    /// 61 k steady reads/s (mean of two runs each; sweep in CHANGES.md).
    /// Stochastic cracking (Halim et al.) stops at a cache-sized piece too.
    pub(super) const CRACK_FLOOR: usize = 1 << 10;

    /// True if `piece` has at most the crack floor's rows.
    fn below_crack_floor(&self, piece: &Piece) -> bool {
        piece.len() <= self.crack_floor
    }

    /// True if a read resolving `bound` leaves `piece` uncracked and
    /// filters it as an edge instead: the piece is at or below the crack
    /// floor, or `bound` is `i64::MAX`. Only a read's high bound can be
    /// `i64::MAX`, and a crack there would split off nothing but that key's
    /// own rows, which `[low, i64::MAX)` excludes.
    fn read_skips(&self, bound: i64, piece: &Piece) -> bool {
        bound == i64::MAX || self.below_crack_floor(piece)
    }

    /// The one read path. Every read — any [`ReadShape`], now (`at =
    /// None`) or frozen at a registered snapshot epoch — runs the paper's
    /// crack-select operator: resolve both bounds under write latches
    /// (refining the index as a side effect), walk the qualifying pieces
    /// under read latches, fold the pending delta. A bound is left
    /// uncracked, and its piece filtered as an edge of the walk, when the
    /// piece has at most 1 024 rows (the crack floor; no write latch is
    /// taken), when it is a high bound of `i64::MAX`, or when conflict
    /// avoidance skips it. Invariants every shape inherits:
    ///
    /// * **One directory acquisition when converged.** Under piece latches
    ///   a read whose bounds need no write latch looks both up, and gets
    ///   its walk's first span batch, in one piece-directory acquisition;
    ///   the walk validates the batch against the structure version
    ///   instead of looking pieces up again (module docs).
    /// * **One write latch and one publish for bounds that share a piece.**
    ///   If the high bound still falls in the low bound's piece once that
    ///   piece's write latch is granted, both are cracked under it in one
    ///   `crack_piece` call, the shorter second pass last, and
    ///   published in one directory acquisition; otherwise the high bound
    ///   takes its own piece's latch after the first is released.
    /// * **A full-domain read cracks nothing.** `i64::MIN` is the crack at
    ///   position 0, and a high bound of `i64::MAX` is filtered.
    ///
    /// * **One delta view per seqlock window.** The main multiset changes
    ///   only through epoch-stamped reclamations (piece shrinks and
    ///   incremental hole-fills), so a (piece walk, delta view) pair taken
    ///   at one stable shrink epoch is consistent; on an epoch change the
    ///   pair is re-read — the plan is kept, so a retry is a cheap
    ///   re-scan — a bounded number of times, after which the read
    ///   pauses reclamations outright and finishes in one pass.
    /// * **Physical order in, no per-piece sort.** Id shapes receive every
    ///   visited piece's row ids as they lie; [`ReadShape::KeyRuns`] keeps
    ///   one run per piece and never sorts it.
    /// * **Positional count.** A [`ReadShape::Count`] takes no read latch
    ///   and reads no data in the plan's interior; only its edge pieces
    ///   are read-latched and filtered.
    /// * **No read cracks a piece of at most 1 024 rows.**
    /// * **Counted in its build ranges.** A non-empty read counts once in
    ///   every build range it overlaps ([`StructureProbe::partition_load`]).
    pub fn read(
        &self,
        low: i64,
        high: i64,
        at: Option<u64>,
        shape: ReadShape<'_>,
    ) -> (ReadAnswer, QueryMetrics) {
        let start = Instant::now();
        let mut metrics = QueryMetrics::default();
        if low >= high {
            metrics.total = start.elapsed();
            return (ReadAnswer::empty(shape), metrics);
        }
        self.ranges.charge(low, high - 1);
        // A `Within` read's filter as one bitmap, scattered (if it is
        // sorted) once for every seqlock attempt.
        let filter = match shape {
            ReadShape::Within(set) => Some(set.as_bitmap()),
            _ => None,
        };
        let within = filter.as_deref().map(RowIdSet::bits);
        let answer = {
            // Register with the quiesce gate for the whole operation:
            // positions resolved by the plan phase stay valid because no
            // compaction can rebuild the array underneath us.
            let _op = self.enter_if_compactable();
            let count = matches!(shape, ReadShape::Count);
            let mut span = None;
            let plan = (!self.data.is_empty()).then(|| match self.protocol {
                LatchProtocol::Piece => {
                    let (plan, first) = self.plan_piece(low, high, count, &mut metrics);
                    span = first;
                    plan
                }
                LatchProtocol::Column | LatchProtocol::None => {
                    self.plan_column(low, high, &mut metrics)
                }
            });
            let rows = plan.map_or(0, |plan| plan.end - plan.start);
            let (acc, view) = self.seqlock_retry(&mut metrics, |attempt, valid| {
                let mut acc = Accumulator::new(shape, rows, within);
                if let Some(plan) = plan {
                    // A retry walks afresh; the version check would catch a
                    // stale batch, but a new one costs the same. Every
                    // attempt refills the one span buffer of the read.
                    self.walk(plan, (low, high), &mut acc, attempt, &mut span);
                }
                let view = if acc.is_aggregate() {
                    DeltaView::Counts(self.delta.adjust(low, high, at))
                } else {
                    DeltaView::Rows(self.delta.pair_view(low, high, at))
                };
                valid().then_some((acc, view))
            });
            acc.finish(view, &mut metrics)
        };
        answer.stamp(&mut metrics);
        metrics.total = start.elapsed();
        (answer, metrics)
    }

    /// The seqlock retry loop — the only one: runs `attempt` inside
    /// shrink-epoch windows until one validates, and returns its value.
    /// `attempt` gets scratch metrics for the window and the window's
    /// validity probe, which it must call exactly once — after everything
    /// it read from the main array and the delta, or (writes) as the
    /// validation hook under the delta lock — returning `None` iff the
    /// probe failed. A window that loses the race to a reclamation keeps
    /// its latch timing honest, discards what it counted, and is retried;
    /// retries are bounded: past [`Self::SEQLOCK_RETRY_CAP`] reclamations
    /// are paused outright and the next window cannot fail.
    pub(super) fn seqlock_retry<T>(
        &self,
        metrics: &mut QueryMetrics,
        mut attempt: impl FnMut(&mut QueryMetrics, &dyn Fn() -> bool) -> Option<T>,
    ) -> T {
        let mut failures = 0u32;
        loop {
            let paused = (failures >= Self::SEQLOCK_RETRY_CAP).then(|| self.pause_reclaims());
            let epoch = self.seq_read_epoch();
            let mut spent = QueryMetrics::default();
            let valid = || self.seq_read_valid(epoch, paused.is_some());
            if let Some(value) = attempt(&mut spent, &valid) {
                metrics.accumulate(&spent);
                return value;
            }
            failures += 1;
            metrics.snapshot_retries = metrics.snapshot_retries.saturating_add(1);
            emit(TraceEvent::SnapshotRetry { attempt: failures });
            metrics.wait_time += spent.wait_time;
            metrics.aggregate_time += spent.aggregate_time;
            metrics.conflicts = metrics.conflicts.saturating_add(spent.conflicts);
        }
    }

    /// The piece walk: feeds `acc` the live part of every piece of the
    /// plan's range, holding the latches the active protocol prescribes —
    /// piece read latches one piece at a time, or the column read latch —
    /// and skipping each piece's dead hole tail. The plan's edge pieces are
    /// filtered by the original query `bounds`, its interior is not. Only
    /// reads, so seqlock retries may repeat it.
    ///
    /// Under piece latches the pieces come in [`Span`] batches: the
    /// plan's, if `span` holds one not walked yet, then one directory
    /// acquisition each, all refilling the one buffer `span` carries
    /// across the read. Each piece is read-latched — its latch borrowed
    /// from the directory's slab — and fed as the batch recorded it while
    /// the structure version still reads the batch's; otherwise the walk
    /// re-spans from that piece while holding its latch, which freezes its
    /// extent, so the re-span's first piece is fed at once and the walk
    /// always moves on. There is no other walk: the re-span is the
    /// fallback. One clock pair times the whole walk: its aggregate time
    /// is that time less the latch waits it recorded, so latch acquire and
    /// release and the directory's span lookups count as aggregation.
    pub(super) fn walk<'d>(
        &'d self,
        plan: MainPlan,
        bounds: (i64, i64),
        acc: &mut Accumulator<'_>,
        metrics: &mut QueryMetrics,
        span: &mut Option<Span<'d>>,
    ) {
        let MainPlan { lo, hi, .. } = plan;
        // The interior's count is purely positional: range width minus
        // the dead slots the directory records, no data access — and no
        // directory lock at all in the common hole-free state (a racing
        // shrink that invalidates the lock-free probe is caught by the
        // caller's epoch validation). Only the edges are left to walk.
        let count = matches!(acc, Accumulator::Count(_));
        if let Accumulator::Count(rows) = acc {
            *rows += (hi - lo - self.dir.holes_in(lo, hi)) as u64;
        }
        let ranges = plan.ranges(count);
        let left = |pos: usize| {
            let rest = ranges_from(&ranges, pos);
            rest.iter().any(|(from, to)| from < to).then_some(rest)
        };
        match self.protocol {
            LatchProtocol::Piece => {
                let walk_start = Instant::now();
                let waited = metrics.wait_time;
                let span = span.get_or_insert_with(Span::default);
                // The plan's batch is walked as it is; without one (or on
                // a retry, which finds the buffer emptied) the walk spans
                // from the start.
                if span.pieces.is_empty() {
                    let Some(rest) = left(0) else {
                        return;
                    };
                    self.dir.span(&rest, span);
                }
                let mut at = 0;
                while let Some(&recorded) = span.pieces.get(at) {
                    let guard = recorded.latch.acquire_read();
                    let start = recorded.start;
                    Self::note_wait(metrics, start as u64, LatchMode::Read, guard.outcome());
                    let mut piece = recorded;
                    if self.dir.version() != span.version {
                        // Frozen under this latch: re-span from here.
                        self.dir.span(&ranges_from(&ranges, start), span);
                        piece = span.pieces[0];
                        at = 0;
                        debug_assert_eq!(piece.start, start, "a re-span starts at its piece");
                    }
                    let filter = plan.filter_at(start, bounds);
                    acc.feed(&self.data, start, piece.live_end, filter);
                    drop(guard);
                    at += 1;
                    if at == span.pieces.len() {
                        if let Some(rest) = left(piece.end) {
                            self.dir.span(&rest, span);
                            at = 0;
                        }
                    }
                }
                span.pieces.clear();
                let walked = walk_start.elapsed();
                metrics.aggregate_time += walked.saturating_sub(metrics.wait_time - waited);
            }
            LatchProtocol::Column | LatchProtocol::None => {
                let guard = (self.protocol == LatchProtocol::Column).then(|| {
                    let g = self.column_latch.acquire_read();
                    Self::note_wait(
                        metrics,
                        TraceEvent::COLUMN_LATCH,
                        LatchMode::Read,
                        g.outcome(),
                    );
                    g
                });
                let agg_start = Instant::now();
                for (from, to) in ranges.into_iter().filter(|(from, to)| from < to) {
                    // The hole layout is frozen while we hold the column
                    // read latch (shrinks run only under the column *write*
                    // latch), so one probe lets a hole-free aggregate scan
                    // the range in at most three passes — edge, interior,
                    // edge. The range is a union of whole pieces, so the
                    // range-scoped probe is exact: holes elsewhere in the
                    // array don't matter here. Anything else walks the
                    // range's pieces span by span, which the same latch
                    // keeps current.
                    if acc.is_aggregate() && self.dir.holes_in(from, to) == 0 {
                        let cuts = [from, lo.clamp(from, to), hi.clamp(from, to), to];
                        for pass in cuts.windows(2).filter(|pass| pass[0] < pass[1]) {
                            let filter = plan.filter_at(pass[0], bounds);
                            acc.feed(&self.data, pass[0], pass[1], filter);
                        }
                        continue;
                    }
                    let (mut pos, mut span) = (from, Span::default());
                    while pos < to {
                        self.dir.span(&[(pos, to)], &mut span);
                        for piece in &span.pieces {
                            let filter = plan.filter_at(piece.start, bounds);
                            acc.feed(&self.data, piece.start, piece.live_end, filter);
                            pos = piece.end;
                        }
                    }
                }
                metrics.aggregate_time += agg_start.elapsed();
                drop(guard);
            }
        }
    }

    /// Opens one seqlock read attempt: waits for a stable (even) shrink
    /// epoch and registers the read with dcheck, which will insist it is
    /// closed via [`ConcurrentCracker::seq_read_valid`] before the next
    /// attempt begins.
    pub(super) fn seq_read_epoch(&self) -> u64 {
        let epoch = self.stable_shrink_epoch();
        dcheck::seq_read_begin(epoch);
        epoch
    }

    /// Closes the seqlock read attempt opened by
    /// [`ConcurrentCracker::seq_read_epoch`] and reports whether the pair
    /// of (main phase, delta snapshot) taken under `epoch` is consistent:
    /// always when reclamations were paused, otherwise iff no reclamation
    /// bumped the epoch in between.
    pub(super) fn seq_read_valid(&self, epoch: u64, paused: bool) -> bool {
        dcheck::seq_read_end();
        paused || self.shrink_epoch.load(Ordering::Acquire) == epoch
    }

    /// Enters the bounded-retry fallback: while the returned guard lives,
    /// no physical reclamation can start (sweeps and hole-fills defer),
    /// and any in-flight reclamation has drained, so a subsequent
    /// (main phase, delta snapshot) pair cannot be torn. Taken *before*
    /// any piece latch, so the `gate → shrink_serial → latch` order is
    /// never inverted.
    pub(super) fn pause_reclaims(&self) -> ReclaimPauseGuard<'_> {
        self.reclaim_pause.fetch_add(1, Ordering::AcqRel);
        // Barrier: reclamations already past their pause check finish
        // here; later ones observe the pause under the same mutex.
        drop(self.lock_shrink_serial());
        ReclaimPauseGuard { idx: self }
    }

    /// Waits for (and returns) an even shrink epoch: no physical
    /// reclamation in flight. A reclamation holds `shrink_serial` for its
    /// whole odd window, so waiting on that mutex *is* waiting for the
    /// epoch to turn even — and, unlike a spin, it is a wait the
    /// `aidx-check` scheduler can model (a window opens before any piece
    /// latch is taken, so the latch order holds as for
    /// [`ConcurrentCracker::pause_reclaims`]).
    fn stable_shrink_epoch(&self) -> u64 {
        loop {
            let epoch = self.shrink_epoch.load(Ordering::Acquire);
            if epoch.is_multiple_of(2) {
                return epoch;
            }
            drop(self.lock_shrink_serial());
        }
    }

    // ----- column-latch (and latch-free) protocol ------------------------

    /// Crack-select phase under the column write latch: resolves both
    /// bounds into cracks, leaving a bound the read skips
    /// ([`Self::read_skips`]) to be filtered, or — when conflict avoidance
    /// skips the refinement — filters both bounds' pieces. Both bounds are
    /// looked up in one directory acquisition, and bounds that share a
    /// piece are cracked in one [`Self::crack_piece`] call.
    fn plan_column(&self, low: i64, high: i64, metrics: &mut QueryMetrics) -> MainPlan {
        let guard = match (self.protocol, self.policy) {
            (LatchProtocol::None, _) => None,
            (_, RefinementPolicy::Always) => Some(self.column_write(low, metrics)),
            (_, RefinementPolicy::SkipOnContention) => {
                let granted = self.column_latch.try_acquire_write();
                if granted.is_none() {
                    metrics.refinements_skipped += 2;
                    self.note_refinement(0, 2);
                    let piece_of = |value| {
                        let piece = self.dir.find(Target::Key(value));
                        PieceWrite::<usize>::Skipped(piece.expect("a key has a piece"))
                    };
                    return MainPlan::resolved(piece_of(low), piece_of(high));
                }
                granted
            }
        };
        // One hold of the column latch covers both bounds.
        let (found_low, found_high, _) =
            self.dir
                .find_bounds::<()>((low, high), |_, _| false, |_, _| None);
        let (r_low, r_high) = match found_low {
            Err(AlreadyCrack(pos)) => PieceWrite::Crack(pos),
            Ok((piece, _)) if self.read_skips(low, &piece) => PieceWrite::Skipped(piece),
            Ok((piece, _)) => {
                PieceWrite::Done(self.crack_piece(&piece, low, shared_high(&piece, high), metrics))
            }
        }
        .unpair();
        // A high bound the crack body did not resolve lies in a piece it did
        // not touch, or is `i64::MAX`, whose piece (split or not) is
        // filtered from the low bound's crack on: its first lookup stands.
        let found_high = found_high.expect("a lookup that wants no latch resolves both bounds");
        let r_high = r_high.unwrap_or_else(|| match found_high {
            Err(AlreadyCrack(pos)) => PieceWrite::Crack(pos),
            Ok((piece, _)) if self.read_skips(high, &piece) => PieceWrite::Skipped(piece),
            Ok((piece, _)) => PieceWrite::Done(self.crack_one(&piece, high, metrics)),
        });
        self.note_refinement(metrics.cracks_performed, 0);
        drop(guard);
        MainPlan::resolved(r_low, r_high)
    }

    /// One partition pass: `[start, live_end)` around `pivot` under the
    /// caller's write latch, through [`SharedCrackerArray::crack_in_two_range`]
    /// whether or not a dead tail follows the range: the tail's slots past
    /// `live_end` are neither read nor written, so they stay on the
    /// topmost sub-piece as they were. Emits the pass as its own
    /// [`TraceEvent::Crack`] and returns the split position.
    fn crack_range_hole_aware(&self, start: usize, live_end: usize, pivot: i64) -> usize {
        let traced = aidx_obs::enabled().then(Instant::now);
        let pos = self.data.crack_in_two_range(start, live_end, pivot);
        if let Some(pass_start) = traced {
            emit(TraceEvent::Crack {
                piece: start as u64,
                pivot,
                rows: (live_end - start) as u64,
                ns: u64::try_from(pass_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            });
        }
        pos
    }

    /// Values of the non-empty live range `[start, end)`, read at positions
    /// drawn from `seed` by splitmix64 — a pure function of the range and
    /// the seed, with no generator and no shared state, so a replayed
    /// schedule, a shrunk proptest case and a re-run benchmark all sample
    /// what the first run did.
    fn hashed_samples(
        &self,
        start: usize,
        end: usize,
        seed: u64,
    ) -> impl Iterator<Item = i64> + '_ {
        const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
        let live = (end - start) as u64;
        let mut state = seed;
        std::iter::repeat_with(move || {
            // One splitmix64 step per draw.
            state = state.wrapping_add(GOLDEN);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            self.data.value_at(start + (z % live) as usize)
        })
    }

    /// The pivot policy's choice for the live range `[start, live_end)`:
    /// the median of three of its values, sampled at positions hashed from
    /// the range's extent and the bound being resolved
    /// ([`Self::hashed_samples`]), so every run cracks where the first did.
    fn data_driven_pivot(&self, start: usize, live_end: usize, bound: i64) -> i64 {
        let seed = (start as u64) ^ (live_end as u64).rotate_left(32) ^ (bound as u64);
        let mut sample = [0i64; 3];
        for (slot, value) in sample
            .iter_mut()
            .zip(self.hashed_samples(start, live_end, seed))
        {
            *slot = value;
        }
        sample.sort_unstable();
        sample[1]
    }

    /// The pass order for two bounds in one live range `[start, end)`:
    /// true if cracking `high` first leaves the shorter second pass — the
    /// range's rows below `high`, against those at or above `low` when
    /// `low` goes first. Estimated from eight values sampled at positions
    /// hashed from the range and both bounds ([`Self::hashed_samples`]):
    /// like the pivot, a pure function of the piece and the bounds. Ties
    /// crack `low` first.
    fn high_first(&self, start: usize, end: usize, low: i64, high: i64) -> bool {
        if start == end {
            return false;
        }
        let seed = (start as u64)
            ^ (end as u64).rotate_left(32)
            ^ (low as u64)
            ^ (high as u64).rotate_left(16);
        let (below, at_or_above) = self
            .hashed_samples(start, end, seed)
            .take(8)
            .fold((0u32, 0u32), |(below, above), v| {
                (below + u32::from(v < high), above + u32::from(v >= low))
            });
        below < at_or_above
    }

    /// The one crack body: resolves the bounds that fall inside `piece`
    /// (the caller holds write access to the piece) — `low`, and `high`
    /// too when a read's two bounds share the piece — and returns how each
    /// resolved: a crack's position, or for the bound cracked second the
    /// sub-piece it was left in. Sweeps reclaimable tombstoned rows to the
    /// piece's tail first — write access is exactly what piece shrinking
    /// needs — then partitions the live range.
    ///
    /// **Crack floor.** A read never gets here for a piece of at most
    /// [`Self::CRACK_FLOOR`] rows ([`ConcurrentCracker::write_piece`] and
    /// the column plan skip it); a forced bound does. Of two bounds, the
    /// one cracked second is cracked only if the sub-piece the first
    /// crack left it is above the floor; otherwise that sub-piece is the
    /// read's edge.
    ///
    /// **Pivot policy.** Where to put cracks is the core's to choose:
    /// refinement is optional, structure-only work. A piece whose live
    /// part exceeds [`Self::PIVOT_FLOOR`] is first partitioned — once per
    /// call — around a data-driven pivot ([`Self::data_driven_pivot`]) and
    /// each bound is cracked only in the half that contains it, so a sweep
    /// of bounds over a never-shrinking tail halves that tail instead of
    /// re-partitioning it (stochastic cracking's DD1R, Halim et al.). The
    /// pivot crack is dropped when it could not split anything: the pivot
    /// is a bound, is not above the piece's lower key bound (the crack
    /// exists), or leaves a side empty (a column of duplicates).
    ///
    /// **Pass order.** Two bounds in one range take two passes, the second
    /// over the part of the range the first crack leaves the other bound:
    /// the rows at or above `low` when `low` goes first, the rows below
    /// `high` when `high` does. Whichever leaves the shorter second pass
    /// goes first ([`Self::high_first`]); a pivot between the bounds gives
    /// each half one pass, `low`'s first. A crack's position is a row
    /// count, so each bound lands where it would in either order.
    ///
    /// **Physical work before publish.** The directory learns of the
    /// cracks only after *every* pass has run, and of all of them in one
    /// exclusive acquisition ([`PieceDirectory::split`]). The caller's
    /// latch is the one of `piece.start`; a split publishes a new piece
    /// start, whose fresh latch any thread may take at once — a crack
    /// published before a later pass would hand the sub-piece above it to
    /// another writer while this one still partitions it.
    fn crack_piece(
        &self,
        piece: &Piece,
        low: i64,
        high: Option<i64>,
        metrics: &mut QueryMetrics,
    ) -> Resolved {
        let crack_start = Instant::now();
        let (live_end, swept) = self.shrink_piece_locked(piece);
        metrics.rows_reclaimed += swept as u64;
        // One pass over a sub-piece's live rows; the dead tail stays on the
        // topmost sub-piece, whose end is the piece's.
        let pass = |sub: &Piece, value: i64| {
            self.crack_range_hole_aware(sub.start, sub.end.min(live_end), value)
        };
        let mut cracks: Vec<(i64, usize)> = Vec::with_capacity(3);
        let (mut low_in, mut high_in) = (*piece, *piece);
        if live_end - piece.start > self.pivot_floor {
            let pivot = self.data_driven_pivot(piece.start, live_end, low);
            let a_bound = pivot == low || high == Some(pivot);
            if !a_bound && piece.low_value.is_none_or(|lower| pivot > lower) {
                let pos = pass(piece, pivot);
                if piece.start < pos && pos < live_end {
                    cracks.push((pivot, pos));
                    let halves = split_at(piece, pivot, pos);
                    let half = |bound: i64| halves[usize::from(bound > pivot)];
                    (low_in, high_in) = (half(low), high.map_or(low_in, half));
                }
            }
        }
        let mut crack = |sub: &Piece, value: i64| {
            let pos = pass(sub, value);
            cracks.push((value, pos));
            pos
        };
        let resolved = match high {
            None => (PieceWrite::Done(crack(&low_in, low)), None),
            Some(high) => {
                let shared = low_in.start == high_in.start;
                let range_end = low_in.end.min(live_end);
                let high_first = shared && self.high_first(low_in.start, range_end, low, high);
                // The first pass, and the sub-piece it leaves the other bound.
                let (first, other, sub) = if high_first {
                    let pos = crack(&high_in, high);
                    (pos, low, split_at(&high_in, high, pos)[0])
                } else {
                    let pos = crack(&low_in, low);
                    let above = split_at(&low_in, low, pos)[1];
                    (pos, high, if shared { above } else { high_in })
                };
                // The bound cracked second is cracked unless its sub-piece
                // is at or below the crack floor.
                let second = if self.below_crack_floor(&sub) {
                    PieceWrite::Skipped(sub)
                } else {
                    PieceWrite::Done(crack(&sub, other))
                };
                let first = PieceWrite::Done(first);
                if high_first {
                    (second, Some(first))
                } else {
                    (first, Some(second))
                }
            }
        };
        self.dir.split(&cracks);
        let performed = cracks.len() as u32;
        metrics.crack_time += crack_start.elapsed();
        metrics.cracks_performed += performed;
        self.cracks.fetch_add(performed as u64, Ordering::Relaxed);
        resolved
    }

    /// [`Self::crack_piece`] for a lone bound, which it always cracks: the
    /// crack's position.
    fn crack_one(&self, piece: &Piece, bound: i64, metrics: &mut QueryMetrics) -> usize {
        match self.crack_piece(piece, bound, None, metrics) {
            (PieceWrite::Done(pos), None) => pos,
            _ => unreachable!("a lone bound is always cracked"),
        }
    }

    // ----- piece-latch protocol -------------------------------------------

    /// Bound-resolution phase under piece latches — each bound latches
    /// only the piece that contains it, unless the read skips that piece
    /// ([`Self::read_skips`]) — producing the plan the aggregation walk
    /// executes. Both bounds are looked up in one directory acquisition,
    /// which also returns the walk's first span batch when neither needs a
    /// latch (the converged case: the read's only acquisition, for a
    /// positional `count` covering only the edges). A bound that needs its
    /// latch runs [`Self::write_piece`] from that lookup. Bounds that share
    /// the low bound's piece, as re-evaluated once its latch is granted,
    /// are both resolved under that one latch, in one [`Self::crack_piece`]
    /// call and one publish; otherwise the high bound is resolved on its
    /// own, looked up after the low one's crack if that needed a latch.
    fn plan_piece(
        &self,
        low: i64,
        high: i64,
        count: bool,
        metrics: &mut QueryMetrics,
    ) -> (MainPlan, Option<Span<'_>>) {
        let needs_latch = |bound, piece: &Piece| !self.read_skips(bound, piece);
        let plan = |low: &Found, high: &Found| {
            let plan = MainPlan::resolved(unlatched(low), unlatched(high));
            Some((plan, plan.ranges(count)))
        };
        let (found_low, found_high, planned) = self.dir.find_bounds((low, high), needs_latch, plan);
        if let Some((plan, span)) = planned {
            return (plan, Some(span));
        }
        let (policy, target) = (self.policy, Target::Bound(low));
        let crack = |piece: &Piece, m: &mut QueryMetrics| {
            self.crack_piece(piece, low, shared_high(piece, high), m)
        };
        let found = Some(found_low);
        let (r_low, r_high) = self
            .write_piece(target, found, policy, true, metrics, crack)
            .unpair();
        let r_high = r_high.unwrap_or_else(|| {
            let crack = |piece: &Piece, m: &mut QueryMetrics| self.crack_one(piece, high, m);
            let target = Target::Bound(high);
            self.write_piece(target, found_high, policy, true, metrics, crack)
        });
        // Wrap this query's refinement in a system transaction record; a
        // floor skip is no skipped refinement, only a conflict skip is.
        self.note_refinement(metrics.cracks_performed, metrics.refinements_skipped);
        (MainPlan::resolved(r_low, r_high), None)
    }
}
