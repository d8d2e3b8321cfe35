//! The one read path of [`ConcurrentCracker`]: plan (bound resolution under
//! write latches), piece walk under read latches, per-shape accumulators,
//! and the shrink-epoch seqlock that ties the walk to one delta view.
//!
//! It also holds the one crack body, [`ConcurrentCracker::crack_piece`]:
//! every protocol, every backend built on this cracker (serial, range
//! owners) and the write path resolve a bound there and nowhere
//! else, so that is where the *pivot policy* lives. Two rules it keeps:
//!
//! * **Where the extra crack goes is a pure function of the piece** — a
//!   hash of its extent and the bound picks the rows the pivot is sampled
//!   from. No generator, no seed, no shared state: a schedule replayed by
//!   `aidx-check`, a proptest case being shrunk and a benchmark run with
//!   the same op stream all crack exactly where the first run did.
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
    /// Conflict avoidance: the piece's latch was busy and the optional
    /// work was skipped. The bound lies somewhere inside this piece, which
    /// a reader must filter instead.
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

/// The main-array part of one query, produced by the (cracking) plan phase
/// and consumed — possibly several times, if a concurrent reclamation
/// forces a retry — by the aggregation phase. Positions stay valid across
/// retries: cracks never move, and compaction (which would move them) is
/// excluded by the operation's quiesce-gate guard.
#[derive(Debug, Clone, Copy)]
pub(super) enum MainPlan {
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

    /// Fan-in of one `shape` read executed across partitions:
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
pub(super) enum Accumulator {
    Count(u64),
    Sum { rows: u64, sum: i128 },
    RowIds(Vec<RowId>),
    IdRuns(Vec<Vec<RowId>>),
    PairRuns(Vec<Vec<(i64, RowId)>>),
}

/// The delta's contribution to one read, snapshotted inside the seqlock
/// window and folded only once the window validated.
pub(super) enum DeltaView {
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

/// A registered snapshot of a [`ConcurrentCracker`], opened by
/// [`Index::pin`]: reads through the handle see exactly `main@epoch +
/// delta≤epoch` — the column as of the moment it was opened — no matter
/// how many writes, piece shrinks, or (incremental or full) compactions
/// race or complete in between. Dropping the handle releases the
/// registration and lets the delta garbage-collect the history kept on
/// its behalf.
#[derive(Debug)]
pub(crate) struct Snapshot<'a> {
    idx: &'a ConcurrentCracker,
    epoch: u64,
}

impl ColumnRead for Snapshot<'_> {
    /// [`ConcurrentCracker::read`] frozen at the snapshot epoch: rows
    /// inserted or physically placed after it are invisible, rows deleted
    /// or reclaimed after it are restored (ghosts).
    fn read(&self, low: i64, high: i64, shape: ReadShape) -> (ReadAnswer, QueryMetrics) {
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

    /// Opens a snapshot at the current column epoch (the body of
    /// [`Index::pin`]). Reads through the returned handle are frozen at
    /// that epoch — concurrent inserts, deletes, piece shrinks, and
    /// compaction steps (incremental or full) are all invisible to them —
    /// while still refining the index like any other query.
    pub(crate) fn snapshot(&self) -> Snapshot<'_> {
        Snapshot {
            idx: self,
            epoch: self.register_snapshot_epoch(),
        }
    }

    /// Registers a snapshot at the current column epoch and returns it.
    /// Raw building block for the RAII [`Index::pin`]; the
    /// range-partitioned wrapper, which manages one epoch per partition,
    /// uses this pair directly. Every registration must be matched by a
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
    /// index as a side effect: the compressed rowid-set read a table
    /// engine intersects across columns.
    pub fn select_rowid_set(&self, low: i64, high: i64) -> (RowIdSet, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, None, ReadShape::RowIdSet);
        (answer.into_set(), metrics)
    }

    /// Ensures a crack exists at `bound` under the active latch protocol,
    /// blocking for latches even under [`RefinementPolicy::SkipOnContention`].
    pub(super) fn force_bound(&self, bound: i64, metrics: &mut QueryMetrics) -> usize {
        let crack = |piece: &Piece, m: &mut QueryMetrics| self.crack_piece(piece, bound, m);
        let always = RefinementPolicy::Always;
        let cracks_before = metrics.cracks_performed;
        match self.write_piece(Target::Bound(bound), always, metrics, crack) {
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
    /// instead. (A split that keeps the start only moved the end, which
    /// the re-evaluated piece reflects.) `work` then runs on the piece as
    /// it is now, under its write latch; under the column protocol under
    /// the column write latch; latch-free under the caller's exclusivity.
    /// `policy` applies to piece latches: with `SkipOnContention` a busy
    /// latch is not waited for and `work` is skipped.
    pub(super) fn write_piece<R>(
        &self,
        target: Target,
        policy: RefinementPolicy,
        metrics: &mut QueryMetrics,
        work: impl FnOnce(&Piece, &mut QueryMetrics) -> R,
    ) -> PieceWrite<R> {
        match self.protocol {
            LatchProtocol::Piece => loop {
                let (piece, latch) = match self.dir.find_latched(target) {
                    Ok(found) => found,
                    Err(AlreadyCrack(pos)) => return PieceWrite::Crack(pos),
                };
                let _guard = match policy {
                    RefinementPolicy::Always => {
                        let g = latch.acquire_write(target.wake_key(Some(&piece)));
                        Self::note_wait(metrics, piece.start as u64, LatchMode::Write, g.outcome());
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
                match self.dir.find(target) {
                    Err(AlreadyCrack(pos)) => return PieceWrite::Crack(pos),
                    Ok(current) if current.start == piece.start => {
                        return PieceWrite::Done(work(&current, metrics));
                    }
                    Ok(_) => {}
                }
            },
            LatchProtocol::Column | LatchProtocol::None => {
                let _guard = (self.protocol == LatchProtocol::Column)
                    .then(|| self.column_write(target.wake_key(None), metrics));
                match self.dir.find(target) {
                    Err(AlreadyCrack(pos)) => PieceWrite::Crack(pos),
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
    /// sweep faster still, but every extra piece is one more per-piece run
    /// in each multi-column select, and at 4 Ki rows the table workloads'
    /// cold phase pays for it (sweep in CHANGES.md, PR 21).
    pub(super) const PIVOT_FLOOR: usize = 256 << 10;

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
    ///   cheap re-scan — a bounded number of times, after which the read
    ///   pauses reclamations outright and finishes in one pass.
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
            let (acc, view) = self.seqlock_retry(&mut metrics, |attempt, valid| {
                let mut acc = Accumulator::new(shape);
                if let Some(plan) = plan {
                    self.walk(plan, (low, high), &mut acc, attempt);
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
    /// and skipping each piece's dead hole tail. A filtered plan (skipped
    /// refinement) passes the original query `bounds` along for exact
    /// filtering. Only reads, so seqlock retries may repeat it.
    pub(super) fn walk(
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
        // the dead slots the directory records, no data access — and no
        // directory lock at all in the common hole-free state (a racing
        // shrink that invalidates the lock-free probe is caught by the
        // caller's epoch validation).
        if let (Accumulator::Count(rows), None) = (&mut *acc, filter) {
            *rows += (end - start - self.dir.holes_in(start, end)) as u64;
            return;
        }
        match self.protocol {
            LatchProtocol::Piece => {
                // One directory acquisition per walked piece: its extent,
                // read under its latch, comes with the next piece's latch.
                let (mut pos, mut latch) = (start, Some(self.dir.latch_at(start)));
                while let Some(current) = latch {
                    let guard = current.acquire_read();
                    Self::note_wait(metrics, pos as u64, LatchMode::Read, guard.outcome());
                    let step = self.dir.walk_step(pos, end, true);
                    let agg_start = Instant::now();
                    acc.feed(&self.data, pos, step.live_end, filter);
                    metrics.aggregate_time += agg_start.elapsed();
                    drop(guard);
                    (pos, latch) = (step.piece_end, step.next_latch);
                }
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
                // The hole layout is frozen while we hold the column read
                // latch (shrinks run only under the column *write* latch),
                // so one probe lets a hole-free aggregate scan the whole
                // range in a single pass. `[start, end)` is a union of
                // whole pieces, so the range-scoped probe is exact: holes
                // elsewhere in the array don't matter here.
                if acc.is_aggregate() && self.dir.holes_in(start, end) == 0 {
                    acc.feed(&self.data, start, end, filter);
                } else {
                    let mut pos = start;
                    while pos < end {
                        let step = self.dir.walk_step(pos, end, false);
                        acc.feed(&self.data, pos, step.live_end, filter);
                        pos = step.piece_end;
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
    /// bounds into cracks, or falls back to a conservative filtered plan
    /// when conflict avoidance skips the refinement.
    fn plan_column(&self, low: i64, high: i64, metrics: &mut QueryMetrics) -> MainPlan {
        let guard = match (self.protocol, self.policy) {
            (LatchProtocol::None, _) => None,
            (_, RefinementPolicy::Always) => Some(self.column_write(low, metrics)),
            (_, RefinementPolicy::SkipOnContention) => {
                let granted = self.column_latch.try_acquire_write();
                if granted.is_none() {
                    metrics.refinements_skipped += 2;
                    self.note_refinement(0, 2);
                    // Fall back to a filtered scan of the conservative range.
                    let piece_of = |value| {
                        self.dir
                            .find(Target::Key(value))
                            .expect("a key has a piece")
                    };
                    return MainPlan::Filtered {
                        start: piece_of(low).start,
                        end: piece_of(high).end,
                    };
                }
                granted
            }
        };
        // One hold of the column latch covers both bounds.
        let mut crack = |bound| match self.dir.find(Target::Bound(bound)) {
            Err(AlreadyCrack(pos)) => pos,
            Ok(piece) => self.crack_piece(&piece, bound, metrics),
        };
        let (start, end) = (crack(low), crack(high));
        self.note_refinement(metrics.cracks_performed, 0);
        drop(guard);
        MainPlan::Exact { start, end }
    }

    /// One partition pass: `[start, live_end)` around `pivot` under the
    /// caller's write latch, routing through the hole-aware gap walk when
    /// the range is followed by a dead tail (`live_end < piece_end`): the
    /// first dead slot is free scratch — its contents are
    /// reclaimed-tombstone garbage no read path ever touches — and the gap
    /// walk writes every misplaced element once. Emits the pass as its own
    /// [`TraceEvent::Crack`] and returns the split position.
    fn crack_range_hole_aware(
        &self,
        start: usize,
        live_end: usize,
        piece_end: usize,
        pivot: i64,
    ) -> usize {
        let traced = aidx_obs::enabled().then(Instant::now);
        let pos = if live_end < piece_end {
            let (pos, moves) = self
                .data
                .crack_in_two_with_hole(start, live_end, pivot, live_end);
            if moves > 0 {
                self.hole_cracks.fetch_add(1, Ordering::Relaxed);
            }
            pos
        } else {
            self.data.crack_in_two_range(start, live_end, pivot)
        };
        if let Some(pass_start) = traced {
            emit(TraceEvent::Crack {
                piece: start as u64,
                pivot,
                ns: u64::try_from(pass_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            });
        }
        pos
    }

    /// The pivot policy's choice for the live range `[start, live_end)`:
    /// the median of three values of the range, read at positions that are
    /// a hash of the range's extent and the bound being resolved — a pure
    /// function of the piece, with no generator and no shared state, so a
    /// replayed schedule, a shrunk proptest case and a re-run benchmark
    /// all crack where the first run did.
    fn data_driven_pivot(&self, start: usize, live_end: usize, bound: i64) -> i64 {
        const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
        let live = (live_end - start) as u64;
        let mut state = (start as u64) ^ (live_end as u64).rotate_left(32) ^ (bound as u64);
        let mut sample = [0i64; 3];
        for slot in &mut sample {
            // One splitmix64 step per draw.
            state = state.wrapping_add(GOLDEN);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            *slot = self.data.value_at(start + (z % live) as usize);
        }
        sample.sort_unstable();
        sample[1]
    }

    /// The one crack body: resolves `bound` inside `piece` (the caller
    /// holds write access to the piece) and returns the crack's position.
    /// Sweeps reclaimable tombstoned rows to the piece's tail first —
    /// write access is exactly what piece shrinking needs — then
    /// partitions the live range.
    ///
    /// **Pivot policy.** Where to put cracks is the core's to choose:
    /// refinement is optional, structure-only work. A piece whose live
    /// part exceeds [`Self::PIVOT_FLOOR`] is first partitioned around a
    /// data-driven pivot ([`Self::data_driven_pivot`]) and only the half
    /// that contains `bound` is cracked at it, so a sweep of bounds over a
    /// never-shrinking tail halves that tail instead of re-partitioning it
    /// (stochastic cracking's DD1R, Halim et al.). The pivot crack is
    /// dropped when it could not split anything: the pivot is the bound,
    /// is not above the piece's lower key bound (the crack exists), or
    /// leaves a side empty (a column of duplicates).
    ///
    /// **Physical work before publish.** The directory learns of the
    /// cracks only after *every* pass has run, and of all of them in one
    /// exclusive acquisition ([`PieceDirectory::split`]). The caller's
    /// latch is the one of `piece.start`; a split publishes a new piece
    /// start, whose fresh latch any thread may take at once — a pivot
    /// crack published before the bound pass would hand the upper half to
    /// another writer while this one still partitions it.
    fn crack_piece(&self, piece: &Piece, bound: i64, metrics: &mut QueryMetrics) -> usize {
        let crack_start = Instant::now();
        let (live_end, _) = self.shrink_piece_locked(piece);
        let (mut from, mut to) = (piece.start, live_end);
        // The dead tail follows whichever sub-range ends at `live_end`.
        let tail_end = |to: usize| if to == live_end { piece.end } else { to };
        let mut pivot_crack = None;
        if live_end - piece.start > self.pivot_floor {
            let pivot = self.data_driven_pivot(piece.start, live_end, bound);
            if pivot != bound && piece.low_value.is_none_or(|low| pivot > low) {
                let pos = self.crack_range_hole_aware(from, to, tail_end(to), pivot);
                if from < pos && pos < to {
                    pivot_crack = Some((pivot, pos));
                    if bound < pivot {
                        to = pos;
                    } else {
                        from = pos;
                    }
                }
            }
        }
        let pos = self.crack_range_hole_aware(from, to, tail_end(to), bound);
        match pivot_crack {
            None => self.dir.split(piece.start, &[(bound, pos)]),
            Some(pivot) if pivot.0 < bound => self.dir.split(piece.start, &[pivot, (bound, pos)]),
            Some(pivot) => self.dir.split(piece.start, &[(bound, pos), pivot]),
        }
        let performed = 1 + pivot_crack.is_some() as u32;
        metrics.crack_time += crack_start.elapsed();
        metrics.cracks_performed += performed;
        self.cracks.fetch_add(performed as u64, Ordering::Relaxed);
        pos
    }

    // ----- piece-latch protocol -------------------------------------------

    /// Bound-resolution phase under piece latches — each bound latches
    /// only the piece that contains it — producing the plan the
    /// aggregation walk executes.
    fn plan_piece(&self, low: i64, high: i64, metrics: &mut QueryMetrics) -> MainPlan {
        let mut resolve = |bound| {
            let crack = |piece: &Piece, m: &mut QueryMetrics| self.crack_piece(piece, bound, m);
            self.write_piece(Target::Bound(bound), self.policy, metrics, crack)
        };
        let (r_low, r_high) = (resolve(low), resolve(high));
        // Wrap this query's refinement in a system transaction record.
        self.note_refinement(metrics.cracks_performed, metrics.refinements_skipped);
        let start = match r_low {
            PieceWrite::Crack(pos) | PieceWrite::Done(pos) => pos,
            PieceWrite::Skipped(piece) => piece.start,
        };
        let end = match r_high {
            PieceWrite::Crack(pos) | PieceWrite::Done(pos) => pos,
            PieceWrite::Skipped(piece) => piece.end,
        };
        if matches!(r_low, PieceWrite::Skipped(_)) || matches!(r_high, PieceWrite::Skipped(_)) {
            MainPlan::Filtered { start, end }
        } else {
            MainPlan::Exact { start, end }
        }
    }
}
