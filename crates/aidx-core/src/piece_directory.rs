//! The piece directory: everything that decides what a piece *is*.
//!
//! The paper's piece-wise protocol (Section 5.3, Figures 9–10) hangs the
//! latch on the piece inside the table of contents. So does this module:
//! the value → position tree ([`PieceMap`]) sits beside **one** ordered map
//! from piece start to a [`PieceRecord`] — the crack values recorded at
//! that position, the dead-tail hole count, the incremental compactor's
//! watermark, and the piece's latch (created on first use, with its own
//! statistics block, so conflicts stay attributable to individual pieces).
//! A piece start is stable — a crack splits a piece in two and the lower
//! half keeps the identity — so a split is one [`PieceDirectory::split`]:
//! the lower sub-piece keeps record and latch, the upper inherits the
//! watermark and takes the dead tail. One crack body may split a piece
//! more than once (the pivot policy's data-driven crack plus the bound's);
//! `split` takes all of its cracks at once and publishes them in a single
//! exclusive acquisition, upper crack first so the tail ends up on the
//! topmost sub-piece. The contract with the caller is *physical work
//! before publish*: a new piece start comes with a latch of its own, which
//! any thread may take the moment it is visible, so every row of every
//! sub-piece must already be where its key bounds say. After a structural
//! rebuild positions
//! change meaning, and [`PieceDirectory::install`] replaces the whole
//! structure in one step, folding the retired latches' counts into a
//! cumulative total.
//!
//! All of it lives behind one short-held reader-writer lock, every
//! acquisition of which is tracked at dcheck level `Toc` (innermost in the
//! global latch order): lookups share it — a piece walk takes it once per
//! piece, and walks must not queue behind each other — and only a change
//! of structure (split, hole accounting, watermark, install) excludes
//! them. The directory also owns the index's **quiesce gate** (level `Gate`,
//! outermost): every operation that touches the shared cracker array
//! enters it in shared mode for its whole duration, and a rebuild quiesces
//! the index by taking it exclusively — once granted, no query, write, or
//! crack is in flight and none can start. Piece latches stay the
//! fine-grained coordination *within* an operation.

use aidx_cracking::{Piece, PieceMap};
use aidx_latch::dcheck;
use aidx_latch::facade::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use aidx_latch::ordered::OrderedWaitLatch;
use aidx_latch::stats::LatchStatsSnapshot;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A piece's latch, shared with the threads queued on it.
pub(crate) type PieceLatch = Arc<OrderedWaitLatch>;

/// Shared-mode guard proving an operation is registered with the quiesce
/// gate; while any of these is live, no rebuild can replace the array.
pub(crate) type OperationGuard<'a> = dcheck::Tracked<RwLockReadGuard<'a, ()>>;

/// Exclusive-mode guard proving the index is quiesced: no operation is in
/// flight and none can start until the guard drops.
pub(crate) type QuiesceGuard<'a> = dcheck::Tracked<RwLockWriteGuard<'a, ()>>;

/// What a piece lookup addresses.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Target {
    /// The piece a crack at this value has to reorganise — none if the
    /// value is a crack already.
    Bound(i64),
    /// The piece whose key interval contains this value.
    Key(i64),
    /// The non-empty piece covering this position, with its *exact* key
    /// interval: values `>=` the largest crack value recorded at its start
    /// and `<` the smallest recorded at its end.
    Position(usize),
}

impl Target {
    /// The bound a write-latch waiter queues under (middle-first wake-up
    /// order): the addressed value, or the piece's lower key bound.
    pub(crate) fn wake_key(self, piece: Option<&Piece>) -> i64 {
        match self {
            Target::Bound(value) | Target::Key(value) => value,
            Target::Position(_) => piece.and_then(|p| p.low_value).unwrap_or(i64::MIN),
        }
    }
}

/// A [`Target::Bound`] lookup found the value already cracked, at this
/// position: there is no piece to reorganise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AlreadyCrack(pub usize);

/// One step of a piece walk, read under the walked piece's latch.
#[derive(Debug)]
pub(crate) struct WalkStep {
    /// End of the piece (clipped to the walked range).
    pub piece_end: usize,
    /// End of its live part: the dead tail `[live_end, piece_end)` is
    /// skipped by every scan.
    pub live_end: usize,
    /// The next piece's latch, when asked for and the walk goes on.
    pub next_latch: Option<PieceLatch>,
}

/// Everything recorded about the piece(s) starting at one position. An
/// empty piece shares its start — and so its record — with the non-empty
/// piece that physically follows it.
#[derive(Debug, Default)]
struct PieceRecord {
    /// Smallest and largest crack value recorded at this position (several
    /// share it when the pieces between them are empty); `None` only at
    /// position 0 while no crack has landed there.
    keys: Option<(i64, i64)>,
    /// Dead slots at the piece's *tail*: physically reclaimed tombstoned
    /// rows awaiting the next rebuild. The live part of `[s, e)` with `h`
    /// holes is `[s, e − h)`.
    holes: usize,
    /// Delta epoch the incremental compactor has merged this piece
    /// through; 0 = not visited since the last rebuild, i.e. at the floor.
    compacted_through: u64,
    latch: OnceLock<PieceLatch>,
}

impl PieceRecord {
    fn note_crack(&mut self, value: i64) {
        let (min, max) = self.keys.unwrap_or((value, value));
        self.keys = Some((min.min(value), max.max(value)));
    }

    fn latch(&self) -> PieceLatch {
        Arc::clone(self.latch.get_or_init(|| {
            let latch = Arc::new(OrderedWaitLatch::new());
            // Fresh id per latch: positions change meaning across rebuilds,
            // so witness edges must never alias a retired latch with its
            // successor at the same position.
            latch.set_dcheck_tag(dcheck::Level::Piece, dcheck::instance_id(), "piece-latch");
            latch
        }))
    }
}

#[derive(Debug)]
struct State {
    map: PieceMap,
    /// Piece start → record; holds exactly the current piece starts
    /// (position 0 and every crack position).
    records: BTreeMap<usize, PieceRecord>,
    total_holes: usize,
    /// Delta epoch the last rebuild merged everything through.
    floor: u64,
    /// Counts of the latches forgotten by rebuilds: positions change
    /// meaning, column-wide totals stay cumulative.
    retired: LatchStatsSnapshot,
}

impl State {
    fn new(len: usize, cracks: impl IntoIterator<Item = (i64, usize)>, floor: u64) -> Self {
        let mut state = State {
            map: PieceMap::new(len),
            records: BTreeMap::from([(0, PieceRecord::default())]),
            total_holes: 0,
            floor,
            retired: LatchStatsSnapshot::default(),
        };
        for (value, position) in cracks {
            state.map.add_crack(value, position);
            state.records.entry(position).or_default().note_crack(value);
        }
        state
    }

    fn locate(&self, target: Target) -> Result<Piece, AlreadyCrack> {
        match target {
            // The piece above a crack has that crack's value as its lower
            // bound and starts where the crack is.
            Target::Bound(value) => match self.map.piece_for_value(value) {
                piece if piece.low_value == Some(value) => Err(AlreadyCrack(piece.start)),
                piece => Ok(piece),
            },
            Target::Key(value) => Ok(self.map.piece_for_value(value)),
            Target::Position(pos) => {
                let (&start, record) = self
                    .records
                    .range(..=pos)
                    .next_back()
                    .expect("position 0 always has a record");
                let next = self.records.range(pos + 1..).next();
                Ok(Piece {
                    start,
                    end: next.map_or(self.map.array_len(), |(&end, _)| end),
                    low_value: record.keys.map(|(_, max)| max),
                    high_value: next.and_then(|(_, r)| r.keys).map(|(min, _)| min),
                })
            }
        }
    }

    fn record(&mut self, start: usize) -> &mut PieceRecord {
        let record = self.records.get_mut(&start);
        record.expect("every piece start has a record")
    }

    /// Records a crack at `value`, found at `pos`, of the piece starting at
    /// `start`, which must end at or above `pos` with no piece start in
    /// between: the upper sub-piece takes the whole dead tail.
    fn split_lower(&mut self, start: usize, value: i64, pos: usize) {
        self.map.add_crack(value, pos);
        // No piece starts strictly inside another: this range holds the
        // lower record and, if `pos` is a piece start already, that one.
        let mut around = self.records.range_mut(start..=pos);
        let (_, lower) = around.next().expect("every piece start has a record");
        if pos == start {
            lower.note_crack(value);
        } else if let Some((_, at_pos)) = around.next() {
            at_pos.note_crack(value);
        } else {
            let upper = PieceRecord {
                keys: Some((value, value)),
                holes: std::mem::take(&mut lower.holes),
                compacted_through: lower.compacted_through,
                latch: OnceLock::new(),
            };
            self.records.insert(pos, upper);
        }
    }

    /// Live end of `piece`. An empty piece shares its start with the piece
    /// that owns the dead tail; clamping attributes the tail to the latter.
    fn live_end(&self, piece: &Piece) -> usize {
        let holes = self.records.get(&piece.start).map_or(0, |r| r.holes);
        piece.end - holes.min(piece.len())
    }

    fn latch_totals(&self) -> LatchStatsSnapshot {
        let mut total = self.retired;
        for latch in self.records.values().filter_map(|r| r.latch.get()) {
            total.merge(&latch.stats());
        }
        total
    }
}

/// The table of contents of one cracker array, the per-piece latches, and
/// the quiesce gate.
#[derive(Debug)]
pub(crate) struct PieceDirectory {
    state: RwLock<State>,
    /// Lock-free mirror of `total_holes` (the lock holds the truth): lets
    /// the hot read paths skip the lock in the common hole-free state.
    /// Readers that race a shrink making it stale are caught by the
    /// cracker's shrink-epoch validation.
    hole_rows: AtomicU64,
    /// Next position the incremental compaction walk resumes from
    /// (advisory: racing walkers merely duplicate a piece probe).
    walk_cursor: AtomicUsize,
    gate: RwLock<()>,
    /// Process-unique id tagging gate and lock in `dcheck`'s witness graph.
    instance: usize,
}

impl PieceDirectory {
    /// A directory over `len` positions with no cracks: one piece.
    pub(crate) fn new(len: usize) -> Self {
        PieceDirectory {
            state: RwLock::new(State::new(len, [], 0)),
            hole_rows: AtomicU64::new(0),
            walk_cursor: AtomicUsize::new(0),
            gate: RwLock::new(()),
            instance: dcheck::instance_id(),
        }
    }

    /// Shared access: lookups, which leave the structure alone (a latch
    /// created on first use initialises its cell in place).
    fn read(&self) -> dcheck::Tracked<RwLockReadGuard<'_, State>> {
        dcheck::Tracked::new(dcheck::Level::Toc, self.instance, "toc", self.state.read())
    }

    /// Exclusive access, for everything that changes the structure.
    fn write(&self) -> dcheck::Tracked<RwLockWriteGuard<'_, State>> {
        dcheck::Tracked::new(
            dcheck::Level::Toc,
            self.instance,
            "toc(x)",
            self.state.write(),
        )
    }

    /// Registers one operation (query, write, or forced refinement) with
    /// the quiesce gate, for the operation's whole duration.
    pub(crate) fn enter(&self) -> OperationGuard<'_> {
        dcheck::Tracked::new(
            dcheck::Level::Gate,
            self.instance,
            "quiesce-gate",
            self.gate.read(),
        )
    }

    /// Quiesces the index: blocks until every in-flight operation has left
    /// and keeps new ones out until the returned guard drops.
    pub(crate) fn quiesce(&self) -> QuiesceGuard<'_> {
        dcheck::Tracked::new(
            dcheck::Level::Gate,
            self.instance,
            "quiesce-gate(x)",
            self.gate.write(),
        )
    }

    /// The piece `target` addresses.
    pub(crate) fn find(&self, target: Target) -> Result<Piece, AlreadyCrack> {
        self.read().locate(target)
    }

    /// As [`Self::find`], with the piece's latch from the same acquisition.
    pub(crate) fn find_latched(&self, target: Target) -> Result<(Piece, PieceLatch), AlreadyCrack> {
        let state = self.read();
        let piece = state.locate(target)?;
        Ok((piece, state.records[&piece.start].latch()))
    }

    /// The latch of the piece covering `pos`.
    pub(crate) fn latch_at(&self, pos: usize) -> PieceLatch {
        let state = self.read();
        let record = state.records.range(..=pos).next_back();
        record.expect("position 0 always has a record").1.latch()
    }

    /// Extent of the piece starting at `pos` (clipped to `limit`) and, if
    /// `latch_next` and the walk continues, the following piece's latch —
    /// one acquisition per walked piece. The caller holds latches covering
    /// the piece, so its extent cannot change underneath.
    pub(crate) fn walk_step(&self, pos: usize, limit: usize, latch_next: bool) -> WalkStep {
        let state = self.read();
        let len = state.map.array_len();
        let mut from = state.records.range(pos..).peekable();
        let holes = from
            .next_if(|(&start, _)| start == pos)
            .map_or(0, |(_, r)| r.holes);
        let next = from.next();
        let piece_end = next.as_ref().map_or(len, |(&start, _)| start).min(limit);
        WalkStep {
            piece_end,
            live_end: piece_end - holes.min(piece_end - pos),
            next_latch: next
                .filter(|_| latch_next && piece_end < limit)
                .map(|(_, record)| record.latch()),
        }
    }

    /// True while any dead slot awaits reclamation (lock-free).
    pub(crate) fn has_holes(&self) -> bool {
        self.hole_rows.load(Ordering::Acquire) != 0
    }

    /// Live end of `piece`; lock-free in the hole-free state.
    pub(crate) fn live_end(&self, piece: &Piece) -> usize {
        if self.has_holes() {
            self.read().live_end(piece)
        } else {
            piece.end
        }
    }

    /// Dead slots across the pieces starting in `[start, end)`; lock-free
    /// in the hole-free state. Exact for any union of whole pieces (hole
    /// zones never straddle piece boundaries).
    pub(crate) fn holes_in(&self, start: usize, end: usize) -> usize {
        if !self.has_holes() {
            return 0;
        }
        let state = self.read();
        state.records.range(start..end).map(|(_, r)| r.holes).sum()
    }

    /// Publishes the cracks one system transaction made inside the piece
    /// starting at `start` — `(value, position)` pairs, ascending — in one
    /// exclusive acquisition, so no lookup ever sees some of them. The
    /// caller has finished *all* physical work on the piece: the moment a
    /// new piece start exists, so does a latch the caller does not hold.
    ///
    /// Applied upper crack first, each as a split of the (shrinking)
    /// piece at `start`: the lower sub-piece keeps its record — latch and
    /// counters included; the upper one inherits the watermark and takes
    /// the dead tail, which therefore ends up where it physically is, on
    /// the topmost sub-piece. A crack at either end of the piece only
    /// adds an empty piece to a position that has its record already.
    pub(crate) fn split(&self, start: usize, cracks: &[(i64, usize)]) {
        debug_assert!(cracks.is_sorted(), "cracks are published in key order");
        let mut state = self.write();
        for &(value, pos) in cracks.iter().rev() {
            state.split_lower(start, value, pos);
        }
    }

    /// Records `n` freshly swept dead slots at the tail of the piece
    /// starting at `start`.
    pub(crate) fn add_holes(&self, start: usize, n: usize) {
        let mut state = self.write();
        state.record(start).holes += n;
        state.total_holes += n;
        // Mirrored before the sweep's shrink epoch goes even again, so a
        // reader whose epoch validates also saw a current mirror.
        self.hole_rows.fetch_add(n as u64, Ordering::Release);
    }

    /// Takes `n` dead slots of the piece starting at `start` back into use
    /// (the incremental compactor placed pending inserts there).
    pub(crate) fn fill_holes(&self, start: usize, n: usize) {
        let mut state = self.write();
        state.record(start).holes -= n;
        state.total_holes -= n;
        self.hole_rows.fetch_sub(n as u64, Ordering::Release);
    }

    /// Advances the watermark of the piece starting at `start`: every
    /// delta row of its key range stamped up to `epoch` is merged.
    pub(crate) fn mark_compacted(&self, start: usize, epoch: u64) {
        self.write().record(start).compacted_through = epoch;
    }

    /// Installs a rebuilt structure — `len` positions, ascending `cracks`,
    /// everything merged through `epoch` — in place of the current one:
    /// no holes, every watermark at the new floor, the compaction walk
    /// back at 0, and every piece latch retired into the cumulative totals
    /// (positions changed meaning, so none may be reused). Call only while
    /// the index is quiesced.
    pub(crate) fn install(
        &self,
        len: usize,
        cracks: impl IntoIterator<Item = (i64, usize)>,
        epoch: u64,
    ) {
        let mut state = self.write();
        let mut fresh = State::new(len, cracks, epoch);
        fresh.retired = state.latch_totals();
        *state = fresh;
        self.hole_rows.store(0, Ordering::Release);
        self.walk_cursor.store(0, Ordering::Relaxed);
    }

    /// Merged statistics across all piece latches, retired ones included.
    pub(crate) fn latch_stats(&self) -> LatchStatsSnapshot {
        self.read().latch_totals()
    }

    /// Statistics of every *live* piece latch, by piece start. Retired
    /// latches carry no position but remain in [`Self::latch_stats`].
    pub(crate) fn latch_stats_by_piece(&self) -> Vec<(usize, LatchStatsSnapshot)> {
        let state = self.read();
        let live = state.records.iter();
        live.filter_map(|(&start, r)| Some((start, r.latch.get()?.stats())))
            .collect()
    }

    /// Number of pieces (empty ones included).
    pub(crate) fn piece_count(&self) -> usize {
        self.read().map.piece_count()
    }

    /// Dead slots across the whole array.
    pub(crate) fn total_holes(&self) -> usize {
        self.read().total_holes
    }

    /// Every piece in position order, with its live end (one ordered pass
    /// over pieces and records).
    pub(crate) fn live_pieces(&self) -> Vec<(Piece, usize)> {
        let state = self.read();
        let mut records = state.records.iter().peekable();
        let pieces = state.map.pieces().into_iter();
        pieces
            .map(|piece| {
                while records.next_if(|(&start, _)| start < piece.start).is_some() {}
                let at_start = records.peek().filter(|(&start, _)| start == piece.start);
                let holes = at_start.map_or(0, |(_, record)| record.holes);
                (piece, piece.end - holes.min(piece.len()))
            })
            .collect()
    }

    /// The delta epoch every piece has been merged through: the floor the
    /// last rebuild set, raised to the stalest piece watermark once the
    /// incremental walk has visited every piece since. An empty piece has
    /// no record of its own — the walk never sees its key interval — so
    /// while one exists the floor is all that can be promised.
    pub(crate) fn compacted_through(&self) -> u64 {
        let state = self.read();
        if state.records.len() < state.map.piece_count() {
            return state.floor;
        }
        let stalest = state.records.values().map(|r| r.compacted_through).min();
        state.floor.max(stalest.unwrap_or(0))
    }

    /// The compaction walk's resume position.
    pub(crate) fn walk_cursor(&self) -> usize {
        self.walk_cursor.load(Ordering::Relaxed)
    }

    /// Parks the compaction walk at `pos`.
    pub(crate) fn set_walk_cursor(&self, pos: usize) {
        self.walk_cursor.store(pos, Ordering::Relaxed);
    }

    /// Watermark-driven walk scheduling: points the walk cursor at the
    /// piece with the densest pending delta (`delta_rows` per position,
    /// given as ascending `(value, rows)`), breaking ties toward the
    /// stalest watermark, so the pieces with the most reconciliation work
    /// per latch acquisition merge first. Leaves the cursor alone when no
    /// piece has delta rows. `O(delta · log pieces)` against the *bounded*
    /// delta, however finely cracked the column is.
    pub(crate) fn steer_walk(&self, delta_rows: &[(i64, u64)]) {
        let state = self.read();
        if delta_rows.is_empty() || state.map.piece_count() <= 1 {
            return;
        }
        // piece start → (delta rows, piece span).
        let mut per_piece: BTreeMap<usize, (u64, usize)> = BTreeMap::new();
        for &(value, rows) in delta_rows {
            let piece = state.map.piece_for_value(value);
            per_piece.entry(piece.start).or_insert((0, piece.len())).0 += rows;
        }
        let mut best: Option<(usize, f64, u64)> = None; // (start, density, watermark)
        for (&start, &(rows, span)) in per_piece.iter().filter(|(_, &(_, span))| span > 0) {
            let density = rows as f64 / span as f64;
            let watermark = state.records[&start].compacted_through.max(state.floor);
            if best.is_none_or(|(_, d, w)| density > d || (density == d && watermark < w)) {
                best = Some((start, density, watermark));
            }
        }
        drop(state);
        if let Some((start, _, _)) = best {
            self.set_walk_cursor(start);
        }
    }

    /// Verifies the directory against itself in one ordered pass: the
    /// piece map is well-formed over `len` positions; the records are
    /// exactly the piece starts and carry the crack values found there; no
    /// dead tail outgrows its piece; hole counts, their total and the
    /// lock-free mirror agree; no watermark runs ahead of `current_epoch`.
    /// Only meaningful in quiescence.
    pub(crate) fn check_invariants(&self, len: usize, current_epoch: u64) -> bool {
        let state = self.read();
        if !state.map.check_invariants() || state.map.array_len() != len {
            return false;
        }
        // Pieces sharing a start: empty ones, then the one that owns the
        // positions up to the next start. Their lower bounds are the crack
        // values recorded at that start.
        let pieces = state.map.pieces();
        let same_start = |a: &Piece, b: &Piece| a.start == b.start;
        let mut holes = 0;
        state.records.len() == pieces.chunk_by(same_start).count()
            && state.floor <= current_epoch
            && pieces
                .chunk_by(same_start)
                .zip(&state.records)
                .all(|(group, (&start, record))| {
                    let last = group[group.len() - 1];
                    let cracks = || group.iter().filter_map(|p| p.low_value);
                    holes += record.holes;
                    start == last.start
                        && record.keys == cracks().min().zip(cracks().max())
                        && record.holes <= last.len()
                        && record.compacted_through <= current_epoch
                })
            && holes == state.total_holes
            && holes as u64 == self.hole_rows.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::thread;

    /// A directory over `len` positions whose pieces start at `starts`
    /// (crack value = position).
    fn with_starts(len: usize, starts: &[usize]) -> PieceDirectory {
        let dir = PieceDirectory::new(len);
        dir.install(len, starts.iter().map(|&p| (p as i64, p)), 0);
        dir
    }

    fn watermark(dir: &PieceDirectory, start: usize) -> u64 {
        dir.read().records[&start].compacted_through
    }

    #[test]
    fn latches_are_created_lazily_and_shared() {
        let dir = with_starts(20, &[10]);
        assert!(dir.latch_stats_by_piece().is_empty());
        let a = dir.latch_at(0);
        let b = dir.latch_at(0);
        let c = dir.latch_at(10);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        // A position inside a piece resolves to that piece's latch; no
        // latch is ever recorded for a position that is not a piece start.
        assert!(Arc::ptr_eq(&a, &dir.latch_at(7)));
        let (piece, found) = dir.find_latched(Target::Key(12)).unwrap();
        assert_eq!((piece.start, piece.end), (10, 20));
        assert!(Arc::ptr_eq(&c, &found));
        assert_eq!(dir.latch_stats_by_piece().len(), 2);
        assert!(dir.check_invariants(20, 0));
    }

    #[test]
    fn stats_merge_across_piece_latches_with_attribution() {
        let dir = with_starts(20, &[7]);
        drop(dir.latch_at(0).acquire_write(5));
        drop(dir.latch_at(7).acquire_read());
        let stats = dir.latch_stats();
        assert_eq!(stats.write_acquisitions, 1);
        assert_eq!(stats.read_acquisitions, 1);
        // Each piece keeps its own counts, reported in position order.
        let by_piece = dir.latch_stats_by_piece();
        assert_eq!(by_piece.len(), 2);
        assert_eq!(by_piece[0].0, 0);
        assert_eq!(by_piece[0].1.write_acquisitions, 1);
        assert_eq!(by_piece[0].1.read_acquisitions, 0);
        assert_eq!(by_piece[1].0, 7);
        assert_eq!(by_piece[1].1.read_acquisitions, 1);
    }

    #[test]
    fn install_retires_counts_into_the_cumulative_total() {
        let dir = with_starts(20, &[3]);
        drop(dir.latch_at(3).acquire_write(1));
        {
            let _q = dir.quiesce();
            dir.install(20, [(3, 3)], 1);
        }
        assert!(
            dir.latch_stats_by_piece().is_empty(),
            "live attribution cleared"
        );
        assert_eq!(
            dir.latch_stats().write_acquisitions,
            1,
            "totals survive installs"
        );
        drop(dir.latch_at(3).acquire_write(2));
        assert_eq!(dir.latch_stats().write_acquisitions, 2);
        assert_eq!(dir.latch_stats_by_piece()[0].1.write_acquisitions, 1);
    }

    #[test]
    fn quiesce_excludes_operations_and_install_clears_latches() {
        let dir = Arc::new(with_starts(20, &[5]));
        dir.latch_at(0);
        dir.latch_at(5);
        assert_eq!(dir.latch_stats_by_piece().len(), 2);
        {
            let _q = dir.quiesce();
            dir.install(20, [(5, 5)], 0);
        }
        assert!(
            dir.latch_stats_by_piece().is_empty(),
            "latches forgotten under quiesce"
        );

        // An in-flight operation blocks the quiesce until it finishes.
        let op = dir.enter();
        let dir2 = Arc::clone(&dir);
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = thread::spawn(move || {
            let _q = dir2.quiesce();
            tx.send(()).unwrap();
        });
        assert!(
            rx.recv_timeout(std::time::Duration::from_millis(50))
                .is_err(),
            "quiesce must wait for the operation guard"
        );
        drop(op);
        rx.recv_timeout(std::time::Duration::from_secs(5))
            .expect("quiesce proceeds once operations drain");
        handle.join().unwrap();
        // Multiple operations share the gate (one per thread: same-thread
        // re-entry is a deadlock hazard under a waiting writer, and dcheck
        // flags it).
        let _a = dir.enter();
        let dir3 = Arc::clone(&dir);
        thread::spawn(move || drop(dir3.enter())).join().unwrap();
    }

    #[test]
    fn concurrent_latch_lookup_is_race_free() {
        let starts: Vec<usize> = (1..50).collect();
        let dir = Arc::new(with_starts(50, &starts));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let dir = Arc::clone(&dir);
                thread::spawn(move || {
                    for p in 0..50usize {
                        drop(dir.latch_at(p).acquire_write(p as i64));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(dir.latch_stats_by_piece().len(), 50);
        assert_eq!(dir.latch_stats().write_acquisitions, 8 * 50);
    }

    #[test]
    fn a_split_keeps_the_lower_identity_and_hands_tail_and_watermark_up() {
        let dir = PieceDirectory::new(100);
        let latch = dir.latch_at(0);
        drop(latch.acquire_write(0));
        dir.add_holes(0, 10);
        dir.mark_compacted(0, 7);
        dir.split(0, &[(50, 40)]);
        // Lower sub-piece: same latch, same counters, no dead tail.
        assert!(Arc::ptr_eq(&latch, &dir.latch_at(0)));
        assert_eq!(dir.latch_stats_by_piece()[0].1.write_acquisitions, 1);
        let lower = dir.find(Target::Key(10)).unwrap();
        assert_eq!((lower.start, lower.end, dir.live_end(&lower)), (0, 40, 40));
        // Upper sub-piece: a latch of its own, the dead tail, the watermark.
        let (upper, upper_latch) = dir.find_latched(Target::Key(50)).unwrap();
        assert_eq!(
            (upper.start, upper.end, dir.live_end(&upper)),
            (40, 100, 90)
        );
        assert!(!Arc::ptr_eq(&latch, &upper_latch));
        assert_eq!(upper_latch.stats().write_acquisitions, 0);
        assert_eq!((watermark(&dir, 0), watermark(&dir, 40)), (7, 7));
        assert_eq!((dir.holes_in(0, 40), dir.holes_in(40, 100)), (0, 10));
        // Cracks at either end add an empty piece and move nothing.
        dir.split(40, &[(50 - 1, 40)]);
        dir.split(0, &[(45, 40)]);
        assert_eq!((dir.holes_in(0, 40), dir.holes_in(40, 100)), (0, 10));
        assert!(Arc::ptr_eq(&upper_latch, &dir.latch_at(40)));
        assert!(dir.check_invariants(100, 7));
    }

    #[test]
    fn publishing_the_lower_crack_first_loses_the_dead_tail() {
        let with_tail = || {
            let dir = PieceDirectory::new(100);
            dir.add_holes(0, 10);
            dir.mark_compacted(0, 3);
            dir
        };
        let dir = with_tail();
        dir.split(0, &[(30, 20), (60, 50)]);
        assert_eq!(
            [
                dir.holes_in(0, 20),
                dir.holes_in(20, 50),
                dir.holes_in(50, 100)
            ],
            [0, 0, 10]
        );
        assert_eq!([watermark(&dir, 20), watermark(&dir, 50)], [3, 3]);
        assert!(dir.check_invariants(100, 3));
        // The seeded mutation: the same two cracks, lower one first. The
        // dead tail travels to the middle piece and the upper crack lands
        // on that piece's record instead of one of its own.
        let wrong = with_tail();
        {
            let mut state = wrong.write();
            state.split_lower(0, 30, 20);
            state.split_lower(0, 60, 50);
        }
        assert_eq!(wrong.holes_in(20, 50), 10);
        assert!(!wrong.check_invariants(100, 3));
    }

    /// The naive model: cracks as a `Vec` sorted by value, per-start state
    /// as a `Vec` searched linearly.
    #[derive(Debug, Default)]
    struct Model {
        len: usize,
        cracks: Vec<(i64, usize)>,
        /// `(start, holes, watermark)`.
        starts: Vec<(usize, usize, u64)>,
    }

    impl Model {
        fn new(len: usize) -> Self {
            Model {
                len,
                cracks: Vec::new(),
                starts: vec![(0, 0, 0)],
            }
        }

        fn by_value(&self, value: i64) -> Piece {
            let lower = self.cracks.iter().rev().find(|c| c.0 <= value);
            let upper = self.cracks.iter().find(|c| c.0 > value);
            Piece {
                start: lower.map_or(0, |c| c.1),
                end: upper.map_or(self.len, |c| c.1),
                low_value: lower.map(|c| c.0),
                high_value: upper.map(|c| c.0),
            }
        }

        fn by_position(&self, pos: usize) -> Piece {
            let start = self.cracks.iter().map(|c| c.1).filter(|&p| p <= pos).max();
            let end = self.cracks.iter().map(|c| c.1).filter(|&p| p > pos).min();
            let at = |p: Option<usize>| self.cracks.iter().filter(move |c| Some(c.1) == p);
            Piece {
                start: start.unwrap_or(0),
                end: end.unwrap_or(self.len),
                low_value: at(start).map(|c| c.0).max(),
                high_value: at(end).map(|c| c.0).min(),
            }
        }

        fn start(&mut self, start: usize) -> &mut (usize, usize, u64) {
            self.starts.iter_mut().find(|s| s.0 == start).unwrap()
        }

        fn live_end(&self, piece: &Piece) -> usize {
            let holes = self.starts.iter().find(|s| s.0 == piece.start).unwrap().1;
            piece.end - holes.min(piece.len())
        }

        /// States the outcome of a publish, not its order: every new
        /// start inherits the watermark, and the dead tail — physically at
        /// the old piece's end — belongs to the topmost start below it.
        fn publish(&mut self, start: usize, cracks: &[(i64, usize)]) {
            let lower = self.start(start);
            let (holes, watermark) = (std::mem::take(&mut lower.1), lower.2);
            for &(value, pos) in cracks {
                let at = self.cracks.partition_point(|c| c.0 < value);
                self.cracks.insert(at, (value, pos));
                if self.starts.iter().all(|s| s.0 != pos) {
                    self.starts.push((pos, 0, watermark));
                }
            }
            let top = cracks.iter().map(|c| c.1).max().expect("a crack");
            self.start(top).1 += holes;
        }
    }

    fn assert_agrees(dir: &PieceDirectory, model: &Model, epoch: u64) {
        assert!(dir.check_invariants(model.len, epoch));
        for value in -24..24 {
            let by_value = model.by_value(value);
            assert_eq!(dir.find(Target::Key(value)), Ok(by_value), "key {}", value);
            let cracked = model.cracks.iter().find(|c| c.0 == value);
            let bound = cracked.map_or(Ok(by_value), |c| Err(AlreadyCrack(c.1)));
            assert_eq!(dir.find(Target::Bound(value)), bound, "bound {}", value);
        }
        for pos in 0..model.len {
            let piece = model.by_position(pos);
            assert_eq!(
                dir.find(Target::Position(pos)),
                Ok(piece),
                "position {}",
                pos
            );
            assert_eq!(dir.live_end(&piece), model.live_end(&piece));
            let step = dir.walk_step(piece.start, model.len, false);
            assert_eq!(
                (step.piece_end, step.live_end),
                (piece.end, model.live_end(&piece))
            );
            let state = model.starts.iter().find(|s| s.0 == piece.start).unwrap();
            assert_eq!(watermark(dir, piece.start), state.2, "watermark at {}", pos);
        }
        let holes: usize = model.starts.iter().map(|s| s.1).sum();
        assert_eq!(dir.total_holes(), holes);
        assert_eq!(dir.holes_in(0, model.len + 1), holes);
        assert_eq!(dir.has_holes(), holes > 0);
        assert_eq!(dir.piece_count(), model.cracks.len() + 1);
        let live: Vec<(Piece, usize)> = std::iter::once(model.by_value(i64::MIN))
            .chain(model.cracks.iter().map(|c| model.by_value(c.0)))
            .map(|p| (p, model.live_end(&p)))
            .collect();
        assert_eq!(dir.live_pieces(), live);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every mutation the cracker performs, in random order, against
        /// the naive model: cracks at a piece's start, interior and live
        /// end (several values sharing a position make empty pieces), the
        /// pivot policy's two-crack publish, hole sweeps and fills,
        /// watermark advances, and rebuild installs.
        #[test]
        fn directory_agrees_with_a_sorted_vec_model(
            len in 0usize..40,
            ops in prop::collection::vec((0u8..10, -20i64..20, 0usize..1000), 1..60),
        ) {
            let dir = PieceDirectory::new(len);
            let mut model = Model::new(len);
            let mut epoch = 0u64;
            assert_agrees(&dir, &model, epoch);
            for &(kind, value, pick) in &ops {
                // Hole and watermark ops address the piece covering a position.
                let covering = (len > 0).then(|| model.by_position(pick % len.max(1)));
                match (kind, covering) {
                    (0..=3, _) => {
                        let Ok(piece) = dir.find(Target::Bound(value)) else { continue };
                        let live = model.live_end(&piece) - piece.start;
                        let pos = piece.start + match kind {
                            0 => 0,
                            1 => live,
                            _ => pick % (live + 1),
                        };
                        dir.split(piece.start, &[(value, pos)]);
                        model.publish(piece.start, &[(value, pos)]);
                    }
                    (8..=9, _) => {
                        // Two cracks of one piece in one publish: a second
                        // value above the first inside the same key
                        // interval, at or above the first's position.
                        let Ok(piece) = dir.find(Target::Bound(value)) else { continue };
                        let upper = value + 1 + (pick % 3) as i64;
                        if piece.high_value.is_some_and(|high| upper >= high) {
                            continue;
                        }
                        let live_end = model.live_end(&piece);
                        let pos = piece.start + pick % (live_end - piece.start + 1);
                        let upper_pos = match kind {
                            8 => pos,
                            _ => pos + (pick / 7) % (live_end - pos + 1),
                        };
                        let cracks = [(value, pos), (upper, upper_pos)];
                        dir.split(piece.start, &cracks);
                        model.publish(piece.start, &cracks);
                    }
                    (4, Some(piece)) => {
                        let n = pick % (model.live_end(&piece) - piece.start + 1);
                        if n > 0 {
                            dir.add_holes(piece.start, n);
                            model.start(piece.start).1 += n;
                        }
                    }
                    (5, Some(piece)) => {
                        let n = pick % (piece.end - model.live_end(&piece) + 1);
                        dir.fill_holes(piece.start, n);
                        model.start(piece.start).1 -= n;
                    }
                    (6, Some(piece)) => {
                        epoch += 1;
                        dir.mark_compacted(piece.start, epoch);
                        model.start(piece.start).2 = epoch;
                    }
                    (7, _) => {
                        // A rebuild squeezes the dead tails out: every crack
                        // moves down by the holes below it.
                        epoch += 1;
                        let below = |pos: usize| -> usize {
                            model.starts.iter().filter(|s| s.0 < pos).map(|s| s.1).sum()
                        };
                        let cracks: Vec<(i64, usize)> =
                            model.cracks.iter().map(|c| (c.0, c.1 - below(c.1))).collect();
                        let new_len = len - below(len + 1);
                        dir.install(new_len, cracks.iter().copied(), epoch);
                        let mut starts: Vec<_> = cracks.iter().map(|c| (c.1, 0, 0)).collect();
                        starts.push((0, 0, 0));
                        starts.sort_unstable();
                        starts.dedup();
                        model = Model { len: new_len, cracks, starts };
                        prop_assert_eq!(dir.compacted_through(), epoch);
                        prop_assert_eq!(dir.walk_cursor(), 0);
                    }
                    _ => {}
                }
                assert_agrees(&dir, &model, epoch);
            }
        }
    }
}
