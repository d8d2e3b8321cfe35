//! The piece directory: everything that decides what a piece *is*.
//!
//! The paper's piece-wise protocol (Section 5.3, Figures 9–10) hangs the
//! latch on the piece inside the table of contents. So does this module:
//! the value → position tree ([`PieceMap`]) sits beside **one** ordered map
//! from piece start to a [`PieceRecord`] — the crack values recorded at
//! that position, the dead-tail hole count, the incremental compactor's
//! watermark, and the slot of the piece's latch. The latches themselves
//! live in a slab the directory owns ([`LatchSlab`]): a slot is assigned
//! when its record is made and never moves, so a walk borrows a latch
//! straight from the directory, and each latch counts its own acquisitions
//! and waits, so conflicts stay attributable to individual pieces.
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
//! cumulative total and recycling their slots.
//!
//! All of it lives behind one short-held reader-writer lock, every
//! acquisition of which is tracked at dcheck level `Toc` (innermost in the
//! global latch order): lookups share it — a read plans both its bounds
//! and gets the first batch of its walk in one acquisition, a piece walk
//! takes it once per [`Span`] batch of up to 64 pieces, and walks must not
//! queue behind each other — and only a change of structure (split, hole
//! accounting, watermark, install) excludes them. Every change that moves
//! a piece's extent or live end also bumps the directory's *structure
//! version*, which is what lets a walk trust a batch it read earlier
//! (see [`PieceDirectory::span`]). The directory also owns the index's
//! **quiesce gate** (level `Gate`, outermost): every operation that
//! touches the shared cracker array enters it in shared mode for its whole
//! duration, and a rebuild quiesces the index by taking it exclusively —
//! once granted, no query, write, or crack is in flight and none can
//! start. Piece latches stay the
//! fine-grained coordination *within* an operation.

use aidx_cracking::{Piece, PieceLookup, PieceMap};
use aidx_latch::dcheck;
use aidx_latch::facade::{self, RwLock, RwLockReadGuard, RwLockWriteGuard};
use aidx_latch::ordered::OrderedWaitLatch;
use aidx_latch::stats::LatchStatsSnapshot;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

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
    /// value is a crack already, or is `i64::MIN`, which no key lies below.
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

/// A piece lookup for write access: the piece with its latch if the
/// caller wanted it, or the crack a [`Target::Bound`] already is.
pub(crate) type Found<'d> = Result<(Piece, Option<&'d OrderedWaitLatch>), AlreadyCrack>;

/// Ascending, disjoint position ranges a walk visits (an empty one is
/// skipped). Every range starts and ends on a piece boundary.
pub(crate) type Ranges = [(usize, usize); 2];

/// Pieces one [`PieceDirectory::span`] acquisition returns at most: a
/// 20 % select over a finely cracked column takes a few directory
/// acquisitions per thousand pieces instead of one per piece, and no
/// acquisition holds the lock long enough to stall a concurrent split.
const SPAN_CAP: usize = 64;

/// One piece of a [`Span`], as the directory recorded it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpanPiece<'d> {
    pub start: usize,
    /// End of the piece, clipped to the walked range.
    pub end: usize,
    /// End of its live part: the dead tail `[live_end, end)` is skipped by
    /// every scan.
    pub live_end: usize,
    /// The piece's latch, borrowed from the directory's slab.
    pub latch: &'d OrderedWaitLatch,
}

/// Consecutive pieces of a walk read in one directory acquisition, and
/// the structure version they were read at. A walk refills one `Span`
/// batch after batch ([`PieceDirectory::span`]), so its buffer is
/// allocated once per walk, not once per batch.
#[derive(Debug, Default)]
pub(crate) struct Span<'d> {
    pub version: u64,
    pub pieces: Vec<SpanPiece<'d>>,
}

/// Buckets of a [`LatchSlab`]: bucket `k` holds `2^k` slots, so these
/// cover every slot index a `usize` can name.
const BUCKETS: usize = usize::BITS as usize;

/// The piece latches of one directory, by slot. Append-only buckets of
/// doubling size: a bucket is made once, whole, the first time one of its
/// slots is asked for, and a slot never moves, so a latch borrowed from
/// the slab stays valid for as long as the directory lives. A slot is
/// assigned to a record when the record is made; only
/// [`PieceDirectory::install`], with the index quiesced, takes the slots
/// back and hands them out again.
#[derive(Debug)]
struct LatchSlab {
    buckets: [OnceLock<Box<[OrderedWaitLatch]>>; BUCKETS],
}

impl LatchSlab {
    fn new() -> Self {
        LatchSlab {
            buckets: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// Bucket and offset of `slot`.
    fn locate(slot: usize) -> (usize, usize) {
        let n = slot + 1;
        let bucket = n.ilog2() as usize;
        (bucket, n - (1 << bucket))
    }

    /// The latch in `slot`, making its bucket — each latch with a fresh
    /// checker identity — if this is the bucket's first use.
    fn get(&self, slot: usize) -> &OrderedWaitLatch {
        let (bucket, at) = Self::locate(slot);
        let latches = self.buckets[bucket].get_or_init(|| {
            let latches = (0..1usize << bucket).map(|_| OrderedWaitLatch::new());
            let latches: Box<[OrderedWaitLatch]> = latches.collect();
            latches.iter().for_each(Self::retag);
            latches
        });
        &latches[at]
    }

    /// Every latch made so far, assigned to a record or not.
    fn latches(&self) -> impl Iterator<Item = &OrderedWaitLatch> {
        self.buckets.iter().filter_map(OnceLock::get).flatten()
    }

    /// Gives `latch` a fresh checker identity: slots change pieces across
    /// rebuilds, so witness edges must never alias a retired piece's latch
    /// with its successor in the same slot.
    fn retag(latch: &OrderedWaitLatch) {
        if dcheck::enabled() {
            latch.set_dcheck_tag(dcheck::Level::Piece, dcheck::instance_id(), "piece-latch");
        }
    }
}

/// Everything recorded about the piece(s) starting at one position. An
/// empty piece shares its start — and so its record — with the non-empty
/// piece that physically follows it.
#[derive(Debug)]
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
    /// The piece latch's slot in the directory's [`LatchSlab`]: the
    /// number of records made before this one since the last install.
    slot: usize,
}

impl PieceRecord {
    /// A record with nothing recorded yet, its latch in `slot`.
    fn new(slot: usize) -> Self {
        PieceRecord {
            keys: None,
            holes: 0,
            compacted_through: 0,
            slot,
        }
    }

    fn note_crack(&mut self, value: i64) {
        let (min, max) = self.keys.unwrap_or((value, value));
        self.keys = Some((min.min(value), max.max(value)));
    }
}

#[derive(Debug)]
struct State {
    map: PieceMap,
    /// Piece start → record; holds exactly the current piece starts
    /// (position 0 and every crack position). Records are only ever added
    /// between installs, so their slots are exactly `0..records.len()`.
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
            records: BTreeMap::from([(0, PieceRecord::new(0))]),
            total_holes: 0,
            floor,
            retired: LatchStatsSnapshot::default(),
        };
        for (value, position) in cracks {
            state.map.add_crack(value, position);
            let slot = state.records.len();
            let record = state.records.entry(position);
            record
                .or_insert_with(|| PieceRecord::new(slot))
                .note_crack(value);
        }
        state
    }

    fn locate(&self, target: Target) -> Result<Piece, AlreadyCrack> {
        match target {
            // No key lies below `i64::MIN`: it bounds the first position.
            Target::Bound(i64::MIN) => Err(AlreadyCrack(0)),
            Target::Bound(value) => match self.map.lookup(value) {
                PieceLookup::Exact(pos) => Err(AlreadyCrack(pos)),
                PieceLookup::NeedsCrack(piece) => Ok(piece),
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
                slot: self.records.len(),
            };
            self.records.insert(pos, upper);
        }
    }

    /// The piece `target` addresses, with its latch from `slab` if
    /// `wanted` asks.
    fn find_latched<'d>(
        &self,
        slab: &'d LatchSlab,
        target: Target,
        wanted: impl FnOnce(&Piece) -> bool,
    ) -> Found<'d> {
        let piece = self.locate(target)?;
        let latch = wanted(&piece).then(|| slab.get(self.records[&piece.start].slot));
        Ok((piece, latch))
    }

    /// Refills `pieces` with the pieces overlapping `ranges`, in position
    /// order, clipped to them: at most [`SPAN_CAP`], with their latches
    /// from `slab`.
    fn span<'d>(
        &self,
        slab: &'d LatchSlab,
        ranges: &[(usize, usize)],
        pieces: &mut Vec<SpanPiece<'d>>,
    ) {
        let len = self.map.array_len();
        pieces.clear();
        for &(from, to) in ranges.iter().filter(|(from, to)| from < to) {
            let mut starts = self.records.range(from..to).peekable();
            debug_assert_eq!(
                starts.peek().map(|(&s, _)| s),
                Some(from),
                "ranges start on pieces"
            );
            while let Some((&start, record)) = starts.next() {
                if pieces.len() == SPAN_CAP {
                    return;
                }
                let end = starts.peek().map_or(len, |(&next, _)| next).min(to);
                pieces.push(SpanPiece {
                    start,
                    end,
                    live_end: end - record.holes.min(end - start),
                    latch: slab.get(record.slot),
                });
            }
        }
    }

    /// Live end of `piece`. An empty piece shares its start with the piece
    /// that owns the dead tail; clamping attributes the tail to the latter.
    fn live_end(&self, piece: &Piece) -> usize {
        let holes = self.records.get(&piece.start).map_or(0, |r| r.holes);
        piece.end - holes.min(piece.len())
    }

    /// The retired counts plus those of every latch in `slab` (one that
    /// no record names has counted nothing since the last install).
    fn latch_totals(&self, slab: &LatchSlab) -> LatchStatsSnapshot {
        let mut total = self.retired;
        for latch in slab.latches() {
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
    /// The piece latches, by the slots the records name.
    slab: LatchSlab,
    /// Lock-free mirror of `total_holes` (the lock holds the truth): lets
    /// the hot read paths skip the lock in the common hole-free state.
    /// Readers that race a shrink making it stale are caught by the
    /// cracker's shrink-epoch validation.
    hole_rows: AtomicU64,
    /// Structure version: bumped (`Release`, under the write lock) by
    /// every change that moves a piece's extent or live end — `split`,
    /// `add_holes`, `fill_holes`, `install` — and by nothing else, so a
    /// [`Span`] read at version `v` describes every one of its pieces as
    /// long as the version still reads `v`.
    ///
    /// Why a walk may trust a piece of an old span once it holds the
    /// piece's read latch and the version (`Acquire`) still reads the
    /// span's: every extent or live-end change of a piece *p* happens
    /// either under *p*'s write latch (`crack_piece`'s split,
    /// `shrink_piece_locked`'s holes, compaction's hole fill) or under
    /// quiesce (`install`, with no read in flight), and the version is
    /// bumped before that latch is released. A change completed before
    /// the read latch was granted is therefore visible as a new version;
    /// one that has not started cannot start while the latch is held.
    /// Watermarks and the walk cursor move no extent and leave the
    /// version alone. A facade atomic, so that `aidx-check` explores every
    /// access to it.
    version: facade::AtomicU64,
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
            slab: LatchSlab::new(),
            hole_rows: AtomicU64::new(0),
            version: facade::AtomicU64::new(0),
            walk_cursor: AtomicUsize::new(0),
            gate: RwLock::new(()),
            instance: dcheck::instance_id(),
        }
    }

    /// Shared access: lookups, which leave the structure alone (a slab
    /// bucket made on its first use initialises its cell in place).
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

    /// As [`Self::find`], with the piece's latch from the same acquisition
    /// if `wanted` asks for it.
    pub(crate) fn find_latched(
        &self,
        target: Target,
        wanted: impl FnOnce(&Piece) -> bool,
    ) -> Found<'_> {
        self.read().find_latched(&self.slab, target, wanted)
    }

    /// Both bounds of a range in one acquisition, each resolved as
    /// [`Self::find_latched`] resolves a [`Target::Bound`], with `wanted`
    /// asked about the bound and its piece — the high one only if the low
    /// one took no latch: a crack at the low bound may split the high
    /// bound's piece, so it is looked up after that crack. When neither
    /// took a latch, `plan` may turn the two lookups into a plan and the
    /// ranges its walk visits; the walk's first latched [`Span`] batch then
    /// comes from the same acquisition.
    pub(crate) fn find_bounds<P>(
        &self,
        (low, high): (i64, i64),
        wanted: impl Fn(i64, &Piece) -> bool,
        plan: impl FnOnce(&Found, &Found) -> Option<(P, Ranges)>,
    ) -> (Found<'_>, Option<Found<'_>>, Option<(P, Span<'_>)>) {
        let state = self.read();
        let latched = |found: &Found| found.as_ref().is_ok_and(|(_, l)| l.is_some());
        let slab = &self.slab;
        let low = state.find_latched(slab, Target::Bound(low), |piece| wanted(low, piece));
        if latched(&low) {
            return (low, None, None);
        }
        let high = state.find_latched(slab, Target::Bound(high), |piece| wanted(high, piece));
        let planned =
            (!latched(&high))
                .then(|| plan(&low, &high))
                .flatten()
                .map(|(plan, ranges)| {
                    let mut span = Span {
                        version: self.version.load(Ordering::Acquire),
                        pieces: Vec::new(),
                    };
                    state.span(slab, &ranges, &mut span.pieces);
                    (plan, span)
                });
        (low, Some(high), planned)
    }

    /// Refills `span` with the pieces overlapping `ranges` — at most 64,
    /// from the first range's start on, clipped to the ranges, with their
    /// live ends and latches — and the structure version they were read
    /// at, in one acquisition. A walk continues from the last piece's end.
    /// A walker that latches a piece of the batch and finds the version
    /// unchanged may use the piece's recorded extent as it is (the
    /// argument is on the `version` field); otherwise it re-spans from
    /// that piece, whose extent its latch now freezes.
    pub(crate) fn span<'d>(&'d self, ranges: &[(usize, usize)], span: &mut Span<'d>) {
        let state = self.read();
        span.version = self.version.load(Ordering::Acquire);
        state.span(&self.slab, ranges, &mut span.pieces);
    }

    /// The current structure version (`Acquire`).
    pub(crate) fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Marks a change of some piece's extent or live end; the caller holds
    /// the write lock.
    fn bump_version(&self) {
        self.version.fetch_add(1, Ordering::Release);
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
        self.bump_version();
    }

    /// Records `n` freshly swept dead slots at the tail of the piece
    /// starting at `start`.
    pub(crate) fn add_holes(&self, start: usize, n: usize) {
        let mut state = self.write();
        state.record(start).holes += n;
        state.total_holes += n;
        self.bump_version();
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
        self.bump_version();
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
    /// back at 0, and every piece latch retired: its counts go into the
    /// cumulative totals and its slot, counters zeroed and with a fresh
    /// checker identity, goes to whichever new record takes it (positions
    /// changed meaning, so no latch keeps its piece). Call only while the
    /// index is quiesced: no latch is held or waited for.
    pub(crate) fn install(
        &self,
        len: usize,
        cracks: impl IntoIterator<Item = (i64, usize)>,
        epoch: u64,
    ) {
        let mut state = self.write();
        let mut fresh = State::new(len, cracks, epoch);
        fresh.retired = state.retired;
        for latch in self.slab.latches() {
            fresh.retired.merge(&latch.take_stats());
            LatchSlab::retag(latch);
        }
        *state = fresh;
        self.bump_version();
        self.hole_rows.store(0, Ordering::Release);
        self.walk_cursor.store(0, Ordering::Relaxed);
    }

    /// Merged statistics across all piece latches, retired ones included.
    pub(crate) fn latch_stats(&self) -> LatchStatsSnapshot {
        self.read().latch_totals(&self.slab)
    }

    /// Statistics of every piece latch that has been acquired (or given
    /// up on) since its slot was assigned, by piece start. Retired latches
    /// carry no position but remain in [`Self::latch_stats`].
    pub(crate) fn latch_stats_by_piece(&self) -> Vec<(usize, LatchStatsSnapshot)> {
        let state = self.read();
        let stats = state
            .records
            .iter()
            .map(|(&start, r)| (start, self.slab.get(r.slot).stats()));
        stats
            .filter(|(_, s)| *s != LatchStatsSnapshot::default())
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
    use std::ptr;
    use std::sync::Arc;
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

    /// The latch of the piece covering `pos`.
    fn latch_at(dir: &PieceDirectory, pos: usize) -> &OrderedWaitLatch {
        let found = dir.find_latched(Target::Position(pos), |_| true);
        found.unwrap().1.expect("a latch was asked for")
    }

    /// The slot of the record starting at `start`.
    fn slot_at(dir: &PieceDirectory, start: usize) -> usize {
        dir.read().records[&start].slot
    }

    /// Checks one span batch against the directory: contiguous from the
    /// first range's start, clipped to the ranges, each piece's live end
    /// and latch those of its record. Returns where the batch stopped.
    fn check_span(dir: &PieceDirectory, ranges: &[(usize, usize)], span: &Span) -> usize {
        let mut expect = ranges.iter().filter(|(from, to)| from < to).copied();
        let mut range = expect.next();
        let mut at = range.map_or(0, |r| r.0);
        for piece in &span.pieces {
            let (from, to) = range.expect("no piece past the last range");
            assert_eq!(piece.start, at.max(from), "contiguous in {ranges:?}");
            assert!(
                piece.start < piece.end && piece.end <= to,
                "clipped to {ranges:?}"
            );
            let whole = dir.find(Target::Position(piece.start)).unwrap();
            assert_eq!(piece.end, whole.end.min(to));
            assert_eq!(piece.live_end, dir.live_end(&whole).min(piece.end));
            assert!(ptr::eq(piece.latch, latch_at(dir, piece.start)));
            at = piece.end;
            if at == to {
                range = expect.next();
                at = range.map_or(at, |r| r.0);
            }
        }
        assert!(span.pieces.len() <= SPAN_CAP);
        if span.pieces.len() < SPAN_CAP {
            assert!(range.is_none(), "an uncapped span covers every range");
        }
        at
    }

    #[test]
    fn piece_latches_live_in_slots_shared_by_every_lookup() {
        let dir = with_starts(20, &[10]);
        let a = latch_at(&dir, 0);
        let b = latch_at(&dir, 0);
        let c = latch_at(&dir, 10);
        assert!(ptr::eq(a, b));
        assert!(!ptr::eq(a, c));
        assert!(ptr::eq(a, dir.slab.get(slot_at(&dir, 0))));
        assert!(ptr::eq(c, dir.slab.get(slot_at(&dir, 10))));
        // A position inside a piece resolves to that piece's latch; no
        // latch is ever recorded for a position that is not a piece start.
        assert!(ptr::eq(a, latch_at(&dir, 7)));
        let (piece, found) = dir.find_latched(Target::Key(12), |_| true).unwrap();
        assert_eq!((piece.start, piece.end), (10, 20));
        assert!(ptr::eq(c, found.unwrap()));
        let (_, declined) = dir.find_latched(Target::Key(3), |_| false).unwrap();
        assert!(declined.is_none());
        // Attribution lists the latches that were taken, not the slots.
        assert!(dir.latch_stats_by_piece().is_empty());
        drop(a.acquire_read());
        drop(c.acquire_write(12));
        assert_eq!(dir.latch_stats_by_piece().len(), 2);
        assert!(dir.check_invariants(20, 0));
    }

    /// An uncontended piece latch — mutex, condvar, holders, sleepers and
    /// acquisition counts — takes less than a cache line (the checkers'
    /// builds add their own fields).
    #[cfg(not(any(feature = "check", feature = "dcheck")))]
    #[test]
    fn a_piece_latch_is_smaller_than_a_cache_line() {
        assert!(std::mem::size_of::<OrderedWaitLatch>() <= 48);
    }

    #[test]
    fn slab_slots_never_move_as_buckets_are_added() {
        let (bucket, at) = (LatchSlab::locate(0), LatchSlab::locate(6));
        assert_eq!((bucket, at), ((0, 0), (2, 3)));
        assert_eq!(LatchSlab::locate(7), (3, 0));
        let dir = PieceDirectory::new(1000);
        assert!(
            dir.slab.latches().next().is_none(),
            "no latch before one is asked for"
        );
        let first = latch_at(&dir, 0);
        let starts: Vec<(i64, usize)> = (1..300).map(|p| (p as i64, p)).collect();
        dir.split(0, &starts);
        // 300 records name slots 0..300; a bucket is made at its first use.
        let slots: std::collections::BTreeSet<usize> =
            (0..300).map(|start| slot_at(&dir, start)).collect();
        assert_eq!(slots, (0..300).collect(), "one slot per record");
        let last = latch_at(&dir, 299);
        let made: Vec<bool> = dir.slab.buckets[..10]
            .iter()
            .map(|b| b.get().is_some())
            .collect();
        let bucket = LatchSlab::locate(slot_at(&dir, 299)).0;
        assert_eq!(
            made,
            (0..10).map(|b| b == 0 || b == bucket).collect::<Vec<_>>()
        );
        for start in 0..300 {
            latch_at(&dir, start);
        }
        assert_eq!(dir.slab.latches().count(), 511, "buckets 0 through 8");
        assert!(ptr::eq(first, latch_at(&dir, 0)), "slot 0 stayed put");
        assert!(ptr::eq(last, latch_at(&dir, 299)), "and so did the rest");
    }

    #[test]
    fn stats_merge_across_piece_latches_with_attribution() {
        let dir = with_starts(20, &[7]);
        drop(latch_at(&dir, 0).acquire_write(5));
        drop(latch_at(&dir, 7).acquire_read());
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
        let retired = latch_at(&dir, 3);
        let slot = slot_at(&dir, 3);
        drop(retired.acquire_write(1));
        drop(latch_at(&dir, 0).acquire_read());
        let old_id = retired.dcheck_id();
        assert_eq!(old_id.is_some(), dcheck::enabled());
        {
            let _q = dir.quiesce();
            // The piece at 3 moves to 5, and a new one at 11 takes a slot
            // past the old ones.
            dir.install(20, [(5, 5), (11, 11)], 1);
        }
        assert!(
            dir.latch_stats_by_piece().is_empty(),
            "live attribution cleared"
        );
        let totals = dir.latch_stats();
        assert_eq!(
            (totals.write_acquisitions, totals.read_acquisitions),
            (1, 1),
            "totals survive installs"
        );
        // The slot is handed out again, zeroed, as a new latch.
        assert_eq!(slot_at(&dir, 5), slot);
        let reused = latch_at(&dir, 5);
        assert!(ptr::eq(reused, retired), "the slab recycled the slot");
        assert_eq!(reused.stats(), LatchStatsSnapshot::default());
        if dcheck::enabled() {
            assert_ne!(reused.dcheck_id(), old_id, "a recycled slot is a new latch");
        }
        drop(reused.acquire_write(2));
        drop(latch_at(&dir, 11).acquire_read());
        let totals = dir.latch_stats();
        assert_eq!(
            (totals.write_acquisitions, totals.read_acquisitions),
            (2, 2)
        );
        let by_piece = dir.latch_stats_by_piece();
        assert_eq!(by_piece.len(), 2);
        assert_eq!((by_piece[0].0, by_piece[0].1.write_acquisitions), (5, 1));
        assert_eq!((by_piece[1].0, by_piece[1].1.read_acquisitions), (11, 1));
        // A second install folds the recycled slot's new counts once more.
        {
            let _q = dir.quiesce();
            dir.install(20, [], 2);
        }
        assert_eq!(dir.latch_stats(), totals, "cumulative across installs");
    }

    #[test]
    fn quiesce_excludes_operations_and_install_clears_latches() {
        let dir = Arc::new(with_starts(20, &[5]));
        drop(latch_at(&dir, 0).acquire_read());
        drop(latch_at(&dir, 5).acquire_read());
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
                        drop(latch_at(&dir, p).acquire_write(p as i64));
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
    fn span_batches_stop_at_the_cap_and_resume_where_they_stopped() {
        let starts: Vec<usize> = (1..300).collect();
        let dir = with_starts(300, &starts);
        dir.add_holes(150, 1);
        for ranges in [[(0, 300), (300, 300)], [(10, 100), (120, 290)]] {
            let (mut rest, mut batches, mut pieces) = (ranges, 0, 0);
            while rest.iter().any(|(from, to)| from < to) {
                let mut span = Span::default();
                dir.span(&rest, &mut span);
                let stop = check_span(&dir, &rest, &span);
                pieces += span.pieces.len();
                batches += 1;
                rest = rest.map(|(from, to)| (from.max(stop), to));
            }
            let total: usize = ranges.iter().map(|(from, to)| to - from).sum();
            assert_eq!(pieces, total, "one-row pieces, each walked once");
            assert_eq!(batches, total.div_ceil(SPAN_CAP));
        }
        // A refill replaces the batch; the buffer keeps its room.
        let mut span = Span::default();
        dir.span(&[(0, 300)], &mut span);
        let room = span.pieces.capacity();
        dir.span(&[(150, 151)], &mut span);
        assert_eq!((span.pieces[0].live_end, span.pieces.len()), (150, 1));
        assert_eq!(span.pieces.capacity(), room);
    }

    #[test]
    fn a_split_keeps_the_lower_identity_and_hands_tail_and_watermark_up() {
        let dir = PieceDirectory::new(100);
        let latch = latch_at(&dir, 0);
        drop(latch.acquire_write(0));
        dir.add_holes(0, 10);
        dir.mark_compacted(0, 7);
        dir.split(0, &[(50, 40)]);
        // Lower sub-piece: same latch, same counters, no dead tail.
        assert!(ptr::eq(latch, latch_at(&dir, 0)));
        assert_eq!(dir.latch_stats_by_piece()[0].1.write_acquisitions, 1);
        let lower = dir.find(Target::Key(10)).unwrap();
        assert_eq!((lower.start, lower.end, dir.live_end(&lower)), (0, 40, 40));
        // Upper sub-piece: a latch of its own, the dead tail, the watermark.
        let (upper, upper_latch) = dir.find_latched(Target::Key(50), |_| true).unwrap();
        let upper_latch = upper_latch.unwrap();
        assert_eq!(
            (upper.start, upper.end, dir.live_end(&upper)),
            (40, 100, 90)
        );
        assert!(!ptr::eq(latch, upper_latch));
        assert_eq!(upper_latch.stats().write_acquisitions, 0);
        assert_eq!((watermark(&dir, 0), watermark(&dir, 40)), (7, 7));
        assert_eq!((dir.holes_in(0, 40), dir.holes_in(40, 100)), (0, 10));
        // Cracks at either end add an empty piece and move nothing.
        dir.split(40, &[(50 - 1, 40)]);
        dir.split(0, &[(45, 40)]);
        assert_eq!((dir.holes_in(0, 40), dir.holes_in(40, 100)), (0, 10));
        assert!(ptr::eq(upper_latch, latch_at(&dir, 40)));
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
            let state = model.starts.iter().find(|s| s.0 == piece.start).unwrap();
            assert_eq!(watermark(dir, piece.start), state.2, "watermark at {}", pos);
        }
        // Spans between piece boundaries, one range and two.
        let mut bounds: Vec<usize> = model.starts.iter().map(|s| s.0).collect();
        bounds.push(model.len);
        bounds.sort_unstable();
        bounds.dedup();
        for (i, &from) in bounds.iter().enumerate() {
            let next = bounds.get(i + 1).copied().unwrap_or(from);
            for ranges in [[(from, model.len), (0, 0)], [(0, from), (next, model.len)]] {
                let mut span = Span::default();
                dir.span(&ranges, &mut span);
                let last = ranges.iter().rfind(|(from, to)| from < to);
                assert_eq!(check_span(dir, &ranges, &span), last.map_or(0, |r| r.1));
                assert_eq!(span.version, dir.version());
            }
        }
        // Both bounds in one acquisition, against two sequential lookups.
        let wanted = |piece: &Piece| piece.len() % 2 == 1;
        for low in (-24..24).step_by(3) {
            for high in [low + 1, low + 4, low + 11] {
                let mut planned = false;
                let plan = |l: &Found, h: &Found| {
                    planned = true;
                    let start = l.as_ref().map_or_else(|c| c.0, |(p, _)| p.start);
                    let end = h.as_ref().map_or_else(|c| c.0, |(p, _)| p.end);
                    Some(((), [(start, end.max(start)), (0, 0)]))
                };
                let (l, h, span) = dir.find_bounds((low, high), |_, p| wanted(p), plan);
                let l_latched = matches!(l, Ok((_, Some(_))));
                assert_eq!(
                    h.is_none(),
                    l_latched,
                    "the high bound waits for the low one's latch"
                );
                let h = h.unwrap_or_else(|| dir.find_latched(Target::Bound(high), wanted));
                for (found, bound) in [(&l, low), (&h, high)] {
                    let alone = dir.find(Target::Bound(bound));
                    assert_eq!(found.as_ref().map(|(p, _)| *p), alone.as_ref().copied());
                    if let Ok((piece, latch)) = found {
                        assert_eq!(latch.is_some(), wanted(piece), "bound {}", bound);
                        if let Some(latch) = latch {
                            assert!(ptr::eq(*latch, latch_at(dir, piece.start)));
                        }
                    }
                }
                let latched = [&l, &h].iter().any(|f| matches!(f, Ok((_, Some(_)))));
                assert_eq!(planned, !latched, "[{}, {})", low, high);
                if let Some(((), span)) = span {
                    let start = l.as_ref().map_or_else(|c| c.0, |(p, _)| p.start);
                    let end = h.as_ref().map_or_else(|c| c.0, |(p, _)| p.end);
                    let ranges = [(start, end.max(start))];
                    let stop = if start < end { end } else { 0 };
                    assert_eq!(check_span(dir, &ranges, &span), stop);
                }
            }
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
                // Every op that may move an extent or a live end bumps the
                // structure version; a watermark advance does not.
                let version = dir.version();
                let moves = match (kind, covering) {
                    (6, Some(_)) => Some(false),
                    (0..=5 | 8..=9, Some(_)) | (0..=3 | 7..=9, None) => Some(true),
                    _ => None,
                };
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
                        if n == 0 {
                            continue;
                        }
                        dir.add_holes(piece.start, n);
                        model.start(piece.start).1 += n;
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
                if let Some(moves) = moves {
                    prop_assert_eq!(dir.version() > version, moves, "op {}", kind);
                }
                assert_agrees(&dir, &model, epoch);
            }
        }
    }
}
