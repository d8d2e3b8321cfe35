//! The piece directory: everything that decides what a piece *is*.
//!
//! The paper's piece-wise protocol (Section 5.3, Figures 9–10) hangs the
//! latch on the piece inside the table of contents. So does this module:
//! one sequence of piece entries in position order — each the crack value
//! its piece starts at, its start, and a [`PieceRecord`] holding the
//! dead-tail hole count, the incremental compactor's watermark, and the
//! slot of the piece's latch. Positions ascend along the sequence and so
//! do crack values, so one search answers every lookup, by key or by
//! position. The sequence lies in leaves of at most 64 contiguous entries
//! behind a small sorted array of fences, each leaf's first key and start:
//! a lookup is one fence search and a search inside one leaf, a walk's
//! batch of pieces is a run of consecutive entries, and a crack is an
//! insert into one leaf (and a fence, when the leaf splits in two). An
//! empty piece — several crack values at one position — keeps its entry,
//! and shares its latch with the pieces at its start; the last of them,
//! the one that owns the positions up to the next start, carries the
//! record's holes and watermark.
//!
//! The latches themselves live in a slab the directory owns
//! ([`LatchSlab`]): a slot is assigned when a piece start is first
//! recorded and never moves, so a walk borrows a latch straight from the
//! directory, and each latch counts its own acquisitions and waits, so
//! conflicts stay attributable to individual pieces. No lookup hands out
//! anything that points into a leaf: pieces and spans are copies.
//! A piece start is stable — a crack splits a piece in two and the lower
//! half keeps the identity — so a split is one [`PieceDirectory::split`]:
//! the lower sub-piece keeps record and latch, the upper inherits the
//! watermark and takes the dead tail. One crack body may split a piece
//! more than once (the pivot policy's data-driven crack plus the bound's);
//! `split` takes all of its cracks at once and publishes them in a single
//! exclusive acquisition. Each crack is placed by its key, so the tail
//! ends up on the topmost sub-piece whatever the order. The contract with
//! the caller is *physical work before publish*: a new piece start comes
//! with a latch of its own, which any thread may take the moment it is
//! visible, so every row of every sub-piece must already be where its key
//! bounds say. After a structural rebuild positions change meaning, and
//! [`PieceDirectory::install`] replaces the whole structure in one step,
//! folding the retired latches' counts into a cumulative total and
//! recycling their slots.
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

use aidx_cracking::Piece;
use aidx_latch::dcheck;
use aidx_latch::facade::{self, RwLock, RwLockReadGuard, RwLockWriteGuard};
use aidx_latch::ordered::OrderedWaitLatch;
use aidx_latch::stats::LatchStatsSnapshot;
use std::collections::BTreeMap;
use std::iter;
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

/// Entries one leaf of the directory holds at most: a crack moves at most
/// this many within its leaf, and a full leaf splits into two halves.
const LEAF_CAP: usize = 64;

/// What is recorded about the piece(s) starting at one position. An empty
/// piece shares its start — and so its latch — with the piece that
/// physically follows it, which alone carries holes and watermark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PieceRecord {
    /// Dead slots at the piece's *tail*: physically reclaimed tombstoned
    /// rows awaiting the next rebuild. The live part of `[s, e)` with `h`
    /// holes is `[s, e − h)`.
    holes: usize,
    /// Delta epoch the incremental compactor has merged this piece
    /// through; 0 = not visited since the last rebuild, i.e. at the floor.
    compacted_through: u64,
    /// The piece latch's slot in the directory's [`LatchSlab`]: the
    /// number of piece starts recorded before this one since the last
    /// install.
    slot: usize,
}

/// One piece: the crack value that bounds it below, where it starts, and
/// its record.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Every key at positions `>= start` is `>= key`. The head entry — the
    /// piece at position 0 that no crack bounds below — holds `i64::MIN`.
    key: i64,
    start: usize,
    record: PieceRecord,
}

/// Where an entry lies: its leaf, and its index in that leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct At {
    leaf: usize,
    idx: usize,
}

/// The head entry's place: the first entry of the first leaf.
const HEAD: At = At { leaf: 0, idx: 0 };

/// True if `piece` is the last piece at its start, which owns the
/// positions up to the next start and the record's holes and watermark.
fn owns(piece: &Piece) -> bool {
    !piece.is_empty() || piece.high_value.is_none()
}

#[derive(Debug)]
struct State {
    /// Every piece in position order, which is also key order, in leaves
    /// of `1..=LEAF_CAP` entries.
    leaves: Vec<Vec<Entry>>,
    /// Key and start of each leaf's first entry: the first level of every
    /// search. Only a leaf split adds one; no insert lands at a leaf's
    /// front.
    fences: Vec<(i64, usize)>,
    /// Positions the directory covers.
    len: usize,
    /// Distinct piece starts. Starts are only ever added between
    /// installs, so their slots are exactly `0..starts`.
    starts: usize,
    total_holes: usize,
    /// Delta epoch the last rebuild merged everything through.
    floor: u64,
    /// Counts of the latches forgotten by rebuilds: positions change
    /// meaning, column-wide totals stay cumulative.
    retired: LatchStatsSnapshot,
}

impl State {
    fn new(len: usize, cracks: impl IntoIterator<Item = (i64, usize)>, floor: u64) -> Self {
        let head = Entry {
            key: i64::MIN,
            start: 0,
            record: PieceRecord::default(),
        };
        let mut leaf = Vec::with_capacity(LEAF_CAP);
        leaf.push(head);
        let mut state = State {
            leaves: vec![leaf],
            fences: vec![(head.key, head.start)],
            len,
            starts: 1,
            total_holes: 0,
            floor,
            retired: LatchStatsSnapshot::default(),
        };
        for (value, position) in cracks {
            state.add_crack(value, position);
        }
        state
    }

    fn entry(&self, at: At) -> &Entry {
        &self.leaves[at.leaf][at.idx]
    }

    fn next(&self, at: At) -> Option<At> {
        if at.idx + 1 < self.leaves[at.leaf].len() {
            Some(At {
                idx: at.idx + 1,
                ..at
            })
        } else {
            (at.leaf + 1 < self.leaves.len()).then_some(At {
                leaf: at.leaf + 1,
                idx: 0,
            })
        }
    }

    fn piece_count(&self) -> usize {
        self.leaves.iter().map(Vec::len).sum()
    }

    /// The last entry whose key is `<= value`. A search from `hint`, an
    /// entry at or below that key, stays in the hint's leaf when the value
    /// lies below the next leaf's fence.
    fn seek_key(&self, value: i64, hint: Option<At>) -> At {
        let in_leaf = |leaf: usize| {
            self.fences[leaf].0 <= value
                && self
                    .fences
                    .get(leaf + 1)
                    .is_none_or(|fence| value < fence.0)
        };
        let leaf = match hint {
            Some(at) if in_leaf(at.leaf) => at.leaf,
            _ => self.fences.partition_point(|fence| fence.0 <= value) - 1,
        };
        let idx = self.leaves[leaf].partition_point(|e| e.key <= value) - 1;
        At { leaf, idx }
    }

    /// The last entry starting at or before `pos`: the owner of the piece
    /// start at or below it.
    fn seek_start(&self, pos: usize) -> At {
        let leaf = self.fences.partition_point(|fence| fence.1 <= pos) - 1;
        let idx = self.leaves[leaf].partition_point(|e| e.start <= pos) - 1;
        At { leaf, idx }
    }

    /// The first entry starting at or after `pos`, if any does.
    fn seek_first(&self, pos: usize) -> Option<At> {
        let leaf = self.fences.partition_point(|fence| fence.1 < pos);
        let leaf = leaf.saturating_sub(1);
        let idx = self.leaves[leaf].partition_point(|e| e.start < pos);
        if idx < self.leaves[leaf].len() {
            Some(At { leaf, idx })
        } else {
            (leaf + 1 < self.leaves.len()).then_some(At {
                leaf: leaf + 1,
                idx: 0,
            })
        }
    }

    /// The entries from `at` on, in order.
    fn entries(&self, at: At) -> impl Iterator<Item = &Entry> {
        let rest = self.leaves[at.leaf + 1..].iter().flatten();
        self.leaves[at.leaf][at.idx..].iter().chain(rest)
    }

    /// The piece whose entry lies at `at`: from its start to the next
    /// entry's, its key interval from its own key to the next one's.
    fn piece(&self, at: At) -> Piece {
        let entry = self.entry(at);
        let next = self.next(at).map(|next| self.entry(next));
        Piece {
            start: entry.start,
            end: next.map_or(self.len, |next| next.start),
            low_value: (at != HEAD).then_some(entry.key),
            high_value: next.map(|next| next.key),
        }
    }

    /// The pieces from `at` on, in position order, each with its entry.
    fn pieces(&self, at: At) -> impl Iterator<Item = (Piece, &Entry)> {
        let places = iter::successors(Some(at), |&at| self.next(at));
        places.map(|at| (self.piece(at), self.entry(at)))
    }

    /// The piece `target` addresses, and where its entry lies (the head's
    /// place for the crack at `i64::MIN`).
    fn locate(&self, target: Target, hint: Option<At>) -> (At, Result<Piece, AlreadyCrack>) {
        let at = match target {
            // No key lies below `i64::MIN`: it bounds the first position.
            Target::Bound(i64::MIN) => return (HEAD, Err(AlreadyCrack(0))),
            Target::Bound(value) | Target::Key(value) => self.seek_key(value, hint),
            Target::Position(pos) => self.seek_start(pos),
        };
        let piece = self.piece(at);
        match target {
            Target::Bound(value) if piece.low_value == Some(value) => {
                (at, Err(AlreadyCrack(piece.start)))
            }
            _ => (at, Ok(piece)),
        }
    }

    /// The record of the piece start `start`, as its owner holds it.
    fn record(&self, start: usize) -> &PieceRecord {
        let entry = self.entry(self.seek_start(start));
        assert_eq!(entry.start, start, "every piece start has a record");
        &entry.record
    }

    fn record_mut(&mut self, start: usize) -> &mut PieceRecord {
        let at = self.seek_start(start);
        let entry = &mut self.leaves[at.leaf][at.idx];
        assert_eq!(entry.start, start, "every piece start has a record");
        &mut entry.record
    }

    /// Records a crack at `value`, found at `pos`, of the piece whose key
    /// interval holds `value`, which must start at or below `pos` and end
    /// at or above it. The new piece is an empty one when `pos` is either
    /// end of that piece; otherwise it is a new start that takes the
    /// lower piece's dead tail and inherits its watermark.
    fn add_crack(&mut self, value: i64, pos: usize) {
        let at = self.seek_key(value, None);
        let next = self.next(at).map(|next| *self.entry(next));
        let fresh = self.starts;
        let lower = &mut self.leaves[at.leaf][at.idx];
        debug_assert!(at == HEAD || lower.key < value, "a value is cracked once");
        debug_assert!(lower.start <= pos && next.is_none_or(|next| pos <= next.start));
        let record = match next {
            // An empty piece before the start at `pos`, sharing its latch.
            Some(next) if next.start == pos => PieceRecord {
                slot: next.record.slot,
                ..PieceRecord::default()
            },
            // An empty piece at the lower piece's start: the new piece owns
            // the positions now, the lower one keeps only the latch.
            _ if pos == lower.start => {
                let latch_only = PieceRecord {
                    slot: lower.record.slot,
                    ..PieceRecord::default()
                };
                std::mem::replace(&mut lower.record, latch_only)
            }
            _ => {
                self.starts += 1;
                PieceRecord {
                    holes: std::mem::take(&mut lower.record.holes),
                    compacted_through: lower.record.compacted_through,
                    slot: fresh,
                }
            }
        };
        let entry = Entry {
            key: value,
            start: pos,
            record,
        };
        self.insert_after(at, entry);
    }

    /// Inserts `entry` right after the one at `at`, splitting a full leaf.
    fn insert_after(&mut self, at: At, entry: Entry) {
        let At { mut leaf, idx } = at;
        let mut idx = idx + 1;
        if self.leaves[leaf].len() == LEAF_CAP {
            let half = LEAF_CAP / 2;
            let mut upper = Vec::with_capacity(LEAF_CAP);
            upper.extend(self.leaves[leaf].drain(half..));
            self.fences.insert(leaf + 1, (upper[0].key, upper[0].start));
            self.leaves.insert(leaf + 1, upper);
            if idx > half {
                (leaf, idx) = (leaf + 1, idx - half);
            }
        }
        self.leaves[leaf].insert(idx, entry);
    }

    /// The piece `target` addresses, with its latch from `slab` if
    /// `wanted` asks, and where its entry lies.
    fn find_latched<'d>(
        &self,
        slab: &'d LatchSlab,
        target: Target,
        hint: Option<At>,
        wanted: impl FnOnce(&Piece) -> bool,
    ) -> (At, Found<'d>) {
        let (at, piece) = self.locate(target, hint);
        let found = piece.map(|piece| {
            let latch = wanted(&piece).then(|| slab.get(self.entry(at).record.slot));
            (piece, latch)
        });
        (at, found)
    }

    /// Refills `pieces` with the pieces overlapping `ranges`, in position
    /// order, clipped to them: at most [`SPAN_CAP`], with their latches
    /// from `slab`. A range starting where an entry of `hints` starts is
    /// walked from that entry, without a search.
    fn span<'d>(
        &self,
        slab: &'d LatchSlab,
        ranges: &[(usize, usize)],
        hints: &[At],
        pieces: &mut Vec<SpanPiece<'d>>,
    ) {
        pieces.clear();
        for &(from, to) in ranges.iter().filter(|(from, to)| from < to) {
            let hint = hints.iter().find(|&&at| self.entry(at).start == from);
            let at = hint.copied().or_else(|| self.seek_first(from));
            let at = at.expect("ranges start on pieces");
            debug_assert_eq!(self.entry(at).start, from, "ranges start on pieces");
            let owners = self.pieces(at).filter(|(piece, _)| owns(piece));
            for (piece, entry) in owners.take_while(|(piece, _)| piece.start < to) {
                if pieces.len() == SPAN_CAP {
                    return;
                }
                let end = piece.end.min(to);
                pieces.push(SpanPiece {
                    start: piece.start,
                    end,
                    live_end: end - entry.record.holes.min(end - piece.start),
                    latch: slab.get(entry.record.slot),
                });
            }
        }
    }

    /// Live end of `piece`. An empty piece shares its start with the piece
    /// that owns the dead tail; clamping attributes the tail to the latter.
    fn live_end(&self, piece: &Piece) -> usize {
        let owner = self.entry(self.seek_start(piece.start));
        let holes = if owner.start == piece.start {
            owner.record.holes
        } else {
            0
        };
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
        self.read().locate(target, None).1
    }

    /// As [`Self::find`], with the piece's latch from the same acquisition
    /// if `wanted` asks for it.
    pub(crate) fn find_latched(
        &self,
        target: Target,
        wanted: impl FnOnce(&Piece) -> bool,
    ) -> Found<'_> {
        self.read().find_latched(&self.slab, target, None, wanted).1
    }

    /// Both bounds of a range in one acquisition, each resolved as
    /// [`Self::find_latched`] resolves a [`Target::Bound`], with `wanted`
    /// asked about the bound and its piece — the high one only if the low
    /// one took no latch: a crack at the low bound may split the high
    /// bound's piece, so it is looked up after that crack. When neither
    /// took a latch, `plan` may turn the two lookups into a plan and the
    /// ranges its walk visits; the walk's first latched [`Span`] batch then
    /// comes from the same acquisition. The high bound is searched for from
    /// the low one's entry, and the span from either, so a narrow range
    /// costs one fence search and a short search of one or two leaves.
    pub(crate) fn find_bounds<P>(
        &self,
        (low, high): (i64, i64),
        wanted: impl Fn(i64, &Piece) -> bool,
        plan: impl FnOnce(&Found, &Found) -> Option<(P, Ranges)>,
    ) -> (Found<'_>, Option<Found<'_>>, Option<(P, Span<'_>)>) {
        let state = self.read();
        let latched = |found: &Found| found.as_ref().is_ok_and(|(_, l)| l.is_some());
        let slab = &self.slab;
        let wanted_low = |piece: &Piece| wanted(low, piece);
        let (low_at, low) = state.find_latched(slab, Target::Bound(low), None, wanted_low);
        if latched(&low) {
            return (low, None, None);
        }
        let wanted_high = |piece: &Piece| wanted(high, piece);
        let hint = Some(low_at);
        let (high_at, high) = state.find_latched(slab, Target::Bound(high), hint, wanted_high);
        let planned =
            (!latched(&high))
                .then(|| plan(&low, &high))
                .flatten()
                .map(|(plan, ranges)| {
                    let mut span = Span {
                        version: self.version.load(Ordering::Acquire),
                        pieces: Vec::new(),
                    };
                    state.span(slab, &ranges, &[low_at, high_at], &mut span.pieces);
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
        state.span(&self.slab, ranges, &[], &mut span.pieces);
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
        let Some(at) = state.seek_first(start) else {
            return 0;
        };
        let entries = state.entries(at).take_while(|entry| entry.start < end);
        entries.map(|entry| entry.record.holes).sum()
    }

    /// Publishes the cracks one system transaction made inside one piece
    /// — `(value, position)` pairs, in any order — in one exclusive
    /// acquisition, so no lookup ever sees some of them. The caller has
    /// finished *all* physical work on the piece: the moment a new piece
    /// start exists, so does a latch the caller does not hold.
    ///
    /// Each crack splits the sub-piece whose key interval holds it: the
    /// lower sub-piece keeps its record — latch and counters included;
    /// the upper one inherits the watermark and takes the dead tail, which
    /// therefore ends up where it physically is, on the topmost sub-piece.
    /// A crack at either end of a piece only adds an empty piece to a
    /// position that has its record already.
    pub(crate) fn split(&self, cracks: &[(i64, usize)]) {
        let mut state = self.write();
        for &(value, pos) in cracks {
            state.add_crack(value, pos);
        }
        self.bump_version();
    }

    /// Records `n` freshly swept dead slots at the tail of the piece
    /// starting at `start`.
    pub(crate) fn add_holes(&self, start: usize, n: usize) {
        let mut state = self.write();
        state.record_mut(start).holes += n;
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
        state.record_mut(start).holes -= n;
        state.total_holes -= n;
        self.bump_version();
        self.hole_rows.fetch_sub(n as u64, Ordering::Release);
    }

    /// Advances the watermark of the piece starting at `start`: every
    /// delta row of its key range stamped up to `epoch` is merged.
    pub(crate) fn mark_compacted(&self, start: usize, epoch: u64) {
        self.write().record_mut(start).compacted_through = epoch;
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
        let owners = state.pieces(HEAD).filter(|(piece, _)| owns(piece));
        let stats = owners.map(|(piece, e)| (piece.start, self.slab.get(e.record.slot).stats()));
        stats
            .filter(|(_, s)| *s != LatchStatsSnapshot::default())
            .collect()
    }

    /// Number of pieces (empty ones included).
    pub(crate) fn piece_count(&self) -> usize {
        self.read().piece_count()
    }

    /// Dead slots across the whole array.
    pub(crate) fn total_holes(&self) -> usize {
        self.read().total_holes
    }

    /// Every piece in position order, with its live end (one ordered pass
    /// over the entries).
    pub(crate) fn live_pieces(&self) -> Vec<(Piece, usize)> {
        let state = self.read();
        let pieces = state.pieces(HEAD);
        pieces
            .map(|(piece, e)| (piece, piece.end - e.record.holes.min(piece.len())))
            .collect()
    }

    /// The delta epoch every piece has been merged through: the floor the
    /// last rebuild set, raised to the stalest piece watermark once the
    /// incremental walk has visited every piece since. An empty piece has
    /// no record of its own — the walk never sees its key interval — so
    /// while one exists the floor is all that can be promised.
    pub(crate) fn compacted_through(&self) -> u64 {
        let state = self.read();
        if state.starts < state.piece_count() {
            return state.floor;
        }
        let stalest = state
            .entries(HEAD)
            .map(|e| e.record.compacted_through)
            .min();
        state.floor.max(stalest.unwrap_or(0))
    }

    /// The first and the last piece of every leaf, in position order.
    #[cfg(test)]
    pub(crate) fn leaf_edges(&self) -> Vec<(Piece, Piece)> {
        let state = self.read();
        let edges = state.leaves.iter().enumerate().map(|(leaf, entries)| {
            let last = entries.len() - 1;
            let piece = |idx| state.piece(At { leaf, idx });
            (piece(0), piece(last))
        });
        edges.collect()
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
        if delta_rows.is_empty() || state.piece_count() <= 1 {
            return;
        }
        // piece start → (delta rows, piece span). Empty pieces share the
        // start of the piece after them, so a start spans its widest piece.
        let mut per_piece: BTreeMap<usize, (u64, usize)> = BTreeMap::new();
        let mut at = None;
        for &(value, rows) in delta_rows {
            let (found, piece) = state.locate(Target::Key(value), at);
            at = Some(found);
            let piece = piece.expect("a key lookup finds a piece");
            let entry = per_piece.entry(piece.start).or_default();
            *entry = (entry.0 + rows, entry.1.max(piece.len()));
        }
        let mut best: Option<(usize, f64, u64)> = None; // (start, density, watermark)
        for (&start, &(rows, span)) in per_piece.iter().filter(|(_, &(_, span))| span > 0) {
            let density = rows as f64 / span as f64;
            let watermark = state.record(start).compacted_through.max(state.floor);
            if best.is_none_or(|(_, d, w)| density > d || (density == d && watermark < w)) {
                best = Some((start, density, watermark));
            }
        }
        drop(state);
        if let Some((start, _, _)) = best {
            self.set_walk_cursor(start);
        }
    }

    /// Verifies the directory against itself in one ordered pass: every
    /// leaf holds `1..=64` entries and its fence names its first; the
    /// entries cover `len` positions from the head on, starts ascending
    /// and crack values strictly so; each piece start has one latch slot,
    /// shared by its empty pieces, and `0..starts` are all taken; only the
    /// last piece at a start carries holes or a watermark; no dead tail
    /// outgrows its piece; hole counts, their total and the lock-free
    /// mirror agree; no watermark runs ahead of `current_epoch`. Only
    /// meaningful in quiescence.
    pub(crate) fn check_invariants(&self, len: usize, current_epoch: u64) -> bool {
        let state = self.read();
        let fenced = state.leaves.len() == state.fences.len()
            && state
                .leaves
                .iter()
                .zip(&state.fences)
                .all(|(leaf, &fence)| {
                    (1..=LEAF_CAP).contains(&leaf.len()) && (leaf[0].key, leaf[0].start) == fence
                });
        if !fenced || state.len != len || state.fences[0] != (i64::MIN, 0) {
            return false;
        }
        let pieces: Vec<(Piece, PieceRecord)> = state
            .pieces(HEAD)
            .map(|(piece, e)| (piece, e.record))
            .collect();
        let ordered = pieces.iter().all(|(piece, _)| {
            let keys = piece.low_value.zip(piece.high_value);
            piece.start <= piece.end && keys.is_none_or(|(low, high)| low < high)
        });
        // An empty piece's record is its start's latch slot and nothing else.
        let shared = pieces.windows(2).all(|pair| {
            let ((piece, record), (_, next)) = (pair[0], pair[1]);
            let latch_only = PieceRecord {
                slot: next.slot,
                ..PieceRecord::default()
            };
            owns(&piece) || record == latch_only
        });
        let mut slots = vec![false; state.starts];
        let mut holes = 0;
        let owned = pieces
            .iter()
            .filter(|(piece, _)| owns(piece))
            .all(|(piece, record)| {
                holes += record.holes;
                let fresh = slots
                    .get_mut(record.slot)
                    .is_some_and(|taken| !std::mem::replace(taken, true));
                fresh && record.holes <= piece.len() && record.compacted_through <= current_epoch
            });
        ordered
            && shared
            && owned
            && slots.iter().all(|&taken| taken)
            && state.floor <= current_epoch
            && holes == state.total_holes
            && holes as u64 == self.hole_rows.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::ops::Range;
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
        dir.read().record(start).compacted_through
    }

    /// The latch of the piece covering `pos`.
    fn latch_at(dir: &PieceDirectory, pos: usize) -> &OrderedWaitLatch {
        let found = dir.find_latched(Target::Position(pos), |_| true);
        found.unwrap().1.expect("a latch was asked for")
    }

    /// The slot of the record starting at `start`.
    fn slot_at(dir: &PieceDirectory, start: usize) -> usize {
        dir.read().record(start).slot
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
        dir.split(&starts);
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
        dir.split(&[(50, 40)]);
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
        dir.split(&[(50 - 1, 40)]);
        dir.split(&[(45, 40)]);
        assert_eq!((dir.holes_in(0, 40), dir.holes_in(40, 100)), (0, 10));
        assert!(ptr::eq(upper_latch, latch_at(&dir, 40)));
        assert!(dir.check_invariants(100, 7));
    }

    /// Two cracks of one crack body land on the sub-pieces their keys
    /// pick, so the dead tail ends on the topmost sub-piece whichever is
    /// published first.
    #[test]
    fn the_dead_tail_ends_on_top_whichever_crack_is_published_first() {
        let with_tail = || {
            let dir = PieceDirectory::new(100);
            dir.add_holes(0, 10);
            dir.mark_compacted(0, 3);
            dir
        };
        let lower_first = with_tail();
        lower_first.split(&[(30, 20), (60, 50)]);
        let upper_first = with_tail();
        {
            let mut state = upper_first.write();
            state.add_crack(60, 50);
            state.add_crack(30, 20);
        }
        for dir in [&lower_first, &upper_first] {
            assert_eq!(
                [
                    dir.holes_in(0, 20),
                    dir.holes_in(20, 50),
                    dir.holes_in(50, 100)
                ],
                [0, 0, 10]
            );
            assert_eq!([watermark(dir, 20), watermark(dir, 50)], [3, 3]);
            assert!(dir.check_invariants(100, 3));
        }
        assert_eq!(lower_first.live_pieces(), upper_first.live_pieces());
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
        /// The model of a directory over `len` positions with `cracks`
        /// installed: no holes, every watermark at the floor.
        fn installed(len: usize, cracks: Vec<(i64, usize)>) -> Self {
            let mut starts: Vec<_> = cracks.iter().map(|c| (c.1, 0, 0)).collect();
            starts.push((0, 0, 0));
            starts.sort_unstable();
            starts.dedup();
            Model {
                len,
                cracks,
                starts,
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

    /// Checks `dir` against `model`: lookups by key and bound at every
    /// value of `values`, by position everywhere, spans from every piece
    /// start, and both bounds of ranges starting every other value.
    fn assert_agrees(dir: &PieceDirectory, model: &Model, epoch: u64, values: Range<i64>) {
        assert!(dir.check_invariants(model.len, epoch));
        for value in values.clone() {
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
        // Spans between piece boundaries, one range and two: a first batch,
        // and the one resuming where a capped batch stopped.
        let mut bounds: Vec<usize> = model.starts.iter().map(|s| s.0).collect();
        bounds.push(model.len);
        bounds.sort_unstable();
        bounds.dedup();
        for (i, &from) in bounds.iter().enumerate() {
            let next = bounds.get(i + 1).copied().unwrap_or(from);
            for ranges in [[(from, model.len), (0, 0)], [(0, from), (next, model.len)]] {
                let last = ranges.iter().rfind(|(from, to)| from < to);
                let mut rest = ranges;
                for _ in 0..2 {
                    let mut span = Span::default();
                    dir.span(&rest, &mut span);
                    assert_eq!(span.version, dir.version());
                    let stop = check_span(dir, &rest, &span);
                    if span.pieces.len() < SPAN_CAP {
                        assert_eq!(stop, last.map_or(0, |r| r.1));
                        break;
                    }
                    rest = rest.map(|(from, to)| (from.max(stop), to));
                    if rest.iter().all(|(from, to)| from >= to) {
                        break;
                    }
                }
            }
        }
        // Both bounds in one acquisition, against two sequential lookups.
        let wanted = |piece: &Piece| piece.len() % 2 == 1;
        for low in values.step_by(2) {
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

    /// Runs `ops` — every mutation the cracker performs, in random order:
    /// cracks at a piece's start, interior and live end (several values
    /// sharing a position make empty pieces), the pivot policy's two-crack
    /// publish, hole sweeps and fills, watermark advances, and rebuild
    /// installs — on `dir` and on its `model`, checking them against each
    /// other after every op, with lookups at every value of `values`.
    fn agrees_with_the_model(
        dir: &PieceDirectory,
        mut model: Model,
        ops: &[(u8, i64, usize)],
        values: Range<i64>,
    ) {
        let mut epoch = 0u64;
        assert_agrees(dir, &model, epoch, values.clone());
        for &(kind, value, pick) in ops {
            // Hole and watermark ops address the piece covering a position.
            let len = model.len;
            let covering = (len > 0).then(|| model.by_position(pick % len));
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
                    let Ok(piece) = dir.find(Target::Bound(value)) else {
                        continue;
                    };
                    let live = model.live_end(&piece) - piece.start;
                    let pos = piece.start
                        + match kind {
                            0 => 0,
                            1 => live,
                            _ => pick % (live + 1),
                        };
                    dir.split(&[(value, pos)]);
                    model.publish(piece.start, &[(value, pos)]);
                }
                (8..=9, _) => {
                    // Two cracks of one piece in one publish: a second
                    // value above the first inside the same key
                    // interval, at or above the first's position.
                    let Ok(piece) = dir.find(Target::Bound(value)) else {
                        continue;
                    };
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
                    dir.split(&cracks);
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
                    let cracks: Vec<(i64, usize)> = model
                        .cracks
                        .iter()
                        .map(|c| (c.0, c.1 - below(c.1)))
                        .collect();
                    let new_len = len - below(len + 1);
                    dir.install(new_len, cracks.iter().copied(), epoch);
                    model = Model::installed(new_len, cracks);
                    assert_eq!(dir.compacted_through(), epoch);
                    assert_eq!(dir.walk_cursor(), 0);
                }
                _ => {}
            }
            if let Some(moves) = moves {
                assert_eq!(dir.version() > version, moves, "op {}", kind);
            }
            assert_agrees(dir, &model, epoch, values.clone());
        }
    }

    /// Installs `n` cracks, the `i`-th at value `10 i` and position `i`,
    /// except that `run` of them share one position: the first leaf ends
    /// inside that run.
    fn with_a_run(n: usize, run: Range<usize>) -> PieceDirectory {
        let at = |i: usize| if run.contains(&i) { run.start } else { i };
        let cracks = (1..=n).map(|i| (10 * i as i64, at(i)));
        let dir = PieceDirectory::new(n + 1);
        dir.install(n + 1, cracks, 0);
        dir
    }

    /// A delta row in an empty piece keys its start with span 0; the
    /// non-empty piece at that start still steers the walk there.
    #[test]
    fn steer_walk_weighs_a_start_by_its_non_empty_piece() {
        let dir = PieceDirectory::new(100);
        dir.install(100, [(10, 5), (20, 5), (30, 60)], 0);
        dir.steer_walk(&[(15, 1), (25, 100)]);
        assert_eq!(dir.walk_cursor(), 5);
    }

    /// Empty pieces whose run crosses a leaf edge: they share the latch
    /// of the piece after them, spans walk that piece once, and a crack
    /// into the run or past it keeps the structure whole.
    #[test]
    fn empty_pieces_across_a_leaf_edge_share_their_start() {
        let dir = with_a_run(200, 28..38);
        {
            let state = dir.read();
            let (first, second) = (&state.leaves[0], &state.leaves[1]);
            assert!(state.leaves.len() > 3, "several leaves");
            assert_eq!(first[first.len() - 1].start, 28);
            assert_eq!(second[0].start, 28, "the run crosses the first leaf edge");
        }
        assert!(dir.check_invariants(201, 0));
        // Crack values 280..=370 all sit at 28: the last one owns 28..38.
        let owner = dir.find(Target::Position(28)).unwrap();
        assert_eq!((owner.start, owner.end), (28, 38));
        assert_eq!(owner.low_value, Some(370));
        let latch = latch_at(&dir, 28);
        for value in [285, 315, 325, 345, 375] {
            let (piece, found) = dir.find_latched(Target::Key(value), |_| true).unwrap();
            let empty = value < 370;
            assert_eq!(piece.is_empty(), empty, "key {value}");
            assert!(ptr::eq(found.unwrap(), latch), "key {value}");
        }
        assert_eq!(dir.find(Target::Bound(320)), Err(AlreadyCrack(28)));
        let mut span = Span::default();
        dir.span(&[(20, 60)], &mut span);
        assert_eq!(check_span(&dir, &[(20, 60)], &span), 60);
        assert_eq!(span.pieces.len(), 60 - 20 - 9, "one piece per start");
        // A dead tail on the owner, then a crack into the run and one into
        // the owner's interior: the tail moves up with the new start.
        dir.add_holes(28, 4);
        dir.split(&[(335, 28)]);
        dir.split(&[(375, 33)]);
        assert_eq!((dir.holes_in(28, 33), dir.holes_in(33, 38)), (0, 4));
        assert!(dir.check_invariants(201, 0));
        assert_eq!(dir.piece_count(), 203);
    }

    /// A crack into a full leaf splits it, wherever in the leaf it lands:
    /// both halves keep their fences, and every piece is where it was.
    #[test]
    fn a_full_leaf_splits_around_a_crack_at_any_index() {
        for k in 0..LEAF_CAP {
            // The head and 63 cracks at value `10 i`, position `i`: one
            // full leaf. The new crack follows entry `k`.
            let dir = PieceDirectory::new(100);
            dir.install(100, (1..LEAF_CAP).map(|i| (10 * i as i64, i)), 0);
            dir.split(&[(10 * k as i64 + 5, k)]);
            assert_eq!(dir.read().leaves.len(), 2, "crack after entry {k}");
            assert!(dir.check_invariants(100, 0), "crack after entry {k}");
            let (piece, _) = dir
                .find_latched(Target::Key(10 * k as i64 + 7), |_| false)
                .unwrap();
            assert_eq!(piece.start, k);
            assert_eq!(piece.low_value, Some(10 * k as i64 + 5));
            let pieces = dir.live_pieces();
            assert_eq!(pieces.len(), LEAF_CAP + 1);
            assert!(pieces.windows(2).all(|w| w[0].0.end == w[1].0.start));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Mutations on a directory of at most one leaf.
        #[test]
        fn directory_agrees_with_a_sorted_vec_model(
            len in 0usize..40,
            ops in prop::collection::vec((0u8..10, -20i64..20, 0usize..1000), 1..60),
        ) {
            let dir = PieceDirectory::new(len);
            agrees_with_the_model(&dir, Model::installed(len, Vec::new()), &ops, -24..24);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Mutations on a directory that outgrows three leaves: `gaps`
        /// places one crack at value `3 i` per gap, that many positions
        /// past the previous one (a gap of 0 makes an empty piece, and runs
        /// of them land on leaf edges), and the ops' values fall between and
        /// around the cracks. So lookups by key and position, spans longer
        /// than `SPAN_CAP`, splits, hole sweeps and fills, and installs all
        /// meet leaf edges. The cracks are installed at once, or split in
        /// one at a time in a scrambled key order, as reads converge, so
        /// that they land inside leaves and full leaves split.
        #[test]
        fn a_multi_leaf_directory_agrees_with_the_model(
            gaps in prop::collection::vec(0usize..3, 200..260),
            tail in 0usize..3,
            ops in prop::collection::vec((0u8..10, -3i64..790, 0usize..1000), 1..16),
            by_splits in any::<bool>(),
            scramble in any::<u64>(),
        ) {
            let positions = gaps.iter().scan(0, |at, gap| {
                *at += gap;
                Some(*at)
            });
            let cracks: Vec<(i64, usize)> =
                positions.enumerate().map(|(i, pos)| (3 * i as i64, pos)).collect();
            let len = cracks.last().map_or(0, |c| c.1) + tail;
            let dir = PieceDirectory::new(len);
            if by_splits {
                let mut order = cracks.clone();
                order.sort_by_key(|c| (c.0 as u64 ^ scramble).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                for crack in order {
                    dir.split(&[crack]);
                }
            } else {
                dir.install(len, cracks.iter().copied(), 0);
            }
            prop_assert!(dir.read().leaves.len() > 3);
            agrees_with_the_model(&dir, Model::installed(len, cracks), &ops, -3..790);
        }
    }
}
