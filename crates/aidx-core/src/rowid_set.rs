//! Posting-list-grade rowid sets: sorted, block-compressed, seekable.
//!
//! Multi-column selections (and the joins built on them) intersect
//! per-predicate candidate row-id sets. Materialising each candidate set
//! as a flat `Vec<RowId>` costs 4 bytes per qualifying row — a 10M-row
//! candidate set is 40 MB — and element-at-a-time merge intersection
//! walks *every* element of both sides even when one side is 1000×
//! smaller. This module gives candidate sets the posting-list treatment:
//!
//! * **[`RowIdSet`]** stores the sorted ids delta-encoded (LEB128 gaps)
//!   in fixed-capacity blocks with one skip entry per block, dropping
//!   the footprint toward ~1–2 bytes per row for realistic id
//!   distributions (≈1.2 for dense runs).
//! * **[`SeekingIterator`]** is the consumption interface: `next()` for
//!   ordered streaming, `next_seek(target)` for "first id ≥ target".
//!   On a [`RowIdSet`] a seek gallops over the skip entries, so whole
//!   blocks of a large set are skipped without decoding a byte.
//! * **[`intersect_sets`]** intersects two sets either by **galloping**
//!   (leapfrog: drive from the smaller side, seek the larger) or by
//!   **linear merge**, with [`IntersectStrategy::Adaptive`] choosing by
//!   the size ratio — galloping wins when one side is much smaller,
//!   linear wins when the sides are comparable.
//!
//! Producers ([`crate::ConcurrentCracker::select_rowid_set`] and the
//! range-partitioned wrapper in `aidx-parallel`) build sets from *sorted
//! runs* — one run per cracker piece / partition — via
//! [`RowIdSet::from_runs`], which k-way merges straight into the
//! encoder; no flat intermediate vector is ever materialised.

use aidx_storage::RowId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Ids per compressed block. Small enough that a seek's within-block
/// linear decode is bounded and that sparse drivers skip a useful
/// fraction of a 100×-larger set's blocks; large enough that the
/// per-block skip entry (12 bytes) amortises to ~0.2 bytes/row.
pub const BLOCK_IDS: usize = 64;

/// When [`IntersectStrategy::Adaptive`] decides: gallop if the larger
/// side is at least this many times the smaller side, else linear merge.
pub const GALLOP_RATIO: usize = 8;

/// Skip entry of one compressed block.
#[derive(Debug, Clone, Copy)]
struct BlockMeta {
    /// First id of the block (stored verbatim; the gap stream encodes
    /// the remaining `count - 1` ids relative to their predecessor).
    first: RowId,
    /// Byte offset of the block's gap stream in [`RowIdSet::gaps`].
    offset: u32,
    /// Ids in the block (`1..=BLOCK_IDS`).
    count: u16,
}

/// A sorted set of row ids, delta-encoded in fixed-capacity blocks with
/// per-block skip entries.
#[derive(Debug, Clone, Default)]
pub struct RowIdSet {
    metas: Vec<BlockMeta>,
    /// Concatenated LEB128 gap streams, one stream per block.
    gaps: Vec<u8>,
    len: usize,
}

/// Incremental encoder: push strictly ascending ids, finish into a
/// [`RowIdSet`]. Equal consecutive ids are deduplicated (a set).
#[derive(Debug, Default)]
pub struct RowIdSetBuilder {
    set: RowIdSet,
    last: Option<RowId>,
    in_block: usize,
}

impl RowIdSetBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one id. Must be `>=` every id pushed before (ascending
    /// producers); duplicates are dropped.
    ///
    /// # Panics
    /// Panics if `id` is smaller than the previously pushed id.
    pub fn push(&mut self, id: RowId) {
        if let Some(last) = self.last {
            assert!(id >= last, "RowIdSet ids must be pushed in ascending order");
            if id == last {
                return;
            }
            if self.in_block < BLOCK_IDS {
                let mut gap = id - last;
                // LEB128: 7 payload bits per byte, high bit = continue.
                while gap >= 0x80 {
                    self.set.gaps.push((gap as u8 & 0x7f) | 0x80);
                    gap >>= 7;
                }
                self.set.gaps.push(gap as u8);
                self.in_block += 1;
                self.set
                    .metas
                    .last_mut()
                    .expect("mid-block implies a block")
                    .count += 1;
                self.set.len += 1;
                self.last = Some(id);
                return;
            }
        }
        // First id overall, or a fresh block.
        self.set.metas.push(BlockMeta {
            first: id,
            offset: u32::try_from(self.set.gaps.len()).expect("gap stream < 4 GiB"),
            count: 1,
        });
        self.in_block = 1;
        self.set.len += 1;
        self.last = Some(id);
    }

    /// Finishes the encoding.
    pub fn finish(self) -> RowIdSet {
        self.set
    }
}

impl RowIdSet {
    /// Encodes an ascending slice of ids (duplicates deduplicated).
    pub fn from_sorted(ids: &[RowId]) -> RowIdSet {
        let mut b = RowIdSetBuilder::new();
        for &id in ids {
            b.push(id);
        }
        b.finish()
    }

    /// K-way merges ascending runs (one per cracker piece / partition)
    /// straight into the encoder: no flat union vector is
    /// materialised. Runs need not be disjoint; duplicates collapse.
    pub fn from_runs(mut runs: Vec<Vec<RowId>>) -> RowIdSet {
        runs.retain(|r| !r.is_empty());
        match runs.len() {
            0 => RowIdSet::default(),
            1 => RowIdSet::from_sorted(&runs[0]),
            _ => {
                let mut b = RowIdSetBuilder::new();
                let mut heap: BinaryHeap<Reverse<(RowId, usize)>> = runs
                    .iter()
                    .enumerate()
                    .map(|(i, r)| Reverse((r[0], i)))
                    .collect();
                let mut cursors = vec![1usize; runs.len()];
                while let Some(Reverse((id, run))) = heap.pop() {
                    b.push(id);
                    let pos = cursors[run];
                    if let Some(&next) = runs[run].get(pos) {
                        cursors[run] = pos + 1;
                        heap.push(Reverse((next, run)));
                    }
                }
                b.finish()
            }
        }
    }

    /// K-way merges already-compressed sets (the fan-in of a partitioned
    /// producer) without decoding any set into a flat vector.
    pub fn merge_sets(sets: &[RowIdSet]) -> RowIdSet {
        let mut live: Vec<RowIdSetIter<'_>> = sets
            .iter()
            .filter(|s| !s.is_empty())
            .map(RowIdSet::iter)
            .collect();
        match live.len() {
            0 => RowIdSet::default(),
            1 => {
                let mut b = RowIdSetBuilder::new();
                let mut it = live.pop().expect("one live set");
                while let Some(id) = it.next() {
                    b.push(id);
                }
                b.finish()
            }
            _ => {
                let mut b = RowIdSetBuilder::new();
                let mut heap: BinaryHeap<Reverse<(RowId, usize)>> = BinaryHeap::new();
                for (i, it) in live.iter_mut().enumerate() {
                    if let Some(id) = it.next() {
                        heap.push(Reverse((id, i)));
                    }
                }
                while let Some(Reverse((id, i))) = heap.pop() {
                    b.push(id);
                    if let Some(next) = live[i].next() {
                        heap.push(Reverse((next, i)));
                    }
                }
                b.finish()
            }
        }
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set holds no ids.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of compressed blocks.
    pub fn block_count(&self) -> usize {
        self.metas.len()
    }

    /// Compressed footprint in bytes: gap stream plus skip entries. A
    /// flat `Vec<RowId>` of the same set costs `4 * len` bytes.
    pub fn heap_bytes(&self) -> usize {
        self.gaps.len() + self.metas.len() * std::mem::size_of::<BlockMeta>()
    }

    /// Smallest id (`None` when empty).
    pub fn first(&self) -> Option<RowId> {
        self.metas.first().map(|m| m.first)
    }

    /// A seeking iterator over the set.
    pub fn iter(&self) -> RowIdSetIter<'_> {
        RowIdSetIter {
            set: self,
            block: 0,
            pos: 0,
            emitted: 0,
            prev: 0,
            blocks_skipped: 0,
        }
    }

    /// Decodes the whole set into an ascending vector (the boundary
    /// representation callers hand to oracles and result consumers).
    pub fn to_vec(&self) -> Vec<RowId> {
        let mut out = Vec::with_capacity(self.len);
        let mut it = self.iter();
        while let Some(id) = it.next() {
            out.push(id);
        }
        out
    }
}

impl PartialEq for RowIdSet {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        let (mut a, mut b) = (self.iter(), other.iter());
        while let (Some(x), Some(y)) = (a.next(), b.next()) {
            if x != y {
                return false;
            }
        }
        true
    }
}

impl Eq for RowIdSet {}

/// An ordered id stream supporting forward seeks.
///
/// Contract: ids come out strictly ascending across *all* calls (`next`
/// and `next_seek` mixed freely — a seek never goes backwards), and
/// `next_seek(target)` returns the first not-yet-emitted id `>= target`
/// (equivalently: the first id `>=` max(target, everything emitted so
/// far + 1)), consuming everything at or before it.
pub trait SeekingIterator {
    /// The next id in ascending order, or `None` when exhausted.
    #[allow(clippy::should_implement_trait)]
    fn next(&mut self) -> Option<RowId>;

    /// The first remaining id `>= target`, skipping (consuming)
    /// everything smaller. `None` when no remaining id qualifies.
    fn next_seek(&mut self, target: RowId) -> Option<RowId>;

    /// Whole blocks bypassed by seeks without decoding (0 for
    /// uncompressed sources). Diagnostic for the galloping win.
    fn blocks_skipped(&self) -> u64 {
        0
    }
}

/// Seeking decoder over a [`RowIdSet`]: `next` streams gap-by-gap,
/// `next_seek` gallops over the skip entries (exponential probe then
/// binary search) and decodes only inside the landing block.
#[derive(Debug, Clone)]
pub struct RowIdSetIter<'a> {
    set: &'a RowIdSet,
    /// Current block index (may equal `metas.len()` when exhausted).
    block: usize,
    /// Byte position in the gap stream (only meaningful mid-block).
    pos: usize,
    /// Ids already emitted from the current block.
    emitted: usize,
    /// Last emitted id (meaningful when `emitted > 0`).
    prev: RowId,
    blocks_skipped: u64,
}

impl RowIdSetIter<'_> {
    fn decode_gap(&mut self) -> RowId {
        let mut gap: RowId = 0;
        let mut shift = 0;
        loop {
            let byte = self.set.gaps[self.pos];
            self.pos += 1;
            gap |= RowId::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return gap;
            }
            shift += 7;
        }
    }

    /// Positions the cursor at the start of `block`.
    fn enter_block(&mut self, block: usize) {
        self.block = block;
        self.emitted = 0;
        if let Some(meta) = self.set.metas.get(block) {
            self.pos = meta.offset as usize;
        }
    }
}

impl SeekingIterator for RowIdSetIter<'_> {
    fn next(&mut self) -> Option<RowId> {
        let meta = self.set.metas.get(self.block)?;
        if self.emitted == 0 {
            self.prev = meta.first;
        } else if self.emitted < meta.count as usize {
            self.prev += self.decode_gap();
        } else {
            self.enter_block(self.block + 1);
            self.prev = self.set.metas.get(self.block)?.first;
        }
        self.emitted += 1;
        Some(self.prev)
    }

    fn next_seek(&mut self, target: RowId) -> Option<RowId> {
        // Already past the target: every remaining id qualifies.
        if self.emitted > 0 && self.prev >= target {
            return self.next();
        }
        // Gallop over the skip entries: find the last block whose first
        // id is <= target. Blocks strictly after the current one that we
        // jump over are never decoded — that is the whole win.
        let metas = &self.set.metas;
        if self
            .emitted
            .checked_sub(0)
            .and_then(|_| metas.get(self.block + 1))
            .is_some_and(|next| next.first <= target)
        {
            // Exponential probe from the current block…
            let mut step = 1;
            let mut lo = self.block + 1;
            let mut hi = lo;
            while let Some(meta) = metas.get(hi + step) {
                if meta.first > target {
                    break;
                }
                lo = hi + step;
                hi = lo;
                step *= 2;
            }
            // …then binary search in (lo, min(lo + step, len)).
            let bound = (hi + step).min(metas.len());
            let extra = metas[lo + 1..bound].partition_point(|m| m.first <= target);
            let landing = lo + extra;
            self.blocks_skipped += (landing - self.block) as u64;
            self.enter_block(landing);
        }
        // Decode inside the landing block (bounded by BLOCK_IDS), then
        // spill into subsequent blocks if the target exceeds the block.
        loop {
            let id = self.next()?;
            if id >= target {
                return Some(id);
            }
        }
    }

    fn blocks_skipped(&self) -> u64 {
        self.blocks_skipped
    }
}

/// Seeking iterator over an ascending `&[RowId]` slice — the adapter
/// that lets flat vectors (the legacy representation, test fixtures,
/// oracle outputs) flow through the same intersection code paths.
/// Seeks gallop (exponential probe + binary search) within the slice.
#[derive(Debug, Clone)]
pub struct SliceIter<'a> {
    ids: &'a [RowId],
    pos: usize,
}

impl<'a> SliceIter<'a> {
    /// Wraps an ascending slice.
    pub fn new(ids: &'a [RowId]) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] <= w[1]), "slice must ascend");
        SliceIter { ids, pos: 0 }
    }
}

impl SeekingIterator for SliceIter<'_> {
    fn next(&mut self) -> Option<RowId> {
        let id = *self.ids.get(self.pos)?;
        self.pos += 1;
        Some(id)
    }

    fn next_seek(&mut self, target: RowId) -> Option<RowId> {
        // Exponential probe, then binary search in the bracketed window.
        let mut step = 1;
        let mut lo = self.pos;
        while let Some(&id) = self.ids.get(lo + step) {
            if id >= target {
                break;
            }
            lo += step;
            step *= 2;
        }
        let bound = (lo + step + 1).min(self.ids.len());
        self.pos = lo + self.ids[lo..bound].partition_point(|&id| id < target);
        self.next()
    }
}

/// How [`intersect_sets`] walks the two sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntersectStrategy {
    /// Pick by size ratio: gallop when the larger side is at least
    /// [`GALLOP_RATIO`]× the smaller, linear merge otherwise.
    Adaptive,
    /// Always gallop (leapfrog seeks, blocks of the larger side
    /// skipped wholesale).
    Gallop,
    /// Always element-at-a-time linear merge.
    Linear,
}

/// What an intersection did (observability: the planner folds these
/// into per-query metrics and engine-level counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntersectStats {
    /// Whole compressed blocks bypassed without decoding.
    pub blocks_skipped: u64,
    /// True when the galloping path ran (false = linear merge).
    pub galloped: bool,
}

/// Element-at-a-time ordered merge of two seeking iterators — the
/// classic two-cursor intersection (this is where the table engine's
/// old `intersect_sorted` free function lives on). Right when the two
/// sides are comparable in size: every element is visited once, no
/// seek overhead.
pub fn intersect_iters_linear<A, B>(mut a: A, mut b: B) -> Vec<RowId>
where
    A: SeekingIterator,
    B: SeekingIterator,
{
    let mut out = Vec::new();
    let (mut x, mut y) = (a.next(), b.next());
    while let (Some(va), Some(vb)) = (x, y) {
        match va.cmp(&vb) {
            std::cmp::Ordering::Less => x = a.next(),
            std::cmp::Ordering::Greater => y = b.next(),
            std::cmp::Ordering::Equal => {
                out.push(va);
                x = a.next();
                y = b.next();
            }
        }
    }
    out
}

/// Leapfrog intersection: drive from `small`, seek `large` — each miss
/// seeks the *driver* forward too, so both sides skip. Blocks of a
/// compressed `large` side are bypassed via its skip entries. Returns
/// the intersection and the number of blocks skipped on either side.
pub fn intersect_iters_gallop<A, B>(mut small: A, mut large: B) -> (Vec<RowId>, u64)
where
    A: SeekingIterator,
    B: SeekingIterator,
{
    let mut out = Vec::new();
    let Some(mut a) = small.next() else {
        return (out, 0);
    };
    while let Some(b) = large.next_seek(a) {
        if b == a {
            out.push(a);
        } else {
            // b > a: leap the driver to the other side's frontier. A
            // landing exactly on `b` is a match and must be emitted
            // *here* — the seek above already consumed `b` on the large
            // side, so re-seeking it would skip past the agreement.
            match small.next_seek(b) {
                Some(next) if next > b => {
                    a = next;
                    continue;
                }
                Some(next) => out.push(next),
                None => break,
            }
        }
        match small.next() {
            Some(next) => a = next,
            None => break,
        }
    }
    (out, small.blocks_skipped() + large.blocks_skipped())
}

/// Intersects two compressed sets, choosing (or forcing) the walk
/// strategy, and re-encodes the result — candidate sets stay compressed
/// through an entire multi-predicate plan.
pub fn intersect_sets(
    a: &RowIdSet,
    b: &RowIdSet,
    strategy: IntersectStrategy,
) -> (RowIdSet, IntersectStats) {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let gallop = match strategy {
        IntersectStrategy::Gallop => true,
        IntersectStrategy::Linear => false,
        IntersectStrategy::Adaptive => small.len().saturating_mul(GALLOP_RATIO) < large.len(),
    };
    let (ids, blocks_skipped) = if gallop {
        intersect_iters_gallop(small.iter(), large.iter())
    } else {
        (intersect_iters_linear(small.iter(), large.iter()), 0)
    };
    (
        RowIdSet::from_sorted(&ids),
        IntersectStats {
            blocks_skipped,
            galloped: gallop,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[RowId]) -> RowIdSet {
        RowIdSet::from_sorted(ids)
    }

    #[test]
    fn round_trips_empty_single_and_multi_block() {
        for ids in [
            Vec::new(),
            vec![0],
            vec![7, 9, 1000],
            (0..500).collect::<Vec<RowId>>(),
            (0..500).map(|i| i * 1000).collect(),
        ] {
            let s = set(&ids);
            assert_eq!(s.to_vec(), ids);
            assert_eq!(s.len(), ids.len());
            assert_eq!(s.is_empty(), ids.is_empty());
        }
    }

    #[test]
    fn builder_dedupes_equal_ids() {
        let mut b = RowIdSetBuilder::new();
        for id in [3, 3, 4, 4, 4, 9] {
            b.push(id);
        }
        assert_eq!(b.finish().to_vec(), vec![3, 4, 9]);
    }

    #[test]
    #[should_panic(expected = "ascending order")]
    fn builder_rejects_descending_ids() {
        let mut b = RowIdSetBuilder::new();
        b.push(5);
        b.push(4);
    }

    #[test]
    fn dense_runs_compress_below_two_bytes_per_row() {
        let ids: Vec<RowId> = (1000..101_000).collect();
        let s = set(&ids);
        let bytes_per_row = s.heap_bytes() as f64 / s.len() as f64;
        assert!(
            bytes_per_row < 2.0,
            "dense run encoded at {bytes_per_row:.2} B/row"
        );
        assert_eq!(s.to_vec(), ids);
    }

    #[test]
    fn from_runs_merges_interleaved_runs() {
        let s = RowIdSet::from_runs(vec![
            vec![0, 3, 6, 9],
            vec![1, 4, 7],
            Vec::new(),
            vec![2, 5, 8],
        ]);
        assert_eq!(s.to_vec(), (0..10).collect::<Vec<RowId>>());
        assert_eq!(
            RowIdSet::from_runs(Vec::new()).to_vec(),
            Vec::<RowId>::new()
        );
    }

    #[test]
    fn merge_sets_unions_compressed_sets() {
        let parts = [
            set(&[5, 50, 500]),
            set(&(0..200).map(|i| i * 3).collect::<Vec<RowId>>()),
            set(&[]),
        ];
        let merged = RowIdSet::merge_sets(&parts);
        let mut expected: Vec<RowId> = (0..200).map(|i| i * 3).collect();
        for id in [5, 50, 500] {
            if !expected.contains(&id) {
                expected.push(id);
            }
        }
        expected.sort_unstable();
        assert_eq!(merged.to_vec(), expected);
    }

    #[test]
    fn next_seek_lands_on_first_id_at_or_past_target() {
        let s = set(&[10, 20, 30, 300, 3000, 3001]);
        let mut it = s.iter();
        assert_eq!(it.next_seek(0), Some(10));
        assert_eq!(it.next_seek(10), Some(20), "10 already emitted");
        assert_eq!(it.next_seek(25), Some(30));
        assert_eq!(it.next_seek(301), Some(3000));
        assert_eq!(it.next(), Some(3001));
        assert_eq!(it.next_seek(0), None);
    }

    #[test]
    fn seeks_skip_whole_blocks() {
        let ids: Vec<RowId> = (0..BLOCK_IDS as RowId * 100).collect();
        let s = set(&ids);
        assert!(s.block_count() >= 100);
        let mut it = s.iter();
        let far = (BLOCK_IDS * 90) as RowId;
        assert_eq!(it.next_seek(far), Some(far));
        assert!(
            it.blocks_skipped() >= 88,
            "seek across 90 blocks decoded too many ({} skipped)",
            it.blocks_skipped()
        );
    }

    // The unit cases of the table engine's former `intersect_sorted`
    // free function, preserved against the iterator paths that replaced
    // it (both the linear merge that inherited its logic and the
    // galloping leapfrog).
    #[test]
    fn intersect_iterators_cover_the_legacy_unit_cases() {
        let cases: [(&[RowId], &[RowId], &[RowId]); 3] = [
            (&[1, 3, 5], &[2, 3, 5, 9], &[3, 5]),
            (&[], &[1], &[]),
            (&[7], &[7], &[7]),
        ];
        for (a, b, expected) in cases {
            assert_eq!(
                intersect_iters_linear(SliceIter::new(a), SliceIter::new(b)),
                expected
            );
            assert_eq!(
                intersect_iters_gallop(SliceIter::new(a), SliceIter::new(b)).0,
                expected
            );
            for strategy in [
                IntersectStrategy::Adaptive,
                IntersectStrategy::Gallop,
                IntersectStrategy::Linear,
            ] {
                let (got, _) = intersect_sets(&set(a), &set(b), strategy);
                assert_eq!(got.to_vec(), expected, "{strategy:?}");
            }
        }
    }

    #[test]
    fn adaptive_strategy_picks_by_size_ratio() {
        let small = set(&[100, 5000]);
        let large = set(&(0..10_000).collect::<Vec<RowId>>());
        let (_, stats) = intersect_sets(&small, &large, IntersectStrategy::Adaptive);
        assert!(stats.galloped, "1:5000 skew must gallop");
        assert!(stats.blocks_skipped > 0, "a skewed gallop skips blocks");
        let comparable = set(&(0..10_000).map(|i| i * 2).collect::<Vec<RowId>>());
        let (_, stats) = intersect_sets(&comparable, &large, IntersectStrategy::Adaptive);
        assert!(!stats.galloped, "comparable sizes merge linearly");
    }

    #[test]
    fn gallop_equals_linear_on_random_sets() {
        // Deterministic pseudo-random sets; equality of the two walks.
        let a: Vec<RowId> = (0..2000).map(|i| (i * 48271) % 65536).collect();
        let b: Vec<RowId> = (0..300).map(|i| (i * 69621 + 11) % 65536).collect();
        let (mut a, mut b) = (a, b);
        a.sort_unstable();
        a.dedup();
        b.sort_unstable();
        b.dedup();
        let (sa, sb) = (set(&a), set(&b));
        let linear = intersect_sets(&sa, &sb, IntersectStrategy::Linear).0;
        let gallop = intersect_sets(&sa, &sb, IntersectStrategy::Gallop).0;
        assert_eq!(linear, gallop);
        assert_eq!(
            linear.to_vec(),
            intersect_iters_linear(SliceIter::new(&a), SliceIter::new(&b))
        );
    }
}
