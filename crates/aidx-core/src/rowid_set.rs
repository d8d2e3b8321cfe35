//! Posting-list-grade rowid sets: sorted, seekable, in one of two
//! containers.
//!
//! Multi-column selections (and the joins built on them) intersect
//! per-predicate candidate row-id sets. Materialising each candidate set
//! as a flat `Vec<RowId>` costs 4 bytes per qualifying row — a 10M-row
//! candidate set is 40 MB — and element-at-a-time merge intersection
//! walks *every* element of both sides even when one side is 1000×
//! smaller. This module gives candidate sets the Roaring treatment:
//!
//! * **[`RowIdSet`]** holds its sorted ids in one of two containers. A
//!   *sparse* set is delta-encoded (LEB128 gaps) in fixed-capacity blocks
//!   with one skip entry per block (~1.2–2 bytes per row). A *dense* set
//!   is a bitmap over its id span: `len` is a popcount, union a word-OR,
//!   intersection a word-AND, `contains` a bit test and decoding a word
//!   walk.
//! * **[`SeekingIterator`]** is the consumption interface: `next()` for
//!   ordered streaming, `next_seek(target)` for "first id ≥ target".
//!   On blocks a seek gallops over the skip entries, so whole blocks of
//!   a large set are skipped without decoding a byte; on a bitmap it
//!   jumps straight to the target's word.
//! * **[`intersect_sets`]** intersects two block sets either by
//!   **galloping** (leapfrog: drive from the smaller side, seek the
//!   larger) or by **linear merge**, with [`IntersectStrategy::Adaptive`]
//!   choosing by the size ratio. A bitmap side needs no walk: two bitmaps
//!   AND word by word, and a block side probes the bitmap bit by bit.
//!
//! A set is in one of two forms. The **planner form** is what a read
//! scatters: the producer ([`crate::ConcurrentCracker::read`]) hands over
//! the row ids of every visited piece in physical order, and the set
//! scatters them into
//! a bitmap over its id span — no per-run sort, no heap merge; hidden
//! delta rows are bit clears, extra delta rows bit sets. Only a set
//! sparser than one id per 1024 ids of span is sorted into blocks
//! instead. The **compact form** is what leaves the engine
//! ([`RowIdSet::compact`], and every public constructor such as
//! [`RowIdSet::from_runs`]): a bitmap stays one only when it costs less
//! than a flat `Vec<RowId>` (`span < 32 × len`, under 4 bytes per row)
//! and is otherwise block-encoded straight from its words, which are
//! already ascending (the same bytes as [`RowIdSetBuilder`], without its
//! per-id checks). A set records its form, and the algebra
//! ([`intersect_sets`], [`RowIdSet::filter_batches`]) compacts its output
//! only when every input is compact: a planner's candidate sets stay the bitmaps the
//! reads scattered, used and dropped within one select or join, and
//! nothing encodes what the same operation would decode again.
//!
//! Consumers walk a bitmap in batches of up to 64 ascending ids gathered
//! across words, without a branch per word.
//! [`RowIdSet::filter_batches`] hands such a batch (or a block's ids) to
//! a consumer and takes back a keep mask, so a filter over the set (the
//! table engine's projection) runs branch-free over independent loads.
//! Every bitmap buffer — construction scratch and container words alike
//! — comes from one small recycled pool shared by all threads (one client
//! builds the sets another drops), so a read allocates no fresh bitmap.

use aidx_cracking::RowId;
use std::borrow::Cow;
use std::collections::HashSet;
// The buffer pool is not a protocol: it is only ever `try_lock`ed, never
// waited on, and never held across another lock.
use std::sync::Mutex;

/// Ids per compressed block. Small enough that a seek's within-block
/// linear decode is bounded and that sparse drivers skip a useful
/// fraction of a 100×-larger set's blocks; large enough that the
/// per-block skip entry (12 bytes) amortises to ~0.2 bytes/row.
pub const BLOCK_IDS: usize = 64;

/// When [`IntersectStrategy::Adaptive`] decides: gallop if the larger
/// side is at least this many times the smaller side, else linear merge.
pub const GALLOP_RATIO: usize = 8;

/// A compact set of fewer than this many bits of span per id stays a
/// bitmap: it then costs less than a flat `Vec<RowId>`, which spends 32
/// bits on every id.
const BITMAP_BITS_PER_ID: usize = RowId::BITS as usize;

/// Most ids per batch of [`RowIdSet::filter_batches`]: up to 64 ascending
/// ids of a bitmap, or one block (a keep mask is one `u64`).
const BATCH_IDS: usize = 64;
const _: () = assert!(BLOCK_IDS <= BATCH_IDS);

/// Ids the batched bitmap walk extracts from every word without a
/// branch when the bitmap holds at least one id per word; a word holding
/// more takes a loop for the rest.
const UNROLLED_IDS: usize = 4;

/// [`UNROLLED_IDS`] of a sparser bitmap, whose words are mostly empty:
/// there the unconditional extractions would mostly find nothing.
const SPARSE_UNROLLED_IDS: usize = 2;

/// Construction scatters into a bitmap when the id span is at most this
/// many times the ids being placed, and concatenates and sorts
/// otherwise. At this ratio the scratch bitmap costs at most 128 bytes
/// per id and one word walk over it beats the sort (a 1:10000 set never
/// sees a bitmap); sweep in CHANGES.md.
const SCATTER_RATIO: usize = 1024;

#[cfg(test)]
thread_local! {
    static SCATTER_RATIO_FOR_TESTS: std::cell::Cell<usize> =
        const { std::cell::Cell::new(SCATTER_RATIO) };
}

/// The scatter threshold in force.
#[cfg(not(test))]
fn scatter_ratio() -> usize {
    SCATTER_RATIO
}

/// The scatter threshold in force: what a test on this thread set with
/// [`set_scatter_ratio`], [`SCATTER_RATIO`] by default.
#[cfg(test)]
fn scatter_ratio() -> usize {
    SCATTER_RATIO_FOR_TESTS.with(std::cell::Cell::get)
}

/// Moves the scatter threshold on this thread so small test sets cross
/// it.
#[cfg(test)]
fn set_scatter_ratio(ratio: usize) {
    SCATTER_RATIO_FOR_TESTS.with(|cell| cell.set(ratio));
}

/// Bitmap buffers kept for reuse. Sized for the handful of sets alive
/// per operation across a few client threads.
const POOL_BUFFERS: usize = 16;

/// The recycled bitmap buffers.
static POOL: Mutex<Vec<Vec<u64>>> = Mutex::new(Vec::new());

/// A zeroed buffer of `len` words: a recycled one when the pool has one
/// and is not busy, else a fresh one.
fn take_words(len: usize) -> Vec<u64> {
    let recycled = POOL.try_lock().ok().and_then(|mut pool| pool.pop());
    let mut words = recycled.unwrap_or_default();
    words.clear();
    words.resize(len, 0);
    words
}

/// Hands a buffer back to the pool (dropped when the pool is full or
/// busy).
fn recycle_words(words: Vec<u64>) {
    if words.capacity() == 0 {
        return;
    }
    if let Ok(mut pool) = POOL.try_lock() {
        if pool.len() < POOL_BUFFERS {
            pool.push(words);
        }
    }
}

/// A bitmap container's words, returned to the pool on drop.
#[derive(Debug)]
struct Words(Vec<u64>);

impl Clone for Words {
    /// A fresh buffer of exactly the words: a pooled one may be a whole
    /// span's.
    fn clone(&self) -> Self {
        Words(self.0.clone())
    }
}

impl Drop for Words {
    fn drop(&mut self) {
        recycle_words(std::mem::take(&mut self.0));
    }
}

/// Skip entry of one compressed block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockMeta {
    /// First id of the block (stored verbatim; the gap stream encodes
    /// the remaining `count - 1` ids relative to their predecessor).
    first: RowId,
    /// Byte offset of the block's gap stream in the set's gap bytes.
    offset: u32,
    /// Ids in the block (`1..=BLOCK_IDS`).
    count: u16,
}

/// Where a [`RowIdSet`] keeps its ids.
#[derive(Debug, Clone)]
enum Container {
    /// Delta-encoded blocks with per-block skip entries.
    Blocks {
        metas: Vec<BlockMeta>,
        /// Concatenated LEB128 gap streams, one stream per block.
        gaps: Vec<u8>,
    },
    /// Bit `i` of `words` is id `base + i`. `base` is a multiple of 64
    /// and the first and last words are non-zero, so a set has exactly
    /// one bitmap form. `compact` records whether the set went through
    /// [`RowIdSet::compact`] (blocks always are compact).
    Bitmap {
        base: RowId,
        words: Words,
        compact: bool,
    },
}

impl Default for Container {
    fn default() -> Self {
        Container::Blocks {
            metas: Vec::new(),
            gaps: Vec::new(),
        }
    }
}

/// A sorted set of row ids: delta-encoded blocks when sparse, a bitmap
/// when dense (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct RowIdSet {
    container: Container,
    len: usize,
}

/// Incremental encoder: push ascending ids, finish into a block-encoded
/// [`RowIdSet`]. Equal consecutive ids are deduplicated (a set).
#[derive(Debug, Default)]
pub struct RowIdSetBuilder {
    metas: Vec<BlockMeta>,
    gaps: Vec<u8>,
    len: usize,
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
                push_gap(&mut self.gaps, id - last);
                self.in_block += 1;
                self.metas
                    .last_mut()
                    .expect("mid-block implies a block")
                    .count += 1;
                self.len += 1;
                self.last = Some(id);
                return;
            }
        }
        // First id overall, or a fresh block.
        self.metas.push(BlockMeta {
            first: id,
            offset: u32::try_from(self.gaps.len()).expect("gap stream < 4 GiB"),
            count: 1,
        });
        self.in_block = 1;
        self.len += 1;
        self.last = Some(id);
    }

    /// Finishes the encoding.
    pub fn finish(self) -> RowIdSet {
        RowIdSet {
            container: Container::Blocks {
                metas: self.metas,
                gaps: self.gaps,
            },
            len: self.len,
        }
    }
}

/// True when `words` words of bitmap hold `len` ids at fewer than
/// [`BITMAP_BITS_PER_ID`] bits each.
fn bitmap_pays(words: usize, len: usize) -> bool {
    words * 64 < BITMAP_BITS_PER_ID * len
}

/// Appends `gap` to a gap stream as LEB128: 7 payload bits per byte, high
/// bit = continue.
fn push_gap(gaps: &mut Vec<u8>, mut gap: RowId) {
    while gap >= 0x80 {
        gaps.push((gap as u8 & 0x7f) | 0x80);
        gap >>= 7;
    }
    gaps.push(gap as u8);
}

/// True when ids spread over `span` are dense enough to scatter into a
/// bitmap: at most [`SCATTER_RATIO`] ids of span per id.
fn scatters(span: usize, ids: usize) -> bool {
    span / scatter_ratio() < ids
}

/// A row-id set under construction: ids of a known span scattered, in
/// any order, into a pooled bitmap.
#[derive(Debug)]
struct Scatter {
    base: RowId,
    words: Words,
}

impl Scatter {
    /// An empty bitmap for ids in `[min, max]`.
    fn over(min: RowId, max: RowId) -> Scatter {
        let base = min & !63;
        Scatter {
            base,
            words: Words(take_words((max - base) as usize / 64 + 1)),
        }
    }

    /// Adds `id`, which must lie in the span.
    fn insert(&mut self, id: RowId) {
        let bit = (id - self.base) as usize;
        self.words.0[bit / 64] |= 1 << (bit % 64);
    }

    /// Removes `id` if it is in the set.
    fn remove(&mut self, id: RowId) {
        let Some(bit) = id.checked_sub(self.base) else {
            return;
        };
        if let Some(word) = self.words.0.get_mut(bit as usize / 64) {
            *word &= !(1 << (bit % 64));
        }
    }

    /// The set, compacted when `compact` asks for it.
    fn finish(mut self, compact: bool) -> RowIdSet {
        RowIdSet::from_bitmap(self.base, std::mem::take(&mut self.words.0), compact)
    }
}

/// Calls `f` with the ids of the bitmap at `base` in ascending batches of
/// 1 to [`BATCH_IDS`], gathered across words. Every word takes `U`
/// unconditional extractions, the batch's count advanced only by the ones
/// that found a bit, and a loop only for a word that holds more.
fn for_each_bitmap_batch<const U: usize>(base: RowId, words: &[u64], mut f: impl FnMut(&[RowId])) {
    let mut batch = [0; BATCH_IDS];
    let mut n = 0;
    for (i, &word) in words.iter().enumerate() {
        if n > BATCH_IDS - U {
            f(&batch[..n]);
            n = 0;
        }
        let word_base = base + (i * 64) as RowId;
        let mut bits = word;
        let mut found = 0;
        for slot in &mut batch[n..n + U] {
            // Past the last bit this writes a slot the count leaves out.
            *slot = word_base.wrapping_add(bits.trailing_zeros());
            found += usize::from(bits != 0);
            bits &= bits.wrapping_sub(1);
        }
        n += found;
        while bits != 0 {
            if n == BATCH_IDS {
                f(&batch);
                n = 0;
            }
            batch[n] = word_base + bits.trailing_zeros();
            n += 1;
            bits &= bits - 1;
        }
    }
    if n > 0 {
        f(&batch[..n]);
    }
}

/// Writes the ids of one block into `out`, which holds exactly
/// `meta.count` ids.
fn decode_block(meta: &BlockMeta, gaps: &[u8], out: &mut [RowId]) {
    let (head, tail) = out
        .split_first_mut()
        .expect("a block holds at least one id");
    let (mut id, mut pos) = (meta.first, meta.offset as usize);
    *head = id;
    for slot in tail {
        id += decode_gap(gaps, &mut pos);
        *slot = id;
    }
}

/// Block-encodes the ids of the bitmap at `base` straight from its words:
/// the same skip entries and gap bytes as pushing every id into a
/// [`RowIdSetBuilder`], without its per-id order check, duplicate test and
/// count update. `len` is the number of ids in the words.
fn encode_words(base: RowId, words: &[u64], len: usize) -> RowIdSet {
    let mut metas = Vec::with_capacity(len.div_ceil(BLOCK_IDS));
    let mut gaps = Vec::with_capacity(len);
    let mut prev: RowId = 0;
    // Ids the open block still takes (0: the next id opens a block).
    let mut room = 0;
    for (i, &word) in words.iter().enumerate() {
        let word_base = base + (i * 64) as RowId;
        let mut bits = word;
        while bits != 0 {
            let id = word_base + bits.trailing_zeros();
            bits &= bits - 1;
            if room == 0 {
                // Full until the last block's count is set below.
                metas.push(BlockMeta {
                    first: id,
                    offset: u32::try_from(gaps.len()).expect("gap stream < 4 GiB"),
                    count: BLOCK_IDS as u16,
                });
                room = BLOCK_IDS - 1;
            } else {
                push_gap(&mut gaps, id - prev);
                room -= 1;
            }
            prev = id;
        }
    }
    if let Some(last) = metas.last_mut() {
        last.count = (BLOCK_IDS - room) as u16;
    }
    debug_assert_eq!(len, metas.iter().map(|m| m.count as usize).sum::<usize>());
    RowIdSet {
        container: Container::Blocks { metas, gaps },
        len,
    }
}

/// Calls `f` with the ids of `mask`'s set bits: bit `i` stands for
/// `ids[i]`.
fn for_each_kept(ids: &[RowId], mut mask: u64, mut f: impl FnMut(RowId)) {
    while mask != 0 {
        f(ids[mask.trailing_zeros() as usize]);
        mask &= mask - 1;
    }
}

/// The LEB128 gap at `*pos` in `gaps`, advancing `*pos` past it.
fn decode_gap(gaps: &[u8], pos: &mut usize) -> RowId {
    let mut gap: RowId = 0;
    let mut shift = 0;
    loop {
        let byte = gaps[*pos];
        *pos += 1;
        gap |= RowId::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return gap;
        }
        shift += 7;
    }
}

impl RowIdSet {
    /// Encodes an ascending slice of ids (duplicates deduplicated) into
    /// blocks.
    pub fn from_sorted(ids: &[RowId]) -> RowIdSet {
        let mut b = RowIdSetBuilder::new();
        for &id in ids {
            b.push(id);
        }
        b.finish()
    }

    /// The set `(⋃ runs ∖ hidden) ∪ extra`, compacted. Ids may come in
    /// any order — one run per cracker piece, in the piece's physical
    /// order — and may repeat.
    pub fn from_runs<R: AsRef<[RowId]>>(
        runs: &[R],
        hidden: &HashSet<RowId>,
        extra: &[RowId],
    ) -> RowIdSet {
        RowIdSet::scattered(runs, hidden, extra).compact()
    }

    /// [`RowIdSet::from_runs`] in the planner form: when the span allows,
    /// every id is scattered into a pooled bitmap (hidden ids cleared,
    /// extra ids set) and the set is that bitmap, trimmed to its non-zero
    /// words; otherwise the ids are concatenated, sorted and encoded.
    pub(crate) fn scattered<R: AsRef<[RowId]>>(
        runs: &[R],
        hidden: &HashSet<RowId>,
        extra: &[RowId],
    ) -> RowIdSet {
        let parts = || runs.iter().map(AsRef::as_ref).chain([extra]);
        let total: usize = parts().map(<[RowId]>::len).sum();
        if total == 0 {
            return RowIdSet::default();
        }
        // One pass for both ends of the span.
        let (min, max) = parts().flatten().fold((RowId::MAX, 0), |(min, max), &id| {
            (min.min(id), max.max(id))
        });
        if scatters((max - min) as usize, total) {
            let mut bits = Scatter::over(min, max);
            for &id in runs.iter().flat_map(AsRef::as_ref) {
                bits.insert(id);
            }
            for &id in hidden {
                bits.remove(id);
            }
            for &id in extra {
                bits.insert(id);
            }
            return bits.finish(false);
        }
        let mut ids = Vec::with_capacity(total);
        for run in runs {
            ids.extend(run.as_ref().iter().filter(|id| !hidden.contains(id)));
        }
        ids.extend_from_slice(extra);
        ids.sort_unstable();
        RowIdSet::from_sorted(&ids)
    }

    /// The set of a scattered bitmap at `base`, trimmed to its non-zero
    /// words, and compacted when `compact` asks for it.
    fn from_bitmap(base: RowId, mut words: Vec<u64>, compact: bool) -> RowIdSet {
        let len: usize = words.iter().map(|w| w.count_ones() as usize).sum();
        let first = words.iter().position(|&w| w != 0);
        let last = words.iter().rposition(|&w| w != 0);
        let (Some(first), Some(last)) = (first, last) else {
            recycle_words(words);
            return RowIdSet::default();
        };
        words.truncate(last + 1);
        words.drain(..first);
        let set = RowIdSet {
            container: Container::Bitmap {
                base: base + (first * 64) as RowId,
                words: Words(words),
                compact: false,
            },
            len,
        };
        if compact {
            set.compact()
        } else {
            set
        }
    }

    /// A strictly ascending id sequence: compacted when `compact` asks
    /// for it, else scattered into a bitmap whenever its span allows.
    fn from_ascending(ids: &[RowId], compact: bool) -> RowIdSet {
        let (Some(&min), Some(&max)) = (ids.first(), ids.last()) else {
            return RowIdSet::default();
        };
        let span = (max - min) as usize;
        let bitmap = if compact {
            bitmap_pays(span / 64 + 1, ids.len())
        } else {
            scatters(span, ids.len())
        };
        if !bitmap {
            return RowIdSet::from_sorted(ids);
        }
        let mut bits = Scatter::over(min, max);
        for &id in ids {
            bits.insert(id);
        }
        bits.finish(compact)
    }

    /// The set in the compact form every set leaving the engine takes: a
    /// bitmap stays one when it costs less than a flat `Vec<RowId>`
    /// (giving back a buffer more than twice its words), and is otherwise
    /// block-encoded straight from its words and its buffer recycled.
    /// Blocks are compact already.
    pub fn compact(mut self) -> RowIdSet {
        if let Container::Bitmap {
            base,
            words,
            compact,
        } = &mut self.container
        {
            if !bitmap_pays(words.0.len(), self.len) {
                return encode_words(*base, &words.0, self.len);
            }
            if words.0.capacity() > 2 * words.0.len() {
                let fitted = words.0.to_vec();
                recycle_words(std::mem::replace(&mut words.0, fitted));
            }
            *compact = true;
        }
        self
    }

    /// True when the set is in the compact form: blocks, or a bitmap that
    /// went through [`RowIdSet::compact`].
    fn is_compact(&self) -> bool {
        match self.container {
            Container::Blocks { .. } => true,
            Container::Bitmap { compact, .. } => compact,
        }
    }

    /// Capacity of a bitmap's buffer, in words (0 for blocks).
    #[cfg(test)]
    fn word_capacity(&self) -> usize {
        match &self.container {
            Container::Blocks { .. } => 0,
            Container::Bitmap { words, .. } => words.0.capacity(),
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

    /// True when the set is held as a bitmap (dense), false for blocks.
    pub fn is_bitmap(&self) -> bool {
        matches!(self.container, Container::Bitmap { .. })
    }

    /// Number of compressed blocks (0 for a bitmap).
    pub fn block_count(&self) -> usize {
        match &self.container {
            Container::Blocks { metas, .. } => metas.len(),
            Container::Bitmap { .. } => 0,
        }
    }

    /// Footprint in bytes: gap stream plus skip entries, or the bitmap's
    /// words. A flat `Vec<RowId>` of the same set costs `4 * len` bytes.
    pub fn heap_bytes(&self) -> usize {
        match &self.container {
            Container::Blocks { metas, gaps } => {
                gaps.len() + metas.len() * std::mem::size_of::<BlockMeta>()
            }
            Container::Bitmap { words, .. } => words.0.len() * 8,
        }
    }

    /// Smallest id (`None` when empty).
    pub fn first(&self) -> Option<RowId> {
        match &self.container {
            Container::Blocks { metas, .. } => metas.first().map(|m| m.first),
            Container::Bitmap { base, words, .. } => Some(base + words.0.first()?.trailing_zeros()),
        }
    }

    /// Largest id (`None` when empty).
    fn last(&self) -> Option<RowId> {
        match &self.container {
            Container::Blocks { metas, gaps } => {
                let meta = metas.last()?;
                let (mut id, mut pos) = (meta.first, meta.offset as usize);
                for _ in 1..meta.count {
                    id += decode_gap(gaps, &mut pos);
                }
                Some(id)
            }
            Container::Bitmap { base, words, .. } => {
                let top = words.0.len() - 1;
                Some(base + (top * 64) as RowId + 63 - words.0[top].leading_zeros())
            }
        }
    }

    /// True when `id` is in the set: a bit test on a bitmap, a search of
    /// the skip entries and one block's decode on blocks.
    pub fn contains(&self, id: RowId) -> bool {
        match &self.container {
            Container::Blocks { metas, gaps } => {
                let Some(block) = metas.partition_point(|m| m.first <= id).checked_sub(1) else {
                    return false;
                };
                let meta = metas[block];
                let (mut at, mut pos) = (meta.first, meta.offset as usize);
                for _ in 1..meta.count {
                    if at >= id {
                        break;
                    }
                    at += decode_gap(gaps, &mut pos);
                }
                at == id
            }
            Container::Bitmap { base, words, .. } => id.checked_sub(*base).is_some_and(|bit| {
                let bit = bit as usize;
                words
                    .0
                    .get(bit / 64)
                    .is_some_and(|w| w >> (bit % 64) & 1 == 1)
            }),
        }
    }

    /// A seeking iterator over the set.
    pub fn iter(&self) -> RowIdSetIter<'_> {
        RowIdSetIter(match &self.container {
            Container::Blocks { metas, gaps } => Cursor::Blocks(BlockCursor::new(metas, gaps)),
            Container::Bitmap { base, words, .. } => Cursor::Bitmap(BitCursor {
                base: *base,
                words: &words.0,
                word: 0,
                bits: words.0.first().copied().unwrap_or(0),
            }),
        })
    }

    /// Calls `f` with the ids in ascending batches of 1 to
    /// [`BATCH_IDS`]: a bitmap's ids gathered across words, a block set's
    /// blocks.
    fn for_each_batch(&self, mut f: impl FnMut(&[RowId])) {
        match &self.container {
            Container::Bitmap { base, words, .. } if self.len < words.0.len() => {
                for_each_bitmap_batch::<SPARSE_UNROLLED_IDS>(*base, &words.0, f);
            }
            Container::Bitmap { base, words, .. } => {
                for_each_bitmap_batch::<UNROLLED_IDS>(*base, &words.0, f);
            }
            Container::Blocks { metas, gaps } => {
                let mut batch = [0; BLOCK_IDS];
                for meta in metas {
                    let ids = &mut batch[..meta.count as usize];
                    decode_block(meta, gaps, ids);
                    f(ids);
                }
            }
        }
    }

    /// Decodes the whole set into an ascending vector (the boundary
    /// representation callers hand to oracles and result consumers),
    /// sized once and filled a batch at a time.
    pub fn to_vec(&self) -> Vec<RowId> {
        let mut out = Vec::with_capacity(self.len);
        self.for_each_batch(|ids| out.extend_from_slice(ids));
        out
    }

    /// The subset `keep` selects, decided up to 64 ids at a time: `keep`
    /// gets a batch of up to 64 ascending ids (a bitmap's, or a block's)
    /// and returns a mask whose bit `i` keeps `ids[i]`. A bitmap's
    /// survivors are set in a pooled bitmap of the same span, which the
    /// result keeps, compacted when the input is compact; a block set's
    /// survivors are encoded as they come.
    ///
    /// # Panics
    /// Panics if a mask has a bit at or past its batch's length.
    pub fn filter_batches(&self, mut keep: impl FnMut(&[RowId]) -> u64) -> RowIdSet {
        match &self.container {
            Container::Bitmap {
                base,
                words,
                compact,
            } => {
                let mut kept = Scatter {
                    base: *base,
                    words: Words(take_words(words.0.len())),
                };
                self.for_each_batch(|ids| for_each_kept(ids, keep(ids), |id| kept.insert(id)));
                kept.finish(*compact)
            }
            Container::Blocks { .. } => {
                let mut kept = RowIdSetBuilder::new();
                self.for_each_batch(|ids| for_each_kept(ids, keep(ids), |id| kept.push(id)));
                kept.finish()
            }
        }
    }

    /// The set as one bitmap, for a read that keeps only the row ids in it
    /// ([`crate::ReadShape::Within`]): a bitmap set as it is, a block set
    /// scattered once into a pooled bitmap over its span.
    pub fn as_bitmap(&self) -> Cow<'_, RowIdSet> {
        match (&self.container, self.first(), self.last()) {
            (Container::Blocks { .. }, Some(min), Some(max)) => {
                let mut bits = Scatter::over(min, max);
                self.for_each_batch(|ids| ids.iter().for_each(|&id| bits.insert(id)));
                Cow::Owned(bits.finish(false))
            }
            _ => Cow::Borrowed(self),
        }
    }

    /// The bits of a set [`RowIdSet::as_bitmap`] returned.
    ///
    /// # Panics
    /// Panics on a non-empty block set.
    pub(crate) fn bits(&self) -> Bits<'_> {
        match &self.container {
            Container::Bitmap { base, words, .. } => Bits {
                base: *base,
                words: &words.0,
            },
            Container::Blocks { .. } => {
                assert!(self.is_empty(), "a block set has no bits: see as_bitmap");
                Bits {
                    base: 0,
                    words: &[0],
                }
            }
        }
    }
}

/// A bitmap's words (at least one) and the id of their first bit: what a
/// [`crate::ReadShape::Within`] read tests every row id it walks against.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bits<'a> {
    base: RowId,
    words: &'a [u64],
}

impl Bits<'_> {
    /// True when `id` is in the bitmap, without a branch: an id below the
    /// base wraps past the span, and the word index is clamped into it.
    #[inline(always)]
    pub(crate) fn holds(&self, id: RowId) -> bool {
        let bit = id.wrapping_sub(self.base) as usize;
        let word = self.words[(bit / 64).min(self.words.len() - 1)];
        (bit < self.words.len() * 64) & (word >> (bit % 64) & 1 == 1)
    }
}

impl PartialEq for RowIdSet {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        if let (
            Container::Bitmap { base, words, .. },
            Container::Bitmap {
                base: other_base,
                words: other_words,
                ..
            },
        ) = (&self.container, &other.container)
        {
            // A set has one bitmap form.
            return base == other_base && words.0 == other_words.0;
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

/// Seeking iterator over a [`RowIdSet`]. On blocks `next` streams
/// gap-by-gap and `next_seek` gallops over the skip entries (exponential
/// probe then binary search), decoding only inside the landing block; on
/// a bitmap both pop bits, a seek after masking off the ids below its
/// target in the target's word.
#[derive(Debug, Clone)]
pub struct RowIdSetIter<'a>(Cursor<'a>);

#[derive(Debug, Clone)]
enum Cursor<'a> {
    Blocks(BlockCursor<'a>),
    Bitmap(BitCursor<'a>),
}

#[derive(Debug, Clone)]
struct BlockCursor<'a> {
    metas: &'a [BlockMeta],
    gaps: &'a [u8],
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

#[derive(Debug, Clone)]
struct BitCursor<'a> {
    base: RowId,
    words: &'a [u64],
    /// Current word index (may equal `words.len()` when exhausted).
    word: usize,
    /// The current word's ids not emitted yet.
    bits: u64,
}

impl<'a> BlockCursor<'a> {
    fn new(metas: &'a [BlockMeta], gaps: &'a [u8]) -> Self {
        BlockCursor {
            metas,
            gaps,
            block: 0,
            pos: 0,
            emitted: 0,
            prev: 0,
            blocks_skipped: 0,
        }
    }

    /// Positions the cursor at the start of `block`.
    fn enter_block(&mut self, block: usize) {
        self.block = block;
        self.emitted = 0;
        if let Some(meta) = self.metas.get(block) {
            self.pos = meta.offset as usize;
        }
    }
}

impl SeekingIterator for BlockCursor<'_> {
    fn next(&mut self) -> Option<RowId> {
        let meta = self.metas.get(self.block)?;
        if self.emitted == 0 {
            self.prev = meta.first;
        } else if self.emitted < meta.count as usize {
            self.prev += decode_gap(self.gaps, &mut self.pos);
        } else {
            self.enter_block(self.block + 1);
            self.prev = self.metas.get(self.block)?.first;
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
        let metas = self.metas;
        if metas
            .get(self.block + 1)
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

impl SeekingIterator for BitCursor<'_> {
    fn next(&mut self) -> Option<RowId> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = *self.words.get(self.word)?;
        }
        let id = self.base + (self.word * 64) as RowId + self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        Some(id)
    }

    fn next_seek(&mut self, target: RowId) -> Option<RowId> {
        let bit = target.saturating_sub(self.base) as usize;
        let word = bit / 64;
        if word > self.word {
            self.word = word;
            self.bits = match self.words.get(word) {
                Some(&bits) => bits,
                None => {
                    (self.word, self.bits) = (self.words.len(), 0);
                    return None;
                }
            };
        }
        if word == self.word {
            self.bits &= u64::MAX << (bit % 64);
        }
        self.next()
    }
}

impl SeekingIterator for RowIdSetIter<'_> {
    fn next(&mut self) -> Option<RowId> {
        match &mut self.0 {
            Cursor::Blocks(c) => c.next(),
            Cursor::Bitmap(c) => c.next(),
        }
    }

    fn next_seek(&mut self, target: RowId) -> Option<RowId> {
        match &mut self.0 {
            Cursor::Blocks(c) => c.next_seek(target),
            Cursor::Bitmap(c) => c.next_seek(target),
        }
    }

    fn blocks_skipped(&self) -> u64 {
        match &self.0 {
            Cursor::Blocks(c) => c.blocks_skipped(),
            Cursor::Bitmap(c) => c.blocks_skipped(),
        }
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

/// How [`intersect_sets`] walks two block sets (a bitmap side needs no
/// walk, whatever the strategy).
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
    /// True when the galloping path ran (false = linear merge, or a
    /// bitmap side).
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

/// Intersects two sets. Two bitmaps AND word by word; a block set against
/// a bitmap walks the block ids inside the bitmap's span and tests each
/// bit; two block sets walk by `strategy`. The result is compacted when
/// both inputs are compact; with a planner-form input it stays a bitmap
/// whenever its span allows, so a plan's candidate sets are never
/// encoded.
pub fn intersect_sets(
    a: &RowIdSet,
    b: &RowIdSet,
    strategy: IntersectStrategy,
) -> (RowIdSet, IntersectStats) {
    match (&a.container, &b.container) {
        (
            Container::Bitmap {
                base: base_a,
                words: words_a,
                compact: compact_a,
            },
            Container::Bitmap {
                base: base_b,
                words: words_b,
                compact: compact_b,
            },
        ) => {
            let (words_a, words_b) = (&words_a.0, &words_b.0);
            let base = *base_a.max(base_b);
            let skip_a = (base - base_a) as usize / 64;
            let skip_b = (base - base_b) as usize / 64;
            let overlap =
                (words_a.len().saturating_sub(skip_a)).min(words_b.len().saturating_sub(skip_b));
            let mut words = take_words(overlap);
            let pairs = words_a[skip_a.min(words_a.len())..]
                .iter()
                .zip(&words_b[skip_b.min(words_b.len())..]);
            for (word, (x, y)) in words.iter_mut().zip(pairs) {
                *word = x & y;
            }
            (
                RowIdSet::from_bitmap(base, words, *compact_a && *compact_b),
                IntersectStats::default(),
            )
        }
        (Container::Bitmap { .. }, Container::Blocks { .. }) => probe_bitmap(a, b),
        (Container::Blocks { .. }, Container::Bitmap { .. }) => probe_bitmap(b, a),
        (
            Container::Blocks {
                metas: metas_a,
                gaps: gaps_a,
            },
            Container::Blocks {
                metas: metas_b,
                gaps: gaps_b,
            },
        ) => {
            // Block cursors directly: no per-id container dispatch.
            let mut sides = [
                (a.len, BlockCursor::new(metas_a, gaps_a)),
                (b.len, BlockCursor::new(metas_b, gaps_b)),
            ];
            sides.sort_by_key(|&(len, _)| len);
            let [(small_len, small), (large_len, large)] = sides;
            let gallop = match strategy {
                IntersectStrategy::Gallop => true,
                IntersectStrategy::Linear => false,
                IntersectStrategy::Adaptive => small_len.saturating_mul(GALLOP_RATIO) < large_len,
            };
            let (ids, blocks_skipped) = if gallop {
                intersect_iters_gallop(small, large)
            } else {
                (intersect_iters_linear(small, large), 0)
            };
            (
                RowIdSet::from_ascending(&ids, true),
                IntersectStats {
                    blocks_skipped,
                    galloped: gallop,
                },
            )
        }
    }
}

/// A block set against a bitmap: seeks the block side to the bitmap's
/// first id (skipping the blocks before it) and tests every block id up
/// to the bitmap's last — fewer than 32 per bitmap id when the bitmap is
/// compact, since its span is.
fn probe_bitmap(bitmap: &RowIdSet, blocks: &RowIdSet) -> (RowIdSet, IntersectStats) {
    let (Some(first), Some(last)) = (bitmap.first(), bitmap.last()) else {
        return (RowIdSet::default(), IntersectStats::default());
    };
    let mut ids = Vec::new();
    let mut it = blocks.iter();
    let mut next = it.next_seek(first);
    while let Some(id) = next.filter(|&id| id <= last) {
        if bitmap.contains(id) {
            ids.push(id);
        }
        next = it.next();
    }
    let stats = IntersectStats {
        blocks_skipped: it.blocks_skipped(),
        galloped: false,
    };
    (RowIdSet::from_ascending(&ids, bitmap.is_compact()), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn set(ids: &[RowId]) -> RowIdSet {
        RowIdSet::from_sorted(ids)
    }

    fn runs(runs: Vec<Vec<RowId>>) -> RowIdSet {
        RowIdSet::from_runs(&runs, &HashSet::new(), &[])
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
        let s = runs(vec![
            vec![0, 3, 6, 9],
            vec![1, 4, 7],
            Vec::new(),
            vec![2, 5, 8],
        ]);
        assert_eq!(s.to_vec(), (0..10).collect::<Vec<RowId>>());
        assert_eq!(runs(Vec::new()).to_vec(), Vec::<RowId>::new());
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

    #[test]
    fn the_container_follows_the_density() {
        // One id per 31 bits of span (31 whole words for 64 ids) costs
        // just under a flat vector and stays a bitmap…
        let stride = BITMAP_BITS_PER_ID as RowId;
        let dense = runs(vec![(0..64).map(|i| i * (stride - 1)).collect()]);
        assert!(dense.is_bitmap());
        assert_eq!(dense.heap_bytes(), 31 * 8);
        assert!(dense.heap_bytes() < 64 * std::mem::size_of::<RowId>());
        // …one per 32 (32 words, as many bytes as a flat vector) is
        // encoded from the scattered words…
        let sparse = runs(vec![(0..64).rev().map(|i| 1024 + i * stride).collect()]);
        assert!(!sparse.is_bitmap());
        assert_eq!(
            sparse.to_vec(),
            (0..64).map(|i| 1024 + i * stride).collect::<Vec<_>>()
        );
        // …and past the scatter ratio the ids are sorted instead.
        let far = runs(vec![vec![(SCATTER_RATIO * 4) as RowId, 3, 1]]);
        assert_eq!(far.to_vec(), [1, 3, (SCATTER_RATIO * 4) as RowId]);
        // Hidden ids clear bits, extra ids set them (extra wins).
        let hidden: HashSet<RowId> = [0, 8, 16, 999_999].into();
        let folded = RowIdSet::from_runs(
            &[(0..64).map(|i| i * 8).collect::<Vec<_>>()],
            &hidden,
            &[16, 513],
        );
        let mut expected: Vec<RowId> = (3..64).map(|i| i * 8).chain([16, 513]).collect();
        expected.sort_unstable();
        assert_eq!(folded.to_vec(), expected);
    }

    #[test]
    fn merges_and_intersections_keep_dense_results_as_bitmaps() {
        let evens = runs(vec![(0..10_000).map(|i| i * 2).collect()]);
        let odds = runs(vec![(0..10_000).map(|i| i * 2 + 1).collect()]);
        assert!(evens.is_bitmap() && odds.is_bitmap());
        let all = runs(vec![evens.to_vec(), odds.to_vec()]);
        assert!(all.is_bitmap());
        assert_eq!(all.len(), 20_000);
        assert_eq!(all.heap_bytes(), 20_000usize.div_ceil(64) * 8);
        let (none, _) = intersect_sets(&evens, &odds, IntersectStrategy::Adaptive);
        assert!(none.is_empty());
        let (same, stats) = intersect_sets(&all, &evens, IntersectStrategy::Gallop);
        assert_eq!(same, evens);
        assert_eq!(stats, IntersectStats::default(), "two bitmaps need no walk");
        // Equal sets compare equal across containers.
        let blocks = set(&evens.to_vec());
        assert!(!blocks.is_bitmap());
        assert_eq!(blocks, evens);
    }

    #[test]
    fn pooled_buffers_come_back_zeroed_and_the_pool_stays_small() {
        // Other tests build sets on other threads at the same time, so
        // only what holds under any interleaving is asserted.
        recycle_words(vec![u64::MAX; 64]);
        assert!(take_words(100).iter().all(|&w| w == 0));
        let dense = || runs(vec![(0..4096).collect()]);
        let kept: Vec<RowIdSet> = (0..2 * POOL_BUFFERS).map(|_| dense()).collect();
        assert!(kept.iter().all(|s| s.is_bitmap() && s.len() == 4096));
        drop(kept);
        let pooled = POOL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        assert!(pooled.len() <= POOL_BUFFERS, "the pool stays small");
    }

    #[test]
    fn compaction_gives_back_a_span_sized_buffer() {
        // Three dense words and one far id that a hidden row clears: the
        // scatter takes a buffer over the whole 2^21-id span, and the
        // trimmed set keeps 3 words of it.
        set_scatter_ratio(1 << 22);
        let far: RowId = 1 << 21;
        let ids: Vec<RowId> = (0..192).chain([far]).collect();
        let hidden: HashSet<RowId> = [far].into();
        let planner = RowIdSet::scattered(&[&ids], &hidden, &[]);
        let compact = RowIdSet::from_runs(&[&ids], &hidden, &[]);
        set_scatter_ratio(SCATTER_RATIO);
        // A planner set keeps its scratch buffer for the pool…
        assert!(planner.is_bitmap() && planner.word_capacity() > (far as usize) / 64);
        // …a compact one holds no more than twice its words.
        assert!(compact.is_bitmap() && compact.is_compact());
        assert_eq!(compact.heap_bytes(), 3 * 8);
        assert!(
            compact.word_capacity() <= 2 * 3,
            "{}",
            compact.word_capacity()
        );
        assert_eq!(compact, planner);
        // A clone holds exactly its words too.
        assert!(planner.clone().word_capacity() <= 3);
    }

    /// The words of a random bitmap, word `i` holding `counts[i]` bits
    /// (64 for anything past 64) at positions drawn from `seed`.
    fn words_with(counts: &[usize], seed: u64) -> Vec<u64> {
        let mut state = seed;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        counts
            .iter()
            .map(|&count| {
                let mut word = if count >= 64 { u64::MAX } else { 0 };
                while (word.count_ones() as usize) < count {
                    word |= 1 << (next() % 64);
                }
                word
            })
            .collect()
    }

    /// The ids of the bitmap at `base`, one word and one bit at a time.
    fn per_word_ids(base: RowId, words: &[u64]) -> Vec<RowId> {
        let mut ids = Vec::new();
        for (i, &word) in words.iter().enumerate() {
            for bit in 0..64 {
                if word >> bit & 1 == 1 {
                    ids.push(base + (i * 64 + bit) as RowId);
                }
            }
        }
        ids
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn the_batched_bitmap_walk_equals_the_per_word_extraction(
            base_word in prop_oneof![Just(0u32), 1u32..1 << 20],
            // Words of 0, 1, 2, 3, 4, 5, 63 and 64 bits, and any count
            // between; mostly empty words make sparse bitmaps.
            counts in prop::collection::vec(
                prop_oneof![
                    Just(0usize), Just(0), Just(0), Just(1), Just(2), Just(3), Just(4), Just(5),
                    Just(63), Just(64), 0usize..65,
                ],
                0..48,
            ),
            seed in any::<u64>(),
        ) {
            let base = base_word * 64;
            let words = words_with(&counts, seed);
            let want = per_word_ids(base, &words);
            let mut walks = [(Vec::new(), Vec::new()), (Vec::new(), Vec::new())];
            let [sparse, dense] = &mut walks;
            for_each_bitmap_batch::<SPARSE_UNROLLED_IDS>(base, &words, |batch| {
                sparse.0.push(batch.len());
                sparse.1.extend_from_slice(batch);
            });
            for_each_bitmap_batch::<UNROLLED_IDS>(base, &words, |batch| {
                dense.0.push(batch.len());
                dense.1.extend_from_slice(batch);
            });
            for (sizes, got) in &walks {
                prop_assert_eq!(got, &want);
                prop_assert!(
                    sizes.iter().all(|&n| (1..=BATCH_IDS).contains(&n)),
                    "batch sizes {:?}", sizes
                );
                prop_assert!(got.windows(2).all(|w| w[0] < w[1]), "batches ascend");
            }
            // The set's own walks: `to_vec` and a keep-every-other filter.
            let set = RowIdSet::from_bitmap(base, words, false);
            prop_assert_eq!(set.to_vec(), want.clone());
            let mut batches = Vec::new();
            let odd = set.filter_batches(|ids| {
                prop_assert!(ids.windows(2).all(|w| w[0] < w[1]));
                batches.push(ids.len());
                ids.iter()
                    .enumerate()
                    .fold(0, |mask, (i, &id)| mask | u64::from(id % 2 == 1) << i)
            });
            let width = if want.len() < set.heap_bytes() / 8 { 0 } else { 1 };
            prop_assert_eq!(&batches, &walks[width].0);
            let odd_ids: Vec<RowId> = want.iter().copied().filter(|id| id % 2 == 1).collect();
            prop_assert_eq!(odd.to_vec(), odd_ids);
        }
    }

    /// Words of the trimmed bitmap over `ids` (strictly ascending).
    fn trimmed_words(ids: &[RowId]) -> usize {
        match (ids.first(), ids.last()) {
            (Some(&min), Some(&max)) => ((max - (min & !63)) / 64 + 1) as usize,
            _ => 0,
        }
    }

    /// `set` holds `ids` (strictly ascending) in a compact form, byte for
    /// byte: a compact bitmap trimmed to its non-zero words that costs
    /// under the flat footprint, or the builder's blocks.
    fn assert_compact_form(set: &RowIdSet, ids: &[RowId]) {
        assert_eq!(set.to_vec(), ids);
        assert!(set.is_compact(), "a compact set");
        let words = trimmed_words(ids);
        match &set.container {
            Container::Bitmap { words: got, .. } => {
                assert!(bitmap_pays(words, ids.len()), "a bitmap that does not pay");
                assert_eq!(got.0.len(), words);
            }
            Container::Blocks { metas, gaps } => {
                let Container::Blocks {
                    metas: want_metas,
                    gaps: want_gaps,
                } = RowIdSet::from_sorted(ids).container
                else {
                    unreachable!("the builder writes blocks");
                };
                assert_eq!(metas, &want_metas, "skip entries");
                assert_eq!(gaps, &want_gaps, "gap bytes");
            }
        }
    }

    /// [`assert_compact_form`], in the container the density picks: the
    /// form every set built from compact bitmaps or scattered ids takes.
    fn assert_canonical(set: &RowIdSet, ids: &[RowId]) {
        assert_compact_form(set, ids);
        let pays = !ids.is_empty() && bitmap_pays(trimmed_words(ids), ids.len());
        assert_eq!(set.is_bitmap(), pays, "the container the density picks");
    }

    /// `set` is in the planner form: never encoded from words — a bitmap
    /// that is not compact, or (when its ids are too sparse to scatter)
    /// the sorted path's blocks.
    fn assert_planner_form(set: &RowIdSet, ids: &[RowId]) {
        assert_eq!(set.to_vec(), ids);
        match (&set.container, ids.first(), ids.last()) {
            (Container::Bitmap { compact, .. }, _, _) => assert!(!compact, "a compacted bitmap"),
            (Container::Blocks { .. }, Some(&min), Some(&max)) => {
                assert!(
                    !scatters((max - min) as usize, ids.len()),
                    "encoded from words"
                );
            }
            (Container::Blocks { .. }, _, _) => {}
        }
        assert_canonical(&set.clone().compact(), ids);
    }

    /// `count` distinct ids from `offset` up, spread over `count × stride`
    /// ids of span (`raw` picks them).
    fn spread(offset: RowId, stride: u32, raw: &[u32]) -> Vec<RowId> {
        let span = (raw.len() as u32 * stride).max(1);
        let ids: BTreeSet<RowId> = raw.iter().map(|x| offset + x % span).collect();
        ids.into_iter().collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Compact inputs give the compact form's containers and bytes;
        /// a planner-form bitmap input gives an output never encoded from
        /// words. (A set too sparse to scatter is blocks in either form.)
        #[test]
        fn the_algebra_compacts_only_compact_inputs(
            a in (0u32..5_000, prop_oneof![Just(1u32), Just(8), Just(40), Just(200), Just(900), Just(3000)],
                  prop::collection::vec(any::<u32>(), 0..400)),
            b in (0u32..5_000, prop_oneof![Just(1u32), Just(8), Just(40), Just(200), Just(900), Just(3000)],
                  prop::collection::vec(any::<u32>(), 0..400)),
        ) {
            let (a, b) = (spread(a.0, a.1, &a.2), spread(b.0, b.1, &b.2));
            let none = HashSet::new();
            let compact = |ids: &[RowId]| RowIdSet::from_runs(&[ids], &none, &[]);
            let planner = |ids: &[RowId]| RowIdSet::scattered(&[ids], &none, &[]);
            let (oracle_a, oracle_b): (BTreeSet<RowId>, BTreeSet<RowId>) =
                (a.iter().copied().collect(), b.iter().copied().collect());
            let common: Vec<RowId> = oracle_a.intersection(&oracle_b).copied().collect();
            let odd = |ids: &[RowId]| {
                ids.iter()
                    .enumerate()
                    .fold(0, |mask, (i, &id)| mask | u64::from(id % 2 == 1) << i)
            };
            let odd_a: Vec<RowId> = a.iter().copied().filter(|id| id % 2 == 1).collect();

            let (ca, cb) = (compact(&a), compact(&b));
            let blocks_a = RowIdSet::from_sorted(&a);
            for (x, y) in [(&ca, &cb), (&cb, &ca), (&blocks_a, &cb), (&cb, &blocks_a)] {
                assert_canonical(&intersect_sets(x, y, IntersectStrategy::Adaptive).0, &common);
            }
            assert_canonical(&ca.filter_batches(odd), &odd_a);
            // Blocks filter into blocks.
            assert_compact_form(&blocks_a.filter_batches(odd), &odd_a);

            let (pa, pb) = (planner(&a), planner(&b));
            prop_assert_eq!(&pa, &ca);
            for (x, y) in [(&pa, &pb), (&pb, &pa), (&pa, &cb), (&cb, &pa), (&blocks_a, &pb)] {
                let check = if x.is_compact() && y.is_compact() {
                    assert_compact_form
                } else {
                    assert_planner_form
                };
                check(&intersect_sets(x, y, IntersectStrategy::Adaptive).0, &common);
            }
            if pa.is_compact() {
                assert_compact_form(&pa.filter_batches(odd), &odd_a);
            } else {
                assert_planner_form(&pa.filter_batches(odd), &odd_a);
            }
        }
    }

    /// Ids from `offset` up, `raw` folded into a window of `domain` ids:
    /// small domains give dense sets, large ones sparse sets.
    fn ids_in(offset: RowId, domain: RowId, raw: &[u32]) -> Vec<RowId> {
        raw.iter().map(|x| offset + x % domain).collect()
    }

    /// `(offset, domain, runs, (hidden, extra))` before folding into ids.
    type RawRuns = (u32, u32, Vec<Vec<u32>>, (Vec<u32>, Vec<u32>));

    /// Runs, hidden ids and extra ids over one window: dense or sparse
    /// by the window's width.
    fn id_runs() -> impl Strategy<Value = RawRuns> {
        (
            0u32..5_000,
            prop_oneof![1u32..400, 1u32..30_000],
            prop::collection::vec(prop::collection::vec(any::<u32>(), 0..300), 0..5),
            (
                prop::collection::vec(any::<u32>(), 0..40),
                prop::collection::vec(any::<u32>(), 0..40),
            ),
        )
    }

    /// The ids of one [`id_runs`] draw: `(runs, hidden, extra)`; extra ids
    /// reach past the runs' window.
    fn fold(
        (offset, domain, raws, (hidden, extra)): RawRuns,
    ) -> (Vec<Vec<RowId>>, Vec<RowId>, Vec<RowId>) {
        let runs = raws.iter().map(|raw| ids_in(offset, domain, raw)).collect();
        (
            runs,
            ids_in(offset, domain, &hidden),
            ids_in(offset, domain * 2, &extra),
        )
    }

    /// Builds the set through `from_runs` and its oracle.
    fn built(
        (runs, hidden, extra): &(Vec<Vec<RowId>>, Vec<RowId>, Vec<RowId>),
    ) -> (RowIdSet, BTreeSet<RowId>) {
        let hidden: HashSet<RowId> = hidden.iter().copied().collect();
        let mut oracle: BTreeSet<RowId> = runs.iter().flatten().copied().collect();
        oracle.retain(|id| !hidden.contains(id));
        oracle.extend(extra.iter().copied());
        (RowIdSet::from_runs(runs, &hidden, extra), oracle)
    }

    /// Everything a set must agree on with its oracle.
    fn check_against(set: &RowIdSet, oracle: &BTreeSet<RowId>, probes: &[(bool, RowId)]) {
        let ids: Vec<RowId> = oracle.iter().copied().collect();
        assert_eq!(set.to_vec(), ids);
        assert_eq!(set.len(), ids.len());
        assert_eq!(set.first(), ids.first().copied());
        assert_eq!(set.last(), ids.last().copied());
        if set.is_bitmap() {
            assert!(
                set.heap_bytes() * 8 < BITMAP_BITS_PER_ID * set.len(),
                "a bitmap costs < 4 B/row"
            );
        } else {
            // Ids below 2^21 gap in <= 3 bytes, so a block costs <= 4 B/row
            // beyond one skip entry.
            assert!(set.heap_bytes() <= 4 * set.len() + std::mem::size_of::<BlockMeta>());
        }
        for &(_, probe) in probes {
            assert_eq!(
                set.contains(probe),
                oracle.contains(&probe),
                "contains {probe}"
            );
        }
        // The `next` / `next_seek` contract, call by call.
        let mut it = set.iter();
        let mut last: Option<RowId> = None;
        for &(seek, target) in probes {
            let got = if seek {
                it.next_seek(target)
            } else {
                it.next()
            };
            let floor = match (seek, last) {
                (false, None) => 0,
                (false, Some(l)) => l + 1,
                (true, None) => target,
                (true, Some(l)) => target.max(l + 1),
            };
            assert_eq!(
                got,
                oracle.range(floor..).next().copied(),
                "{seek} {target} after {last:?}"
            );
            match got {
                Some(id) => last = Some(id),
                None => {
                    assert_eq!(it.next(), None, "exhausted stays exhausted");
                    break;
                }
            }
        }
    }

    /// Pushes `ids` (strictly ascending, all at or past `base`) through
    /// the builder and encodes the same ids from the bitmap at `base`,
    /// `lead` zero words before the first id's word and `trail` after the
    /// last's; the two encodings must agree byte for byte.
    fn assert_encodes_like_the_builder(base: RowId, ids: &[RowId], lead: usize, trail: usize) {
        let mut builder = RowIdSetBuilder::new();
        for &id in ids {
            builder.push(id);
        }
        let want = builder.finish();
        let words_base = base - (lead * 64) as RowId;
        let top = ids
            .last()
            .map_or(0, |&id| (id - words_base) as usize / 64 + 1);
        let mut words = vec![0u64; top + trail];
        for &id in ids {
            let bit = (id - words_base) as usize;
            words[bit / 64] |= 1 << (bit % 64);
        }
        let got = encode_words(words_base, &words, ids.len());
        assert_eq!(got.len, want.len);
        let (
            Container::Blocks { metas, gaps },
            Container::Blocks {
                metas: want_metas,
                gaps: want_gaps,
            },
        ) = (&got.container, &want.container)
        else {
            panic!("both encodings are blocks");
        };
        assert_eq!(metas, want_metas, "skip entries");
        assert_eq!(gaps, want_gaps, "gap bytes");
    }

    #[test]
    fn the_word_encoder_writes_five_byte_gaps_like_the_builder() {
        // A gap of 2^28 needs five LEB128 bytes (and 32 MiB of words).
        let far = 1 << 28;
        let base = 64 * 3;
        let ids = [base + 5, base + 5 + far, base + 6 + far, base + 9 + far];
        assert_encodes_like_the_builder(base, &ids, 1, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn the_word_encoder_writes_the_builders_bytes(
            base_word in prop_oneof![Just(0u32), 1u32..1 << 20],
            first in 0u32..64,
            count in prop_oneof![
                Just(1usize), Just(63), Just(64), Just(65), Just(128), 1usize..400,
            ],
            // Gaps of 1, 2 and 3 LEB128 bytes (3-byte ones near their
            // floor, to keep the bitmaps small)…
            gaps in prop::collection::vec(
                prop_oneof![
                    1u32..0x80,
                    1u32..0x80,
                    0x80u32..1 << 14,
                    (1u32 << 14)..(1 << 14) + 4096,
                ],
                400..401,
            ),
            // …and a few of 4 bytes.
            far in prop::collection::vec(1usize..400, 0..3),
            ends in (0usize..3, 0usize..3),
        ) {
            let (lead, trail) = ends;
            let mut gaps = gaps;
            for &at in &far {
                gaps[at] = (1 << 21) + gaps[at] % 4096;
            }
            let base = base_word * 64 + (lead * 64) as RowId;
            let mut ids = vec![base + first];
            for &gap in &gaps[1..count] {
                ids.push(ids[ids.len() - 1] + gap);
            }
            assert_encodes_like_the_builder(base, &ids, lead, trail);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn both_containers_match_a_btreeset_oracle(
            ratio in prop_oneof![Just(1usize), Just(8), Just(SCATTER_RATIO)],
            a in id_runs(),
            b in id_runs(),
            probes in prop::collection::vec((any::<bool>(), 0u32..70_000), 0..60),
        ) {
            set_scatter_ratio(ratio);
            let a = fold(a);
            let (set_a, oracle_a) = built(&a);
            let (set_b, oracle_b) = built(&fold(b));
            check_against(&set_a, &oracle_a, &probes);
            check_against(&set_b, &oracle_b, &probes);
            // Hiding the lower half leaves whole zero words ahead of the
            // first id, whichever container the rest lands in.
            let median = oracle_a.iter().nth(oracle_a.len() / 2).copied().unwrap_or(0);
            let lower: Vec<RowId> = oracle_a.range(..median).copied().collect();
            let (upper, oracle_upper) = built(&(a.0.clone(), lower, Vec::new()));
            check_against(&upper, &oracle_upper, &probes);

            // The same ids in blocks, for mixed-container operations.
            let blocks_a = RowIdSet::from_sorted(&set_a.to_vec());
            prop_assert!(!blocks_a.is_bitmap());
            prop_assert_eq!(&blocks_a, &set_a);
            prop_assert_eq!(set_a == set_b, oracle_a == oracle_b);

            let common: BTreeSet<RowId> = oracle_a.intersection(&oracle_b).copied().collect();
            for strategy in [
                IntersectStrategy::Adaptive,
                IntersectStrategy::Gallop,
                IntersectStrategy::Linear,
            ] {
                for (x, y) in [(&set_a, &set_b), (&set_b, &set_a), (&blocks_a, &set_b)] {
                    let (got, _) = intersect_sets(x, y, strategy);
                    check_against(&got, &common, &probes);
                }
            }
            set_scatter_ratio(SCATTER_RATIO);
        }
    }
}
