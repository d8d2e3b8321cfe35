//! Candidate row-id sets: ascending, deduplicated, in one of two
//! containers.
//!
//! A table planner hands candidate row ids from one operator to the next:
//! its driver read yields them, every further predicate reads its column
//! [`crate::ReadShape::Within`] them or filters them by projection
//! ([`RowIdSet::filter_batches`]), and the survivors become the result.
//! Each set is built, used and dropped within one operation.
//! [`RowIdSet`] holds its ids in one of two containers:
//!
//! * a **bitmap** over the set's id span: `len` is a popcount,
//!   `contains` a bit test and decoding a word walk;
//! * a **sorted** vector of the ids, for a set too sparse for a bitmap.
//!
//! The **planner form** is what a read scatters: the producer
//! ([`crate::ConcurrentCracker::read`]) hands over the row ids of every
//! visited piece in physical order, and the set scatters them into a
//! bitmap over its id span — no per-run sort, no heap merge; hidden
//! delta rows are bit clears, extra delta rows bit sets. Only a set
//! sparser than one id per 1024 ids of span is concatenated, sorted and
//! deduplicated into a vector instead. [`RowIdSet::compact`] is the one
//! place that picks the container by footprint: a bitmap stays one only
//! when it costs less than the sorted vector (`span < 32 × len`, under 4
//! bytes per row) and is otherwise walked into one. Every public
//! constructor ([`RowIdSet::from_sorted`], [`RowIdSet::from_runs`])
//! returns a compacted set; the algebra ([`RowIdSet::filter_batches`],
//! [`intersect_sets`]) keeps its input's container.
//!
//! Consumers walk a bitmap in batches of up to 64 ascending ids gathered
//! across words, without a branch per word.
//! [`RowIdSet::filter_batches`] hands such a batch (or 64 ids of a sorted
//! set) to a consumer and takes back a keep mask, so a filter over the
//! set (the table engine's projection) runs branch-free over independent
//! loads. Every bitmap buffer — construction scratch and container words
//! alike — comes from one small recycled pool shared by all threads (one
//! client builds the sets another drops), so a read allocates no fresh
//! bitmap.

use aidx_cracking::RowId;
use std::borrow::Cow;
use std::collections::HashSet;
// The buffer pool is not a protocol: it is only ever `try_lock`ed, never
// waited on, and never held across another lock.
use std::sync::Mutex;

/// A compact set of fewer than this many bits of span per id stays a
/// bitmap: it then costs less than the sorted vector, which spends 32
/// bits on every id.
const BITMAP_BITS_PER_ID: usize = RowId::BITS as usize;

/// Most ids per batch of [`RowIdSet::filter_batches`] (a keep mask is one
/// `u64`).
const BATCH_IDS: usize = 64;

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

/// Where a [`RowIdSet`] keeps its ids.
#[derive(Debug, Clone)]
enum Container {
    /// The ids, ascending and deduplicated.
    Sorted(Vec<RowId>),
    /// Bit `i` of `words` is id `base + i`. `base` is a multiple of 64
    /// and the first and last words are non-zero, so a set has exactly
    /// one bitmap form.
    Bitmap { base: RowId, words: Words },
}

impl Default for Container {
    fn default() -> Self {
        Container::Sorted(Vec::new())
    }
}

/// An ascending set of row ids: a bitmap when dense, a sorted vector
/// when sparse (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct RowIdSet {
    container: Container,
    len: usize,
}

/// True when `words` words of bitmap hold `len` ids at fewer than
/// [`BITMAP_BITS_PER_ID`] bits each.
fn bitmap_pays(words: usize, len: usize) -> bool {
    words * 64 < BITMAP_BITS_PER_ID * len
}

/// True when ids spread over `span` are dense enough to scatter into a
/// bitmap: at most [`SCATTER_RATIO`] ids of span per id.
fn scatters(span: usize, ids: usize) -> bool {
    span / scatter_ratio() < ids
}

/// Words of the bitmap over ids in `[min, max]`, its base rounded down to
/// a multiple of 64.
fn span_words(min: RowId, max: RowId) -> usize {
    (max - (min & !63)) as usize / 64 + 1
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
        Scatter {
            base: min & !63,
            words: Words(take_words(span_words(min, max))),
        }
    }

    /// The bitmap of `ids`, ascending and not empty.
    fn of_sorted(ids: &[RowId]) -> RowIdSet {
        let mut bits = Scatter::over(ids[0], ids[ids.len() - 1]);
        for &id in ids {
            bits.insert(id);
        }
        bits.finish()
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

    /// The set, trimmed to its non-zero words.
    fn finish(mut self) -> RowIdSet {
        RowIdSet::from_bitmap(self.base, std::mem::take(&mut self.words.0))
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

/// Calls `f` with the ids of `mask`'s set bits: bit `i` stands for
/// `ids[i]`.
fn for_each_kept(ids: &[RowId], mut mask: u64, mut f: impl FnMut(RowId)) {
    while mask != 0 {
        f(ids[mask.trailing_zeros() as usize]);
        mask &= mask - 1;
    }
}

impl RowIdSet {
    /// The set of an ascending slice of ids (equal neighbours count once),
    /// compacted.
    ///
    /// # Panics
    /// Panics if an id is smaller than the one before it.
    pub fn from_sorted(ids: &[RowId]) -> RowIdSet {
        assert!(
            ids.windows(2).all(|w| w[0] <= w[1]),
            "RowIdSet ids must come in ascending order"
        );
        let mut ids = ids.to_vec();
        ids.dedup();
        RowIdSet::sorted(ids).compact()
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
    /// words; otherwise the ids are concatenated, sorted and deduplicated.
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
            return bits.finish();
        }
        let mut ids = Vec::with_capacity(total);
        for run in runs {
            ids.extend(run.as_ref().iter().filter(|id| !hidden.contains(id)));
        }
        ids.extend_from_slice(extra);
        ids.sort_unstable();
        ids.dedup();
        RowIdSet::sorted(ids)
    }

    /// The set of `ids`, ascending and deduplicated, as they are.
    fn sorted(ids: Vec<RowId>) -> RowIdSet {
        RowIdSet {
            len: ids.len(),
            container: Container::Sorted(ids),
        }
    }

    /// The set of a scattered bitmap at `base`, trimmed to its non-zero
    /// words.
    fn from_bitmap(base: RowId, mut words: Vec<u64>) -> RowIdSet {
        let len: usize = words.iter().map(|w| w.count_ones() as usize).sum();
        let first = words.iter().position(|&w| w != 0);
        let last = words.iter().rposition(|&w| w != 0);
        let (Some(first), Some(last)) = (first, last) else {
            recycle_words(words);
            return RowIdSet::default();
        };
        words.truncate(last + 1);
        words.drain(..first);
        RowIdSet {
            container: Container::Bitmap {
                base: base + (first * 64) as RowId,
                words: Words(words),
            },
            len,
        }
    }

    /// The set in the container that costs it least: a bitmap when that
    /// costs less than the sorted vector (giving back a buffer more than
    /// twice its words), else the sorted vector — walked from a bitmap's
    /// words, whose buffer goes back to the pool.
    pub fn compact(mut self) -> RowIdSet {
        match &mut self.container {
            Container::Bitmap { words, .. } if !bitmap_pays(words.0.len(), self.len) => {
                RowIdSet::sorted(self.to_vec())
            }
            Container::Bitmap { words, .. } => {
                if words.0.capacity() > 2 * words.0.len() {
                    let fitted = words.0.to_vec();
                    recycle_words(std::mem::replace(&mut words.0, fitted));
                }
                self
            }
            Container::Sorted(ids) => match (ids.first(), ids.last()) {
                (Some(&min), Some(&max)) if bitmap_pays(span_words(min, max), ids.len()) => {
                    Scatter::of_sorted(ids)
                }
                _ => self,
            },
        }
    }

    /// Capacity of a bitmap's buffer, in words (0 for a sorted set).
    #[cfg(test)]
    fn word_capacity(&self) -> usize {
        match &self.container {
            Container::Sorted(_) => 0,
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

    /// True when the set is held as a bitmap (dense), false for a sorted
    /// vector.
    pub fn is_bitmap(&self) -> bool {
        matches!(self.container, Container::Bitmap { .. })
    }

    /// Footprint in bytes: the bitmap's words, or 4 bytes per id of a
    /// sorted set (what a flat `Vec<RowId>` costs).
    pub fn heap_bytes(&self) -> usize {
        match &self.container {
            Container::Sorted(ids) => std::mem::size_of_val(ids.as_slice()),
            Container::Bitmap { words, .. } => words.0.len() * 8,
        }
    }

    /// Smallest id (`None` when empty).
    pub fn first(&self) -> Option<RowId> {
        match &self.container {
            Container::Sorted(ids) => ids.first().copied(),
            Container::Bitmap { base, words } => Some(base + words.0.first()?.trailing_zeros()),
        }
    }

    /// True when `id` is in the set: a bit test on a bitmap, a binary
    /// search of a sorted set.
    pub fn contains(&self, id: RowId) -> bool {
        match &self.container {
            Container::Sorted(ids) => ids.binary_search(&id).is_ok(),
            Container::Bitmap { base, words } => id.checked_sub(*base).is_some_and(|bit| {
                let bit = bit as usize;
                words
                    .0
                    .get(bit / 64)
                    .is_some_and(|w| w >> (bit % 64) & 1 == 1)
            }),
        }
    }

    /// Calls `f` with the ids in ascending batches of 1 to
    /// [`BATCH_IDS`]: a bitmap's ids gathered across words, a sorted
    /// set's in chunks.
    fn for_each_batch(&self, f: impl FnMut(&[RowId])) {
        match &self.container {
            Container::Bitmap { base, words } if self.len < words.0.len() => {
                for_each_bitmap_batch::<SPARSE_UNROLLED_IDS>(*base, &words.0, f);
            }
            Container::Bitmap { base, words } => {
                for_each_bitmap_batch::<UNROLLED_IDS>(*base, &words.0, f);
            }
            Container::Sorted(ids) => ids.chunks(BATCH_IDS).for_each(f),
        }
    }

    /// The ids as an ascending vector (the boundary representation
    /// callers hand to oracles and result consumers); a bitmap's sized
    /// once and filled a batch at a time.
    pub fn to_vec(&self) -> Vec<RowId> {
        match &self.container {
            Container::Sorted(ids) => ids.clone(),
            Container::Bitmap { .. } => {
                let mut out = Vec::with_capacity(self.len);
                self.for_each_batch(|ids| out.extend_from_slice(ids));
                out
            }
        }
    }

    /// [`RowIdSet::to_vec`] of a set that is done with: a sorted set hands
    /// over its vector instead of copying it.
    pub fn into_vec(mut self) -> Vec<RowId> {
        match &mut self.container {
            Container::Sorted(ids) => std::mem::take(ids),
            Container::Bitmap { .. } => self.to_vec(),
        }
    }

    /// The subset `keep` selects, decided up to 64 ids at a time: `keep`
    /// gets a batch of up to 64 ascending ids and returns a mask whose
    /// bit `i` keeps `ids[i]`. The result keeps the input's container: a
    /// bitmap's survivors are set in a pooled bitmap of the same span, a
    /// sorted set's are collected in order.
    ///
    /// # Panics
    /// Panics if a mask has a bit at or past its batch's length.
    pub fn filter_batches(&self, mut keep: impl FnMut(&[RowId]) -> u64) -> RowIdSet {
        match &self.container {
            Container::Bitmap { base, words } => {
                let mut kept = Scatter {
                    base: *base,
                    words: Words(take_words(words.0.len())),
                };
                self.for_each_batch(|ids| for_each_kept(ids, keep(ids), |id| kept.insert(id)));
                kept.finish()
            }
            Container::Sorted(_) => {
                let mut kept = Vec::new();
                self.for_each_batch(|ids| for_each_kept(ids, keep(ids), |id| kept.push(id)));
                RowIdSet::sorted(kept)
            }
        }
    }

    /// The set as one bitmap, for a read that keeps only the row ids in it
    /// ([`crate::ReadShape::Within`]): a bitmap set as it is, a sorted set
    /// scattered once into a pooled bitmap over its span.
    pub fn as_bitmap(&self) -> Cow<'_, RowIdSet> {
        match &self.container {
            Container::Sorted(ids) if !ids.is_empty() => Cow::Owned(Scatter::of_sorted(ids)),
            _ => Cow::Borrowed(self),
        }
    }

    /// The bits of a set [`RowIdSet::as_bitmap`] returned.
    ///
    /// # Panics
    /// Panics on a non-empty sorted set.
    pub(crate) fn bits(&self) -> Bits<'_> {
        match &self.container {
            Container::Bitmap { base, words } => Bits {
                base: *base,
                words: &words.0,
            },
            Container::Sorted(ids) => {
                assert!(ids.is_empty(), "a sorted set has no bits: see as_bitmap");
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
        match (&self.container, &other.container) {
            // A set has one bitmap form.
            (
                Container::Bitmap { base, words },
                Container::Bitmap {
                    base: other_base,
                    words: other_words,
                },
            ) => base == other_base && words.0 == other_words.0,
            (Container::Sorted(ids), Container::Sorted(other_ids)) => ids == other_ids,
            _ => self.len == other.len && self.to_vec() == other.to_vec(),
        }
    }
}

impl Eq for RowIdSet {}

/// How [`intersect_sets`] walks two sets: one way, kept as a parameter
/// because the benchmark's rowid-set probes (`benchmark/src/probes.rs`)
/// name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntersectStrategy {
    /// Two bitmaps AND word by word, a sorted set keeps the ids a
    /// bitmap holds, two sorted sets merge.
    Adaptive,
}

/// Intersects two sets, keeping their container: two bitmaps AND word by
/// word into a bitmap; a sorted set against a bitmap keeps the ids whose
/// bit is set; two sorted sets merge in one loop. No engine path calls
/// it (a table planner reads a further predicate
/// [`crate::ReadShape::Within`] its candidates instead); it stays for the
/// benchmark's rowid-set probes (`benchmark/src/probes.rs`).
pub fn intersect_sets(a: &RowIdSet, b: &RowIdSet, _strategy: IntersectStrategy) -> RowIdSet {
    match (&a.container, &b.container) {
        (
            Container::Bitmap {
                base: base_a,
                words: words_a,
            },
            Container::Bitmap {
                base: base_b,
                words: words_b,
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
            RowIdSet::from_bitmap(base, words)
        }
        (Container::Sorted(x), Container::Sorted(y)) => {
            let mut out = Vec::with_capacity(x.len().min(y.len()));
            let (mut i, mut j) = (0, 0);
            while let (Some(&p), Some(&q)) = (x.get(i), y.get(j)) {
                i += usize::from(p <= q);
                j += usize::from(q <= p);
                if p == q {
                    out.push(p);
                }
            }
            RowIdSet::sorted(out)
        }
        (Container::Sorted(ids), Container::Bitmap { .. }) => probe(ids, b.bits()),
        (Container::Bitmap { .. }, Container::Sorted(ids)) => probe(ids, a.bits()),
    }
}

/// The ids of a sorted set that `bits` holds.
fn probe(ids: &[RowId], bits: Bits<'_>) -> RowIdSet {
    RowIdSet::sorted(ids.iter().copied().filter(|&id| bits.holds(id)).collect())
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

    /// The same ids (ascending, deduplicated) in both containers.
    fn both(ids: &[RowId]) -> [RowIdSet; 2] {
        let bitmap = match ids {
            [] => RowIdSet::default(),
            _ => Scatter::of_sorted(ids),
        };
        [RowIdSet::sorted(ids.to_vec()), bitmap]
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
    fn from_sorted_dedupes_equal_ids() {
        let far = 1 << 20;
        for ids in [[3, 3, 4, 4, 4, 9], [3, 3, 4, 4, 4, far]] {
            let s = set(&ids);
            assert_eq!(s.to_vec(), [3, 4, ids[5]]);
            assert_eq!(s.len(), 3);
        }
        assert!(set(&[3, 3, 4, 4, 4, 9]).is_bitmap());
        assert!(!set(&[3, 3, 4, 4, 4, far]).is_bitmap());
    }

    #[test]
    #[should_panic(expected = "ascending order")]
    fn from_sorted_rejects_descending_ids() {
        set(&[5, 4]);
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

    // The unit cases of the table engine's former `intersect_sorted`
    // free function, over every pair of containers.
    #[test]
    fn intersect_sets_covers_the_legacy_unit_cases() {
        let cases: [(&[RowId], &[RowId], &[RowId]); 3] = [
            (&[1, 3, 5], &[2, 3, 5, 9], &[3, 5]),
            (&[], &[1], &[]),
            (&[7], &[7], &[7]),
        ];
        for (a, b, expected) in cases {
            for x in &both(a) {
                for y in &both(b) {
                    let got = intersect_sets(x, y, IntersectStrategy::Adaptive);
                    assert_eq!(got.to_vec(), expected, "{x:?} ∩ {y:?}");
                }
            }
        }
    }

    #[test]
    fn the_container_follows_the_density() {
        // One id per 31 bits of span (31 whole words for 64 ids) costs
        // just under the sorted vector and stays a bitmap…
        let stride = BITMAP_BITS_PER_ID as RowId;
        let dense = runs(vec![(0..64).map(|i| i * (stride - 1)).collect()]);
        assert!(dense.is_bitmap());
        assert_eq!(dense.heap_bytes(), 31 * 8);
        assert!(dense.heap_bytes() < 64 * std::mem::size_of::<RowId>());
        // …one per 32 (32 words, as many bytes as the vector) is walked
        // from the scattered words into one…
        let sparse = runs(vec![(0..64).rev().map(|i| 1024 + i * stride).collect()]);
        assert!(!sparse.is_bitmap());
        assert_eq!(sparse.heap_bytes(), 64 * std::mem::size_of::<RowId>());
        assert_eq!(
            sparse.to_vec(),
            (0..64).map(|i| 1024 + i * stride).collect::<Vec<_>>()
        );
        // …and past the scatter ratio the ids are sorted instead.
        let far = runs(vec![vec![(SCATTER_RATIO * 4) as RowId, 3, 1, 3]]);
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
        let none = intersect_sets(&evens, &odds, IntersectStrategy::Adaptive);
        assert!(none.is_empty());
        let same = intersect_sets(&all, &evens, IntersectStrategy::Adaptive);
        assert!(same.is_bitmap());
        assert_eq!(same, evens);
        // Equal sets compare equal across containers.
        let sorted = RowIdSet::sorted(evens.to_vec());
        assert!(!sorted.is_bitmap());
        assert_eq!(sorted, evens);
        assert_eq!(evens, sorted);
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
        assert!(compact.is_bitmap());
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
            let set = RowIdSet::from_bitmap(base, words);
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

    /// Words of the trimmed bitmap over `ids` (ascending).
    fn trimmed_words(ids: &[RowId]) -> usize {
        match (ids.first(), ids.last()) {
            (Some(&min), Some(&max)) => span_words(min, max),
            _ => 0,
        }
    }

    /// `set` holds `ids` (ascending) in the container the density picks:
    /// a bitmap trimmed to its non-zero words that costs under the sorted
    /// vector, or the sorted vector.
    fn assert_compact(set: &RowIdSet, ids: &[RowId]) {
        assert_eq!(set.to_vec(), ids);
        let pays = !ids.is_empty() && bitmap_pays(trimmed_words(ids), ids.len());
        assert_eq!(set.is_bitmap(), pays, "the container the density picks");
        if set.is_bitmap() {
            assert_eq!(set.heap_bytes(), trimmed_words(ids) * 8);
        }
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

        /// Intersection and filtering keep their input's container — a
        /// bitmap only when both inputs are bitmaps — and compacting the
        /// output gives the container the density picks.
        #[test]
        fn the_algebra_keeps_its_inputs_form(
            a in (0u32..5_000, prop_oneof![Just(1u32), Just(8), Just(40), Just(200), Just(900), Just(3000)],
                  prop::collection::vec(any::<u32>(), 0..400)),
            b in (0u32..5_000, prop_oneof![Just(1u32), Just(8), Just(40), Just(200), Just(900), Just(3000)],
                  prop::collection::vec(any::<u32>(), 0..400)),
        ) {
            let (a, b) = (spread(a.0, a.1, &a.2), spread(b.0, b.1, &b.2));
            let (oracle_a, oracle_b): (BTreeSet<RowId>, BTreeSet<RowId>) =
                (a.iter().copied().collect(), b.iter().copied().collect());
            let common: Vec<RowId> = oracle_a.intersection(&oracle_b).copied().collect();
            let odd = |ids: &[RowId]| {
                ids.iter()
                    .enumerate()
                    .fold(0, |mask, (i, &id)| mask | u64::from(id % 2 == 1) << i)
            };
            let odd_a: Vec<RowId> = a.iter().copied().filter(|id| id % 2 == 1).collect();
            let compact = |ids: &[RowId]| RowIdSet::from_runs(&[ids], &HashSet::new(), &[]);
            assert_compact(&compact(&a), &a);
            assert_compact(&RowIdSet::from_sorted(&a), &a);

            for x in &both(&a) {
                prop_assert_eq!(x, &compact(&a));
                let filtered = x.filter_batches(odd);
                prop_assert_eq!(filtered.to_vec(), odd_a.clone());
                prop_assert_eq!(filtered.is_bitmap(), x.is_bitmap() && !odd_a.is_empty());
                assert_compact(&filtered.compact(), &odd_a);
                for y in &both(&b) {
                    let got = intersect_sets(x, y, IntersectStrategy::Adaptive);
                    prop_assert_eq!(got.to_vec(), common.clone());
                    let bitmaps = x.is_bitmap() && y.is_bitmap() && !common.is_empty();
                    prop_assert_eq!(got.is_bitmap(), bitmaps);
                    assert_compact(&got.compact(), &common);
                }
            }
        }
    }

    /// `(offset, domain, (runs, copies), (hidden, extra))` before folding
    /// into ids.
    type RawRuns = (u32, u32, (Vec<Vec<u32>>, usize), (Vec<u32>, Vec<u32>));

    /// Runs, hidden ids and extra ids over one window: dense or sparse
    /// by the window's width, near id 0 or near `RowId::MAX`, every run
    /// repeated `copies` times.
    fn id_runs() -> impl Strategy<Value = RawRuns> {
        (
            prop_oneof![0u32..5_000, (RowId::MAX - 64_000)..(RowId::MAX - 59_999)],
            prop_oneof![1u32..400, 1u32..30_000],
            (
                prop::collection::vec(prop::collection::vec(any::<u32>(), 0..300), 0..5),
                prop_oneof![Just(1usize), 2usize..5],
            ),
            (
                prop::collection::vec(any::<u32>(), 0..40),
                prop::collection::vec(any::<u32>(), 0..40),
            ),
        )
    }

    /// Ids from `offset` up, `raw` folded into a window of `domain` ids:
    /// small domains give dense sets, large ones sparse sets.
    fn ids_in(offset: RowId, domain: RowId, raw: &[u32]) -> Vec<RowId> {
        raw.iter().map(|x| offset + x % domain).collect()
    }

    /// The ids of one [`id_runs`] draw: `(runs, hidden, extra)`; extra ids
    /// reach past the runs' window.
    fn fold(
        (offset, domain, (raws, copies), (hidden, extra)): RawRuns,
    ) -> (Vec<Vec<RowId>>, Vec<RowId>, Vec<RowId>) {
        let runs = raws
            .iter()
            .flat_map(|raw| std::iter::repeat_n(ids_in(offset, domain, raw), copies))
            .collect();
        (
            runs,
            ids_in(offset, domain, &hidden),
            ids_in(offset, domain * 2, &extra),
        )
    }

    /// The set `(runs ∖ hidden) ∪ extra` in the planner form and
    /// compacted, with its oracle.
    fn built(
        (runs, hidden, extra): &(Vec<Vec<RowId>>, Vec<RowId>, Vec<RowId>),
    ) -> ([RowIdSet; 2], BTreeSet<RowId>) {
        let hidden: HashSet<RowId> = hidden.iter().copied().collect();
        let mut oracle: BTreeSet<RowId> = runs.iter().flatten().copied().collect();
        oracle.retain(|id| !hidden.contains(id));
        oracle.extend(extra.iter().copied());
        let sets = [
            RowIdSet::scattered(runs, &hidden, extra),
            RowIdSet::from_runs(runs, &hidden, extra),
        ];
        (sets, oracle)
    }

    /// Everything a set must agree on with its oracle: its ids, ends and
    /// footprint, and `contains` on every id, both its neighbours and
    /// `probes`.
    fn check_against(set: &RowIdSet, oracle: &BTreeSet<RowId>, probes: &[RowId]) {
        let ids: Vec<RowId> = oracle.iter().copied().collect();
        assert_eq!(set.to_vec(), ids);
        assert_eq!(set.len(), ids.len());
        assert_eq!(set.is_empty(), ids.is_empty());
        assert_eq!(set.first(), ids.first().copied());
        let bytes = if set.is_bitmap() {
            trimmed_words(&ids) * 8
        } else {
            4 * ids.len()
        };
        assert_eq!(set.heap_bytes(), bytes, "footprint");
        let near = ids
            .iter()
            .flat_map(|&id| [id.wrapping_sub(1), id, id.wrapping_add(1)]);
        for probe in near.chain(probes.iter().copied()) {
            assert_eq!(
                set.contains(probe),
                oracle.contains(&probe),
                "contains {probe}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn both_containers_match_a_btreeset_oracle(
            ratio in prop_oneof![Just(1usize), Just(8), Just(SCATTER_RATIO)],
            a in id_runs(),
            b in id_runs(),
            probes in prop::collection::vec(any::<RowId>(), 0..60),
        ) {
            set_scatter_ratio(ratio);
            let a = fold(a);
            let (sets_a, oracle_a) = built(&a);
            let (sets_b, oracle_b) = built(&fold(b));
            // Hiding the lower half leaves whole zero words ahead of the
            // first id, whichever container the rest lands in.
            let median = oracle_a.iter().nth(oracle_a.len() / 2).copied().unwrap_or(0);
            let lower: Vec<RowId> = oracle_a.range(..median).copied().collect();
            let (upper, oracle_upper) = built(&(a.0.clone(), lower, Vec::new()));
            set_scatter_ratio(SCATTER_RATIO);
            for set in &upper {
                check_against(set, &oracle_upper, &probes);
            }
            let ids_a: Vec<RowId> = oracle_a.iter().copied().collect();
            let ids_b: Vec<RowId> = oracle_b.iter().copied().collect();
            assert_compact(&sets_a[1], &ids_a);
            assert_compact(&sets_b[1], &ids_b);

            // Both containers of the same ids, beside the built sets.
            let all_a: Vec<RowIdSet> = sets_a.into_iter().chain(both(&ids_a)).collect();
            let all_b: Vec<RowIdSet> = sets_b.into_iter().chain(both(&ids_b)).collect();
            let common: BTreeSet<RowId> = oracle_a.intersection(&oracle_b).copied().collect();
            for x in &all_a {
                check_against(x, &oracle_a, &probes);
                prop_assert_eq!(x, &all_a[0]);
                for y in &all_b {
                    prop_assert_eq!(x == y, oracle_a == oracle_b);
                    check_against(&intersect_sets(x, y, IntersectStrategy::Adaptive), &common, &probes);
                }
            }
        }
    }
}
