//! A cracker array shareable across threads under piece latches.
//!
//! The piece-latch protocol lets several threads reorganise *disjoint*
//! position ranges of the same cracker array concurrently (Section 5.3).
//! Rust's `&mut` aliasing rules cannot express "mutable access to a dynamic,
//! latch-protected sub-range of one vector", so this module holds the
//! repository's carefully-scoped `unsafe`: [`SharedCrackerArray`] stores
//! the value and row-id arrays in `UnsafeCell`s and exposes range-scoped
//! operations whose safety contract is "the caller holds the piece latch
//! covering that range in the required mode". The rest of that `unsafe` is
//! the partition kernels' raw accesses and, on x86-64 CPUs with AVX-512,
//! the vector kernel's intrinsics.
//!
//! # Safety contract
//!
//! * The arrays are allocated once and never grow or shrink *while any
//!   other thread may access them*, so element addresses are stable and no
//!   operation can invalidate another range's pointers. The one exception
//!   is [`SharedCrackerArray::replace`], which swaps in a freshly built
//!   array of a different length: its caller must hold the index's quiesce
//!   gate in exclusive mode (no query, write, or crack in flight), which is
//!   exactly what the compaction system transaction guarantees.
//! * A thread may call a mutating range operation (`crack_in_two_range`,
//!   `sweep_tombstoned`) only while holding the **write** latch of the
//!   piece that covers the range.
//! * A thread may call a reading range operation (`sum_range`,
//!   `count_sum_filtered`, `values_in_range`, `rowids_in_range`,
//!   `extend_rowids`, `extend_rowids_within`) only while holding the
//!   **read or write** latch of the piece(s) covering the range.
//! * Piece latches are managed by [`crate::concurrent_index::ConcurrentCracker`];
//!   pieces never overlap, so latched ranges never overlap.
//!
//! The partition ([`SharedCrackerArray::crack_in_two_range`]) runs one of
//! two kernels, chosen at run time from the CPU: the vector kernel where
//! the CPU reports `avx512f`, `avx512vl` and `popcnt` and the range holds
//! two vectors, the block kernel otherwise (and always under Miri and off
//! x86-64). Neither walks a plain `start..end`, so each keeps its indices
//! in range by one argument, documented on the kernel:
//! * the block kernel (block offsets from both ends, a swap list, a
//!   predicated sweep) computes every raw index through one closure that
//!   `debug_assert!`s it inside `[start, end)`, and its stages' loop
//!   conditions keep it there in release builds;
//! * the vector kernel (whole-vector and compress-stores from two write
//!   cursors) keeps sixteen slots free between its read and write cursors,
//!   so no store lands on a row not yet read, and it stores a whole vector
//!   only where a side has eight of them; its masked loads and
//!   compress-stores touch only lanes inside `[start, end)`.
//!
//! Both are differential-tested on every proptest case against a safe-Rust
//! reference partition over plain vectors — same split, same multiset of
//! `(value, rowid)` pairs on each side, no slot outside the range touched
//! — and the vector kernel, where the CPU has its features, also against a
//! safe scalar twin of its algorithm, byte for byte.
//!
//! Every method in this module is safe to *call* (not `unsafe fn`; the
//! vector kernel, a `#[target_feature]` function, needs its CPU features
//! checked first) because violating the contract cannot corrupt memory
//! safety metadata — the ranges are bounds-checked — but it can produce
//! torn reads of values being swapped. The contract is therefore enforced
//! by the only caller, `ConcurrentCracker`, which is what the test suite
//! exercises heavily under many threads.

use crate::rowid_set::Bits;
use aidx_cracking::RowId;
use std::cell::UnsafeCell;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The low 32 bits of a value's two's complement.
const LOW_HALF: u64 = u32::MAX as u64;

/// Rows the split-sum kernels fold before combining: each row adds less
/// than 2^32 to a half's `u64` accumulator, so none can overflow.
const SPLIT_SUM_ROWS: usize = u32::MAX as usize;

/// The exact sum of values whose two's complements' low and high 32-bit
/// halves sum to `low_half` and `high_half`, `negative` of them below
/// zero: a value is `high·2^32 + low − sign·2^64`.
fn split_sum(low_half: u64, high_half: u64, negative: u64) -> i128 {
    low_half as i128 + ((high_half as i128) << 32) - ((negative as i128) << 64)
}

/// Row ids per batch of [`SharedCrackerArray::extend_rowids_within`].
const KEEP_BATCH: usize = 64;

/// Appends to `out` the ids of one batch (at most [`KEEP_BATCH`]) for
/// which `hit(index, id)` holds, without a branch: every id is written to
/// the next free slot of a stack buffer, which advances only past a hit,
/// and the hits are copied out in one slice.
#[inline(always)]
fn keep_hits(ids: &[RowId], out: &mut Vec<RowId>, hit: impl Fn(usize, RowId) -> bool) {
    let mut kept = [0 as RowId; KEEP_BATCH];
    let mut n = 0;
    for (i, &id) in ids.iter().enumerate() {
        // `n <= i < KEEP_BATCH`: the mask only spares the bounds check.
        kept[n & (KEEP_BATCH - 1)] = id;
        n += usize::from(hit(i, id));
    }
    out.extend_from_slice(&kept[..n]);
}

/// Rows per vector of [`SharedCrackerArray::partition_vector`]: eight
/// 64-bit values fill one 512-bit register, their row ids half of one.
#[cfg(any(test, all(target_arch = "x86_64", not(miri))))]
const LANES: usize = 8;

/// True if this CPU runs [`SharedCrackerArray::partition_vector`].
#[cfg(all(target_arch = "x86_64", not(miri)))]
fn vector_kernel_available() -> bool {
    is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512vl")
        && is_x86_feature_detected!("popcnt")
}

/// For each 8-bit lane mask, the lane order that puts the set lanes first
/// and the clear ones after them, each in lane order: byte `j` of entry
/// `mask` is the lane that moves to lane `j`.
#[cfg(all(target_arch = "x86_64", not(miri)))]
static SET_LANES_FIRST: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut mask = 0;
    while mask < 256 {
        // The next slot for a set lane, and for a clear one: after all the
        // set lanes.
        let (mut set, mut clear) = (0, (mask as u8).count_ones());
        let mut lane = 0;
        while lane < 8 {
            let slot = if mask >> lane & 1 == 1 {
                &mut set
            } else {
                &mut clear
            };
            table[mask] |= (lane as u64) << (8 * *slot);
            *slot += 1;
            lane += 1;
        }
        mask += 1;
    }
    table
};

/// Eight rows in registers: their values and their row ids.
#[cfg(all(target_arch = "x86_64", not(miri)))]
type Rows = (std::arch::x86_64::__m512i, std::arch::x86_64::__m256i);

/// The write side of [`SharedCrackerArray::partition_vector`]: the
/// arrays' base pointers, the pivot in every lane, and the left and right
/// write cursors.
#[cfg(all(target_arch = "x86_64", not(miri)))]
struct VectorPlacer {
    values: *mut i64,
    rowids: *mut i32,
    pivots: std::arch::x86_64::__m512i,
    lw: usize,
    rw: usize,
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
impl VectorPlacer {
    /// The eight rows at `at`.
    ///
    /// # Safety
    /// The CPU has `avx512f` and `avx512vl`; `[at, at + 8)` lies inside
    /// the arrays, under the caller's write latch.
    // SAFETY: the contract above is discharged at `partition_vector`, the
    // only caller.
    #[target_feature(enable = "avx512f,avx512vl")]
    #[inline]
    unsafe fn load(&self, at: usize) -> Rows {
        use std::arch::x86_64::{_mm256_loadu_epi32, _mm512_loadu_epi64};
        // SAFETY: `[at, at + 8)` is inside the arrays, per the contract.
        unsafe {
            (
                _mm512_loadu_epi64(self.values.add(at)),
                _mm256_loadu_epi32(self.rowids.add(at)),
            )
        }
    }

    /// Stores the lanes of `rows` that `live` selects — those below the
    /// pivot from `lw` up, the others ending at `rw`, each side in lane
    /// order — and moves both cursors past them.
    ///
    /// # Safety
    /// The CPU has `avx512f`, `avx512vl` and `popcnt`; the caller holds
    /// the write latch over `[lw, rw)`; and, with `k` of the live lanes
    /// below the pivot, the slots `[lw, lw + k)` and `[rw − (live − k),
    /// rw)` hold no row that is not yet read.
    // SAFETY: the contract above is discharged by the free-slot argument
    // at `partition_vector`, the only caller.
    #[target_feature(enable = "avx512f,avx512vl,popcnt")]
    #[inline]
    unsafe fn place(&mut self, (values, rowids): Rows, live: u8) {
        use std::arch::x86_64::{
            _mm256_mask_compressstoreu_epi32, _mm512_mask_cmplt_epi64_mask,
            _mm512_mask_compressstoreu_epi64,
        };
        let low = _mm512_mask_cmplt_epi64_mask(live, values, self.pivots);
        let high = live & !low;
        // SAFETY: each compress-store writes exactly its mask's popcount
        // of contiguous slots, `[lw, lw + k)` and `[rw − (live − k), rw)`,
        // which the caller guarantees free.
        unsafe {
            _mm512_mask_compressstoreu_epi64(self.values.add(self.lw), low, values);
            _mm256_mask_compressstoreu_epi32(self.rowids.add(self.lw), low, rowids);
            self.lw += low.count_ones() as usize;
            self.rw -= high.count_ones() as usize;
            _mm512_mask_compressstoreu_epi64(self.values.add(self.rw), high, values);
            _mm256_mask_compressstoreu_epi32(self.rowids.add(self.rw), high, rowids);
        }
    }

    /// [`Self::place`] for a full vector where both sides have at least
    /// eight free slots: one permutation puts the rows below the pivot
    /// first and the others after them, each in lane order, and the whole
    /// vector is stored at `lw` and again ending at `rw`. The lanes past
    /// the side's own rows land in free slots, which later placements
    /// overwrite, so the array ends as [`Self::place`] leaves it.
    ///
    /// # Safety
    /// The CPU has `avx512f`, `avx512vl` and `popcnt`; the caller holds
    /// the write latch over `[lw, rw)`; and `[lw, lw + 8)` and `[rw − 8,
    /// rw)` hold no row that is not yet read.
    // SAFETY: the contract above is discharged by the free-slot argument
    // at `partition_vector`, the only caller.
    #[target_feature(enable = "avx512f,avx512vl,popcnt")]
    #[inline]
    unsafe fn place_full(&mut self, (values, rowids): Rows) {
        use std::arch::x86_64::{
            _mm256_cvtepu8_epi32, _mm256_permutexvar_epi32, _mm256_storeu_epi32,
            _mm512_cmplt_epi64_mask, _mm512_cvtepu8_epi64, _mm512_permutexvar_epi64,
            _mm512_storeu_epi64, _mm_cvtsi64_si128,
        };
        let low = _mm512_cmplt_epi64_mask(values, self.pivots);
        let order = _mm_cvtsi64_si128(SET_LANES_FIRST[usize::from(low)] as i64);
        let values = _mm512_permutexvar_epi64(_mm512_cvtepu8_epi64(order), values);
        let rowids = _mm256_permutexvar_epi32(_mm256_cvtepu8_epi32(order), rowids);
        let below = low.count_ones() as usize;
        // SAFETY: each store writes the eight slots `[lw, lw + 8)` or
        // `[rw − 8, rw)`, which the caller guarantees free.
        unsafe {
            _mm512_storeu_epi64(self.values.add(self.lw), values);
            _mm256_storeu_epi32(self.rowids.add(self.lw), rowids);
            _mm512_storeu_epi64(self.values.add(self.rw - LANES), values);
            _mm256_storeu_epi32(self.rowids.add(self.rw - LANES), rowids);
        }
        self.lw += below;
        self.rw -= LANES - below;
    }
}

/// A fixed-size (value, row-id) pair of arrays with interior mutability,
/// safe to share across threads when access is mediated by piece latches.
/// Compaction may swap the arrays wholesale under full quiescence
/// ([`SharedCrackerArray::replace`]), so the length is an atomic rather
/// than a plain field.
#[derive(Debug)]
pub struct SharedCrackerArray {
    values: UnsafeCell<Box<[i64]>>,
    rowids: UnsafeCell<Box<[RowId]>>,
    len: AtomicUsize,
}

// SAFETY: all concurrent access goes through range-scoped methods whose
// callers serialise conflicting accesses with piece latches (see the module
// documentation). The arrays themselves never reallocate.
unsafe impl Sync for SharedCrackerArray {}
// SAFETY: same argument as Sync — ownership transfer adds no access paths
// beyond the latch-serialised range methods.
unsafe impl Send for SharedCrackerArray {}

impl SharedCrackerArray {
    /// Builds the shared array from raw values; row ids are positional.
    pub fn from_values(values: Vec<i64>) -> Self {
        let rowids: Vec<RowId> = (0..values.len() as RowId).collect();
        Self::from_rows(values, rowids)
    }

    /// Builds the shared array from explicit, aligned (values, rowids)
    /// vectors — the table-engine path, where row ids identify tuples
    /// across several columns' crackers.
    ///
    /// # Panics
    /// Panics if the vectors differ in length.
    pub fn from_rows(values: Vec<i64>, rowids: Vec<RowId>) -> Self {
        assert_eq!(
            values.len(),
            rowids.len(),
            "values/rowids must stay aligned"
        );
        let len = values.len();
        SharedCrackerArray {
            values: UnsafeCell::new(values.into_boxed_slice()),
            rowids: UnsafeCell::new(rowids.into_boxed_slice()),
            len: AtomicUsize::new(len),
        }
    }

    /// Number of entries (changes only across a quiesced
    /// [`SharedCrackerArray::replace`]).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True if the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Swaps in a freshly built (values, rowids) pair, replacing the whole
    /// array contents and length in one step.
    ///
    /// Caller contract: **exclusive access** — no other thread may be
    /// inside any method of this array, and none may enter until this call
    /// returns. [`crate::ConcurrentCracker`] guarantees this by holding
    /// the piece directory's quiesce gate in write mode for the duration of a
    /// compaction.
    ///
    /// # Panics
    /// Panics if `values` and `rowids` differ in length.
    pub fn replace(&self, values: Vec<i64>, rowids: Vec<RowId>) {
        assert_eq!(
            values.len(),
            rowids.len(),
            "values/rowids must stay aligned"
        );
        let len = values.len();
        // SAFETY: exclusive access per the caller contract; no outstanding
        // element pointer can exist because every method that creates one
        // returns before its caller could release the quiesce gate.
        unsafe {
            *self.values.get() = values.into_boxed_slice();
            *self.rowids.get() = rowids.into_boxed_slice();
        }
        self.len.store(len, Ordering::Release);
    }

    /// Moves every row in `[start, end)` whose *row id* is in `doomed` to
    /// the *tail* of the range and returns `(new live end, removed
    /// (value, rowid) pairs)`: positions `[new_end, end)` hold exactly
    /// the doomed rows, in unspecified order. Caller must hold the write
    /// latch of the piece covering the range.
    ///
    /// This is the physical half of delete-aware piece shrinking: the
    /// caller turns the tail into a hole (dead slots skipped by every
    /// scan) and retires exactly the returned tombstones. Targeting row
    /// ids rather than values means a sweep can never reclaim a
    /// same-valued row inserted after the delete — tuple identity
    /// survives the reorganisation.
    pub fn sweep_rowids(
        &self,
        start: usize,
        end: usize,
        doomed: &HashSet<RowId>,
    ) -> (usize, Vec<(i64, RowId)>) {
        assert!(
            start <= end && end <= self.len(),
            "sweep range out of bounds"
        );
        let values = self.values_ptr();
        let rowids = self.rowids_ptr();
        let mut removed = Vec::new();
        let mut lo = start;
        let mut hi = end;
        // SAFETY: indices stay within [start, end) ⊆ [0, len); exclusive
        // access to this range is guaranteed by the caller's write latch.
        unsafe {
            while lo < hi {
                let rid = *rowids.add(lo);
                if doomed.contains(&rid) {
                    removed.push((*values.add(lo), rid));
                    hi -= 1;
                    std::ptr::swap(values.add(lo), values.add(hi));
                    std::ptr::swap(rowids.add(lo), rowids.add(hi));
                    // Do not advance `lo`: the row swapped in from the tail
                    // has not been examined yet.
                } else {
                    lo += 1;
                }
            }
        }
        (hi, removed)
    }

    /// Writes `values`/`rowids` (equal lengths) into the slots
    /// `[pos, pos + values.len())`, overwriting whatever was there. Caller
    /// must hold the write latch of the piece covering the range.
    ///
    /// This is the physical half of incremental hole-filling: the target
    /// slots are a piece's dead tail (reclaimed tombstone holes), and the
    /// written rows are pending inserts whose keys belong to that piece,
    /// so every piece bound invariant survives the write.
    pub fn write_rows(&self, pos: usize, values: &[i64], rowids: &[RowId]) {
        assert_eq!(values.len(), rowids.len(), "values/rowids must align");
        assert!(
            pos + values.len() <= self.len(),
            "write range out of bounds"
        );
        let dst_values = self.values_ptr();
        let dst_rowids = self.rowids_ptr();
        // SAFETY: bounds checked above; exclusive access to the range is
        // guaranteed by the caller's write latch.
        unsafe {
            for (i, (&v, &r)) in values.iter().zip(rowids).enumerate() {
                *dst_values.add(pos + i) = v;
                *dst_rowids.add(pos + i) = r;
            }
        }
    }

    fn values_ptr(&self) -> *mut i64 {
        // SAFETY: the box is only replaced under full quiescence
        // (`replace`), so while any range-scoped method runs the pointer
        // stays valid; we only hand out element pointers within those
        // methods.
        unsafe { (*self.values.get()).as_mut_ptr() }
    }

    fn rowids_ptr(&self) -> *mut RowId {
        // SAFETY: mirrors `values_ptr` — the rowids box is replaced only
        // under full quiescence, and element pointers are confined to
        // latch-serialised range methods.
        unsafe { (*self.rowids.get()).as_mut_ptr() }
    }

    /// The value at `pos`. Caller must hold a read or write latch covering
    /// the position.
    pub fn value_at(&self, pos: usize) -> i64 {
        assert!(pos < self.len(), "read position out of bounds");
        // SAFETY: bounds checked above; shared access guaranteed by latches.
        unsafe { *self.values_ptr().add(pos) }
    }

    /// Partitions `[start, end)` around `pivot` (values `< pivot` first) and
    /// returns the split position. Caller must hold the write latch of the
    /// piece covering the range.
    ///
    /// A branchy skip of the prefix already `< pivot` and the suffix
    /// already `>= pivot` comes first: on a nearly partitioned or tiny
    /// piece the branches predict and that is all the work there is. The
    /// unsettled middle then goes to one of two kernels, chosen from the
    /// CPU at run time: the vector kernel (`partition_vector`) when the
    /// CPU has AVX-512 (`avx512f`, `avx512vl`) and `popcnt` and the middle
    /// holds at least two vectors, the block kernel (`partition_blocks`)
    /// otherwise. Both place the same rows on each side of the same split;
    /// the order within a side differs.
    pub fn crack_in_two_range(&self, start: usize, end: usize, pivot: i64) -> usize {
        assert!(
            start <= end && end <= self.len(),
            "crack range out of bounds"
        );
        let (lo, hi) = self.settled_ends(start, end, pivot);
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if hi - lo >= 2 * LANES && vector_kernel_available() {
            // SAFETY: the CPU features `partition_vector` is compiled for
            // were detected just now.
            return unsafe { self.partition_vector(lo, hi, pivot) };
        }
        self.partition_blocks(lo, hi, pivot)
    }

    /// The skip stage of [`Self::crack_in_two_range`]: returns `(lo, hi)`
    /// such that `[start, lo)` is below the pivot, `[hi, end)` is not, and
    /// `lo == hi` or the rows at `lo` and `hi − 1` are both misplaced.
    fn settled_ends(&self, start: usize, end: usize, pivot: i64) -> (usize, usize) {
        let values = self.values_in(start, end);
        let below = values.iter().take_while(|&&v| v < pivot).count();
        let rest = values[below..].iter().rev();
        let at_or_above = rest.take_while(|&&v| v >= pivot).count();
        (start + below, end - at_or_above)
    }

    /// The block kernel: partitions `[start, end)` around `pivot` and
    /// returns the split. A block of 128 rows from either end is scanned
    /// *branch-free* — every offset is stored and the store cursor
    /// advances by the comparison's outcome (`n += (v >= pivot) as
    /// usize`), so an unpredictable pivot costs no mispredictions — and
    /// the misplaced rows the two scans recorded are swapped pairwise; a
    /// block is left behind once all its misplaced rows are swapped out.
    /// What remains when fewer than two blocks separate the ends — at most
    /// the two blocks, whatever of them is still unswapped included — is
    /// partitioned by a predicated sweep (swap unconditionally, `split +=
    /// (v < pivot) as usize`). Caller must hold the write latch of the
    /// piece covering the range.
    fn partition_blocks(&self, start: usize, end: usize, pivot: i64) -> usize {
        assert!(
            start <= end && end <= self.len(),
            "crack range out of bounds"
        );
        // Rows per block scan: offsets fit a byte, and each offset buffer
        // fits two cache lines.
        const BLOCK: usize = 128;
        let values = self.values_ptr();
        let rowids = self.rowids_ptr();
        // Every raw access below computes its index through `at`. The
        // stages keep it in range by construction: a block scan runs only
        // while `hi - lo >= 2 * BLOCK` so the offsets `0..BLOCK` from
        // either end stay inside `[lo, hi)`, and the sweep runs `split <=
        // i` over `lo..hi`.
        let at = |i: usize| {
            debug_assert!(start <= i && i < end, "kernel access outside the range");
            i
        };
        // SAFETY: indices stay within [start, end) ⊆ [0, len) — asserted
        // above, kept by the stages as described, debug-asserted by `at` on
        // every access; exclusive access to the range is guaranteed by the
        // caller's write latch.
        unsafe {
            let below = |i: usize| *values.add(at(i)) < pivot;
            let swap = |a: usize, b: usize| {
                std::ptr::swap(values.add(at(a)), values.add(at(b)));
                std::ptr::swap(rowids.add(at(a)), rowids.add(at(b)));
            };
            let (mut lo, mut hi) = (start, end);
            // Offsets (from `lo` upwards / from `hi - 1` downwards) of the
            // misplaced rows of the current left / right block, and the
            // part `[next, found)` of them not swapped yet.
            let (mut left, mut right) = ([0u8; BLOCK], [0u8; BLOCK]);
            let (mut left_next, mut left_found) = (0, 0);
            let (mut right_next, mut right_found) = (0, 0);
            while hi - lo >= 2 * BLOCK {
                if left_next == left_found {
                    (left_next, left_found) = (0, 0);
                    for offset in 0..BLOCK {
                        left[left_found] = offset as u8;
                        left_found += !below(lo + offset) as usize;
                    }
                }
                if right_next == right_found {
                    (right_next, right_found) = (0, 0);
                    for offset in 0..BLOCK {
                        right[right_found] = offset as u8;
                        right_found += below(hi - 1 - offset) as usize;
                    }
                }
                let pairs = (left_found - left_next).min(right_found - right_next);
                for pair in 0..pairs {
                    swap(
                        lo + left[left_next + pair] as usize,
                        hi - 1 - right[right_next + pair] as usize,
                    );
                }
                left_next += pairs;
                right_next += pairs;
                // A block with nothing left to swap out is settled.
                if left_next == left_found {
                    lo += BLOCK;
                }
                if right_next == right_found {
                    hi -= BLOCK;
                }
            }
            // `[start, lo)` is below the pivot and `[hi, end)` is not; a
            // block still holding unswapped rows lies inside `[lo, hi)`,
            // which the sweep partitions whatever its order.
            let mut split = lo;
            for i in lo..hi {
                debug_assert!(split <= i);
                let goes_low = below(i);
                swap(i, split);
                split += goes_low as usize;
            }
            split
        }
    }

    /// The vector kernel: partitions `[start, end)` (at least two vectors
    /// of [`LANES`] rows) around `pivot` in place and returns the split.
    /// Caller must hold the write latch of the piece covering the range.
    ///
    /// A two-ended compress partition. The range's first and last vector
    /// are loaded into registers up front, which frees their 16 slots.
    /// Reads then take the next vector from the end with fewer free slots
    /// — the left's are `[lw, lr)`, the right's `[rr, rw)` — compare it to
    /// the pivot (a signed 64-bit compare into a lane mask), and write its
    /// rows below the pivot at the left write cursor and the others ending
    /// at the right write cursor, each side in lane order. In this loop
    /// both ends have eight free slots or more, so one permutation (from
    /// the mask, [`SET_LANES_FIRST`]) orders the vector lows first and it
    /// is stored whole at both cursors; the lanes past each side's own
    /// rows land in free slots that later writes cover. That measured
    /// faster than compress-stores here. Fewer than a vector of rows left
    /// over are read with one masked load; they and the two saved vectors
    /// are compress-stored (values with `vpcompressq`, row ids with the
    /// 256-bit `vpcompressd`), which write only their rows. The write
    /// cursors then meet at the split.
    // SAFETY: the free-slot argument. `(lr − lw) + (rw − rr) = 16` holds
    // before each read, because every read frees 8 slots and its
    // placement fills 8. Reading from the end with fewer free slots leaves
    // that end at least 8 free slots after the read and the other at least
    // 8 already, so the whole-vector stores `[lw, lw + 8)` and `[rw − 8,
    // rw)` stay below `lr` and at or above `rr`: no store overwrites a row
    // not yet read. Once every row is read, `[lw, rw)` is free and exactly
    // as wide as the rows still in registers, and a compress-store writes
    // only its mask's popcount of slots. Every slot addressed lies in
    // `[start, end)`, and masked loads touch only their mask's lanes, so no
    // slot outside the range is read or written; and every slot ends up
    // holding a row, since `[start, lw)` and `[rw, end)` hold placed rows
    // only and the cursors meet.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[target_feature(enable = "avx512f,avx512vl,popcnt")]
    fn partition_vector(&self, start: usize, end: usize, pivot: i64) -> usize {
        use std::arch::x86_64::{
            _mm256_maskz_loadu_epi32, _mm512_maskz_loadu_epi64, _mm512_set1_epi64,
        };
        assert!(
            start <= end && end <= self.len() && end - start >= 2 * LANES,
            "vector crack range out of bounds or shorter than two vectors"
        );
        let mut out = VectorPlacer {
            values: self.values_ptr(),
            rowids: self.rowids_ptr().cast::<i32>(),
            pivots: _mm512_set1_epi64(pivot),
            lw: start,
            rw: end,
        };
        let (mut lr, mut rr) = (start + LANES, end - LANES);
        // SAFETY: `[start, start + 8)` and `[end − 8, end)` lie in
        // `[start, end) ⊆ [0, len)` (asserted above); the caller's write
        // latch gives exclusive access to the range.
        let saved = unsafe { [out.load(start), out.load(rr)] };
        while rr - lr >= LANES {
            // The side is a branch, not a select: the CPU predicts it and
            // issues the load at once, where a select would hold every load
            // until the previous vector's compare and popcount are done.
            // SAFETY: the vector read is `[lr, lr + 8)` or `[rr − 8, rr)`,
            // unread and inside `[start, end)`; the free-slot invariant
            // (see above) keeps `place_full`'s stores off unread rows.
            unsafe {
                let rows = if lr - out.lw <= out.rw - rr {
                    lr += LANES;
                    out.load(lr - LANES)
                } else {
                    rr -= LANES;
                    out.load(rr)
                };
                out.place_full(rows);
            }
        }
        // Fewer than eight unread rows, `[lr, rr)`: one masked load.
        let tail = (1u8 << (rr - lr)) - 1;
        // SAFETY: the mask's lanes address `[lr, rr) ⊆ [start, end)`; after
        // this read every row is in a register and `[lw, rw)` is free and
        // exactly as wide as the rows placed from here on.
        unsafe {
            let rows = (
                _mm512_maskz_loadu_epi64(tail, out.values.add(lr)),
                _mm256_maskz_loadu_epi32(tail, out.rowids.add(lr)),
            );
            out.place(rows, tail);
            for rows in saved {
                out.place(rows, u8::MAX);
            }
        }
        debug_assert_eq!(out.lw, out.rw, "the write cursors meet at the split");
        out.lw
    }

    /// Hole-aware partition of `[start, end)` around `pivot`: uses the dead
    /// slot at `hole` (a reclaimed-tombstone position past the live range —
    /// its contents are garbage and never read by any query) as scratch
    /// space. Instead of three-move swaps, elements chase a moving gap, so
    /// every misplaced element is written exactly once: evict the first
    /// misplaced high into the hole, alternately pull the rightmost
    /// unplaced low / leftmost unplaced high into the gap, and close the
    /// cycle by dropping the evicted high back into the final gap — which
    /// both scans leave exactly at the partition boundary, the first slot
    /// of the high zone. Returns `(split, moves)`; with `m` misplaced
    /// pairs the dense-misplacement cost is `2m + 1` moves against the
    /// classic `3m`. The hole holds garbage again on return (untouched
    /// when `moves == 0`). Caller must hold the write latch of the piece
    /// covering both the range and the hole.
    ///
    /// No engine path calls this: every pass runs
    /// [`Self::crack_in_two_range`], which is faster with or without a
    /// hole. It stays only because the benchmark's
    /// `core.kernel.hole_crack_mrows_per_s` probe times it.
    pub fn crack_in_two_with_hole(
        &self,
        start: usize,
        end: usize,
        pivot: i64,
        hole: usize,
    ) -> (usize, usize) {
        assert!(
            start <= end && end <= hole && hole < self.len(),
            "crack range out of bounds"
        );
        let values = self.values_ptr();
        let rowids = self.rowids_ptr();
        // SAFETY: indices stay within [start, end) ∪ {hole} ⊆ [0, len);
        // exclusive access to the range and the hole is guaranteed by the
        // caller's write latch.
        unsafe {
            let mv = |dst: usize, src: usize| {
                *values.add(dst) = *values.add(src);
                *rowids.add(dst) = *rowids.add(src);
            };
            let mut lo = start;
            let mut hi = end;
            while lo < hi && *values.add(lo) < pivot {
                lo += 1;
            }
            while lo < hi && *values.add(hi - 1) >= pivot {
                hi -= 1;
            }
            if lo >= hi {
                // Already partitioned; the hole is never written.
                return (lo, 0);
            }
            mv(hole, lo);
            let mut gap = lo;
            let mut moves = 1usize;
            lo += 1;
            loop {
                // Gap sits in the low zone: fill it with the rightmost
                // unplaced low. Highs skipped here are already final.
                while gap < hi && *values.add(hi - 1) >= pivot {
                    hi -= 1;
                }
                if gap == hi {
                    break;
                }
                hi -= 1;
                mv(gap, hi);
                moves += 1;
                gap = hi;
                // Gap sits in the high zone: fill it with the leftmost
                // unplaced high. Lows skipped here are already final.
                while lo < gap && *values.add(lo) < pivot {
                    lo += 1;
                }
                if lo == gap {
                    break;
                }
                mv(gap, lo);
                moves += 1;
                gap = lo;
                lo += 1;
            }
            mv(gap, hole);
            moves += 1;
            (gap, moves)
        }
    }

    /// Sum of the values in `[start, end)`. Caller must hold read or write
    /// latches covering the range. Exact without a per-row `i128` add: the
    /// pass sums the values' low and high 32-bit halves and counts the
    /// negative ones in `u64`s, which `split_sum` combines once.
    pub fn sum_range(&self, start: usize, end: usize) -> i128 {
        let values = self.values_in(start, end);
        let chunk_sum = |chunk: &[i64]| {
            let (mut low_half, mut high_half, mut negative) = (0u64, 0u64, 0u64);
            for &v in chunk {
                let bits = v as u64;
                low_half += bits & LOW_HALF;
                high_half += bits >> 32;
                negative += bits >> 63;
            }
            split_sum(low_half, high_half, negative)
        };
        values.chunks(SPLIT_SUM_ROWS).map(chunk_sum).sum()
    }

    /// Count and sum of the values in `[start, end)` that satisfy `low <= v
    /// < high`, in one branch-free pass: an unsigned compare against the
    /// range's width decides each row, and a mask zeroes the rows outside
    /// it in the split sum of [`Self::sum_range`]. Used for the edge pieces
    /// a read filters under their read latches; an empty key range
    /// (`high <= low`) selects nothing.
    pub(crate) fn count_sum_filtered(
        &self,
        start: usize,
        end: usize,
        low: i64,
        high: i64,
    ) -> (u64, i128) {
        let values = self.values_in(start, end);
        if high <= low {
            return (0, 0);
        }
        // `low <= v < high` iff `v − low`, wrapped, is below the width.
        let width = high.wrapping_sub(low) as u64;
        let chunk_count_sum = |chunk: &[i64]| {
            let (mut rows, mut low_half, mut high_half, mut negative) = (0u64, 0u64, 0u64, 0u64);
            for &v in chunk {
                let hit = (v.wrapping_sub(low) as u64) < width;
                let bits = v as u64 & (hit as u64).wrapping_neg();
                rows += hit as u64;
                low_half += bits & LOW_HALF;
                high_half += bits >> 32;
                negative += bits >> 63;
            }
            (rows, split_sum(low_half, high_half, negative))
        };
        values
            .chunks(SPLIT_SUM_ROWS)
            .map(chunk_count_sum)
            .fold((0, 0), |(rows, sum), (n, s)| (rows + n, sum + s))
    }

    /// The values in `[start, end)`, for the read kernels. Caller must hold
    /// read or write latches covering the range for as long as it uses the
    /// slice.
    fn values_in(&self, start: usize, end: usize) -> &[i64] {
        assert!(
            start <= end && end <= self.len(),
            "read range out of bounds"
        );
        // SAFETY: bounds checked above; the caller's latches keep every
        // writer out of the range while the slice is in use.
        unsafe { std::slice::from_raw_parts(self.values_ptr().add(start), end - start) }
    }

    /// Copies the values in `[start, end)` out of the array. Caller must
    /// hold read or write latches covering the range.
    pub fn values_in_range(&self, start: usize, end: usize) -> Vec<i64> {
        assert!(
            start <= end && end <= self.len(),
            "read range out of bounds"
        );
        let values = self.values_ptr();
        let mut out = Vec::with_capacity(end - start);
        // SAFETY: bounds checked above; shared access guaranteed by latches.
        unsafe {
            for i in start..end {
                out.push(*values.add(i));
            }
        }
        out
    }

    /// Copies the `(value, rowid)` pairs in `[start, end)` out of the
    /// array. Caller must hold read or write latches covering the range.
    pub fn pairs_in_range(&self, start: usize, end: usize) -> Vec<(i64, RowId)> {
        assert!(
            start <= end && end <= self.len(),
            "read range out of bounds"
        );
        let values = self.values_ptr();
        let rowids = self.rowids_ptr();
        let mut out = Vec::with_capacity(end - start);
        // SAFETY: bounds checked above; shared access guaranteed by latches.
        unsafe {
            for i in start..end {
                out.push((*values.add(i), *rowids.add(i)));
            }
        }
        out
    }

    /// Copies the `(value, rowid)` pairs in `[start, end)` whose value
    /// satisfies `low <= v < high`. Used when a query skipped refinement
    /// and must filter a boundary piece under a read latch.
    pub fn pairs_filtered(
        &self,
        start: usize,
        end: usize,
        low: i64,
        high: i64,
    ) -> Vec<(i64, RowId)> {
        assert!(
            start <= end && end <= self.len(),
            "read range out of bounds"
        );
        let values = self.values_ptr();
        let rowids = self.rowids_ptr();
        let mut out = Vec::new();
        // SAFETY: bounds checked above; shared access guaranteed by latches.
        unsafe {
            for i in start..end {
                let v = *values.add(i);
                if v >= low && v < high {
                    out.push((v, *rowids.add(i)));
                }
            }
        }
        out
    }

    /// The row ids in `[start, end)`, for the read kernels. Caller must
    /// hold read or write latches covering the range for as long as it
    /// uses the slice.
    fn rowids_in(&self, start: usize, end: usize) -> &[RowId] {
        assert!(
            start <= end && end <= self.len(),
            "read range out of bounds"
        );
        // SAFETY: bounds checked above; the caller's latches keep every
        // writer out of the range while the slice is in use.
        unsafe { std::slice::from_raw_parts(self.rowids_ptr().add(start), end - start) }
    }

    /// Copies the row ids in `[start, end)` out of the array.
    pub fn rowids_in_range(&self, start: usize, end: usize) -> Vec<RowId> {
        self.rowids_in(start, end).to_vec()
    }

    /// Appends the row ids in `[start, end)` to `out`: one slice copy.
    pub fn extend_rowids(&self, start: usize, end: usize, out: &mut Vec<RowId>) {
        out.extend_from_slice(self.rowids_in(start, end));
    }

    /// Appends to `out` the row ids in `[start, end)` whose value satisfies
    /// `low <= v < high` — the row-id half of [`Self::pairs_filtered`],
    /// without the pair vector.
    pub fn extend_rowids_filtered(
        &self,
        start: usize,
        end: usize,
        low: i64,
        high: i64,
        out: &mut Vec<RowId>,
    ) {
        let values = self.values_in(start, end);
        let hits = values.iter().zip(self.rowids_in(start, end));
        out.extend(
            hits.filter(|(&v, _)| v >= low && v < high)
                .map(|(_, &id)| id),
        );
    }

    /// Appends to `out` the row ids in `[start, end)` that `filter` holds
    /// and, given `bounds` (an edge piece), whose value lies in them —
    /// the walk of a [`crate::ReadShape::Within`] read. Without bounds
    /// only row ids are read. Each row is a bit test and, on an edge, an
    /// unsigned compare, with no branch ([`keep_hits`]). An empty key
    /// range (`high <= low`) keeps nothing.
    pub(crate) fn extend_rowids_within(
        &self,
        start: usize,
        end: usize,
        bounds: Option<(i64, i64)>,
        filter: Bits<'_>,
        out: &mut Vec<RowId>,
    ) {
        let rowids = self.rowids_in(start, end);
        match bounds {
            None => {
                for ids in rowids.chunks(KEEP_BATCH) {
                    keep_hits(ids, out, |_, id| filter.holds(id));
                }
            }
            Some((low, high)) if low < high => {
                // `low <= v < high` iff `v − low`, wrapped, is below the width.
                let width = high.wrapping_sub(low) as u64;
                let values = self.values_in(start, end);
                for (ids, values) in rowids.chunks(KEEP_BATCH).zip(values.chunks(KEEP_BATCH)) {
                    keep_hits(ids, out, |i, id| {
                        ((values[i].wrapping_sub(low) as u64) < width) & filter.holds(id)
                    });
                }
            }
            Some(_) => {}
        }
    }

    /// Snapshot of the whole array as (values, rowids). Only meaningful when
    /// the caller can guarantee quiescence (tests, invariant checks).
    pub fn snapshot(&self) -> (Vec<i64>, Vec<RowId>) {
        (
            self.values_in_range(0, self.len()),
            self.rowids_in_range(0, self.len()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;
    use std::thread;

    /// The kernel's safe-Rust reference: the classic two-pointer partition
    /// of `[start, end)` over plain vectors. Returns `(split, swaps)`;
    /// each swap costs three element moves (the temporary).
    fn reference_partition(
        values: &mut [i64],
        rowids: &mut [RowId],
        start: usize,
        end: usize,
        pivot: i64,
    ) -> (usize, usize) {
        let (mut lo, mut hi, mut swaps) = (start, end, 0);
        while lo < hi {
            if values[lo] < pivot {
                lo += 1;
            } else {
                hi -= 1;
                values.swap(lo, hi);
                rowids.swap(lo, hi);
                swaps += 1;
            }
        }
        (lo, swaps)
    }

    /// The vector kernel's safe twin over plain vectors: the same reads in
    /// the same order — the first and last [`LANES`] rows saved, then a
    /// vector from the end with fewer free slots (the left on a tie), the
    /// fewer-than-`LANES` leftover, the two saved vectors — and the same
    /// placement: a vector's rows below the pivot written in lane order
    /// from the left write cursor, the others in lane order ending at the
    /// right one. Needs at least `2 * LANES` rows; returns the split.
    fn vector_twin(
        values: &mut [i64],
        rowids: &mut [RowId],
        start: usize,
        end: usize,
        pivot: i64,
    ) -> usize {
        assert!(end - start >= 2 * LANES);
        let read = |values: &[i64], rowids: &[RowId], at: usize, rows: usize| {
            (at..at + rows)
                .map(|i| (values[i], rowids[i]))
                .collect::<Vec<_>>()
        };
        let place = |values: &mut [i64],
                     rowids: &mut [RowId],
                     (lw, rw): (&mut usize, &mut usize),
                     rows: Vec<(i64, RowId)>| {
            let (low, high): (Vec<_>, Vec<_>) = rows.into_iter().partition(|&(v, _)| v < pivot);
            let below = low.len();
            *rw -= high.len();
            for (at, (v, id)) in (*lw..).zip(low).chain((*rw..).zip(high)) {
                (values[at], rowids[at]) = (v, id);
            }
            *lw += below;
        };
        let (mut lw, mut rw) = (start, end);
        let (mut lr, mut rr) = (start + LANES, end - LANES);
        let saved = [
            read(values, rowids, start, LANES),
            read(values, rowids, rr, LANES),
        ];
        while rr - lr >= LANES {
            let at = if lr - lw <= rw - rr {
                lr += LANES;
                lr - LANES
            } else {
                rr -= LANES;
                rr
            };
            let rows = read(values, rowids, at, LANES);
            place(values, rowids, (&mut lw, &mut rw), rows);
        }
        let rows = read(values, rowids, lr, rr - lr);
        place(values, rowids, (&mut lw, &mut rw), rows);
        for rows in saved {
            place(values, rowids, (&mut lw, &mut rw), rows);
        }
        assert_eq!(lw, rw, "the write cursors meet at the split");
        lw
    }

    fn sorted_pairs(values: &[i64], rowids: &[RowId]) -> Vec<(i64, RowId)> {
        let mut pairs: Vec<_> = values.iter().copied().zip(rowids.iter().copied()).collect();
        pairs.sort_unstable();
        pairs
    }

    /// Asserts that `got`, cracked from `values` with positional row ids,
    /// partitions `[start, end)` around `pivot` at `split` as the
    /// reference partition does: the same split, the same multiset of
    /// `(value, rowid)` pairs on each side, every slot outside the range
    /// untouched.
    fn assert_reference_partition(
        kernel: &str,
        (got_values, got_rowids): (&[i64], &[RowId]),
        values: &[i64],
        (start, end, pivot): (usize, usize, i64),
        split: usize,
    ) {
        let n = values.len();
        let mut want_values = values.to_vec();
        let mut want_rowids: Vec<RowId> = (0..n as RowId).collect();
        let (want_split, _) =
            reference_partition(&mut want_values, &mut want_rowids, start, end, pivot);
        let case = format!("{kernel}: [{start}, {end}) of {n} around {pivot}");
        assert_eq!(split, want_split, "{case}");
        assert!(
            got_values[start..split].iter().all(|&v| v < pivot),
            "{case}"
        );
        assert!(got_values[split..end].iter().all(|&v| v >= pivot), "{case}");
        for (from, to) in [(start, split), (split, end)] {
            assert_eq!(
                sorted_pairs(&got_values[from..to], &got_rowids[from..to]),
                sorted_pairs(&want_values[from..to], &want_rowids[from..to]),
                "{case}"
            );
        }
        for outside in (0..start).chain(end..n) {
            assert_eq!(got_values[outside], values[outside], "{case}");
            assert_eq!(got_rowids[outside], outside as RowId, "{case}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every partition kernel against the safe reference, on a
        /// sub-range of a larger array: `crack_in_two_range` (the skip
        /// stage, then whichever kernel this CPU runs), the block kernel
        /// and the vector kernel's safe twin by name, and — where the CPU
        /// has its features — the vector kernel by name, whose split,
        /// values and row ids must be byte-identical to its twin's. Values
        /// and pivots reach `i64::MIN` and `i64::MAX`. The shapes put
        /// every stage of the block kernel on its own (all skipped, blocks
        /// only, sweep only) and together; the ranges take every length in
        /// `0..=17` (across the vector kernel's two-vector minimum and its
        /// masked leftover) and end at the array's last slot, where a
        /// masked lane past the range would leave the allocation.
        #[test]
        fn kernel_agrees_with_the_reference_partition(
            raw in prop::collection::vec((0u8..16, -50i64..50), 0..900),
            shape in 0u8..7,
            span in 0u8..5,
            cut in (0usize..1000, 0usize..1000),
            pivot in (0u8..8, -60i64..60),
        ) {
            let extreme = |(pick, v): (u8, i64)| match pick {
                0 => i64::MIN,
                1 => i64::MAX,
                _ => v,
            };
            let pivot = extreme(pivot);
            let mut values: Vec<i64> = raw.into_iter().map(extreme).collect();
            let (below, at_or_above) = (pivot.saturating_sub(1), pivot);
            match shape {
                0 => values.sort_unstable(),
                1 => values.sort_unstable_by(|a, b| b.cmp(a)),
                2 => values.fill(7),
                3 => values
                    .iter_mut()
                    .for_each(|v| *v = below.saturating_sub(v.saturating_abs())),
                4 => values
                    .iter_mut()
                    .for_each(|v| *v = at_or_above.saturating_add(v.saturating_abs())),
                // Dense misplacement: the high half first.
                5 => values.sort_unstable_by_key(|&v| v < pivot),
                _ => {}
            }
            let n = values.len();
            let (a, b) = (cut.0 % (n + 1), cut.1 % (n + 1));
            let short = cut.1 % 18;
            let (start, end) = match span {
                0 => (a.min(b), a.max(b)),
                1 => (0, n),
                2 => (a, (a + short).min(n)),
                3 => (n - short.min(n), n),
                _ => (a, n),
            };
            let range = (start, end, pivot);

            let array = SharedCrackerArray::from_values(values.clone());
            let split = array.crack_in_two_range(start, end, pivot);
            let (got_values, got_rowids) = array.snapshot();
            let got = (&got_values[..], &got_rowids[..]);
            assert_reference_partition("crack_in_two_range", got, &values, range, split);

            let array = SharedCrackerArray::from_values(values.clone());
            let split = array.partition_blocks(start, end, pivot);
            let (got_values, got_rowids) = array.snapshot();
            let got = (&got_values[..], &got_rowids[..]);
            assert_reference_partition("partition_blocks", got, &values, range, split);

            // The twin and the vector kernel take two vectors or more.
            if end - start >= 2 * LANES {
                let mut twin_values = values.clone();
                let mut twin_rowids: Vec<RowId> = (0..n as RowId).collect();
                let twin_split = vector_twin(&mut twin_values, &mut twin_rowids, start, end, pivot);
                let twin = (&twin_values[..], &twin_rowids[..]);
                assert_reference_partition("vector_twin", twin, &values, range, twin_split);

                #[cfg(all(target_arch = "x86_64", not(miri)))]
                if vector_kernel_available() {
                    let array = SharedCrackerArray::from_values(values.clone());
                    // SAFETY: the kernel's CPU features were detected just now.
                    let split = unsafe { array.partition_vector(start, end, pivot) };
                    let (got_values, got_rowids) = array.snapshot();
                    prop_assert_eq!(split, twin_split);
                    prop_assert_eq!(&got_values, &twin_values);
                    prop_assert_eq!(&got_rowids, &twin_rowids);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Both aggregate kernels against a per-row `i128` reference, on
        /// sub-ranges (empty ones included) of arrays that reach `i64::MIN`
        /// and `i64::MAX`, with key ranges in either order.
        #[test]
        fn aggregate_kernels_agree_with_an_i128_reference(
            raw in prop::collection::vec((0u8..4, any::<i64>()), 0..300),
            cut in (0usize..400, 0usize..400),
            keys in (0u8..4, any::<i64>(), any::<i64>()),
        ) {
            let extreme = |(pick, v): (u8, i64)| match pick {
                0 => i64::MIN,
                1 => i64::MAX,
                2 => v % 1000,
                _ => v,
            };
            let values: Vec<i64> = raw.into_iter().map(extreme).collect();
            let n = values.len();
            let (a, b) = (cut.0 % (n + 1), cut.1 % (n + 1));
            let (start, end) = (a.min(b), a.max(b));
            let (low, high) = (extreme((keys.0, keys.1)), extreme((keys.0 / 2, keys.2)));
            let array = SharedCrackerArray::from_values(values.clone());
            let range = &values[start..end];
            prop_assert_eq!(array.sum_range(start, end), range.iter().map(|&v| v as i128).sum::<i128>());
            let hits = range.iter().filter(|&&v| v >= low && v < high);
            let want = (hits.clone().count() as u64, hits.map(|&v| v as i128).sum::<i128>());
            prop_assert_eq!(array.count_sum_filtered(start, end, low, high), want);
        }
    }

    #[test]
    fn construction_and_basic_reads() {
        let arr = SharedCrackerArray::from_values(vec![5, 1, 9, 3]);
        assert_eq!(arr.len(), 4);
        assert!(!arr.is_empty());
        assert_eq!(arr.values_in_range(0, 4), vec![5, 1, 9, 3]);
        assert_eq!(arr.rowids_in_range(0, 4), vec![0, 1, 2, 3]);
        assert_eq!(arr.sum_range(1, 3), 10);
        assert_eq!(arr.count_sum_filtered(0, 4, 3, 9), (2, 8));
        let arr = SharedCrackerArray::from_values(vec![7, 7]);
        assert_eq!(arr.snapshot().0, vec![7, 7]);
    }

    #[test]
    fn filtered_rowids_are_the_ids_of_the_filtered_pairs() {
        let values: Vec<i64> = (0..300).map(|i| (i * 48271) % 97).collect();
        let arr = SharedCrackerArray::from_values(values);
        for (start, end, low, high) in [(0, 300, 10, 40), (17, 230, 0, 97), (5, 5, 0, 97)] {
            let mut ids = vec![RowId::MAX];
            arr.extend_rowids_filtered(start, end, low, high, &mut ids);
            let pairs = arr.pairs_filtered(start, end, low, high);
            let want: Vec<RowId> = pairs.iter().map(|&(_, rowid)| rowid).collect();
            assert_eq!(ids[0], RowId::MAX, "appends, keeps what was there");
            assert_eq!(
                ids[1..],
                want[..],
                "[{start},{end}) filtered by [{low},{high})"
            );
        }
        let mut none = Vec::new();
        arr.extend_rowids_filtered(0, 300, 50, 50, &mut none);
        assert!(none.is_empty(), "an empty key range selects nothing");
    }

    #[test]
    fn crack_in_two_range_partitions() {
        let arr = SharedCrackerArray::from_values(vec![5, 1, 9, 3, 7, 2, 8, 6]);
        let split = arr.crack_in_two_range(0, 8, 5);
        let (values, rowids) = arr.snapshot();
        assert_eq!(split, 3);
        assert!(values[..split].iter().all(|&v| v < 5));
        assert!(values[split..].iter().all(|&v| v >= 5));
        // Pairs stay together.
        let original = [5, 1, 9, 3, 7, 2, 8, 6];
        for (i, &rid) in rowids.iter().enumerate() {
            assert_eq!(values[i], original[rid as usize]);
        }
    }

    #[test]
    fn crack_with_hole_matches_classic_partition() {
        // Pseudo-random data; the last slot plays the dead-tail hole. The
        // hole's contents are garbage by contract, so only [0, n) of the
        // result is compared.
        let n = 257usize;
        let data: Vec<i64> = (0..n as i64).map(|i| (i * 48271) % 101).collect();
        for pivot in [0i64, 1, 17, 50, 100, 101] {
            let mut with_hole = data.clone();
            with_hole.push(-999); // the hole slot
            let arr = SharedCrackerArray::from_values(with_hole);
            let (split, _moves) = arr.crack_in_two_with_hole(0, n, pivot, n);
            let classic = SharedCrackerArray::from_values(data.clone());
            let classic_split = classic.crack_in_two_range(0, n, pivot);
            assert_eq!(split, classic_split, "pivot {pivot}");
            let (values, rowids) = arr.snapshot();
            assert!(values[..split].iter().all(|&v| v < pivot));
            assert!(values[split..n].iter().all(|&v| v >= pivot));
            // Pairs stay together and no row is lost or duplicated.
            for (i, &rid) in rowids[..n].iter().enumerate() {
                assert_eq!(values[i], data[rid as usize]);
            }
            let mut rids: Vec<RowId> = rowids[..n].to_vec();
            rids.sort_unstable();
            assert_eq!(rids, (0..n as RowId).collect::<Vec<_>>());
        }
    }

    #[test]
    fn crack_with_hole_already_partitioned_never_touches_the_hole() {
        let arr = SharedCrackerArray::from_values(vec![1, 2, 3, 8, 9, -7]);
        let (split, moves) = arr.crack_in_two_with_hole(0, 5, 5, 5);
        assert_eq!(split, 3);
        assert_eq!(moves, 0);
        assert_eq!(arr.snapshot().0, vec![1, 2, 3, 8, 9, -7]);
    }

    #[test]
    fn crack_with_hole_saves_moves_on_dense_misplacement() {
        // Dense misplacement: the first half is entirely high, the second
        // half entirely low, so the classic swap partition swaps every pair
        // (3m element moves counting the temporary) while the hole walk
        // moves each misplaced element once (2m + 1 moves).
        let m = 64usize;
        let mut data: Vec<i64> = (0..m as i64).map(|i| 100 + i).collect();
        data.extend(0..m as i64);
        let mut rowids: Vec<RowId> = (0..2 * m as RowId).collect();
        let (classic_split, swaps) =
            reference_partition(&mut data.clone(), &mut rowids, 0, 2 * m, 100);
        assert_eq!(classic_split, m);
        assert_eq!(swaps, m);
        let mut with_hole = data;
        with_hole.push(-1);
        let arr = SharedCrackerArray::from_values(with_hole);
        let (split, moves) = arr.crack_in_two_with_hole(0, 2 * m, 100, 2 * m);
        assert_eq!(split, m);
        assert_eq!(moves, 2 * m + 1);
        assert!(
            moves < 3 * swaps,
            "hole walk ({moves} moves) must beat swap cost ({} moves)",
            3 * swaps
        );
    }

    #[test]
    fn disjoint_ranges_can_be_cracked_concurrently() {
        // Two threads crack disjoint halves of the same shared array; the
        // result must be the same as doing it sequentially.
        let n = 100_000usize;
        let values: Vec<i64> = (0..n as i64).map(|i| (i * 48271) % n as i64).collect();
        let arr = Arc::new(SharedCrackerArray::from_values(values.clone()));
        let mid = n / 2;
        let a = Arc::clone(&arr);
        let b = Arc::clone(&arr);
        let pivot = (n / 4) as i64;
        let t1 = thread::spawn(move || a.crack_in_two_range(0, mid, pivot));
        let t2 = thread::spawn(move || b.crack_in_two_range(mid, n, pivot));
        let s1 = t1.join().unwrap();
        let s2 = t2.join().unwrap();
        let (vals, _) = arr.snapshot();
        assert!(vals[..s1].iter().all(|&v| v < pivot));
        assert!(vals[s1..mid].iter().all(|&v| v >= pivot));
        assert!(vals[mid..s2].iter().all(|&v| v < pivot));
        assert!(vals[s2..].iter().all(|&v| v >= pivot));
        // No values lost.
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        let mut expected = values;
        expected.sort_unstable();
        assert_eq!(sorted, expected);
    }

    #[test]
    fn replace_swaps_contents_and_length() {
        let arr = SharedCrackerArray::from_values(vec![1, 2, 3]);
        arr.replace(vec![9, 8, 7, 6], vec![3, 2, 1, 0]);
        assert_eq!(arr.len(), 4);
        assert_eq!(arr.snapshot().0, vec![9, 8, 7, 6]);
        assert_eq!(arr.snapshot().1, vec![3, 2, 1, 0]);
        arr.replace(vec![], vec![]);
        assert!(arr.is_empty());
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn replace_rejects_misaligned_inputs() {
        let arr = SharedCrackerArray::from_values(vec![1]);
        arr.replace(vec![1, 2], vec![0]);
    }

    #[test]
    fn sweep_rowids_moves_exactly_the_doomed_rows_to_the_tail() {
        // Positional rowids: value 5 sits at rows 0, 2, 5; value 3 at 3.
        let arr = SharedCrackerArray::from_values(vec![5, 7, 5, 3, 7, 5]);
        let doomed = HashSet::from([0, 2, 3]);
        let (live_end, removed) = arr.sweep_rowids(0, 6, &doomed);
        assert_eq!(live_end, 3);
        let mut removed_sorted = removed.clone();
        removed_sorted.sort_unstable();
        assert_eq!(removed_sorted, vec![(3, 3), (5, 0), (5, 2)]);
        let (values, rowids) = arr.snapshot();
        let mut live: Vec<i64> = values[..live_end].to_vec();
        live.sort_unstable();
        assert_eq!(live, vec![5, 7, 7], "row 5 (value 5) survives by rowid");
        assert!(rowids[..live_end].contains(&5), "the surviving 5 is row 5");
        // (value, rowid) pairs stay together through the swaps.
        let original = [5, 7, 5, 3, 7, 5];
        for (i, &rid) in rowids.iter().enumerate() {
            assert_eq!(values[i], original[rid as usize]);
        }
    }

    #[test]
    fn sweep_with_absent_rowids_is_a_no_op() {
        let arr = SharedCrackerArray::from_values(vec![1, 2, 3]);
        let doomed = HashSet::from([9, 10]);
        let (live_end, removed) = arr.sweep_rowids(0, 3, &doomed);
        assert_eq!(live_end, 3);
        assert!(removed.is_empty());
        assert_eq!(arr.snapshot().0, vec![1, 2, 3]);
    }

    #[test]
    fn from_rows_keeps_explicit_rowids() {
        let arr = SharedCrackerArray::from_rows(vec![4, 6], vec![17, 3]);
        assert_eq!(arr.pairs_in_range(0, 2), vec![(4, 17), (6, 3)]);
        assert_eq!(arr.pairs_filtered(0, 2, 5, 10), vec![(6, 3)]);
    }

    #[test]
    fn write_rows_overwrites_the_target_slots() {
        let arr = SharedCrackerArray::from_values(vec![1, 2, 3, 4, 5]);
        arr.write_rows(2, &[9, 8], &[10, 11]);
        assert_eq!(arr.snapshot().0, vec![1, 2, 9, 8, 5]);
        assert_eq!(arr.snapshot().1, vec![0, 1, 10, 11, 4]);
        arr.write_rows(5, &[], &[]); // empty write at the end is fine
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn write_rows_rejects_out_of_bounds() {
        let arr = SharedCrackerArray::from_values(vec![1, 2, 3]);
        arr.write_rows(2, &[7, 7], &[5, 6]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_crack_panics() {
        let arr = SharedCrackerArray::from_values(vec![1, 2, 3]);
        arr.crack_in_two_range(0, 4, 2);
    }

    #[test]
    fn empty_array() {
        let arr = SharedCrackerArray::from_values(vec![]);
        assert!(arr.is_empty());
        assert_eq!(arr.len(), 0);
        assert_eq!(arr.sum_range(0, 0), 0);
        assert_eq!(arr.crack_in_two_range(0, 0, 5), 0);
    }
}
