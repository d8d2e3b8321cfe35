//! A cracker array shareable across threads under piece latches.
//!
//! The piece-latch protocol lets several threads reorganise *disjoint*
//! position ranges of the same cracker array concurrently (Section 5.3).
//! Rust's `&mut` aliasing rules cannot express "mutable access to a dynamic,
//! latch-protected sub-range of one vector", so this module provides the one
//! carefully-scoped piece of `unsafe` in the repository:
//! [`SharedCrackerArray`] stores the value and row-id arrays in
//! `UnsafeCell`s and exposes range-scoped operations whose safety contract
//! is "the caller holds the piece latch covering that range in the required
//! mode".
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
//!   `values_in_range`, `rowids_in_range`) only while holding the **read or
//!   write** latch of the piece(s) covering the range.
//! * Piece latches are managed by [`crate::concurrent_index::ConcurrentCracker`];
//!   pieces never overlap, so latched ranges never overlap.
//!
//! The partition kernel ([`SharedCrackerArray::crack_in_two_range`]) is the
//! one loop here whose indices are not a plain `start..end` walk: block
//! offsets from both ends, a swap list, a predicated sweep. Its contract
//! on top of the above: every raw access computes its index through one
//! closure that `debug_assert!`s it inside `[start, end)`; the stages'
//! loop conditions (documented on the function) are what keep it there in
//! release builds; and since miri cannot be installed offline, the kernel
//! is differential-tested on every proptest case against a safe-Rust
//! reference partition over plain vectors — same split, same multiset of
//! `(value, rowid)` pairs on each side, no slot outside the range touched.
//!
//! Every method in this module is safe to *call* (not `unsafe fn`) because
//! violating the contract cannot corrupt memory safety metadata — the ranges
//! are bounds-checked — but it can produce torn reads of values being
//! swapped. The contract is therefore enforced by the only caller,
//! `ConcurrentCracker`, which is what the test suite exercises heavily under
//! many threads.

use aidx_storage::{Column, RowId};
use std::cell::UnsafeCell;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

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
    /// Builds the shared array as a copy of a base column.
    pub fn from_column(column: &Column) -> Self {
        Self::from_values(column.values().to_vec())
    }

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
    /// Three stages. A branchy skip of the prefix already `< pivot` and the
    /// suffix already `>= pivot`: on a nearly partitioned or tiny piece the
    /// branches predict and that is all the work there is. Then a block
    /// partition of the unsettled middle: a block of 128 rows
    /// from either end is scanned *branch-free* — every offset is stored
    /// and the store cursor advances by the comparison's outcome
    /// (`n += (v >= pivot) as usize`), so an unpredictable pivot costs no
    /// mispredictions — and the misplaced rows the two scans recorded are
    /// swapped pairwise; a block is left behind once all its misplaced
    /// rows are swapped out. What remains when fewer than two blocks
    /// separate the ends — at most the two blocks, whatever of them is
    /// still unswapped included — is partitioned by a predicated sweep
    /// (swap unconditionally, `split += (v < pivot) as usize`).
    pub fn crack_in_two_range(&self, start: usize, end: usize, pivot: i64) -> usize {
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
        // stages keep it in range by construction: `lo < hi` bounds the
        // skips, a block scan runs only while `hi - lo >= 2 * BLOCK` so the
        // offsets `0..BLOCK` from either end stay inside `[lo, hi)`, and
        // the sweep runs `split <= i` over `lo..hi`.
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
            while lo < hi && below(lo) {
                lo += 1;
            }
            while lo < hi && !below(hi - 1) {
                hi -= 1;
            }
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
    /// latches covering the range.
    pub fn sum_range(&self, start: usize, end: usize) -> i128 {
        assert!(start <= end && end <= self.len(), "sum range out of bounds");
        let values = self.values_ptr();
        let mut acc: i128 = 0;
        // SAFETY: bounds checked above; shared access guaranteed by latches.
        unsafe {
            for i in start..end {
                acc += *values.add(i) as i128;
            }
        }
        acc
    }

    /// Count of values in `[start, end)` that satisfy `low <= v < high`.
    /// Used when a query skipped refinement and must filter a boundary piece
    /// under a read latch.
    pub fn count_filtered(&self, start: usize, end: usize, low: i64, high: i64) -> u64 {
        assert!(
            start <= end && end <= self.len(),
            "count range out of bounds"
        );
        let values = self.values_ptr();
        let mut n = 0u64;
        // SAFETY: bounds checked above; shared access guaranteed by latches.
        unsafe {
            for i in start..end {
                let v = *values.add(i);
                if v >= low && v < high {
                    n += 1;
                }
            }
        }
        n
    }

    /// Sum of values in `[start, end)` that satisfy `low <= v < high`.
    pub fn sum_filtered(&self, start: usize, end: usize, low: i64, high: i64) -> i128 {
        assert!(start <= end && end <= self.len(), "sum range out of bounds");
        let values = self.values_ptr();
        let mut acc: i128 = 0;
        // SAFETY: bounds checked above; shared access guaranteed by latches.
        unsafe {
            for i in start..end {
                let v = *values.add(i);
                if v >= low && v < high {
                    acc += v as i128;
                }
            }
        }
        acc
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

    /// Copies the row ids in `[start, end)` out of the array.
    pub fn rowids_in_range(&self, start: usize, end: usize) -> Vec<RowId> {
        assert!(
            start <= end && end <= self.len(),
            "read range out of bounds"
        );
        let rowids = self.rowids_ptr();
        let mut out = Vec::with_capacity(end - start);
        // SAFETY: bounds checked above; shared access guaranteed by latches.
        unsafe {
            for i in start..end {
                out.push(*rowids.add(i));
            }
        }
        out
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

    fn sorted_pairs(values: &[i64], rowids: &[RowId]) -> Vec<(i64, RowId)> {
        let mut pairs: Vec<_> = values.iter().copied().zip(rowids.iter().copied()).collect();
        pairs.sort_unstable();
        pairs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The unsafe kernel against the safe reference, on a sub-range of
        /// a larger array: same split position, the same multiset of
        /// `(value, rowid)` pairs on each side, every slot outside
        /// `[start, end)` untouched. Lengths reach several blocks; the
        /// shapes put every stage of the kernel on its own (all skipped,
        /// blocks only, sweep only) and together.
        #[test]
        fn kernel_agrees_with_the_reference_partition(
            raw in prop::collection::vec(-50i64..50, 0..900),
            shape in 0u8..8,
            cut in (0usize..1000, 0usize..1000),
            pivot in -60i64..60,
        ) {
            let mut values = raw;
            match shape {
                0 => values.sort_unstable(),
                1 => values.sort_unstable_by(|a, b| b.cmp(a)),
                2 => values.fill(7),
                3 => values.iter_mut().for_each(|v| *v = pivot - 1 - v.abs()),
                4 => values.iter_mut().for_each(|v| *v = pivot + v.abs()),
                // Dense misplacement: the high half first.
                5 => values.sort_unstable_by_key(|&v| v < pivot),
                _ => {}
            }
            let n = values.len();
            let (a, b) = (cut.0 % (n + 1), cut.1 % (n + 1));
            // Shapes 6 and 7 crack the whole array and a one-or-zero-row range.
            let (start, end) = match shape {
                6 => (0, n),
                7 => (a, (a + b % 2).min(n)),
                _ => (a.min(b), a.max(b)),
            };
            let array = SharedCrackerArray::from_values(values.clone());
            let split = array.crack_in_two_range(start, end, pivot);
            let (got_values, got_rowids) = array.snapshot();

            let mut want_values = values.clone();
            let mut want_rowids: Vec<RowId> = (0..n as RowId).collect();
            let (want_split, _) =
                reference_partition(&mut want_values, &mut want_rowids, start, end, pivot);
            prop_assert_eq!(split, want_split);
            prop_assert!(got_values[start..split].iter().all(|&v| v < pivot));
            prop_assert!(got_values[split..end].iter().all(|&v| v >= pivot));
            for (from, to) in [(start, split), (split, end)] {
                prop_assert_eq!(
                    sorted_pairs(&got_values[from..to], &got_rowids[from..to]),
                    sorted_pairs(&want_values[from..to], &want_rowids[from..to])
                );
            }
            for outside in (0..start).chain(end..n) {
                prop_assert_eq!(got_values[outside], values[outside]);
                prop_assert_eq!(got_rowids[outside], outside as RowId);
            }
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
        assert_eq!(arr.count_filtered(0, 4, 3, 9), 2);
        assert_eq!(arr.sum_filtered(0, 4, 3, 9), 8);
        let col = Column::from_values("a", vec![7, 7]);
        let arr = SharedCrackerArray::from_column(&col);
        assert_eq!(arr.snapshot().0, vec![7, 7]);
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
