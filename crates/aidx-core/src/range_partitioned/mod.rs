//! A column range-partitioned by cracks made when it is built: the
//! coarse-granular index of Alvarez et al. (*Main Memory Adaptive
//! Indexing for Multi-core Systems*) on one piece directory, a
//! [`ConcurrentCracker`](crate::ConcurrentCracker) built
//! [`with_ranges`](crate::ConcurrentCracker::with_ranges) whose reads go
//! on cracking inside the ranges, kept apart by its latches. What is left
//! of the partitions is one op counter per range: a public read, live or
//! pinned, counts in every range `[low, high)` overlaps, and a write in
//! the range that owns its key.

use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(test)]
mod tests;

/// Rows sampled to place the splits of
/// [`ConcurrentCracker::with_ranges`](crate::ConcurrentCracker::with_ranges).
const MAX_SAMPLE: usize = 4096;

/// Resolves a range-count knob: `0` means one range per hardware thread
/// (4 when the parallelism cannot be determined), any other count itself.
pub fn resolve_ranges(requested: usize) -> usize {
    match requested {
        0 => std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get),
        n => n,
    }
}

/// The build ranges of one cracker with their load; empty for a cracker
/// built without cracks.
#[derive(Debug, Default)]
pub(crate) struct BuildRanges {
    /// `splits[i]` is the inclusive lower key bound of range `i + 1`;
    /// range `0` starts at `i64::MIN`. Strictly ascending, and each one a
    /// crack made at build.
    splits: Vec<i64>,
    /// Ops per range.
    load: Vec<AtomicU64>,
}

impl BuildRanges {
    /// The ranges between `splits` (strictly ascending), unloaded.
    pub(crate) fn new(splits: Vec<i64>) -> Self {
        let load = (0..=splits.len()).map(|_| AtomicU64::new(0)).collect();
        BuildRanges { splits, load }
    }

    /// The split keys between the ranges.
    pub(crate) fn splits(&self) -> &[i64] {
        &self.splits
    }

    /// Charges one op to every range that holds a key of `[first, last]`.
    pub(crate) fn charge(&self, first: i64, last: i64) {
        let ranges = self.owner(first)..=self.owner(last);
        for ops in self.load.get(ranges).unwrap_or_default() {
            ops.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Ops served per range so far.
    pub(crate) fn load(&self) -> Vec<u64> {
        self.load
            .iter()
            .map(|ops| ops.load(Ordering::Relaxed))
            .collect()
    }

    /// Index of the range owning `key`: the number of splits `<= key`.
    fn owner(&self, key: i64) -> usize {
        self.splits.partition_point(|&s| s <= key)
    }
}

/// Picks the split keys of `ranges` (clamped to `1..=len.max(1)`) key
/// ranges balanced over a deterministic sample of the `len` values
/// `value_at` reads, so they stay balanced under skew. The keys are
/// strictly increasing: a repeated quantile is dropped, which merely
/// merges neighbouring ranges of heavily duplicated data.
pub(crate) fn choose_splits(
    len: usize,
    value_at: impl Fn(usize) -> i64,
    ranges: usize,
) -> Vec<i64> {
    let ranges = ranges.clamp(1, len.max(1));
    let step = len.div_ceil(MAX_SAMPLE).max(1);
    let mut sample: Vec<i64> = (0..len).step_by(step).map(value_at).collect();
    sample.sort_unstable();
    let mut splits: Vec<i64> = (1..ranges)
        .map(|p| sample[p * sample.len() / ranges])
        .collect();
    splits.dedup();
    splits
}
