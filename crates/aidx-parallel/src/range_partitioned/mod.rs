//! A column cracked at its range splits when it is built.
//!
//! A range partition splits a column into disjoint key ranges up front —
//! the coarse-granular index of Alvarez et al. On one piece directory
//! those ranges are cracks that exist before the first query, the logical
//! end point of "pieces as an adaptive latching granularity": the column
//! is one [`ConcurrentCracker`] under [`LatchProtocol::Piece`], built
//! [`ConcurrentCracker::with_cracks`] at sampled quantiles, and reads go
//! on cracking inside the ranges under piece latches. Every read, write
//! and pin is the cracker's own — a pin is one epoch, a consistent cut
//! whatever writes race it. All that is left of the partitions is one op
//! counter per range, which feeds [`StructureProbe::partition_load`].

use aidx_core::{
    ColumnRead, CompactionPolicy, ConcurrentCracker, Index, LatchProtocol, QueryMetrics,
    ReadAnswer, ReadShape, RowIdSet, WriteOp,
};
use aidx_cracking::RowId;
use aidx_obs::StructureProbe;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(test)]
mod tests;

/// A column cracked at range splits at build, with its per-range load.
pub struct RangePartitionedCracker {
    index: ConcurrentCracker,
    /// `splits[i]` is the inclusive lower key bound of range `i + 1`;
    /// range `0` starts at `i64::MIN`. Strictly ascending, and each one a
    /// crack of `index`.
    splits: Vec<i64>,
    /// Reads and writes per range: a read counts in every range it
    /// overlaps, a write in the range owning its key.
    load: Vec<AtomicU64>,
}

impl RangePartitionedCracker {
    /// Cracks `values` at the splits of `partitions` (clamped to
    /// `1..=len.max(1)`) balanced key ranges. The delta is bounded at 10%
    /// of the main array and merged incrementally — an unbounded default
    /// delta would silently re-introduce the linear select degradation
    /// bounded compaction removed; use
    /// [`RangePartitionedCracker::with_compaction`] to tune or disable it.
    pub fn new(values: Vec<i64>, partitions: usize) -> Self {
        let policy = CompactionPolicy::fraction(0.1).incremental(8);
        Self::with_compaction(values, partitions, policy)
    }

    /// As [`RangePartitionedCracker::new`] with an explicit compaction
    /// policy, including [`aidx_core::CompactionMode`] `Incremental`,
    /// which merges the delta one piece write latch at a time instead of
    /// quiescing the column.
    pub fn with_compaction(
        values: Vec<i64>,
        partitions: usize,
        compaction: CompactionPolicy,
    ) -> Self {
        let rowids: Vec<RowId> = (0..values.len() as RowId).collect();
        Self::from_rows(values, rowids, partitions, compaction)
    }

    /// As [`RangePartitionedCracker::with_compaction`] with explicit,
    /// aligned row ids — the table-engine path, where one tuple's id is
    /// shared by every indexed column's cracker.
    ///
    /// # Panics
    /// Panics if the vectors differ in length.
    pub fn from_rows(
        values: Vec<i64>,
        rowids: Vec<RowId>,
        partitions: usize,
        compaction: CompactionPolicy,
    ) -> Self {
        assert_eq!(values.len(), rowids.len(), "misaligned rowid column");
        // Heavily duplicated data collapses quantiles, so `choose_splits`
        // may return fewer splits than requested; the ranges follow them.
        let splits = choose_splits(&values, partitions.clamp(1, values.len().max(1)));
        let index = ConcurrentCracker::from_rows(values, rowids, LatchProtocol::Piece)
            .with_compaction(compaction)
            .with_cracks(&splits);
        let load = (0..=splits.len()).map(|_| AtomicU64::new(0)).collect();
        RangePartitionedCracker {
            index,
            splits,
            load,
        }
    }

    /// Number of indexed entries (exact in quiescence, like
    /// [`ConcurrentCracker::logical_len`]).
    pub fn len(&self) -> usize {
        self.index.logical_len() as usize
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of key ranges: one more than [`Self::splits`].
    pub fn partition_count(&self) -> usize {
        self.load.len()
    }

    /// The split keys between ranges (diagnostic).
    pub fn splits(&self) -> &[i64] {
        &self.splits
    }

    /// [`ColumnRead::select_rowid_set`], inherent so that callers without
    /// the trait in scope reach it.
    pub fn select_rowid_set(&self, low: i64, high: i64) -> (RowIdSet, QueryMetrics) {
        ColumnRead::select_rowid_set(self, low, high)
    }

    /// `(delta rows, compactions + incremental steps)`.
    pub fn delta_stats(&self) -> (u64, u64) {
        let merges = self.index.compactions_performed() + self.index.compaction_steps_performed();
        (self.index.delta_rows(), merges)
    }

    /// Charges one op to every range that holds a key of `[first, last]`.
    fn charge(&self, first: i64, last: i64) {
        let ranges = partition_of(&self.splits, first)..=partition_of(&self.splits, last);
        for ops in &self.load[ranges] {
            ops.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Charges a read of `[low, high)` to every range it overlaps.
    fn charge_read(&self, low: i64, high: i64) {
        if low < high {
            self.charge(low, high - 1);
        }
    }
}

impl ColumnRead for RangePartitionedCracker {
    /// One `shape` read over `[low, high)` at the current epoch, charged
    /// to every range it overlaps.
    fn read(&self, low: i64, high: i64, shape: ReadShape<'_>) -> (ReadAnswer, QueryMetrics) {
        self.charge_read(low, high);
        self.index.read(low, high, None, shape)
    }
}

impl Index for RangePartitionedCracker {
    /// The cracker's own pin — one epoch — whose reads are charged like
    /// live ones.
    fn pin(&self) -> Box<dyn ColumnRead + '_> {
        Box::new(Pinned {
            column: self,
            pin: self.index.pin(),
        })
    }

    /// The cracker's write, charged to the range owning the op's key.
    fn write(&self, op: WriteOp) -> (u64, QueryMetrics) {
        self.charge(op.key(), op.key());
        self.index.write(op)
    }

    /// Inserts one row with the given key, self-assigning a fresh row id.
    fn insert(&self, value: i64) -> QueryMetrics {
        self.charge(value, value);
        Index::insert(&self.index, value)
    }

    /// The cracker's probe, with the per-range load.
    fn structure_probe(&self) -> StructureProbe {
        StructureProbe {
            partition_load: self
                .load
                .iter()
                .map(|ops| ops.load(Ordering::Relaxed))
                .collect(),
            ..self.index.structure_probe()
        }
    }

    fn check_invariants(&self) -> bool {
        self.index.check_invariants()
    }
}

impl fmt::Debug for RangePartitionedCracker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RangePartitionedCracker")
            .field("len", &self.len())
            .field("splits", &self.splits)
            .finish()
    }
}

/// A pin of a [`RangePartitionedCracker`]: the cracker's pin, with its
/// reads charged to the ranges they overlap.
struct Pinned<'a> {
    column: &'a RangePartitionedCracker,
    pin: Box<dyn ColumnRead + 'a>,
}

impl ColumnRead for Pinned<'_> {
    fn read(&self, low: i64, high: i64, shape: ReadShape<'_>) -> (ReadAnswer, QueryMetrics) {
        self.column.charge_read(low, high);
        self.pin.read(low, high, shape)
    }
}

/// Index of the range owning key `v`: the number of splits `<= v`.
fn partition_of(splits: &[i64], v: i64) -> usize {
    splits.partition_point(|&s| s <= v)
}

/// Picks `partitions - 1` split keys from a deterministic sample so the
/// ranges are balanced even under skew. Returned keys are strictly
/// increasing (duplicate quantiles are dropped, which merely merges
/// neighbouring ranges for heavily duplicated data).
fn choose_splits(values: &[i64], partitions: usize) -> Vec<i64> {
    if partitions <= 1 || values.is_empty() {
        return Vec::new();
    }
    const MAX_SAMPLE: usize = 4096;
    let step = values.len().div_ceil(MAX_SAMPLE).max(1);
    let mut sample: Vec<i64> = values.iter().step_by(step).copied().collect();
    sample.sort_unstable();
    let mut splits = Vec::with_capacity(partitions - 1);
    for p in 1..partitions {
        let q = sample[(p * sample.len() / partitions).min(sample.len() - 1)];
        if splits.last() != Some(&q) {
            splits.push(q);
        }
    }
    splits
}
