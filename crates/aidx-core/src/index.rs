//! The one column read surface.
//!
//! The paper separates an index's structure from its contents: however
//! a [`ConcurrentCracker`](crate::ConcurrentCracker) refines its pieces,
//! a read answers from the contents. [`ColumnRead`] is that read,
//! served alike by the cracker answering *now* and by a pin of it
//! ([`Snapshot`](crate::Snapshot)) answering at the epoch it was opened
//! at. A reader implements one `read`; every typed read is a provided
//! wrapper, so the contract is spelled out here and nowhere else.

use crate::concurrent_index::{ReadAnswer, ReadShape};
use crate::key_runs::KeyRuns;
use crate::metrics::QueryMetrics;
use crate::rowid_set::RowIdSet;
use aidx_cracking::RowId;

/// One column read surface: an index answering *now* (refining as a side
/// effect), or a pinned handle answering at the epoch it was opened at. A
/// reader implements one `read`; every typed read is a provided wrapper.
pub trait ColumnRead {
    /// One `shape` read over `[low, high)`, refining the index as a side
    /// effect — the single read a reader implements; the typed reads
    /// below all go through it.
    fn read(&self, low: i64, high: i64, shape: ReadShape<'_>) -> (ReadAnswer, QueryMetrics);

    /// Q1: count of the live rows whose value falls in `[low, high)`.
    fn count(&self, low: i64, high: i64) -> (u64, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::Count);
        (answer.into_agg() as u64, metrics)
    }

    /// Q2: sum of the live values in `[low, high)`.
    fn sum(&self, low: i64, high: i64) -> (i128, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::Sum);
        (answer.into_agg(), metrics)
    }

    /// Row ids of every live row whose value falls in `[low, high)`,
    /// sorted ascending. Physical reorganisation never changes the answer:
    /// every row carries its id through every swap.
    fn select_rowids(&self, low: i64, high: i64) -> (Vec<RowId>, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::RowIds);
        (answer.into_rowids(), metrics)
    }

    /// Same read, but as a compacted [`RowIdSet`]: the
    /// [`ReadShape::Candidates`] set, kept a bitmap only when that costs
    /// less than the sorted vector ([`RowIdSet::compact`]), for a set that
    /// leaves the engine (a planner that uses and drops its sets reads
    /// [`ReadShape::Candidates`] itself); `metrics.candidate_set_bytes`
    /// records the compacted set's footprint.
    fn select_rowid_set(&self, low: i64, high: i64) -> (RowIdSet, QueryMetrics) {
        let (answer, mut metrics) = self.read(low, high, ReadShape::Candidates);
        let set = answer.into_set().compact();
        metrics.candidate_set_bytes = set.heap_bytes() as u64;
        (set, metrics)
    }

    /// The same read as raw per-piece `(key, rowid)` runs — what a table
    /// join side hashes or probes with, unsorted.
    fn select_key_runs(&self, low: i64, high: i64) -> (KeyRuns, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::KeyRuns);
        (answer.into_runs(), metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facade::Mutex;

    /// A reader that implements only `read` and logs what reaches it (a
    /// read's shape by name: a shape may borrow a set).
    #[derive(Default)]
    struct Recorder {
        reads: Mutex<Vec<(i64, i64, String)>>,
    }

    impl ColumnRead for Recorder {
        fn read(&self, low: i64, high: i64, shape: ReadShape<'_>) -> (ReadAnswer, QueryMetrics) {
            self.reads.lock().push((low, high, format!("{shape:?}")));
            (ReadAnswer::empty(shape), QueryMetrics::default())
        }
    }

    #[test]
    fn every_typed_method_goes_through_read_or_write() {
        let index = Recorder::default();
        index.select_rowids(0, 9);
        index.select_rowid_set(0, 9);
        index.select_key_runs(0, 9);
        index.count(0, 9);
        index.sum(0, 9);
        let shapes = [
            ReadShape::RowIds,
            ReadShape::Candidates,
            ReadShape::KeyRuns,
            ReadShape::Count,
            ReadShape::Sum,
        ];
        let want: Vec<_> = shapes.map(|shape| (0, 9, format!("{shape:?}"))).into();
        assert_eq!(*index.reads.lock(), want);
    }
}
