//! The one index surface every backend serves.
//!
//! The paper separates an index's structure from its contents: however a
//! backend refines its structure — one cracker under latches, or key-range
//! partitions owned by threads — it serves the same
//! contents contract: select, insert, delete, and read at a pinned epoch.
//! [`ColumnRead`] is the read half of that contract and [`Index`] the
//! rest. A backend implements one `read`, one `pin`, one `write` and one
//! self-assigning `insert`; every typed method is a provided wrapper, so
//! the contract is spelled out here and nowhere else.

use crate::concurrent_index::{ReadAnswer, ReadShape, WriteOp};
use crate::key_runs::KeyRuns;
use crate::metrics::QueryMetrics;
use crate::rowid_set::RowIdSet;
use aidx_latch::stats::LatchStatsSnapshot;
use aidx_obs::StructureProbe;
use aidx_storage::RowId;

/// One column read surface: an index answering *now* (refining as a side
/// effect), or a pinned handle answering at the epoch it was opened at. A
/// reader implements one `read`; every typed read is a provided wrapper.
pub trait ColumnRead {
    /// One `shape` read over `[low, high)`, refining the index as a side
    /// effect — the single read a reader implements; the typed reads
    /// below all go through it.
    fn read(&self, low: i64, high: i64, shape: ReadShape) -> (ReadAnswer, QueryMetrics);

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

    /// Same read, but as a block-compressed [`RowIdSet`] — the planner's
    /// working representation for multi-predicate intersection (galloping
    /// seeks skip whole blocks of the larger side);
    /// `metrics.candidate_set_bytes` records the compressed footprint.
    fn select_rowid_set(&self, low: i64, high: i64) -> (RowIdSet, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::RowIdSet);
        (answer.into_set(), metrics)
    }

    /// The same read as raw per-piece `(key, rowid)` runs — the join
    /// paths' lazy-merge substrate: the merge sorts (or skips) runs only
    /// as its frontier reaches them.
    fn select_key_runs(&self, low: i64, high: i64) -> (KeyRuns, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::KeyRuns);
        (answer.into_runs(), metrics)
    }
}

/// A single-column adaptive index whose reads yield *row ids* (tuple
/// identity) as well as aggregates. Writes take an externally assigned row
/// id, so several instances over different columns of one table stay
/// aligned through any amount of per-column physical reorganisation, or
/// self-assign one ([`Index::insert`]) for a standalone column.
pub trait Index: ColumnRead + Send + Sync {
    /// Opens a pinned read handle at the index's current epoch: reads
    /// through it still refine the index, but answer as of this call
    /// whatever writes land later. The registration is released when the
    /// handle drops.
    fn pin(&self) -> Box<dyn ColumnRead + '_>;

    /// Applies one write and returns `(rows affected, metrics)` — 1 for an
    /// insert, the rows removed for a delete. The single write a backend
    /// implements; the typed writes below go through it.
    fn write(&self, op: WriteOp) -> (u64, QueryMetrics);

    /// Inserts one row with the given key, self-assigning a row id past
    /// every id seen so far.
    fn insert(&self, value: i64) -> QueryMetrics;

    /// Quiescent structural self-check (only meaningful when no other
    /// thread is using the index).
    fn check_invariants(&self) -> bool;

    /// Raw structure observation: piece layout, delta pressure, live
    /// pins, routed load (partitioned backends only).
    fn structure_probe(&self) -> StructureProbe;

    /// [`WriteOp::Insert`]: inserts one row with an externally assigned
    /// row id.
    fn insert_row(&self, value: i64, rowid: RowId) -> QueryMetrics {
        self.write(WriteOp::Insert { value, rowid }).1
    }

    /// [`WriteOp::Delete`]: deletes every row whose key equals `value`,
    /// returning how many rows were removed.
    fn delete(&self, value: i64) -> (u64, QueryMetrics) {
        self.write(WriteOp::Delete { value })
    }

    /// [`WriteOp::DeleteRow`]: deletes the row `(value, rowid)`, returning
    /// `(rows removed — 0 or 1, metrics)`.
    fn delete_row(&self, value: i64, rowid: RowId) -> (u64, QueryMetrics) {
        self.write(WriteOp::DeleteRow { value, rowid })
    }

    /// Per-latch-object wait/conflict attribution, keyed by piece start
    /// position ([`aidx_obs::TraceEvent::COLUMN_LATCH`] stands for the
    /// column-level latch). Empty unless the index's concurrency control
    /// is piece-granular and observable from one place.
    fn latch_attribution(&self) -> Vec<(u64, LatchStatsSnapshot)> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facade::Mutex;

    /// An index that implements only the required methods and logs what
    /// reaches them.
    #[derive(Default)]
    struct Recorder {
        reads: Mutex<Vec<(i64, i64, ReadShape)>>,
        writes: Mutex<Vec<WriteOp>>,
    }

    impl ColumnRead for Recorder {
        fn read(&self, low: i64, high: i64, shape: ReadShape) -> (ReadAnswer, QueryMetrics) {
            self.reads.lock().push((low, high, shape));
            (ReadAnswer::empty(shape), QueryMetrics::default())
        }
    }

    impl Index for Recorder {
        fn pin(&self) -> Box<dyn ColumnRead + '_> {
            Box::new(Recorder::default())
        }

        fn write(&self, op: WriteOp) -> (u64, QueryMetrics) {
            self.writes.lock().push(op);
            (1, QueryMetrics::default())
        }

        fn insert(&self, value: i64) -> QueryMetrics {
            self.insert_row(value, 99)
        }

        fn check_invariants(&self) -> bool {
            true
        }

        fn structure_probe(&self) -> StructureProbe {
            StructureProbe::default()
        }
    }

    #[test]
    fn every_typed_method_goes_through_read_or_write() {
        let index = Recorder::default();
        index.insert_row(4, 40);
        index.insert(5);
        assert_eq!(index.delete_row(4, 40).0, 1);
        assert_eq!(index.delete(5).0, 1);
        index.select_rowids(0, 9);
        index.select_rowid_set(0, 9);
        index.select_key_runs(0, 9);
        index.count(0, 9);
        index.sum(0, 9);
        assert_eq!(
            *index.writes.lock(),
            [
                WriteOp::Insert {
                    value: 4,
                    rowid: 40
                },
                WriteOp::Insert {
                    value: 5,
                    rowid: 99
                },
                WriteOp::DeleteRow {
                    value: 4,
                    rowid: 40
                },
                WriteOp::Delete { value: 5 },
            ]
        );
        assert_eq!(
            *index.reads.lock(),
            [
                (0, 9, ReadShape::RowIds),
                (0, 9, ReadShape::RowIdSet),
                (0, 9, ReadShape::KeyRuns),
                (0, 9, ReadShape::Count),
                (0, 9, ReadShape::Sum),
            ]
        );
        assert!(index.latch_attribution().is_empty());
    }
}
