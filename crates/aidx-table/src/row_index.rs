//! The rowid-carrying single-column index surface a table engine builds
//! on: one implementation per concurrency design of the single-column
//! stack, so "serial vs chunked vs range-partitioned" is a per-table
//! configuration knob rather than three different engines.

use aidx_core::{
    ConcurrentCracker, KeyRuns, QueryMetrics, ReadAnswer, ReadShape, RowIdSet, Snapshot, WriteOp,
};
use aidx_obs::StructureProbe;
use aidx_parallel::{ChunkedCracker, ChunkedSnapshot, RangePartitionedCracker, RangeSnapshot};
use aidx_storage::RowId;

/// One column read surface: a backend answering *now* (refining as a side
/// effect), or a pinned handle answering at the epoch it was opened at. A
/// reader implements one `read`; every typed read is a provided wrapper.
pub trait ColumnRead {
    /// One `shape` read over `[low, high)`, refining the index as a side
    /// effect — the single read a reader implements; the typed reads
    /// below all go through it.
    fn read(&self, low: i64, high: i64, shape: ReadShape) -> (ReadAnswer, QueryMetrics);

    /// Row ids of every live row whose value falls in `[low, high)`,
    /// sorted ascending.
    fn select_rowids(&self, low: i64, high: i64) -> (Vec<RowId>, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::RowIds);
        (answer.into_rowids(), metrics)
    }

    /// Same read, but as a block-compressed [`RowIdSet`] — the planner's
    /// working representation for multi-predicate intersection (galloping
    /// seeks skip whole blocks of the larger side).
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

    /// Q1 over the column (used by tests and diagnostics; the planner
    /// estimates selectivity from predicate widths instead, so estimating
    /// never cracks).
    fn count(&self, low: i64, high: i64) -> (u64, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::Count);
        (answer.into_agg() as u64, metrics)
    }
}

/// A single-column adaptive index whose reads yield *row ids* (tuple
/// identity) and whose writes are positional: the caller owns the row-id
/// space, so several instances over different columns of one table stay
/// aligned through any amount of per-column physical reorganisation. A
/// backend implements one `read`, one `pin` and one `write`; every typed
/// method is a provided wrapper.
pub trait RowIndex: ColumnRead + Send + Sync {
    /// Opens a pinned read handle at the column's current epoch: reads
    /// through it still refine the index, but answer as of this call
    /// whatever writes land later. The registration is released when the
    /// handle drops.
    fn pin(&self) -> Box<dyn ColumnRead + '_>;

    /// Applies one write and returns `(rows affected, metrics)` — the
    /// single write a backend implements; the typed writes below go
    /// through it.
    fn write(&self, op: WriteOp) -> (u64, QueryMetrics);

    /// Inserts one row with an externally assigned row id.
    fn insert_row(&self, value: i64, rowid: RowId) -> QueryMetrics {
        self.write(WriteOp::Insert { value, rowid }).1
    }

    /// Deletes one specific row `(value, rowid)`; returns 0 or 1.
    fn delete_row(&self, value: i64, rowid: RowId) -> (u64, QueryMetrics) {
        self.write(WriteOp::DeleteRow { value, rowid })
    }

    /// Quiescent structural self-check.
    fn check_invariants(&self) -> bool;

    /// Raw structure observation: piece layout, delta pressure, routed
    /// load (partitioned backends only).
    fn structure_probe(&self) -> StructureProbe;
}

impl ColumnRead for ConcurrentCracker {
    fn read(&self, low: i64, high: i64, shape: ReadShape) -> (ReadAnswer, QueryMetrics) {
        ConcurrentCracker::read(self, low, high, None, shape)
    }
}

impl RowIndex for ConcurrentCracker {
    fn pin(&self) -> Box<dyn ColumnRead + '_> {
        Box::new(self.snapshot())
    }

    fn write(&self, op: WriteOp) -> (u64, QueryMetrics) {
        ConcurrentCracker::write(self, op)
    }

    fn check_invariants(&self) -> bool {
        ConcurrentCracker::check_invariants(self)
    }

    fn structure_probe(&self) -> StructureProbe {
        ConcurrentCracker::structure_probe(self)
    }
}

impl ColumnRead for ChunkedCracker {
    fn read(&self, low: i64, high: i64, shape: ReadShape) -> (ReadAnswer, QueryMetrics) {
        ChunkedCracker::read(self, low, high, shape)
    }
}

impl RowIndex for ChunkedCracker {
    fn pin(&self) -> Box<dyn ColumnRead + '_> {
        Box::new(self.snapshot())
    }

    fn write(&self, op: WriteOp) -> (u64, QueryMetrics) {
        ChunkedCracker::write(self, op)
    }

    fn check_invariants(&self) -> bool {
        ChunkedCracker::check_invariants(self)
    }

    fn structure_probe(&self) -> StructureProbe {
        ChunkedCracker::structure_probe(self)
    }
}

impl ColumnRead for RangePartitionedCracker {
    fn read(&self, low: i64, high: i64, shape: ReadShape) -> (ReadAnswer, QueryMetrics) {
        RangePartitionedCracker::read(self, low, high, shape)
    }
}

impl RowIndex for RangePartitionedCracker {
    fn pin(&self) -> Box<dyn ColumnRead + '_> {
        Box::new(self.snapshot())
    }

    fn write(&self, op: WriteOp) -> (u64, QueryMetrics) {
        RangePartitionedCracker::write(self, op)
    }

    fn check_invariants(&self) -> bool {
        RangePartitionedCracker::check_invariants(self)
    }

    fn structure_probe(&self) -> StructureProbe {
        RangePartitionedCracker::structure_probe(self)
    }
}

impl ColumnRead for Snapshot<'_> {
    fn read(&self, low: i64, high: i64, shape: ReadShape) -> (ReadAnswer, QueryMetrics) {
        Snapshot::read(self, low, high, shape)
    }
}

impl ColumnRead for ChunkedSnapshot<'_> {
    fn read(&self, low: i64, high: i64, shape: ReadShape) -> (ReadAnswer, QueryMetrics) {
        ChunkedSnapshot::read(self, low, high, shape)
    }
}

impl ColumnRead for RangeSnapshot<'_> {
    fn read(&self, low: i64, high: i64, shape: ReadShape) -> (ReadAnswer, QueryMetrics) {
        RangeSnapshot::read(self, low, high, shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aidx_core::facade::Mutex;

    /// A backend that implements only the required methods and logs what
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

    impl RowIndex for Recorder {
        fn pin(&self) -> Box<dyn ColumnRead + '_> {
            Box::new(Recorder::default())
        }

        fn write(&self, op: WriteOp) -> (u64, QueryMetrics) {
            self.writes.lock().push(op);
            (1, QueryMetrics::default())
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
        assert_eq!(index.delete_row(4, 40).0, 1);
        index.select_rowids(0, 9);
        index.select_rowid_set(0, 9);
        index.select_key_runs(0, 9);
        index.count(0, 9);
        assert_eq!(
            *index.writes.lock(),
            [
                WriteOp::Insert {
                    value: 4,
                    rowid: 40
                },
                WriteOp::DeleteRow {
                    value: 4,
                    rowid: 40
                },
            ]
        );
        assert_eq!(
            *index.reads.lock(),
            [
                (0, 9, ReadShape::RowIds),
                (0, 9, ReadShape::RowIdSet),
                (0, 9, ReadShape::KeyRuns),
                (0, 9, ReadShape::Count),
            ]
        );
    }

    #[test]
    fn a_pin_answers_at_its_epoch_on_every_backend() {
        let values = vec![3, 1, 4, 1, 5, 9, 2, 6];
        let rowids: Vec<RowId> = (0..values.len() as RowId).collect();
        let backends: Vec<Box<dyn RowIndex>> = vec![
            Box::new(ConcurrentCracker::from_rows(
                values.clone(),
                rowids.clone(),
                aidx_core::LatchProtocol::Piece,
            )),
            Box::new(ChunkedCracker::from_rows(
                values.clone(),
                rowids.clone(),
                2,
                aidx_core::LatchProtocol::Piece,
                aidx_core::RefinementPolicy::Always,
            )),
            Box::new(RangePartitionedCracker::from_rows(
                values.clone(),
                rowids.clone(),
                2,
                aidx_core::CompactionPolicy::disabled(),
            )),
        ];
        for index in &backends {
            let pin = index.pin();
            index.insert_row(4, 100);
            index.delete_row(1, 1);
            assert_eq!(pin.select_rowids(0, 10).0, [0, 1, 2, 3, 4, 5, 6, 7]);
            assert_eq!(index.select_rowids(0, 5).0, [0, 2, 3, 6, 100]);
            drop(pin);
            assert_eq!(index.count(0, 10).0, 8);
        }
    }
}
