//! Table-level operations: the multi-column superset of the single-column
//! `Operation` set.

use crate::engine::TableEngine;
use aidx_core::QueryMetrics;
use aidx_cracking::RowId;
use std::sync::Arc;

/// One range predicate over one column of a table: `low <= col < high`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnPredicate {
    /// Index of the column in the table's (sorted) column order.
    pub column: usize,
    /// Inclusive lower bound.
    pub low: i64,
    /// Exclusive upper bound.
    pub high: i64,
}

impl ColumnPredicate {
    /// A predicate `low <= column < high`.
    pub fn new(column: usize, low: i64, high: i64) -> Self {
        ColumnPredicate { column, low, high }
    }

    /// Width of the predicate range (0 for empty/inverted ranges) — the
    /// planner's selectivity estimate.
    pub fn width(&self) -> u64 {
        if self.high > self.low {
            self.high.abs_diff(self.low)
        } else {
            0
        }
    }

    /// True when `value` satisfies the predicate.
    pub fn matches(&self, value: i64) -> bool {
        value >= self.low && value < self.high
    }
}

/// How an equi-join is physically executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    /// The engine's join: both sides' `(key, rowid)` runs read through
    /// their join columns at the joint key window (cracking both, so
    /// repeated joins converge), the side with fewer rows hashed and the
    /// other side's pairs probing it.
    #[default]
    Auto,
    /// Quadratic row-store baseline — the tuple-for-tuple oracle the
    /// benchmarks verify against and measure the engine's join over.
    NestedLoop,
}

impl JoinStrategy {
    /// Stable label used in trace events and reports.
    pub fn label(self) -> &'static str {
        match self {
            JoinStrategy::Auto => "auto",
            JoinStrategy::NestedLoop => "nested_loop",
        }
    }
}

/// One operation against a table engine.
#[derive(Debug, Clone)]
pub enum TableOp {
    /// Conjunctive multi-column selection: count (and return the row ids
    /// of) the tuples satisfying *every* predicate. An empty predicate
    /// list selects every live tuple (exact, because the table engine's
    /// key domain excludes `i64::MAX` — the one key a half-open range
    /// cannot address).
    SelectMulti(Vec<ColumnPredicate>),
    /// Insert one whole tuple (one value per column, in column order).
    InsertTuple(Vec<i64>),
    /// Delete every tuple whose `column` value equals `value` (SQL
    /// `DELETE WHERE col = v`), positionally across all columns.
    DeleteWhere {
        /// Index of the predicate column.
        column: usize,
        /// The key to delete.
        value: i64,
    },
    /// Key/foreign-key equi-join against another table engine: filters
    /// on a side's join column narrow the key window both sides' key
    /// runs are read over, any other filters are planned exactly like a
    /// `SelectMulti` (most-selective-first cracking, candidate row-id
    /// sets), and the survivors are joined on
    /// `self[left_col] == other[right_col]`, emitting
    /// `(left rowid, right rowid)` pairs.
    Join {
        /// The right-hand table engine.
        other: Arc<TableEngine>,
        /// Join column on the executing (left) table.
        left_col: usize,
        /// Join column on `other` (the right table).
        right_col: usize,
        /// Conjunctive filters on the left table.
        filters_left: Vec<ColumnPredicate>,
        /// Conjunctive filters on the right table.
        filters_right: Vec<ColumnPredicate>,
        /// Physical strategy ([`JoinStrategy::Auto`] = the engine's join).
        strategy: JoinStrategy,
    },
}

// Manual equality: two `Join` ops are equal when they target the *same*
// right-hand engine instance (`Arc::ptr_eq` — engines have identity, not
// value semantics) with the same plan parameters.
impl PartialEq for TableOp {
    fn eq(&self, rhs: &Self) -> bool {
        match (self, rhs) {
            (TableOp::SelectMulti(a), TableOp::SelectMulti(b)) => a == b,
            (TableOp::InsertTuple(a), TableOp::InsertTuple(b)) => a == b,
            (
                TableOp::DeleteWhere {
                    column: ca,
                    value: va,
                },
                TableOp::DeleteWhere {
                    column: cb,
                    value: vb,
                },
            ) => ca == cb && va == vb,
            (
                TableOp::Join {
                    other: oa,
                    left_col: la,
                    right_col: ra,
                    filters_left: fla,
                    filters_right: fra,
                    strategy: sa,
                },
                TableOp::Join {
                    other: ob,
                    left_col: lb,
                    right_col: rb,
                    filters_left: flb,
                    filters_right: frb,
                    strategy: sb,
                },
            ) => {
                Arc::ptr_eq(oa, ob) && la == lb && ra == rb && fla == flb && fra == frb && sa == sb
            }
            _ => false,
        }
    }
}

impl Eq for TableOp {}

impl TableOp {
    /// True for selects and joins.
    pub fn is_read(&self) -> bool {
        matches!(self, TableOp::SelectMulti(_) | TableOp::Join { .. })
    }

    /// True for inserts and deletes.
    pub fn is_write(&self) -> bool {
        !self.is_read()
    }
}

/// Result of one [`TableOp`].
#[derive(Debug, Clone)]
pub struct TableOpResult {
    /// Select: qualifying tuple count. Insert: 1. Delete: tuples removed.
    pub value: i128,
    /// Select: the qualifying row ids (sorted). Insert: the assigned row
    /// id. Delete: the removed row ids (sorted). Join: empty (the answer
    /// is [`TableOpResult::pairs`]).
    pub rowids: Vec<RowId>,
    /// Join only: the qualifying `(left rowid, right rowid)` pairs,
    /// sorted ascending (lexicographically). Empty for every other op.
    pub pairs: Vec<(RowId, RowId)>,
    /// The table's commit sequence the op is ordered at. Insert / delete:
    /// the sequence it committed (writes commit one at a time, numbered
    /// 1, 2, … in their order). Select / join: the sequence its cut was
    /// pinned at — the answer reflects exactly the writes numbered up to
    /// it (a join reports the executing, left table's).
    pub epoch: u64,
    /// Merged per-column metrics breakdown.
    pub metrics: QueryMetrics,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicate_width_and_matching() {
        let p = ColumnPredicate::new(1, 10, 20);
        assert_eq!(p.width(), 10);
        assert!(p.matches(10));
        assert!(p.matches(19));
        assert!(!p.matches(20));
        assert!(!p.matches(9));
        assert_eq!(ColumnPredicate::new(0, 5, 5).width(), 0);
        assert_eq!(ColumnPredicate::new(0, 9, 2).width(), 0);
        assert_eq!(
            ColumnPredicate::new(0, i64::MIN, i64::MAX).width(),
            u64::MAX
        );
    }

    #[test]
    fn op_read_write_classification() {
        assert!(TableOp::SelectMulti(vec![]).is_read());
        assert!(TableOp::InsertTuple(vec![1, 2]).is_write());
        assert!(TableOp::DeleteWhere {
            column: 0,
            value: 3
        }
        .is_write());
    }
}
