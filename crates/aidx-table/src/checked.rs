//! The verifying table-engine wrapper: every operation replays against a
//! `BTreeMap<RowId, tuple>` oracle, and *row-id sets* — tuple identity,
//! not just counts — must agree. The oracle lock is held across the
//! inner engine call, so under concurrent clients the oracle replays
//! exactly the engine's linearization order (use it to check
//! correctness, not to measure scalability).
//!
//! Joins span two tables, so they need two oracles:
//! [`CheckedTableEngine::execute_join`] takes the partner wrapper, locks
//! both oracles in address order (one for a self-join), and compares the
//! engine's pair set tuple-for-tuple against a dual-oracle nested loop.

use crate::engine::TableEngine;
use crate::ops::{ColumnPredicate, JoinStrategy, TableOp, TableOpResult};
use aidx_core::facade::Mutex;
use aidx_cracking::RowId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One operation whose table-engine result disagreed with the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableMismatch {
    /// The operation that disagreed.
    pub op: TableOp,
    /// What the engine returned (count plus rowid set).
    pub got: (i128, Vec<RowId>),
    /// What the oracle expected.
    pub expected: (i128, Vec<RowId>),
    /// Joins only: the engine's `(left, right)` pair set.
    pub got_pairs: Vec<(RowId, RowId)>,
    /// Joins only: the dual-oracle nested loop's pair set.
    pub expected_pairs: Vec<(RowId, RowId)>,
}

/// A [`TableEngine`] checked op-by-op against a tuple oracle.
#[derive(Debug)]
pub struct CheckedTableEngine {
    inner: Arc<TableEngine>,
    oracle: Mutex<BTreeMap<RowId, Vec<i64>>>,
    mismatches: Mutex<Vec<TableMismatch>>,
}

impl CheckedTableEngine {
    /// Wraps `engine`, seeding the oracle with the base tuples
    /// (`columns` is the same column-major data the engine was built
    /// over; row ids are positional).
    pub fn new(engine: TableEngine, columns: &[Vec<i64>]) -> Self {
        let rows = columns.first().map(Vec::len).unwrap_or(0);
        let mut oracle = BTreeMap::new();
        for rowid in 0..rows {
            let tuple: Vec<i64> = columns.iter().map(|col| col[rowid]).collect();
            oracle.insert(rowid as RowId, tuple);
        }
        CheckedTableEngine {
            inner: Arc::new(engine),
            oracle: Mutex::new(oracle),
            mismatches: Mutex::new(Vec::new()),
        }
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &TableEngine {
        &self.inner
    }

    /// The wrapped engine as a shared handle — what a [`TableOp::Join`]
    /// targeting this table needs for its `other` field.
    pub fn inner_arc(&self) -> Arc<TableEngine> {
        Arc::clone(&self.inner)
    }

    /// Operations whose results disagreed with the oracle.
    pub fn mismatches(&self) -> Vec<TableMismatch> {
        self.mismatches.lock().clone()
    }

    /// Executes one operation, recording any oracle disagreement.
    ///
    /// A [`TableOp::Join`] executes *unchecked* here: this wrapper holds
    /// only its own table's oracle, and the op's `other` engine carries
    /// none. Use [`CheckedTableEngine::execute_join`] with the partner
    /// wrapper for the verified path.
    pub fn execute(&self, op: &TableOp) -> TableOpResult {
        if matches!(op, TableOp::Join { .. }) {
            return self.inner.execute(op);
        }
        // Hold the oracle across the engine call: the pair becomes one
        // atomic step, so the oracle replays the engine's linearization.
        let mut oracle = self.oracle.lock();
        let result = self.inner.execute(op);
        if let TableOp::SelectMulti(predicates) = op {
            // Lockstep comparison against the oracle's filtered
            // iterator: the expected rowid vector is materialised only
            // on an actual disagreement (selects dominate checked runs,
            // and their answers can span millions of ids).
            if select_agrees(&oracle, predicates, &result) {
                return result;
            }
        }
        let expected = oracle_apply(&mut oracle, op, &result);
        drop(oracle);
        let got = (result.value, result.rowids.clone());
        if got != expected {
            self.mismatches.lock().push(TableMismatch {
                op: op.clone(),
                got,
                expected,
                got_pairs: Vec::new(),
                expected_pairs: Vec::new(),
            });
        }
        result
    }

    /// Executes one equi-join against `other`'s engine and verifies the
    /// result pair set tuple-for-tuple against a dual-oracle nested loop.
    /// Both oracles are locked in address order across the engine call
    /// (a self-join locks one), so concurrent checked writers on either
    /// table replay in the join's linearization order without deadlock.
    pub fn execute_join(
        &self,
        other: &CheckedTableEngine,
        left_col: usize,
        right_col: usize,
        filters_left: &[ColumnPredicate],
        filters_right: &[ColumnPredicate],
        strategy: JoinStrategy,
    ) -> TableOpResult {
        let self_addr = self as *const CheckedTableEngine as usize;
        let other_addr = other as *const CheckedTableEngine as usize;
        let first;
        let mut second = None;
        if self_addr == other_addr {
            first = self.oracle.lock();
        } else if self_addr < other_addr {
            first = self.oracle.lock();
            second = Some(other.oracle.lock());
        } else {
            first = other.oracle.lock();
            second = Some(self.oracle.lock());
        }
        let (left_oracle, right_oracle): (&BTreeMap<_, _>, &BTreeMap<_, _>) =
            if self_addr == other_addr {
                (&first, &first)
            } else if self_addr < other_addr {
                (&first, second.as_deref().expect("locked above"))
            } else {
                (second.as_deref().expect("locked above"), &first)
            };
        let result = self.inner.execute_join(
            &other.inner,
            left_col,
            right_col,
            filters_left,
            filters_right,
            strategy,
        );
        let expected = oracle_join_pairs(
            left_oracle,
            right_oracle,
            left_col,
            right_col,
            filters_left,
            filters_right,
        );
        drop(second);
        drop(first);
        if result.pairs != expected || result.value != expected.len() as i128 {
            self.mismatches.lock().push(TableMismatch {
                op: TableOp::Join {
                    other: other.inner_arc(),
                    left_col,
                    right_col,
                    filters_left: filters_left.to_vec(),
                    filters_right: filters_right.to_vec(),
                    strategy,
                },
                got: (result.value, Vec::new()),
                expected: (expected.len() as i128, Vec::new()),
                got_pairs: result.pairs.clone(),
                expected_pairs: expected,
            });
        }
        result
    }
}

/// Streaming rowid-for-rowid check of a select against the oracle's
/// qualifying-tuple iterator (both sides ascend by row id).
fn select_agrees(
    oracle: &BTreeMap<RowId, Vec<i64>>,
    predicates: &[ColumnPredicate],
    result: &TableOpResult,
) -> bool {
    result.value == result.rowids.len() as i128
        && oracle
            .iter()
            .filter(|(_, tuple)| predicates.iter().all(|p| p.matches(tuple[p.column])))
            .map(|(&rowid, _)| rowid)
            .eq(result.rowids.iter().copied())
}

/// The dual-oracle nested-loop join: every filtered left tuple against
/// every filtered right tuple. `BTreeMap` iteration ascends by row id on
/// both levels, so the output is already in the engines' sorted-pair
/// order.
fn oracle_join_pairs(
    left: &BTreeMap<RowId, Vec<i64>>,
    right: &BTreeMap<RowId, Vec<i64>>,
    left_col: usize,
    right_col: usize,
    filters_left: &[ColumnPredicate],
    filters_right: &[ColumnPredicate],
) -> Vec<(RowId, RowId)> {
    let right_side: Vec<(RowId, i64)> = right
        .iter()
        .filter(|(_, tuple)| filters_right.iter().all(|p| p.matches(tuple[p.column])))
        .map(|(&rowid, tuple)| (rowid, tuple[right_col]))
        .collect();
    let mut out = Vec::new();
    for (&lrowid, ltuple) in left
        .iter()
        .filter(|(_, tuple)| filters_left.iter().all(|p| p.matches(tuple[p.column])))
    {
        let lkey = ltuple[left_col];
        for &(rrowid, rkey) in &right_side {
            if lkey == rkey {
                out.push((lrowid, rrowid));
            }
        }
    }
    out
}

/// Applies one table operation to the tuple oracle and returns the
/// `(count, sorted rowid set)` a correct engine must produce. Inserts
/// adopt the engine's assigned row id (identity is the engine's to
/// assign; everything downstream of the assignment is checked).
///
/// [`TableOp::Join`] is cross-table and cannot be replayed against one
/// table's oracle; it echoes the engine's own result (the verified path
/// is [`CheckedTableEngine::execute_join`]).
pub fn oracle_apply(
    oracle: &mut BTreeMap<RowId, Vec<i64>>,
    op: &TableOp,
    result: &TableOpResult,
) -> (i128, Vec<RowId>) {
    match op {
        TableOp::SelectMulti(predicates) => {
            let rowids: Vec<RowId> = oracle
                .iter()
                .filter(|(_, tuple)| predicates.iter().all(|p| p.matches(tuple[p.column])))
                .map(|(&rowid, _)| rowid)
                .collect();
            (rowids.len() as i128, rowids)
        }
        TableOp::InsertTuple(tuple) => {
            let expected_rowids = result.rowids.clone();
            if let Some(&rowid) = result.rowids.first() {
                let fresh = oracle.insert(rowid, tuple.clone()).is_none();
                debug_assert!(fresh, "engine reused row id {rowid}");
            }
            (1, expected_rowids)
        }
        TableOp::DeleteWhere { column, value } => {
            let doomed: Vec<RowId> = oracle
                .iter()
                .filter(|(_, tuple)| tuple[*column] == *value)
                .map(|(&rowid, _)| rowid)
                .collect();
            for rowid in &doomed {
                oracle.remove(rowid);
            }
            (doomed.len() as i128, doomed)
        }
        TableOp::Join { .. } => (result.value, result.rowids.clone()),
    }
}
