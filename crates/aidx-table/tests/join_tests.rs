//! Equi-join tests: every physical strategy against the dual-oracle
//! nested loop on every backend, the planner's bootstrap behaviour, and
//! the edge cases (empty filtered sides, all-duplicate keys, extreme
//! keys, self-joins), plus a property test interleaving joins with tuple
//! writes under aggressive incremental compaction.

use aidx_core::{CompactionPolicy, LatchProtocol};
use aidx_table::{
    CheckedTableEngine, ColumnPredicate, JoinStrategy, TableBackend, TableEngine, TableOp,
};
use proptest::prelude::*;
use std::sync::Arc;

fn backends() -> Vec<TableBackend> {
    vec![
        TableBackend::Serial(LatchProtocol::Piece),
        TableBackend::Serial(LatchProtocol::Column),
        TableBackend::Range { partitions: 2 },
    ]
}

fn strategies() -> [JoinStrategy; 4] {
    [
        JoinStrategy::Gallop,
        JoinStrategy::Hash,
        JoinStrategy::NestedLoop,
        JoinStrategy::Auto,
    ]
}

/// A dimension table ("key", "attr") and a fact table ("fk", "val") as
/// checked engines over the given backend.
fn star_pair(
    backend: TableBackend,
    dim: &[(i64, i64)],
    fact: &[(i64, i64)],
) -> (CheckedTableEngine, CheckedTableEngine) {
    let (dkey, dattr): (Vec<i64>, Vec<i64>) = dim.iter().copied().unzip();
    let (ffk, fval): (Vec<i64>, Vec<i64>) = fact.iter().copied().unzip();
    let dim_cols = vec![dkey.clone(), dattr.clone()];
    let fact_cols = vec![ffk.clone(), fval.clone()];
    let dim_engine = TableEngine::new(
        "dim",
        vec![("key".into(), dkey), ("attr".into(), dattr)],
        backend,
        CompactionPolicy::rows(16).incremental(4),
    );
    let fact_engine = TableEngine::new(
        "fact",
        vec![("fk".into(), ffk), ("val".into(), fval)],
        backend,
        CompactionPolicy::rows(16).incremental(4),
    );
    (
        CheckedTableEngine::new(dim_engine, &dim_cols),
        CheckedTableEngine::new(fact_engine, &fact_cols),
    )
}

#[test]
fn every_strategy_matches_the_dual_oracle_on_every_backend() {
    let dim: Vec<(i64, i64)> = (0..60).map(|i| ((i * 13) % 60, i % 7)).collect();
    let fact: Vec<(i64, i64)> = (0..400).map(|i| ((i * 48271) % 90, i)).collect();
    for backend in backends() {
        for strategy in strategies() {
            let (dim_t, fact_t) = star_pair(backend, &dim, &fact);
            // Unfiltered, dim-filtered, fact-filtered, both-filtered.
            let filter_sets: [(Vec<ColumnPredicate>, Vec<ColumnPredicate>); 4] = [
                (vec![], vec![]),
                (vec![ColumnPredicate::new(1, 0, 3)], vec![]),
                (vec![], vec![ColumnPredicate::new(1, 50, 250)]),
                (
                    vec![ColumnPredicate::new(0, 10, 45)],
                    vec![ColumnPredicate::new(0, 0, 70)],
                ),
            ];
            for (fl, fr) in &filter_sets {
                let result = dim_t.execute_join(&fact_t, 0, 0, fl, fr, strategy);
                assert_eq!(result.value, result.pairs.len() as i128);
                assert!(result.rowids.is_empty());
            }
            assert_eq!(
                dim_t.mismatches(),
                vec![],
                "{} {:?} diverged from the dual oracle",
                dim_t.inner().name(),
                strategy
            );
        }
    }
}

#[test]
fn empty_filtered_side_yields_no_pairs() {
    let dim: Vec<(i64, i64)> = (0..40).map(|i| (i, i % 5)).collect();
    let fact: Vec<(i64, i64)> = (0..100).map(|i| (i % 40, i)).collect();
    for backend in backends() {
        for strategy in strategies() {
            let (dim_t, fact_t) = star_pair(backend, &dim, &fact);
            // attr < -10 matches nothing on the dimension side.
            let result = dim_t.execute_join(
                &fact_t,
                0,
                0,
                &[ColumnPredicate::new(1, -100, -10)],
                &[],
                strategy,
            );
            assert_eq!(result.value, 0);
            assert!(result.pairs.is_empty());
            // And an empty fact side, symmetric.
            let result = dim_t.execute_join(
                &fact_t,
                0,
                0,
                &[],
                &[ColumnPredicate::new(0, 900, 1000)],
                strategy,
            );
            assert_eq!(result.value, 0);
            assert_eq!(dim_t.mismatches(), vec![]);
        }
    }
}

#[test]
fn all_duplicate_join_keys_emit_the_full_cross_product() {
    // 25 dim rows and 30 fact rows all carrying the same key: the join
    // is one giant duplicate group, 750 pairs, on every strategy.
    let dim: Vec<(i64, i64)> = (0..25).map(|i| (5, i)).collect();
    let fact: Vec<(i64, i64)> = (0..30).map(|i| (5, i)).collect();
    for backend in backends() {
        for strategy in strategies() {
            let (dim_t, fact_t) = star_pair(backend, &dim, &fact);
            let result = dim_t.execute_join(&fact_t, 0, 0, &[], &[], strategy);
            assert_eq!(result.value, 750, "{:?}", strategy);
            assert_eq!(result.pairs.len(), 750);
            assert_eq!(dim_t.mismatches(), vec![]);
        }
    }
}

#[test]
fn extreme_keys_join_correctly() {
    // i64::MIN and i64::MAX - 1 (i64::MAX itself is outside the engine's
    // key domain) must survive the window arithmetic on both sides.
    let dim = vec![(i64::MIN, 0), (i64::MAX - 1, 1), (0, 2)];
    let fact = vec![(i64::MIN, 10), (i64::MIN, 11), (i64::MAX - 1, 12), (7, 13)];
    for backend in backends() {
        for strategy in strategies() {
            let (dim_t, fact_t) = star_pair(backend, &dim, &fact);
            let result = dim_t.execute_join(&fact_t, 0, 0, &[], &[], strategy);
            assert_eq!(result.value, 3, "{:?}", strategy);
            assert_eq!(result.pairs, vec![(0, 0), (0, 1), (1, 2)]);
            assert_eq!(dim_t.mismatches(), vec![]);
        }
    }
}

#[test]
fn self_join_takes_one_fence_and_matches_the_oracle() {
    let rows: Vec<(i64, i64)> = (0..50).map(|i| ((i * 3) % 10, i)).collect();
    for backend in backends() {
        for strategy in strategies() {
            let (table, _) = star_pair(backend, &rows, &[(0, 0)]);
            let result = table.execute_join(&table, 0, 0, &[], &[], strategy);
            // Each key value appears 5 times -> 25 pairs per value, 10
            // values.
            assert_eq!(result.value, 250, "{:?}", strategy);
            assert_eq!(table.mismatches(), vec![]);
        }
    }
}

#[test]
fn join_executes_through_the_table_op_enum() {
    let dim: Vec<(i64, i64)> = (0..30).map(|i| (i, i % 3)).collect();
    let fact: Vec<(i64, i64)> = (0..90).map(|i| (i % 30, i)).collect();
    let (dkey, dattr): (Vec<i64>, Vec<i64>) = dim.iter().copied().unzip();
    let (ffk, fval): (Vec<i64>, Vec<i64>) = fact.iter().copied().unzip();
    let dim_engine = TableEngine::new(
        "dim",
        vec![("key".into(), dkey), ("attr".into(), dattr)],
        TableBackend::Serial(LatchProtocol::Piece),
        CompactionPolicy::disabled(),
    );
    let fact_engine = Arc::new(TableEngine::new(
        "fact",
        vec![("fk".into(), ffk), ("val".into(), fval)],
        TableBackend::Serial(LatchProtocol::Piece),
        CompactionPolicy::disabled(),
    ));
    let op = TableOp::Join {
        other: Arc::clone(&fact_engine),
        left_col: 0,
        right_col: 0,
        filters_left: vec![ColumnPredicate::new(1, 0, 2)],
        filters_right: vec![],
        strategy: JoinStrategy::Auto,
    };
    assert!(op.is_read());
    assert_eq!(op, op.clone(), "join ops compare by engine identity");
    let result = dim_engine.execute(&op);
    // attr in {0, 1}: 20 dim rows survive, each matching 3 fact rows.
    assert_eq!(result.value, 60);
    assert_eq!(result.pairs.len(), 60);
    assert!(result.metrics.join_pairs >= 60);
}

#[test]
fn auto_bootstraps_both_rowid_strategies_and_never_picks_nested_loop() {
    let dim: Vec<(i64, i64)> = (0..200).map(|i| (i, i % 11)).collect();
    let fact: Vec<(i64, i64)> = (0..2000).map(|i| ((i * 48271) % 200, i)).collect();
    let (dim_t, fact_t) = star_pair(TableBackend::Serial(LatchProtocol::Piece), &dim, &fact);
    for i in 0..8i64 {
        let window = ColumnPredicate::new(0, i * 20, i * 20 + 40);
        dim_t.execute_join(&fact_t, 0, 0, &[window], &[], JoinStrategy::Auto);
    }
    let (gallop, hash, nested) = dim_t.inner().join_strategy_counts();
    assert_eq!(gallop + hash, 8, "every auto join ran a rowid strategy");
    assert!(gallop >= 1, "the unmeasured gallop path bootstraps first");
    assert!(hash >= 1, "the unmeasured hash path bootstraps second");
    assert_eq!(nested, 0, "nested-loop is never auto-picked");
    assert_eq!(dim_t.mismatches(), vec![]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn joins_interleaved_with_writes_match_the_dual_oracle(
        dim in prop::collection::vec((-30i64..30, -30i64..30), 0..30),
        fact in prop::collection::vec((-40i64..40, -40i64..40), 0..60),
        ops in prop::collection::vec(
            (0u8..5, -40i64..40, -40i64..40, -40i64..40),
            1..30,
        ),
    ) {
        for backend in backends() {
            let (dim_t, fact_t) = star_pair(backend, &dim, &fact);
            for (i, &(kind, a, b, c)) in ops.iter().enumerate() {
                let (low, high) = if a <= b { (a, b) } else { (b, a) };
                let strategy = strategies()[i % 4];
                match kind {
                    0 => {
                        dim_t.execute_join(&fact_t, 0, 0, &[], &[], strategy);
                    }
                    1 => {
                        dim_t.execute_join(
                            &fact_t,
                            0,
                            0,
                            &[ColumnPredicate::new(0, low, high)],
                            &[ColumnPredicate::new(1, c.min(a), c.max(b))],
                            strategy,
                        );
                    }
                    2 => {
                        dim_t.execute(&TableOp::InsertTuple(vec![a, b]));
                        fact_t.execute(&TableOp::InsertTuple(vec![b, c]));
                    }
                    3 => {
                        dim_t.execute(&TableOp::DeleteWhere { column: 0, value: a });
                    }
                    _ => {
                        fact_t.execute(&TableOp::DeleteWhere {
                            column: (c.unsigned_abs() % 2) as usize,
                            value: a,
                        });
                    }
                }
            }
            prop_assert_eq!(
                dim_t.mismatches(),
                vec![],
                "{} join side diverged",
                dim_t.inner().name()
            );
            prop_assert_eq!(fact_t.mismatches(), vec![]);
            prop_assert!(dim_t.inner().check_invariants());
            prop_assert!(fact_t.inner().check_invariants());
        }
    }
}
