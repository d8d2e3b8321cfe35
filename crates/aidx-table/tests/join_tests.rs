//! Equi-join tests: the engine's join and the nested-loop baseline
//! against the dual-oracle nested loop on every backend, what the join
//! reads (no candidate set for key-window filters, the cracks of a select
//! over the same window, either table on either side), the edge cases
//! (empty filtered sides, all-duplicate keys, extreme keys, self-joins),
//! plus a property test interleaving joins with tuple writes under
//! aggressive incremental compaction.

mod common;

use aidx_core::{CompactionPolicy, LatchProtocol};
use aidx_table::{
    CheckedTableEngine, ColumnPredicate, JoinStrategy, TableBackend, TableEngine, TableOp,
};
use common::draws;
use proptest::prelude::*;
use std::sync::Arc;

fn backends() -> Vec<TableBackend> {
    vec![
        TableBackend::Serial(LatchProtocol::Piece),
        TableBackend::Serial(LatchProtocol::Column),
        TableBackend::Range { partitions: 2 },
    ]
}

fn strategies() -> [JoinStrategy; 2] {
    [JoinStrategy::NestedLoop, JoinStrategy::Auto]
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

/// A table's rows as `(column 0, column 1)` pairs.
type Rows = Vec<(i64, i64)>;

/// A dimension of `dim` rows with unique keys `rank × stride` in shuffled
/// row order and attributes in `[0, dim)`, and a fact of `fact` rows whose
/// foreign keys are uniform over the key domain, or, when `skewed`,
/// log-uniform over the dimension's ranks: zipfian, a few hot keys
/// collecting most of the fact rows.
fn scenario(dim: i64, fact: i64, stride: i64, skewed: bool) -> (Rows, Rows) {
    let mut draw = draws(0xA11E);
    let mut keys: Vec<i64> = (0..dim).map(|rank| rank * stride).collect();
    for i in (1..keys.len()).rev() {
        keys.swap(i, draw(i as i64 + 1) as usize);
    }
    let dim_rows = keys.into_iter().map(|key| (key, draw(dim))).collect();
    let mut fk = || match skewed {
        true => ((dim as f64).powf(draw(1 << 30) as f64 / (1 << 30) as f64) as i64 - 1) * stride,
        false => draw(dim * stride),
    };
    let fact_rows = (0..fact).map(|val| (fk(), val)).collect();
    (dim_rows, fact_rows)
}

/// The three join scenarios, every join checked against the dual oracle
/// on the serial and the range backend under both strategies: aligned
/// keys and zipfian foreign keys under key-window filters, and keys
/// strided 16 apart (few fact rows match) under attribute filters, which
/// leave the key window open.
#[test]
fn joins_in_three_scenarios_match_the_dual_oracle() {
    let (dim, fact) = (512, 8_192);
    for (name, stride, skewed) in [
        ("aligned", 1, false),
        ("zipf", 1, true),
        ("strided", 16, false),
    ] {
        let (dim_rows, fact_rows) = scenario(dim, fact, stride, skewed);
        let mut draw = draws(0x9E37);
        let filters: Vec<ColumnPredicate> = (0..12)
            .map(|_| match stride {
                1 => {
                    let low = draw(dim - dim / 50);
                    ColumnPredicate::new(0, low, low + dim / 50)
                }
                _ => {
                    let low = draw(dim - dim / 50);
                    ColumnPredicate::new(1, low, low + dim / 50)
                }
            })
            .collect();
        for backend in [
            TableBackend::Serial(LatchProtocol::Piece),
            TableBackend::Range { partitions: 3 },
        ] {
            for strategy in strategies() {
                let (dim_t, fact_t) = star_pair(backend, &dim_rows, &fact_rows);
                let mut pairs = 0;
                for filter in &filters {
                    let result = dim_t.execute_join(
                        &fact_t,
                        0,
                        0,
                        std::slice::from_ref(filter),
                        &[],
                        strategy,
                    );
                    assert_eq!(result.value, result.pairs.len() as i128);
                    pairs += result.pairs.len();
                }
                assert!(pairs > 0, "{name}: the joins match rows");
                let label = format!("{name} {} {strategy:?}", dim_t.inner().name());
                assert_eq!(dim_t.mismatches(), vec![], "{label}");
                assert!(dim_t.inner().check_invariants(), "{label}");
                assert!(fact_t.inner().check_invariants(), "{label}");
            }
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

/// The star pair the join-plan tests share: 200 dimension keys, 2 000
/// fact rows whose foreign keys cover them.
fn plan_pair(backend: TableBackend) -> (CheckedTableEngine, CheckedTableEngine) {
    let dim: Vec<(i64, i64)> = (0..200).map(|i| (i, i % 11)).collect();
    let fact: Vec<(i64, i64)> = (0..2000).map(|i| ((i * 48271) % 200, i)).collect();
    star_pair(backend, &dim, &fact)
}

/// Filters on the join column are the join's key window, so a join whose
/// filters all sit there builds no candidate set on either side.
#[test]
fn a_join_filtered_on_its_key_builds_no_candidate_set() {
    for backend in backends() {
        let (dim_t, fact_t) = plan_pair(backend);
        for i in 0..8i64 {
            let window = ColumnPredicate::new(0, i * 20, i * 20 + 40);
            let overlapping = ColumnPredicate::new(0, i * 20 + 5, i * 20 + 60);
            for (fl, fr) in [
                (vec![window], vec![]),
                (vec![], vec![window]),
                (vec![window], vec![overlapping]),
            ] {
                let result = dim_t.execute_join(&fact_t, 0, 0, &fl, &fr, JoinStrategy::Auto);
                assert!(result.value > 0);
                assert_eq!(
                    result.metrics.candidate_set_bytes,
                    0,
                    "{}: {fl:?} ⋈ {fr:?}",
                    dim_t.inner().name()
                );
            }
            // An attribute filter still builds its side's candidate set.
            let attr = ColumnPredicate::new(1, 0, 5);
            let result = dim_t.execute_join(&fact_t, 0, 0, &[attr], &[], JoinStrategy::Auto);
            assert!(result.metrics.candidate_set_bytes > 0);
        }
        assert_eq!(dim_t.mismatches(), vec![]);
    }
}

/// A key-window join reads each join column once, at the window: it
/// leaves every column of both tables with the pieces of a twin pair
/// that ran a select over the same window on each join column.
#[test]
fn a_key_window_join_cracks_like_a_select_over_the_window() {
    let pieces = |t: &CheckedTableEngine| -> Vec<usize> {
        let t = t.inner();
        (0..t.column_count())
            .map(|c| t.column_index(c).piece_count())
            .collect()
    };
    for backend in backends() {
        let (dim_t, fact_t) = plan_pair(backend);
        let (dim_twin, fact_twin) = plan_pair(backend);
        for i in 0..8i64 {
            let (low, high) = ((i * 37) % 160, (i * 37) % 160 + 30);
            let window = ColumnPredicate::new(0, low, high);
            dim_t.execute_join(&fact_t, 0, 0, &[window], &[], JoinStrategy::Auto);
            dim_twin.execute(&TableOp::SelectMulti(vec![window]));
            fact_twin.execute(&TableOp::SelectMulti(vec![window]));
            let name = dim_t.inner().name();
            assert_eq!(pieces(&dim_t), pieces(&dim_twin), "{name}: join {i}");
            assert_eq!(pieces(&fact_t), pieces(&fact_twin), "{name}: join {i}");
        }
        assert!(pieces(&fact_t)[0] > 1, "the joins cracked the FK column");
        assert_eq!(dim_t.mismatches(), vec![]);
    }
}

/// The side with fewer rows builds wherever it sits, so swapping the two
/// tables returns the mirrored pair list.
#[test]
fn swapping_the_tables_flips_the_build_side_and_mirrors_the_pairs() {
    for backend in backends() {
        let (dim_t, fact_t) = plan_pair(backend);
        let queries = [
            (vec![], vec![]),
            (vec![ColumnPredicate::new(0, 30, 90)], vec![]),
            (
                vec![ColumnPredicate::new(1, 2, 6)],
                vec![ColumnPredicate::new(1, 100, 1500)],
            ),
        ];
        for (dim_filters, fact_filters) in &queries {
            let forward =
                dim_t.execute_join(&fact_t, 0, 0, dim_filters, fact_filters, JoinStrategy::Auto);
            let swapped =
                fact_t.execute_join(&dim_t, 0, 0, fact_filters, dim_filters, JoinStrategy::Auto);
            let mut mirrored: Vec<_> = swapped.pairs.iter().map(|&(f, d)| (d, f)).collect();
            mirrored.sort_unstable();
            assert!(!forward.pairs.is_empty());
            assert_eq!(forward.pairs, mirrored, "{}", dim_t.inner().name());
        }
        assert_eq!(dim_t.mismatches(), vec![]);
        assert_eq!(fact_t.mismatches(), vec![]);
    }
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
                let strategy = strategies()[i % 2];
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
