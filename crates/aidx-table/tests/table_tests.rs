//! Integration tests for the table engine: multi-column conjunctive
//! selections over every backend, positionally aligned writes, planner
//! behaviour, and rowid stability across physical reorganisation.

use aidx_core::{CompactionPolicy, LatchProtocol};
use aidx_storage::{Catalog, Column, RowId, Table};
use aidx_table::{CheckedTableEngine, ColumnPredicate, TableBackend, TableEngine, TableOp};

/// Deterministic pseudo-shuffled column: a permutation-ish stream over
/// `[0, n)` (same recipe the single-column tests use), offset per column
/// so the columns are decorrelated.
fn column_data(n: usize, salt: i64) -> Vec<i64> {
    (0..n as i64)
        .map(|i| ((i + salt) * 48271 + salt * 7) % n as i64)
        .collect()
}

fn backends() -> Vec<TableBackend> {
    vec![
        TableBackend::Serial(LatchProtocol::Piece),
        TableBackend::Serial(LatchProtocol::Column),
        TableBackend::Serial(LatchProtocol::None),
        TableBackend::Range { partitions: 3 },
    ]
}

/// Reference evaluation of a conjunctive select over column-major data.
fn scan_select(columns: &[Vec<i64>], predicates: &[ColumnPredicate]) -> Vec<RowId> {
    let rows = columns.first().map(Vec::len).unwrap_or(0);
    (0..rows as RowId)
        .filter(|&rowid| {
            predicates
                .iter()
                .all(|p| p.matches(columns[p.column][rowid as usize]))
        })
        .collect()
}

#[test]
fn conjunctive_selects_match_the_scan_on_every_backend() {
    let n = 3000;
    let columns = vec![column_data(n, 0), column_data(n, 1), column_data(n, 2)];
    for backend in backends() {
        let engine = TableEngine::new(
            "r",
            vec![
                ("a".into(), columns[0].clone()),
                ("b".into(), columns[1].clone()),
                ("c".into(), columns[2].clone()),
            ],
            backend,
            CompactionPolicy::disabled(),
        );
        assert_eq!(engine.column_count(), 3);
        let queries: Vec<Vec<ColumnPredicate>> = vec![
            vec![ColumnPredicate::new(0, 100, 900)],
            vec![
                ColumnPredicate::new(0, 100, 1900),
                ColumnPredicate::new(1, 500, 1200),
            ],
            vec![
                ColumnPredicate::new(0, 0, 3000),
                ColumnPredicate::new(1, 200, 2100),
                ColumnPredicate::new(2, 700, 1400),
            ],
            vec![
                ColumnPredicate::new(2, 10, 11), // highly selective driver
                ColumnPredicate::new(0, 0, 3000),
            ],
            vec![ColumnPredicate::new(1, 900, 200)], // inverted: empty
            vec![],                                  // no predicates: all rows
        ];
        for predicates in &queries {
            let result = engine.execute(&TableOp::SelectMulti(predicates.clone()));
            let expected = scan_select(&columns, predicates);
            assert_eq!(
                result.rowids,
                expected,
                "{} disagreed on {predicates:?}",
                engine.name()
            );
            assert_eq!(result.value, expected.len() as i128);
            assert_eq!(result.metrics.result_count, expected.len() as u64);
        }
        assert!(engine.check_invariants(), "{}", engine.name());
    }
}

#[test]
fn repeated_selects_stop_cracking_but_keep_answering() {
    let n = 4000;
    let engine = TableEngine::new(
        "r",
        vec![
            ("a".into(), column_data(n, 0)),
            ("b".into(), column_data(n, 1)),
        ],
        TableBackend::Serial(LatchProtocol::Piece),
        CompactionPolicy::disabled(),
    );
    let op = TableOp::SelectMulti(vec![
        ColumnPredicate::new(0, 500, 1500),
        ColumnPredicate::new(1, 1000, 2500),
    ]);
    let first = engine.execute(&op);
    assert!(
        first.metrics.cracks_performed >= 4,
        "both columns refine on a fresh index"
    );
    let second = engine.execute(&op);
    assert_eq!(second.rowids, first.rowids);
    assert_eq!(
        second.metrics.cracks_performed, 0,
        "converged: no further refinement"
    );
}

#[test]
fn writes_stay_positionally_aligned_across_all_columns() {
    let n = 2000;
    let columns = [column_data(n, 0), column_data(n, 1)];
    for backend in backends() {
        let engine = TableEngine::new(
            "r",
            vec![
                ("a".into(), columns[0].clone()),
                ("b".into(), columns[1].clone()),
            ],
            backend,
            CompactionPolicy::disabled(),
        );
        // Insert two tuples; they are visible through *both* columns.
        let r1 = engine.execute(&TableOp::InsertTuple(vec![10_000, 20_000]));
        let r2 = engine.execute(&TableOp::InsertTuple(vec![10_000, 30_000]));
        assert_eq!(r1.value, 1);
        let id1 = r1.rowids[0];
        let id2 = r2.rowids[0];
        assert_ne!(id1, id2);
        assert_eq!(engine.tuple(id1), Some(vec![10_000, 20_000]));
        let both = engine.execute(&TableOp::SelectMulti(vec![ColumnPredicate::new(
            0, 10_000, 10_001,
        )]));
        assert_eq!(both.rowids, vec![id1.min(id2), id1.max(id2)]);
        let narrowed = engine.execute(&TableOp::SelectMulti(vec![
            ColumnPredicate::new(0, 10_000, 10_001),
            ColumnPredicate::new(1, 20_000, 20_001),
        ]));
        assert_eq!(
            narrowed.rowids,
            vec![id1],
            "{}: conjunction separates the twins",
            engine.name()
        );
        // Delete by the second column's key: only the matching tuple dies,
        // in every column.
        let removed = engine.execute(&TableOp::DeleteWhere {
            column: 1,
            value: 20_000,
        });
        assert_eq!(removed.value, 1, "{}", engine.name());
        assert_eq!(removed.rowids, vec![id1]);
        let left = engine.execute(&TableOp::SelectMulti(vec![ColumnPredicate::new(
            0, 10_000, 10_001,
        )]));
        assert_eq!(left.rowids, vec![id2], "{}", engine.name());
        assert!(engine.check_invariants(), "{}", engine.name());
    }
}

#[test]
fn delete_where_kills_every_matching_tuple_but_nothing_else() {
    let engine = TableEngine::new(
        "r",
        vec![
            ("a".into(), vec![1, 2, 1, 3, 1]),
            ("b".into(), vec![10, 20, 30, 40, 50]),
        ],
        TableBackend::Serial(LatchProtocol::Piece),
        CompactionPolicy::disabled(),
    );
    let removed = engine.execute(&TableOp::DeleteWhere {
        column: 0,
        value: 1,
    });
    assert_eq!(removed.value, 3);
    assert_eq!(removed.rowids, vec![0, 2, 4]);
    // Column b lost exactly the aligned rows.
    let b_rows = engine.execute(&TableOp::SelectMulti(vec![ColumnPredicate::new(
        1,
        0,
        i64::MAX,
    )]));
    assert_eq!(b_rows.rowids, vec![1, 3]);
    // Repeat delete: nothing left.
    let removed = engine.execute(&TableOp::DeleteWhere {
        column: 0,
        value: 1,
    });
    assert_eq!(removed.value, 0);
}

#[test]
fn selects_intersect_through_compaction_and_piece_shrinking() {
    // Aggressive per-column compaction (incremental mode) while tuples
    // churn: rowid intersection must stay exact throughout.
    let n = 2000;
    let columns = [column_data(n, 0), column_data(n, 1)];
    for backend in backends() {
        let engine = TableEngine::new(
            "r",
            vec![
                ("a".into(), columns[0].clone()),
                ("b".into(), columns[1].clone()),
            ],
            backend,
            CompactionPolicy::rows(16).incremental(4),
        );
        let checked = CheckedTableEngine::new(engine, &columns);
        for i in 0..120i64 {
            checked.execute(&TableOp::InsertTuple(vec![i % 50, 5000 + i]));
            if i % 3 == 0 {
                checked.execute(&TableOp::DeleteWhere {
                    column: 0,
                    value: i % 40,
                });
            }
            checked.execute(&TableOp::SelectMulti(vec![
                ColumnPredicate::new(0, i % 30, i % 30 + 40),
                ColumnPredicate::new(1, 100, 1700),
            ]));
        }
        assert_eq!(
            checked.mismatches(),
            vec![],
            "{} diverged under churn + compaction",
            checked.inner().name()
        );
        assert!(checked.inner().check_invariants());
    }
}

#[test]
fn deleted_inserted_tuples_are_reclaimed_from_the_row_store() {
    let engine = TableEngine::new(
        "r",
        vec![("a".into(), vec![1, 2]), ("b".into(), vec![10, 20])],
        TableBackend::Serial(LatchProtocol::Piece),
        CompactionPolicy::disabled(),
    );
    let inserted = engine.execute(&TableOp::InsertTuple(vec![5, 50]));
    let rowid = inserted.rowids[0];
    assert_eq!(engine.tuple(rowid), Some(vec![5, 50]));
    assert_eq!(
        engine
            .execute(&TableOp::DeleteWhere {
                column: 0,
                value: 5
            })
            .value,
        1
    );
    assert_eq!(
        engine.tuple(rowid),
        None,
        "overlay entry reclaimed with the tuple"
    );
    // Deleted base rows keep their (unreachable) columnar slot.
    engine.execute(&TableOp::DeleteWhere {
        column: 0,
        value: 1,
    });
    assert_eq!(engine.tuple(0), Some(vec![1, 10]));
    assert!(engine
        .execute(&TableOp::SelectMulti(vec![]))
        .rowids
        .iter()
        .all(|&r| r == 1));
}

#[test]
#[should_panic(expected = "i64::MAX")]
fn max_keys_are_rejected_at_construction() {
    TableEngine::new(
        "r",
        vec![("a".into(), vec![1, i64::MAX])],
        TableBackend::Serial(LatchProtocol::Piece),
        CompactionPolicy::disabled(),
    );
}

#[test]
fn max_keys_are_rejected_at_insert_and_deletable_as_noop() {
    let engine = TableEngine::new(
        "r",
        vec![("a".into(), vec![1, 2])],
        TableBackend::Serial(LatchProtocol::Piece),
        CompactionPolicy::disabled(),
    );
    assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.execute(&TableOp::InsertTuple(vec![i64::MAX]));
    }))
    .is_err());
    // Deleting the unrepresentable key removes nothing (it cannot exist).
    let result = engine.execute(&TableOp::DeleteWhere {
        column: 0,
        value: i64::MAX,
    });
    assert_eq!(result.value, 0);
    assert_eq!(engine.execute(&TableOp::SelectMulti(vec![])).value, 2);
}

#[test]
fn engine_builds_from_catalog_tables() {
    let catalog = Catalog::new();
    let mut table = Table::new("orders");
    table
        .add_column(Column::from_values("amount", vec![5, 9, 2, 7]))
        .unwrap();
    table
        .add_column(Column::from_values("customer", vec![1, 2, 1, 3]))
        .unwrap();
    catalog.register_table(table).unwrap();
    let engine = TableEngine::from_catalog(
        &catalog,
        "orders",
        TableBackend::Serial(LatchProtocol::Piece),
        CompactionPolicy::disabled(),
    )
    .unwrap();
    assert_eq!(engine.column_names(), ["amount", "customer"]);
    let result = engine.execute(&TableOp::SelectMulti(vec![
        ColumnPredicate::new(0, 5, 10), // amount in [5, 10)
        ColumnPredicate::new(1, 1, 2),  // customer == 1
    ]));
    assert_eq!(result.rowids, vec![0]);
    assert!(TableEngine::from_catalog(
        &catalog,
        "missing",
        TableBackend::Serial(LatchProtocol::Piece),
        CompactionPolicy::disabled(),
    )
    .is_err());
}

#[test]
fn concurrent_clients_share_one_table_engine() {
    use std::sync::Arc;
    let n = 4000;
    let columns = vec![column_data(n, 0), column_data(n, 1)];
    for backend in [
        TableBackend::Serial(LatchProtocol::Piece),
        TableBackend::Range { partitions: 3 },
    ] {
        let engine = Arc::new(TableEngine::new(
            "r",
            vec![
                ("a".into(), columns[0].clone()),
                ("b".into(), columns[1].clone()),
            ],
            backend,
            CompactionPolicy::rows(64).incremental(4),
        ));
        let columns = Arc::new(columns.clone());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let engine = Arc::clone(&engine);
            let columns = Arc::clone(&columns);
            handles.push(std::thread::spawn(move || {
                let mut seed = t * 7919 + 13;
                for _ in 0..25 {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let a = (seed >> 17) as i64 % n as i64;
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let b = (seed >> 17) as i64 % n as i64;
                    let (low, high) = if a <= b { (a, b) } else { (b, a) };
                    let predicates = vec![
                        ColumnPredicate::new(0, low, high),
                        ColumnPredicate::new(1, low / 2, high),
                    ];
                    let result = engine.execute(&TableOp::SelectMulti(predicates.clone()));
                    let expected = scan_select(&columns, &predicates);
                    assert_eq!(result.rowids, expected, "[{low},{high})");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(engine.check_invariants());
    }
}

#[test]
fn structure_probes_span_every_column_and_backend() {
    let n = 3000;
    let columns = [column_data(n, 0), column_data(n, 1)];
    for backend in backends() {
        let engine = TableEngine::new(
            "r",
            vec![
                ("a".into(), columns[0].clone()),
                ("b".into(), columns[1].clone()),
            ],
            backend,
            CompactionPolicy::disabled(),
        );
        engine.execute(&TableOp::SelectMulti(vec![
            ColumnPredicate::new(0, 500, 1500),
            ColumnPredicate::new(1, 1000, 2500),
        ]));
        let probe = engine.structure_probe();
        assert_eq!(
            probe.rows,
            2 * n as u64,
            "{}: rows sum over columns",
            engine.name()
        );
        assert_eq!(probe.piece_sizes.iter().sum::<u64>(), 2 * n as u64);
        assert!(
            probe.piece_count() >= 2,
            "{}: the select cracked something",
            engine.name()
        );
        let per_column = engine.column_structure_stats();
        assert_eq!(per_column.len(), 2);
        assert_eq!(per_column[0].0, "a");
        assert_eq!(per_column[1].0, "b");
        for (name, stats) in &per_column {
            assert_eq!(stats.rows, n as u64, "{}: column {name}", engine.name());
        }
        assert_eq!(
            per_column.iter().map(|(_, s)| s.piece_count).sum::<u64>() as usize,
            probe.piece_count(),
            "{}: merged probe is the union of the columns",
            engine.name()
        );
        // Writes show up in the delta pressure, pinned snapshots aside.
        engine.execute(&TableOp::InsertTuple(vec![10, 20]));
        let after = engine.structure_probe();
        assert_eq!(after.rows, 2 * n as u64 + 2);
    }
}

#[test]
#[should_panic(expected = "column 1 (b) does not hold (7, row 2)")]
fn a_column_that_lost_a_live_tuples_row_fails_the_delete_loudly() {
    // Columns may never diverge silently — in release builds either. Kill
    // one tuple's row in column b behind the engine's back; the next
    // delete of that tuple must name the column, value and row id.
    let engine = TableEngine::new(
        "r",
        vec![("a".into(), vec![1, 2, 3]), ("b".into(), vec![5, 6, 7])],
        TableBackend::Serial(LatchProtocol::Piece),
        CompactionPolicy::disabled(),
    );
    assert_eq!(engine.column_index(1).delete_row(7, 2).0, 1);
    engine.execute(&TableOp::DeleteWhere {
        column: 0,
        value: 3,
    });
}
