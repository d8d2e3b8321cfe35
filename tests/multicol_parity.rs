//! Multi-column engine parity: the serial and range-partitioned table
//! engines replay the same generated multi-column workload (mixed
//! selects/inserts/deletes, per-column selectivities, compaction and
//! piece shrinking enabled) and must agree with the tuple oracle op for
//! op — under one client and under several concurrent clients.

use adaptive_indexing::prelude::*;
use aidx_core::{CompactionPolicy, LatchProtocol};
use std::sync::Arc;

const ROWS: usize = 6_000;
const OPS: usize = 96;

/// Per-column data: decorrelated permutation-ish streams over [0, ROWS).
fn columns() -> Vec<Vec<i64>> {
    (0..3i64)
        .map(|salt| {
            (0..ROWS as i64)
                .map(|i| ((i + salt) * 48271 + salt * 13) % ROWS as i64)
                .collect()
        })
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

fn build_checked(backend: TableBackend, compaction: CompactionPolicy) -> CheckedTableEngine {
    let cols = columns();
    let engine = TableEngine::new(
        "r",
        cols.iter()
            .enumerate()
            .map(|(i, values)| (format!("c{i}"), values.clone()))
            .collect(),
        backend,
        compaction,
    );
    CheckedTableEngine::new(engine, &cols)
}

#[test]
fn every_backend_replays_the_mixed_workload_exactly() {
    let ops = MultiColumnWorkload::new(ROWS as u64, 3, vec![0.02, 0.2, 0.6], 17)
        .with_write_ratio(0.25)
        .generate(OPS);
    for backend in backends() {
        let checked = build_checked(backend, CompactionPolicy::rows(24).incremental(4));
        for op in &ops {
            checked.execute(op);
        }
        // Final full image must also agree (catches silent drift that the
        // narrow per-op predicates might miss).
        checked.execute(&TableOp::SelectMulti(vec![]));
        assert_eq!(
            checked.mismatches(),
            vec![],
            "{} diverged from the tuple oracle",
            checked.inner().name()
        );
        assert!(checked.inner().check_invariants());
    }
}

#[test]
fn concurrent_clients_agree_with_the_serialized_oracle() {
    // The checked wrapper holds the oracle across each engine call, so
    // concurrent clients produce *some* serial order and every op must
    // match the oracle in that order.
    let ops = MultiColumnWorkload::new(ROWS as u64, 3, vec![0.05, 0.4], 23)
        .with_write_ratio(0.2)
        .generate(OPS);
    for backend in [
        TableBackend::Serial(LatchProtocol::Piece),
        TableBackend::Range { partitions: 2 },
    ] {
        let checked = Arc::new(build_checked(
            backend,
            CompactionPolicy::rows(32).incremental(2),
        ));
        let mut handles = Vec::new();
        for client in 0..3usize {
            let checked = Arc::clone(&checked);
            let ops = ops.clone();
            handles.push(std::thread::spawn(move || {
                for op in ops.iter().skip(client).step_by(3) {
                    checked.execute(op);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            checked.mismatches(),
            vec![],
            "{} diverged under concurrent clients",
            checked.inner().name()
        );
        assert!(checked.inner().check_invariants());
    }
}
