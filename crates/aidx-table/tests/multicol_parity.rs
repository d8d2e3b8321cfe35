//! Multi-column engine parity: every backend replays one op stream drawn
//! with the property tests' generator (mixed selects, inserts and
//! deletes, compaction and piece shrinking enabled) and must agree with
//! the tuple oracle op for op, under one client and under several
//! concurrent clients.

mod common;

use aidx_core::{CompactionPolicy, LatchProtocol};
use aidx_table::{CheckedTableEngine, TableBackend, TableEngine, TableOp};
use common::{draws, table_op};

const ROWS: usize = 6_000;
const OPS: usize = 96;

/// Two columns of `ROWS` keys in `[-80, 80)` and `OPS` ops over keys in
/// `[-100, 100)`, `write_percent` of them writes.
fn drawn(write_percent: i64, seed: u64) -> (Vec<Vec<i64>>, Vec<TableOp>) {
    let mut draw = draws(seed);
    let columns = (0..2)
        .map(|_| (0..ROWS).map(|_| draw(160) - 80).collect())
        .collect();
    let ops = (0..OPS)
        .map(|_| {
            let kind = match draw(100) < write_percent {
                true => 2 + draw(2),
                false => draw(2),
            };
            table_op((
                kind as u8,
                draw(200) - 100,
                draw(200) - 100,
                draw(200) - 100,
            ))
        })
        .collect();
    (columns, ops)
}

fn build_checked(
    backend: TableBackend,
    columns: &[Vec<i64>],
    compaction: CompactionPolicy,
) -> CheckedTableEngine {
    let named = columns
        .iter()
        .enumerate()
        .map(|(i, values)| (format!("c{i}"), values.clone()))
        .collect();
    CheckedTableEngine::new(TableEngine::new("r", named, backend, compaction), columns)
}

#[test]
fn every_backend_replays_the_mixed_workload_exactly() {
    let (columns, ops) = drawn(25, 17);
    for backend in [
        TableBackend::Serial(LatchProtocol::Piece),
        TableBackend::Serial(LatchProtocol::Column),
        TableBackend::Serial(LatchProtocol::None),
        TableBackend::Range { partitions: 3 },
    ] {
        let compaction = CompactionPolicy::rows(24).incremental(4);
        let checked = build_checked(backend, &columns, compaction);
        for op in &ops {
            checked.execute(op);
        }
        // Final full image must also agree (catches silent drift that the
        // narrow per-op predicates might miss).
        checked.execute(&TableOp::SelectMulti(vec![]));
        let name = checked.inner().name().to_string();
        assert_eq!(checked.mismatches(), vec![], "{name} diverged");
        assert!(checked.inner().check_invariants(), "{name}");
    }
}

#[test]
fn concurrent_clients_agree_with_the_serialized_oracle() {
    // The checked wrapper holds the oracle across each engine call, so
    // concurrent clients produce *some* serial order and every op must
    // match the oracle in that order.
    let (columns, ops) = drawn(20, 23);
    for backend in [
        TableBackend::Serial(LatchProtocol::Piece),
        TableBackend::Range { partitions: 2 },
    ] {
        let compaction = CompactionPolicy::rows(32).incremental(2);
        let checked = build_checked(backend, &columns, compaction);
        std::thread::scope(|s| {
            for client in 0..3 {
                let (checked, ops) = (&checked, &ops);
                s.spawn(move || {
                    for op in ops.iter().skip(client).step_by(3) {
                        checked.execute(op);
                    }
                });
            }
        });
        let name = checked.inner().name().to_string();
        assert_eq!(checked.mismatches(), vec![], "{name} under 3 clients");
        assert!(checked.inner().check_invariants(), "{name}");
    }
}
