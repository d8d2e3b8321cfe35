//! `--verify`: each workload's first ops replayed single-client at smoke
//! size against an oracle that shares nothing with the timed runs' — a
//! `BTreeSet` for the columns, `CheckedTableEngine` for the tables.

use crate::spec::{sizing, Scale};
use crate::table::{bind, Op};
use crate::{col, table};
use aidx_core::{ConcurrentCracker, LatchProtocol};
use aidx_table::{CheckedTableEngine, ColumnPredicate, JoinStrategy, TableEngine};
use std::collections::BTreeSet;

const REPLAY_OPS: usize = 2_000;

/// Replays the workload and returns the number of answers the oracle
/// rejected.
pub fn replay(workload: &str, seed: u64) -> u64 {
    let sizing = sizing(workload, Scale::Smoke, 1);
    match workload {
        "col_uniform" | "col_sequential" => {
            let inputs = col::generate(workload, &sizing, seed);
            let oracle: BTreeSet<i64> = inputs.values.iter().copied().collect();
            let index = ConcurrentCracker::from_values(inputs.values, LatchProtocol::Piece);
            let wrong = |op: &&col::ColOp| {
                let hits = oracle.range(op.low..op.high);
                let want = if op.sum {
                    hits.map(|&v| v as i128).sum()
                } else {
                    hits.count() as i128
                };
                col::execute(&index, op).0.value != want
            };
            inputs.streams[0]
                .iter()
                .take(REPLAY_OPS)
                .filter(wrong)
                .count() as u64
        }
        _ => {
            let (mix, backend) = table::config(workload);
            let inputs = table::generate(workload, mix, &sizing, seed);
            let engine = |name: &str, columns: &[Vec<i64>]| {
                let inner =
                    TableEngine::new(name, table::named(columns), backend, table::COMPACTION);
                CheckedTableEngine::new(inner, columns)
            };
            let fact = engine("fact", &inputs.fact);
            let dim = engine("dim", &inputs.dim);
            let dim_engine = dim.inner_arc();
            for op in inputs.streams[0].iter().take(REPLAY_OPS) {
                match op {
                    Op::Join(low, high) => {
                        let window = [ColumnPredicate::new(0, *low, *high)];
                        fact.execute_join(&dim, 0, 0, &window, &window, JoinStrategy::Auto);
                    }
                    other => {
                        fact.execute(&bind(other, &dim_engine));
                    }
                }
            }
            (fact.mismatches().len() + dim.mismatches().len()) as u64
        }
    }
}
