//! The single-column workloads: `col_uniform` and `col_sequential`.
//!
//! Both drive `ConcurrentCracker::from_values(.., LatchProtocol::Piece)`
//! over a seeded permutation of `0..rows`, read-only, mixing `count` and
//! `sum`. They bypass table, parallel, rowid sets and delta.

use crate::gen::{permutation, Fnv1a, SplitMix64};
use crate::outcome::{rep_plan, PostStats, RepOutcome, WorkloadOutcome};
use crate::run::{run_phases, Answer, OpKind};
use crate::spec::Sizing;
use aidx_core::{ConcurrentCracker, LatchProtocol};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColOp {
    pub low: i64,
    pub high: i64,
    pub sum: bool,
}

/// Whether op `i` is a `sum` (else a `count`): three sums to one count, in
/// runs of two so that each of two clients — client `c` takes ops `c, c + 2,
/// …` — sees the same mix. Plain alternation would hand one client every
/// count and the other every sum, and the sums' client would set the pace.
/// Three to one, not one to one, keeps the median read inside the sums
/// (the walk over many small pieces) instead of on the cliff between the
/// two kinds.
fn is_sum(i: usize) -> bool {
    !(i / 2).is_multiple_of(4)
}

/// Uniform-random ranges at 0.01 % selectivity (the paper's experiment).
pub fn uniform_ops(rows: usize, ops: usize, rng: &mut SplitMix64) -> Vec<ColOp> {
    let width = (rows / 10_000).max(1) as i64;
    (0..ops)
        .map(|i| {
            let low = rng.below(rows as u64 - width as u64 + 1) as i64;
            ColOp {
                low,
                high: low + width,
                sum: is_sum(i),
            }
        })
        .collect()
}

/// Ranges sweeping the domain once, left to right: op `k` starts at a
/// seeded offset inside stride `k` and covers half a stride, so both of
/// its bounds fall in the never-cracked tail and every query re-partitions
/// it — the sequential input of Halim et al. that breaks plain cracking.
pub fn sequential_ops(rows: usize, ops: usize, rng: &mut SplitMix64) -> Vec<ColOp> {
    let stride = (rows / ops.max(1)).max(2) as i64;
    (0..ops)
        .map(|k| {
            let low = k as i64 * stride + rng.below(stride as u64 / 2) as i64;
            ColOp {
                low,
                high: low + stride / 2,
                sum: is_sum(k),
            }
        })
        .collect()
}

/// FNV-1a over every op of every repetition, in order.
pub fn hash_streams(streams: &[Vec<ColOp>]) -> u64 {
    let mut hash = Fnv1a::new();
    for op in streams.iter().flatten() {
        hash.write_i64(op.low);
        hash.write_i64(op.high);
        hash.write_u64(op.sum as u64);
    }
    hash.finish()
}

/// Closed-form answer over a permutation of `0..rows`.
pub fn oracle(rows: usize, op: &ColOp) -> Answer {
    let low = op.low.clamp(0, rows as i64) as i128;
    let high = op.high.clamp(0, rows as i64) as i128;
    let value = if high <= low {
        0
    } else if op.sum {
        (low + high - 1) * (high - low) / 2
    } else {
        high - low
    };
    Answer { value, check: 0 }
}

/// The inputs of one run: the column and one op stream per repetition.
pub struct ColInputs {
    pub values: Vec<i64>,
    pub streams: Vec<Vec<ColOp>>,
}

pub fn generate(workload: &str, sizing: &Sizing, seed: u64) -> ColInputs {
    let values = permutation(sizing.rows, &mut SplitMix64::stream(seed, "col.values"));
    let total = sizing.cold_ops + sizing.steady_ops;
    let streams = (0..sizing.reps)
        .map(|rep| {
            let mut rng = SplitMix64::stream(seed, &format!("{workload}.ops.{rep}"));
            match workload {
                "col_uniform" => uniform_ops(sizing.rows, total, &mut rng),
                "col_sequential" => sequential_ops(sizing.rows, total, &mut rng),
                other => panic!("not a column workload: {other}"),
            }
        })
        .collect();
    ColInputs { values, streams }
}

pub fn execute(index: &ConcurrentCracker, op: &ColOp) -> (Answer, aidx_core::QueryMetrics) {
    let (value, metrics) = if op.sum {
        index.sum(op.low, op.high)
    } else {
        let (count, metrics) = index.count(op.low, op.high);
        (count as i128, metrics)
    };
    (Answer { value, check: 0 }, metrics)
}

pub fn run(workload: &str, sizing: &Sizing, seed: u64, trace: bool) -> WorkloadOutcome {
    let inputs = generate(workload, sizing, seed);
    // Construction from a column the caller keeps: the copy handed over
    // is part of the cost, as in `ConcurrentCracker::from_column`.
    let build = || {
        let start = Instant::now();
        let index = ConcurrentCracker::from_values(inputs.values.clone(), LatchProtocol::Piece);
        (index, start.elapsed().as_secs_f64())
    };
    let mut reps = Vec::new();
    for (stream, traced) in rep_plan(sizing.reps, trace) {
        let ops = &inputs.streams[stream];
        let (index, _) = build();
        let log = run_phases(
            sizing.clients,
            ops.len(),
            sizing.cold_ops,
            traced,
            |_| OpKind::Read,
            |i| execute(&index, &ops[i]),
        );
        // The correctness gate, after the timed window: every answer
        // against the closed form, then the index's own invariants.
        let mut failed = log
            .cold
            .records()
            .chain(log.steady.records())
            .filter(|r| r.answer != Some(oracle(sizing.rows, &ops[r.index as usize])))
            .count() as u64;
        failed += !index.check_invariants() as u64;
        reps.push(RepOutcome {
            traced,
            failed,
            attempted: ops.len() as u64 + 1,
            post: PostStats {
                piece_sizes: index.piece_sizes(),
                delta_rows: index.delta_rows(),
                latch: index.latch_stats(),
                ..PostStats::default()
            },
            log,
        });
    }
    // Only an untraced run reports `setup_s`.
    let setup_s = if trace {
        Vec::new()
    } else {
        (0..sizing.setup_samples).map(|_| build().1).collect()
    };
    WorkloadOutcome {
        op_hash: hash_streams(&inputs.streams),
        setup_s,
        reps,
        through_table: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_matches_a_scan() {
        let values = permutation(1000, &mut SplitMix64::new(1));
        for op in uniform_ops(1000, 50, &mut SplitMix64::new(2))
            .into_iter()
            .chain(sequential_ops(1000, 50, &mut SplitMix64::new(3)))
        {
            let hits = values.iter().filter(|&&v| v >= op.low && v < op.high);
            let want = if op.sum {
                hits.map(|&v| v as i128).sum()
            } else {
                hits.count() as i128
            };
            assert_eq!(oracle(1000, &op).value, want, "{op:?}");
        }
    }

    #[test]
    fn same_seed_same_load_different_seed_different_load() {
        let sizing = crate::spec::sizing("col_uniform", crate::spec::Scale::Smoke, 1);
        for workload in ["col_uniform", "col_sequential"] {
            let hash = |seed| hash_streams(&generate(workload, &sizing, seed).streams);
            assert_eq!(hash(5), hash(5));
            assert_ne!(hash(5), hash(6));
        }
    }

    #[test]
    fn both_clients_see_the_same_count_sum_mix() {
        let ops = uniform_ops(1 << 16, 4000, &mut SplitMix64::new(4));
        for client in 0..2 {
            let sums = ops
                .iter()
                .skip(client)
                .step_by(2)
                .filter(|op| op.sum)
                .count();
            assert_eq!(sums, 1500);
        }
    }

    #[test]
    fn sequential_ops_sweep_left_to_right_inside_the_domain() {
        let ops = sequential_ops(4096, 64, &mut SplitMix64::new(5));
        assert!(ops.windows(2).all(|w| w[0].high <= w[1].low));
        assert!(ops.iter().all(|op| 0 <= op.low && op.low < op.high));
        assert!(ops.last().unwrap().high <= 4096);
    }
}
