//! Delta compaction benchmark: bounded versus unbounded pending deltas.
//!
//! Two experiments:
//!
//! 1. **Insert stream** — a long stream of inserts (default 100 000)
//!    interleaved with selects against the piece-latch cracker, with
//!    compaction off and on. Without compaction every select pays an
//!    ever-larger delta probe and the delta grows monotonically; with a
//!    threshold the delta stays bounded (asserted) and late selects cost
//!    about the same as early ones (reported: first-quarter vs
//!    last-quarter mean select time). Select answers are checked exactly.
//! 2. **Mixed 50%-write sweep** — `generate_mixed`'s operation mix at a
//!    50% write ratio through the serial and parallel arms, compaction
//!    off versus on, every arm verified against the `BTreeMap` multiset
//!    oracle replay. Reported: wall clock and mean per-select time.
//!
//! Environment overrides: `AIDX_ROWS` (default 200 000), `AIDX_QUERIES`
//! (mixed-sweep ops, default 256), `AIDX_INSERTS` (stream length, default
//! 100 000), `AIDX_COMPACTION` (threshold rows, default 4096),
//! `AIDX_APPROACHES` (default
//! `crack-piece,parallel-range-4`).
//!
//! Run with `cargo bench -p aidx-bench --bench bench_compaction`.

use aidx_bench::{approaches_from_env, ms, print_table, scaled_params};
use aidx_core::{Aggregate, CompactionPolicy, ConcurrentCracker, LatchProtocol};
use aidx_cracking::generate_unique_shuffled;
use aidx_workload::{
    oracle_apply, AdaptiveEngine, ExperimentConfig, IndexEngine, Operation, QuerySpec,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn mean(times: &[Duration]) -> Duration {
    if times.is_empty() {
        return Duration::ZERO;
    }
    times.iter().sum::<Duration>() / u32::try_from(times.len()).unwrap_or(u32::MAX)
}

/// Experiment 1: the insert stream. Returns one table row per arm.
fn insert_stream(rows: usize, inserts: usize, threshold: u64, table: &mut Vec<Vec<String>>) {
    let select_stride = (inserts / 2000).max(1);
    let values = generate_unique_shuffled(rows, 0xA1D1);
    for (label, policy) in [
        ("off", CompactionPolicy::disabled()),
        ("on", CompactionPolicy::rows(threshold)),
    ] {
        let index = ConcurrentCracker::from_values(values.clone(), LatchProtocol::Piece)
            .with_compaction(policy);
        let engine = IndexEngine::new("crack-piece", index);
        // Warm the index with a couple of selects so cracks exist.
        engine.execute(Operation::Select(QuerySpec::sum(0, rows as i64 / 2)));
        engine.execute(Operation::Select(QuerySpec::sum(
            rows as i64 / 4,
            rows as i64,
        )));

        // Inserted keys are unique and above the seeded domain, so every
        // select over the inserted range has an exact analytic answer.
        let base = rows as i64;
        let mut select_times = Vec::with_capacity(inserts / select_stride + 1);
        let mut max_delta = 0u64;
        let mut last_delta = 0u64;
        let mut delta_shrank = false;
        let start = Instant::now();
        for i in 0..inserts {
            engine.execute(Operation::Insert(base + i as i64));
            let delta = engine.index().delta_rows();
            max_delta = max_delta.max(delta);
            if delta < last_delta {
                delta_shrank = true;
            }
            last_delta = delta;
            if i % select_stride == select_stride - 1 {
                let query = QuerySpec::count(base, base + inserts as i64);
                let result = engine.execute(Operation::Select(query));
                assert_eq!(
                    result.value,
                    i as i128 + 1,
                    "compaction={label}: select lost inserted rows at i={i}"
                );
                select_times.push(result.metrics.total);
            }
        }
        let elapsed = start.elapsed();

        let quarter = select_times.len() / 4;
        let early = mean(&select_times[..quarter.max(1)]);
        let late = mean(&select_times[select_times.len() - quarter.max(1)..]);
        if policy.is_enabled() {
            assert!(
                max_delta <= threshold,
                "compaction on: delta must stay bounded by the threshold \
                 ({threshold}), saw {max_delta}"
            );
            assert!(
                delta_shrank,
                "compaction on: the delta must shrink at rebuilds, not grow monotonically"
            );
            assert!(
                engine.index().compactions_performed() > 0,
                "compaction on: the threshold must have tripped"
            );
        } else {
            assert_eq!(
                max_delta, inserts as u64,
                "compaction off: the delta grows monotonically with the stream"
            );
        }
        table.push(vec![
            format!("compaction={label}"),
            inserts.to_string(),
            max_delta.to_string(),
            engine.index().compactions_performed().to_string(),
            ms(early),
            ms(late),
            ms(elapsed),
        ]);
    }
}

/// Experiment 2: the oracle-verified mixed sweep at a 50% write ratio.
fn mixed_sweep(rows: usize, op_count: usize, threshold: u64, table: &mut Vec<Vec<String>>) {
    let approaches = approaches_from_env(&["crack-piece", "parallel-range-4"]);
    let values = generate_unique_shuffled(rows, 0xA1D1);
    let base = ExperimentConfig::new(aidx_workload::Approach::Scan)
        .rows(rows)
        .queries(op_count)
        .selectivity(0.001)
        .aggregate(Aggregate::Sum)
        .write_ratio(0.5);
    let ops = base.generate_operations();
    let expected: Vec<i128> = {
        let mut oracle: BTreeMap<i64, u64> = BTreeMap::new();
        for &v in &values {
            *oracle.entry(v).or_insert(0) += 1;
        }
        ops.iter()
            .map(|&op| oracle_apply(&mut oracle, op))
            .collect()
    };

    for &approach in &approaches {
        for (label, arm_threshold) in [("off", 0u64), ("on", threshold)] {
            let engine = ExperimentConfig::new(approach)
                .rows(rows)
                .queries(op_count)
                .selectivity(0.001)
                .aggregate(Aggregate::Sum)
                .write_ratio(0.5)
                .compaction_threshold(arm_threshold)
                .build_engine_with(values.clone());
            let mut select_times = Vec::new();
            let start = Instant::now();
            for (i, &op) in ops.iter().enumerate() {
                let result = engine.execute(op);
                assert_eq!(
                    result.value,
                    expected[i],
                    "{} (compaction={label}) diverged from the oracle at op {i}",
                    approach.label()
                );
                if matches!(op, Operation::Select(_)) {
                    select_times.push(result.metrics.total);
                }
            }
            let elapsed = start.elapsed();
            table.push(vec![
                approach.label(),
                format!("compaction={label}"),
                ms(mean(&select_times)),
                ms(elapsed),
            ]);
        }
    }
}

fn main() {
    let (rows, op_count) = scaled_params(200_000, 256);
    let inserts = env_usize("AIDX_INSERTS", 100_000);
    let threshold = env_usize("AIDX_COMPACTION", 4096) as u64;

    println!("# bench_compaction: rows={rows} inserts={inserts} threshold={threshold} mixed_ops={op_count}");
    println!();

    let mut stream_table = Vec::new();
    insert_stream(rows, inserts, threshold, &mut stream_table);
    print_table(
        "insert stream, selects interleaved (crack-piece, answers verified)",
        &[
            "arm",
            "inserts",
            "max_delta_rows",
            "compactions",
            "early_select_ms",
            "late_select_ms",
            "wall_clock_ms",
        ],
        &stream_table,
    );

    let mut sweep_table = Vec::new();
    mixed_sweep(rows, op_count, threshold, &mut sweep_table);
    print_table(
        "mixed 50%-write sweep (1 client, oracle-verified)",
        &["arm", "compaction", "mean_select_ms", "wall_clock_ms"],
        &sweep_table,
    );
    println!(
        "delta stayed bounded by the threshold with compaction on; \
         all arms returned results identical to the oracle"
    );
}
