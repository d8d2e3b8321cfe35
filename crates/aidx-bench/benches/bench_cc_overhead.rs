//! Figure 13/15 bench: administration overhead of concurrency control,
//! with per-arm percentile latency breakdowns and convergence curves.
//!
//! Every arm — the serial cracker under all three latch protocols
//! (none / piece / column) plus the range-partitioned cracker —
//! executes the same mixed operation
//! sequence twice:
//!
//! 1. a **checked sequential pass**: every per-operation answer is
//!    verified against the `BTreeMap` multiset oracle (`CheckedEngine`),
//!    and the index structure is sampled on a query-count cadence into a
//!    convergence curve;
//! 2. an **unchecked timing pass** whose wall clock and per-operation
//!    wait / crack / aggregate percentile breakdown are reported —
//!    sequential for the serial protocols (Figure 13 measures pure latch
//!    administration, and the unlatched arm is only safe single-client),
//!    4 clients for the latched and parallel arms (Figure 15 style).
//!
//! Run: `cargo bench -p aidx-bench --bench bench_cc_overhead`
//! (add `-- --json <path>` or set `AIDX_JSON_OUT` for the JSON report;
//! `AIDX_ROWS` / `AIDX_QUERIES` rescale).

use aidx_bench::{ms, scaled_params, Report};
use aidx_core::Aggregate;
use aidx_obs::{Json, StructureSampler};
use aidx_storage::generate_unique_shuffled;
use aidx_workload::{AdaptiveEngine, Approach, CheckedEngine, ExperimentConfig, MultiClientRunner};
use std::sync::Arc;

const WRITE_RATIO: f64 = 0.05;
const SELECTIVITY: f64 = 0.0001;

fn config(approach: Approach, rows: usize, ops: usize) -> ExperimentConfig {
    ExperimentConfig::new(approach)
        .rows(rows)
        .queries(ops)
        .selectivity(SELECTIVITY)
        .aggregate(Aggregate::Sum)
        .write_ratio(WRITE_RATIO)
}

fn main() {
    let (rows, op_count) = scaled_params(200_000, 128);
    let arms: &[(&str, usize)] = &[
        ("crack-none", 1),
        ("crack-piece", 1),
        ("crack-column", 1),
        ("parallel-range-4", 4),
    ];
    println!(
        "# bench_cc_overhead: rows={rows} ops={op_count} write_ratio={WRITE_RATIO} \
         selectivity={SELECTIVITY}"
    );
    println!();

    let mut report = Report::new("bench_cc_overhead");
    report
        .param("rows", Json::UInt(rows as u64))
        .param("ops", Json::UInt(op_count as u64))
        .param("write_ratio", Json::Num(WRITE_RATIO))
        .param("selectivity", Json::Num(SELECTIVITY));

    let values = generate_unique_shuffled(rows, 3);
    let ops = config("crack-piece".parse().unwrap(), rows, op_count).generate_operations();
    let cadence = (op_count as u64 / 8).max(1);

    let mut table = Vec::new();
    let mut serial_secs: Vec<(String, f64)> = Vec::new();
    for &(label, clients) in arms {
        let approach: Approach = label.parse().expect("canonical arm label");

        // Checked pass: oracle verification + structure convergence.
        let checked = CheckedEngine::new(
            config(approach, rows, op_count).build_engine_with(values.clone()),
            values.clone(),
        );
        let mut sampler = StructureSampler::new(cadence);
        for (i, &op) in ops.iter().enumerate() {
            checked.execute(op);
            sampler.maybe_sample(i as u64 + 1, || {
                checked.structure_stats().unwrap_or_default()
            });
        }
        assert_eq!(
            checked.mismatches(),
            vec![],
            "{label} diverged from the oracle"
        );
        report.structure_samples(&format!("convergence: {label}"), &sampler);

        // Timing pass: fresh engine, no oracle in the loop.
        let engine = config(approach, rows, op_count).build_engine_with(values.clone());
        let run = MultiClientRunner::new(clients).run_ops(Arc::clone(&engine), &ops);
        let secs = run.wall_clock.as_secs_f64();
        if clients == 1 {
            serial_secs.push((label.to_string(), secs));
        }
        let breakdown = run.latency_breakdown();
        report.breakdown(&format!("latency: {label} ({clients} clients)"), &breakdown);
        table.push(vec![
            label.to_string(),
            clients.to_string(),
            ms(run.wall_clock),
            breakdown.wait.p99().to_string(),
            breakdown.crack.p99().to_string(),
            breakdown.aggregate.p99().to_string(),
        ]);
    }

    report.table(
        "per-arm wall clock and p99 component latencies (oracle-verified)",
        &[
            "arm",
            "clients",
            "wall_clock_ms",
            "wait_p99_ns",
            "crack_p99_ns",
            "aggregate_p99_ns",
        ],
        &table,
    );

    // Figure 13: the latched serial runs against the unlatched baseline.
    let baseline = serial_secs
        .iter()
        .find(|(l, _)| l == "crack-none")
        .map(|&(_, s)| s)
        .expect("unlatched arm ran");
    if baseline > 0.0 {
        let mut overhead_rows = Vec::new();
        for (label, secs) in &serial_secs {
            if label == "crack-none" {
                continue;
            }
            let overhead = (secs - baseline) / baseline * 100.0;
            report.param(&format!("overhead_percent_{label}"), Json::Num(overhead));
            overhead_rows.push(vec![label.clone(), format!("{overhead:.2}")]);
        }
        report.table(
            "Figure 13: administration overhead vs no latching (sequential, %)",
            &["arm", "overhead_percent"],
            &overhead_rows,
        );
    }
    report.note("all arms returned results identical to the oracle at every operation");
    report.finish();
}
