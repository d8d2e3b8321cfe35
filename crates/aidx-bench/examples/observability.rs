//! End-to-end tour of the observability layer: a mixed read/write
//! workload on the range-partitioned arm with event tracing enabled,
//! ending in a p99 latency breakdown, the piece-count convergence curve,
//! and a JSONL trace.
//!
//! Run: `cargo run -p aidx-bench --release --example observability`
//! (`AIDX_ROWS` / `AIDX_QUERIES` rescale; `--json <path>` or
//! `AIDX_JSON_OUT` additionally writes the structured report.)

use aidx_bench::{scaled_params, Report};
use aidx_core::{Aggregate, LatencyBreakdown};
use aidx_cracking::generate_unique_shuffled;
use aidx_obs::{Json, StructureSampler, TraceEvent};
use aidx_workload::{AdaptiveEngine, Approach, ExperimentConfig, MultiClientRunner};
use std::collections::BTreeMap;
use std::time::Duration;

fn main() {
    let (rows, op_count) = scaled_params(200_000, 512);
    let partitions = 4usize;
    let clients = 4usize;
    println!(
        "observability demo: {rows} rows, {op_count} mixed ops (20% writes), \
         range arm with {partitions} partitions\n"
    );
    let mut report = Report::new("observability");
    report
        .param("rows", Json::UInt(rows as u64))
        .param("ops", Json::UInt(op_count as u64))
        .param("partitions", Json::UInt(partitions as u64));

    aidx_obs::enable();
    let values = generate_unique_shuffled(rows, 7);
    let ops = ExperimentConfig::new(Approach::Scan)
        .rows(rows)
        .queries(op_count)
        .selectivity(0.01)
        .aggregate(Aggregate::Sum)
        .write_ratio(0.2)
        .generate_operations();

    // Pass 1 — convergence: one client, sampling structure every 1/16th
    // of the sequence, so the curve is attributable to query counts.
    let arm = ExperimentConfig::new(Approach::ParallelRange { partitions });
    let engine = arm.build_engine_with(values.clone());
    let mut sampler = StructureSampler::new((op_count as u64 / 16).max(1));
    let mut breakdown = LatencyBreakdown::new();
    for (i, &op) in ops.iter().enumerate() {
        let result = engine.execute(op);
        breakdown.record(&result.metrics);
        sampler.maybe_sample(i as u64 + 1, || {
            engine.structure_stats().expect("range arm has structure")
        });
    }
    println!("piece-count convergence (sequential pass):");
    println!("ops\tpieces\trows\tdelta_rows\tpartition_load_max");
    for sample in sampler.samples() {
        println!(
            "{}\t{}\t{}\t{}\t{}",
            sample.query_index,
            sample.stats.piece_count,
            sample.stats.rows,
            sample.stats.delta_rows(),
            sample.stats.partition_load.max,
        );
    }
    report.structure_samples("piece-count convergence", &sampler);

    // Pass 2 — contention: the same sequence under concurrent clients,
    // for the percentile breakdown and windowed throughput.
    let concurrent = arm.build_engine_with(values);
    let run = MultiClientRunner::new(clients).run_ops(concurrent.clone(), &ops);
    let contended = run.latency_breakdown();
    println!("\np99 latency breakdown (ns), 1 client vs {clients} clients:");
    println!("component\tp50\tp99\tp99.9 (contended run)");
    for (name, hist) in [
        ("total", &contended.total),
        ("wait", &contended.wait),
        ("crack", &contended.crack),
        ("aggregate", &contended.aggregate),
    ] {
        println!("{name}\t{}\t{}\t{}", hist.p50(), hist.p99(), hist.p999());
    }
    println!(
        "sequential p99 total: {} ns; contended p99 total: {} ns",
        breakdown.total.p99(),
        contended.total.p99()
    );
    report.breakdown("sequential", &breakdown);
    report.run_metrics("contended", &run, Duration::from_millis(5));

    // The trace: everything both passes emitted, as JSONL.
    let mut jsonl = Vec::new();
    let drained = aidx_obs::drain_jsonl(&mut jsonl);
    aidx_obs::disable();
    let mut by_tag: BTreeMap<&str, usize> = BTreeMap::new();
    for line in std::str::from_utf8(&jsonl).unwrap().lines() {
        let record = Json::parse(line).expect("trace line parses");
        let tag = record.get("ev").and_then(Json::as_str).unwrap_or("?");
        *by_tag
            .entry(
                TraceEvent::all_tags()
                    .iter()
                    .find(|t| **t == tag)
                    .copied()
                    .unwrap_or("?"),
            )
            .or_insert(0) += 1;
    }
    println!("\ntrace: {drained} events drained; counts by type:");
    for (tag, count) in &by_tag {
        println!("  {tag}\t{count}");
        report.param(&format!("events_{tag}"), Json::UInt(*count as u64));
    }
    let path = std::env::temp_dir().join("aidx-observability-trace.jsonl");
    std::fs::write(&path, &jsonl).expect("trace file written");
    println!("full JSONL trace written to {}", path.display());
    report.finish();
}
