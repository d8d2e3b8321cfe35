//! Skew-adaptivity benchmark: static range partitioning versus the
//! skew-adaptive arm (online split/merge re-partitioning) under three
//! access patterns:
//!
//! * `uniform` — the static arm's best case; adaptivity must not
//!   regress it (>5% slowdown fails on 4+ core hosts).
//! * `zipfian` (theta = 1.0) — heavy skew onto the low end of the
//!   domain; the static arm concentrates its load on one partition while
//!   the adaptive arm splits the hot partition until load spreads.
//! * `drifting-hotspot` — a narrow hot range sweeping the domain, so
//!   yesterday's split boundaries are tomorrow's cold partitions; the
//!   adaptive arm must merge behind the hotspot as well as split ahead
//!   of it.
//!
//! Every arm's answers are checked against the scan baseline — a
//! mismatch aborts the bench, so speedups can never come from wrong
//! answers. Each arm replays one client serially, so the timings compare
//! the arms' own work (cracking plus re-partitioning), not parallelism;
//! the uniform no-regression assertion is gated on runtime core
//! detection (printed in the header) and skipped with a note on hosts
//! with fewer than 4 cores. Each arm's final peak load share (the busiest
//! partition's fraction of all routed work, measured over an untimed
//! replay of the whole query sequence after the structure converged) is
//! printed and recorded in the JSON report so CI can assert the
//! adaptive arm ends better balanced under zipfian.
//!
//! Environment overrides: `AIDX_ROWS` (default 400 000), `AIDX_QUERIES`
//! (default 512). Run with `cargo bench -p aidx-bench --bench
//! bench_skew` (add `--json <path>` or `AIDX_JSON_OUT` for the report).

use aidx_bench::{ms, scaled_params, Report};
use aidx_core::Aggregate;
use aidx_cracking::generate_unique_shuffled;
use aidx_obs::Json;
use aidx_parallel::{available_cores, AdaptiveConfig, RangePartitionedCracker, Rebalance};
use aidx_workload::{
    AccessPattern, AdaptiveEngine, IndexEngine, QuerySpec, ScanEngine, WorkloadGenerator,
};
use std::time::{Duration, Instant};

/// Replays `queries` once, serially, against a fresh engine. Cracking
/// and re-partitioning are stateful, so each arm gets its own engine
/// and is timed on its first (refining) replay.
fn run_arm(
    engine: &IndexEngine<RangePartitionedCracker>,
    queries: &[QuerySpec],
) -> (Duration, Vec<i128>) {
    let start = Instant::now();
    let answers = queries.iter().map(|q| engine.select(q).0).collect();
    (start.elapsed(), answers)
}

/// Peak load share — the busiest partition's fraction of all work —
/// over the window *between* two
/// [`partition_loads`](aidx_parallel::RangePartitionedCracker::partition_loads)
/// probes, matched by stable partition id (a partition born inside the
/// window counts from zero). This is the quantity that bounds parallel
/// throughput (the busiest partition's work concentrates there), and
/// unlike the
/// max/mean ratio it compares fairly across arms with different
/// partition counts. The all-time counters would also charge the
/// adaptive arm for the skew it absorbed *before* splitting; the window
/// measures the balance the run actually ended with.
fn window_peak_share(before: &[(u32, u64)], after: &[(u32, u64)]) -> f64 {
    let before: std::collections::HashMap<u32, u64> = before.iter().copied().collect();
    let deltas: Vec<u64> = after
        .iter()
        .map(|&(id, ops)| ops - before.get(&id).copied().unwrap_or(0))
        .collect();
    let max = deltas.iter().copied().max().unwrap_or(0);
    let total = deltas.iter().sum::<u64>();
    if total == 0 {
        1.0
    } else {
        max as f64 / total as f64
    }
}

struct PatternResult {
    name: &'static str,
    speedup: f64,
    static_share: f64,
    adaptive_share: f64,
    splits: u64,
    merges: u64,
}

fn main() {
    let (rows, query_count) = scaled_params(400_000, 512);
    let cores = available_cores();
    let partitions = cores.clamp(4, 8);
    println!(
        "# bench_skew: rows={rows} queries={query_count} cores={cores} partitions={partitions}"
    );
    println!();

    let mut report = Report::new("bench_skew");
    report
        .param("rows", Json::UInt(rows as u64))
        .param("queries", Json::UInt(query_count as u64))
        .param("cores", Json::UInt(cores as u64))
        .param("partitions", Json::UInt(partitions as u64));

    let values = generate_unique_shuffled(rows, 0x5EED);
    let scan = ScanEngine::new(values.clone());

    let patterns: [(&'static str, AccessPattern); 3] = [
        ("uniform", AccessPattern::Random),
        ("zipfian", AccessPattern::Zipfian(1.0)),
        (
            "drifting-hotspot",
            AccessPattern::DriftingHotspot {
                width: 0.05,
                period: (query_count / 4).max(1),
            },
        ),
    ];

    let mut table = Vec::new();
    let mut results = Vec::new();
    for (name, pattern) in patterns {
        let queries = WorkloadGenerator::new(rows as u64, 0.001, Aggregate::Sum, 0xC0FFEE)
            .with_pattern(pattern)
            .generate(query_count);
        let expected: Vec<i128> = queries.iter().map(|q| scan.select(q).0).collect();

        let static_engine = RangePartitionedCracker::new(values.clone(), partitions);
        let static_engine = IndexEngine::new("static", static_engine);
        let (static_time, static_answers) = run_arm(&static_engine, &queries);
        assert_eq!(
            static_answers, expected,
            "static arm diverged from scan on {name}"
        );
        // Final-window balance: replay the sequence once more (untimed —
        // the structure has converged) between two load probes.
        let probe = static_engine.index().partition_loads();
        let (_, replay) = run_arm(&static_engine, &queries);
        assert_eq!(
            replay, expected,
            "static replay diverged from scan on {name}"
        );
        let static_share = window_peak_share(&probe, &static_engine.index().partition_loads());

        // Cap the adaptive arm at 2x the static partition count, so the
        // load windows below compare like against like.
        let config = AdaptiveConfig {
            max_partitions: partitions * 2,
            ..AdaptiveConfig::default()
        };
        let adaptive_engine = RangePartitionedCracker::adaptive(values.clone(), partitions, config);
        let adaptive_engine = IndexEngine::new("adaptive", adaptive_engine);
        let (adaptive_time, adaptive_answers) = run_arm(&adaptive_engine, &queries);
        assert_eq!(
            adaptive_answers, expected,
            "adaptive arm diverged from scan on {name}"
        );
        // The timed pass is short; give re-partitioning explicit passes
        // to converge before the measurement window (each pass performs
        // at most one split or merge, so this is bounded and quick).
        for _ in 0..24 {
            for q in &queries {
                adaptive_engine.select(q);
            }
            if matches!(adaptive_engine.index().try_rebalance(), Rebalance::Balanced) {
                break;
            }
        }
        let probe = adaptive_engine.index().partition_loads();
        let (_, replay) = run_arm(&adaptive_engine, &queries);
        assert_eq!(
            replay, expected,
            "adaptive replay diverged from scan on {name}"
        );
        let adaptive_share = window_peak_share(&probe, &adaptive_engine.index().partition_loads());
        let splits = adaptive_engine.index().splits_performed();
        let merges = adaptive_engine.index().merges_performed();
        let final_partitions = adaptive_engine.index().partition_count();

        let speedup = static_time.as_secs_f64() / adaptive_time.as_secs_f64();
        table.push(vec![
            name.to_string(),
            "static".to_string(),
            ms(static_time),
            "1.00".to_string(),
            format!("{static_share:.2}"),
            partitions.to_string(),
            "0/0".to_string(),
        ]);
        table.push(vec![
            name.to_string(),
            "adaptive".to_string(),
            ms(adaptive_time),
            format!("{speedup:.2}"),
            format!("{adaptive_share:.2}"),
            final_partitions.to_string(),
            format!("{splits}/{merges}"),
        ]);
        results.push(PatternResult {
            name,
            speedup,
            static_share,
            adaptive_share,
            splits,
            merges,
        });
    }

    report.table(
        "skew adaptivity: static vs adaptive range partitioning",
        &[
            "pattern",
            "arm",
            "wall_clock_ms",
            "speedup_vs_static",
            "peak_load_share",
            "final_partitions",
            "splits/merges",
        ],
        &table,
    );
    report.section(
        "skew_summary",
        "per-pattern adaptive-vs-static summary",
        Json::Arr(
            results
                .iter()
                .map(|r| {
                    Json::obj(vec![
                        ("pattern", Json::str(r.name)),
                        ("adaptive_speedup", Json::Num(r.speedup)),
                        ("static_peak_share", Json::Num(r.static_share)),
                        ("adaptive_peak_share", Json::Num(r.adaptive_share)),
                        ("splits", Json::UInt(r.splits)),
                        ("merges", Json::UInt(r.merges)),
                    ])
                })
                .collect(),
        ),
    );

    println!("all arms returned results identical to the scan baseline");

    // Balance oracle: under zipfian skew the adaptive arm must end the
    // run with a smaller peak load share (the busiest partition's fraction
    // of all routed work — the quantity that serialises a parallel run)
    // than the static one. That's the whole point of online
    // re-partitioning, and it holds regardless of core count (splits are
    // load-triggered, not parallelism-triggered). Only a run where
    // re-partitioning never fired (no splits) is excused, with a note.
    let zipf = results.iter().find(|r| r.name == "zipfian").unwrap();
    println!(
        "zipfian peak load share: static={:.2} adaptive={:.2} (splits={})",
        zipf.static_share, zipf.adaptive_share, zipf.splits
    );
    if zipf.splits > 0 {
        assert!(
            zipf.adaptive_share < zipf.static_share,
            "adaptive arm must end better balanced than static under zipfian: \
             peak share {:.2} vs {:.2}",
            zipf.adaptive_share,
            zipf.static_share
        );
        println!("balance check: pass (adaptive peak share < static)");
    } else {
        println!(
            "balance check: SKIP (re-partitioning performed no splits this \
             run; raise AIDX_QUERIES to give the load window time to fill)"
        );
    }

    // The no-regression oracle needs real parallelism: on <4-core hosts
    // the monitor thread time-slices the client and the ratio measures
    // scheduler noise.
    if cores >= 4 {
        let uniform = results.iter().find(|r| r.name == "uniform").unwrap();
        assert!(
            uniform.speedup > 1.0 / 1.05,
            "adaptive arm regressed uniform by more than 5%: {:.2}x",
            uniform.speedup
        );
        println!(
            "uniform regression target: {:.2}x (>0.95x): met",
            uniform.speedup
        );
    } else {
        println!(
            "SKIP: uniform regression target (<=5%) needs >=4 cores, this \
             host exposes {cores}"
        );
    }

    report.finish();
}
