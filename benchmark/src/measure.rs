//! From a workload's outcome to named metrics.
//!
//! Layers are measured from outside: a span is the time of one call into
//! the layer under the benchmark, the component times are what that call
//! reported back (`QueryMetrics`), and a layer's self time is its span
//! time minus what its callee reported.

use crate::outcome::{RepOutcome, WorkloadOutcome};
use crate::run::{OpKind, PhaseLog};
use crate::spec::PARTITIONS;
use crate::stats::{better_quartile, median, percentile_ns, Better};
use std::io::Write;
use std::path::Path;

/// Metric values by name, in emission order.
pub type Metrics = Vec<(&'static str, f64)>;

fn ops_per_s(phase: &PhaseLog) -> f64 {
    phase.ops() as f64 / phase.wall_s()
}

fn percentile_us(samples: &mut [u64], q: f64) -> f64 {
    percentile_ns(samples, q) as f64 / 1e3
}

/// `VmHWM` of this process in MiB: the most memory it ever held.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced run. `setup_s` is the median of
/// its build-and-drop rounds. Every other timing is taken per repetition —
/// the latency percentiles over that repetition's steady-phase reads — and
/// reported as the quartile over the repetitions on the metric's better
/// side (see `better_quartile`).
pub fn end_to_end(outcome: &WorkloadOutcome) -> Metrics {
    let over_reps = |better: Better, f: &dyn Fn(&RepOutcome) -> f64| {
        better_quartile(&outcome.reps.iter().map(f).collect::<Vec<_>>(), better)
    };
    let read_us = |rep: &RepOutcome, q: f64| {
        percentile_us(&mut rep.log.steady.latencies_ns(&[OpKind::Read]), q)
    };
    vec![
        ("setup_s", median(&outcome.setup_s)),
        (
            "cold_s",
            over_reps(Better::Lower, &|rep| rep.log.cold.wall_s()),
        ),
        (
            "steady_ops_per_s",
            over_reps(Better::Higher, &|rep| ops_per_s(&rep.log.steady)),
        ),
        (
            "read_p50_us",
            over_reps(Better::Lower, &|rep| read_us(rep, 0.50)),
        ),
        (
            "read_p99_us",
            over_reps(Better::Lower, &|rep| read_us(rep, 0.99)),
        ),
        ("peak_rss_mb", peak_rss_mb()),
    ]
}

/// The per-layer metrics a traced run derives from its spans, the
/// components its calls returned and the stats it read afterwards. The
/// run's first repetition is untraced, the second traced, on one stream.
pub fn per_layer(outcome: &WorkloadOutcome) -> Metrics {
    let untraced = &outcome.reps[0];
    let traced = &outcome.reps[1];
    let (cold, steady) = (&traced.log.cold, &traced.log.steady);
    let secs = |d: std::time::Duration| d.as_secs_f64();
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };

    let all_cold = cold.components(&OpKind::ALL);
    let all_steady = steady.components(&OpKind::ALL);
    let mut all = all_cold;
    all.accumulate(&all_steady);
    let mut reads = cold.components(&[OpKind::Read]);
    reads.accumulate(&steady.components(&[OpKind::Read]));
    let mut joins = cold.components(&[OpKind::Join]);
    joins.accumulate(&steady.components(&[OpKind::Join]));
    let selects = (cold.ops_of(OpKind::Read) + steady.ops_of(OpKind::Read)) as f64;
    let join_ops = (cold.ops_of(OpKind::Join) + steady.ops_of(OpKind::Join)) as f64;

    // The layer under the benchmark owns the span time; below it, what the
    // calls reported.
    let span_busy = cold.busy_s() + steady.busy_s();
    let (table_busy, core_busy) = if outcome.through_table {
        (span_busy, secs(all.total))
    } else {
        (0.0, span_busy)
    };
    let core_parts =
        secs(all.wait_time + all.crack_time + all.aggregate_time + all.compaction_time);

    let mut piece_sizes = traced.post.piece_sizes.clone();
    let piece_p50 = percentile_ns(&mut piece_sizes, 0.50) as f64;
    let latch = &traced.post.latch;
    let load = &traced.post.partition_load;
    let max_share = (0..PARTITIONS)
        .map(|p| load.iter().skip(p).step_by(PARTITIONS).sum::<u64>())
        .max()
        .unwrap_or(0) as f64;

    // Write and join latencies sit here, not end to end: they exist on one
    // workload only. They come from the untraced repetition.
    let mut writes = untraced.log.steady.latencies_ns(&[OpKind::Write]);
    let mut join_lat = untraced.log.steady.latencies_ns(&[OpKind::Join]);

    vec![
        ("core.busy_s", core_busy),
        ("core.self_s", core_busy - core_parts),
        ("core.crack_s", secs(all.crack_time)),
        ("core.crack_s.cold", secs(all_cold.crack_time)),
        (
            "core.cracks_per_read.cold",
            ratio(
                cold.components(&[OpKind::Read]).cracks_performed as f64,
                cold.ops_of(OpKind::Read) as f64,
            ),
        ),
        (
            "core.cracks_per_read.steady",
            ratio(
                steady.components(&[OpKind::Read]).cracks_performed as f64,
                steady.ops_of(OpKind::Read) as f64,
            ),
        ),
        ("core.wait_s", secs(all.wait_time)),
        ("core.wait_s.cold", secs(all_cold.wait_time)),
        ("core.conflicts.cold", all_cold.conflicts as f64),
        ("core.conflicts.steady", all_steady.conflicts as f64),
        ("core.refinements_skipped", all.refinements_skipped as f64),
        ("core.snapshot_retries", all.snapshot_retries as f64),
        ("core.aggregate_s", secs(all.aggregate_time)),
        ("core.compaction_s", secs(all.compaction_time)),
        ("core.compaction_steps", all.compaction_steps as f64),
        ("core.rows_reclaimed", all.rows_reclaimed as f64),
        ("core.delta_rows_final", traced.post.delta_rows as f64),
        ("core.pieces_final", traced.post.piece_sizes.len() as f64),
        ("core.piece_rows_p50_final", piece_p50),
        ("latch.read_acquisitions", latch.read_acquisitions as f64),
        ("latch.write_acquisitions", latch.write_acquisitions as f64),
        ("latch.read_conflicts", latch.read_conflicts as f64),
        ("latch.write_conflicts", latch.write_conflicts as f64),
        ("latch.wait_s", latch.wait_nanos as f64 / 1e9),
        ("latch.abandoned", latch.abandoned as f64),
        ("table.busy_s", table_busy),
        (
            "table.self_s",
            if outcome.through_table {
                table_busy - core_busy
            } else {
                0.0
            },
        ),
        (
            "table.candidate_bytes_per_select",
            ratio(reads.candidate_set_bytes as f64, selects),
        ),
        (
            "table.blocks_skipped_per_select",
            ratio(reads.blocks_skipped as f64, selects),
        ),
        ("table.join_gallop", traced.post.joins.0 as f64),
        ("table.join_hash", traced.post.joins.1 as f64),
        (
            "table.join_rows_skipped_per_join",
            ratio(joins.join_rows_skipped as f64, join_ops),
        ),
        ("table.write_p50_us", percentile_us(&mut writes, 0.50)),
        ("table.write_p99_us", percentile_us(&mut writes, 0.99)),
        ("table.join_p50_us", percentile_us(&mut join_lat, 0.50)),
        ("table.join_p99_us", percentile_us(&mut join_lat, 0.99)),
        (
            "parallel.range.partition_load_max_share",
            ratio(max_share, load.iter().sum::<u64>() as f64),
        ),
        (
            "bench.trace_overhead_ratio",
            ratio(ops_per_s(steady), ops_per_s(&untraced.log.steady)),
        ),
    ]
}

/// Writes the traced repetition's spans as JSONL: per client and phase one
/// phase span, and under it one span per call into the layer.
pub fn write_spans(path: &Path, outcome: &WorkloadOutcome) -> std::io::Result<()> {
    let layer = if outcome.through_table {
        "table"
    } else {
        "core"
    };
    let traced = &outcome.reps[1];
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut next_id = 1u64;
    for (phase_name, phase) in [("cold", &traced.log.cold), ("steady", &traced.log.steady)] {
        for (client, log) in phase.clients.iter().enumerate() {
            let phase_id = next_id;
            next_id += 1;
            writeln!(
                out,
                "{{\"id\":{phase_id},\"parent\":0,\"op\":null,\"client\":{client},\"name\":\"{phase_name}\",\"start_ns\":{},\"end_ns\":{}}}",
                log.start_ns, log.end_ns
            )?;
            for record in &log.records {
                writeln!(
                    out,
                    "{{\"id\":{next_id},\"parent\":{phase_id},\"op\":{},\"client\":{client},\"name\":\"{layer}.{}\",\"start_ns\":{},\"end_ns\":{}}}",
                    record.index,
                    record.kind.span_name(),
                    record.start_ns,
                    record.end_ns
                )?;
                next_id += 1;
            }
        }
    }
    out.flush()
}
