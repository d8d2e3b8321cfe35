//! What the benchmark measures: workload names, sizes and metric names.
//!
//! `BENCHMARK.json` at the repo root names the same workloads and metrics;
//! `tests/smoke.rs` fails when the two drift apart.

/// Client threads of every concurrent workload. Fixed — never "one per
/// core" — so two machines, or two commits, run the same protocol; equals
/// `nproc` of the reference box. `col_sequential` alone runs one client.
pub const CLIENTS: usize = 2;

/// Partitions of the range backend on `table_range_zipf`; fixed for the
/// same reason.
pub const PARTITIONS: usize = 2;

/// Columns of the fact table.
pub const FACT_COLUMNS: usize = 4;

pub const WORKLOADS: [&str; 4] = [
    "col_uniform",
    "col_sequential",
    "table_mixed",
    "table_range_zipf",
];

/// `(name, unit)` of every end-to-end metric; each is emitted, non-zero,
/// on every workload by an untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("cold_s", "s"),
    ("steady_ops_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric; each is emitted on every
/// workload by a traced run. A layer that is not on a workload's path
/// reports the 0 it measured there.
pub const PER_LAYER: [(&str, &str); 57] = [
    // aidx-core: the column layer, from spans and QueryMetrics.
    ("core.busy_s", "s"),
    ("core.self_s", "s"),
    ("core.crack_s", "s"),
    ("core.crack_s.cold", "s"),
    ("core.cracks_per_read.cold", "count"),
    ("core.cracks_per_read.steady", "count"),
    ("core.wait_s", "s"),
    ("core.wait_s.cold", "s"),
    ("core.conflicts.cold", "count"),
    ("core.conflicts.steady", "count"),
    ("core.refinements_skipped", "count"),
    ("core.snapshot_retries", "count"),
    ("core.aggregate_s", "s"),
    ("core.compaction_s", "s"),
    ("core.compaction_steps", "count"),
    ("core.rows_reclaimed", "count"),
    ("core.delta_rows_final", "count"),
    ("core.pieces_final", "count"),
    ("core.piece_rows_p50_final", "count"),
    ("core.cc_overhead_ratio", "ratio"),
    // aidx-core: direct probes of public kernels.
    ("core.kernel.crack_mrows_per_s.l1", "Mrows/s"),
    ("core.kernel.crack_mrows_per_s.l2", "Mrows/s"),
    ("core.kernel.crack_mrows_per_s.dram", "Mrows/s"),
    ("core.kernel.hole_crack_mrows_per_s.dram", "Mrows/s"),
    ("core.rowid_set.encode_ns_per_row", "ns"),
    ("core.rowid_set.iter_ns_per_row", "ns"),
    ("core.rowid_set.intersect_ns_per_row.1to1", "ns"),
    ("core.rowid_set.intersect_ns_per_row.1to100", "ns"),
    ("core.rowid_set.bytes_per_row", "B"),
    ("core.key_runs.merge_join_ns_per_row", "ns"),
    // aidx-latch.
    ("latch.read_acquisitions", "count"),
    ("latch.write_acquisitions", "count"),
    ("latch.read_conflicts", "count"),
    ("latch.write_conflicts", "count"),
    ("latch.wait_s", "s"),
    ("latch.abandoned", "count"),
    ("latch.uncontended_read_ns", "ns"),
    ("latch.uncontended_write_ns", "ns"),
    // aidx-table.
    ("table.busy_s", "s"),
    ("table.self_s", "s"),
    ("table.candidate_bytes_per_select", "B"),
    ("table.blocks_skipped_per_select", "count"),
    ("table.join_gallop", "count"),
    ("table.join_hash", "count"),
    ("table.join_rows_skipped_per_join", "count"),
    ("table.write_p50_us", "us"),
    ("table.write_p99_us", "us"),
    ("table.join_p50_us", "us"),
    ("table.join_p99_us", "us"),
    // aidx-parallel.
    ("parallel.range.partition_load_max_share", "ratio"),
    ("parallel.range.hop_us", "us"),
    // aidx-cracking / aidx-btree: baselines and noise canaries.
    ("cracking.scan_ops_per_s", "1/s"),
    ("cracking.sort_build_s", "s"),
    ("cracking.sort_ops_per_s", "1/s"),
    ("cracking.serial_crack_s", "s"),
    ("btree.adaptive_merge_s", "s"),
    // The benchmark itself.
    ("bench.trace_overhead_ratio", "ratio"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes every committed number is taken at.
    Full,
    /// 64 Ki rows, 2 k ops: seconds for all four workloads, for tests.
    Smoke,
}

/// Sizes of one workload run. Row counts are fixed per scale; op counts
/// are a fixed function of `--seconds`, so both commits of a comparison
/// do the same work however fast they are.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Rows of the column, or of the fact table.
    pub rows: usize,
    /// Rows of the dimension table (table workloads).
    pub dim_rows: usize,
    pub clients: usize,
    /// Ops `[0, cold_ops)` of each repetition run on the uncracked index.
    pub cold_ops: usize,
    /// Ops of each repetition after the barrier.
    pub steady_ops: usize,
    /// Repetitions (fresh engine, fresh op stream) in one run; every timing
    /// is taken per repetition and reported as the quartile over them on
    /// the metric's better side.
    pub reps: usize,
    /// Build-and-drop rounds timed for `setup_s`, made after the
    /// repetitions — by then the allocator has settled, so every round
    /// finds it in the same state. More where a build takes milliseconds.
    pub setup_samples: usize,
}

pub fn sizing(workload: &str, scale: Scale, seconds: u64) -> Sizing {
    let clients = if workload == "col_sequential" {
        1
    } else {
        CLIENTS
    };
    match scale {
        Scale::Smoke => Sizing {
            rows: 64 << 10,
            dim_rows: 1 << 10,
            clients,
            cold_ops: if workload == "col_sequential" { 16 } else { 64 },
            steady_ops: if workload == "col_sequential" {
                240
            } else {
                2_000
            },
            reps: 1,
            setup_samples: 3,
        },
        Scale::Full => {
            // Steady ops per repetition per `--seconds` were calibrated once
            // on the 2-core reference box, so that the timed phases of all
            // repetitions together take 10–20 s at `--seconds 10`.
            let (rows, cold_ops, steady_per_second, reps, setup_samples) = match workload {
                "col_uniform" => (16 << 20, 256, 20_000, 3, 7),
                "col_sequential" => (4 << 20, 16, 30, 8, 100),
                "table_mixed" => (2 << 20, 240, 50, 5, 60),
                "table_range_zipf" => (2 << 20, 240, 50, 5, 11),
                other => panic!("unknown workload {other}"),
            };
            Sizing {
                rows,
                dim_rows: 32 << 10,
                clients,
                cold_ops,
                steady_ops: steady_per_second * seconds.max(1) as usize,
                reps,
                setup_samples,
            }
        }
    }
}
