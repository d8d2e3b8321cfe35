//! Snapshot-read + incremental-compaction benchmark: quiescing rebuilds
//! versus the piece-at-a-time walk, at the same delta bound.
//!
//! The workload is a churn stream against the piece-latch cracker: each
//! op deletes one distinct seeded key (whose rows the delete's own crack
//! reclaims into a hole on the spot) and re-inserts the same key (which
//! goes pending). The pending delta therefore grows one row per pair
//! until the compaction threshold trips — and the two arms differ only in
//! *how* the triggered compaction reconciles it:
//!
//! * **quiesce** — the PR 3 system transaction: every op drains, the
//!   whole main array is rebuilt, readers and writers all stall for the
//!   rebuild.
//! * **incremental** — the piece walk: the triggering write merges a few
//!   pieces' deltas into their tombstone holes under those pieces' write
//!   latches; nobody else blocks.
//!
//! Reported per arm: the **max single-write stall** (the largest
//! compaction time attributed to one write — the quantity the incremental
//! mode is designed to bound), max/mean write latency, and the latency of
//! **long snapshot scans** (sum over the whole domain through a snapshot
//! handle) interleaved with the stream. A snapshot pinned open across the
//! *entire* stream is verified against the frozen oracle at the end, and
//! live answers are oracle-checked at every scan — the CI gate.
//!
//! Asserted: the incremental arm's max single-write stall is strictly
//! below the quiescing arm's full-rebuild pause, at the same threshold.
//!
//! Environment overrides: `AIDX_ROWS` (default 200 000), `AIDX_INSERTS`
//! (churn pairs, default 20 000), `AIDX_COMPACTION` (threshold rows,
//! default 2048), `AIDX_STEP` (pieces per incremental walk step, default
//! 8).
//!
//! Run with `cargo bench -p aidx-bench --bench bench_snapshot`.

use aidx_bench::{ms, print_table, scaled_params};
use aidx_core::{ColumnRead, CompactionPolicy, ConcurrentCracker, LatchProtocol};
use aidx_cracking::generate_unique_shuffled;
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

struct ArmResult {
    max_stall: Duration,
    wall_clock: Duration,
}

fn run_arm(
    label: &str,
    rows: usize,
    pairs: usize,
    policy: CompactionPolicy,
    table: &mut Vec<Vec<String>>,
) -> ArmResult {
    let values = generate_unique_shuffled(rows, 0xA1D1);
    let expected_sum: i128 = values.iter().map(|&v| v as i128).sum();
    let idx = ConcurrentCracker::from_values(values, LatchProtocol::Piece).with_compaction(policy);
    // Warm cracks so the churn works against a refined index.
    idx.sum(0, rows as i64 / 2);
    idx.sum(rows as i64 / 4, rows as i64);

    // Pin one snapshot across the whole stream: it must stay answerable
    // and exact no matter how many compaction events pass it by.
    let pinned = idx.pin();

    let scan_stride = (pairs / 200).max(1);
    let mut write_times = Vec::with_capacity(2 * pairs);
    let mut scan_times = Vec::with_capacity(pairs / scan_stride + 1);
    let mut max_stall = Duration::ZERO;
    let mut max_delta = 0u64;
    let start = Instant::now();
    for i in 0..pairs {
        // Churn one distinct seeded key: the delete's merge-on-crack
        // reclaims its row into a hole; the re-insert goes pending.
        let key = i as i64;
        let (removed, dm) = idx.delete(key);
        assert_eq!(removed, 1, "{label}: churned keys are distinct seeds");
        let im = idx.insert(key);
        write_times.push(dm.total);
        write_times.push(im.total);
        max_stall = max_stall.max(dm.compaction_time).max(im.compaction_time);
        max_delta = max_delta.max(idx.delta_rows());
        if i % scan_stride == scan_stride - 1 {
            // Long scan through a fresh snapshot: between churn pairs the
            // logical multiset equals the seed exactly, so the answer has
            // a closed form — the oracle gate.
            let scan_start = Instant::now();
            let snap = idx.pin();
            let (sum, _) = snap.sum(i64::MIN, i64::MAX);
            scan_times.push(scan_start.elapsed());
            assert_eq!(
                sum, expected_sum,
                "{label}: snapshot scan diverged from the oracle at pair {i}"
            );
            assert_eq!(
                idx.count(i64::MIN, i64::MAX).0,
                rows as u64,
                "{label}: live count diverged at pair {i}"
            );
        }
    }
    let wall_clock = start.elapsed();

    // The pinned snapshot read the whole stream's worth of compaction
    // events ago — it must still answer exactly at its epoch.
    assert_eq!(
        pinned.sum(i64::MIN, i64::MAX).0,
        expected_sum,
        "{label}: the stream-long pinned snapshot diverged from the frozen oracle"
    );
    assert_eq!(pinned.count(i64::MIN, i64::MAX).0, rows as u64, "{label}");
    drop(pinned);

    let threshold = policy.max_delta_rows.unwrap_or(0);
    assert!(
        max_delta <= threshold,
        "{label}: the delta must stay bounded by the threshold ({threshold}), saw {max_delta}"
    );
    assert!(idx.check_invariants(), "{label}");

    table.push(vec![
        label.to_string(),
        idx.compactions_performed().to_string(),
        idx.compaction_steps_performed().to_string(),
        max_delta.to_string(),
        ms(max_stall),
        ms(write_times.iter().copied().max().unwrap_or_default()),
        ms(mean(&write_times)),
        ms(mean(&scan_times)),
        ms(scan_times.iter().copied().max().unwrap_or_default()),
        ms(wall_clock),
    ]);
    ArmResult {
        max_stall,
        wall_clock,
    }
}

fn main() {
    let (rows, _) = scaled_params(200_000, 256);
    let pairs = env_usize("AIDX_INSERTS", 20_000).min(rows);
    let threshold = env_usize("AIDX_COMPACTION", 2048) as u64;
    let step = env_usize("AIDX_STEP", 8);

    println!("# bench_snapshot: rows={rows} churn_pairs={pairs} threshold={threshold} step={step}");
    println!();

    let mut table = Vec::new();
    let quiesce = run_arm(
        "quiesce",
        rows,
        pairs,
        CompactionPolicy::rows(threshold),
        &mut table,
    );
    let incremental = run_arm(
        "incremental",
        rows,
        pairs,
        CompactionPolicy::rows(threshold).incremental(step),
        &mut table,
    );
    print_table(
        "churn stream (crack-piece, snapshot scans interleaved, oracle-verified)",
        &[
            "arm",
            "rebuilds",
            "walk_steps",
            "max_delta_rows",
            "max_write_stall_ms",
            "max_write_ms",
            "mean_write_ms",
            "mean_scan_ms",
            "max_scan_ms",
            "wall_clock_ms",
        ],
        &table,
    );

    assert!(
        incremental.max_stall < quiesce.max_stall,
        "incremental compaction must bound the worst-case write stall strictly below the \
         quiescing rebuild's pause at the same delta threshold: incremental {:?} vs quiesce {:?}",
        incremental.max_stall,
        quiesce.max_stall
    );
    println!(
        "max single-write stall: incremental {} ms < quiescing {} ms at equal delta bound; \
         all snapshot scans and the stream-long pinned snapshot matched the oracle \
         (wall clocks: {} ms vs {} ms)",
        ms(incremental.max_stall),
        ms(quiesce.max_stall),
        ms(incremental.wall_clock),
        ms(quiesce.wall_clock),
    );
}
