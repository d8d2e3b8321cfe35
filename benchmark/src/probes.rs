//! Short direct probes of lower-layer public functions, and the baselines.
//!
//! They do not depend on the workload: every traced run makes them, on
//! inputs derived from the same seed. The baselines double as noise
//! canaries — if they move between two runs of one commit, the machine
//! was noisy.

use crate::col::{uniform_ops, ColOp};
use crate::gen::{permutation, SplitMix64};
use crate::measure::Metrics;
use crate::spec::{Scale, PARTITIONS};
use crate::stats::{median, percentile_ns};
use aidx_core::{
    intersect_sets, merge_join_pairs, ConcurrentAdaptiveMerge, ConcurrentCracker,
    IntersectStrategy, KeyRuns, LatchProtocol, RowIdSet, SharedCrackerArray,
};
use aidx_cracking::{CrackerIndex, ScanBaseline, SortIndex};
use aidx_latch::{LockManager, RwLatch};
use aidx_parallel::RangePartitionedCracker;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Probe sizes. Full scale keeps the row counts the metric names promise
/// (the `.dram` kernels and the baselines run on 16 Mi rows) and spends
/// about ten seconds in all; op counts are what was cut to fit.
struct Sizes {
    /// Rows of the `.dram` kernel probes and of the baseline column.
    big_rows: usize,
    l2_rows: usize,
    l1_rows: usize,
    /// Ops of the serial-cracker and concurrency-control-overhead probes.
    crack_ops: usize,
    scan_ops: usize,
    sort_ops: usize,
    merge_ops: usize,
    set_rows: usize,
    latch_iters: usize,
    hop_rows: usize,
    hop_ops: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            big_rows: 16 << 20,
            l2_rows: 256 << 10,
            l1_rows: 4 << 10,
            crack_ops: 20_000,
            scan_ops: 32,
            sort_ops: 100_000,
            merge_ops: 1024,
            set_rows: 1 << 20,
            latch_iters: 1 << 20,
            hop_rows: 1 << 20,
            hop_ops: 8_192,
        },
        Scale::Smoke => Sizes {
            big_rows: 64 << 10,
            l2_rows: 8 << 10,
            l1_rows: 1 << 10,
            crack_ops: 1_000,
            scan_ops: 32,
            sort_ops: 1_000,
            merge_ops: 128,
            set_rows: 16 << 10,
            latch_iters: 16 << 10,
            hop_rows: 16 << 10,
            hop_ops: 512,
        },
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn random_values(n: usize, domain: u64, rng: &mut SplitMix64) -> Vec<i64> {
    (0..n).map(|_| rng.below(domain) as i64).collect()
}

/// `crack_in_two` throughput on never-partitioned random data: one range
/// of `big_rows` for DRAM, then disjoint sub-ranges of its two halves
/// (still randomly ordered inside) for the cache-resident sizes, each read
/// once just before it is cracked so it starts out in cache.
fn kernel_probes(sizes: &Sizes, rng: &mut SplitMix64, out: &mut Metrics) {
    const DOMAIN: u64 = 1 << 40;
    let mid = (DOMAIN / 2) as i64;
    let n = sizes.big_rows;
    let array = SharedCrackerArray::from_values(random_values(n, DOMAIN, rng));
    let (split, secs) = timed(|| array.crack_in_two_range(0, n, mid));
    out.push(("core.kernel.crack_mrows_per_s.dram", n as f64 / secs / 1e6));

    let resident = |from: usize, to: usize, rows: usize, pivot: i64| -> f64 {
        let rates: Vec<f64> = (from..to)
            .step_by(rows)
            .take_while(|start| start + rows <= to)
            .take(64)
            .map(|start| {
                black_box(array.sum_range(start, start + rows));
                let (_, secs) = timed(|| array.crack_in_two_range(start, start + rows, pivot));
                rows as f64 / secs / 1e6
            })
            .collect();
        median(&rates)
    };
    out.push((
        "core.kernel.crack_mrows_per_s.l2",
        resident(0, split, sizes.l2_rows, mid / 2),
    ));
    out.push((
        "core.kernel.crack_mrows_per_s.l1",
        resident(split, n, sizes.l1_rows, mid + mid / 2),
    ));
    drop(array);

    let array = SharedCrackerArray::from_values(random_values(n, DOMAIN, rng));
    let (_, secs) = timed(|| array.crack_in_two_with_hole(0, n - 1, mid, n - 1));
    out.push((
        "core.kernel.hole_crack_mrows_per_s.dram",
        (n - 1) as f64 / secs / 1e6,
    ));
}

/// Sorted ids with seeded gaps averaging `gap`.
fn sorted_ids(n: usize, gap: u64, rng: &mut SplitMix64) -> Vec<u32> {
    let mut next = 0u32;
    (0..n)
        .map(|_| {
            next += 1 + rng.below(2 * gap - 1) as u32;
            next
        })
        .collect()
}

fn rowid_set_probes(sizes: &Sizes, rng: &mut SplitMix64, out: &mut Metrics) {
    let n = sizes.set_rows;
    let ids = sorted_ids(n, 8, rng);
    let (set, secs) = timed(|| RowIdSet::from_sorted(&ids));
    out.push(("core.rowid_set.encode_ns_per_row", secs * 1e9 / n as f64));
    out.push((
        "core.rowid_set.bytes_per_row",
        set.heap_bytes() as f64 / n as f64,
    ));
    let (_, secs) = timed(|| black_box(set.to_vec()));
    out.push(("core.rowid_set.iter_ns_per_row", secs * 1e9 / n as f64));

    let other = RowIdSet::from_sorted(&sorted_ids(n, 8, rng));
    let (_, secs) = timed(|| black_box(intersect_sets(&set, &other, IntersectStrategy::Adaptive)));
    out.push((
        "core.rowid_set.intersect_ns_per_row.1to1",
        secs * 1e9 / (2 * n) as f64,
    ));
    let small = RowIdSet::from_sorted(&sorted_ids(n / 100, 800, rng));
    let (_, secs) = timed(|| black_box(intersect_sets(&small, &set, IntersectStrategy::Adaptive)));
    out.push((
        "core.rowid_set.intersect_ns_per_row.1to100",
        secs * 1e9 / (n + n / 100) as f64,
    ));

    // Key runs as a join side produces them: unsorted per-piece runs with
    // disjoint key envelopes, here 64 per side over a shared key domain.
    let side = |rng: &mut SplitMix64| {
        let mut runs = KeyRuns::new();
        let per_run = n / 64;
        for run in 0..64u64 {
            let pairs = (0..per_run)
                .map(|i| {
                    let key = run * per_run as u64 * 2 + rng.below(per_run as u64 * 2);
                    (key as i64, (run as usize * per_run + i) as u32)
                })
                .collect();
            runs.push_run(pairs);
        }
        runs
    };
    let (left, right) = (side(rng), side(rng));
    let rows = (left.total_rows() + right.total_rows()) as f64;
    let mut pairs = Vec::new();
    let (_, secs) =
        timed(|| merge_join_pairs(left.into_merge_iter(), right.into_merge_iter(), &mut pairs));
    black_box(pairs);
    out.push(("core.key_runs.merge_join_ns_per_row", secs * 1e9 / rows));
}

fn latch_probes(sizes: &Sizes, out: &mut Metrics) {
    let latch = RwLatch::new("probe");
    let iters = sizes.latch_iters;
    let (_, secs) = timed(|| {
        for _ in 0..iters {
            drop(black_box(latch.read()));
        }
    });
    out.push(("latch.uncontended_read_ns", secs * 1e9 / iters as f64));
    let (_, secs) = timed(|| {
        for _ in 0..iters {
            drop(black_box(latch.write()));
        }
    });
    out.push(("latch.uncontended_write_ns", secs * 1e9 / iters as f64));
}

/// Runs `ops` single-threaded through `f`, returning the seconds taken.
fn replay(ops: &[ColOp], mut f: impl FnMut(&ColOp) -> i128) -> f64 {
    timed(|| {
        let mut acc = 0i128;
        for op in ops {
            acc = acc.wrapping_add(f(op));
        }
        black_box(acc)
    })
    .1
}

fn concurrent_replay(index: &ConcurrentCracker, ops: &[ColOp]) -> f64 {
    replay(ops, |op| crate::col::execute(index, op).0.value)
}

/// The baselines Alvarez et al. insist an adaptive index is plotted
/// against, on the `col_uniform` column and stream: scan, sort up front,
/// the serial cracker, adaptive merging — and Fig. 13's administration
/// overhead, piece latching over none with one client.
fn baseline_probes(sizes: &Sizes, seed: u64, out: &mut Metrics) {
    let n = sizes.big_rows;
    let values = permutation(n, &mut SplitMix64::stream(seed, "col.values"));
    let ops = uniform_ops(
        n,
        sizes.sort_ops.max(sizes.crack_ops),
        &mut SplitMix64::stream(seed, "col_uniform.ops.0"),
    );

    let scan = ScanBaseline::from_values(values.clone());
    let secs = replay(&ops[..sizes.scan_ops], |op| {
        if op.sum {
            scan.sum(op.low, op.high)
        } else {
            scan.count(op.low, op.high) as i128
        }
    });
    out.push(("cracking.scan_ops_per_s", sizes.scan_ops as f64 / secs));
    drop(scan);

    let (sorted, secs) = timed(|| SortIndex::build_from_values(values.clone()));
    out.push(("cracking.sort_build_s", secs));
    let secs = replay(&ops[..sizes.sort_ops], |op| {
        if op.sum {
            sorted.sum(op.low, op.high)
        } else {
            sorted.count(op.low, op.high) as i128
        }
    });
    out.push(("cracking.sort_ops_per_s", sizes.sort_ops as f64 / secs));
    drop(sorted);

    let crack_ops = &ops[..sizes.crack_ops];
    let mut serial = CrackerIndex::from_values(values.clone());
    let secs = replay(crack_ops, |op| {
        if op.sum {
            serial.sum(op.low, op.high)
        } else {
            serial.count(op.low, op.high) as i128
        }
    });
    out.push(("cracking.serial_crack_s", secs));
    drop(serial);

    let unlatched = ConcurrentCracker::from_values(values.clone(), LatchProtocol::None);
    let none_s = concurrent_replay(&unlatched, crack_ops);
    drop(unlatched);
    let latched = ConcurrentCracker::from_values(values.clone(), LatchProtocol::Piece);
    let piece_s = concurrent_replay(&latched, crack_ops);
    drop(latched);
    out.push(("core.cc_overhead_ratio", piece_s / none_s));

    // Adaptive merging pays for its sorted runs before the first answer,
    // so the build is part of the figure. It runs on the first quarter of
    // the column (a uniform sample of the permutation, so the stream's
    // ranges still hit) to keep the probes short.
    let start = Instant::now();
    let merge = ConcurrentAdaptiveMerge::build_from_values(
        &values[..n / 4],
        n / 64,
        Arc::new(LockManager::new()),
    );
    replay(&ops[..sizes.merge_ops], |op| {
        if op.sum {
            merge.sum(op.low, op.high).0
        } else {
            merge.count(op.low, op.high).0 as i128
        }
    });
    let secs = start.elapsed().as_secs_f64();
    out.push(("btree.adaptive_merge_s", secs));
}

/// Router hop plus owner queue of the range backend: median
/// `select_rowid_set` latency of a converged 2-partition
/// `RangePartitionedCracker` minus that of a converged latch-free
/// `ConcurrentCracker` on the same column and stream.
fn hop_probe(sizes: &Sizes, rng: &mut SplitMix64, out: &mut Metrics) {
    let n = sizes.hop_rows;
    let values = permutation(n, rng);
    let ops = uniform_ops(n, sizes.hop_ops, rng);
    let median_ns = |select: &dyn Fn(&ColOp) -> usize| {
        // The first pass converges the index on exactly these bounds.
        for op in &ops {
            black_box(select(op));
        }
        let mut samples: Vec<u64> = ops
            .iter()
            .map(|op| {
                let start = Instant::now();
                black_box(select(op));
                start.elapsed().as_nanos() as u64
            })
            .collect();
        percentile_ns(&mut samples, 0.50) as f64
    };
    let direct = ConcurrentCracker::from_values(values.clone(), LatchProtocol::None);
    let direct_ns = median_ns(&|op| direct.select_rowid_set(op.low, op.high).0.len());
    let routed = RangePartitionedCracker::new(values, PARTITIONS);
    let routed_ns = median_ns(&|op| routed.select_rowid_set(op.low, op.high).0.len());
    out.push(("parallel.range.hop_us", (routed_ns - direct_ns) / 1e3));
}

pub fn run(scale: Scale, seed: u64) -> Metrics {
    let sizes = sizes(scale);
    let mut rng = SplitMix64::stream(seed, "probes");
    let mut out = Metrics::new();
    kernel_probes(&sizes, &mut rng, &mut out);
    rowid_set_probes(&sizes, &mut rng, &mut out);
    latch_probes(&sizes, &mut out);
    baseline_probes(&sizes, seed, &mut out);
    hop_probe(&sizes, &mut rng, &mut out);
    out
}
