//! Multi-core parallel adaptive indexing in action: the same workload
//! answered by the serial concurrent cracker and by range-partitioned
//! latch-free cracking — both verified against a scan — and then the adversarial input, a left-to-right sweep, which the
//! core's pivot policy keeps cheap on the same cracker.
//!
//! Run with `cargo run --release --example parallel_cracking`.

use adaptive_indexing::prelude::*;
use std::time::Instant;

const ROWS: usize = 2_000_000;
const QUERIES: usize = 64;

fn main() {
    let workers = available_cores().max(4);
    println!(
        "parallel adaptive indexing over {ROWS} keys, {QUERIES} sum queries, {workers} workers"
    );
    println!("(machine reports {} core(s))\n", available_cores());

    let values = generate_unique_shuffled(ROWS, 42);
    let queries = WorkloadGenerator::new(ROWS as u64, 0.001, Aggregate::Sum, 7).generate(QUERIES);
    let scan = ScanBaseline::from_values(values.clone());

    let report = |label: &str, ranges: &[(i64, i64)], answer: &dyn Fn(i64, i64) -> i128| {
        let start = Instant::now();
        for &(low, high) in ranges {
            let got = answer(low, high);
            assert_eq!(
                got,
                scan.sum(low, high),
                "{label} diverged on [{low},{high})"
            );
        }
        println!(
            "{label:<28} {:>8.1} ms   ({} queries, all answers == scan)",
            start.elapsed().as_secs_f64() * 1e3,
            ranges.len()
        );
    };
    let uniform: Vec<(i64, i64)> = queries.iter().map(|q| (q.low, q.high)).collect();

    let serial = ConcurrentCracker::from_values(values.clone(), LatchProtocol::Piece);
    report("crack-piece (serial)", &uniform, &|lo, hi| {
        serial.sum(lo, hi).0
    });

    let ranged = RangePartitionedCracker::new(values.clone(), workers);
    report("parallel-range (latch-free)", &uniform, &|lo, hi| {
        ranged.sum(lo, hi).0
    });

    // The input that breaks cracking at the query bounds alone: every
    // query's bounds fall in the never-cracked tail. The cracker first
    // splits an oversized piece around a pivot sampled from it, so the
    // tail halves instead of being re-partitioned by every query.
    let stride = (ROWS / QUERIES) as i64;
    let sweep: Vec<(i64, i64)> = (0..QUERIES as i64)
        .map(|k| (k * stride, k * stride + stride / 2))
        .collect();
    let swept = ConcurrentCracker::from_values(values, LatchProtocol::Piece);
    report("crack-piece, sweep", &sweep, &|lo, hi| swept.sum(lo, hi).0);

    println!(
        "\nrange partition sizes: {:?} (router only wakes owners a query overlaps)",
        ranged.partition_sizes()
    );
    println!(
        "sweep cracks: {} ({} at the sweep's bounds, the rest at sampled pivots)",
        swept.crack_count(),
        2 * QUERIES
    );
}
