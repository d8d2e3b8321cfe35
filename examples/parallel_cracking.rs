//! Range-partitioned adaptive indexing in action: the same workload
//! answered by the serial concurrent cracker and by one cracked at range
//! splits when it is built — both verified against a scan — and then the
//! adversarial input, a left-to-right sweep, which the core's pivot policy
//! keeps cheap on the same cracker.
//!
//! Run with `cargo run --release --example parallel_cracking`.

use adaptive_indexing::prelude::*;
use rand::prelude::*;
use std::time::Instant;

const ROWS: usize = 2_000_000;
const QUERIES: usize = 64;

fn main() {
    let workers = resolve_ranges(0).max(4);
    println!(
        "parallel adaptive indexing over {ROWS} keys, {QUERIES} sum queries, {workers} ranges"
    );
    println!("(machine reports {} core(s))\n", resolve_ranges(0));

    let values = generate_unique_shuffled(ROWS, 42);
    let scan = ScanBaseline::from_values(values.clone());

    // Times the answers alone, then checks each against a scan.
    let report = |label: &str, ranges: &[(i64, i64)], answer: &dyn Fn(i64, i64) -> i128| {
        let start = Instant::now();
        let answers: Vec<i128> = ranges
            .iter()
            .map(|&(low, high)| answer(low, high))
            .collect();
        let elapsed = start.elapsed();
        for (&(low, high), got) in ranges.iter().zip(answers) {
            assert_eq!(
                got,
                scan.sum(low, high),
                "{label} diverged on [{low},{high})"
            );
        }
        println!(
            "{label:<28} {:>8.1} ms   ({} queries, all answers == scan)",
            elapsed.as_secs_f64() * 1e3,
            ranges.len()
        );
    };
    // Ranges of 0.1 % of the keys at uniform positions.
    let width = ROWS as i64 / 1000;
    let mut rng = StdRng::seed_from_u64(7);
    let uniform: Vec<(i64, i64)> = (0..QUERIES)
        .map(|_| {
            let low = rng.gen_range(0..=ROWS as i64 - width);
            (low, low + width)
        })
        .collect();

    let serial = ConcurrentCracker::from_values(values.clone(), LatchProtocol::Piece);
    report("crack-piece (serial)", &uniform, &|lo, hi| {
        serial.sum(lo, hi).0
    });

    let ranged =
        ConcurrentCracker::from_values(values.clone(), LatchProtocol::Piece).with_ranges(workers);
    report("parallel-range", &uniform, &|lo, hi| ranged.sum(lo, hi).0);

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
        "\nrange splits: {:?} (cracked at build; reads per range: {:?})",
        ranged.range_splits(),
        ranged.structure_probe().partition_load
    );
    println!(
        "sweep cracks: {} ({} at the sweep's bounds, the rest at sampled pivots)",
        swept.crack_count(),
        2 * QUERIES
    );
}
