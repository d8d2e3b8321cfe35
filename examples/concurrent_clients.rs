//! Concurrent clients hammering one adaptive index.
//!
//! Reproduces the shape of the paper's Section 6.2 experiment at laptop
//! scale: a fixed sequence of random sum queries is replayed with an
//! increasing number of concurrent clients against (a) plain scans,
//! (b) a full sorted index, built by the run, and (c) database cracking
//! with piece latches. It prints total time, throughput, and the
//! conflict/wait statistics that only the cracking arm incurs — and that
//! shrink as the index refines. Every answer is checked against a scan.
//!
//! Run with: `cargo run --release --example concurrent_clients`

use adaptive_indexing::prelude::*;
use rand::prelude::*;
use std::time::Instant;

/// Replays `queries` from `clients` scoped threads, client `c` taking
/// queries `c, c + clients, …`; checks each sum against `expected` and
/// returns the queries' metrics, summed.
fn replay(
    queries: &[(i64, i64)],
    expected: &[i128],
    clients: usize,
    sum: impl Fn(i64, i64) -> (i128, QueryMetrics) + Sync,
) -> QueryMetrics {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let sum = &sum;
                s.spawn(move || {
                    let mut totals = QueryMetrics::default();
                    for i in (c..queries.len()).step_by(clients) {
                        let (low, high) = queries[i];
                        let (answer, metrics) = sum(low, high);
                        assert_eq!(answer, expected[i], "sum over [{low},{high})");
                        totals.accumulate(&metrics);
                    }
                    totals
                })
            })
            .collect();
        let mut totals = QueryMetrics::default();
        for handle in handles {
            totals.accumulate(&handle.join().unwrap());
        }
        totals
    })
}

fn main() {
    let rows = 1_000_000usize;
    let queries = 256usize;
    let width = rows as i64 / 10_000; // 0.01 % selectivity
    let client_counts = [1usize, 2, 4, 8];

    println!(
        "data: {rows} unique keys; workload: {queries} random sum queries, 0.01% selectivity\n"
    );
    let values = generate_unique_shuffled(rows, 7);
    let mut rng = StdRng::seed_from_u64(11);
    let workload: Vec<(i64, i64)> = (0..queries)
        .map(|_| {
            let low = rng.gen_range(0..=rows as i64 - width);
            (low, low + width)
        })
        .collect();
    let scan = ScanBaseline::from_values(values.clone());
    let expected: Vec<i128> = workload.iter().map(|&(lo, hi)| scan.sum(lo, hi)).collect();

    println!(
        "{:<14} {:>8} {:>12} {:>14} {:>10} {:>12}",
        "approach", "clients", "total (ms)", "queries/sec", "conflicts", "wait (ms)"
    );
    for &clients in &client_counts {
        for approach in ["scan", "sort", "crack-piece"] {
            let unsorted = values.clone();
            let cracker = ConcurrentCracker::from_values(values.clone(), LatchProtocol::Piece);
            let start = Instant::now();
            let totals = match approach {
                "scan" => replay(&workload, &expected, clients, |lo, hi| {
                    (scan.sum(lo, hi), QueryMetrics::default())
                }),
                "sort" => {
                    // The run pays for the sort, as the first query would.
                    let sort = SortIndex::build_from_values(unsorted);
                    replay(&workload, &expected, clients, |lo, hi| {
                        (sort.sum(lo, hi), QueryMetrics::default())
                    })
                }
                _ => replay(&workload, &expected, clients, |lo, hi| cracker.sum(lo, hi)),
            };
            let elapsed = start.elapsed();
            println!(
                "{:<14} {:>8} {:>12.1} {:>14.1} {:>10} {:>12.2}",
                approach,
                clients,
                elapsed.as_secs_f64() * 1e3,
                queries as f64 / elapsed.as_secs_f64(),
                totals.conflicts,
                totals.wait_time.as_secs_f64() * 1e3,
            );
        }
    }

    println!(
        "\ncracking turns the read-only queries into index writers, yet its conflicts and \
         waiting time stay small and shrink over the query sequence — the pieces it creates \
         become an ever finer latching granularity (Section 5.3 of the paper)."
    );
}
