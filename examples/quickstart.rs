//! Quickstart: adaptive indexing in a dozen lines.
//!
//! Builds a column of unique random integers, answers a handful of range
//! queries with three approaches — plain scan, full sort, and database
//! cracking — and prints how the per-query cost of cracking drops as the
//! index refines itself (the behaviour of Figure 11 in the paper).
//!
//! Run with: `cargo run --release --example quickstart`

use adaptive_indexing::prelude::*;
use rand::prelude::*;
use std::time::Instant;

fn main() {
    let rows = 2_000_000usize;
    let queries = 10usize;
    let selectivity = 0.10; // 10%, as in the paper's Figure 11
    println!("loading {rows} unique keys in random order...");
    let values = generate_unique_shuffled(rows, 42);

    // The three approaches of Section 6.1.
    let scan = ScanBaseline::from_values(values.clone());
    let mut sort: Option<SortIndex> = None; // built by the first query
    let crack = ConcurrentCracker::from_values(values.clone(), LatchProtocol::Piece);

    // Ranges of `width` keys at uniform positions.
    let width = (rows as f64 * selectivity) as i64;
    let mut rng = StdRng::seed_from_u64(7);
    let workload: Vec<(i64, i64)> = (0..queries)
        .map(|_| {
            let low = rng.gen_range(0..=rows as i64 - width);
            (low, low + width)
        })
        .collect();

    println!(
        "\nper-query response time (count query, {:.0}% selectivity)",
        selectivity * 100.0
    );
    println!(
        "{:>5} {:>12} {:>12} {:>12}",
        "query", "scan", "sort", "crack"
    );
    for (i, &(low, high)) in workload.iter().enumerate() {
        let t = Instant::now();
        let scan_result = scan.count(low, high);
        let scan_time = t.elapsed();

        let t = Instant::now();
        let sort_index = sort.get_or_insert_with(|| SortIndex::build_from_values(values.clone()));
        let sort_result = sort_index.count(low, high);
        let sort_time = t.elapsed();

        let t = Instant::now();
        let (crack_result, metrics) = crack.count(low, high);
        let crack_time = t.elapsed();

        assert_eq!(scan_result, sort_result);
        assert_eq!(scan_result, crack_result);
        println!(
            "{:>5} {:>9.3} ms {:>9.3} ms {:>9.3} ms   (cracks: {}, pieces: {})",
            i + 1,
            scan_time.as_secs_f64() * 1e3,
            sort_time.as_secs_f64() * 1e3,
            crack_time.as_secs_f64() * 1e3,
            metrics.cracks_performed,
            crack.piece_count(),
        );
    }

    println!(
        "\nafter {queries} queries the cracker index has {} pieces; every query answered \
         exactly the same result as a full scan (range width {width} keys).",
        crack.piece_count()
    );
    println!(
        "total cracks: {}, latch conflicts: {} (single client, so none expected)",
        crack.crack_count(),
        crack.latch_stats().total_conflicts()
    );
}
