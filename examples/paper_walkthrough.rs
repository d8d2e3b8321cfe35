//! Walkthrough of the paper's running example (Figures 2, 3, and 4).
//!
//! The paper illustrates database cracking, adaptive merging, and the hybrid
//! crack-sort on the letter sequence `hbnecoyulzqutgjwvdokimreapxafsi` with
//! two queries: `between 'd' and 'i'` and `between 'f' and 'm'`. This
//! example executes exactly that scenario on all three index structures,
//! prints the state after each query so the output can be compared with the
//! figures, and checks that all three return the rows a plain scan finds.
//!
//! Run with: `cargo run --release --example paper_walkthrough`

use adaptive_indexing::prelude::*;

fn letters_to_keys(s: &str) -> Vec<i64> {
    s.bytes().map(|b| (b - b'a' + 1) as i64).collect()
}

fn keys_to_letters(keys: &[i64]) -> String {
    keys.iter()
        .map(|&k| (b'a' + (k as u8) - 1) as char)
        .collect()
}

fn sorted(mut keys: Vec<i64>) -> Vec<i64> {
    keys.sort_unstable();
    keys
}

fn main() {
    let data = "hbnecoyulzqutgjwvdokimreapxafsi";
    let keys = letters_to_keys(data);
    // Inclusive letter ranges from the paper, as half-open key ranges.
    let q1 = ('d', 'i');
    let q2 = ('f', 'm');
    let to_range = |(lo, hi): (char, char)| {
        (
            (lo as u8 - b'a' + 1) as i64,
            (hi as u8 - b'a' + 1) as i64 + 1,
        )
    };

    let queries = [("d–i", q1), ("f–m", q2)];
    // Each structure's sorted result per query, checked at the end.
    let mut results: [Vec<Vec<i64>>; 3] = Default::default();

    println!("data loaded directly, without sorting:\n  {data}\n");

    // ----- Figure 2: database cracking --------------------------------
    println!("== database cracking (Figure 2) ==");
    let mut cracker = CrackerIndex::from_values(keys.clone());
    for (label, q) in queries {
        let (low, high) = to_range(q);
        let outcome = cracker.crack_select(low, high);
        let result = cracker.array().values()[outcome.range.clone()].to_vec();
        println!(
            "query {label}: result '{}' ({} cracks, array now {})",
            keys_to_letters(&result),
            outcome.cracks_performed,
            keys_to_letters(cracker.array().values())
        );
        println!("  pieces: {}", cracker.piece_map().piece_count());
        results[0].push(sorted(result));
    }

    // ----- Figure 3: adaptive merging ----------------------------------
    println!("\n== adaptive merging (Figure 3) ==");
    let mut merging = AdaptiveMergeIndex::build_from_values(&keys, 8);
    println!(
        "initial partitions: {} sorted runs of up to 8 letters",
        merging.stats().initial_runs
    );
    for (label, q) in queries {
        let (low, high) = to_range(q);
        let result: Vec<i64> = merging
            .query_range(low, high)
            .iter()
            .map(|&(k, _)| k)
            .collect();
        println!(
            "query {label}: result '{}', final partition now holds {} letters \
             ({} records merged so far)",
            keys_to_letters(&result),
            merging.final_partition_len(),
            merging.stats().records_merged
        );
        results[1].push(sorted(result));
    }

    // ----- Figure 4: hybrid crack-sort ----------------------------------
    println!("\n== hybrid crack-sort (Figure 4) ==");
    let mut hybrid = HybridCrackSort::build_from_values(&keys, 8);
    println!(
        "initial partitions: {} unsorted chunks of up to 8 letters",
        hybrid.stats().initial_partitions
    );
    for (label, q) in queries {
        let (low, high) = to_range(q);
        let result: Vec<i64> = hybrid
            .query_range(low, high)
            .iter()
            .map(|&(k, _)| k)
            .collect();
        println!(
            "query {label}: result '{}', final partition now holds {} letters \
             ({} crack steps so far)",
            keys_to_letters(&result),
            hybrid.final_partition_len(),
            hybrid.stats().crack_steps
        );
        results[2].push(sorted(result));
    }

    for (i, (label, q)) in queries.into_iter().enumerate() {
        let (low, high) = to_range(q);
        let scan = sorted(
            keys.iter()
                .copied()
                .filter(|k| (low..high).contains(k))
                .collect(),
        );
        assert_eq!(results[0][i], scan, "cracking, query {label}");
        assert_eq!(results[1][i], scan, "adaptive merging, query {label}");
        assert_eq!(results[2][i], scan, "hybrid crack-sort, query {label}");
    }
    println!(
        "\nall three structures returned the scan's results for both queries; \
         they differ only in how much initialisation and per-query refinement work they do."
    );
}
