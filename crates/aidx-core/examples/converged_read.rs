//! The converged read against a sorted index, on one thread.
//!
//! Builds a permutation of `0..rows`, converges two `ConcurrentCracker`s
//! on it — `LatchProtocol::Piece` and `LatchProtocol::None` — with reads
//! shaped like the benchmark's `col_uniform` (0.01 % ranges, three sums to
//! one count), then times the same stream of further reads on each cracker
//! and on a `SortIndex` (sort up front, binary search, contiguous sum). A
//! round runs its stream in chunks of 1 000 reads, each chunk on all three
//! indexes in an order that rotates from chunk to chunk, so that a
//! machine whose speed drifts slows all three alike. Every round asserts
//! that the three answer streams are identical. It prints each round's reads per second,
//! then the median of each index and two cost ratios: Piece ÷ SortIndex
//! and Piece ÷ None, the time one Piece read takes over the other index's,
//! as the median of the rounds' ratios.
//!
//! ```text
//! cargo run --release -p aidx-core --example converged_read -- \
//!     [rows] [warm-up reads] [timed reads] [rounds]
//! ```
//!
//! The defaults are 16 777 216 rows, 200 000 warm-up reads, 100 000 timed
//! reads and 9 rounds (about 1 GiB of memory).

use aidx_core::{ConcurrentCracker, LatchProtocol};
use aidx_cracking::baseline::SortIndex;
use aidx_cracking::generator::generate_unique_shuffled;
use std::time::Instant;

/// One splitmix64 step: the read stream's randomness, seeded.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `col_uniform`'s reads: `[low, low + rows / 10 000)` at uniform `low`,
/// a count every fourth pair and sums otherwise.
fn reads(rows: usize, n: usize, seed: u64) -> Vec<(i64, i64, bool)> {
    let width = (rows / 10_000).max(1) as u64;
    let mut state = seed;
    (0..n)
        .map(|i| {
            let low = (splitmix(&mut state) % (rows as u64 - width + 1)) as i64;
            (low, low + width as i64, !(i / 2).is_multiple_of(4))
        })
        .collect()
}

/// One read on a cracker.
fn crack_read(index: &ConcurrentCracker, (low, high, sum): (i64, i64, bool)) -> i128 {
    if sum {
        index.sum(low, high).0
    } else {
        i128::from(index.count(low, high).0)
    }
}

/// One read on the sorted index.
fn sort_read(index: &SortIndex, (low, high, sum): (i64, i64, bool)) -> i128 {
    if sum {
        index.sum(low, high)
    } else {
        i128::from(index.count(low, high))
    }
}

/// Reads a chunk, appending the answers; returns the seconds it took.
fn timed(
    chunk: &[(i64, i64, bool)],
    answers: &mut Vec<i128>,
    read: impl Fn((i64, i64, bool)) -> i128,
) -> f64 {
    let start = Instant::now();
    answers.extend(chunk.iter().map(|&op| read(op)));
    start.elapsed().as_secs_f64()
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn main() {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("arguments are counts"))
        .collect();
    let arg = |i: usize, default: usize| args.get(i).copied().unwrap_or(default);
    let (rows, warmup, timed_reads, rounds) = (
        arg(0, 16 << 20),
        arg(1, 200_000),
        arg(2, 100_000),
        arg(3, 9),
    );
    assert!(rows >= 2 && rounds >= 1, "at least two rows and one round");

    let values = generate_unique_shuffled(rows, 7);
    let sorted = SortIndex::build_from_values(values.clone());
    let piece = ConcurrentCracker::from_values(values.clone(), LatchProtocol::Piece);
    let none = ConcurrentCracker::from_values(values, LatchProtocol::None);
    for op in reads(rows, warmup, 11) {
        crack_read(&piece, op);
        crack_read(&none, op);
    }
    println!(
        "rows {rows}, warm-up reads {warmup}: pieces Piece {}, None {}",
        piece.piece_count(),
        none.piece_count()
    );

    let names = ["SortIndex", "Piece", "None"];
    let mut rates = [Vec::new(), Vec::new(), Vec::new()];
    let cracks_before = piece.crack_count() + none.crack_count();
    println!("round\t{}\t{}\t{}", names[0], names[1], names[2]);
    for round in 0..rounds {
        let stream = reads(rows, timed_reads, 1_000 + round as u64);
        let mut answers: [Vec<i128>; 3] = Default::default();
        let mut seconds = [0.0; 3];
        for (c, chunk) in stream.chunks(1_000).enumerate() {
            for k in 0..3 {
                let which = (c + k) % 3;
                let out = &mut answers[which];
                seconds[which] += match which {
                    0 => timed(chunk, out, |op| sort_read(&sorted, op)),
                    1 => timed(chunk, out, |op| crack_read(&piece, op)),
                    _ => timed(chunk, out, |op| crack_read(&none, op)),
                };
            }
        }
        for (rate, seconds) in rates.iter_mut().zip(seconds) {
            rate.push(timed_reads as f64 / seconds);
        }
        assert_eq!(
            answers[1], answers[0],
            "Piece answers differ from SortIndex"
        );
        assert_eq!(answers[2], answers[0], "None answers differ from SortIndex");
        println!(
            "{round}\t{:.0}\t{:.0}\t{:.0}",
            rates[0][round], rates[1][round], rates[2][round]
        );
    }
    let cracks = piece.crack_count() + none.crack_count() - cracks_before;
    // A round's ratio compares the same reads, timed chunk by chunk side by
    // side.
    let ratio = |other: usize| {
        let mut per_round: Vec<f64> = (0..rounds).map(|r| rates[other][r] / rates[1][r]).collect();
        median(&mut per_round)
    };
    let (over_sort, over_none) = (ratio(0), ratio(2));
    let [sort, piece, none] = rates.map(|mut r| median(&mut r));
    println!("median reads/s\tSortIndex {sort:.0}\tPiece {piece:.0}\tNone {none:.0}");
    println!(
        "median time per read: Piece / SortIndex {over_sort:.3}\tPiece / None {over_none:.3}\t({cracks} cracks while timed)"
    );
}
