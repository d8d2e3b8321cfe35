//! Cross-crate integration tests for the concurrent adaptive-indexing stack.
//!
//! These exercise the path the paper's experiments take: a seeded query
//! sequence replayed by concurrent clients against the concurrent cracker
//! and adaptive merging, and check the paper's qualitative claims
//! (correctness under concurrency, equivalence of the latch protocols,
//! decaying conflicts).

mod common;

use adaptive_indexing::prelude::*;
use common::{answers, expected, merging, ops, run_clients, Column, Op};
use std::time::Duration;

fn shuffled(n: usize) -> Vec<i64> {
    generate_unique_shuffled(n, 0xBEEF)
}

fn crack(values: &[i64], protocol: LatchProtocol) -> ConcurrentCracker {
    ConcurrentCracker::from_values(values.to_vec(), protocol)
}

fn workload(n: usize, queries: usize, selectivity: f64, agg: Aggregate) -> Vec<Op> {
    ops(n as u64, queries, selectivity, agg, 0.0, 0x5EED)
}

#[test]
fn all_approaches_return_identical_answers_sequentially() {
    let n = 50_000;
    let values = shuffled(n);
    let queries = workload(n, 64, 0.01, Aggregate::Sum);

    let sorted = SortIndex::build_from_values(values.clone());
    let arms: Vec<(&str, Box<dyn Column>)> = vec![
        (
            "crack-piece",
            Box::new(crack(&values, LatchProtocol::Piece)),
        ),
        (
            "crack-column",
            Box::new(crack(&values, LatchProtocol::Column)),
        ),
        ("crack-none", Box::new(crack(&values, LatchProtocol::None))),
        ("adaptive-merge", Box::new(merging(&values, 4096))),
    ];
    for (&q, expected) in queries.iter().zip(expected(&values, &queries)) {
        let Op::Sum(low, high) = q else {
            unreachable!("a read-only sum stream")
        };
        assert_eq!(sorted.sum(low, high), expected, "sort disagrees on {q:?}");
        for (label, arm) in &arms {
            assert_eq!(arm.apply(q).0, expected, "{label} disagrees on {q:?}");
        }
    }
}

#[test]
fn concurrent_piece_latch_cracking_is_correct_under_load() {
    let n = 100_000;
    let values = shuffled(n);
    let queries = workload(n, 192, 0.001, Aggregate::Sum);
    let cracker = crack(&values, LatchProtocol::Piece);
    let run = run_clients(&cracker, &queries, 8);
    assert_eq!(answers(&run), expected(&values, &queries));
}

#[test]
fn concurrent_column_latch_cracking_is_correct_under_load() {
    let n = 60_000;
    let values = shuffled(n);
    let queries = workload(n, 128, 0.01, Aggregate::Count);
    let cracker = crack(&values, LatchProtocol::Column);
    let run = run_clients(&cracker, &queries, 6);
    assert_eq!(answers(&run), expected(&values, &queries));
}

#[test]
fn protocols_converge_to_the_same_index_state() {
    // After the same (sequential) query sequence, the column- and
    // piece-latch protocols must produce identical piece counts and crack
    // counts: the protocol changes coordination, never the refinement.
    let n = 30_000;
    let values = shuffled(n);
    let queries = workload(n, 50, 0.005, Aggregate::Count);
    let piece = crack(&values, LatchProtocol::Piece);
    let column = crack(&values, LatchProtocol::Column);
    for &q in &queries {
        piece.apply(q);
        column.apply(q);
    }
    assert_eq!(piece.crack_count(), column.crack_count());
    assert_eq!(piece.piece_count(), column.piece_count());
    assert!(piece.check_invariants());
    assert!(column.check_invariants());
}

#[test]
fn conflicts_decay_over_the_query_sequence() {
    // The paper's Figure 15: waiting time / conflicts concentrate in the
    // early queries (when pieces are huge) and fall off as the index
    // refines. We check the aggregate trend: the first third of each
    // client's queries carries at least as much waiting and refinement
    // time as the last third. Several clients generate the contention.
    let n = 200_000;
    let clients = 8usize;
    let values = shuffled(n);
    let queries = workload(n, 240, 0.05, Aggregate::Sum);
    let cracker = crack(&values, LatchProtocol::Piece);
    let metrics = run_clients(&cracker, &queries, clients);

    // Client `c` ran ops `c, c + clients, …` in that order, all of them
    // starting against the cold index.
    let per_client = queries.len() / clients;
    let third = per_client / 3;
    let (mut early_wait, mut late_wait) = (Duration::ZERO, Duration::ZERO);
    let (mut early_crack, mut late_crack) = (Duration::ZERO, Duration::ZERO);
    for c in 0..clients {
        let slice: Vec<&QueryMetrics> = metrics
            .iter()
            .skip(c)
            .step_by(clients)
            .map(|(_, m)| m)
            .collect();
        for m in &slice[..third] {
            early_wait += m.wait_time;
            early_crack += m.crack_time;
        }
        for m in &slice[slice.len() - third..] {
            late_wait += m.wait_time;
            late_crack += m.crack_time;
        }
    }
    assert!(
        early_wait >= late_wait,
        "expected early wait ({early_wait:?}) >= late wait ({late_wait:?})"
    );
    assert!(
        early_crack >= late_crack,
        "expected early crack time ({early_crack:?}) >= late crack time ({late_crack:?})"
    );
    assert!(cracker.check_invariants());
}

#[test]
fn skip_on_contention_never_gives_wrong_answers_and_skips_under_load() {
    let n = 150_000;
    let values = shuffled(n);
    let queries = workload(n, 160, 0.02, Aggregate::Sum);
    let cracker =
        crack(&values, LatchProtocol::Piece).with_policy(RefinementPolicy::SkipOnContention);
    let run = run_clients(&cracker, &queries, 8);
    assert_eq!(answers(&run), expected(&values, &queries));
    // Skipping is workload-dependent; we only require that the metrics
    // stay coherent (skips never exceed two per query).
    assert!(run.iter().all(|(_, m)| m.refinements_skipped <= 2));
}

#[test]
fn cracker_row_ids_fetch_an_aligned_payload_column() {
    // Two positionally aligned columns: crack the key column, then
    // reconstruct payload tuples via the row ids it returns.
    use adaptive_indexing::cracking::ops;
    let n = 10_000usize;
    let keys = shuffled(n);
    let payload: Vec<i64> = (0..n as i64).map(|i| i * 2).collect();

    let mut cracker = CrackerIndex::from_values(keys.clone());
    let rowids = cracker.select_rowids(2_000, 2_100);
    let fetched = ops::fetch(&payload, &rowids);
    let expected: i128 = ops::select_range(&keys, &payload, 2_000, 2_100)
        .iter()
        .map(|&v| v as i128)
        .sum();
    assert_eq!(fetched.iter().map(|&v| v as i128).sum::<i128>(), expected);
}

#[test]
fn adaptive_merge_and_cracking_agree_under_concurrency() {
    let n = 40_000;
    let values = shuffled(n);
    let queries = workload(n, 96, 0.01, Aggregate::Count);
    let expected = expected(&values, &queries);
    let cracker = crack(&values, LatchProtocol::Piece);
    assert_eq!(answers(&run_clients(&cracker, &queries, 4)), expected);
    let merge = merging(&values, 4096);
    assert_eq!(answers(&run_clients(&merge, &queries, 4)), expected);
}
