//! Cross-crate integration tests for the concurrent adaptive-indexing stack.
//!
//! These exercise the full path the paper's experiments take: workload
//! generator → multi-client runner → concurrent cracker / baselines, and
//! check the paper's qualitative claims (correctness under concurrency,
//! equivalence of the latch protocols, decaying conflicts).

use adaptive_indexing::prelude::*;
use adaptive_indexing::workload::CheckedEngine;
use adaptive_indexing::workload::{MergeEngine, ScanEngine, SortEngine};
use std::sync::Arc;

fn shuffled(n: usize) -> Vec<i64> {
    generate_unique_shuffled(n, 0xBEEF)
}

fn crack(values: &[i64], protocol: LatchProtocol) -> IndexEngine {
    let index = ConcurrentCracker::from_values(values.to_vec(), protocol);
    IndexEngine::new(format!("crack-{protocol}"), index)
}

fn workload(n: usize, queries: usize, selectivity: f64, agg: Aggregate) -> Vec<QuerySpec> {
    WorkloadGenerator::new(n as u64, selectivity, agg, 0x5EED).generate(queries)
}

#[test]
fn all_approaches_return_identical_answers_sequentially() {
    let n = 50_000;
    let values = shuffled(n);
    let queries = workload(n, 64, 0.01, Aggregate::Sum);

    let scan = ScanEngine::new(values.clone());
    let engines: Vec<Box<dyn AdaptiveEngine>> = vec![
        Box::new(SortEngine::new(values.clone())),
        Box::new(crack(&values, LatchProtocol::Piece)),
        Box::new(crack(&values, LatchProtocol::Column)),
        Box::new(crack(&values, LatchProtocol::None)),
        Box::new(MergeEngine::new(values.clone(), 4096)),
    ];
    for q in &queries {
        let (expected, _) = scan.select(q);
        for engine in &engines {
            let (got, _) = engine.select(q);
            assert_eq!(
                got,
                expected,
                "{} disagrees with scan on {q:?}",
                engine.name()
            );
        }
    }
}

#[test]
fn concurrent_piece_latch_cracking_is_correct_under_load() {
    let n = 100_000;
    let values = shuffled(n);
    let queries = workload(n, 192, 0.001, Aggregate::Sum);
    let engine = Arc::new(CheckedEngine::new(
        crack(&values, LatchProtocol::Piece),
        values,
    ));
    let run = MultiClientRunner::new(8).run(engine.clone(), &queries);
    assert_eq!(run.query_count(), queries.len());
    assert!(
        engine.mismatches().is_empty(),
        "concurrent execution produced wrong answers: {:?}",
        engine.mismatches()
    );
}

#[test]
fn concurrent_column_latch_cracking_is_correct_under_load() {
    let n = 60_000;
    let values = shuffled(n);
    let queries = workload(n, 128, 0.01, Aggregate::Count);
    let engine = Arc::new(CheckedEngine::new(
        crack(&values, LatchProtocol::Column),
        values,
    ));
    let run = MultiClientRunner::new(6).run(engine.clone(), &queries);
    assert_eq!(run.query_count(), 128);
    assert!(engine.mismatches().is_empty());
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
    for q in &queries {
        piece.select(q);
        column.select(q);
    }
    assert_eq!(piece.index().crack_count(), column.index().crack_count());
    assert_eq!(piece.index().piece_count(), column.index().piece_count());
    assert!(piece.index().check_invariants());
    assert!(column.index().check_invariants());
}

#[test]
fn conflicts_decay_over_the_query_sequence() {
    // The paper's Figure 15: waiting time / conflicts concentrate in the
    // early queries (when pieces are huge) and fall off as the index
    // refines. We check the aggregate trend: the first third of the
    // completed queries carries at least as much waiting time as the last
    // third. Run with several clients to actually generate contention.
    let n = 200_000;
    let clients = 8usize;
    let values = shuffled(n);
    let queries = workload(n, 240, 0.05, Aggregate::Sum);
    let engine = Arc::new(crack(&values, LatchProtocol::Piece));
    let run = MultiClientRunner::new(clients).run(engine.clone(), &queries);
    assert_eq!(run.query_count(), 240);

    // `per_query` is ordered client by client, and within each client in
    // execution order. All clients start against the cold index, so within
    // every client's slice the early queries carry the bulk of the waiting
    // and refinement effort. Compare the first and last thirds of each
    // client's slice, summed over clients.
    let per_client = run.per_query.len() / clients;
    let third = per_client / 3;
    let mut early_wait = std::time::Duration::ZERO;
    let mut late_wait = std::time::Duration::ZERO;
    let mut early_crack = std::time::Duration::ZERO;
    let mut late_crack = std::time::Duration::ZERO;
    for slice in run.per_query.chunks(per_client) {
        early_wait += slice[..third]
            .iter()
            .map(|m| m.wait_time)
            .sum::<std::time::Duration>();
        late_wait += slice[slice.len() - third..]
            .iter()
            .map(|m| m.wait_time)
            .sum::<std::time::Duration>();
        early_crack += slice[..third]
            .iter()
            .map(|m| m.crack_time)
            .sum::<std::time::Duration>();
        late_crack += slice[slice.len() - third..]
            .iter()
            .map(|m| m.crack_time)
            .sum::<std::time::Duration>();
    }
    assert!(
        early_wait >= late_wait,
        "expected early wait ({early_wait:?}) >= late wait ({late_wait:?})"
    );
    assert!(
        early_crack >= late_crack,
        "expected early crack time ({early_crack:?}) >= late crack time ({late_crack:?})"
    );
    assert!(engine.index().check_invariants());
}

#[test]
fn skip_on_contention_never_gives_wrong_answers_and_skips_under_load() {
    let n = 150_000;
    let values = shuffled(n);
    let queries = workload(n, 160, 0.02, Aggregate::Sum);
    let engine = Arc::new(CheckedEngine::new(
        IndexEngine::new(
            "crack-piece-skip",
            ConcurrentCracker::from_values(values.clone(), LatchProtocol::Piece)
                .with_policy(RefinementPolicy::SkipOnContention),
        ),
        values,
    ));
    let run = MultiClientRunner::new(8).run(engine.clone(), &queries);
    assert_eq!(run.query_count(), 160);
    assert!(engine.mismatches().is_empty());
    // Skipping is workload-dependent; we only require that the run recorded
    // metrics coherently (skips never exceed two per query).
    assert!(run.per_query.iter().all(|m| m.refinements_skipped <= 2));
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
    let crack = Arc::new(CheckedEngine::new(
        crack(&values, LatchProtocol::Piece),
        values.clone(),
    ));
    let merge = Arc::new(CheckedEngine::new(
        MergeEngine::new(values.clone(), 4096),
        values,
    ));
    MultiClientRunner::new(4).run(crack.clone(), &queries);
    MultiClientRunner::new(4).run(merge.clone(), &queries);
    assert!(crack.mismatches().is_empty());
    assert!(merge.mismatches().is_empty());
}
