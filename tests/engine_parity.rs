//! Cross-arm parity: the cracker under every latch protocol (with and
//! without conflict avoidance), the range-cracked cracker and adaptive
//! merging replay the same op stream from one or several clients, and
//! every answer must equal the `BTreeMap` multiset oracle's, for
//! read-only *and* mixed read/write streams.

mod common;

use adaptive_indexing::prelude::*;
use common::{
    answers, expected, merging, ops, ranged, run_checked, run_clients, Column, Op, Oracle,
    RANGE_COMPACTION,
};

const ROWS: usize = 8_000;
const QUERIES: usize = 64;
const SEED: u64 = 0xC0FFEE;

fn values() -> Vec<i64> {
    generate_unique_shuffled(ROWS, 7)
}

/// Every arm, named. The unlatched cracker is only safe for one client,
/// so it joins only then. The range-cracked arm runs at the core count
/// and at 4 ranges, so several build-cracked ranges are exercised even
/// on small machines.
fn arms(values: &[i64], clients: usize) -> Vec<(String, Box<dyn Column>)> {
    let mut protocols = vec![LatchProtocol::Column, LatchProtocol::Piece];
    if clients == 1 {
        protocols.push(LatchProtocol::None);
    }
    let mut arms: Vec<(String, Box<dyn Column>)> = protocols
        .into_iter()
        .map(|p| {
            let cracker = ConcurrentCracker::from_values(values.to_vec(), p);
            (format!("crack-{p}"), Box::new(cracker) as Box<dyn Column>)
        })
        .collect();
    let skip = ConcurrentCracker::from_values(values.to_vec(), LatchProtocol::Piece)
        .with_policy(RefinementPolicy::SkipOnContention);
    arms.push(("crack-piece-skip".into(), Box::new(skip)));
    arms.push(("adaptive-merge".into(), Box::new(merging(values, 1024))));
    for ranges in [resolve_ranges(0), 4] {
        let cracker = ranged(values, ranges, RANGE_COMPACTION);
        arms.push((format!("range-{ranges}"), Box::new(cracker)));
    }
    arms
}

/// Read-only: every arm's answers, in op order, equal the oracle's.
fn parity_run(aggregate: Aggregate, clients: usize) {
    let values = values();
    let ops = ops(ROWS as u64, QUERIES, 0.02, aggregate, 0.0, SEED);
    let expected = expected(&values, &ops);
    for (label, arm) in arms(&values, clients) {
        let run = run_clients(arm.as_ref(), &ops, clients);
        assert_eq!(
            answers(&run),
            expected,
            "{label} ({aggregate:?}, {clients} clients)"
        );
    }
}

#[test]
fn all_engines_agree_sequentially_on_counts() {
    parity_run(Aggregate::Count, 1);
}

#[test]
fn all_engines_agree_sequentially_on_sums() {
    parity_run(Aggregate::Sum, 1);
}

#[test]
fn all_engines_agree_with_four_concurrent_clients() {
    parity_run(Aggregate::Sum, 4);
    parity_run(Aggregate::Count, 4);
}

/// Mixed reads and writes, every arm checked op by op against the oracle
/// locked across each call, so the oracle replays the clients' one
/// linear order.
fn oracle_parity_run(write_ratio: f64, clients: usize) {
    let values = values();
    let ops = ops(
        ROWS as u64,
        QUERIES,
        0.02,
        Aggregate::Sum,
        write_ratio,
        SEED,
    );
    assert!(ops.iter().any(Op::is_write), "the stream writes");
    for (label, arm) in arms(&values, clients) {
        assert_eq!(
            run_checked(arm.as_ref(), &values, &ops, clients),
            vec![],
            "{label} diverged from the oracle ({}% writes, {clients} clients)",
            write_ratio * 100.0
        );
    }
}

#[test]
fn all_arms_pass_oracle_parity_with_ten_percent_writes() {
    oracle_parity_run(0.1, 1);
}

#[test]
fn all_arms_pass_oracle_parity_with_ten_percent_writes_and_four_clients() {
    oracle_parity_run(0.1, 4);
}

#[test]
fn all_arms_pass_oracle_parity_with_heavy_writes() {
    oracle_parity_run(0.5, 2);
}

/// Writers run truly in parallel with readers, no oracle lock. The writes
/// use keys disjoint from each other and from the ones they replace, so
/// the final state does not depend on the interleaving.
#[test]
fn concurrent_writers_reach_the_same_final_state_on_every_arm() {
    let values = values();
    let reads = ops(ROWS as u64, QUERIES, 0.02, Aggregate::Sum, 0.0, SEED);
    let mut stream = Vec::new();
    for (i, &read) in reads.iter().enumerate() {
        stream.push(read);
        if i % 4 == 0 {
            stream.push(Op::Insert((ROWS + i) as i64));
            stream.push(Op::Delete(i as i64));
        }
    }
    let mut oracle = Oracle::new(&values);
    for &op in stream.iter().filter(|op| op.is_write()) {
        oracle.apply(op);
    }
    let whole = [Op::Count(i64::MIN, i64::MAX), Op::Sum(i64::MIN, i64::MAX)];
    for (label, arm) in arms(&values, 4) {
        let run = run_clients(arm.as_ref(), &stream, 4);
        let missed = stream
            .iter()
            .zip(answers(&run))
            .any(|(op, rows)| op.is_write() && rows != 1);
        assert!(!missed, "{label}: a write missed");
        for op in whole {
            assert_eq!(arm.apply(op).0, oracle.apply(op), "{label}: final {op:?}");
        }
    }
}

#[test]
fn checked_engine_confirms_parallel_arms_under_concurrency() {
    let values = values();
    let ops = ops(ROWS as u64, QUERIES, 0.05, Aggregate::Sum, 0.0, 21);
    let range = ranged(&values, 4, RANGE_COMPACTION);
    let run = run_clients(&range, &ops, 8);
    assert_eq!(answers(&run), expected(&values, &ops));
}
