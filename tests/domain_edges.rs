//! Domain-edge correctness: every engine arm must agree with the
//! `BTreeMap` multiset oracle for reads and writes at `i64::MIN` and
//! `i64::MAX`.
//!
//! The half-open `[low, high)` predicate can never *select* a row whose
//! key is `i64::MAX` (no expressible upper bound exceeds it) — the oracle
//! shares that semantics, so the arms must agree rather than invent an
//! inclusive bound. What must work exactly is everything else: inserting
//! and deleting the extreme keys (`delete` relies on `value + 1` bounds,
//! which overflow at the top of the domain), counting up to the last
//! representable bound, and keeping all of it correct when compaction
//! rebuilds the structure mid-sequence.

mod common;

use adaptive_indexing::prelude::*;
use aidx_core::CompactionPolicy;
use common::{merging, ranged, run_checked, Column, Op};

const ROWS: usize = 500;

/// Seed data with both extremes (duplicated) already present.
fn edge_values() -> Vec<i64> {
    let mut values = generate_unique_shuffled(ROWS, 11);
    values.extend([i64::MAX, i64::MAX, i64::MIN, i64::MIN + 1, i64::MAX - 1]);
    values
}

/// A write/read sequence that lives at the edges of the key domain.
fn edge_ops() -> Vec<Op> {
    vec![
        Op::Count(i64::MIN, i64::MAX),
        Op::Sum(i64::MIN, i64::MIN + 1),
        Op::Count(i64::MAX - 1, i64::MAX),
        Op::Insert(i64::MAX),
        Op::Insert(i64::MIN),
        Op::Insert(i64::MAX),
        Op::Count(i64::MIN, i64::MAX),
        Op::Delete(i64::MAX), // 4 rows: 2 seeded + 2 inserted
        Op::Count(i64::MIN, i64::MAX),
        Op::Sum(i64::MAX - 1, i64::MAX),
        Op::Delete(i64::MIN), // 2 rows: 1 seeded + 1 inserted
        Op::Count(i64::MIN, i64::MIN + 2),
        Op::Insert(i64::MAX), // re-insert after delete at the edge
        Op::Delete(i64::MAX),
        Op::Delete(i64::MAX), // delete with nothing left
        Op::Delete(i64::MIN + 1),
        Op::Delete(i64::MAX - 1),
        Op::Sum(i64::MIN, i64::MAX),
        Op::Count(i64::MIN, i64::MAX),
    ]
}

/// Every arm over the edge values: the cracker under both latch
/// protocols, with conflict avoidance, range-cracked at the core count,
/// each with `compaction`, and adaptive merging.
fn arms(compaction: CompactionPolicy) -> Vec<(String, Box<dyn Column>)> {
    let values = edge_values();
    let crack = |protocol| {
        ConcurrentCracker::from_values(values.clone(), protocol).with_compaction(compaction)
    };
    let skip = crack(LatchProtocol::Piece).with_policy(RefinementPolicy::SkipOnContention);
    vec![
        (
            "crack-column".into(),
            Box::new(crack(LatchProtocol::Column)),
        ),
        ("crack-piece".into(), Box::new(crack(LatchProtocol::Piece))),
        ("crack-piece-skip".into(), Box::new(skip)),
        ("adaptive-merge".into(), Box::new(merging(&values, 1024))),
        (
            format!("range-{}", resolve_ranges(0)),
            Box::new(ranged(&values, resolve_ranges(0), compaction)),
        ),
    ]
}

#[test]
fn every_arm_survives_the_domain_edges() {
    for (label, arm) in arms(CompactionPolicy::disabled()) {
        let mismatches = run_checked(arm.as_ref(), &edge_values(), &edge_ops(), 1);
        assert_eq!(mismatches, vec![], "{label} diverged at the domain edges");
    }
}

#[test]
fn every_arm_survives_the_domain_edges_with_compaction() {
    // Compact every 2 delta rows: the edge writes themselves trip
    // rebuilds, so the compaction path must place extreme keys correctly.
    for (label, arm) in arms(CompactionPolicy::rows(2)) {
        let mismatches = run_checked(arm.as_ref(), &edge_values(), &edge_ops(), 1);
        assert_eq!(mismatches, vec![], "{label} (compaction) diverged");
    }
}

#[test]
fn edge_keys_survive_concurrent_clients() {
    // Four clients hammer the edges concurrently; per-op answers are
    // checked against the oracle locked across each call.
    let values = edge_values();
    let compaction = CompactionPolicy::rows(4);
    let crack = |protocol| {
        ConcurrentCracker::from_values(values.clone(), protocol).with_compaction(compaction)
    };
    let arms: Vec<(&str, Box<dyn Column>)> = vec![
        ("crack-piece", Box::new(crack(LatchProtocol::Piece))),
        ("crack-column", Box::new(crack(LatchProtocol::Column))),
        ("range-3", Box::new(ranged(&values, 3, compaction))),
    ];
    let ops: Vec<Op> = (0..4).flat_map(|_| edge_ops()).collect();
    for (label, arm) in arms {
        let mismatches = run_checked(arm.as_ref(), &values, &ops, 4);
        assert_eq!(
            mismatches,
            vec![],
            "{label} diverged under concurrent edge writes"
        );
    }
}
