//! Delta compaction end to end: a threshold bounds the pending delta of
//! an insert stream, and every arm stays exact against the `BTreeMap`
//! oracle with compaction off and on, from one client and from several.

mod common;

use adaptive_indexing::prelude::*;
use aidx_core::CompactionPolicy;
use common::{ops, ranged, run_checked, Column};

/// An insert stream of unique keys above the seeded domain, with a count
/// over the inserted keys every second insert. Compaction off: the delta
/// grows one row per insert. At a threshold of 64: it never passes the
/// threshold, shrinks at every rebuild, and at least one rebuild runs.
#[test]
fn an_insert_stream_keeps_the_delta_within_the_compaction_threshold() {
    let (rows, inserts, threshold) = (20_000i64, 4_000i64, 64u64);
    let values = generate_unique_shuffled(rows as usize, 0xA1D1);
    for policy in [
        CompactionPolicy::disabled(),
        CompactionPolicy::rows(threshold),
    ] {
        let index = ConcurrentCracker::from_values(values.clone(), LatchProtocol::Piece)
            .with_compaction(policy);
        index.sum(0, rows / 2);
        index.sum(rows / 4, rows);
        let (mut max_delta, mut last_delta, mut shrank) = (0, 0, false);
        for i in 0..inserts {
            index.insert(rows + i);
            let delta = index.delta_rows();
            max_delta = max_delta.max(delta);
            shrank |= delta < last_delta;
            last_delta = delta;
            if i % 2 == 1 {
                let (count, _) = index.count(rows, rows + inserts);
                assert_eq!(count, i as u64 + 1, "{policy:?}: inserted rows lost at {i}");
            }
        }
        if policy.is_enabled() {
            assert!(max_delta <= threshold, "delta {max_delta} past {threshold}");
            assert!(shrank, "the delta shrinks at rebuilds");
            assert!(index.compactions_performed() > 0, "the threshold tripped");
        } else {
            assert_eq!(max_delta, inserts as u64, "one delta row per insert");
        }
        assert!(index.check_invariants());
    }
}

/// A half-write stream through the piece-latched and the range-cracked
/// cracker, compaction off and at 64 rows, checked op by op.
#[test]
fn a_half_write_stream_matches_the_oracle_with_compaction_off_and_on() {
    let rows = 20_000;
    let values = generate_unique_shuffled(rows, 0xA1D1);
    let ops = ops(rows as u64, 256, 0.001, Aggregate::Sum, 0.5, 0xC0FFEE);
    for policy in [CompactionPolicy::disabled(), CompactionPolicy::rows(64)] {
        let piece = ConcurrentCracker::from_values(values.clone(), LatchProtocol::Piece)
            .with_compaction(policy);
        let arms: [(&str, &dyn Column); 2] = [
            ("crack-piece", &piece),
            ("range-4", &ranged(&values, 4, policy)),
        ];
        for (label, arm) in arms {
            let mismatches = run_checked(arm, &values, &ops, 1);
            assert_eq!(mismatches, vec![], "{label} ({policy:?})");
        }
    }
}

/// Compaction every 8 delta rows under four clients writing half the
/// time: the oracle, locked across each call, agrees op for op.
#[test]
fn compaction_runs_stay_oracle_correct_under_concurrency() {
    let values = generate_unique_shuffled(5_000, 0xA1D1);
    let ops = ops(5_000, 64, 0.01, Aggregate::Sum, 0.5, 0xC0FFEE);
    let policy = CompactionPolicy::rows(8);
    let crack =
        |protocol| ConcurrentCracker::from_values(values.clone(), protocol).with_compaction(policy);
    let arms: Vec<(&str, Box<dyn Column>)> = vec![
        ("crack-piece", Box::new(crack(LatchProtocol::Piece))),
        ("crack-column", Box::new(crack(LatchProtocol::Column))),
        ("range-3", Box::new(ranged(&values, 3, policy))),
    ];
    for (label, arm) in arms {
        let mismatches = run_checked(arm.as_ref(), &values, &ops, 4);
        assert_eq!(mismatches, vec![], "{label} with compaction every 8 rows");
    }
}
