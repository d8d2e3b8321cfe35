//! Property-based tests for the cracking core.
//!
//! These check the invariants that make cracking a *purely structural*
//! refinement: the multiset of (value, rowid) pairs never changes, query
//! answers always equal a naive scan, and the table of contents stays
//! consistent with the array and with a linear-scan model of its cracks.

use aidx_cracking::{ops, CrackerArray, CrackerIndex, Piece, PieceLookup, PieceMap, SortIndex};
use proptest::prelude::*;

fn multiset(arr: &CrackerArray) -> Vec<(i64, u32)> {
    let mut pairs: Vec<(i64, u32)> = arr
        .values()
        .iter()
        .copied()
        .zip(arr.rowids().iter().copied())
        .collect();
    pairs.sort_unstable();
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn crack_in_two_partitions_any_data(
        values in prop::collection::vec(-1000i64..1000, 0..200),
        pivot in -1100i64..1100,
    ) {
        let mut arr = CrackerArray::from_values(values);
        let before = multiset(&arr);
        let split = arr.crack_in_two(0, arr.len(), pivot);
        prop_assert!(arr.values()[..split].iter().all(|&v| v < pivot));
        prop_assert!(arr.values()[split..].iter().all(|&v| v >= pivot));
        prop_assert_eq!(multiset(&arr), before);
    }

    #[test]
    fn crack_in_three_partitions_any_data(
        values in prop::collection::vec(-500i64..500, 0..200),
        a in -600i64..600,
        b in -600i64..600,
    ) {
        let (low, high) = if a <= b { (a, b) } else { (b, a) };
        let mut arr = CrackerArray::from_values(values);
        let before = multiset(&arr);
        let (p1, p2) = arr.crack_in_three(0, arr.len(), low, high);
        prop_assert!(p1 <= p2);
        prop_assert!(arr.values()[..p1].iter().all(|&v| v < low));
        prop_assert!(arr.values()[p1..p2].iter().all(|&v| v >= low && v < high));
        prop_assert!(arr.values()[p2..].iter().all(|&v| v >= high));
        prop_assert_eq!(multiset(&arr), before);
    }

    #[test]
    fn cracker_index_matches_scan_for_query_sequences(
        values in prop::collection::vec(-300i64..300, 1..300),
        queries in prop::collection::vec((-350i64..350, -350i64..350), 1..25),
    ) {
        let mut idx = CrackerIndex::from_values(values.clone());
        for (a, b) in queries {
            let (low, high) = if a <= b { (a, b) } else { (b, a) };
            prop_assert_eq!(idx.count(low, high), ops::count(&values, low, high));
            prop_assert_eq!(idx.sum(low, high), ops::sum(&values, low, high));
            prop_assert!(idx.check_invariants());
        }
    }

    #[test]
    fn cracker_rowids_reconstruct_the_same_tuples_as_scan(
        values in prop::collection::vec(-200i64..200, 1..200),
        a in -250i64..250,
        b in -250i64..250,
    ) {
        let (low, high) = if a <= b { (a, b) } else { (b, a) };
        let mut idx = CrackerIndex::from_values(values.clone());
        let mut got = idx.select_rowids(low, high);
        let mut expected = ops::select_positions(&values, low, high);
        got.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn sort_index_agrees_with_scan(
        values in prop::collection::vec(-500i64..500, 0..300),
        a in -600i64..600,
        b in -600i64..600,
    ) {
        let (low, high) = if a <= b { (a, b) } else { (b, a) };
        let sorted = SortIndex::build_from_values(values.clone());
        prop_assert_eq!(sorted.count(low, high), ops::count(&values, low, high));
        prop_assert_eq!(sorted.sum(low, high), ops::sum(&values, low, high));
    }

    #[test]
    fn piece_map_matches_a_sorted_vec_model(
        cracks in prop::collection::vec((-100i64..100, 0usize..3), 0..40),
        tail in 0usize..4,
        probes in prop::collection::vec(-110i64..110, 0..40),
    ) {
        // Ascending crack values at non-decreasing positions; a step of 0
        // puts several cracks at one position, i.e. empty pieces between
        // them. The map receives them in generation (random) order.
        let mut sorted: Vec<(i64, usize)> = cracks.clone();
        sorted.sort_by_key(|&(value, _)| value);
        sorted.dedup_by_key(|&mut (value, _)| value);
        let mut position = 0usize;
        for crack in &mut sorted {
            position += crack.1;
            crack.1 = position;
        }
        let len = position + tail;
        let mut map = PieceMap::new(len);
        let mut added = std::collections::BTreeSet::new();
        for &(value, _) in &cracks {
            if added.insert(value) {
                let &(_, pos) = sorted.iter().find(|&&(v, _)| v == value).unwrap();
                map.add_crack(value, pos);
            }
        }

        let model_piece = |value: i64| {
            let lower = sorted.iter().rev().find(|&&(v, _)| v <= value);
            let upper = sorted.iter().find(|&&(v, _)| v > value);
            Piece {
                start: lower.map_or(0, |&(_, p)| p),
                end: upper.map_or(len, |&(_, p)| p),
                low_value: lower.map(|&(v, _)| v),
                high_value: upper.map(|&(v, _)| v),
            }
        };
        let edges = sorted.iter().flat_map(|&(v, _)| [v - 1, v, v + 1]);
        for value in edges.chain(probes) {
            let piece = model_piece(value);
            prop_assert_eq!(map.piece_for_value(value), piece, "piece_for_value({})", value);
            let expected = match sorted.iter().find(|&&(v, _)| v == value) {
                Some(&(_, pos)) => PieceLookup::Exact(pos),
                None => PieceLookup::NeedsCrack(piece),
            };
            prop_assert_eq!(map.lookup(value), expected, "lookup({})", value);
        }

        let mut pieces = Vec::new();
        let (mut start, mut low) = (0, None);
        for &(value, pos) in &sorted {
            pieces.push(Piece { start, end: pos, low_value: low, high_value: Some(value) });
            (start, low) = (pos, Some(value));
        }
        pieces.push(Piece { start, end: len, low_value: low, high_value: None });
        prop_assert_eq!(map.pieces(), pieces);
        prop_assert_eq!(map.piece_count(), sorted.len() + 1);
        prop_assert_eq!(map.crack_count(), sorted.len());
        prop_assert!(map.check_invariants());

        // A crack above every other one at a smaller position breaks the
        // invariants.
        if let Some(&(top, pos)) = sorted.last().filter(|&&(_, p)| p > 0) {
            let mut bad = map.clone();
            bad.add_crack(top + 1, pos - 1);
            prop_assert!(!bad.check_invariants());
        }
    }
}
