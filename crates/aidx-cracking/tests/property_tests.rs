//! Property-based tests for the cracking core.
//!
//! These check the invariants that make cracking a *purely structural*
//! refinement: the multiset of (value, rowid) pairs never changes, query
//! answers always equal a naive scan, the table of contents stays
//! consistent with the array, and the AVL tree keeps its balance.

use aidx_cracking::{AvlTree, CrackerArray, CrackerIndex, SortIndex};
use aidx_storage::ops;
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
    fn mixed_selects_and_writes_match_a_btreemap_oracle(
        values in prop::collection::vec(-200i64..200, 0..200),
        ops_list in prop::collection::vec((0u8..4, -250i64..250, -250i64..250), 1..40),
    ) {
        // Random interleaving of selects, inserts, and deletes against a
        // BTreeMap multiset oracle; the piece invariants must hold after
        // every delta merge (i.e. after every operation that cracks).
        let mut idx = CrackerIndex::from_values(values.clone());
        let mut oracle: std::collections::BTreeMap<i64, u64> = std::collections::BTreeMap::new();
        for &v in &values {
            *oracle.entry(v).or_insert(0) += 1;
        }
        for (kind, x, y) in ops_list {
            match kind {
                0 => {
                    idx.insert(x);
                    *oracle.entry(x).or_insert(0) += 1;
                }
                1 => {
                    let removed = idx.delete(x);
                    let expected = oracle.remove(&x).unwrap_or(0);
                    prop_assert_eq!(removed, expected, "delete {}", x);
                }
                _ => {
                    let (low, high) = if x <= y { (x, y) } else { (y, x) };
                    let expected_count: u64 = oracle.range(low..high).map(|(_, &n)| n).sum();
                    let expected_sum: i128 = oracle
                        .range(low..high)
                        .map(|(&v, &n)| v as i128 * n as i128)
                        .sum();
                    prop_assert_eq!(idx.count(low, high), expected_count, "count [{},{})", low, high);
                    prop_assert_eq!(idx.sum(low, high), expected_sum, "sum [{},{})", low, high);
                }
            }
            prop_assert!(idx.check_invariants(), "piece invariants after {:?}", (kind, x, y));
            let oracle_len: u64 = oracle.values().sum();
            prop_assert_eq!(idx.len() as u64, oracle_len);
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
    fn avl_tree_behaves_like_btreemap(
        ops_list in prop::collection::vec((0i64..200, any::<u16>()), 0..300),
        probes in prop::collection::vec(-10i64..210, 0..50),
    ) {
        let mut avl = AvlTree::new();
        let mut reference = std::collections::BTreeMap::new();
        for (k, v) in ops_list {
            prop_assert_eq!(avl.insert(k, v), reference.insert(k, v));
            prop_assert!(avl.check_invariants());
        }
        prop_assert_eq!(avl.len(), reference.len());
        for p in probes {
            prop_assert_eq!(avl.get(&p), reference.get(&p));
            let expected_floor = reference.range(..=p).next_back();
            prop_assert_eq!(avl.floor(&p), expected_floor);
            let expected_ceiling = reference.range((std::ops::Bound::Excluded(p), std::ops::Bound::Unbounded)).next();
            prop_assert_eq!(avl.ceiling_exclusive(&p), expected_ceiling);
        }
        let avl_keys: Vec<i64> = avl.keys().into_iter().copied().collect();
        let ref_keys: Vec<i64> = reference.keys().copied().collect();
        prop_assert_eq!(avl_keys, ref_keys);
    }

    #[test]
    fn avl_height_is_logarithmic(
        keys in prop::collection::vec(0i64..100_000, 1..600),
    ) {
        let mut avl = AvlTree::new();
        for k in &keys {
            avl.insert(*k, ());
        }
        let n = avl.len() as f64;
        // AVL guarantees height <= 1.4405 * log2(n + 2).
        let bound = (1.45 * (n + 2.0).log2()).ceil() as i32 + 1;
        prop_assert!(avl.height() <= bound, "height {} exceeds bound {}", avl.height(), bound);
    }
}
