//! Property tests for the compressed rowid-set layer: encode/decode
//! round-trips, the `SeekingIterator` contract (strictly ascending
//! emission, `next_seek` lands on the first id ≥ target) checked
//! call-by-call against a `BTreeSet` oracle, and galloping / linear /
//! adaptive intersection equivalence against set-containment.

use aidx_core::{
    intersect_iters_gallop, intersect_iters_linear, intersect_sets, IntersectStrategy, RowIdSet,
    SeekingIterator, SliceIter,
};
use aidx_cracking::RowId;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet};

fn sorted_unique(mut ids: Vec<RowId>) -> Vec<RowId> {
    ids.sort_unstable();
    ids.dedup();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn encode_decode_round_trips(ids in prop::collection::vec(0u32..500_000, 0..800)) {
        let sorted = sorted_unique(ids);
        let set = RowIdSet::from_sorted(&sorted);
        prop_assert_eq!(set.len(), sorted.len());
        prop_assert_eq!(set.is_empty(), sorted.is_empty());
        prop_assert_eq!(set.first(), sorted.first().copied());
        prop_assert_eq!(set.to_vec(), sorted);
    }

    #[test]
    fn from_runs_equals_the_flat_union(
        runs in prop::collection::vec(
            prop::collection::vec(0u32..100_000, 0..200),
            0..6,
        ),
    ) {
        let flat = sorted_unique(runs.iter().flatten().copied().collect());
        let runs: Vec<Vec<RowId>> = runs.into_iter().map(sorted_unique).collect();
        prop_assert_eq!(RowIdSet::from_runs(&runs, &HashSet::new(), &[]).to_vec(), flat);
    }

    #[test]
    fn next_seek_honours_its_contract_against_a_btreeset_oracle(
        ids in prop::collection::vec(0u32..200_000, 1..400),
        probes in prop::collection::vec((0u8..2, 0u32..220_000), 1..80),
    ) {
        let sorted = sorted_unique(ids);
        let oracle: BTreeSet<RowId> = sorted.iter().copied().collect();
        let set = RowIdSet::from_sorted(&sorted);
        let mut it = set.iter();
        // The emission frontier: everything <= this id is consumed.
        let mut last: Option<RowId> = None;
        for &(kind, target) in &probes {
            let got = if kind == 0 { it.next() } else { it.next_seek(target) };
            let floor = match (kind, last) {
                (0, None) => 0,
                (0, Some(l)) => l + 1,
                (_, None) => target,
                (_, Some(l)) => target.max(l + 1),
            };
            let expected = oracle.range(floor..).next().copied();
            prop_assert_eq!(got, expected, "kind {} target {} after {:?}", kind, target, last);
            match got {
                Some(id) => {
                    if let Some(l) = last {
                        prop_assert!(id > l, "iterator went backwards: {} after {}", id, l);
                    }
                    last = Some(id);
                }
                // Exhausted stays exhausted.
                None => {
                    prop_assert_eq!(it.next(), None);
                    break;
                }
            }
        }
    }

    #[test]
    fn every_intersection_walk_matches_set_containment(
        a in prop::collection::vec(0u32..50_000, 0..600),
        b in prop::collection::vec(0u32..50_000, 0..60),
    ) {
        let a = sorted_unique(a);
        let b = sorted_unique(b);
        let in_a: BTreeSet<RowId> = a.iter().copied().collect();
        let expected: Vec<RowId> = b.iter().copied().filter(|id| in_a.contains(id)).collect();
        let (sa, sb) = (RowIdSet::from_sorted(&a), RowIdSet::from_sorted(&b));
        for strategy in [
            IntersectStrategy::Adaptive,
            IntersectStrategy::Gallop,
            IntersectStrategy::Linear,
        ] {
            let (got, _) = intersect_sets(&sa, &sb, strategy);
            prop_assert_eq!(got.to_vec(), expected.clone(), "{:?}", strategy);
        }
        // Mixed sources through the iterator front doors: a flat slice
        // driving a compressed set, and the plain linear merge.
        let (ids, _) = intersect_iters_gallop(SliceIter::new(&b), sa.iter());
        prop_assert_eq!(ids, expected.clone());
        prop_assert_eq!(intersect_iters_linear(sa.iter(), sb.iter()), expected);
    }
}
