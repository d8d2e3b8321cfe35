//! Property tests for the rowid-set layer through its public surface:
//! round-trips, the union of runs, and intersection in every pair of
//! containers against set containment, each decoded by copy and by
//! hand-over.

use aidx_core::{intersect_sets, IntersectStrategy, RowIdSet};
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
    fn every_intersection_walk_matches_set_containment(
        a in prop::collection::vec(0u32..50_000, 0..600),
        b in prop::collection::vec(0u32..50_000, 0..60),
    ) {
        let a = sorted_unique(a);
        let b = sorted_unique(b);
        let in_a: BTreeSet<RowId> = a.iter().copied().collect();
        let expected: Vec<RowId> = b.iter().copied().filter(|id| in_a.contains(id)).collect();
        // Each side as `from_sorted` picks its container (mostly sorted
        // vectors at these densities) and as a bitmap.
        let sides = |ids: &[RowId]| {
            let set = RowIdSet::from_sorted(ids);
            let bitmap = set.as_bitmap().into_owned();
            [set, bitmap]
        };
        for x in &sides(&a) {
            // Handing a set over yields what copying it does.
            prop_assert_eq!(x.clone().into_vec(), a.clone());
            for y in &sides(&b) {
                let got = intersect_sets(x, y, IntersectStrategy::Adaptive);
                prop_assert_eq!(got.to_vec(), expected.clone());
                prop_assert_eq!(got.len(), expected.len());
                prop_assert_eq!(got.is_bitmap(), x.is_bitmap() && y.is_bitmap() && !expected.is_empty());
                prop_assert_eq!(got.into_vec(), expected.clone());
            }
        }
    }
}
