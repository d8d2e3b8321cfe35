//! Property test of the `Within` read shape: over random columns, random
//! delta states — pending inserts, tombstones, rows compaction has placed,
//! a pin taken mid-stream — and random filters in both containers, a
//! `Within` read holds exactly the rows of the `Candidates` read that the
//! filter holds, now and at the pinned epoch, under every latch protocol.

use aidx_core::{
    ColumnRead, CompactionPolicy, ConcurrentCracker, LatchProtocol, ReadShape, RowIdSet, WriteOp,
};
use aidx_cracking::RowId;
use proptest::prelude::*;

/// Row ids of inserted rows start here, past every seed row's.
const FIRST_INSERTED: RowId = 5_000;

/// The live rows' ids whose key lies in `[low, high)`, ascending.
fn oracle(rows: &[(i64, RowId)], low: i64, high: i64) -> Vec<RowId> {
    let mut ids: Vec<RowId> = rows
        .iter()
        .filter(|&&(key, _)| key >= low && key < high)
        .map(|&(_, rowid)| rowid)
        .collect();
    ids.sort_unstable();
    ids
}

/// Checks one range through `reader` against the oracle's `rows`: the
/// `Candidates` read, then a `Within` read per filter.
fn check(
    reader: &dyn ColumnRead,
    rows: &[(i64, RowId)],
    (low, high): (i64, i64),
    filters: &[RowIdSet],
) {
    let candidates = reader.read(low, high, ReadShape::Candidates).0.into_set();
    let candidates = candidates.to_vec();
    prop_assert_eq!(&candidates, &oracle(rows, low, high));
    for filter in filters {
        let want: Vec<RowId> = candidates
            .iter()
            .copied()
            .filter(|&id| filter.contains(id))
            .collect();
        let (got, metrics) = reader.read(low, high, ReadShape::Within(filter));
        prop_assert_eq!(got.into_set().to_vec(), want.clone(), "[{}, {})", low, high);
        prop_assert_eq!(metrics.result_count, want.len() as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Ops are `(kind, a, b)`: kind 0 inserts key `a` under a fresh row id,
    /// 1 deletes every row of key `a`, 2 deletes the live row at index `b`,
    /// any other reads `[min(a, b), max(a, b))` now (and through the pin,
    /// once taken). The filters hold random ids across the seed rows, the
    /// inserted rows and past both as a bitmap, every multiple of 40 among
    /// them as a sorted vector, and the empty filter.
    #[test]
    fn a_within_read_keeps_exactly_the_candidates_its_filter_holds(
        values in prop::collection::vec(-2000i64..2000, 0..4000),
        ops in prop::collection::vec((0u8..6, -2100i64..2100, -2100i64..2100), 1..30),
        filter_ids in prop::collection::vec(0 as RowId..FIRST_INSERTED + 100, 0..3000),
        protocol in 0usize..3,
        threshold in 1u64..64,
        incremental in any::<bool>(),
        pin_at in 0usize..30,
    ) {
        let protocol = [LatchProtocol::Piece, LatchProtocol::Column, LatchProtocol::None][protocol];
        let policy = CompactionPolicy::rows(threshold);
        let policy = if incremental { policy.incremental(4) } else { policy };
        let idx = ConcurrentCracker::from_values(values.clone(), protocol).with_compaction(policy);
        let mut ids = filter_ids;
        ids.sort_unstable();
        let bitmap = RowIdSet::from_sorted(&ids).as_bitmap().into_owned();
        prop_assert!(ids.is_empty() || bitmap.is_bitmap());
        let sparse: Vec<RowId> = ids.iter().copied().filter(|id| id % 40 == 0).collect();
        let sorted = RowIdSet::from_sorted(&sparse);
        prop_assert!(!sorted.is_bitmap());
        let filters = [bitmap, sorted, RowIdSet::default()];

        let mut rows: Vec<(i64, RowId)> =
            values.iter().enumerate().map(|(i, &key)| (key, i as RowId)).collect();
        let mut next_rowid = FIRST_INSERTED;
        let mut pinned = None;
        for (step, (kind, a, b)) in ops.into_iter().enumerate() {
            if step == pin_at {
                pinned = Some((idx.pin(), rows.clone()));
            }
            match kind {
                0 => {
                    idx.insert_row(a, next_rowid);
                    rows.push((a, next_rowid));
                    next_rowid += 1;
                }
                1 => {
                    idx.delete(a);
                    rows.retain(|&(key, _)| key != a);
                }
                2 if !rows.is_empty() => {
                    let (key, rowid) = rows.swap_remove(b.unsigned_abs() as usize % rows.len());
                    prop_assert_eq!(idx.write(WriteOp::DeleteRow { value: key, rowid }).0, 1);
                }
                _ => {
                    let range = (a.min(b), a.max(b));
                    check(&idx, &rows, range, &filters);
                    if let Some((pin, at_pin)) = &pinned {
                        check(pin, at_pin, range, &filters);
                    }
                }
            }
        }
        check(&idx, &rows, (i64::MIN, i64::MAX), &filters);
        if let Some((pin, at_pin)) = &pinned {
            check(pin, at_pin, (i64::MIN, i64::MAX), &filters);
        }
        drop(pinned);
        prop_assert!(idx.check_invariants());
    }
}
