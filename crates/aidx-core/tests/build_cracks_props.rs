//! Property test of cracks made at build ([`ConcurrentCracker::with_cracks`]):
//! over random, all-equal, heavily duplicated and empty columns, and
//! split keys that come unsorted, repeated, below the smallest key and
//! above the largest, under every latch protocol:
//! - the index's invariants hold and every row left of a split is below
//!   it;
//! - a read whose two bounds are splits cracks nothing;
//! - `Count`, `RowIds` and `KeyRuns` answers equal a scan, now and at a
//!   pin taken mid-stream, across inserts, deletes and compactions.

use aidx_core::{
    ColumnRead, CompactionPolicy, ConcurrentCracker, LatchProtocol, ReadShape, WriteOp,
};
use aidx_cracking::RowId;
use proptest::prelude::*;

/// Row ids of inserted rows start here, past every seed row's.
const FIRST_INSERTED: RowId = 10_000;

/// Checks `[low, high)` through `reader` against a scan of `rows`.
fn check(reader: &dyn ColumnRead, rows: &[(i64, RowId)], (low, high): (i64, i64)) {
    let mut pairs: Vec<(i64, RowId)> = rows
        .iter()
        .copied()
        .filter(|&(key, _)| key >= low && key < high)
        .collect();
    pairs.sort_unstable();
    let mut ids: Vec<RowId> = pairs.iter().map(|&(_, rowid)| rowid).collect();
    ids.sort_unstable();
    let at = format!("[{low}, {high})");
    prop_assert_eq!(reader.count(low, high).0, ids.len() as u64, "{} count", at);
    prop_assert_eq!(reader.select_rowids(low, high).0, ids, "{} rowids", at);
    let runs = reader.read(low, high, ReadShape::KeyRuns).0.into_runs();
    let mut got = runs.into_sorted_pairs();
    got.sort_unstable();
    prop_assert_eq!(got, pairs, "{} key runs", at);
}

/// Every read between two distinct splits reports no crack.
fn splits_are_cracks(idx: &ConcurrentCracker, splits: &[i64]) {
    for (i, &low) in splits.iter().enumerate() {
        for &high in &splits[i + 1..] {
            let (_, metrics) = idx.count(low, high);
            prop_assert_eq!(metrics.cracks_performed, 0, "[{}, {})", low, high);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `shape` picks the column: 0 random keys, 1 all equal, 2 three
    /// distinct keys, 3 empty. Ops are `(kind, a, b)`: kind 0 inserts key
    /// `a` under a fresh row id, 1 deletes every row of key `a`, 2 deletes
    /// the live row at index `b`, any other reads `[min(a, b), max(a, b))`
    /// now (and through the pin, once taken).
    #[test]
    fn cracks_made_at_build_are_pieces_and_every_read_stays_exact(
        raw in prop::collection::vec(-500i64..500, 1..3000),
        shape in 0u8..4,
        raw_splits in prop::collection::vec(-700i64..700, 0..12),
        repeats in 0usize..4,
        extremes in any::<bool>(),
        ops in prop::collection::vec((0u8..6, -600i64..600, -600i64..600), 1..30),
        threshold in 1u64..64,
        incremental in any::<bool>(),
        pin_at in 0usize..30,
    ) {
        let values: Vec<i64> = match shape {
            0 => raw.clone(),
            1 => vec![raw[0]; raw.len()],
            2 => raw.iter().map(|v| v.rem_euclid(3)).collect(),
            _ => Vec::new(),
        };
        let mut splits = raw_splits.clone();
        splits.extend(raw_splits.iter().take(repeats).copied());
        if extremes {
            splits.extend([i64::MIN, i64::MAX]);
        }
        let mut distinct = splits.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let policy = CompactionPolicy::rows(threshold);
        let policy = if incremental { policy.incremental(4) } else { policy };
        for protocol in [LatchProtocol::Piece, LatchProtocol::Column, LatchProtocol::None] {
            let idx = ConcurrentCracker::from_values(values.clone(), protocol)
                .with_compaction(policy)
                .with_cracks(&splits);
            prop_assert!(idx.check_invariants(), "{:?} at build", protocol);
            prop_assert_eq!(idx.crack_count(), 0, "no read ran");
            prop_assert!(idx.piece_count() <= distinct.len() + 1);
            let built = idx.snapshot_values();
            for &split in &distinct {
                let below = values.iter().filter(|&&v| v < split).count();
                prop_assert!(built[..below].iter().all(|&v| v < split), "split {}", split);
            }
            splits_are_cracks(&idx, &distinct);

            let mut rows: Vec<(i64, RowId)> =
                values.iter().enumerate().map(|(i, &key)| (key, i as RowId)).collect();
            let mut next_rowid = FIRST_INSERTED;
            let mut pinned = None;
            for (step, &(kind, a, b)) in ops.iter().enumerate() {
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
                        let doomed = rows.iter().filter(|&&(key, _)| key == a).count();
                        prop_assert_eq!(idx.delete(a).0, doomed as u64);
                        rows.retain(|&(key, _)| key != a);
                    }
                    2 if !rows.is_empty() => {
                        let (key, rowid) = rows.swap_remove(b.unsigned_abs() as usize % rows.len());
                        prop_assert_eq!(idx.write(WriteOp::DeleteRow { value: key, rowid }).0, 1);
                    }
                    _ => {
                        let range = (a.min(b), a.max(b));
                        check(&idx, &rows, range);
                        if let Some((pin, at_pin)) = &pinned {
                            check(pin, at_pin, range);
                        }
                    }
                }
            }
            for range in distinct.windows(2).map(|w| (w[0], w[1])).chain([(i64::MIN, i64::MAX)]) {
                check(&idx, &rows, range);
                if let Some((pin, at_pin)) = &pinned {
                    check(pin, at_pin, range);
                }
            }
            drop(pinned);
            splits_are_cracks(&idx, &distinct);
            prop_assert!(idx.check_invariants(), "{:?} after the stream", protocol);
        }
    }
}
