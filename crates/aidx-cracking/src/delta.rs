//! Shared write-path primitives for cracked structures.
//!
//! Every serial cracked structure in the workspace (the single-threaded
//! [`CrackerIndex`](crate::CrackerIndex) and the hybrid crack-sort's
//! initial partitions in `aidx-btree`) deletes a key the same way: crack
//! at the key's bounds so the doomed rows are contiguous, remove the run,
//! and shift the boundaries above it left. The subtle parts — the
//! `i64::MAX` upper-bound edge and the removal/boundary-fixup pairing —
//! live here, once.

use crate::cracker_array::CrackerArray;
use crate::piece::PieceMap;
use aidx_storage::RowId;

/// The upper crack bound for deleting all rows equal to `value`:
/// `Some(value + 1)`, or `None` for `value == i64::MAX`, where the run of
/// equal rows necessarily extends to the end of the array (no stored
/// value can exceed `i64::MAX`), so callers use the array length instead
/// of resolving a bound.
pub fn next_key(value: i64) -> Option<i64> {
    value.checked_add(1)
}

/// Removes the resolved run `[start, end)` of rows all equal to `value`
/// and applies the matching piece-boundary fixup (cracks above `value`
/// shift left by the run length — exact because no integer lies strictly
/// between the delete's two crack bounds). Returns the removed rows.
pub fn remove_key_run(
    array: &mut CrackerArray,
    map: &mut PieceMap,
    value: i64,
    start: usize,
    end: usize,
) -> Vec<(i64, RowId)> {
    debug_assert!(start <= end && end <= array.len());
    let removed = array.remove_range(start, end);
    map.apply_delete(value, removed.len());
    removed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_key_handles_the_max_edge() {
        assert_eq!(next_key(5), Some(6));
        assert_eq!(next_key(i64::MAX - 1), Some(i64::MAX));
        assert_eq!(next_key(i64::MAX), None);
    }

    #[test]
    fn remove_key_run_removes_and_fixes_boundaries() {
        // Array cracked at 10 (pos 2) and 20 (pos 5); delete the 10s run.
        let mut array = CrackerArray::from_values(vec![3, 7, 10, 10, 10, 25, 21]);
        let mut map = PieceMap::new(7);
        map.add_crack(10, 2);
        map.add_crack(11, 5);
        map.add_crack(20, 5);
        let removed = remove_key_run(&mut array, &mut map, 10, 2, 5);
        assert_eq!(
            removed.iter().map(|&(v, _)| v).collect::<Vec<_>>(),
            vec![10, 10, 10]
        );
        assert_eq!(array.values(), &[3, 7, 25, 21]);
        assert_eq!(map.crack_position(10), Some(2), "lower bound crack stays");
        assert_eq!(map.crack_position(11), Some(2), "upper bound crack shifts");
        assert_eq!(map.crack_position(20), Some(2));
        assert_eq!(map.array_len(), 4);
        assert!(map.check_invariants());
    }
}
