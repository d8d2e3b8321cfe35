//! Bulk, operator-at-a-time query operators.
//!
//! These mirror the column-store plan of Figure 6: a selection over one
//! column produces qualifying positions (row ids), a fetch materialises the
//! corresponding values from an aligned column, and an aggregation folds
//! them in one pass. They also serve as the *scan baseline* of the
//! evaluation (Section 6.1): evaluating a range predicate with no index at
//! all is exactly `select_positions` over the full column.
//!
//! All predicates in the paper are half-open in spirit (`v1 < A < v2` with
//! unique integers); we standardise on the half-open interval `[low, high)`
//! everywhere in this codebase, which composes cleanly with cracking's
//! partition boundaries.

use crate::RowId;

/// Returns the positions (row ids) of all values in `[low, high)`.
///
/// This is the unindexed scan-select: O(n) per query, independent of how
/// often the column has been queried before.
pub fn select_positions(values: &[i64], low: i64, high: i64) -> Vec<RowId> {
    let mut out = Vec::new();
    for (i, &v) in values.iter().enumerate() {
        if v >= low && v < high {
            out.push(i as RowId);
        }
    }
    out
}

/// Counts the values in `[low, high)` without materialising positions
/// (the paper's Q1: `select count(*) from R where v1 < A < v2`).
pub fn count(values: &[i64], low: i64, high: i64) -> u64 {
    values.iter().filter(|&&v| v >= low && v < high).count() as u64
}

/// Sums the values in `[low, high)` (the paper's Q2:
/// `select sum(A) from R where v1 < A < v2`).
///
/// Sums are accumulated in `i128` so that 100 M 64-bit keys cannot overflow.
pub fn sum(values: &[i64], low: i64, high: i64) -> i128 {
    values
        .iter()
        .filter(|&&v| v >= low && v < high)
        .map(|&v| v as i128)
        .sum()
}

/// Fetches the values of `target` at the given positions (the `fetch(B, Ids)`
/// operator of Figure 6). Positions must be valid for `target`.
pub fn fetch(target: &[i64], positions: &[RowId]) -> Vec<i64> {
    positions.iter().map(|&p| target[p as usize]).collect()
}

/// Selects from one column and fetches the aligned values of another, i.e.
/// the full `select B from R where low <= A < high` pipeline of Figure 6.
pub fn select_range(selection: &[i64], target: &[i64], low: i64, high: i64) -> Vec<i64> {
    let positions = select_positions(selection, low, high);
    fetch(target, &positions)
}

/// Sums a contiguous slice of values. Used by the cracking aggregation path,
/// where the qualifying range is a contiguous piece of the cracker array.
pub fn sum_slice(values: &[i64]) -> i128 {
    values.iter().map(|&v| v as i128).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DATA: [i64; 8] = [5, 1, 9, 3, 7, 2, 8, 6];

    #[test]
    fn select_positions_half_open() {
        // [3, 7) selects 5, 3, 6 at positions 0, 3, 7... check precisely.
        let pos = select_positions(&DATA, 3, 7);
        assert_eq!(pos, vec![0, 3, 7]); // values 5, 3, 6
    }

    #[test]
    fn select_positions_empty_and_full() {
        assert!(select_positions(&DATA, 100, 200).is_empty());
        assert_eq!(select_positions(&DATA, 0, 100).len(), DATA.len());
        // Inverted range selects nothing.
        assert!(select_positions(&DATA, 7, 3).is_empty());
    }

    #[test]
    fn count_matches_select_positions() {
        for (low, high) in [(0, 10), (3, 7), (9, 9), (-5, 2)] {
            assert_eq!(
                count(&DATA, low, high),
                select_positions(&DATA, low, high).len() as u64
            );
        }
    }

    #[test]
    fn sum_matches_manual() {
        assert_eq!(sum(&DATA, 3, 7), (5 + 3 + 6) as i128);
        assert_eq!(
            sum(&DATA, 1, 10),
            DATA.iter().map(|&v| v as i128).sum::<i128>()
        );
        assert_eq!(sum(&DATA, 10, 20), 0);
    }

    #[test]
    fn sum_does_not_overflow_i64() {
        let big = vec![i64::MAX, i64::MAX, i64::MAX];
        let s = sum(&big, 0, i64::MAX);
        // i64::MAX itself is excluded by the half-open upper bound.
        assert_eq!(s, 0);
        let s = sum(&big, 0, i64::MAX - 1);
        assert_eq!(s, 0);
        let almost = vec![i64::MAX - 1; 4];
        assert_eq!(sum(&almost, 0, i64::MAX), 4 * (i64::MAX - 1) as i128);
    }

    #[test]
    fn fetch_is_positional() {
        let b: Vec<i64> = (100..108).collect();
        assert_eq!(fetch(&b, &[0, 3, 7]), vec![100, 103, 107]);
        assert!(fetch(&b, &[]).is_empty());
    }

    #[test]
    fn select_range_pipeline() {
        let b: Vec<i64> = (100..108).collect();
        // Selection on A in [3,7) -> positions 0,3,7 -> B values 100,103,107.
        assert_eq!(select_range(&DATA, &b, 3, 7), vec![100, 103, 107]);
    }

    #[test]
    fn sum_slice_contiguous() {
        assert_eq!(sum_slice(&[1, 2, 3]), 6);
        assert_eq!(sum_slice(&[]), 0);
    }
}
