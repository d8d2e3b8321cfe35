//! The single-threaded cracker index.
//!
//! [`CrackerIndex`] combines a [`CrackerArray`] with a [`PieceMap`] and
//! implements the *crack select* operator: given a range predicate
//! `[low, high)` it reorganises at most the two pieces containing the
//! bounds (Figure 9), records the new cracks in the table of contents, and
//! returns the contiguous position range holding the qualifying values.
//! Aggregations (count / sum) then run over that contiguous range.
//!
//! This type is deliberately single-threaded (it takes `&mut self`); the
//! concurrent protocols in `aidx-core` build on the same primitives but
//! manage latching themselves.

use crate::cracker_array::CrackerArray;
use crate::piece::{PieceLookup, PieceMap};
use crate::RowId;
use std::ops::Range;

/// What a single crack-select call did and found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrackSelectOutcome {
    /// Positions of the cracker array holding all values in `[low, high)`.
    pub range: Range<usize>,
    /// Number of cracks (partitioning steps) this call performed (0..=2).
    pub cracks_performed: u8,
    /// Total number of positions inside the pieces that were reorganised —
    /// the work done under exclusive access, which shrinks as the index
    /// refines (Figure 15's "index refinement" series).
    pub positions_touched: usize,
}

impl CrackSelectOutcome {
    /// Number of qualifying tuples.
    pub fn result_count(&self) -> usize {
        self.range.len()
    }

    /// True if this query refined the index (performed at least one crack).
    pub fn refined(&self) -> bool {
        self.cracks_performed > 0
    }
}

/// A cracker index over one column: auxiliary array + table of contents.
#[derive(Debug, Clone)]
pub struct CrackerIndex {
    array: CrackerArray,
    map: PieceMap,
    total_cracks: u64,
    queries: u64,
}

impl CrackerIndex {
    /// Initialises the cracker index directly from values ("data loaded
    /// directly, without sorting").
    pub fn from_values(values: Vec<i64>) -> Self {
        let array = CrackerArray::from_values(values);
        let map = PieceMap::new(array.len());
        CrackerIndex {
            array,
            map,
            total_cracks: 0,
            queries: 0,
        }
    }

    /// Number of entries in the index.
    pub fn len(&self) -> usize {
        self.array.len()
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The underlying cracker array (read-only).
    pub fn array(&self) -> &CrackerArray {
        &self.array
    }

    /// The table of contents (read-only).
    pub fn piece_map(&self) -> &PieceMap {
        &self.map
    }

    /// Total cracks performed over the index's lifetime.
    pub fn total_cracks(&self) -> u64 {
        self.total_cracks
    }

    /// Total crack-select calls served.
    pub fn queries_served(&self) -> u64 {
        self.queries
    }

    /// Ensures a crack exists at `bound` and returns its position (the first
    /// position whose value is `>= bound`). Returns `(position, cracked,
    /// touched)` where `cracked` says whether a partitioning step ran and
    /// `touched` is the size of the piece that was reorganised.
    fn position_for_bound(&mut self, bound: i64) -> (usize, bool, usize) {
        match self.map.lookup(bound) {
            PieceLookup::Exact(pos) => (pos, false, 0),
            PieceLookup::NeedsCrack(piece) => {
                let touched = piece.len();
                let pos = self.array.crack_in_two(piece.start, piece.end, bound);
                self.map.add_crack(bound, pos);
                self.total_cracks += 1;
                (pos, true, touched)
            }
        }
    }

    /// The crack-select operator: reorganises (at most) the two pieces
    /// containing `low` and `high` and returns the qualifying position
    /// range. `low >= high` yields an empty range and performs no work.
    pub fn crack_select(&mut self, low: i64, high: i64) -> CrackSelectOutcome {
        self.queries += 1;
        if low >= high {
            return CrackSelectOutcome {
                range: 0..0,
                cracks_performed: 0,
                positions_touched: 0,
            };
        }

        // If both bounds fall into the same not-yet-cracked piece, a single
        // three-way crack handles the query (Figure 2's first query).
        if let (PieceLookup::NeedsCrack(p_lo), PieceLookup::NeedsCrack(p_hi)) =
            (self.map.lookup(low), self.map.lookup(high))
        {
            // Both bounds must fall into the *same* piece. Comparing only the
            // start position is not enough: an empty piece (created by a
            // crack whose value is smaller than everything in its piece)
            // shares its start position with its right neighbour.
            if p_lo == p_hi {
                let touched = p_lo.len();
                let (a, b) = self.array.crack_in_three(p_lo.start, p_lo.end, low, high);
                self.map.add_crack(low, a);
                self.map.add_crack(high, b);
                self.total_cracks += 2;
                return CrackSelectOutcome {
                    range: a..b,
                    cracks_performed: 2,
                    positions_touched: touched,
                };
            }
        }

        let (p_low, cracked_low, touched_low) = self.position_for_bound(low);
        let (p_high, cracked_high, touched_high) = self.position_for_bound(high);
        debug_assert!(p_low <= p_high, "cracker map positions must be monotonic");
        CrackSelectOutcome {
            range: p_low..p_high,
            cracks_performed: u8::from(cracked_low) + u8::from(cracked_high),
            positions_touched: touched_low + touched_high,
        }
    }

    /// Q1: `select count(*) where low <= A < high`, with index refinement as
    /// a side effect.
    pub fn count(&mut self, low: i64, high: i64) -> u64 {
        self.crack_select(low, high).range.len() as u64
    }

    /// Q2: `select sum(A) where low <= A < high`, with index refinement as a
    /// side effect.
    pub fn sum(&mut self, low: i64, high: i64) -> i128 {
        let out = self.crack_select(low, high);
        self.array.sum_range(out.range.start, out.range.end)
    }

    /// Returns the row ids of all qualifying tuples (for tuple
    /// reconstruction against aligned payload columns).
    pub fn select_rowids(&mut self, low: i64, high: i64) -> Vec<RowId> {
        let out = self.crack_select(low, high);
        self.array.rowids()[out.range].to_vec()
    }

    /// Verifies that every recorded crack is consistent with the array:
    /// values before the crack position are smaller, values from it on are
    /// greater or equal. Intended for tests and property checks.
    pub fn check_invariants(&self) -> bool {
        if !self.map.check_invariants() {
            return false;
        }
        for piece in self.map.pieces() {
            for pos in piece.start..piece.end {
                let v = self.array.value_at(pos);
                if let Some(lo) = piece.low_value {
                    if v < lo {
                        return false;
                    }
                }
                if let Some(hi) = piece.high_value {
                    if v >= hi {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    fn sample_values() -> Vec<i64> {
        // The paper's Figure 2 example letters, mapped a=1 .. z=26.
        "hbnecoyulzqutgjwvdokimreapxafsi"
            .bytes()
            .map(|b| (b - b'a' + 1) as i64)
            .collect()
    }

    #[test]
    fn crack_select_returns_correct_results() {
        let values = sample_values();
        let mut idx = CrackerIndex::from_values(values.clone());
        // Figure 2's first query: 'd' to 'i'  => [4, 9) in numeric terms.
        let out = idx.crack_select(4, 9);
        assert_eq!(out.range.len() as u64, ops::count(&values, 4, 9));
        assert!(out.refined());
        assert_eq!(out.cracks_performed, 2);
        assert!(idx.check_invariants());
        // Figure 2's second query: 'f' to 'm' => [6, 13).
        let out2 = idx.crack_select(6, 13);
        assert_eq!(out2.range.len() as u64, ops::count(&values, 6, 13));
        assert!(idx.check_invariants());
    }

    #[test]
    fn count_and_sum_match_scan() {
        let values = sample_values();
        let mut idx = CrackerIndex::from_values(values.clone());
        for (low, high) in [(4, 9), (6, 13), (1, 27), (10, 11), (20, 5)] {
            assert_eq!(
                idx.count(low, high),
                ops::count(&values, low, high),
                "count {low}..{high}"
            );
            assert_eq!(
                idx.sum(low, high),
                ops::sum(&values, low, high),
                "sum {low}..{high}"
            );
        }
        assert!(idx.check_invariants());
    }

    #[test]
    fn repeat_queries_do_not_crack_again() {
        let mut idx = CrackerIndex::from_values(sample_values());
        let first = idx.crack_select(4, 9);
        assert_eq!(first.cracks_performed, 2);
        let second = idx.crack_select(4, 9);
        assert_eq!(second.cracks_performed, 0);
        assert_eq!(second.positions_touched, 0);
        assert!(!second.refined());
        assert_eq!(first.range, second.range);
        assert_eq!(idx.total_cracks(), 2);
        assert_eq!(idx.queries_served(), 2);
    }

    #[test]
    fn pieces_shrink_as_queries_arrive() {
        let values: Vec<i64> = (0..1000).rev().collect();
        let mut idx = CrackerIndex::from_values(values);
        let out1 = idx.crack_select(100, 900);
        let out2 = idx.crack_select(400, 600);
        let out3 = idx.crack_select(450, 550);
        assert!(out1.positions_touched >= out2.positions_touched);
        assert!(out2.positions_touched >= out3.positions_touched);
        assert_eq!(idx.piece_map().piece_count(), 7);
        assert!(idx.check_invariants());
    }

    #[test]
    fn empty_and_inverted_ranges() {
        let mut idx = CrackerIndex::from_values(sample_values());
        let out = idx.crack_select(9, 9);
        assert_eq!(out.range.len(), 0);
        assert_eq!(out.cracks_performed, 0);
        let out = idx.crack_select(15, 3);
        assert_eq!(out.range.len(), 0);
        assert_eq!(idx.count(9, 9), 0);
        assert_eq!(idx.sum(15, 3), 0);
    }

    #[test]
    fn bounds_outside_domain() {
        let values = sample_values();
        let mut idx = CrackerIndex::from_values(values.clone());
        assert_eq!(idx.count(-100, 100), values.len() as u64);
        assert_eq!(idx.count(100, 200), 0);
        assert_eq!(idx.count(-200, -100), 0);
        assert!(idx.check_invariants());
    }

    #[test]
    fn select_rowids_reconstructs_tuples() {
        let values = vec![50, 10, 90, 30, 70];
        let mut idx = CrackerIndex::from_values(values.clone());
        let mut rowids = idx.select_rowids(30, 80);
        rowids.sort_unstable();
        // Qualifying values 50, 30, 70 sit at base positions 0, 3, 4.
        assert_eq!(rowids, vec![0, 3, 4]);
        // The rowids can be used to fetch from an aligned payload column.
        let payload: Vec<i64> = vec![500, 100, 900, 300, 700];
        let fetched = ops::fetch(&payload, &rowids);
        assert_eq!(fetched, vec![500, 300, 700]);
    }

    #[test]
    fn shared_bound_queries_reuse_cracks() {
        let mut idx = CrackerIndex::from_values((0..100).collect());
        idx.crack_select(10, 50);
        let out = idx.crack_select(50, 80);
        // The low bound 50 already exists as a crack; only one new crack.
        assert_eq!(out.cracks_performed, 1);
        assert_eq!(idx.total_cracks(), 3);
    }

    #[test]
    fn many_random_queries_full_consistency() {
        // Deterministic pseudo-random workload; after every query the index
        // must agree with a scan and keep its invariants.
        let n = 2000usize;
        let values: Vec<i64> = (0..n as i64).map(|i| (i * 37) % n as i64).collect();
        let mut idx = CrackerIndex::from_values(values.clone());
        let mut seed = 987654321u64;
        for q in 0..200 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = (seed >> 20) as i64 % n as i64;
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = (seed >> 20) as i64 % n as i64;
            let (low, high) = if a <= b { (a, b) } else { (b, a) };
            assert_eq!(
                idx.count(low, high),
                ops::count(&values, low, high),
                "query {q} [{low},{high})"
            );
        }
        assert!(idx.check_invariants());
    }
}
