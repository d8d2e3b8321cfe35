//! Lazily-merged `(key, rowid)` run streams — the join-side read surface.
//!
//! An equi-join needs each side's surviving rows *ordered by key*, but a
//! cracked column only provides that order piece by piece: every piece the
//! read visits yields one run of pairs whose keys all fall in the piece's
//! key interval, unsorted within it. Fully sorting every run up front
//! would pay the whole sort cost even for runs the join never reaches —
//! exactly the work adaptive indexing exists to avoid.
//!
//! [`KeyRuns`] therefore keeps the per-piece runs *raw* and
//! [`KeyRunsIter`] merges them lazily, in the spirit of
//! [`crate::SeekingIterator`]'s galloping seeks:
//!
//! * a run is sorted only when the merge frontier actually reaches its
//!   minimum key (activation);
//! * [`KeyRunsIter::seek_key`] discards every still-pending run whose
//!   maximum key is below the target **without sorting or walking it** —
//!   under skewed or window-clipped joins whole pieces are bypassed
//!   unsorted, which is the run-level analogue of a compressed set's
//!   block skips (and is reported the same way, via
//!   [`KeyRunsIter::rows_skipped`]);
//! * runs whose pairs arrive already ascending (a rowid-aligned key
//!   column, or a piece cracked down to a single key) are detected at
//!   construction and never pay a sort at all.
//!
//! Unlike [`crate::SeekingIterator`], duplicate keys are first-class: the
//! stream is non-descending, and [`KeyRunsIter::take_group`] drains one
//! key's whole duplicate group for many-to-many fan-out.
//!
//! [`merge_join_pairs`] is the leapfrog consumer: it walks two
//! [`KeyRunsIter`]s like `intersect_iters_gallop` walks two rowid sets —
//! each miss re-seeks the side that is behind to the other side's
//! frontier — and emits the cross product of every matching duplicate
//! group.

use crate::metrics::QueryMetrics;
use aidx_storage::RowId;
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;

/// One run of `(key, rowid)` pairs from a single piece / partition /
/// delta read, with its key envelope precomputed so a merge
/// can decide activation and skipping without touching the pairs.
#[derive(Debug, Clone)]
pub struct KeyRun {
    /// Smallest key in the run.
    pub min_key: i64,
    /// Largest key in the run.
    pub max_key: i64,
    /// True if `pairs` is already non-descending by key.
    pub sorted: bool,
    pairs: Vec<(i64, RowId)>,
}

impl KeyRun {
    /// Rows in the run.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if the run holds no rows (never stored; see [`KeyRuns::push_run`]).
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// A collection of key runs produced by one join-side read — the
/// unmerged, mostly-unsorted raw material a [`KeyRunsIter`] consumes.
#[derive(Debug, Clone, Default)]
pub struct KeyRuns {
    runs: Vec<KeyRun>,
}

impl KeyRuns {
    /// Creates an empty collection.
    pub fn new() -> Self {
        KeyRuns::default()
    }

    /// Adds one raw run, computing its key envelope and detecting
    /// already-sorted pairs in a single pass. Empty runs are dropped.
    pub fn push_run(&mut self, pairs: Vec<(i64, RowId)>) {
        let Some(&(first, _)) = pairs.first() else {
            return;
        };
        let mut min_key = first;
        let mut max_key = first;
        let mut sorted = true;
        let mut prev = first;
        for &(k, _) in &pairs[1..] {
            if k < prev {
                sorted = false;
            }
            min_key = min_key.min(k);
            max_key = max_key.max(k);
            prev = k;
        }
        self.runs.push(KeyRun {
            min_key,
            max_key,
            sorted,
            pairs,
        });
    }

    /// Folds another collection's runs into this one (parallel fan-in:
    /// runs from different partitions or pieces may overlap in key range —
    /// the merge iterator handles that).
    pub fn absorb(&mut self, other: KeyRuns) {
        self.runs.extend(other.runs);
    }

    /// Total rows across all runs.
    pub fn total_rows(&self) -> usize {
        self.runs.iter().map(KeyRun::len).sum()
    }

    /// Number of runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Rows that arrived already sorted (will never pay a sort) — the
    /// numerator of a cost model's sorted-run fraction.
    pub fn presorted_rows(&self) -> usize {
        self.runs.iter().filter(|r| r.sorted).map(KeyRun::len).sum()
    }

    /// Smallest key across all runs (`None` when empty).
    pub fn min_key(&self) -> Option<i64> {
        self.runs.iter().map(|r| r.min_key).min()
    }

    /// Largest key across all runs (`None` when empty).
    pub fn max_key(&self) -> Option<i64> {
        self.runs.iter().map(|r| r.max_key).max()
    }

    /// Drops every pair whose rowid fails `keep`, rebuilding each
    /// surviving run's envelope (runs that empty out are removed). This
    /// is how a table-level join applies a side's filtered candidate set
    /// to its raw key runs before merging.
    pub fn retain_rowids(&mut self, keep: impl Fn(RowId) -> bool) {
        let mut rebuilt = KeyRuns::new();
        for run in std::mem::take(&mut self.runs) {
            let mut pairs = run.pairs;
            pairs.retain(|&(_, rowid)| keep(rowid));
            rebuilt.push_run(pairs);
        }
        *self = rebuilt;
    }

    /// All pairs in run order, *unsorted* — a hash-join build doesn't
    /// need key order, so it skips the merge machinery entirely.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (i64, RowId)> + '_ {
        self.runs.iter().flat_map(|r| r.pairs.iter().copied())
    }

    /// The lazily-merging iterator over all runs.
    pub fn into_merge_iter(self) -> KeyRunsIter {
        let mut pending = self.runs;
        // Popped from the back: descending min_key puts the next-needed
        // run last.
        pending.sort_by_key(|r| std::cmp::Reverse(r.min_key));
        KeyRunsIter {
            pending,
            active: BinaryHeap::new(),
            rows_skipped: 0,
            runs_skipped: 0,
            rows_sorted: 0,
        }
    }

    /// Drains every run into one flat key-sorted vector (test/oracle
    /// convenience; the join paths use [`KeyRuns::into_merge_iter`]).
    pub fn into_sorted_pairs(self) -> Vec<(i64, RowId)> {
        let mut out: Vec<(i64, RowId)> = self.runs.into_iter().flat_map(|r| r.pairs).collect();
        out.sort_unstable();
        out
    }
}

/// One active (sorted) run being merged, ordered by its current key.
#[derive(Debug)]
struct Cursor {
    pairs: Vec<(i64, RowId)>,
    pos: usize,
}

impl Cursor {
    fn key(&self) -> i64 {
        self.pairs[self.pos].0
    }
}

// The heap must be a *min*-heap on the current key: reverse the order.
impl Ord for Cursor {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        other.key().cmp(&self.key())
    }
}
impl PartialOrd for Cursor {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl PartialEq for Cursor {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Cursor {}

/// Lazy k-way merge over a [`KeyRuns`] collection: a non-descending
/// `(key, rowid)` stream with duplicate keys preserved, seekable by key.
#[derive(Debug)]
pub struct KeyRunsIter {
    /// Not-yet-activated runs, descending by `min_key` (pop from back).
    pending: Vec<KeyRun>,
    /// Activated (sorted) runs, min-heap by current key.
    active: BinaryHeap<Cursor>,
    rows_skipped: u64,
    runs_skipped: u64,
    rows_sorted: u64,
}

impl KeyRunsIter {
    /// Rows discarded *unsorted* by [`KeyRunsIter::seek_key`] — whole
    /// pending runs whose key envelope fell below the frontier.
    pub fn rows_skipped(&self) -> u64 {
        self.rows_skipped
    }

    /// Whole runs discarded unsorted by seeks.
    pub fn runs_skipped(&self) -> u64 {
        self.runs_skipped
    }

    /// Rows that paid a sort at activation (runs that arrived unsorted
    /// and were actually reached by the merge frontier).
    pub fn rows_sorted(&self) -> u64 {
        self.rows_sorted
    }

    /// Activates every pending run the merge frontier has reached: after
    /// this, the heap top (if any) is the globally smallest remaining key.
    fn settle(&mut self) {
        loop {
            let Some(next) = self.pending.last() else {
                return;
            };
            match self.active.peek() {
                Some(top) if next.min_key > top.key() => return,
                _ => {}
            }
            let mut run = self.pending.pop().expect("peeked above");
            if !run.sorted {
                self.rows_sorted += run.pairs.len() as u64;
                run.pairs.sort_unstable();
            }
            self.active.push(Cursor {
                pairs: run.pairs,
                pos: 0,
            });
        }
    }

    /// The smallest remaining key, without consuming it.
    pub fn peek_key(&mut self) -> Option<i64> {
        self.settle();
        self.active.peek().map(Cursor::key)
    }

    /// Drains every remaining pair with key exactly `key` (call after
    /// [`KeyRunsIter::peek_key`] returned it): one duplicate group, for
    /// many-to-many join fan-out.
    pub fn take_group(&mut self, key: i64, out: &mut Vec<RowId>) {
        while self.peek_key() == Some(key) {
            let (_, rowid) = self.next().expect("peeked key exists");
            out.push(rowid);
        }
    }

    /// Advances the stream to the first key `>= target`. Pending runs
    /// whose `max_key < target` are discarded whole — unsorted and
    /// unwalked (the gallop win); active cursors skip ahead by binary
    /// search within their sorted pairs.
    pub fn seek_key(&mut self, target: i64) {
        let mut rows_skipped = 0u64;
        let mut runs_skipped = 0u64;
        self.pending.retain(|run| {
            if run.max_key < target {
                rows_skipped += run.pairs.len() as u64;
                runs_skipped += 1;
                false
            } else {
                true
            }
        });
        self.rows_skipped += rows_skipped;
        self.runs_skipped += runs_skipped;
        if self.active.peek().is_some_and(|top| top.key() < target) {
            let mut kept = Vec::with_capacity(self.active.len());
            for mut cursor in std::mem::take(&mut self.active).into_vec() {
                cursor.pos += cursor.pairs[cursor.pos..].partition_point(|&(k, _)| k < target);
                if cursor.pos < cursor.pairs.len() {
                    kept.push(cursor);
                }
            }
            self.active = BinaryHeap::from(kept);
        }
    }
}

impl Iterator for KeyRunsIter {
    type Item = (i64, RowId);

    /// The next `(key, rowid)` pair, keys non-descending.
    fn next(&mut self) -> Option<(i64, RowId)> {
        self.settle();
        let mut top = self.active.peek_mut()?;
        let pair = top.pairs[top.pos];
        top.pos += 1;
        if top.pos == top.pairs.len() {
            std::collections::binary_heap::PeekMut::pop(top);
        }
        Some(pair)
    }
}

/// Statistics of one leapfrog merge join ([`merge_join_pairs`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeJoinStats {
    /// Output pairs emitted.
    pub pairs: u64,
    /// Rows bypassed unsorted by run-level seeks, summed over both sides.
    pub rows_skipped: u64,
    /// Whole runs bypassed unsorted, summed over both sides.
    pub runs_skipped: u64,
    /// Rows that paid a sort at run activation, summed over both sides.
    pub rows_sorted: u64,
}

/// Leapfrog equi-join of two lazily-merged key streams: whichever side's
/// frontier is behind seeks to the other's (skipping whole runs
/// unsorted), and on a key match the duplicate groups' cross product is
/// emitted as `(left rowid, right rowid)` pairs, in no particular order.
pub fn merge_join_pairs(
    mut left: KeyRunsIter,
    mut right: KeyRunsIter,
    out: &mut Vec<(RowId, RowId)>,
) -> MergeJoinStats {
    let mut lgroup = Vec::new();
    let mut rgroup = Vec::new();
    while let (Some(lk), Some(rk)) = (left.peek_key(), right.peek_key()) {
        match lk.cmp(&rk) {
            CmpOrdering::Less => left.seek_key(rk),
            CmpOrdering::Greater => right.seek_key(lk),
            CmpOrdering::Equal => {
                lgroup.clear();
                rgroup.clear();
                left.take_group(lk, &mut lgroup);
                right.take_group(rk, &mut rgroup);
                out.reserve(lgroup.len() * rgroup.len());
                for &l in &lgroup {
                    for &r in &rgroup {
                        out.push((l, r));
                    }
                }
            }
        }
    }
    MergeJoinStats {
        pairs: out.len() as u64,
        rows_skipped: left.rows_skipped() + right.rows_skipped(),
        runs_skipped: left.runs_skipped() + right.runs_skipped(),
        rows_sorted: left.rows_sorted() + right.rows_sorted(),
    }
}

/// Folds a merge join's statistics into one operation's metrics record.
pub fn note_merge_join(metrics: &mut QueryMetrics, stats: &MergeJoinStats) {
    metrics.join_pairs = metrics.join_pairs.saturating_add(stats.pairs);
    metrics.join_rows_skipped = metrics.join_rows_skipped.saturating_add(stats.rows_skipped);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs_of(groups: &[&[(i64, RowId)]]) -> KeyRuns {
        let mut runs = KeyRuns::new();
        for g in groups {
            runs.push_run(g.to_vec());
        }
        runs
    }

    #[test]
    fn push_run_computes_envelope_and_sortedness() {
        let mut runs = KeyRuns::new();
        runs.push_run(vec![(5, 0), (2, 1), (9, 2)]);
        runs.push_run(vec![(1, 3), (1, 4), (3, 5)]);
        runs.push_run(vec![]); // dropped
        assert_eq!(runs.run_count(), 2);
        assert_eq!(runs.total_rows(), 6);
        assert_eq!(runs.presorted_rows(), 3, "only the ascending run");
        assert_eq!(runs.min_key(), Some(1));
        assert_eq!(runs.max_key(), Some(9));
    }

    #[test]
    fn iter_merges_overlapping_runs_in_key_order_with_duplicates() {
        let runs = runs_of(&[&[(7, 0), (3, 1), (5, 2)], &[(4, 3), (3, 4)], &[(9, 5)]]);
        let seen: Vec<(i64, RowId)> = runs.into_merge_iter().collect();
        let keys: Vec<i64> = seen.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![3, 3, 4, 5, 7, 9]);
        let mut rowids: Vec<RowId> = seen.iter().map(|&(_, r)| r).collect();
        rowids.sort_unstable();
        assert_eq!(rowids, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn seek_discards_pending_runs_unsorted() {
        // Three runs; a seek past the first two must skip them whole.
        let runs = runs_of(&[
            &[(10, 0), (12, 1)],
            &[(20, 2), (25, 3), (21, 4)],
            &[(90, 5), (95, 6)],
        ]);
        let mut iter = runs.into_merge_iter();
        iter.seek_key(50);
        assert_eq!(iter.runs_skipped(), 2);
        assert_eq!(iter.rows_skipped(), 5);
        assert_eq!(iter.peek_key(), Some(90));
        assert_eq!(iter.rows_sorted(), 0, "skipped runs never sorted");
    }

    #[test]
    fn seek_advances_active_cursors_by_binary_search() {
        let runs = runs_of(&[&[(1, 0), (5, 1), (9, 2), (13, 3)]]);
        let mut iter = runs.into_merge_iter();
        assert_eq!(iter.peek_key(), Some(1)); // activates the run
        iter.seek_key(9);
        assert_eq!(iter.next(), Some((9, 2)));
        iter.seek_key(100);
        assert_eq!(iter.next(), None);
    }

    #[test]
    fn take_group_drains_duplicates_across_runs() {
        let runs = runs_of(&[&[(4, 0), (4, 1)], &[(4, 2), (6, 3)]]);
        let mut iter = runs.into_merge_iter();
        assert_eq!(iter.peek_key(), Some(4));
        let mut group = Vec::new();
        iter.take_group(4, &mut group);
        group.sort_unstable();
        assert_eq!(group, vec![0, 1, 2]);
        assert_eq!(iter.peek_key(), Some(6));
    }

    #[test]
    fn merge_join_emits_cross_products_and_skips_unreached_runs() {
        // Left: keys 1..=3 and a far island at 100. Right: 2 (twice), 3,
        // plus a low island the left frontier jumps over.
        let left = runs_of(&[&[(1, 10), (2, 11), (3, 12)], &[(100, 13)]]);
        let right = runs_of(&[&[(2, 20), (2, 21), (3, 22)], &[(0, 23)]]);
        let mut out = Vec::new();
        let stats = merge_join_pairs(left.into_merge_iter(), right.into_merge_iter(), &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![(11, 20), (11, 21), (12, 22)]);
        assert_eq!(stats.pairs, 3);
        // Left's island run (key 100) is discarded unsorted when the right
        // side runs dry... it is never *seeked* past, so only count what
        // seeks actually skipped: right's low island is consumed by the
        // leapfrog, left's island is simply never activated.
        assert_eq!(out.len() as u64, stats.pairs);
    }

    #[test]
    fn merge_join_empty_sides() {
        let left = runs_of(&[&[(1, 0)]]);
        let mut out = Vec::new();
        let stats = merge_join_pairs(
            left.into_merge_iter(),
            KeyRuns::new().into_merge_iter(),
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(stats.pairs, 0);
        let stats = merge_join_pairs(
            KeyRuns::new().into_merge_iter(),
            KeyRuns::new().into_merge_iter(),
            &mut out,
        );
        assert_eq!(stats.pairs, 0);
    }

    #[test]
    fn merge_join_skips_whole_runs_under_skew() {
        // Right side is one hot key; left side is 8 runs of 100 rows each
        // across a wide domain. The leapfrog must discard all but the hot
        // run without sorting it.
        let mut left = KeyRuns::new();
        for base in 0..8i64 {
            // Descending within the run => unsorted.
            let run: Vec<(i64, RowId)> = (0..100)
                .map(|i| (base * 1000 + (99 - i), (base * 100 + i) as RowId))
                .collect();
            left.push_run(run);
        }
        let right = runs_of(&[&[(5050, 7), (5050, 8)]]);
        let mut out = Vec::new();
        let stats = merge_join_pairs(left.into_merge_iter(), right.into_merge_iter(), &mut out);
        assert_eq!(out.len(), 2, "one left row (key 5050) × two right rows");
        assert!(
            stats.rows_skipped >= 400,
            "runs below the hot key must be skipped unsorted, got {}",
            stats.rows_skipped
        );
        assert!(
            stats.rows_sorted <= 200,
            "at most the hot run (and the first-activated run) pay a sort, got {}",
            stats.rows_sorted
        );
    }

    #[test]
    fn into_sorted_pairs_flattens_everything() {
        let runs = runs_of(&[&[(3, 0), (1, 1)], &[(2, 2)]]);
        assert_eq!(runs.into_sorted_pairs(), vec![(1, 1), (2, 2), (3, 0)]);
    }

    #[test]
    fn note_merge_join_saturates_into_metrics() {
        let mut m = QueryMetrics::default();
        note_merge_join(
            &mut m,
            &MergeJoinStats {
                pairs: 7,
                rows_skipped: 3,
                runs_skipped: 1,
                rows_sorted: 2,
            },
        );
        assert_eq!(m.join_pairs, 7);
        assert_eq!(m.join_rows_skipped, 3);
    }
}
