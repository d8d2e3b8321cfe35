//! Index-structure introspection: piece layout, delta pressure, and
//! per-range load, the state that exposes *convergence*.
//!
//! Adaptive indexing's defining claim is that structure emerges as a side
//! effect of queries: piece counts grow, piece sizes shrink toward the
//! query grain, and under compaction the pending delta and hole counts
//! stay bounded. A [`StructureProbe`] is the one record of that state —
//! cheap to take, mergeable across columns — and a reader computes
//! whatever summary it needs from the raw fields.

/// One raw observation of an index's physical structure.
///
/// Probes are *mergeable*: a partitioned or multi-column engine takes one
/// probe per shard and folds them together, so "piece count" means total
/// pieces across the whole engine and the piece-size distribution spans
/// every shard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StructureProbe {
    /// Live (visible) rows in the main array(s).
    pub rows: u64,
    /// Size of every piece, in rows (one entry per piece).
    pub piece_sizes: Vec<u64>,
    /// Rows occupied by tombstoned holes awaiting compaction.
    pub hole_rows: u64,
    /// Rows buffered in pending-delta inserts.
    pub pending_inserts: u64,
    /// Tombstoned (logically deleted, not yet reclaimed) rows.
    pub tombstoned_rows: u64,
    /// Snapshot handles currently pinning state.
    pub live_snapshots: u64,
    /// Full compactions performed so far.
    pub compactions: u64,
    /// Incremental compaction steps performed so far.
    pub compaction_steps: u64,
    /// Operations per key range, a read counted in every range it
    /// overlaps (empty for unpartitioned engines).
    pub partition_load: Vec<u64>,
    /// Cumulative candidate-set bytes produced by selects
    /// (0 for engines that do not build candidate sets).
    pub candidate_set_bytes: u64,
}

impl StructureProbe {
    /// Number of pieces observed.
    pub fn piece_count(&self) -> usize {
        self.piece_sizes.len()
    }

    /// Folds another shard's probe into this one. Counters add; the
    /// piece-size and partition-load lists concatenate.
    pub fn merge(&mut self, other: &StructureProbe) {
        self.rows = self.rows.saturating_add(other.rows);
        self.piece_sizes.extend_from_slice(&other.piece_sizes);
        self.hole_rows = self.hole_rows.saturating_add(other.hole_rows);
        self.pending_inserts = self.pending_inserts.saturating_add(other.pending_inserts);
        self.tombstoned_rows = self.tombstoned_rows.saturating_add(other.tombstoned_rows);
        self.live_snapshots = self.live_snapshots.saturating_add(other.live_snapshots);
        self.compactions = self.compactions.saturating_add(other.compactions);
        self.compaction_steps = self.compaction_steps.saturating_add(other.compaction_steps);
        self.partition_load.extend_from_slice(&other.partition_load);
        self.candidate_set_bytes = self
            .candidate_set_bytes
            .saturating_add(other.candidate_set_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_merge_concatenates_and_adds() {
        let mut a = StructureProbe {
            rows: 100,
            piece_sizes: vec![60, 40],
            hole_rows: 3,
            pending_inserts: 5,
            tombstoned_rows: 2,
            live_snapshots: 1,
            compactions: 1,
            compaction_steps: 4,
            partition_load: vec![10],
            candidate_set_bytes: 1000,
        };
        let b = StructureProbe {
            rows: 50,
            piece_sizes: vec![50],
            hole_rows: 1,
            pending_inserts: 0,
            tombstoned_rows: 1,
            live_snapshots: 0,
            compactions: 0,
            compaction_steps: 2,
            partition_load: vec![20],
            candidate_set_bytes: 24,
        };
        a.merge(&b);
        assert_eq!(a.rows, 150);
        assert_eq!(a.piece_count(), 3);
        assert_eq!(a.partition_load, vec![10, 20]);
        assert_eq!(a.candidate_set_bytes, 1024);
        assert_eq!(a.piece_sizes, vec![60, 40, 50]);
        assert_eq!(
            (a.hole_rows, a.pending_inserts, a.tombstoned_rows),
            (4, 5, 3)
        );
        assert_eq!(
            (a.live_snapshots, a.compactions, a.compaction_steps),
            (1, 1, 6)
        );
    }
}
