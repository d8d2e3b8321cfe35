//! Index-structure introspection: piece layout, delta pressure, and
//! per-range load, the state that exposes *convergence*.
//!
//! Adaptive indexing's defining claim is that structure emerges as a side
//! effect of queries: piece counts grow, piece sizes shrink toward the
//! query grain, and (after PR 3/4) the pending delta and hole counts stay
//! bounded. A [`StructureProbe`] is one raw observation of that state —
//! cheap to take, mergeable across partitions/columns — and a
//! [`StructureStats`] is its human/JSON summary.

use crate::hist::LatencyHistogram;
use crate::json::Json;

/// Summary of a size distribution (e.g. piece sizes).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Dist {
    /// Number of observations.
    pub count: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Median (bucket upper bound; 0 when empty).
    pub p50: u64,
    /// 90th percentile (bucket upper bound; 0 when empty).
    pub p90: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Mean (0.0 when empty).
    pub mean: f64,
}

impl Dist {
    /// Summarises a set of values.
    pub fn of(values: &[u64]) -> Dist {
        if values.is_empty() {
            return Dist::default();
        }
        let mut h = LatencyHistogram::new();
        for &v in values {
            h.record(v);
        }
        Dist {
            count: h.count(),
            min: h.min(),
            p50: h.p50(),
            p90: h.p90(),
            max: h.max(),
            mean: h.mean(),
        }
    }

    /// Encodes the distribution as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::UInt(self.count)),
            ("min", Json::UInt(self.min)),
            ("p50", Json::UInt(self.p50)),
            ("p90", Json::UInt(self.p90)),
            ("max", Json::UInt(self.max)),
            ("mean", Json::Num(self.mean)),
        ])
    }
}

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

    /// Partition-imbalance ratio: max/mean of `partition_load`. 1.0 means
    /// perfectly balanced (and is also returned for empty or all-zero
    /// load vectors, where imbalance is undefined).
    pub fn partition_imbalance(&self) -> f64 {
        let total: u64 = self.partition_load.iter().sum();
        if self.partition_load.is_empty() || total == 0 {
            return 1.0;
        }
        let max = *self.partition_load.iter().max().unwrap() as f64;
        let mean = total as f64 / self.partition_load.len() as f64;
        max / mean
    }

    /// Summarises the probe.
    pub fn summarize(&self) -> StructureStats {
        StructureStats {
            rows: self.rows,
            piece_count: self.piece_sizes.len() as u64,
            piece_size: Dist::of(&self.piece_sizes),
            hole_rows: self.hole_rows,
            pending_inserts: self.pending_inserts,
            tombstoned_rows: self.tombstoned_rows,
            live_snapshots: self.live_snapshots,
            compactions: self.compactions,
            compaction_steps: self.compaction_steps,
            partition_load: Dist::of(&self.partition_load),
            partition_imbalance: self.partition_imbalance(),
            partitions: self.partition_load.len() as u64,
            candidate_set_bytes: self.candidate_set_bytes,
        }
    }
}

/// Summarised structure state — what reports print and JSON carries.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StructureStats {
    /// Live rows.
    pub rows: u64,
    /// Total pieces.
    pub piece_count: u64,
    /// Distribution of piece sizes (rows).
    pub piece_size: Dist,
    /// Rows occupied by tombstoned holes awaiting compaction.
    pub hole_rows: u64,
    /// Rows buffered in pending-delta inserts.
    pub pending_inserts: u64,
    /// Tombstoned, not-yet-reclaimed rows.
    pub tombstoned_rows: u64,
    /// Snapshot handles currently pinning state.
    pub live_snapshots: u64,
    /// Full compactions so far.
    pub compactions: u64,
    /// Incremental compaction steps so far.
    pub compaction_steps: u64,
    /// Distribution of the per-range op load.
    pub partition_load: Dist,
    /// Partition-imbalance ratio: max/mean of per-partition load (1.0 =
    /// perfectly balanced; also 1.0 for unpartitioned/idle engines).
    pub partition_imbalance: f64,
    /// Number of partitions (0 for unpartitioned engines).
    pub partitions: u64,
    /// Cumulative candidate-set bytes produced by selects.
    pub candidate_set_bytes: u64,
}

impl StructureStats {
    /// Rows still awaiting physical reconciliation (delta + holes).
    pub fn delta_rows(&self) -> u64 {
        self.pending_inserts
            .saturating_add(self.tombstoned_rows)
            .saturating_add(self.hole_rows)
    }

    /// Encodes the stats as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("rows", Json::UInt(self.rows)),
            ("piece_count", Json::UInt(self.piece_count)),
            ("piece_size", self.piece_size.to_json()),
            ("hole_rows", Json::UInt(self.hole_rows)),
            ("pending_inserts", Json::UInt(self.pending_inserts)),
            ("tombstoned_rows", Json::UInt(self.tombstoned_rows)),
            ("delta_rows", Json::UInt(self.delta_rows())),
            ("live_snapshots", Json::UInt(self.live_snapshots)),
            ("compactions", Json::UInt(self.compactions)),
            ("compaction_steps", Json::UInt(self.compaction_steps)),
            ("partitions", Json::UInt(self.partitions)),
            ("partition_load", self.partition_load.to_json()),
            ("partition_imbalance", Json::Num(self.partition_imbalance)),
            ("candidate_set_bytes", Json::UInt(self.candidate_set_bytes)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_of_empty_and_singleton() {
        assert_eq!(Dist::of(&[]), Dist::default());
        let d = Dist::of(&[42]);
        assert_eq!(d.count, 1);
        assert_eq!(d.min, 42);
        assert_eq!(d.max, 42);
        assert!(d.p50 >= 42);
    }

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
        let s = a.summarize();
        assert_eq!(s.piece_count, 3);
        assert_eq!(s.piece_size.max, 60);
        assert_eq!(s.delta_rows(), 5 + 3 + 4);
        assert_eq!(s.partitions, 2);
        let json = s.to_json();
        assert_eq!(json.get("piece_count").unwrap().as_u64(), Some(3));
        assert_eq!(json.get("delta_rows").unwrap().as_u64(), Some(12));
        assert_eq!(
            json.get("candidate_set_bytes").unwrap().as_u64(),
            Some(1024)
        );
    }

    #[test]
    fn partition_imbalance_is_max_over_mean() {
        let probe = StructureProbe {
            partition_load: vec![30, 10, 10, 10],
            ..StructureProbe::default()
        };
        // mean = 15, max = 30 → ratio 2.0
        assert!((probe.partition_imbalance() - 2.0).abs() < 1e-9);
        let stats = probe.summarize();
        assert!((stats.partition_imbalance - 2.0).abs() < 1e-9);
        let json = stats.to_json();
        assert!(json.render().contains("partition_imbalance"));

        // Balanced load → exactly 1.0.
        let even = StructureProbe {
            partition_load: vec![5, 5, 5],
            ..StructureProbe::default()
        };
        assert_eq!(even.partition_imbalance(), 1.0);

        // Empty and all-zero vectors are defined as balanced.
        assert_eq!(StructureProbe::default().partition_imbalance(), 1.0);
        let idle = StructureProbe {
            partition_load: vec![0, 0],
            ..StructureProbe::default()
        };
        assert_eq!(idle.partition_imbalance(), 1.0);
    }
}
