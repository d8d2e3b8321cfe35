//! Latch statistics.
//!
//! The paper quantifies concurrency-control overhead (Figure 13) and the
//! decay of waiting time over the query sequence (Figure 15). To reproduce
//! those measurements every [`crate::OrderedWaitLatch`] counts, inside its
//! own mutex: how often it was acquired in each mode, how often an
//! acquisition had to wait (a *conflict*), how long the waiting took in
//! total, and how many try-acquisitions gave up. A [`LatchStatsSnapshot`]
//! is a copy of those counts.

/// A plain-data copy of one latch's counters at one point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatchStatsSnapshot {
    /// Shared (read) acquisitions that succeeded.
    pub read_acquisitions: u64,
    /// Exclusive (write) acquisitions that succeeded.
    pub write_acquisitions: u64,
    /// Read acquisitions that had to wait.
    pub read_conflicts: u64,
    /// Write acquisitions that had to wait.
    pub write_conflicts: u64,
    /// Total nanoseconds spent waiting.
    pub wait_nanos: u64,
    /// Acquisitions abandoned under contention.
    pub abandoned: u64,
}

impl LatchStatsSnapshot {
    /// Total acquisitions that had to wait (concurrency conflicts).
    pub fn total_conflicts(&self) -> u64 {
        self.read_conflicts + self.write_conflicts
    }

    /// Adds another snapshot's counters to this one (for aggregation).
    pub fn merge(&mut self, other: &LatchStatsSnapshot) {
        self.read_acquisitions += other.read_acquisitions;
        self.write_acquisitions += other.write_acquisitions;
        self.read_conflicts += other.read_conflicts;
        self.write_conflicts += other.write_conflicts;
        self.wait_nanos += other.wait_nanos;
        self.abandoned += other.abandoned;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_merge_adds_fields() {
        let mut a = LatchStatsSnapshot {
            read_acquisitions: 1,
            write_acquisitions: 2,
            read_conflicts: 3,
            write_conflicts: 4,
            wait_nanos: 5,
            abandoned: 6,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.read_acquisitions, 2);
        assert_eq!(a.write_acquisitions, 4);
        assert_eq!(a.read_conflicts, 6);
        assert_eq!(a.write_conflicts, 8);
        assert_eq!(a.wait_nanos, 10);
        assert_eq!(a.abandoned, 12);
        assert_eq!(a.total_conflicts(), 14);
    }
}
