//! Latch statistics.
//!
//! The paper quantifies concurrency-control overhead (Figure 13) and the
//! decay of waiting time over the query sequence (Figure 15). To reproduce
//! those measurements the latch primitives record, with atomic counters:
//! how often they were acquired in each mode, how often an acquisition had
//! to wait (a *conflict*), and how long the waiting took in total.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::facade::Mutex;
use std::collections::BTreeMap;

/// Atomic counters describing the lifetime activity of one latch.
#[derive(Debug, Default)]
pub struct LatchStats {
    /// Shared (read) acquisitions that succeeded.
    pub read_acquisitions: AtomicU64,
    /// Exclusive (write) acquisitions that succeeded.
    pub write_acquisitions: AtomicU64,
    /// Read acquisitions that could not be granted immediately.
    pub read_conflicts: AtomicU64,
    /// Write acquisitions that could not be granted immediately.
    pub write_conflicts: AtomicU64,
    /// Total nanoseconds spent waiting for this latch, across all threads.
    pub wait_nanos: AtomicU64,
    /// Acquisitions abandoned instead of waited for (conflict avoidance).
    pub abandoned: AtomicU64,
}

/// A plain-data copy of [`LatchStats`] at one point in time.
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

impl LatchStats {
    /// Creates a fresh, zeroed statistics block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a successful read acquisition, noting whether it waited and
    /// for how long.
    pub fn record_read(&self, contended: bool, waited: Duration) {
        self.read_acquisitions.fetch_add(1, Ordering::Relaxed);
        if contended {
            self.read_conflicts.fetch_add(1, Ordering::Relaxed);
            self.wait_nanos
                .fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Records a successful write acquisition, noting whether it waited and
    /// for how long.
    pub fn record_write(&self, contended: bool, waited: Duration) {
        self.write_acquisitions.fetch_add(1, Ordering::Relaxed);
        if contended {
            self.write_conflicts.fetch_add(1, Ordering::Relaxed);
            self.wait_nanos
                .fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Records an acquisition that was abandoned rather than waited for.
    pub fn record_abandoned(&self) {
        self.abandoned.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot of the counters (individual loads
    /// are relaxed; the snapshot is for reporting, not for synchronisation).
    pub fn snapshot(&self) -> LatchStatsSnapshot {
        LatchStatsSnapshot {
            read_acquisitions: self.read_acquisitions.load(Ordering::Relaxed),
            write_acquisitions: self.write_acquisitions.load(Ordering::Relaxed),
            read_conflicts: self.read_conflicts.load(Ordering::Relaxed),
            write_conflicts: self.write_conflicts.load(Ordering::Relaxed),
            wait_nanos: self.wait_nanos.load(Ordering::Relaxed),
            abandoned: self.abandoned.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.read_acquisitions.store(0, Ordering::Relaxed);
        self.write_acquisitions.store(0, Ordering::Relaxed);
        self.read_conflicts.store(0, Ordering::Relaxed);
        self.write_conflicts.store(0, Ordering::Relaxed);
        self.wait_nanos.store(0, Ordering::Relaxed);
        self.abandoned.store(0, Ordering::Relaxed);
    }
}

impl LatchStatsSnapshot {
    /// Total successful acquisitions in either mode.
    pub fn total_acquisitions(&self) -> u64 {
        self.read_acquisitions + self.write_acquisitions
    }

    /// Total acquisitions that had to wait (concurrency conflicts).
    pub fn total_conflicts(&self) -> u64 {
        self.read_conflicts + self.write_conflicts
    }

    /// Total time spent waiting.
    pub fn wait_time(&self) -> Duration {
        Duration::from_nanos(self.wait_nanos)
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

/// A process-wide registry of named latch statistics.
///
/// Latches register themselves under a name (e.g. `"column:R.A"` or
/// `"piece:R.A#17"`); a report pulls a merged snapshot at the end of a
/// run.
#[derive(Debug, Default)]
pub struct LatchStatsRegistry {
    entries: Mutex<BTreeMap<String, Arc<LatchStats>>>,
}

impl LatchStatsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the statistics block registered under `name`, creating it if
    /// necessary. Multiple latches may deliberately share one block.
    pub fn get_or_register(&self, name: &str) -> Arc<LatchStats> {
        let mut guard = self.entries.lock();
        Arc::clone(
            guard
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(LatchStats::new())),
        )
    }

    /// Snapshot of one named entry, if present.
    pub fn snapshot_of(&self, name: &str) -> Option<LatchStatsSnapshot> {
        self.entries.lock().get(name).map(|s| s.snapshot())
    }

    /// Merged snapshot over all registered entries.
    pub fn merged_snapshot(&self) -> LatchStatsSnapshot {
        let mut total = LatchStatsSnapshot::default();
        for stats in self.entries.lock().values() {
            total.merge(&stats.snapshot());
        }
        total
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.entries.lock().keys().cloned().collect()
    }

    /// Resets every registered entry.
    pub fn reset_all(&self) {
        for stats in self.entries.lock().values() {
            stats.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let s = LatchStats::new();
        s.record_read(false, Duration::ZERO);
        s.record_read(true, Duration::from_nanos(500));
        s.record_write(true, Duration::from_nanos(1500));
        s.record_abandoned();
        let snap = s.snapshot();
        assert_eq!(snap.read_acquisitions, 2);
        assert_eq!(snap.write_acquisitions, 1);
        assert_eq!(snap.read_conflicts, 1);
        assert_eq!(snap.write_conflicts, 1);
        assert_eq!(snap.wait_nanos, 2000);
        assert_eq!(snap.abandoned, 1);
        assert_eq!(snap.total_acquisitions(), 3);
        assert_eq!(snap.total_conflicts(), 2);
        assert_eq!(snap.wait_time(), Duration::from_nanos(2000));
    }

    #[test]
    fn reset_zeroes_counters() {
        let s = LatchStats::new();
        s.record_write(true, Duration::from_nanos(10));
        s.reset();
        assert_eq!(s.snapshot(), LatchStatsSnapshot::default());
    }

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
    }

    #[test]
    fn registry_shares_entries_by_name() {
        let reg = LatchStatsRegistry::new();
        let a = reg.get_or_register("col:x");
        let b = reg.get_or_register("col:x");
        a.record_write(false, Duration::ZERO);
        assert_eq!(b.snapshot().write_acquisitions, 1);
        assert_eq!(reg.names(), vec!["col:x".to_string()]);
        assert_eq!(reg.snapshot_of("col:x").unwrap().write_acquisitions, 1);
        assert!(reg.snapshot_of("missing").is_none());
    }

    #[test]
    fn registry_merged_snapshot_and_reset() {
        let reg = LatchStatsRegistry::new();
        reg.get_or_register("a").record_read(false, Duration::ZERO);
        reg.get_or_register("b")
            .record_write(true, Duration::from_nanos(9));
        let merged = reg.merged_snapshot();
        assert_eq!(merged.total_acquisitions(), 2);
        assert_eq!(merged.write_conflicts, 1);
        reg.reset_all();
        assert_eq!(reg.merged_snapshot(), LatchStatsSnapshot::default());
    }
}
