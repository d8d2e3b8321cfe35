//! Compaction policy for the pending-update delta.
//!
//! Section 4's pending side structure ([`crate::PendingDelta`]) keeps the
//! cracker array's footprint fixed, but without a bound it only ever
//! grows: every select pays an `O(log d + k)` probe over `d` delta rows,
//! so a sustained insert stream degrades read latency linearly, and
//! tombstoned rows are never physically reclaimed. A [`CompactionPolicy`]
//! bounds `d`: once the delta holds more rows than the configured
//! threshold (absolute, or a fraction of the main array), the index
//! rebuilds its main array from `main + pending inserts − tombstones` in
//! one pass, preserving existing cracks (see
//! [`ConcurrentCracker::compact`](crate::ConcurrentCracker::compact)).
//!
//! The policy is deliberately a plain value type with no behaviour beyond
//! the trigger decision, so every layer (serial cracker, pre-cracked
//! range-partitioned cracker, the workload harness) threads the same
//! knob.

/// *How* a triggered compaction reconciles the delta with the main array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CompactionMode {
    /// Quiesce the whole index (piece directory's gate exclusive) and rebuild
    /// the main array in one pass — the PR 3 system transaction. Readers
    /// and writers all stall for the rebuild's duration.
    #[default]
    Quiesce,
    /// Walk the piece directory one piece write latch at a time, merging
    /// each piece's epoch-visible pending inserts into its tombstone holes
    /// and advancing a per-piece `compacted_through` watermark. Readers
    /// never block on the walk; the exclusive gate is taken only for the
    /// final fixup (the quiescing rebuild), and only when a whole lap over
    /// the pieces could not bring the delta back under the threshold
    /// (e.g. an insert-only stream with no holes to fill).
    Incremental {
        /// Pieces merged per walk step (clamped to at least 1). Bounds the
        /// single-write stall: a triggered write pays for at most this many
        /// piece merges before the trigger is re-evaluated.
        pieces_per_step: usize,
    },
}

/// When to rebuild the main array from `main + pending − tombstones`.
///
/// Both thresholds are optional; whichever trips first triggers a
/// compaction, and [`CompactionPolicy::disabled`] (the default) never
/// triggers, reproducing the pre-compaction behaviour exactly. The
/// [`CompactionMode`] decides whether the triggered reconciliation
/// quiesces the column or walks it piece by piece.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompactionPolicy {
    /// Compact once the delta holds at least this many rows (pending
    /// inserts plus tombstones).
    pub max_delta_rows: Option<u64>,
    /// Compact once the delta holds at least this fraction of the main
    /// array's row count (an empty main array compacts on any delta row,
    /// since every query is then answered entirely from the delta).
    pub max_delta_fraction: Option<f64>,
    /// How the triggered compaction runs (quiescing rebuild by default).
    pub mode: CompactionMode,
}

impl CompactionPolicy {
    /// Never compact (the default): the delta grows without bound, as in
    /// the pre-compaction write path.
    pub const fn disabled() -> Self {
        CompactionPolicy {
            max_delta_rows: None,
            max_delta_fraction: None,
            mode: CompactionMode::Quiesce,
        }
    }

    /// Compact whenever the delta reaches `rows` rows. `rows == 0` means
    /// *disabled*, like a non-positive [`CompactionPolicy::fraction`].
    pub const fn rows(rows: u64) -> Self {
        CompactionPolicy {
            max_delta_rows: if rows == 0 { None } else { Some(rows) },
            max_delta_fraction: None,
            mode: CompactionMode::Quiesce,
        }
    }

    /// Compact whenever the delta reaches `fraction` of the main array's
    /// length (e.g. `0.1` = rebuild once the delta is 10% of main).
    /// Non-positive fractions mean *disabled*, like [`CompactionPolicy::rows`]
    /// with `0`.
    pub const fn fraction(fraction: f64) -> Self {
        CompactionPolicy {
            max_delta_rows: None,
            max_delta_fraction: if fraction <= 0.0 {
                None
            } else {
                Some(fraction)
            },
            mode: CompactionMode::Quiesce,
        }
    }

    /// Switches the policy to incremental (piece-at-a-time) compaction
    /// with the given walk-step budget (builder style; 0 is clamped to 1).
    pub const fn incremental(mut self, pieces_per_step: usize) -> Self {
        self.mode = CompactionMode::Incremental {
            pieces_per_step: if pieces_per_step == 0 {
                1
            } else {
                pieces_per_step
            },
        };
        self
    }

    /// True if at least one threshold is configured.
    pub fn is_enabled(&self) -> bool {
        self.max_delta_rows.is_some() || self.max_delta_fraction.is_some()
    }

    /// The trigger decision: should an index with `main_len` main-array
    /// rows and `delta_rows` delta rows (pending inserts + tombstones)
    /// compact now?
    pub fn should_compact(&self, delta_rows: u64, main_len: usize) -> bool {
        if delta_rows == 0 {
            return false;
        }
        if let Some(rows) = self.max_delta_rows {
            if delta_rows >= rows {
                return true;
            }
        }
        if let Some(fraction) = self.max_delta_fraction {
            if delta_rows as f64 >= fraction * main_len as f64 {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_never_triggers() {
        let p = CompactionPolicy::disabled();
        assert!(!p.is_enabled());
        assert!(!p.should_compact(u64::MAX, 0));
        assert!(!p.should_compact(1_000_000, 10));
        assert_eq!(p, CompactionPolicy::default());
    }

    #[test]
    fn row_threshold_triggers_at_the_bound() {
        let p = CompactionPolicy::rows(100);
        assert!(p.is_enabled());
        assert!(!p.should_compact(99, 1_000_000));
        assert!(p.should_compact(100, 1_000_000));
        assert!(p.should_compact(101, 0));
    }

    #[test]
    fn zero_rows_means_disabled_like_every_other_threshold_knob() {
        let p = CompactionPolicy::rows(0);
        assert!(!p.is_enabled());
        assert_eq!(p, CompactionPolicy::disabled());
        assert!(!p.should_compact(1_000_000, 100));
        // And an empty delta never compacts regardless of policy.
        assert!(!CompactionPolicy::rows(1).should_compact(0, 100));
    }

    #[test]
    fn fraction_threshold_scales_with_main() {
        let p = CompactionPolicy::fraction(0.1);
        assert!(!p.should_compact(99, 1000));
        assert!(p.should_compact(100, 1000));
        // An empty main array compacts on any delta row at all.
        assert!(p.should_compact(1, 0));
    }

    #[test]
    fn non_positive_fraction_means_disabled() {
        assert!(!CompactionPolicy::fraction(0.0).is_enabled());
        assert!(!CompactionPolicy::fraction(-1.0).is_enabled());
        assert!(!CompactionPolicy::fraction(0.0).should_compact(u64::MAX, 1));
    }

    #[test]
    fn either_threshold_suffices() {
        let p = CompactionPolicy {
            max_delta_rows: Some(1000),
            max_delta_fraction: Some(0.5),
            mode: CompactionMode::Quiesce,
        };
        assert!(p.should_compact(1000, 1_000_000), "row bound trips");
        assert!(p.should_compact(50, 100), "fraction bound trips");
        assert!(!p.should_compact(49, 100));
    }

    #[test]
    fn incremental_builder_sets_the_mode_and_clamps_the_step() {
        let p = CompactionPolicy::rows(100);
        assert_eq!(p.mode, CompactionMode::Quiesce);
        let p = p.incremental(4);
        assert_eq!(p.mode, CompactionMode::Incremental { pieces_per_step: 4 });
        assert!(p.is_enabled(), "thresholds survive the mode switch");
        assert!(p.should_compact(100, 1_000_000));
        assert_eq!(
            CompactionPolicy::rows(1).incremental(0).mode,
            CompactionMode::Incremental { pieces_per_step: 1 },
            "zero step budget is clamped"
        );
    }
}
