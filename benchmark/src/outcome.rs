//! What one workload run hands to the metric computation.

use crate::run::RunLog;
use aidx_latch::LatchStatsSnapshot;

/// Public stats read from the engine after a repetition's timed window.
#[derive(Debug, Clone, Default)]
pub struct PostStats {
    /// Size of every piece of every column index.
    pub piece_sizes: Vec<u64>,
    /// Pending inserts plus tombstones still in the delta.
    pub delta_rows: u64,
    /// Merged latch statistics; only the column workloads can read them
    /// (`dyn RowIndex` exposes none), so table workloads leave zeroes.
    pub latch: LatchStatsSnapshot,
    /// Joins run per physical strategy: gallop, hash.
    pub joins: (u64, u64),
    /// Requests handled per range partition (range backend only).
    pub partition_load: Vec<u64>,
}

/// One repetition: a fresh engine run through cold and steady phase.
#[derive(Debug, Clone)]
pub struct RepOutcome {
    pub traced: bool,
    pub log: RunLog,
    /// Ops that panicked or whose answer the oracle rejected, plus failed
    /// end-of-run checks (invariants, final-state sweep slices).
    pub failed: u64,
    /// Checks made: one per op, plus the end-of-run checks.
    pub attempted: u64,
    pub post: PostStats,
}

#[derive(Debug, Clone)]
pub struct WorkloadOutcome {
    /// FNV-1a over every op of every repetition, in order.
    pub op_hash: u64,
    /// Engine construction times of the build-and-drop rounds.
    pub setup_s: Vec<f64>,
    pub reps: Vec<RepOutcome>,
    /// True on the workloads whose layer under the benchmark is
    /// `aidx-table`; on the others it is `aidx-core` directly.
    pub through_table: bool,
}

/// Which repetitions a run makes. Untraced: `reps` repetitions, each on
/// its own op stream. Traced: the first stream twice, untraced then
/// traced, so the overhead ratio compares identical work.
pub fn rep_plan(reps: usize, trace: bool) -> Vec<(usize, bool)> {
    if trace {
        vec![(0, false), (0, true)]
    } else {
        (0..reps).map(|rep| (rep, false)).collect()
    }
}
