//! Skew-adaptive re-partitioning: the tuning knobs, the monitor thread,
//! the rebalance decision, and the split and merge system transactions.
//!
//! A split or merge is stop-the-world. The controller takes the
//! repartition mutex, then the snapshot gate exclusive (aborting while a
//! snapshot is live), then the router's write lock. Every operation holds
//! the router's read lock for its whole length, so once the write lock is
//! held no operation is in flight: the rows move between quiescent
//! partitions, and the new routing table replaces the old one before the
//! lock is released.

use super::{Partition, RoutingTable, Shared};
use aidx_core::{dcheck, ConcurrentCracker, LatchProtocol};
use aidx_obs::{emit, TraceEvent};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning for the skew-adaptive mode ([`RangePartitionedCracker::adaptive`](super::RangePartitionedCracker::adaptive)).
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// How often the monitor thread examines the load windows. `None`
    /// spawns no monitor: rebalancing then only happens through explicit
    /// [`RangePartitionedCracker::try_rebalance`](super::RangePartitionedCracker::try_rebalance) calls (deterministic
    /// tests, external schedulers).
    pub check_interval: Option<Duration>,
    /// Split the hottest partition once its window load exceeds this
    /// multiple of the mean window load (max/mean imbalance trigger).
    pub imbalance_threshold: f64,
    /// Never split a partition below `2 ×` this many rows (both halves
    /// must stay worth owning).
    pub min_partition_rows: usize,
    /// Partition budget: at this many partitions a split is preceded by
    /// merging the coldest adjacent pair.
    pub max_partitions: usize,
    /// Ignore load windows with fewer total routed ops than this — too
    /// little traffic to judge skew.
    pub min_window_ops: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            check_interval: Some(Duration::from_millis(2)),
            imbalance_threshold: 1.75,
            min_partition_rows: 1024,
            max_partitions: 32,
            min_window_ops: 64,
        }
    }
}

/// What one rebalance pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rebalance {
    /// Load looked balanced, or there was too little traffic to judge.
    Balanced,
    /// A live snapshot pinned row positions; the pass aborted without
    /// touching anything.
    SnapshotPinned,
    /// The hot partition split at a crack boundary.
    Split {
        /// Id of the partition that was split.
        partition: u32,
    },
    /// A cold partition merged into its left neighbour to stay within
    /// the partition budget.
    Merged {
        /// Id of the partition that was merged away.
        partition: u32,
    },
}

/// The monitor thread: parks on a condvar (so teardown can interrupt a
/// long interval) and runs one rebalance pass per wakeup.
pub(super) fn monitor_loop(shared: &Shared, interval: Duration) {
    loop {
        {
            let mut parked = shared.monitor_park.lock();
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            let _ = shared.monitor_cv.wait_for(&mut parked, interval);
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        rebalance(shared);
    }
}

/// What `decide` asked the controller to do.
enum RebalanceAction {
    /// Split the partition at this index in the current table.
    Split(usize),
    /// Merge the partition at index `i + 1` into the one at `i`.
    Merge(usize),
}

/// One rebalance pass: the repartition system transaction entry point.
/// Latch order is strictly ascending — repartition (1), snapshot gate
/// (2), then router (3), taken shared to decide and exclusive to act.
pub(super) fn rebalance(shared: &Shared) -> Rebalance {
    let Some(config) = shared.config else {
        return Rebalance::Balanced;
    };
    let _ctl = dcheck::Tracked::new(
        dcheck::Level::Repartition,
        shared.repartition_instance,
        "repartition",
        shared.repartition.lock(),
    );
    // Gate first: if a live snapshot forces an abort, the pass must not
    // consume the load window (decide() resets it), or the retry after
    // the snapshot closes would see an empty window and do nothing.
    let _gate = dcheck::Tracked::new(
        dcheck::Level::SnapshotGate,
        shared.snapshot_gate_instance,
        "snapshot-gate",
        shared.snapshot_gate.write(),
    );
    if shared.live_snapshots.load(Ordering::SeqCst) != 0 {
        return Rebalance::SnapshotPinned;
    }
    let Some(action) = decide(shared, &config) else {
        return Rebalance::Balanced;
    };
    // Only a rebalance replaces the table, and this one holds the
    // repartition mutex: the indexes `decide` chose are still current.
    let mut table = dcheck::Tracked::new(
        dcheck::Level::Router,
        shared.router_instance,
        "router-table",
        shared.table.write(),
    );
    match action {
        RebalanceAction::Split(hot) => perform_split(shared, &mut table, hot),
        RebalanceAction::Merge(left) => perform_merge(shared, &mut table, left),
    }
}

/// Reads (and resets) the per-partition load window and picks an action.
fn decide(shared: &Shared, config: &AdaptiveConfig) -> Option<RebalanceAction> {
    let table = shared.current_table();
    let n = table.partitions.len();
    let mut deltas = Vec::with_capacity(n);
    {
        let mut last_ops = shared.last_ops.lock();
        for part in &table.partitions {
            let now = part.ops.load(Ordering::Relaxed);
            let prev = last_ops.insert(part.id, now).unwrap_or(0);
            deltas.push(now.saturating_sub(prev));
        }
    }
    let total: u64 = deltas.iter().sum();
    if total < config.min_window_ops {
        return None;
    }
    let hot = (0..n).max_by_key(|&p| deltas[p])?;
    let mean = total as f64 / n as f64;
    // A lone partition carrying real load is skew by definition; with
    // more partitions the hot one must clearly outrun the mean.
    if n > 1 && (deltas[hot] as f64) < mean * config.imbalance_threshold {
        return None;
    }
    if table.partitions[hot].index.logical_len() < 2 * config.min_partition_rows as u64 {
        return None;
    }
    if n >= config.max_partitions {
        // At the partition budget: merge the coldest adjacent pair that
        // doesn't involve the hot partition. The next pass splits the
        // (still hot) partition.
        let mut best: Option<(u64, usize)> = None;
        for i in 0..n.saturating_sub(1) {
            if i == hot || i + 1 == hot {
                continue;
            }
            let cost = deltas[i] + deltas[i + 1];
            if best.is_none_or(|(c, _)| cost < c) {
                best = Some((cost, i));
            }
        }
        return best.map(|(_, i)| RebalanceAction::Merge(i));
    }
    Some(RebalanceAction::Split(hot))
}

/// Splits partition `hot` at a crack boundary near its middle: the rows
/// from the boundary up move, with their cracks, into a new partition.
fn perform_split(shared: &Shared, table: &mut Arc<RoutingTable>, hot: usize) -> Rebalance {
    let start = Instant::now();
    let parent = &table.partitions[hot];
    let lower = if hot == 0 {
        i64::MIN
    } else {
        table.splits[hot - 1]
    };
    let upper = table.splits.get(hot).copied();
    // Splitting at an existing crack moves whole pieces: no cracking,
    // only the copy of the upper half.
    let at = match parent.index.median_crack_key() {
        Some(at) if at > lower && upper.is_none_or(|u| at < u) => at,
        _ => return Rebalance::Balanced,
    };
    let (values, rowids, cracks) = parent.index.split_off(at);
    let moved = values.len() as u64;
    let child =
        ConcurrentCracker::from_rows_with_cracks(values, rowids, &cracks, LatchProtocol::Piece)
            .with_compaction(parent.index.compaction_policy());
    let child = Partition::new(
        shared.next_partition_id.fetch_add(1, Ordering::Relaxed),
        child,
    );
    let parent = parent.id;
    let mut next = RoutingTable::clone(table);
    next.splits.insert(hot, at);
    next.partitions.insert(hot + 1, child);
    *table = Arc::new(next);

    shared.splits_performed.fetch_add(1, Ordering::Relaxed);
    emit(TraceEvent::Repartition {
        partition: parent,
        split: true,
        rows: moved,
        ns: elapsed_ns(start),
    });
    Rebalance::Split { partition: parent }
}

/// Merges partition `left + 1` into `left`: the victim's rows and cracks
/// append to the absorber, and the victim leaves the routing table.
fn perform_merge(shared: &Shared, table: &mut Arc<RoutingTable>, left: usize) -> Rebalance {
    let start = Instant::now();
    let victim = &table.partitions[left + 1];
    let (values, rowids, cracks) = victim.index.split_off(i64::MIN);
    let moved = values.len() as u64;
    table.partitions[left]
        .index
        .absorb_upper(values, rowids, &cracks, table.splits[left]);
    let victim = victim.id;
    let mut next = RoutingTable::clone(table);
    next.splits.remove(left);
    next.partitions.remove(left + 1);
    *table = Arc::new(next);

    shared.merges_performed.fetch_add(1, Ordering::Relaxed);
    emit(TraceEvent::Repartition {
        partition: victim,
        split: false,
        rows: moved,
        ns: elapsed_ns(start),
    });
    Rebalance::Merged { partition: victim }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
