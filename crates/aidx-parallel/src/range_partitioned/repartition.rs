//! Skew-adaptive re-partitioning: the tuning knobs, the monitor thread,
//! the rebalance decision, and the split and merge system transactions.

use super::owner::{spawn_owner, OwnerRequest};
use super::{elapsed_ns, RoutingTable, Shared};
use aidx_core::dcheck;
use aidx_obs::{emit, TraceEvent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::channel;
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
    /// Owner-thread budget: at this many partitions a split is preceded
    /// by merging the coldest adjacent pair to free an owner.
    pub max_partitions: usize,
    /// Ignore load windows with fewer total routed ops than this — too
    /// little traffic to judge skew.
    pub min_window_ops: u64,
    /// Enable refinement work stealing by idle owners.
    pub steal: bool,
    /// Stealers only pre-crack pieces at least this many rows big.
    pub steal_min_piece: usize,
    /// How long an owner's queue must stay empty before it tries to
    /// steal.
    pub steal_poll: Duration,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            check_interval: Some(Duration::from_millis(2)),
            imbalance_threshold: 1.75,
            min_partition_rows: 1024,
            max_partitions: 32,
            min_window_ops: 64,
            steal: true,
            steal_min_piece: 4096,
            steal_poll: Duration::from_millis(1),
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
    /// A cold partition merged into its left neighbour to free an owner.
    Merged {
        /// Id of the partition that was merged away.
        partition: u32,
    },
}

/// Spins until every send routed through `old` has been enqueued. Pins
/// only cover channel sends, never reply waits, so this drains fast.
fn wait_for_pins(old: &RoutingTable) {
    while old.pins.load(Ordering::Acquire) != 0 {
        std::thread::yield_now();
    }
}

/// The monitor thread: parks on a condvar (so teardown can interrupt a
/// long interval) and runs one rebalance pass per wakeup.
pub(super) fn monitor_loop(shared: &Arc<Shared>, interval: Duration) {
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
/// (2), then router (3) inside `perform_*`.
pub(super) fn rebalance(shared: &Arc<Shared>) -> Rebalance {
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
    match decide(shared, &config) {
        None => Rebalance::Balanced,
        Some(RebalanceAction::Split(hot)) => perform_split(shared, hot),
        Some(RebalanceAction::Merge(left)) => perform_merge(shared, left),
    }
}

/// Reads (and resets) the per-partition load window and picks an action.
fn decide(shared: &Arc<Shared>, config: &AdaptiveConfig) -> Option<RebalanceAction> {
    let table = shared.pin_table();
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
    if table.partitions[hot].size.load(Ordering::Relaxed) < 2 * config.min_partition_rows {
        return None;
    }
    if n >= config.max_partitions {
        // At the owner budget: free a thread by merging the coldest
        // adjacent pair that doesn't involve the hot partition. The next
        // pass splits the (still hot) partition.
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

/// Splits partition `hot` at a crack boundary: extract the upper half
/// into a new owner, publish the new routing generation, drain the old
/// generation's pins, then retire the redirect.
fn perform_split(shared: &Arc<Shared>, hot: usize) -> Rebalance {
    let start = Instant::now();
    let table = shared.pin_table();
    if hot >= table.partitions.len() {
        return Rebalance::Balanced;
    }
    let parent = table.partitions[hot].clone();
    let lower = if hot == 0 {
        i64::MIN
    } else {
        table.splits[hot - 1]
    };
    let upper = table.splits.get(hot).copied();

    // 1. Ask the owner for a crack boundary near its middle. Splitting at
    //    an existing crack means the handoff moves whole pieces — no data
    //    movement beyond the memcpy of the upper chunk.
    let (key_tx, key_rx) = channel();
    parent
        .sender
        .send(OwnerRequest::SplitKey { reply: key_tx })
        .expect("partition owner exited early");
    let at = match key_rx.recv() {
        Ok(Some(at)) if at > lower && upper.is_none_or(|u| at < u) => at,
        _ => return Rebalance::Balanced, // nothing crackable to split at
    };

    // 2. Extract: the owner hands the upper half to a fresh index and
    //    starts redirecting. From here the transaction must complete.
    let (child_tx, child_rx) = channel();
    let child_id = shared.next_partition_id.fetch_add(1, Ordering::Relaxed);
    let (extract_tx, extract_rx) = channel();
    parent
        .sender
        .send(OwnerRequest::SplitExtract {
            at,
            child: child_tx.clone(),
            reply: extract_tx,
        })
        .expect("partition owner exited early");
    let child_index = extract_rx.recv().expect("partition owner died mid-split");
    let moved = child_index.len() as u64;

    // 3. Publish the new routing generation and wait out the old one.
    let child_size = child_index.len();
    let child = spawn_owner(
        shared,
        child_id,
        Arc::new(child_index),
        child_size,
        child_tx,
        child_rx,
    );
    let mut splits = table.splits.clone();
    let mut partitions = table.partitions.clone();
    splits.insert(hot, at);
    partitions.insert(hot + 1, child);
    let old = shared.swap_table(Arc::new(RoutingTable {
        splits,
        partitions,
        pins: AtomicU64::new(0),
    }));
    drop(table); // our own pin on the old generation
    wait_for_pins(&old);

    // 4. Every request routed by the old table is now in some queue ahead
    //    of this retire message, so the redirect has nothing left to
    //    catch.
    let (retire_tx, retire_rx) = channel();
    parent
        .sender
        .send(OwnerRequest::RetireRedirect { reply: retire_tx })
        .expect("partition owner exited early");
    retire_rx.recv().expect("partition owner died mid-retire");

    shared.splits_performed.fetch_add(1, Ordering::Relaxed);
    emit(TraceEvent::Repartition {
        partition: parent.id,
        split: true,
        rows: moved,
        ns: elapsed_ns(start),
    });
    Rebalance::Split {
        partition: parent.id,
    }
}

/// Merges partition `left + 1` into `left`: the victim hands its rows to
/// the absorber and forwards everything from then on; the old routing
/// generation keeps the victim's channel alive until its pins drain.
fn perform_merge(shared: &Arc<Shared>, left: usize) -> Rebalance {
    let start = Instant::now();
    let table = shared.pin_table();
    if left + 1 >= table.partitions.len() {
        return Rebalance::Balanced;
    }
    let absorber = table.partitions[left].clone();
    let victim = table.partitions[left + 1].clone();
    let boundary = table.splits[left];

    let (merge_tx, merge_rx) = channel();
    victim
        .sender
        .send(OwnerRequest::MergeExtract {
            into: absorber.sender.clone(),
            boundary,
            reply: merge_tx,
        })
        .expect("partition owner exited early");
    let moved = merge_rx.recv().expect("partition owner died mid-merge");

    let mut splits = table.splits.clone();
    let mut partitions = table.partitions.clone();
    splits.remove(left);
    partitions.remove(left + 1);
    let old = shared.swap_table(Arc::new(RoutingTable {
        splits,
        partitions,
        pins: AtomicU64::new(0),
    }));
    drop(table);
    wait_for_pins(&old);
    // The victim's forward-all redirect is never retired: stragglers
    // already queued keep forwarding, and once `old` (the last sender)
    // drops here its channel disconnects and the owner thread exits.
    drop(old);

    shared.merges_performed.fetch_add(1, Ordering::Relaxed);
    emit(TraceEvent::Repartition {
        partition: victim.id,
        split: false,
        rows: moved,
        ns: elapsed_ns(start),
    });
    Rebalance::Merged {
        partition: victim.id,
    }
}
