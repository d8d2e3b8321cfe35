//! Range-partitioned cracking with skew adaptivity.
//!
//! A range partition splits the column into disjoint key ranges, each a
//! [`ConcurrentCracker`] under [`LatchProtocol::Piece`] — partition
//! boundaries are cracks chosen up front, the logical end point of
//! "pieces as an adaptive latching granularity". A router maps a query's
//! `[low, high)` range to the partitions it overlaps and reads each of
//! them, clipped to its key range, **on the calling thread**; partitions
//! outside the query range are never touched. The parallelism comes from
//! the concurrent queries themselves, kept apart by the partitions' piece
//! latches, as in the paper.
//!
//! Every operation — read, write, structure probe, invariant check —
//! holds the routing table's read lock for its whole length. That lock
//! is what makes re-partitioning simple: the **adaptive** mode (see
//! [`RangePartitionedCracker::adaptive`]) splits a hot partition at a
//! crack boundary near its middle, or merges the coldest adjacent pair
//! at [`AdaptiveConfig::max_partitions`], as a stop-the-world system
//! transaction under the **write** lock, so the rows move between
//! partitions that no operation is using, and the new routing table is
//! published before any operation can observe either partition again.
//!
//! Every write-path capability (pending delta, quiescing *and*
//! incremental compaction, epoch-stamped snapshot reads) threads through
//! unchanged. A pin ([`Index::pin`]) registers one epoch per partition;
//! snapshots and re-partitioning exclude each other through a snapshot
//! gate (a repartition aborts while any snapshot is live, so pinned epoch
//! reads never see rows move between partitions).

use aidx_core::{
    dcheck,
    facade::{Condvar, Mutex, RwLock, RwLockReadGuard},
    ColumnRead, CompactionPolicy, ConcurrentCracker, Index, LatchProtocol, QueryMetrics,
    ReadAnswer, ReadShape, RowIdSet, WriteOp,
};
use aidx_cracking::RowId;
use aidx_obs::StructureProbe;
use repartition::{monitor_loop, rebalance};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

mod repartition;
#[cfg(test)]
mod tests;

pub use repartition::{AdaptiveConfig, Rebalance};

/// One partition: its index plus the routed-load counter that survives
/// routing-table swaps.
#[derive(Clone)]
struct Partition {
    /// Stable id (survives table swaps; new ids for split children).
    id: u32,
    index: Arc<ConcurrentCracker>,
    /// Clipped reads and writes routed here (the load window input).
    ops: Arc<AtomicU64>,
}

impl Partition {
    fn new(id: u32, index: ConcurrentCracker) -> Self {
        Partition {
            id,
            index: Arc::new(index),
            ops: Arc::new(AtomicU64::new(0)),
        }
    }
}

/// An immutable routing generation, replaced whole by a repartition.
#[derive(Clone)]
struct RoutingTable {
    /// `splits[i]` is the inclusive lower key bound of partition `i + 1`;
    /// partition `0` starts at `i64::MIN`. Sorted ascending.
    splits: Vec<i64>,
    partitions: Vec<Partition>,
}

impl RoutingTable {
    /// Clips `[low, high)` to partition `p`'s key range.
    fn clip(&self, p: usize, low: i64, high: i64) -> (i64, i64) {
        let lo = if p == 0 {
            low
        } else {
            low.max(self.splits[p - 1])
        };
        let hi = if p + 1 == self.partitions.len() {
            high
        } else {
            high.min(self.splits[p])
        };
        (lo, hi)
    }

    /// The partition owning key `key`, charged one routed op.
    fn route(&self, key: i64) -> &ConcurrentCracker {
        let part = &self.partitions[partition_of(&self.splits, key)];
        part.ops.fetch_add(1, Ordering::Relaxed);
        &part.index
    }

    /// One `shape` read over `[low, high)`: each overlapping partition
    /// reads its clipped range (at `epochs[p]`, if given) on the calling
    /// thread, and the parts merge with [`ReadAnswer::merge`].
    fn read(
        &self,
        low: i64,
        high: i64,
        shape: ReadShape,
        epochs: Option<&[u64]>,
    ) -> (ReadAnswer, QueryMetrics) {
        let overlapping = if low < high {
            partition_of(&self.splits, low)..partition_of(&self.splits, high - 1) + 1
        } else {
            0..0
        };
        ReadAnswer::merge(
            shape,
            overlapping.map(|p| {
                let (lo, hi) = self.clip(p, low, high);
                let part = &self.partitions[p];
                part.ops.fetch_add(1, Ordering::Relaxed);
                part.index.read(lo, hi, epochs.map(|e| e[p]), shape)
            }),
        )
    }
}

/// The routing table held shared for one whole operation.
type TableGuard<'a> = dcheck::Tracked<RwLockReadGuard<'a, Arc<RoutingTable>>>;

/// State shared by the router facade and the monitor thread.
struct Shared {
    /// The current routing generation. Operations hold it shared for
    /// their whole length; a repartition takes it exclusive (dcheck
    /// [`dcheck::Level::Router`]).
    table: RwLock<Arc<RoutingTable>>,
    /// `Some` in adaptive mode.
    config: Option<AdaptiveConfig>,
    /// At most one split/merge system transaction in flight
    /// (dcheck [`dcheck::Level::Repartition`]).
    repartition: Mutex<()>,
    /// Snapshot opens take this shared; a repartition takes it exclusive
    /// and aborts while `live_snapshots > 0`
    /// (dcheck [`dcheck::Level::SnapshotGate`]).
    snapshot_gate: RwLock<()>,
    live_snapshots: AtomicU64,
    next_partition_id: AtomicU32,
    splits_performed: AtomicU64,
    merges_performed: AtomicU64,
    shutdown: AtomicBool,
    monitor_park: Mutex<()>,
    monitor_cv: Condvar,
    /// Per-partition-id op counts at the last rebalance window.
    last_ops: Mutex<HashMap<u32, u64>>,
    repartition_instance: usize,
    snapshot_gate_instance: usize,
    router_instance: usize,
}

impl Shared {
    /// Takes the routing table shared. An operation holds the guard
    /// until it returns, so a repartition (which takes it exclusive)
    /// never moves rows under it.
    fn table(&self) -> TableGuard<'_> {
        dcheck::Tracked::new(
            dcheck::Level::Router,
            self.router_instance,
            "router-table",
            self.table.read(),
        )
    }

    /// The current routing generation, lock released — for diagnostics
    /// and paths fenced some other way (the snapshot gate).
    fn current_table(&self) -> Arc<RoutingTable> {
        Arc::clone(&self.table())
    }
}

/// Applies a write's [`WriteOp::len_delta`] to a logical-size ledger.
fn adjust_len(ledger: &AtomicUsize, delta: isize) {
    if delta >= 0 {
        ledger.fetch_add(delta.unsigned_abs(), Ordering::Relaxed);
    } else {
        ledger.fetch_sub(delta.unsigned_abs(), Ordering::Relaxed);
    }
}

/// A column range-partitioned into piece-latched crackers, optionally
/// skew-adaptive (online re-partitioning).
pub struct RangePartitionedCracker {
    shared: Arc<Shared>,
    /// Logical row count (kept current by writes).
    len: AtomicUsize,
    /// Next self-assigned row id: partitions share one id space (rowids
    /// are tuple identity across the whole column), so the router — not
    /// the partition — assigns ids for plain inserts.
    next_rowid: AtomicU64,
    monitor: Option<JoinHandle<()>>,
}

impl RangePartitionedCracker {
    /// The per-partition compaction policy used when the caller does not
    /// pick one: delta bounded at 10% of the partition's main array,
    /// merged incrementally. An unbounded default delta would silently
    /// re-introduce the linear select degradation bounded compaction
    /// removed, so the default keeps the delta bounded.
    fn default_partition_policy() -> CompactionPolicy {
        CompactionPolicy::fraction(0.1).incremental(8)
    }

    /// Range-partitions `values` into `partitions` (clamped to
    /// `1..=len.max(1)`) piece-latched crackers. Each partition's delta is
    /// bounded by the default incremental policy; use
    /// [`RangePartitionedCracker::with_compaction`] to tune or disable it.
    pub fn new(values: Vec<i64>, partitions: usize) -> Self {
        Self::with_compaction(values, partitions, Self::default_partition_policy())
    }

    /// As [`RangePartitionedCracker::new`] with an explicit per-partition
    /// compaction policy — including [`aidx_core::CompactionMode`]
    /// `Incremental`, which merges each partition's delta one piece write
    /// latch at a time instead of quiescing the partition. Each partition
    /// compacts only itself, on the thread whose write tripped its
    /// threshold.
    pub fn with_compaction(
        values: Vec<i64>,
        partitions: usize,
        compaction: CompactionPolicy,
    ) -> Self {
        let rowids: Vec<RowId> = (0..values.len() as RowId).collect();
        Self::from_rows(values, rowids, partitions, compaction)
    }

    /// As [`RangePartitionedCracker::with_compaction`] with explicit,
    /// aligned row ids — the table-engine path, where one tuple's id is
    /// shared by every indexed column's cracker.
    ///
    /// # Panics
    /// Panics if the vectors differ in length.
    pub fn from_rows(
        values: Vec<i64>,
        rowids: Vec<RowId>,
        partitions: usize,
        compaction: CompactionPolicy,
    ) -> Self {
        Self::build(values, rowids, partitions, compaction, None)
    }

    /// Skew-adaptive mode: partitions split and merge according to
    /// `config`, and every partition uses the default bounded compaction
    /// policy.
    pub fn adaptive(values: Vec<i64>, partitions: usize, config: AdaptiveConfig) -> Self {
        let rowids: Vec<RowId> = (0..values.len() as RowId).collect();
        Self::build(
            values,
            rowids,
            partitions,
            Self::default_partition_policy(),
            Some(config),
        )
    }

    fn build(
        values: Vec<i64>,
        rowids: Vec<RowId>,
        partitions: usize,
        compaction: CompactionPolicy,
        config: Option<AdaptiveConfig>,
    ) -> Self {
        assert_eq!(values.len(), rowids.len(), "misaligned rowid column");
        let len = values.len();
        let next_rowid = rowids.iter().max().map(|&r| r as u64 + 1).unwrap_or(0);
        // Heavily duplicated data collapses quantiles, so `choose_splits`
        // may return fewer boundaries than requested; the partition count
        // follows the split vector.
        let splits = choose_splits(&values, partitions.clamp(1, len.max(1)));
        let parts: Vec<Partition> = scatter(values, rowids, &splits)
            .into_iter()
            .enumerate()
            .map(|(p, (values, rowids))| {
                let index = ConcurrentCracker::from_rows(values, rowids, LatchProtocol::Piece)
                    .with_compaction(compaction);
                Partition::new(p as u32, index)
            })
            .collect();

        let shared = Arc::new(Shared {
            next_partition_id: AtomicU32::new(parts.len() as u32),
            table: RwLock::new(Arc::new(RoutingTable {
                splits,
                partitions: parts,
            })),
            config,
            repartition: Mutex::new(()),
            snapshot_gate: RwLock::new(()),
            live_snapshots: AtomicU64::new(0),
            splits_performed: AtomicU64::new(0),
            merges_performed: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            monitor_park: Mutex::new(()),
            monitor_cv: Condvar::new(),
            last_ops: Mutex::new(HashMap::new()),
            repartition_instance: dcheck::instance_id(),
            snapshot_gate_instance: dcheck::instance_id(),
            router_instance: dcheck::instance_id(),
        });

        let monitor = config.and_then(|c| c.check_interval).map(|interval| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("aidx-rebalance".into())
                .spawn(move || monitor_loop(&shared, interval))
                .expect("failed to spawn rebalance monitor")
        });

        RangePartitionedCracker {
            shared,
            len: AtomicUsize::new(len),
            next_rowid: AtomicU64::new(next_rowid),
            monitor,
        }
    }

    /// Number of indexed entries (kept current across inserts/deletes).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.shared.current_table().partitions.len()
    }

    /// Live rows per partition (diagnostic: balance check; exact in
    /// quiescence, like [`ConcurrentCracker::logical_len`]).
    pub fn partition_sizes(&self) -> Vec<usize> {
        self.shared
            .current_table()
            .partitions
            .iter()
            .map(|p| p.index.logical_len() as usize)
            .collect()
    }

    /// The split keys between partitions (diagnostic). Owned because the
    /// boundaries can change under adaptive re-partitioning.
    pub fn splits(&self) -> Vec<i64> {
        self.shared.current_table().splits.clone()
    }

    /// Cumulative routed operations per live partition, in partition
    /// order, keyed by the partition's stable id (split children start at
    /// zero; a merge's absorber keeps its count) — the routed load skew
    /// adaptive re-partitioning reacts to. Two probes bracketing a query
    /// window give that window's per-partition load by id-matched
    /// subtraction — the balance measure that is meaningful *after*
    /// re-partitioning, where the all-time counters still carry pre-split
    /// history.
    pub fn partition_loads(&self) -> Vec<(u32, u64)> {
        self.shared
            .current_table()
            .partitions
            .iter()
            .map(|p| (p.id, p.ops.load(Ordering::Relaxed)))
            .collect()
    }

    /// True if built through [`RangePartitionedCracker::adaptive`].
    pub fn is_adaptive(&self) -> bool {
        self.shared.config.is_some()
    }

    /// Hot-partition splits performed by re-partitioning.
    pub fn splits_performed(&self) -> u64 {
        self.shared.splits_performed.load(Ordering::Relaxed)
    }

    /// Cold-pair merges performed by re-partitioning.
    pub fn merges_performed(&self) -> u64 {
        self.shared.merges_performed.load(Ordering::Relaxed)
    }

    /// Runs one rebalance pass right now (the monitor thread does the
    /// same on its interval): reads the per-partition load window and
    /// splits the hot partition / merges the coldest pair if the skew
    /// warrants it. Callable with or without a monitor — passes are
    /// serialised by the repartition latch.
    pub fn try_rebalance(&self) -> Rebalance {
        rebalance(&self.shared)
    }

    /// [`ColumnRead::select_rowid_set`], inherent so that callers without
    /// the trait in scope reach it: each overlapping partition scatters
    /// its pieces' row ids into its own compact [`RowIdSet`], and the
    /// router unites the per-partition sets (partitions are key-disjoint,
    /// hence rowid-disjoint) with [`RowIdSet::merge_sets`] — a word-OR of
    /// dense parts, no decode to flat vectors. A
    /// [`ReadShape::Candidates`] read unites the partitions' planner-form
    /// sets the same way, and the union stays uncompacted.
    pub fn select_rowid_set(&self, low: i64, high: i64) -> (RowIdSet, QueryMetrics) {
        let (answer, metrics) = ColumnRead::read(self, low, high, ReadShape::RowIdSet);
        (answer.into_set(), metrics)
    }

    /// Opens a snapshot across every partition: one epoch per partition,
    /// registered in partition order directly on the partition's index
    /// (a registration takes only its delta mutex). Because every write
    /// touches exactly one partition, the per-partition epochs form a
    /// consistent cut for the opening client on their own; they are an
    /// externally consistent cut when the caller also excludes writers
    /// while opening, as a table engine does under its writer mutex.
    /// Reads through the handle are frozen there while writers and
    /// per-partition compactions race on. Re-partitioning aborts while
    /// the snapshot is live, so the routing generation captured here
    /// stays current.
    pub(crate) fn snapshot(&self) -> RangeSnapshot<'_> {
        let shared = &self.shared;
        let table = {
            let _gate = dcheck::Tracked::new(
                dcheck::Level::SnapshotGate,
                shared.snapshot_gate_instance,
                "snapshot-gate",
                shared.snapshot_gate.read(),
            );
            // Registered under the gate: a repartition holds it exclusive
            // and re-checks this count, so rows can't move while any
            // epoch below is pinned.
            shared.live_snapshots.fetch_add(1, Ordering::SeqCst);
            shared.current_table()
        };
        let epochs = table
            .partitions
            .iter()
            .map(|part| part.index.register_snapshot_epoch())
            .collect();
        RangeSnapshot {
            idx: self,
            table,
            epochs,
        }
    }

    /// Sums `(delta rows, compactions + incremental steps)` across all
    /// partitions.
    pub fn delta_stats(&self) -> (u64, u64) {
        let table = self.shared.table();
        table
            .partitions
            .iter()
            .fold((0, 0), |(pending, merges), p| {
                (
                    pending + p.index.delta_rows(),
                    merges + p.index.compactions_performed() + p.index.compaction_steps_performed(),
                )
            })
    }
}

impl ColumnRead for RangePartitionedCracker {
    /// One `shape` read over `[low, high)`, run on the calling thread
    /// against the partitions the range overlaps (clipped per partition)
    /// — partitions outside it are never touched — and merged
    /// ([`ReadAnswer::merge`]).
    fn read(&self, low: i64, high: i64, shape: ReadShape) -> (ReadAnswer, QueryMetrics) {
        let start = Instant::now();
        let (answer, mut metrics) = self.shared.table().read(low, high, shape, None);
        metrics.total = start.elapsed();
        (answer, metrics)
    }
}

impl Index for RangePartitionedCracker {
    fn pin(&self) -> Box<dyn ColumnRead + '_> {
        Box::new(self.snapshot())
    }

    /// The one write path: applied to the partition owning the op's key
    /// (rows with a key live only there). Returns `(rows affected,
    /// metrics)`.
    fn write(&self, op: WriteOp) -> (u64, QueryMetrics) {
        let start = Instant::now();
        if let WriteOp::Insert { rowid, .. } = op {
            self.next_rowid
                .fetch_max(rowid as u64 + 1, Ordering::Relaxed);
        }
        let (rows, mut metrics) = self.shared.table().route(op.key()).write(op);
        adjust_len(&self.len, op.len_delta(rows));
        metrics.total = start.elapsed();
        (rows, metrics)
    }

    /// Inserts one row with the given key, self-assigning a fresh row id.
    fn insert(&self, value: i64) -> QueryMetrics {
        let rowid = aidx_cracking::rowid(self.next_rowid.fetch_add(1, Ordering::Relaxed));
        self.insert_row(value, rowid)
    }

    /// One merged structure probe across every partition: piece layout
    /// and delta pressure summed over the partitions, plus the
    /// per-partition routed load. Consistent per partition, not across
    /// partitions — it is a diagnostic, not a snapshot.
    fn structure_probe(&self) -> StructureProbe {
        let table = self.shared.table();
        let mut probe = StructureProbe::default();
        for part in &table.partitions {
            probe.merge(&part.index.structure_probe());
        }
        probe.partition_load = table
            .partitions
            .iter()
            .map(|p| p.ops.load(Ordering::Relaxed))
            .collect();
        probe
    }

    /// Verifies every partition's piece/array consistency.
    fn check_invariants(&self) -> bool {
        let table = self.shared.table();
        table.partitions.iter().all(|p| p.index.check_invariants())
    }
}

impl Drop for RangePartitionedCracker {
    fn drop(&mut self) {
        let shared = &self.shared;
        shared.shutdown.store(true, Ordering::Release);
        {
            let _parked = shared.monitor_park.lock();
            shared.monitor_cv.notify_all();
        }
        if let Some(monitor) = self.monitor.take() {
            let _ = monitor.join();
        }
    }
}

impl fmt::Debug for RangePartitionedCracker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let table = self.shared.current_table();
        f.debug_struct("RangePartitionedCracker")
            .field("len", &self.len())
            .field("partitions", &table.partitions.len())
            .field("splits", &table.splits)
            .field("adaptive", &self.is_adaptive())
            .finish()
    }
}

/// A snapshot pinned across every partition of a
/// [`RangePartitionedCracker`]: reads route like ordinary queries but each
/// partition answers at the epoch registered when the snapshot was
/// opened. The handle captures the routing generation it was opened
/// against and reads it without the router lock — valid for its whole
/// lifetime because re-partitioning aborts while any snapshot is live.
/// Dropping the handle releases every partition's registration.
pub(crate) struct RangeSnapshot<'a> {
    idx: &'a RangePartitionedCracker,
    table: Arc<RoutingTable>,
    epochs: Vec<u64>,
}

impl fmt::Debug for RangeSnapshot<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RangeSnapshot")
            .field("epochs", &self.epochs)
            .finish()
    }
}

impl ColumnRead for RangeSnapshot<'_> {
    /// A routed read with every partition answering at its pinned epoch,
    /// routed through the captured generation.
    fn read(&self, low: i64, high: i64, shape: ReadShape) -> (ReadAnswer, QueryMetrics) {
        let start = Instant::now();
        let (answer, mut metrics) = self.table.read(low, high, shape, Some(&self.epochs));
        metrics.total = start.elapsed();
        (answer, metrics)
    }
}

impl Drop for RangeSnapshot<'_> {
    fn drop(&mut self) {
        for (part, &epoch) in self.table.partitions.iter().zip(&self.epochs) {
            part.index.release_snapshot_epoch(epoch);
        }
        self.idx
            .shared
            .live_snapshots
            .fetch_sub(1, Ordering::SeqCst);
    }
}

/// Index of the partition owning key `v`: the number of splits `<= v`.
fn partition_of(splits: &[i64], v: i64) -> usize {
    splits.partition_point(|&s| s <= v)
}

/// Range-partitions aligned rows by `splits` in two sequential passes:
/// the first counts each partition's rows, the second pushes values and
/// row ids into separate vectors reserved to those counts.
fn scatter(values: Vec<i64>, rowids: Vec<RowId>, splits: &[i64]) -> Vec<(Vec<i64>, Vec<RowId>)> {
    if splits.is_empty() {
        return vec![(values, rowids)];
    }
    let mut counts = vec![0usize; splits.len() + 1];
    for &v in &values {
        counts[partition_of(splits, v)] += 1;
    }
    let mut parts: Vec<(Vec<i64>, Vec<RowId>)> = counts
        .into_iter()
        .map(|n| (Vec::with_capacity(n), Vec::with_capacity(n)))
        .collect();
    for (v, rid) in values.into_iter().zip(rowids) {
        let (part_values, part_rowids) = &mut parts[partition_of(splits, v)];
        part_values.push(v);
        part_rowids.push(rid);
    }
    parts
}

/// Picks `partitions - 1` split keys from a deterministic sample so the
/// partitions are balanced even under skew. Returned keys are strictly
/// increasing (duplicate quantiles are dropped, which merely merges
/// neighbouring partitions for heavily duplicated data).
fn choose_splits(values: &[i64], partitions: usize) -> Vec<i64> {
    if partitions <= 1 || values.is_empty() {
        return Vec::new();
    }
    const MAX_SAMPLE: usize = 4096;
    let step = values.len().div_ceil(MAX_SAMPLE).max(1);
    let mut sample: Vec<i64> = values.iter().step_by(step).copied().collect();
    sample.sort_unstable();
    let mut splits = Vec::with_capacity(partitions - 1);
    for p in 1..partitions {
        let q = sample[(p * sample.len() / partitions).min(sample.len() - 1)];
        if splits.last() != Some(&q) {
            splits.push(q);
        }
    }
    splits
}
