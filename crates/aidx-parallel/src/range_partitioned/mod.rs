//! Range-partitioned cracking over a fixed routing table.
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
//! The routing table (split keys plus partitions) is fixed when the index
//! is built, so an operation reads it with no lock: rows never move
//! between partitions, and the only latches are each partition's own.
//!
//! Every write-path capability (pending delta, quiescing *and*
//! incremental compaction, epoch-stamped snapshot reads) threads through
//! unchanged. A pin ([`Index::pin`]) registers one epoch per partition
//! and borrows the routing table for its lifetime.

use aidx_core::{
    ColumnRead, CompactionPolicy, ConcurrentCracker, Index, LatchProtocol, QueryMetrics,
    ReadAnswer, ReadShape, RowIdSet, WriteOp,
};
use aidx_cracking::RowId;
use aidx_obs::StructureProbe;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

#[cfg(test)]
mod tests;

/// One partition: its index plus the routed-load counter that feeds
/// [`StructureProbe::partition_load`].
struct Partition {
    index: ConcurrentCracker,
    /// Clipped reads and writes routed here.
    ops: AtomicU64,
}

/// The routing table, fixed at build time.
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
    /// thread, and the parts merge with [`ReadAnswer::merge`]: every
    /// partition of a [`ReadShape::Within`] read tests the same filter,
    /// and the parts' sets OR together.
    fn read(
        &self,
        low: i64,
        high: i64,
        shape: ReadShape<'_>,
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

/// A column range-partitioned into piece-latched crackers.
pub struct RangePartitionedCracker {
    table: RoutingTable,
    /// Next self-assigned row id: partitions share one id space (rowids
    /// are tuple identity across the whole column), so the router — not
    /// the partition — assigns ids for plain inserts.
    next_rowid: AtomicU64,
}

impl RangePartitionedCracker {
    /// Range-partitions `values` into `partitions` (clamped to
    /// `1..=len.max(1)`) piece-latched crackers. Each partition's delta is
    /// bounded at 10% of its main array and merged incrementally — an
    /// unbounded default delta would silently re-introduce the linear
    /// select degradation bounded compaction removed; use
    /// [`RangePartitionedCracker::with_compaction`] to tune or disable it.
    pub fn new(values: Vec<i64>, partitions: usize) -> Self {
        let policy = CompactionPolicy::fraction(0.1).incremental(8);
        Self::with_compaction(values, partitions, policy)
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
        assert_eq!(values.len(), rowids.len(), "misaligned rowid column");
        let len = values.len();
        let next_rowid = rowids.iter().max().map(|&r| r as u64 + 1).unwrap_or(0);
        // Heavily duplicated data collapses quantiles, so `choose_splits`
        // may return fewer boundaries than requested; the partition count
        // follows the split vector.
        let splits = choose_splits(&values, partitions.clamp(1, len.max(1)));
        let partitions = scatter(values, rowids, &splits)
            .into_iter()
            .map(|(values, rowids)| Partition {
                index: ConcurrentCracker::from_rows(values, rowids, LatchProtocol::Piece)
                    .with_compaction(compaction),
                ops: AtomicU64::new(0),
            })
            .collect();
        RangePartitionedCracker {
            table: RoutingTable { splits, partitions },
            next_rowid: AtomicU64::new(next_rowid),
        }
    }

    /// Number of indexed entries: the partitions' logical row counts
    /// summed (exact in quiescence, like
    /// [`ConcurrentCracker::logical_len`]).
    pub fn len(&self) -> usize {
        self.partition_sizes().into_iter().sum()
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.table.partitions.len()
    }

    /// Live rows per partition (diagnostic: balance check; exact in
    /// quiescence, like [`ConcurrentCracker::logical_len`]).
    pub fn partition_sizes(&self) -> Vec<usize> {
        self.table
            .partitions
            .iter()
            .map(|p| p.index.logical_len() as usize)
            .collect()
    }

    /// The split keys between partitions (diagnostic).
    pub fn splits(&self) -> &[i64] {
        &self.table.splits
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
    /// per-partition compactions race on.
    pub(crate) fn snapshot(&self) -> RangeSnapshot<'_> {
        let epochs = self
            .table
            .partitions
            .iter()
            .map(|part| part.index.register_snapshot_epoch())
            .collect();
        RangeSnapshot {
            table: &self.table,
            epochs,
        }
    }

    /// Sums `(delta rows, compactions + incremental steps)` across all
    /// partitions.
    pub fn delta_stats(&self) -> (u64, u64) {
        self.table
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
    fn read(&self, low: i64, high: i64, shape: ReadShape<'_>) -> (ReadAnswer, QueryMetrics) {
        let start = Instant::now();
        let (answer, mut metrics) = self.table.read(low, high, shape, None);
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
        let (rows, mut metrics) = self.table.route(op.key()).write(op);
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
        let mut probe = StructureProbe::default();
        for part in &self.table.partitions {
            probe.merge(&part.index.structure_probe());
        }
        probe.partition_load = self
            .table
            .partitions
            .iter()
            .map(|p| p.ops.load(Ordering::Relaxed))
            .collect();
        probe
    }

    /// Verifies every partition's piece/array consistency.
    fn check_invariants(&self) -> bool {
        self.table
            .partitions
            .iter()
            .all(|p| p.index.check_invariants())
    }
}

impl fmt::Debug for RangePartitionedCracker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RangePartitionedCracker")
            .field("len", &self.len())
            .field("partitions", &self.table.partitions.len())
            .field("splits", &self.table.splits)
            .finish()
    }
}

/// A snapshot pinned across every partition of a
/// [`RangePartitionedCracker`]: reads route like ordinary queries but each
/// partition answers at the epoch registered when the snapshot was
/// opened. Dropping the handle releases every partition's registration.
pub(crate) struct RangeSnapshot<'a> {
    table: &'a RoutingTable,
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
    /// A routed read with every partition answering at its pinned epoch.
    fn read(&self, low: i64, high: i64, shape: ReadShape<'_>) -> (ReadAnswer, QueryMetrics) {
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
