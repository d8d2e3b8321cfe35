//! Range-partitioned parallel cracking with skew adaptivity.
//!
//! A parallel range partition splits the column into disjoint key ranges;
//! each range is owned by a dedicated worker thread that cracks a private
//! index — partition boundaries are cracks chosen up front, the logical
//! end point of "pieces as an adaptive latching granularity". A router
//! maps a query's `[low, high)` range to the partitions it overlaps,
//! sends each owner a request over its channel, and sums the partial
//! answers; partitions outside the query range are never touched.
//!
//! Static partitioning is only as good as its initial sample: a workload
//! that concentrates on one key range serialises on one owner while the
//! others idle. The **adaptive** mode (see
//! [`RangePartitionedCracker::adaptive`]) fixes that two ways:
//!
//! * **Online re-partitioning.** A monitor watches the per-partition
//!   routed-op windows. When one partition's load exceeds
//!   [`AdaptiveConfig::imbalance_threshold`] × the mean, the hot
//!   partition is split at a crack boundary near its middle — an
//!   epoch-fenced *system transaction*: the owner hands the upper pieces
//!   (array chunk, cracks, delta already reconciled) to a new owner and
//!   installs a redirect for requests routed by the old generation, the
//!   router publishes a new RCU routing table, and once every in-flight
//!   send through the old table has drained the redirect is retired.
//!   Queries never block and never observe a dropped or doubled range.
//!   At [`AdaptiveConfig::max_partitions`] the coldest adjacent pair is
//!   merged first to free an owner.
//! * **Refinement work stealing.** Idle owners (empty queue past a poll
//!   timeout) pick the largest partition and pre-crack its biggest
//!   uncracked piece. The side work is idempotent index refinement —
//!   installed under the victim's piece latches ([`LatchProtocol::Piece`]
//!   in adaptive mode), so a racing owner query simply finds smaller
//!   pieces.
//!
//! In static mode each owner runs a [`ConcurrentCracker`] under
//! [`LatchProtocol::None`] — exclusive ownership replaces latching
//! entirely. Every write-path capability (pending delta, quiescing *and*
//! incremental compaction, epoch-stamped snapshot reads) threads through
//! unchanged in both modes. A pin ([`Index::pin`]) registers one epoch per
//! partition; snapshots and re-partitioning exclude each other through a
//! snapshot gate (a repartition aborts while any snapshot is live, so
//! pinned epoch reads never see rows move between partitions).
//!
//! Owners drain their request channel in **batches**: one blocking
//! receive wakes the owner, which then processes every request already
//! queued before blocking again. Under heavy client counts this coalesces
//! many in-flight operations per channel round-trip;
//! [`RangePartitionedCracker::routing_stats`] exposes the ops/batches
//! ratio so the coalescing is observable.

use aidx_core::{
    dcheck,
    facade::{Condvar, Mutex, RwLock},
    ColumnRead, CompactionPolicy, ConcurrentCracker, Index, LatchProtocol, QueryMetrics,
    ReadAnswer, ReadShape, RowIdSet, WriteOp,
};
use aidx_obs::StructureProbe;
use aidx_storage::RowId;
use owner::{spawn_owner, OwnerRequest};
use repartition::{monitor_loop, rebalance};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

mod owner;
mod repartition;
#[cfg(test)]
mod tests;

pub use repartition::{AdaptiveConfig, Rebalance};

/// Shared per-column routing counters (owners write, the router reads).
#[derive(Debug)]
struct RoutingCounters {
    /// Requests processed across all owners.
    ops: AtomicU64,
    /// Blocking-receive wakeups across all owners (each wakeup drains
    /// every request already queued).
    batches: AtomicU64,
}

impl RoutingCounters {
    fn new() -> Self {
        RoutingCounters {
            ops: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        }
    }
}

/// Snapshot of the owner channels' coalescing behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutingStats {
    /// Requests processed across all partition owners.
    pub ops: u64,
    /// Owner wakeups (batches) across all partition owners. `ops >
    /// batches` means at least one wakeup drained several queued requests
    /// in one round-trip.
    pub batches: u64,
}

impl RoutingStats {
    /// Mean requests handled per owner wakeup.
    pub fn ops_per_batch(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.ops as f64 / self.batches as f64
    }
}

/// One partition: routing metadata shared between the routing table and
/// the owner thread. The `ops`/`size` ledgers are `Arc`s so they survive
/// routing-table swaps.
#[derive(Clone)]
struct Partition {
    /// Stable id (survives table swaps; new ids for split children).
    id: u32,
    sender: Sender<OwnerRequest>,
    /// The owner's index — shared so stealers can refine it under its
    /// piece latches.
    index: Arc<ConcurrentCracker>,
    /// Requests this partition handled locally (the load window input).
    ops: Arc<AtomicU64>,
    /// Live rows, maintained by the owner where writes apply — correct
    /// across redirect windows, unlike router-side bookkeeping.
    size: Arc<AtomicUsize>,
}

/// An immutable routing generation (RCU-style): clients pin it for the
/// duration of their channel sends, the repartition controller swaps it
/// and waits for the old generation's pins to drain.
struct RoutingTable {
    /// `splits[i]` is the inclusive lower key bound of partition `i + 1`;
    /// partition `0` starts at `i64::MIN`. Sorted ascending.
    splits: Vec<i64>,
    partitions: Vec<Partition>,
    /// In-flight sends routed through this generation.
    pins: AtomicU64,
}

impl RoutingTable {
    fn empty() -> Self {
        RoutingTable {
            splits: Vec::new(),
            partitions: Vec::new(),
            pins: AtomicU64::new(0),
        }
    }

    /// Clips `[low, high)` to partition `p`'s key range. Routing clipped
    /// requests makes redirect handling compositional: a request never
    /// spans a boundary the receiving owner doesn't know about, so a
    /// split redirect can never double-count rows.
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
}

/// A pinned routing generation; the pin is released on drop.
struct TablePin(Arc<RoutingTable>);

impl std::ops::Deref for TablePin {
    type Target = RoutingTable;
    fn deref(&self) -> &RoutingTable {
        &self.0
    }
}

impl Drop for TablePin {
    fn drop(&mut self) {
        self.0.pins.fetch_sub(1, Ordering::Release);
    }
}

/// State shared by the router facade, the owner threads, and the monitor.
struct Shared {
    /// The current routing generation, swapped RCU-style by the
    /// repartition controller (dcheck [`dcheck::Level::Router`]).
    table: RwLock<Arc<RoutingTable>>,
    counters: Arc<RoutingCounters>,
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
    steals: AtomicU64,
    /// Set while `check_invariants` runs: stealers must stand down so the
    /// per-partition consistency walk doesn't race a refinement crack.
    steal_pause: AtomicBool,
    steals_in_flight: AtomicU64,
    shutdown: AtomicBool,
    monitor_park: Mutex<()>,
    monitor_cv: Condvar,
    /// Per-partition-id op counts at the last rebalance window.
    last_ops: Mutex<HashMap<u32, u64>>,
    /// Every owner thread ever spawned (split children included); joined
    /// at teardown. Merged-away owners exit early, so their joins are
    /// instant.
    handles: Mutex<Vec<JoinHandle<()>>>,
    repartition_instance: usize,
    snapshot_gate_instance: usize,
    router_instance: usize,
}

impl Shared {
    /// Pins the current routing generation. The pin is taken under the
    /// router read lock, so a controller that swaps the table (under the
    /// write lock) observes every pin taken against the old generation
    /// when it starts waiting for them to drain.
    fn pin_table(&self) -> TablePin {
        let guard = dcheck::Tracked::new(
            dcheck::Level::Router,
            self.router_instance,
            "router-table",
            self.table.read(),
        );
        let table = Arc::clone(&guard);
        table.pins.fetch_add(1, Ordering::Relaxed);
        TablePin(table)
    }

    /// The current routing generation without a pin — for diagnostics and
    /// paths fenced some other way (the snapshot gate).
    fn current_table(&self) -> Arc<RoutingTable> {
        let guard = dcheck::Tracked::new(
            dcheck::Level::Router,
            self.router_instance,
            "router-table",
            self.table.read(),
        );
        Arc::clone(&guard)
    }

    /// Publishes a new routing generation and returns the old one.
    fn swap_table(&self, new: Arc<RoutingTable>) -> Arc<RoutingTable> {
        let mut guard = dcheck::Tracked::new(
            dcheck::Level::Router,
            self.router_instance,
            "router-table",
            self.table.write(),
        );
        std::mem::replace(&mut *guard, new)
    }

    fn steal_params(&self) -> Option<(Duration, usize)> {
        let config = self.config?;
        config
            .steal
            .then_some((config.steal_poll, config.steal_min_piece))
    }

    /// Runs `probe` against every partition's index, each on its owner
    /// thread, and returns the answers in partition order. The table pin
    /// covers only the sends, like any routed request.
    fn ask_all<T: Send + 'static>(
        &self,
        probe: impl Fn(&ConcurrentCracker) -> T + Clone + Send + 'static,
    ) -> Vec<T> {
        let pending: Vec<Receiver<T>> = {
            let table = self.pin_table();
            table
                .partitions
                .iter()
                .map(|part| post(part, probe.clone()))
                .collect()
        };
        pending
            .into_iter()
            .map(|reply| reply.recv().expect("partition owner died"))
            .collect()
    }
}

/// Sends `probe` to `part`'s owner as an [`OwnerRequest::Inspect`] and
/// returns the channel its answer arrives on.
fn post<T: Send + 'static>(
    part: &Partition,
    probe: impl FnOnce(&ConcurrentCracker) -> T + Send + 'static,
) -> Receiver<T> {
    let (reply_tx, reply_rx) = channel();
    part.sender
        .send(OwnerRequest::Inspect(Box::new(move |index| {
            let _ = reply_tx.send(probe(index));
        })))
        .expect("partition owner exited early");
    reply_rx
}

/// Applies a write's [`WriteOp::len_delta`] to a logical-size ledger.
fn adjust_len(ledger: &AtomicUsize, delta: isize) {
    if delta >= 0 {
        ledger.fetch_add(delta.unsigned_abs(), Ordering::Relaxed);
    } else {
        ledger.fetch_sub(delta.unsigned_abs(), Ordering::Relaxed);
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A column range-partitioned across owner threads, optionally
/// skew-adaptive (online re-partitioning + refinement work stealing).
pub struct RangePartitionedCracker {
    shared: Arc<Shared>,
    /// Logical row count (kept current by writes, router-side: replies
    /// arrive exactly once per write whatever the routing generation).
    len: AtomicUsize,
    /// Next self-assigned row id: partitions share one id space (rowids
    /// are tuple identity across the whole column), so the router — not
    /// the owner — assigns ids for plain inserts.
    next_rowid: AtomicU64,
    monitor: Option<JoinHandle<()>>,
}

impl RangePartitionedCracker {
    /// The per-partition compaction policy used when the caller does not
    /// pick one: delta bounded at 10% of the partition's main array,
    /// merged incrementally. Exclusive ownership made the pre-PR 4 owner
    /// index merge its pending buffer on the next crack; an unbounded
    /// default delta would silently re-introduce the linear select
    /// degradation PR 3 removed, so the default keeps the delta bounded.
    fn default_partition_policy() -> CompactionPolicy {
        CompactionPolicy::fraction(0.1).incremental(8)
    }

    /// Range-partitions `values` into `partitions` (clamped to
    /// `1..=len.max(1)`) and spawns one owner thread per partition. The
    /// partition pass itself runs in parallel: every builder thread scans
    /// a stripe of the input and scatters values into per-partition
    /// buckets, which are then concatenated per partition. Each
    /// partition's delta is bounded by the default incremental policy;
    /// use [`RangePartitionedCracker::with_compaction`] to tune or
    /// disable it.
    pub fn new(values: Vec<i64>, partitions: usize) -> Self {
        Self::with_compaction(values, partitions, Self::default_partition_policy())
    }

    /// As [`RangePartitionedCracker::new`] with an explicit per-partition
    /// compaction policy — including [`aidx_core::CompactionMode`]
    /// `Incremental`, which merges each partition's delta one piece write
    /// latch at a time instead of quiescing the partition. Each owner
    /// thread compacts only its own partition, so the reclamation work
    /// spreads across cores with the write stream.
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
        Self::build(
            values,
            rowids,
            partitions,
            compaction,
            LatchProtocol::None,
            None,
        )
    }

    /// Skew-adaptive mode: partitions split, merge and steal according to
    /// `config`. Owners run under [`LatchProtocol::Piece`] so stealers
    /// can refine a partition concurrently with its owner, and every
    /// partition uses the default bounded compaction policy (an enabled
    /// policy is what routes owner reads through the quiesce gate that
    /// fences piece handoffs against stealers).
    pub fn adaptive(values: Vec<i64>, partitions: usize, config: AdaptiveConfig) -> Self {
        let rowids: Vec<RowId> = (0..values.len() as RowId).collect();
        Self::build(
            values,
            rowids,
            partitions,
            Self::default_partition_policy(),
            LatchProtocol::Piece,
            Some(config),
        )
    }

    fn build(
        values: Vec<i64>,
        rowids: Vec<RowId>,
        partitions: usize,
        compaction: CompactionPolicy,
        protocol: LatchProtocol,
        config: Option<AdaptiveConfig>,
    ) -> Self {
        assert_eq!(values.len(), rowids.len(), "misaligned rowid column");
        let len = values.len();
        let next_rowid = rowids.iter().max().map(|&r| r as u64 + 1).unwrap_or(0);
        let partitions = partitions.clamp(1, len.max(1));
        let splits = choose_splits(&values, partitions);
        // Heavily duplicated data collapses quantiles, so `choose_splits`
        // may return fewer boundaries than requested; the owner count must
        // follow, or routing would address partitions the split vector
        // cannot clip.
        let partitions = splits.len() + 1;
        let rows: Vec<(i64, RowId)> = values.into_iter().zip(rowids).collect();

        // Parallel scatter: stripe the input across `partitions` builder
        // threads; each produces one bucket vector per partition.
        let stripes: Vec<&[(i64, RowId)]> = stripe_slices(&rows, partitions);
        let scattered: Vec<Vec<Vec<(i64, RowId)>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = stripes
                .into_iter()
                .map(|stripe| {
                    let splits = &splits;
                    scope.spawn(move || {
                        let mut buckets: Vec<Vec<(i64, RowId)>> = vec![Vec::new(); partitions];
                        for &(v, rid) in stripe {
                            buckets[partition_of(splits, v)].push((v, rid));
                        }
                        buckets
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        // Parallel gather: concatenate each partition's buckets.
        let mut partition_rows: Vec<Vec<(i64, RowId)>> = vec![Vec::new(); partitions];
        std::thread::scope(|scope| {
            let mut gather: Vec<_> = Vec::with_capacity(partitions);
            let mut rest: &mut [Vec<(i64, RowId)>] = &mut partition_rows;
            let scattered = &scattered;
            for p in 0..partitions {
                let (head, tail) = rest.split_first_mut().unwrap();
                rest = tail;
                gather.push(scope.spawn(move || {
                    let total: usize = scattered.iter().map(|b| b[p].len()).sum();
                    head.reserve_exact(total);
                    for buckets in scattered {
                        head.extend_from_slice(&buckets[p]);
                    }
                }));
            }
            for h in gather {
                h.join().unwrap();
            }
        });

        let shared = Arc::new(Shared {
            table: RwLock::new(Arc::new(RoutingTable::empty())),
            counters: Arc::new(RoutingCounters::new()),
            config,
            repartition: Mutex::new(()),
            snapshot_gate: RwLock::new(()),
            live_snapshots: AtomicU64::new(0),
            next_partition_id: AtomicU32::new(partitions as u32),
            splits_performed: AtomicU64::new(0),
            merges_performed: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            steal_pause: AtomicBool::new(false),
            steals_in_flight: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            monitor_park: Mutex::new(()),
            monitor_cv: Condvar::new(),
            last_ops: Mutex::new(HashMap::new()),
            handles: Mutex::new(Vec::new()),
            repartition_instance: dcheck::instance_id(),
            snapshot_gate_instance: dcheck::instance_id(),
            router_instance: dcheck::instance_id(),
        });

        let mut parts = Vec::with_capacity(partitions);
        for (p, bucket) in partition_rows.into_iter().enumerate() {
            let size = bucket.len();
            let (bucket_values, bucket_ids): (Vec<i64>, Vec<RowId>) = bucket.into_iter().unzip();
            let index = Arc::new(
                ConcurrentCracker::from_rows(bucket_values, bucket_ids, protocol)
                    .with_compaction(compaction),
            );
            let (tx, rx) = channel();
            parts.push(spawn_owner(&shared, p as u32, index, size, tx, rx));
        }
        shared.swap_table(Arc::new(RoutingTable {
            splits,
            partitions: parts,
            pins: AtomicU64::new(0),
        }));

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

    /// Number of partitions (== live owner threads).
    pub fn partition_count(&self) -> usize {
        self.shared.current_table().partitions.len()
    }

    /// Entries per partition (diagnostic: balance check; kept current by
    /// the owners, where writes apply).
    pub fn partition_sizes(&self) -> Vec<usize> {
        self.shared
            .current_table()
            .partitions
            .iter()
            .map(|p| p.size.load(Ordering::Relaxed))
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

    /// Successful refinement steals by idle owners.
    pub fn steal_count(&self) -> u64 {
        self.shared.steals.load(Ordering::Relaxed)
    }

    /// Hot-partition splits performed by re-partitioning.
    pub fn splits_performed(&self) -> u64 {
        self.shared.splits_performed.load(Ordering::Relaxed)
    }

    /// Cold-pair merges performed by re-partitioning.
    pub fn merges_performed(&self) -> u64 {
        self.shared.merges_performed.load(Ordering::Relaxed)
    }

    /// Owner-channel coalescing counters: total requests processed and
    /// total owner wakeups across all partitions. Under heavy client
    /// counts `ops` outruns `batches` — each wakeup drained several
    /// queued requests in one round-trip.
    pub fn routing_stats(&self) -> RoutingStats {
        RoutingStats {
            ops: self.shared.counters.ops.load(Ordering::Relaxed),
            batches: self.shared.counters.batches.load(Ordering::Relaxed),
        }
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
    /// the trait in scope reach it: each overlapping owner builds a
    /// block-compressed [`RowIdSet`] from its own per-piece sorted runs and
    /// the router k-way merges the per-partition sets (partitions are
    /// key-disjoint, hence rowid-disjoint) without decoding them to flat
    /// vectors.
    pub fn select_rowid_set(&self, low: i64, high: i64) -> (RowIdSet, QueryMetrics) {
        let (answer, metrics) = ColumnRead::read(self, low, high, ReadShape::RowIdSet);
        (answer.into_set(), metrics)
    }

    /// Opens a snapshot across every partition: one epoch per partition,
    /// registered in partition order directly on the partition's index
    /// (a registration takes only its delta mutex — no owner round trip,
    /// so an open never queues behind a busy owner). Because every write
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
    /// partition owners.
    pub fn delta_stats(&self) -> (u64, u64) {
        let stats = self.shared.ask_all(|index| {
            (
                index.delta_rows(),
                index.compactions_performed() + index.compaction_steps_performed(),
            )
        });
        stats.into_iter().fold((0, 0), |(pending, merges), (p, m)| {
            (pending + p, merges + m)
        })
    }
}

impl ColumnRead for RangePartitionedCracker {
    /// One `shape` read over `[low, high)`, routed to the owners of the
    /// partitions the range overlaps (clipped per partition) — partitions
    /// outside it are never touched — and merged
    /// ([`ReadAnswer::merge`]).
    fn read(&self, low: i64, high: i64, shape: ReadShape) -> (ReadAnswer, QueryMetrics) {
        let start = Instant::now();
        // The pin covers only the sends: once a request is enqueued, a
        // routing-table swap can't lose it (the redirect protocol drains
        // the old generation before retiring).
        let (reply_rx, fanout) = {
            let table = self.shared.pin_table();
            send_read(&table, low, high, shape, None)
        };
        collect_read(reply_rx, fanout, shape, start)
    }
}

impl Index for RangePartitionedCracker {
    fn pin(&self) -> Box<dyn ColumnRead + '_> {
        Box::new(self.snapshot())
    }

    /// The one write path: a single round-trip to the partition owning
    /// the op's key (rows with a key live only there; during a
    /// re-partition the owner's redirect passes the op on by key). Returns
    /// `(rows affected, metrics)`.
    fn write(&self, op: WriteOp) -> (u64, QueryMetrics) {
        let start = Instant::now();
        if let WriteOp::Insert { rowid, .. } = op {
            self.next_rowid
                .fetch_max(rowid as u64 + 1, Ordering::Relaxed);
        }
        let reply_rx = {
            let table = self.shared.pin_table();
            let p = partition_of(&table.splits, op.key());
            let (reply_tx, reply_rx) = channel();
            table.partitions[p]
                .sender
                .send(OwnerRequest::Write {
                    op,
                    reply: reply_tx,
                })
                .expect("partition owner exited early");
            reply_rx
        };
        let (rows, mut metrics) = reply_rx.recv().expect("partition owner died");
        adjust_len(&self.len, op.len_delta(rows));
        metrics.total = start.elapsed();
        (rows, metrics)
    }

    /// Inserts one row with the given key, self-assigning a fresh row id.
    fn insert(&self, value: i64) -> QueryMetrics {
        let rowid = self.next_rowid.fetch_add(1, Ordering::Relaxed) as RowId;
        self.insert_row(value, rowid)
    }

    /// One merged structure probe across every partition: piece layout
    /// and delta pressure summed over the owners, plus the per-partition
    /// handled-op load. Each owner answers from its own thread, so the
    /// probe is consistent per partition (not across partitions — it is
    /// a diagnostic, not a snapshot).
    fn structure_probe(&self) -> StructureProbe {
        let mut probe = StructureProbe::default();
        for part in self.shared.ask_all(ConcurrentCracker::structure_probe) {
            probe.merge(&part);
        }
        // Read after the owners answered so the load includes the probe
        // requests themselves (keeps sum(load) == routed ops).
        probe.partition_load = self
            .partition_loads()
            .into_iter()
            .map(|(_, ops)| ops)
            .collect();
        probe
    }

    /// Verifies every partition's piece/array consistency. Stealers are
    /// paused for the duration — the walk reads piece layouts that a
    /// concurrent refinement crack would legitimately change.
    fn check_invariants(&self) -> bool {
        let shared = &self.shared;
        shared.steal_pause.store(true, Ordering::SeqCst);
        while shared.steals_in_flight.load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
        let ok = shared
            .ask_all(ConcurrentCracker::check_invariants)
            .into_iter()
            .all(|ok| ok);
        shared.steal_pause.store(false, Ordering::SeqCst);
        ok
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
        // Swapping in an empty generation drops the only long-lived
        // senders; every owner's channel disconnects and its loop exits
        // (stealing owners notice on their next poll timeout).
        shared.swap_table(Arc::new(RoutingTable::empty()));
        let handles: Vec<JoinHandle<()>> = {
            let mut guard = shared.handles.lock();
            guard.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
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
/// owner answers at the epoch registered when the snapshot was opened.
/// The handle captures the routing generation it was opened against —
/// valid for its whole lifetime because re-partitioning aborts while any
/// snapshot is live. Dropping the handle releases every partition's
/// registration.
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
    /// A routed read with every owner answering at its pinned epoch,
    /// routed through the captured generation.
    fn read(&self, low: i64, high: i64, shape: ReadShape) -> (ReadAnswer, QueryMetrics) {
        let start = Instant::now();
        let (reply_rx, fanout) = send_read(&self.table, low, high, shape, Some(&self.epochs));
        collect_read(reply_rx, fanout, shape, start)
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

/// Fans one read out to the owners of the partitions `[low, high)`
/// overlaps, clipped per partition (none at all for an empty range).
/// Returns the shared reply channel and the fan-out count; the caller
/// collects after releasing its table pin.
fn send_read(
    table: &RoutingTable,
    low: i64,
    high: i64,
    shape: ReadShape,
    epochs: Option<&[u64]>,
) -> (Receiver<(ReadAnswer, QueryMetrics)>, usize) {
    let (reply_tx, reply_rx) = channel();
    if low >= high {
        return (reply_rx, 0);
    }
    let first = partition_of(&table.splits, low);
    let last = partition_of(&table.splits, high - 1);
    for p in first..=last {
        let (lo, hi) = table.clip(p, low, high);
        table.partitions[p]
            .sender
            .send(OwnerRequest::Read {
                low: lo,
                high: hi,
                epoch: epochs.map(|e| e[p]),
                shape,
                reply: reply_tx.clone(),
            })
            .expect("partition owner exited early");
    }
    (reply_rx, last - first + 1)
}

/// Collects and merges the `fanout` partial answers of one routed read.
fn collect_read(
    reply_rx: Receiver<(ReadAnswer, QueryMetrics)>,
    fanout: usize,
    shape: ReadShape,
    start: Instant,
) -> (ReadAnswer, QueryMetrics) {
    let parts = (0..fanout).map(|_| reply_rx.recv().expect("partition owner died"));
    let (answer, mut metrics) = ReadAnswer::merge(shape, parts);
    metrics.total = start.elapsed();
    (answer, metrics)
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

/// Splits `values` into `n` near-equal contiguous stripes.
fn stripe_slices<T>(values: &[T], n: usize) -> Vec<&[T]> {
    let n = n.max(1);
    let target = values.len().div_ceil(n).max(1);
    let mut out = Vec::with_capacity(n);
    let mut rest = values;
    for _ in 0..n {
        let take = target.min(rest.len());
        let (head, tail) = rest.split_at(take);
        out.push(head);
        rest = tail;
    }
    out
}
