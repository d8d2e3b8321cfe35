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
//! unchanged in both modes. A [`RangeSnapshot`] registers one epoch per
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
    CompactionPolicy, ConcurrentCracker, KeyRuns, LatchProtocol, QueryMetrics, ReadAnswer,
    ReadShape, RowIdSet, WriteOp,
};
use aidx_obs::{emit, StructureProbe, TraceEvent};
use aidx_storage::RowId;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A request routed to one partition owner. Client traffic is `Read`,
/// `Write` and `Inspect` — counted as routed ops and subject to the
/// owner's redirect; the rest are repartition control messages.
enum OwnerRequest {
    /// Answer one `shape` read over `[low, high)` within the partition,
    /// cracking as a side effect — at the partition-local snapshot `epoch`
    /// if one is given — and reply with `(partial answer, metrics)`. Row
    /// answers stay per-partition (sets compressed, key runs raw and
    /// unsorted); the router merges them ([`ReadAnswer::merge`]).
    Read {
        low: i64,
        high: i64,
        epoch: Option<u64>,
        shape: ReadShape,
        reply: Sender<(ReadAnswer, QueryMetrics)>,
    },
    /// Apply one write to the partition's index (the partition *owns* the
    /// op's key, so no other partition is involved) and reply with
    /// `(rows affected, metrics)`.
    Write {
        op: WriteOp,
        reply: Sender<(u64, QueryMetrics)>,
    },
    /// Run a diagnostic closure against the partition's index on its
    /// owner thread (invariant checks, statistics);
    /// the closure carries its own reply channel, if it has an answer.
    Inspect(Box<dyn FnOnce(&ConcurrentCracker) + Send>),
    /// Reply with the crack boundary nearest the partition's middle — the
    /// repartition controller's split-point discovery. `None` if the
    /// partition has no interior crack to split at.
    SplitKey { reply: Sender<Option<i64>> },
    /// Split the partition at `at`: move every row `>= at` (with its
    /// cracks) into a fresh child index, install a split redirect toward
    /// `child` for requests still routed by the old table, and reply with
    /// the child index for the controller to spawn an owner around.
    SplitExtract {
        at: i64,
        child: Sender<OwnerRequest>,
        reply: Sender<ConcurrentCracker>,
    },
    /// Merge away: extract the whole partition, hand it to `into` as an
    /// [`OwnerRequest::Absorb`] (waiting for the ack), install a
    /// forward-all redirect, and reply with how many rows moved.
    MergeExtract {
        into: Sender<OwnerRequest>,
        boundary: i64,
        reply: Sender<u64>,
    },
    /// Absorb a merged-away upper neighbour's rows; ack'd once installed.
    Absorb {
        values: Vec<i64>,
        rowids: Vec<RowId>,
        cracks: Vec<(i64, usize)>,
        boundary: i64,
        ack: Sender<()>,
    },
    /// Clear the redirect installed by a split, once the controller has
    /// drained every request routed through the old table.
    RetireRedirect { reply: Sender<()> },
}

/// Where a partition forwards requests while a repartition system
/// transaction is mid-flight (installed by the owner itself, so it is
/// ordered with the extraction in the request stream).
enum Redirect {
    /// This partition split at `at`: requests entirely `>= at` are
    /// whole-forwarded, straddling reads are answered in two halves and
    /// combined so the router still sees exactly one reply.
    Split { at: i64, to: Sender<OwnerRequest> },
    /// This partition merged away: everything goes to the absorber.
    All { to: Sender<OwnerRequest> },
}

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

/// Tuning for the skew-adaptive mode ([`RangePartitionedCracker::adaptive`]).
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// How often the monitor thread examines the load windows. `None`
    /// spawns no monitor: rebalancing then only happens through explicit
    /// [`RangePartitionedCracker::try_rebalance`] calls (deterministic
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

/// Spins until every send routed through `old` has been enqueued. Pins
/// only cover channel sends, never reply waits, so this drains fast.
fn wait_for_pins(old: &RoutingTable) {
    while old.pins.load(Ordering::Acquire) != 0 {
        std::thread::yield_now();
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One owner thread's working state.
struct OwnerCtx {
    id: u32,
    index: Arc<ConcurrentCracker>,
    ops: Arc<AtomicU64>,
    size: Arc<AtomicUsize>,
    counters: Arc<RoutingCounters>,
    /// Weak so owner threads don't keep the shared state (and through its
    /// routing table, their own channels) alive after teardown begins.
    shared: Weak<Shared>,
    redirect: Option<Redirect>,
    /// `(poll timeout, min piece rows)` when stealing is enabled.
    steal: Option<(Duration, usize)>,
}

impl OwnerCtx {
    fn note_op(&self) {
        self.counters.ops.fetch_add(1, Ordering::Relaxed);
        self.ops.fetch_add(1, Ordering::Relaxed);
    }

    fn handle(&mut self, request: OwnerRequest) {
        // Repartition control messages are system-transaction traffic,
        // not client load: they bypass the redirect and the op counters.
        let request = match self.control(request) {
            Some(r) => r,
            None => return,
        };
        let request = match self.forward(request) {
            Some(r) => r,
            None => return,
        };
        self.note_op();
        self.handle_local(request);
    }

    /// Intercepts repartition control messages; returns client requests
    /// untouched.
    fn control(&mut self, request: OwnerRequest) -> Option<OwnerRequest> {
        match request {
            OwnerRequest::SplitKey { reply } => {
                let _ = reply.send(self.index.median_crack_key());
                None
            }
            OwnerRequest::SplitExtract { at, child, reply } => {
                let (values, rowids, cracks) = self.index.split_off(at);
                let child_index = ConcurrentCracker::from_rows_with_cracks(
                    values,
                    rowids,
                    &cracks,
                    self.index.protocol(),
                )
                .with_compaction(self.index.compaction_policy());
                self.size.store(self.index.len(), Ordering::Relaxed);
                // Installed before the reply: every later request in this
                // queue (routed by the old table) hits the redirect.
                self.redirect = Some(Redirect::Split { at, to: child });
                let _ = reply.send(child_index);
                None
            }
            OwnerRequest::MergeExtract {
                into,
                boundary,
                reply,
            } => {
                let (values, rowids, cracks) = self.index.split_off(i64::MIN);
                let moved = values.len() as u64;
                let (ack_tx, ack_rx) = channel();
                let _ = into.send(OwnerRequest::Absorb {
                    values,
                    rowids,
                    cracks,
                    boundary,
                    ack: ack_tx,
                });
                // Block until the absorber has installed the rows: a
                // request forwarded afterwards must find them there. The
                // absorber never waits on this owner, so this can't
                // deadlock.
                let _ = ack_rx.recv();
                self.size.store(0, Ordering::Relaxed);
                self.redirect = Some(Redirect::All { to: into });
                let _ = reply.send(moved);
                None
            }
            OwnerRequest::Absorb {
                values,
                rowids,
                cracks,
                boundary,
                ack,
            } => {
                let added = values.len();
                self.index.absorb_upper(values, rowids, &cracks, boundary);
                self.size.fetch_add(added, Ordering::Relaxed);
                let _ = ack.send(());
                None
            }
            OwnerRequest::RetireRedirect { reply } => {
                self.redirect = None;
                let _ = reply.send(());
                None
            }
            other => Some(other),
        }
    }

    /// Applies the redirect, if any: whole-forwards, splits straddling
    /// reads, and passes locally-owned requests through.
    fn forward(&mut self, request: OwnerRequest) -> Option<OwnerRequest> {
        let Some(redirect) = &self.redirect else {
            return Some(request);
        };
        match redirect {
            Redirect::All { to } => {
                let _ = to.send(request);
                None
            }
            Redirect::Split { at, to } => {
                let (at, to) = (*at, to.clone());
                self.forward_split(at, &to, request)
            }
        }
    }

    fn forward_split(
        &mut self,
        at: i64,
        to: &Sender<OwnerRequest>,
        request: OwnerRequest,
    ) -> Option<OwnerRequest> {
        // Writes route by key, reads by range start: either side owns
        // the request outright unless a read straddles the split key.
        let forward_whole = match &request {
            OwnerRequest::Write { op, .. } => op.key() >= at,
            OwnerRequest::Read { low, .. } => *low >= at,
            _ => false,
        };
        if forward_whole {
            let _ = to.send(request);
            return None;
        }
        match request {
            OwnerRequest::Read {
                low,
                high,
                epoch,
                shape,
                reply,
            } if high > at => {
                debug_assert!(epoch.is_none(), "no snapshots during a repartition");
                self.note_op();
                let local = self.index.read(low, at, epoch, shape);
                let (tx, rx) = channel();
                let _ = to.send(OwnerRequest::Read {
                    low: at,
                    high,
                    epoch,
                    shape,
                    reply: tx,
                });
                if let Ok(remote) = rx.recv() {
                    let _ = reply.send(ReadAnswer::merge(shape, [local, remote]));
                }
                None
            }
            other => Some(other),
        }
    }

    fn handle_local(&mut self, request: OwnerRequest) {
        match request {
            OwnerRequest::Read {
                low,
                high,
                epoch,
                shape,
                reply,
            } => {
                // The router may have given up only if the whole index
                // was dropped mid-query; nothing useful to do then.
                let _ = reply.send(self.index.read(low, high, epoch, shape));
            }
            OwnerRequest::Write { op, reply } => {
                let (rows, metrics) = self.index.write(op);
                adjust_len(&self.size, op.len_delta(rows));
                let _ = reply.send((rows, metrics));
            }
            OwnerRequest::Inspect(probe) => probe(&self.index),
            OwnerRequest::SplitKey { .. }
            | OwnerRequest::SplitExtract { .. }
            | OwnerRequest::MergeExtract { .. }
            | OwnerRequest::Absorb { .. }
            | OwnerRequest::RetireRedirect { .. } => {
                unreachable!("control messages are intercepted before local handling")
            }
        }
    }

    /// Refinement work stealing: pre-crack the largest piece of the
    /// biggest other partition. Pure index refinement under the victim's
    /// piece latches — idempotent, and invisible to query answers.
    fn try_steal(&self) {
        let Some((_, min_piece)) = self.steal else {
            return;
        };
        let Some(shared) = self.shared.upgrade() else {
            return;
        };
        if shared.shutdown.load(Ordering::Acquire) || shared.steal_pause.load(Ordering::SeqCst) {
            return;
        }
        shared.steals_in_flight.fetch_add(1, Ordering::SeqCst);
        // Re-check after announcing: the pauser waits for in-flight
        // steals, so a steal that raced the pause must back out.
        if shared.steal_pause.load(Ordering::SeqCst) {
            shared.steals_in_flight.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let start = Instant::now();
        {
            let table = shared.pin_table();
            let victim = table
                .partitions
                .iter()
                .filter(|p| p.id != self.id)
                .max_by_key(|p| p.size.load(Ordering::Relaxed));
            if let Some(victim) = victim {
                if let Some(rows) = victim.index.refine_largest_piece(min_piece) {
                    shared.steals.fetch_add(1, Ordering::Relaxed);
                    emit(TraceEvent::Steal {
                        thief: self.id,
                        victim: victim.id,
                        rows,
                        ns: elapsed_ns(start),
                    });
                }
            }
        }
        shared.steals_in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One partition owner: a worker thread with exclusive write access to
/// its partition's cracker index. Each blocking receive drains every
/// request already queued (batch routing) before parking again. With
/// stealing enabled, a poll timeout on an empty queue becomes refinement
/// side work on the biggest other partition.
fn owner_loop(mut ctx: OwnerCtx, requests: Receiver<OwnerRequest>) {
    loop {
        let first = match ctx.steal {
            Some((poll, _)) => match requests.recv_timeout(poll) {
                Ok(request) => request,
                Err(RecvTimeoutError::Timeout) => {
                    ctx.try_steal();
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => return,
            },
            None => match requests.recv() {
                Ok(request) => request,
                Err(_) => return,
            },
        };
        ctx.counters.batches.fetch_add(1, Ordering::Relaxed);
        let mut depth = 1u32;
        ctx.handle(first);
        while let Ok(next) = requests.try_recv() {
            depth = depth.saturating_add(1);
            ctx.handle(next);
        }
        emit(TraceEvent::OwnerBatch {
            partition: ctx.id,
            depth,
        });
    }
}

fn spawn_owner(
    shared: &Arc<Shared>,
    id: u32,
    index: Arc<ConcurrentCracker>,
    size: usize,
    sender: Sender<OwnerRequest>,
    receiver: Receiver<OwnerRequest>,
) -> Partition {
    let partition = Partition {
        id,
        sender,
        index: Arc::clone(&index),
        ops: Arc::new(AtomicU64::new(0)),
        size: Arc::new(AtomicUsize::new(size)),
    };
    let ctx = OwnerCtx {
        id,
        index,
        ops: Arc::clone(&partition.ops),
        size: Arc::clone(&partition.size),
        counters: Arc::clone(&shared.counters),
        shared: Arc::downgrade(shared),
        redirect: None,
        steal: shared.steal_params(),
    };
    let handle = std::thread::Builder::new()
        .name(format!("aidx-partition-{id}"))
        .spawn(move || owner_loop(ctx, receiver))
        .expect("failed to spawn partition owner");
    shared.handles.lock().push(handle);
    partition
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

    /// As [`RangePartitionedCracker::new`], but every partition compacts
    /// its pending delta once it reaches `compaction_threshold` rows
    /// (0 = the default bounded incremental policy, mirroring the
    /// pre-PR 4 owner index's merge-on-next-crack behaviour). Each owner
    /// thread compacts only its own partition, so the reclamation work
    /// spreads across cores with the write stream.
    pub fn with_compaction_threshold(
        values: Vec<i64>,
        partitions: usize,
        compaction_threshold: usize,
    ) -> Self {
        let policy = if compaction_threshold == 0 {
            Self::default_partition_policy()
        } else {
            CompactionPolicy::rows(compaction_threshold as u64)
        };
        Self::with_compaction(values, partitions, policy)
    }

    /// As [`RangePartitionedCracker::new`] with an explicit per-partition
    /// compaction policy — including [`aidx_core::CompactionMode`]
    /// `Incremental`, which merges each partition's delta one piece write
    /// latch at a time instead of quiescing the partition.
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
        Self::adaptive_from_rows(values, rowids, partitions, config)
    }

    /// As [`RangePartitionedCracker::adaptive`] with explicit, aligned
    /// row ids (the table-engine path).
    ///
    /// # Panics
    /// Panics if the vectors differ in length.
    pub fn adaptive_from_rows(
        values: Vec<i64>,
        rowids: Vec<RowId>,
        partitions: usize,
        config: AdaptiveConfig,
    ) -> Self {
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

    /// Cumulative routed operations per live partition, keyed by the
    /// partition's stable id (split children start at zero; a merge's
    /// absorber keeps its count). Two probes bracketing a query window
    /// give that window's per-partition load by id-matched subtraction —
    /// the balance measure that is meaningful *after* re-partitioning,
    /// where the all-time counters still carry pre-split history.
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

    /// The one write path: a single round-trip to the partition owning
    /// the op's key (rows with a key live only there; during a
    /// re-partition the owner's redirect passes the op on by key). Returns
    /// `(rows affected, metrics)`.
    pub fn write(&self, op: WriteOp) -> (u64, QueryMetrics) {
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
    pub fn insert(&self, value: i64) -> QueryMetrics {
        let rowid = self.next_rowid.fetch_add(1, Ordering::Relaxed) as RowId;
        self.insert_row(value, rowid)
    }

    /// [`WriteOp::Insert`]: inserts one row with an externally assigned row
    /// id (the table-engine path).
    pub fn insert_row(&self, value: i64, rowid: RowId) -> QueryMetrics {
        self.write(WriteOp::Insert { value, rowid }).1
    }

    /// [`WriteOp::DeleteRow`]: deletes the row `(value, rowid)`. Returns
    /// how many rows were removed (0 or 1).
    pub fn delete_row(&self, value: i64, rowid: RowId) -> (u64, QueryMetrics) {
        self.write(WriteOp::DeleteRow { value, rowid })
    }

    /// [`WriteOp::Delete`]: deletes every row whose key equals `value`.
    pub fn delete(&self, value: i64) -> (u64, QueryMetrics) {
        self.write(WriteOp::Delete { value })
    }

    /// One `shape` read over `[low, high)`, routed to the owners of the
    /// partitions the range overlaps (clipped per partition) — partitions
    /// outside it are never touched — and merged
    /// ([`ReadAnswer::merge`]).
    pub fn read(&self, low: i64, high: i64, shape: ReadShape) -> (ReadAnswer, QueryMetrics) {
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

    /// Q1: count of values in `[low, high)`.
    pub fn count(&self, low: i64, high: i64) -> (u64, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::Count);
        (answer.into_agg() as u64, metrics)
    }

    /// Q2: sum of values in `[low, high)`.
    pub fn sum(&self, low: i64, high: i64) -> (i128, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::Sum);
        (answer.into_agg(), metrics)
    }

    /// Row ids of every live row with a value in `[low, high)` (sorted
    /// ascending).
    pub fn select_rowids(&self, low: i64, high: i64) -> (Vec<RowId>, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::RowIds);
        (answer.into_rowids(), metrics)
    }

    /// As [`RangePartitionedCracker::select_rowids`], but each
    /// overlapping owner builds a block-compressed [`RowIdSet`] from its
    /// own per-piece sorted runs and the router k-way merges the
    /// per-partition sets (partitions are key-disjoint, hence
    /// rowid-disjoint) without decoding them to flat vectors.
    pub fn select_rowid_set(&self, low: i64, high: i64) -> (RowIdSet, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::RowIdSet);
        (answer.into_set(), metrics)
    }

    /// Lazily-merged `(key, rowid)` runs of every live row with a value
    /// in `[low, high)`, absorbed into one [`KeyRuns`] collection. Runs
    /// keep their raw per-piece order; the consuming join's merge iterator
    /// sorts only the runs its frontier reaches.
    pub fn select_key_runs(&self, low: i64, high: i64) -> (KeyRuns, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::KeyRuns);
        (answer.into_runs(), metrics)
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
    pub fn snapshot(&self) -> RangeSnapshot<'_> {
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

    /// Requests handled per partition since construction — the routed
    /// load skew adaptive re-partitioning reacts to. Indexed by current
    /// partition order.
    pub fn partition_load(&self) -> Vec<u64> {
        self.shared
            .current_table()
            .partitions
            .iter()
            .map(|p| p.ops.load(Ordering::Relaxed))
            .collect()
    }

    /// One merged structure probe across every partition: piece layout
    /// and delta pressure summed over the owners, plus the per-partition
    /// handled-op load. Each owner answers from its own thread, so the
    /// probe is consistent per partition (not across partitions — it is
    /// a diagnostic, not a snapshot).
    pub fn structure_probe(&self) -> StructureProbe {
        let mut probe = StructureProbe::default();
        for part in self.shared.ask_all(ConcurrentCracker::structure_probe) {
            probe.merge(&part);
        }
        // Read after the owners answered so the load includes the probe
        // requests themselves (keeps sum(load) == routed ops).
        probe.partition_load = self.partition_load();
        probe
    }

    /// Verifies every partition's piece/array consistency. Stealers are
    /// paused for the duration — the walk reads piece layouts that a
    /// concurrent refinement crack would legitimately change.
    pub fn check_invariants(&self) -> bool {
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

/// The monitor thread: parks on a condvar (so teardown can interrupt a
/// long interval) and runs one rebalance pass per wakeup.
fn monitor_loop(shared: &Arc<Shared>, interval: Duration) {
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
fn rebalance(shared: &Arc<Shared>) -> Rebalance {
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

/// A snapshot pinned across every partition of a
/// [`RangePartitionedCracker`]: reads route like ordinary queries but each
/// owner answers at the epoch registered when the snapshot was opened.
/// The handle captures the routing generation it was opened against —
/// valid for its whole lifetime because re-partitioning aborts while any
/// snapshot is live. Dropping the handle releases every partition's
/// registration.
pub struct RangeSnapshot<'a> {
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

impl RangeSnapshot<'_> {
    /// The per-partition epochs this snapshot reads at (diagnostics).
    pub fn epochs(&self) -> &[u64] {
        &self.epochs
    }

    /// [`RangePartitionedCracker::read`] with every owner answering at
    /// its pinned epoch, routed through the captured generation.
    pub fn read(&self, low: i64, high: i64, shape: ReadShape) -> (ReadAnswer, QueryMetrics) {
        let start = Instant::now();
        let (reply_rx, fanout) = send_read(&self.table, low, high, shape, Some(&self.epochs));
        collect_read(reply_rx, fanout, shape, start)
    }

    /// Q1 at the snapshot: count of values in `[low, high)`.
    pub fn count(&self, low: i64, high: i64) -> (u64, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::Count);
        (answer.into_agg() as u64, metrics)
    }

    /// Q2 at the snapshot: sum of values in `[low, high)`.
    pub fn sum(&self, low: i64, high: i64) -> (i128, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::Sum);
        (answer.into_agg(), metrics)
    }

    /// Row ids of the rows with values in `[low, high)` as of the
    /// snapshot (sorted ascending).
    pub fn rowids(&self, low: i64, high: i64) -> (Vec<RowId>, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::RowIds);
        (answer.into_rowids(), metrics)
    }

    /// As [`RangeSnapshot::rowids`], materialised as a compressed
    /// [`RowIdSet`] merged across the partitions' pinned epochs.
    pub fn rowid_set(&self, low: i64, high: i64) -> (RowIdSet, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::RowIdSet);
        (answer.into_set(), metrics)
    }

    /// Lazily-merged `(key, rowid)` runs of the rows with values in
    /// `[low, high)` as of the snapshot, absorbed across the partitions'
    /// pinned epochs.
    pub fn key_runs(&self, low: i64, high: i64) -> (KeyRuns, QueryMetrics) {
        let (answer, metrics) = self.read(low, high, ReadShape::KeyRuns);
        (answer.into_runs(), metrics)
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

#[cfg(test)]
mod tests {
    use super::*;
    use aidx_storage::ops;
    use std::thread;

    fn shuffled(n: usize) -> Vec<i64> {
        (0..n as i64).map(|i| (i * 48271) % n as i64).collect()
    }

    /// An adaptive config with no monitor thread and no stealing:
    /// rebalancing only happens through explicit `try_rebalance` calls,
    /// so tests drive every system transaction deterministically.
    fn quiet(threshold: f64, min_rows: usize, min_window: u64) -> AdaptiveConfig {
        AdaptiveConfig {
            check_interval: None,
            imbalance_threshold: threshold,
            min_partition_rows: min_rows,
            min_window_ops: min_window,
            steal: false,
            ..AdaptiveConfig::default()
        }
    }

    #[test]
    fn results_match_scan_for_every_partition_count() {
        let values = shuffled(5000);
        for partitions in [1, 2, 4, 7] {
            let idx = RangePartitionedCracker::new(values.clone(), partitions);
            assert_eq!(idx.partition_count(), partitions);
            assert_eq!(idx.len(), 5000);
            for (low, high) in [(10, 4000), (100, 200), (0, 5000), (4999, 5000), (300, 100)] {
                let (c, _) = idx.count(low, high);
                assert_eq!(
                    c,
                    ops::count(&values, low, high),
                    "{partitions} parts count"
                );
                let (s, _) = idx.sum(low, high);
                assert_eq!(s, ops::sum(&values, low, high), "{partitions} parts sum");
            }
            assert!(idx.check_invariants(), "{partitions} parts");
        }
    }

    #[test]
    fn partitions_are_disjoint_and_cover_everything() {
        let values = shuffled(10_000);
        let idx = RangePartitionedCracker::new(values.clone(), 8);
        assert_eq!(idx.partition_sizes().iter().sum::<usize>(), 10_000);
        // Sampled quantiles over a uniform permutation: every partition
        // within 3x of the ideal size.
        let ideal = 10_000 / 8;
        for size in idx.partition_sizes() {
            assert!(
                size <= ideal * 3,
                "unbalanced partition: {size} vs ideal {ideal}"
            );
        }
        assert!(idx.splits().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn narrow_queries_touch_one_partition() {
        let values = shuffled(8000);
        let idx = RangePartitionedCracker::new(values.clone(), 4);
        // A one-key query overlaps exactly one partition; its metrics come
        // from a single owner, so at most 2 cracks happen.
        let (c, m) = idx.count(100, 101);
        assert_eq!(c, 1);
        assert!(m.cracks_performed <= 2);
    }

    #[test]
    fn skewed_data_still_balances() {
        // All keys in a tiny range, heavily duplicated.
        let values: Vec<i64> = (0..9000).map(|i| (i % 13) as i64).collect();
        let idx = RangePartitionedCracker::new(values.clone(), 4);
        for (low, high) in [(0, 13), (3, 7), (12, 13), (5, 5)] {
            assert_eq!(idx.count(low, high).0, ops::count(&values, low, high));
            assert_eq!(idx.sum(low, high).0, ops::sum(&values, low, high));
        }
        assert_eq!(idx.partition_sizes().iter().sum::<usize>(), 9000);
    }

    #[test]
    fn empty_input_and_ranges() {
        let idx = RangePartitionedCracker::new(vec![], 4);
        assert!(idx.is_empty());
        assert_eq!(idx.partition_count(), 1);
        assert_eq!(idx.count(0, 10).0, 0);
        let idx = RangePartitionedCracker::new(shuffled(100), 4);
        assert_eq!(idx.count(50, 50).0, 0);
        assert_eq!(idx.sum(70, 20).0, 0);
    }

    #[test]
    fn concurrent_clients_get_correct_answers() {
        let n = 20_000usize;
        let values = shuffled(n);
        let idx = Arc::new(RangePartitionedCracker::new(values.clone(), 4));
        let values = Arc::new(values);
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let idx = Arc::clone(&idx);
            let values = Arc::clone(&values);
            handles.push(thread::spawn(move || {
                let mut seed = t * 104729 + 7;
                for _ in 0..30 {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let a = (seed >> 17) as i64 % n as i64;
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let b = (seed >> 17) as i64 % n as i64;
                    let (low, high) = if a <= b { (a, b) } else { (b, a) };
                    let (c, _) = idx.count(low, high);
                    assert_eq!(c, ops::count(&values, low, high), "[{low},{high})");
                    let (s, _) = idx.sum(low, high);
                    assert_eq!(s, ops::sum(&values, low, high), "[{low},{high})");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(idx.check_invariants());
    }

    #[test]
    fn inserts_route_to_the_owning_partition() {
        let idx = RangePartitionedCracker::new(shuffled(4000), 4);
        idx.sum(0, 4000); // warm
        let sizes_before = idx.partition_sizes();
        let m = idx.insert(100);
        assert_eq!(m.inserts_applied, 1);
        idx.insert(100);
        idx.insert(3900);
        let sizes_after = idx.partition_sizes();
        // Exactly the owners of 100 and 3900 grew.
        let owner_low = partition_of(&idx.splits(), 100);
        let owner_high = partition_of(&idx.splits(), 3900);
        assert_eq!(sizes_after[owner_low], sizes_before[owner_low] + 2);
        assert_eq!(sizes_after[owner_high], sizes_before[owner_high] + 1);
        assert_eq!(idx.len(), 4003);
        // And the owner's ledger shrinks where the delete applies.
        let (removed, dm) = idx.delete(100);
        assert_eq!(removed, 3, "the seeded 100 plus both inserts");
        assert_eq!(dm.deletes_applied, 1);
        assert_eq!(
            idx.partition_sizes()[owner_low],
            sizes_before[owner_low] - 1
        );
        assert!(idx.check_invariants());
    }

    #[test]
    fn concurrent_writers_with_disjoint_domains_converge() {
        let n = 8000usize;
        let values = shuffled(n);
        let idx = Arc::new(RangePartitionedCracker::new(values.clone(), 4));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let idx = Arc::clone(&idx);
            handles.push(thread::spawn(move || {
                for i in 0..40u64 {
                    idx.insert((n as u64 + t * 40 + i) as i64);
                    assert_eq!(idx.delete((t * 40 + i) as i64).0, 1);
                    idx.count(0, n as i64);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(idx.count(i64::MIN, i64::MAX).0, n as u64);
        assert_eq!(idx.count(0, 160).0, 0);
        assert_eq!(idx.count(n as i64, (n + 160) as i64).0, 160);
        assert_eq!(idx.len(), n);
        assert!(idx.check_invariants());
    }

    #[test]
    fn per_partition_compaction_bounds_each_partitions_delta() {
        let values = shuffled(4000);
        let idx = RangePartitionedCracker::with_compaction_threshold(values.clone(), 4, 16);
        idx.sum(0, 4000); // warm: every partition cracks
        let mut oracle = values.clone();
        let mut max_pending = 0;
        for i in 0..800 {
            let key = i * 5; // spread inserts across all partitions
            idx.insert(key);
            oracle.push(key);
            let (pending, _) = idx.delta_stats();
            max_pending = max_pending.max(pending);
        }
        // Each partition compacts once its own delta reaches 16, so the
        // total across 4 partitions stays under 4 × 16.
        assert!(
            max_pending < 4 * 16,
            "per-partition compaction must bound the delta, saw {max_pending}"
        );
        let (_, merges) = idx.delta_stats();
        assert!(merges >= 800 / 64, "eager merges happened: {merges}");
        for (low, high) in [(0, 4000), (100, 300), (3000, 4000)] {
            assert_eq!(idx.count(low, high).0, ops::count(&oracle, low, high));
            assert_eq!(idx.sum(low, high).0, ops::sum(&oracle, low, high));
        }
        assert_eq!(idx.len(), oracle.len());
        assert!(idx.check_invariants());
    }

    #[test]
    fn incremental_compaction_threads_through_partitions() {
        let values = shuffled(4000);
        let idx = RangePartitionedCracker::with_compaction(
            values.clone(),
            4,
            CompactionPolicy::rows(16).incremental(4),
        );
        idx.sum(0, 4000); // warm: every partition cracks
        let mut oracle = values.clone();
        let mut max_pending = 0;
        // Churn: delete + re-insert spread across partitions, so the
        // per-partition walks merge in place.
        for i in 0..600 {
            let key = (i * 5) % 4000;
            let removed = idx.delete(key).0;
            let expected = oracle.iter().filter(|&&v| v == key).count() as u64;
            assert_eq!(removed, expected, "delete {key}");
            oracle.retain(|&v| v != key);
            idx.insert(key);
            oracle.push(key);
            let (pending, _) = idx.delta_stats();
            max_pending = max_pending.max(pending);
        }
        assert!(
            max_pending < 4 * 16,
            "incremental per-partition compaction must bound the delta, saw {max_pending}"
        );
        let (_, merges) = idx.delta_stats();
        assert!(merges > 0, "incremental steps ran: {merges}");
        for (low, high) in [(0, 4000), (100, 300), (3000, 4000)] {
            assert_eq!(idx.count(low, high).0, ops::count(&oracle, low, high));
            assert_eq!(idx.sum(low, high).0, ops::sum(&oracle, low, high));
        }
        assert_eq!(idx.len(), oracle.len());
        assert!(idx.check_invariants());
    }

    #[test]
    fn snapshot_pins_every_partition() {
        let values = shuffled(4000);
        let idx = RangePartitionedCracker::new(values.clone(), 4);
        idx.sum(0, 4000);
        let snap = idx.snapshot();
        assert_eq!(snap.epochs().len(), 4);
        // Writes to several partitions after the snapshot are invisible
        // through it.
        for key in [10, 1010, 2010, 3010] {
            assert_eq!(idx.delete(key).0, 1);
            idx.insert(key);
            idx.insert(key);
        }
        for (low, high) in [(0, 4000), (0, 50), (1000, 1050), (3000, 3050)] {
            assert_eq!(
                snap.count(low, high).0,
                ops::count(&values, low, high),
                "pinned count [{low},{high})"
            );
            assert_eq!(
                snap.sum(low, high).0,
                ops::sum(&values, low, high),
                "pinned sum [{low},{high})"
            );
        }
        // The live view sees the churn (each key net +1).
        assert_eq!(idx.count(0, 4000).0, 4004);
        drop(snap);
        assert!(idx.check_invariants());
    }

    #[test]
    fn snapshot_open_and_close_do_not_wait_for_a_busy_owner() {
        let values = shuffled(2000);
        let idx = RangePartitionedCracker::new(values.clone(), 2);
        // Park partition 0's owner inside a long Inspect until released.
        let (entered_tx, entered_rx) = channel();
        let (release_tx, release_rx) = channel::<()>();
        let table = idx.shared.current_table();
        let _parked = post(&table.partitions[0], move |_| {
            entered_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        });
        entered_rx.recv().unwrap();
        let (opened_tx, opened_rx) = channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                let snap = idx.snapshot();
                let epochs = snap.epochs().to_vec();
                drop(snap);
                opened_tx.send(epochs).unwrap();
            });
            let opened = opened_rx.recv_timeout(Duration::from_secs(30));
            release_tx.send(()).unwrap();
            let epochs = opened.expect("a snapshot open/close waited for the parked owner");
            assert_eq!(epochs.len(), 2);
        });
        let registered: usize = table
            .partitions
            .iter()
            .map(|p| p.index.live_snapshots())
            .sum();
        assert_eq!(registered, 0, "the close released every partition");
        assert_eq!(idx.count(0, 2000).0, 2000);
        assert!(idx.check_invariants());
    }

    #[test]
    fn snapshot_survives_incremental_compaction_steps() {
        let values = shuffled(3000);
        let idx = RangePartitionedCracker::with_compaction(
            values.clone(),
            3,
            CompactionPolicy::rows(8).incremental(4),
        );
        idx.sum(0, 3000);
        let snap = idx.snapshot();
        // Churn enough rows that every partition's threshold trips
        // several times — at least 3 incremental steps per partition.
        for i in 0..300 {
            let key = (i * 7) % 3000;
            idx.delete(key);
            idx.insert(key);
        }
        let (_, merges) = idx.delta_stats();
        assert!(merges >= 3, "steps ran while the snapshot was pinned");
        for (low, high) in [(0, 3000), (100, 200), (2500, 3000)] {
            assert_eq!(
                snap.count(low, high).0,
                ops::count(&values, low, high),
                "pinned count [{low},{high}) across steps"
            );
            assert_eq!(
                snap.sum(low, high).0,
                ops::sum(&values, low, high),
                "pinned sum [{low},{high}) across steps"
            );
        }
        drop(snap);
        assert!(idx.check_invariants());
    }

    #[test]
    fn rowid_reads_route_to_overlapping_partitions() {
        let values = shuffled(4000);
        let idx = RangePartitionedCracker::new(values.clone(), 4);
        let oracle = |low: i64, high: i64| -> Vec<RowId> {
            let mut out: Vec<RowId> = values
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v >= low && v < high)
                .map(|(i, _)| i as RowId)
                .collect();
            out.sort_unstable();
            out
        };
        for (low, high) in [(0, 4000), (100, 300), (3999, 4000), (300, 100)] {
            let (rows, m) = idx.select_rowids(low, high);
            assert_eq!(rows, oracle(low, high), "[{low},{high})");
            assert_eq!(m.result_count, rows.len() as u64);
        }
        assert!(idx.check_invariants());
    }

    #[test]
    fn range_snapshot_rowid_reads_are_frozen() {
        let values = shuffled(3000);
        let idx = RangePartitionedCracker::with_compaction(
            values.clone(),
            3,
            CompactionPolicy::rows(8).incremental(4),
        );
        idx.sum(0, 3000);
        let before = idx.select_rowids(1000, 1100).0;
        let snap = idx.snapshot();
        for key in [1000, 1050, 1099] {
            assert_eq!(idx.delete(key).0, 1);
            idx.insert(key);
        }
        assert_eq!(snap.rowids(1000, 1100).0, before, "pinned rowid view");
        drop(snap);
        let after = idx.select_rowids(1000, 1100).0;
        assert_eq!(after.len(), before.len());
        assert_ne!(after, before, "replacement rows have fresh ids");
        assert!(idx.check_invariants());
    }

    #[test]
    fn batch_routing_coalesces_under_many_clients() {
        // 16 clients hammer queries that all overlap every partition: the
        // owners' drain loop must process several queued requests per
        // wakeup at least some of the time.
        let n = 30_000usize;
        let values = shuffled(n);
        let idx = Arc::new(RangePartitionedCracker::new(values.clone(), 2));
        let values = Arc::new(values);
        let mut handles = Vec::new();
        for t in 0..16u64 {
            let idx = Arc::clone(&idx);
            let values = Arc::clone(&values);
            handles.push(thread::spawn(move || {
                let mut seed = t * 6151 + 3;
                for _ in 0..50 {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let a = (seed >> 17) as i64 % n as i64;
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let b = (seed >> 17) as i64 % n as i64;
                    let (low, high) = if a <= b { (a, b) } else { (b, a) };
                    let (c, _) = idx.count(low, high);
                    assert_eq!(c, ops::count(&values, low, high), "[{low},{high})");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = idx.routing_stats();
        assert!(
            stats.ops >= 16 * 50,
            "every routed request was processed: {stats:?}"
        );
        assert!(
            stats.ops > stats.batches,
            "16 clients against 2 owners must coalesce at least once: {stats:?}"
        );
        assert!(stats.ops_per_batch() > 1.0, "{stats:?}");
        assert!(idx.check_invariants());
    }

    #[test]
    fn structure_probe_merges_partitions_and_reports_routed_load() {
        let values = shuffled(4000);
        let idx = RangePartitionedCracker::new(values, 4);
        // Narrow queries against the low end: the routed load skews to
        // partition 0.
        for i in 0..20 {
            idx.count(i, i + 5);
        }
        idx.sum(0, 4000); // cracks every partition
        let probe = idx.structure_probe();
        assert_eq!(probe.rows, 4000);
        assert_eq!(probe.partition_load.len(), 4);
        assert!(probe.piece_count() >= 4, "every partition cracked");
        assert_eq!(probe.piece_sizes.iter().sum::<u64>(), 4000);
        let load = &probe.partition_load;
        assert!(
            load[0] > load[1] && load[0] > load[2] && load[0] > load[3],
            "low-end queries must skew the routed load: {load:?}"
        );
        assert_eq!(
            load.iter().sum::<u64>(),
            idx.routing_stats().ops,
            "per-partition loads account for every routed request"
        );
        let stats = probe.summarize();
        assert_eq!(stats.partitions, 4);
        assert!(stats.partition_load.max >= 20);
    }

    #[test]
    fn drop_joins_owner_threads() {
        let idx = RangePartitionedCracker::new(shuffled(1000), 4);
        idx.count(10, 500);
        drop(idx); // must not hang or leak threads
    }

    #[test]
    fn partition_of_routes_keys_to_split_ranges() {
        let splits = vec![10, 20, 30];
        assert_eq!(partition_of(&splits, i64::MIN), 0);
        assert_eq!(partition_of(&splits, 9), 0);
        assert_eq!(partition_of(&splits, 10), 1);
        assert_eq!(partition_of(&splits, 19), 1);
        assert_eq!(partition_of(&splits, 20), 2);
        assert_eq!(partition_of(&splits, 30), 3);
        assert_eq!(partition_of(&splits, i64::MAX), 3);
    }

    #[test]
    fn adaptive_answers_match_oracle_without_rebalance() {
        // Thresholds high enough that no rebalance ever triggers: the
        // adaptive arm must behave exactly like the static one.
        let values = shuffled(6000);
        let idx = RangePartitionedCracker::adaptive(values.clone(), 3, quiet(1e9, 6000, u64::MAX));
        assert!(idx.is_adaptive());
        assert!(!RangePartitionedCracker::new(vec![1, 2], 1).is_adaptive());
        let mut oracle = values.clone();
        for (low, high) in [(0, 6000), (100, 200), (5999, 6000), (300, 100)] {
            assert_eq!(idx.count(low, high).0, ops::count(&oracle, low, high));
            assert_eq!(idx.sum(low, high).0, ops::sum(&oracle, low, high));
        }
        idx.insert(42);
        oracle.push(42);
        assert_eq!(idx.delete(100).0, 1);
        oracle.retain(|&v| v != 100);
        assert_eq!(idx.count(0, 6000).0, ops::count(&oracle, 0, 6000));
        assert_eq!(idx.len(), oracle.len());
        assert_eq!(idx.try_rebalance(), Rebalance::Balanced);
        assert_eq!(idx.partition_count(), 3);
        assert!(idx.check_invariants());
    }

    #[test]
    fn adaptive_split_occurs_under_skew_and_preserves_answers() {
        let values = shuffled(8000);
        let idx = RangePartitionedCracker::adaptive(values.clone(), 2, quiet(1.5, 64, 16));
        // Hammer the low end: all load lands on partition 0.
        for i in 0..300i64 {
            let low = i % 1000;
            idx.count(low, low + 50);
        }
        let outcome = idx.try_rebalance();
        assert!(
            matches!(outcome, Rebalance::Split { .. }),
            "skewed load must split the hot partition: {outcome:?}"
        );
        assert_eq!(idx.partition_count(), 3);
        assert_eq!(idx.splits_performed(), 1);
        assert!(idx.splits().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(idx.partition_sizes().iter().sum::<usize>(), 8000);
        let mut oracle = values.clone();
        for (low, high) in [(0, 8000), (0, 1050), (500, 600), (7000, 8000)] {
            assert_eq!(idx.count(low, high).0, ops::count(&oracle, low, high));
            assert_eq!(idx.sum(low, high).0, ops::sum(&oracle, low, high));
        }
        // Writes still route correctly through the new generation.
        idx.insert(500);
        oracle.push(500);
        assert_eq!(idx.delete(501).0, 1);
        oracle.retain(|&v| v != 501);
        assert_eq!(idx.count(0, 8000).0, ops::count(&oracle, 0, 8000));
        assert_eq!(idx.len(), oracle.len());
        assert!(idx.check_invariants());
    }

    #[test]
    fn adaptive_merge_recycles_cold_partitions_at_cap() {
        let values = shuffled(9000);
        let mut config = quiet(1.5, 64, 16);
        config.max_partitions = 3;
        let idx = RangePartitionedCracker::adaptive(values.clone(), 3, config);
        // Hot partition 0 at the owner cap: the pass merges the coldest
        // adjacent pair (1, 2) instead of splitting.
        for i in 0..300i64 {
            let low = i % 500;
            idx.count(low, low + 20);
        }
        let outcome = idx.try_rebalance();
        assert!(
            matches!(outcome, Rebalance::Merged { .. }),
            "at the cap the coldest pair must merge: {outcome:?}"
        );
        assert_eq!(idx.partition_count(), 2);
        assert_eq!(idx.merges_performed(), 1);
        assert_eq!(idx.partition_sizes().iter().sum::<usize>(), 9000);
        for (low, high) in [(0, 9000), (0, 520), (4000, 8000)] {
            assert_eq!(idx.count(low, high).0, ops::count(&values, low, high));
            assert_eq!(idx.sum(low, high).0, ops::sum(&values, low, high));
        }
        // With a freed owner the still-hot partition can now split.
        for i in 0..300i64 {
            let low = i % 500;
            idx.count(low, low + 20);
        }
        let outcome = idx.try_rebalance();
        assert!(
            matches!(outcome, Rebalance::Split { .. }),
            "after the merge the hot partition splits: {outcome:?}"
        );
        assert_eq!(idx.partition_count(), 3);
        assert_eq!(idx.count(0, 9000).0, 9000);
        assert!(idx.check_invariants());
    }

    #[test]
    fn queries_racing_repartition_never_drop_rows() {
        let n = 20_000usize;
        let values = shuffled(n);
        let mut config = quiet(1.05, 64, 1);
        config.max_partitions = 6;
        let idx = Arc::new(RangePartitionedCracker::adaptive(values.clone(), 4, config));
        let stop = Arc::new(AtomicBool::new(false));
        let mut clients = Vec::new();
        for _ in 0..4 {
            let idx = Arc::clone(&idx);
            let stop = Arc::clone(&stop);
            clients.push(thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    // A full-range count sees every row exactly once,
                    // whichever routing generation served it.
                    let (c, _) = idx.count(i64::MIN, i64::MAX);
                    assert_eq!(c, n as u64, "racing query dropped or doubled rows");
                }
            }));
        }
        for round in 0..40 {
            for i in 0..200i64 {
                let low = (round * 37 + i) % 1000;
                idx.count(low, low + 50);
            }
            idx.try_rebalance();
            if idx.splits_performed() >= 3 {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        for c in clients {
            c.join().unwrap();
        }
        assert!(
            idx.splits_performed() >= 1,
            "the race test must exercise at least one split"
        );
        for (low, high) in [(0, n as i64), (0, 1050), (500, 600)] {
            assert_eq!(idx.count(low, high).0, ops::count(&values, low, high));
            assert_eq!(idx.sum(low, high).0, ops::sum(&values, low, high));
        }
        assert_eq!(idx.partition_sizes().iter().sum::<usize>(), n);
        assert!(idx.check_invariants());
    }

    #[test]
    fn snapshot_blocks_repartition() {
        let values = shuffled(8000);
        let idx = RangePartitionedCracker::adaptive(values.clone(), 2, quiet(1.5, 64, 16));
        for i in 0..300i64 {
            let low = i % 1000;
            idx.count(low, low + 50);
        }
        let snap = idx.snapshot();
        assert_eq!(
            idx.try_rebalance(),
            Rebalance::SnapshotPinned,
            "a live snapshot pins row positions"
        );
        assert_eq!(idx.partition_count(), 2);
        assert_eq!(snap.count(0, 8000).0, 8000);
        drop(snap);
        // The aborted pass must not have consumed the load window: the
        // retry still sees the skew and splits.
        let outcome = idx.try_rebalance();
        assert!(
            matches!(outcome, Rebalance::Split { .. }),
            "closing the snapshot unblocks the split: {outcome:?}"
        );
        assert_eq!(idx.partition_count(), 3);
        assert_eq!(idx.count(0, 8000).0, 8000);
        assert!(idx.check_invariants());
    }

    #[test]
    fn stealing_precracks_idle_partitions() {
        let values = shuffled(16_000);
        let config = AdaptiveConfig {
            check_interval: None,
            steal: true,
            steal_min_piece: 128,
            steal_poll: Duration::from_millis(1),
            ..AdaptiveConfig::default()
        };
        let idx = RangePartitionedCracker::adaptive(values.clone(), 4, config);
        // No queries at all: the owners are idle, so their poll timeouts
        // must turn into refinement steals against the big uncracked
        // initial pieces.
        for _ in 0..500 {
            if idx.steal_count() > 0 {
                break;
            }
            thread::sleep(Duration::from_millis(2));
        }
        assert!(
            idx.steal_count() > 0,
            "idle owners must pre-crack large pieces"
        );
        for (low, high) in [(0, 16_000), (100, 300), (8000, 9000)] {
            assert_eq!(idx.count(low, high).0, ops::count(&values, low, high));
            assert_eq!(idx.sum(low, high).0, ops::sum(&values, low, high));
        }
        assert!(idx.check_invariants(), "stolen refinement kept invariants");
    }

    #[test]
    fn monitor_thread_rebalances_automatically() {
        let values = shuffled(8000);
        let config = AdaptiveConfig {
            check_interval: Some(Duration::from_millis(1)),
            imbalance_threshold: 1.2,
            min_partition_rows: 64,
            min_window_ops: 32,
            steal: false,
            ..AdaptiveConfig::default()
        };
        let idx = RangePartitionedCracker::adaptive(values.clone(), 2, config);
        for _ in 0..200 {
            for i in 0..100i64 {
                let low = i % 1000;
                idx.count(low, low + 50);
            }
            if idx.splits_performed() > 0 {
                break;
            }
            thread::sleep(Duration::from_millis(2));
        }
        assert!(
            idx.splits_performed() > 0,
            "the monitor thread must split the hot partition on its own"
        );
        assert_eq!(idx.count(0, 8000).0, 8000);
        // The monitor is still running: a live snapshot fences further
        // re-partitioning, so the size ledgers are read between splits
        // (mid-split the moved rows are in neither partition's ledger).
        let _fence = idx.snapshot();
        assert_eq!(idx.partition_sizes().iter().sum::<usize>(), 8000);
        assert!(idx.check_invariants());
    }
}
