//! Partition owners: the requests the router and the repartition
//! controller send them, each owner thread's working state (redirects
//! included), its batch-draining loop and refinement stealing.

use super::{adjust_len, elapsed_ns, Partition, RoutingCounters, Shared};
use aidx_core::{ConcurrentCracker, QueryMetrics, ReadAnswer, ReadShape, WriteOp};
use aidx_obs::{emit, TraceEvent};
use aidx_storage::RowId;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// A request routed to one partition owner. Client traffic is `Read`,
/// `Write` and `Inspect` — counted as routed ops and subject to the
/// owner's redirect; the rest are repartition control messages.
pub(super) enum OwnerRequest {
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

pub(super) fn spawn_owner(
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
