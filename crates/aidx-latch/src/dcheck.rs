//! Runtime latch-order / invariant checker (`dcheck` feature, default off).
//!
//! Three checks, all zero-cost when the feature is disabled (every function
//! compiles to an empty inline body):
//!
//! 1. **Acquisition order** — a thread-local acquisition stack records every
//!    tagged latch/lock a thread holds. Acquiring a level *below* the highest
//!    currently-held level panics with the full acquisition trace. The
//!    enforced global order is documented in `docs/latch-order.md`:
//!    table writer (0) → repartition controller (1) → snapshot gate (2) →
//!    routing table (3) →
//!    quiesce gate (4) → column latch (5) → piece latch (6) → shrink
//!    serial (7) → delta lock (8) → TOC lock (9).
//! 2. **Witness graph** — acquisitions also record held-before edges in a
//!    process-wide graph, so *same-level* inversions that never collide on
//!    one thread (thread A: p1 then p2; thread B: p2 then p1) are caught the
//!    first time both orders have been witnessed, even if no deadlock
//!    actually occurred.
//! 3. **Seqlock read-side discipline** — every even-epoch read of the shrink
//!    seqlock must be re-validated (or explicitly ended via the paused path)
//!    before the next read begins; reads must never start under an odd
//!    epoch.
//!
//! The lock manager's `lock_with_timeout` feeds the same machinery at the
//! transaction level via [`note_txn_wait`], so a timeout diagnostic can say
//! whether the observed waits-for edges already form a cycle.
//!
//! This module intentionally uses raw `std::sync` internally: the checker
//! must not recurse through the facade primitives it is checking (it is
//! exempted from `aidx-lint`'s facade rule for exactly this reason).

use std::sync::atomic::{AtomicUsize, Ordering};

/// The global acquisition order (see `docs/latch-order.md`). Variants are
/// ordered: acquiring a numerically lower level while holding a higher one
/// is a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Level {
    /// A table engine's writer mutex (outermost): held by every table
    /// write for its whole duration and by a read operation while it pins
    /// its cut — which, on a range-partitioned column, takes the snapshot
    /// gate under it. A join takes two tables' writer mutexes in address
    /// order.
    TableWriter = 0,
    /// The range-router's repartition controller mutex (at most one
    /// split/merge system transaction in flight per index).
    Repartition = 1,
    /// The range-router's snapshot gate: range-snapshot opens take it
    /// shared, a repartition holds it exclusive for its whole protocol.
    SnapshotGate = 2,
    /// The range-router's routing-table lock: readers pin the current
    /// table briefly, a repartition swaps it exclusively.
    Router = 3,
    /// The piece directory's quiesce gate (entered once per operation).
    Gate = 4,
    /// The column-wide `OrderedWaitLatch` (compaction rebuilds).
    Column = 5,
    /// A per-piece `OrderedWaitLatch`.
    Piece = 6,
    /// The shrink-serial mutex serialising hole reclamation.
    ShrinkSerial = 7,
    /// The pending-delta state lock.
    Delta = 8,
    /// The table-of-contents (piece directory) lock (innermost).
    Toc = 9,
}

static NEXT_INSTANCE: AtomicUsize = AtomicUsize::new(1);

/// Allocates a process-unique id for one index/delta instance, so witness
/// ids from unrelated instances never collide.
pub fn instance_id() -> usize {
    NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed)
}

/// True when the runtime checker is compiled in.
pub const fn enabled() -> bool {
    cfg!(feature = "dcheck")
}

/// Records acquisition of a tagged resource by the current thread, checking
/// the global order and the cross-thread witness graph.
#[inline]
pub fn acquire(level: Level, id: usize, label: &'static str) {
    #[cfg(feature = "dcheck")]
    imp::acquire(level, id, label);
    #[cfg(not(feature = "dcheck"))]
    let _ = (level, id, label);
}

/// Records release of a tagged resource by the current thread.
#[inline]
pub fn release(level: Level, id: usize) {
    #[cfg(feature = "dcheck")]
    imp::release(level, id);
    #[cfg(not(feature = "dcheck"))]
    let _ = (level, id);
}

/// Marks the start of a seqlock read under `epoch` (must be even).
#[inline]
pub fn seq_read_begin(epoch: u64) {
    #[cfg(feature = "dcheck")]
    imp::seq_read_begin(epoch);
    #[cfg(not(feature = "dcheck"))]
    let _ = epoch;
}

/// Marks the end of the open seqlock read (validated or abandoned for a
/// retry / paused-reclaim exit).
#[inline]
pub fn seq_read_end() {
    #[cfg(feature = "dcheck")]
    imp::seq_read_end();
}

/// Records a transaction-level waits-for edge (waiter → holder) observed by
/// the lock manager. Returns true when the recorded edges now contain a
/// cycle through `waiter` (a likely transaction deadlock).
#[inline]
pub fn note_txn_wait(waiter: u64, holder: u64) -> bool {
    #[cfg(feature = "dcheck")]
    {
        imp::note_txn_wait(waiter, holder)
    }
    #[cfg(not(feature = "dcheck"))]
    {
        let _ = (waiter, holder);
        false
    }
}

/// Clears every waits-for edge whose waiter is `txn` — called when the wait
/// ends (lock granted or waiter gave up), so stale edges don't report
/// phantom cycles for later transactions reusing the id.
#[inline]
pub fn clear_txn_waits(txn: u64) {
    #[cfg(feature = "dcheck")]
    imp::clear_txn_waits(txn);
    #[cfg(not(feature = "dcheck"))]
    let _ = txn;
}

/// The current thread's acquisition trace (empty string when disabled).
pub fn acquisition_trace() -> String {
    #[cfg(feature = "dcheck")]
    {
        imp::acquisition_trace()
    }
    #[cfg(not(feature = "dcheck"))]
    {
        String::new()
    }
}

/// An RAII wrapper that records `acquire` on construction and `release` on
/// drop, for guards whose primitive has no dcheck hook of its own (facade
/// mutex guards in `aidx-core`).
pub struct Tracked<G> {
    inner: G,
    level: Level,
    id: usize,
}

impl<G> Tracked<G> {
    /// Wraps an already-acquired guard, recording the acquisition.
    pub fn new(level: Level, id: usize, label: &'static str, inner: G) -> Self {
        acquire(level, id, label);
        Tracked { inner, level, id }
    }
}

impl<G: std::ops::Deref> std::ops::Deref for Tracked<G> {
    type Target = G::Target;
    fn deref(&self) -> &Self::Target {
        &self.inner
    }
}

impl<G: std::ops::DerefMut> std::ops::DerefMut for Tracked<G> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.inner
    }
}

impl<G> Drop for Tracked<G> {
    fn drop(&mut self) {
        release(self.level, self.id);
    }
}

#[cfg(feature = "dcheck")]
mod imp {
    use super::Level;
    use std::cell::{Cell, RefCell};
    use std::collections::{HashMap, HashSet};
    use std::fmt::Write as _;
    use std::sync::{Mutex, OnceLock, PoisonError};

    #[derive(Clone, Copy)]
    struct Frame {
        level: Level,
        id: usize,
        label: &'static str,
    }

    thread_local! {
        static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
        static SEQ_OPEN: Cell<Option<u64>> = const { Cell::new(None) };
    }

    type Node = (u8, usize);

    #[derive(Default)]
    struct Witness {
        edges: HashMap<Node, HashSet<Node>>,
        labels: HashMap<Node, &'static str>,
    }

    fn witness() -> &'static Mutex<Witness> {
        static W: OnceLock<Mutex<Witness>> = OnceLock::new();
        W.get_or_init(|| Mutex::new(Witness::default()))
    }

    fn reaches(edges: &HashMap<Node, HashSet<Node>>, from: Node, to: Node) -> bool {
        let mut stack = vec![from];
        let mut seen = HashSet::new();
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = edges.get(&n) {
                stack.extend(next.iter().copied());
            }
        }
        false
    }

    pub(super) fn acquisition_trace() -> String {
        STACK.with(|s| {
            let s = s.borrow();
            if s.is_empty() {
                return "  (no tagged latches held)\n".to_string();
            }
            let mut out = String::new();
            for f in s.iter() {
                let _ = writeln!(
                    out,
                    "  - level {} {} (instance #{})",
                    f.level as u8, f.label, f.id
                );
            }
            out
        })
    }

    pub(super) fn acquire(level: Level, id: usize, label: &'static str) {
        STACK.with(|s| {
            {
                let stack = s.borrow();
                if let Some(worst) = stack.iter().max_by_key(|f| f.level) {
                    if level < worst.level {
                        let trace = stack
                            .iter()
                            .map(|f| {
                                format!(
                                    "  - level {} {} (instance #{})",
                                    f.level as u8, f.label, f.id
                                )
                            })
                            .collect::<Vec<_>>()
                            .join("\n");
                        panic!(
                            "dcheck: latch-order inversion: acquiring level {} ({label}, \
                             instance #{id}) while holding level {} ({})\nacquisition stack:\n{trace}",
                            level as u8, worst.level as u8, worst.label
                        );
                    }
                }
                if stack.iter().any(|f| f.level == level && f.id == id) {
                    panic!(
                        "dcheck: re-entrant acquisition of level {} {label} (instance #{id}) \
                         — self-deadlock\nacquisition stack:\n{}",
                        level as u8,
                        acquisition_trace()
                    );
                }
                // Held-before edges into the witness graph; a cycle means the
                // opposite order was witnessed on some other thread.
                let mut w = witness().lock().unwrap_or_else(PoisonError::into_inner);
                let to: super::Level = level;
                let to_node: Node = (to as u8, id);
                w.labels.insert(to_node, label);
                for f in stack.iter() {
                    let from_node: Node = (f.level as u8, f.id);
                    if from_node == to_node {
                        continue;
                    }
                    if reaches(&w.edges, to_node, from_node) {
                        let from_label = w.labels.get(&from_node).copied().unwrap_or("?");
                        panic!(
                            "dcheck: witness-graph cycle: this thread orders {} (instance #{}) \
                             before {label} (instance #{id}), but the opposite order was already \
                             witnessed\nacquisition stack:\n{}",
                            from_label, f.id, acquisition_trace()
                        );
                    }
                    w.edges.entry(from_node).or_default().insert(to_node);
                }
            }
            s.borrow_mut().push(Frame { level, id, label });
        });
    }

    pub(super) fn release(level: Level, id: usize) {
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            match stack.iter().rposition(|f| f.level == level && f.id == id) {
                Some(pos) => {
                    stack.remove(pos);
                }
                None => {
                    // Releasing an untracked frame is tolerated while
                    // unwinding (guards drop during order-violation panics).
                    if !std::thread::panicking() {
                        panic!(
                            "dcheck: release of level {} (instance #{id}) that this thread \
                             does not hold",
                            level as u8
                        );
                    }
                }
            }
        });
    }

    pub(super) fn seq_read_begin(epoch: u64) {
        if epoch % 2 == 1 {
            panic!(
                "dcheck: seqlock read began under odd epoch {epoch} (reclamation in flight); \
                 stable_shrink_epoch must only return even epochs"
            );
        }
        SEQ_OPEN.with(|open| {
            if let Some(prev) = open.get() {
                panic!(
                    "dcheck: seqlock read-side discipline violated: a read under epoch {prev} \
                     was neither re-validated nor abandoned before the next read began"
                );
            }
            open.set(Some(epoch));
        });
    }

    pub(super) fn seq_read_end() {
        SEQ_OPEN.with(|open| {
            if open.get().is_none() && !std::thread::panicking() {
                panic!("dcheck: seqlock validation without an open even-epoch read");
            }
            open.set(None);
        });
    }

    #[derive(Default)]
    struct TxnWaits {
        edges: HashMap<u64, HashSet<u64>>,
    }

    fn txn_waits() -> &'static Mutex<TxnWaits> {
        static W: OnceLock<Mutex<TxnWaits>> = OnceLock::new();
        W.get_or_init(|| Mutex::new(TxnWaits::default()))
    }

    pub(super) fn note_txn_wait(waiter: u64, holder: u64) -> bool {
        let mut w = txn_waits().lock().unwrap_or_else(PoisonError::into_inner);
        w.edges.entry(waiter).or_default().insert(holder);
        // Cycle through the waiter: can the holder (transitively) be waiting
        // on the waiter?
        let mut stack = vec![holder];
        let mut seen = HashSet::new();
        while let Some(t) = stack.pop() {
            if t == waiter {
                return true;
            }
            if !seen.insert(t) {
                continue;
            }
            if let Some(next) = w.edges.get(&t) {
                stack.extend(next.iter().copied());
            }
        }
        false
    }

    pub(super) fn clear_txn_waits(txn: u64) {
        let mut w = txn_waits().lock().unwrap_or_else(PoisonError::into_inner);
        w.edges.remove(&txn);
    }
}

#[cfg(all(test, feature = "dcheck"))]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    // Each test uses fresh instance ids, so the process-wide witness graph
    // never aliases resources across tests.

    #[test]
    fn in_order_acquisition_passes() {
        let (a, b) = (instance_id(), instance_id());
        acquire(Level::Column, a, "column");
        acquire(Level::Piece, b, "piece");
        release(Level::Piece, b);
        release(Level::Column, a);
    }

    #[test]
    fn router_levels_nest_above_every_core_level() {
        // The three router-side levels added for skew-adaptive
        // repartitioning must sit strictly outside the core hierarchy,
        // and the table writer mutex outside them.
        let ids: Vec<usize> = (0..10).map(|_| instance_id()).collect();
        let order = [
            (Level::TableWriter, "table-writer"),
            (Level::Repartition, "repartition"),
            (Level::SnapshotGate, "snapshot-gate"),
            (Level::Router, "router"),
            (Level::Gate, "quiesce-gate"),
            (Level::Column, "column"),
            (Level::Piece, "piece"),
            (Level::ShrinkSerial, "shrink-serial"),
            (Level::Delta, "delta"),
            (Level::Toc, "toc"),
        ];
        for (i, (level, label)) in order.iter().enumerate() {
            acquire(*level, ids[i], label);
        }
        for (i, (level, _)) in order.iter().enumerate().rev() {
            release(*level, ids[i]);
        }
        // And the inversion (core level held, router level requested) panics.
        let (g, r) = (instance_id(), instance_id());
        acquire(Level::Gate, g, "quiesce-gate");
        let err = catch_unwind(AssertUnwindSafe(|| {
            acquire(Level::Router, r, "router");
        }))
        .expect_err("router-under-gate must panic");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("latch-order inversion"), "{msg}");
        release(Level::Gate, g);
    }

    #[test]
    fn seeded_inversion_is_caught_with_trace() {
        // The deliberate latch-order inversion: delta lock before column.
        let (d, c) = (instance_id(), instance_id());
        acquire(Level::Delta, d, "delta");
        let err = catch_unwind(AssertUnwindSafe(|| {
            acquire(Level::Column, c, "column");
        }))
        .expect_err("inversion must panic");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("latch-order inversion"), "{msg}");
        assert!(msg.contains("acquisition stack"), "{msg}");
        assert!(msg.contains("delta"), "{msg}");
        release(Level::Delta, d);
    }

    #[test]
    fn reentrant_acquisition_is_caught() {
        let t = instance_id();
        acquire(Level::Toc, t, "toc");
        let err = catch_unwind(AssertUnwindSafe(|| {
            acquire(Level::Toc, t, "toc");
        }))
        .expect_err("re-entry must panic");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("re-entrant"), "{msg}");
        release(Level::Toc, t);
    }

    #[test]
    fn same_level_witness_cycle_is_caught_across_threads() {
        let (p1, p2) = (instance_id(), instance_id());
        // Thread A orders p1 before p2.
        std::thread::spawn(move || {
            acquire(Level::Piece, p1, "piece-1");
            acquire(Level::Piece, p2, "piece-2");
            release(Level::Piece, p2);
            release(Level::Piece, p1);
        })
        .join()
        .unwrap();
        // Thread B (this one) orders p2 before p1: no deadlock occurs, but
        // the witness graph has seen both orders.
        acquire(Level::Piece, p2, "piece-2");
        let err = catch_unwind(AssertUnwindSafe(|| {
            acquire(Level::Piece, p1, "piece-1");
        }))
        .expect_err("witness cycle must panic");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("witness-graph cycle"), "{msg}");
        release(Level::Piece, p2);
    }

    #[test]
    fn seq_read_must_be_validated_before_next_read() {
        seq_read_begin(4);
        seq_read_end();
        seq_read_begin(6);
        let err = catch_unwind(AssertUnwindSafe(|| {
            seq_read_begin(8);
        }))
        .expect_err("unvalidated read must panic");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("read-side discipline"), "{msg}");
        seq_read_end();
    }

    #[test]
    fn seq_read_rejects_odd_epoch() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            seq_read_begin(3);
        }))
        .expect_err("odd epoch must panic");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("odd epoch"), "{msg}");
    }

    #[test]
    fn txn_wait_cycle_detection() {
        // Use txn ids far from other tests' to keep the global graph clean.
        let base = 1_000_000 + instance_id() as u64 * 100;
        assert!(!note_txn_wait(base + 1, base + 2));
        assert!(!note_txn_wait(base + 2, base + 3));
        assert!(note_txn_wait(base + 3, base + 1), "3→1 closes the cycle");
    }

    #[test]
    fn cleared_txn_waits_do_not_report_phantom_cycles() {
        let base = 2_000_000 + instance_id() as u64 * 100;
        assert!(!note_txn_wait(base + 1, base + 2));
        clear_txn_waits(base + 1);
        // Without the clear this would close base+1 → base+2 → base+1.
        assert!(!note_txn_wait(base + 2, base + 1));
        clear_txn_waits(base + 2);
    }
}
