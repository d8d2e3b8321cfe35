//! Exclusive latch with a bound-sorted waiter queue and middle-first wake-up.
//!
//! Section 5.3 ("Optimizations") observes that when several queries wait for
//! a write latch on the same cracking piece, the order in which they wake up
//! matters: if the waiters run in bound order, each successive query finds
//! its bound inside the piece the previous query just shrank, so the queue
//! drains serially. If instead the query whose bound lies in the *middle* of
//! the waiting bounds runs first, it splits the piece roughly in half and the
//! remaining waiters fall into disjoint halves that can then proceed in
//! parallel.
//!
//! [`OrderedWaitLatch`] implements that policy: write waiters register the
//! crack bound they intend to apply; the queue is kept sorted by bound
//! (insertion sort, as in the paper); and on release the waiter at the middle
//! of the queue is granted the latch next. Readers (aggregation operators)
//! are compatible with each other and are admitted whenever no writer holds
//! the latch and no writer has already been chosen to run next.

use crate::facade::{Condvar, Mutex, MutexGuard};
use crate::stats::LatchStatsSnapshot;
use std::time::{Duration, Instant};

/// Describes whether an acquisition was granted immediately or had to wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// The latch was free (in the requested mode) when requested.
    Immediate,
    /// The caller waited for the given duration before being granted.
    Waited(Duration),
}

impl WaitOutcome {
    /// The time spent waiting (zero for [`WaitOutcome::Immediate`]).
    pub fn wait_time(&self) -> Duration {
        match self {
            WaitOutcome::Immediate => Duration::ZERO,
            WaitOutcome::Waited(d) => *d,
        }
    }

    /// True if the acquisition had to wait.
    pub fn contended(&self) -> bool {
        matches!(self, WaitOutcome::Waited(_))
    }
}

/// `holders` of a latch held exclusively.
const EXCLUSIVE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Waiter {
    ticket: u64,
    bound: i64,
}

/// What a latch needs only once an acquisition had to wait or was given
/// up: the write waiters and the contention counters.
#[derive(Debug, Default)]
struct Queue {
    next_ticket: u64,
    /// Write waiters, kept sorted by `bound` (insertion sort on arrival).
    write_waiters: Vec<Waiter>,
    /// Ticket of the write waiter chosen to run next, if any.
    chosen: Option<u64>,
    read_conflicts: u64,
    write_conflicts: u64,
    wait_nanos: u64,
    abandoned: u64,
}

/// The latch's state, all of it under the mutex. What every acquisition
/// reads or counts — the holders, the sleepers and the two acquisition
/// counters — is inline, beside the mutex word, so that the whole latch
/// with its condvar takes 48 bytes; the queue is made the first time it
/// is needed.
#[derive(Debug)]
struct State {
    /// Shared holders, or [`EXCLUSIVE`]; 0 while the latch is free.
    holders: u32,
    /// Threads blocked in `condvar.wait`, readers and writers alike:
    /// counted up before a wait and down after it, both under the mutex,
    /// so a release that reads zero has nobody to wake and skips the
    /// notification — and with it the futex syscall the condvar makes on
    /// every notify. A waiter counted before the release took the mutex is
    /// already queued on the condvar when the notification comes, and one
    /// that arrives later sees the released state before it waits.
    sleepers: u32,
    read_acquisitions: u64,
    write_acquisitions: u64,
    queue: Option<Box<Queue>>,
    /// Identity for the runtime latch-order checker, read and replaced
    /// under the mutex.
    #[cfg(feature = "dcheck")]
    tag: Option<(crate::dcheck::Level, usize, &'static str)>,
}

impl State {
    /// True unless a write waiter is queued or chosen to run next: the
    /// one case in which a free latch is not granted on request.
    fn no_writer_ahead(&self) -> bool {
        let queue = self.queue.as_deref();
        queue.is_none_or(|q| q.chosen.is_none() && q.write_waiters.is_empty())
    }

    /// A reader may enter: no writer holds the latch or is ahead of it.
    fn admits_reader(&self) -> bool {
        self.holders != EXCLUSIVE && self.no_writer_ahead()
    }

    fn queue(&mut self) -> &mut Queue {
        self.queue.get_or_insert_with(Box::default)
    }

    /// Counts a granted acquisition, with its wait if it had one.
    fn count(&mut self, write: bool, outcome: WaitOutcome) {
        *if write {
            &mut self.write_acquisitions
        } else {
            &mut self.read_acquisitions
        } += 1;
        if let WaitOutcome::Waited(waited) = outcome {
            let queue = self.queue();
            *if write {
                &mut queue.write_conflicts
            } else {
                &mut queue.read_conflicts
            } += 1;
            queue.wait_nanos += waited.as_nanos() as u64;
        }
    }

    fn stats(&self) -> LatchStatsSnapshot {
        let queue = self.queue.as_deref();
        let counted = |field: fn(&Queue) -> u64| queue.map_or(0, field);
        LatchStatsSnapshot {
            read_acquisitions: self.read_acquisitions,
            write_acquisitions: self.write_acquisitions,
            read_conflicts: counted(|q| q.read_conflicts),
            write_conflicts: counted(|q| q.write_conflicts),
            wait_nanos: counted(|q| q.wait_nanos),
            abandoned: counted(|q| q.abandoned),
        }
    }

    #[inline]
    fn dcheck_acquired(&self) {
        #[cfg(feature = "dcheck")]
        if let Some((level, id, label)) = self.tag {
            crate::dcheck::acquire(level, id, label);
        }
    }

    #[inline]
    fn dcheck_released(&self) {
        #[cfg(feature = "dcheck")]
        if let Some((level, id, _)) = self.tag {
            crate::dcheck::release(level, id);
        }
    }
}

/// An exclusive/shared latch whose write waiters are woken middle-first.
#[derive(Debug)]
pub struct OrderedWaitLatch {
    state: Mutex<State>,
    condvar: Condvar,
}

/// Guard for exclusive (cracking) access to the protected piece.
#[derive(Debug)]
pub struct OrderedWriteGuard<'a> {
    latch: &'a OrderedWaitLatch,
    outcome: WaitOutcome,
    released: bool,
}

/// Guard for shared (aggregation) access to the protected piece.
#[derive(Debug)]
pub struct OrderedReadGuard<'a> {
    latch: &'a OrderedWaitLatch,
    outcome: WaitOutcome,
    released: bool,
}

impl Default for OrderedWaitLatch {
    fn default() -> Self {
        Self::new()
    }
}

impl OrderedWaitLatch {
    /// Creates a free latch with zeroed counters.
    pub fn new() -> Self {
        OrderedWaitLatch {
            state: Mutex::new(State {
                holders: 0,
                sleepers: 0,
                read_acquisitions: 0,
                write_acquisitions: 0,
                queue: None,
                #[cfg(feature = "dcheck")]
                tag: None,
            }),
            condvar: Condvar::new(),
        }
    }

    /// Tags this latch for the runtime latch-order checker. No-op unless the
    /// `dcheck` feature is enabled. A later tag replaces an earlier one: a
    /// latch that is reused for another piece is a new latch to the
    /// checker. Call it only while nobody holds or waits for the latch.
    pub fn set_dcheck_tag(&self, level: crate::dcheck::Level, id: usize, label: &'static str) {
        #[cfg(feature = "dcheck")]
        {
            self.state.lock().tag = Some((level, id, label));
        }
        #[cfg(not(feature = "dcheck"))]
        let _ = (level, id, label);
    }

    /// The instance id of this latch's checker tag, if it has one (never
    /// without the `dcheck` feature).
    pub fn dcheck_id(&self) -> Option<usize> {
        #[cfg(feature = "dcheck")]
        return self.state.lock().tag.map(|(_, id, _)| id);
        #[cfg(not(feature = "dcheck"))]
        None
    }

    /// Grants the latch exclusively to the caller, who holds the mutex.
    fn grant_write(&self, state: &mut State, outcome: WaitOutcome) -> OrderedWriteGuard<'_> {
        state.holders = EXCLUSIVE;
        state.count(true, outcome);
        state.dcheck_acquired();
        OrderedWriteGuard {
            latch: self,
            outcome,
            released: false,
        }
    }

    /// Grants the latch in shared mode to the caller, who holds the mutex.
    fn grant_read(&self, state: &mut State, outcome: WaitOutcome) -> OrderedReadGuard<'_> {
        state.holders += 1;
        state.count(false, outcome);
        state.dcheck_acquired();
        OrderedReadGuard {
            latch: self,
            outcome,
            released: false,
        }
    }

    /// Acquires the latch exclusively on behalf of a crack at `bound`.
    ///
    /// If the latch is busy the caller is queued in bound order and woken
    /// according to the middle-first policy.
    pub fn acquire_write(&self, bound: i64) -> OrderedWriteGuard<'_> {
        let mut state = self.state.lock();
        if state.holders == 0 && state.no_writer_ahead() {
            return self.grant_write(&mut state, WaitOutcome::Immediate);
        }

        let queue = state.queue();
        let ticket = queue.next_ticket;
        queue.next_ticket += 1;
        // Insertion sort on bound, as described in the paper.
        let pos = queue.write_waiters.partition_point(|w| w.bound <= bound);
        queue.write_waiters.insert(pos, Waiter { ticket, bound });

        let start = Instant::now();
        loop {
            // We may run if the latch is free and either we were chosen, or
            // nobody was chosen yet (e.g. the holder released while the queue
            // was empty and we enqueued just after).
            let free = state.holders == 0;
            let queue = state.queue();
            if free && queue.chosen.is_none_or(|t| t == ticket) {
                queue.chosen = None;
                if let Some(idx) = queue.write_waiters.iter().position(|w| w.ticket == ticket) {
                    queue.write_waiters.remove(idx);
                }
                return self.grant_write(&mut state, WaitOutcome::Waited(start.elapsed()));
            }
            self.sleep(&mut state);
        }
    }

    /// Attempts to acquire the latch exclusively without waiting.
    ///
    /// Used for conflict avoidance: a query that fails simply skips its
    /// optional refinement.
    pub fn try_acquire_write(&self) -> Option<OrderedWriteGuard<'_>> {
        let mut state = self.state.lock();
        if state.holders == 0 && state.no_writer_ahead() {
            Some(self.grant_write(&mut state, WaitOutcome::Immediate))
        } else {
            state.queue().abandoned += 1;
            None
        }
    }

    /// Acquires the latch in shared mode (aggregation over the piece).
    pub fn acquire_read(&self) -> OrderedReadGuard<'_> {
        let mut state = self.state.lock();
        if state.admits_reader() {
            return self.grant_read(&mut state, WaitOutcome::Immediate);
        }
        let start = Instant::now();
        loop {
            if state.admits_reader() {
                return self.grant_read(&mut state, WaitOutcome::Waited(start.elapsed()));
            }
            self.sleep(&mut state);
        }
    }

    /// Blocks on the condvar until a release, counted as a sleeper.
    fn sleep(&self, state: &mut MutexGuard<'_, State>) {
        state.sleepers += 1;
        self.condvar.wait(state);
        state.sleepers -= 1;
    }

    /// Attempts a shared acquisition without waiting.
    pub fn try_acquire_read(&self) -> Option<OrderedReadGuard<'_>> {
        let mut state = self.state.lock();
        if state.admits_reader() {
            Some(self.grant_read(&mut state, WaitOutcome::Immediate))
        } else {
            state.queue().abandoned += 1;
            None
        }
    }

    /// Number of write waiters currently queued (diagnostic).
    pub fn queued_writers(&self) -> usize {
        let state = self.state.lock();
        state.queue.as_ref().map_or(0, |q| q.write_waiters.len())
    }

    /// Snapshot of this latch's statistics.
    pub fn stats(&self) -> LatchStatsSnapshot {
        self.state.lock().stats()
    }

    /// This latch's statistics, which start again from zero: for a latch
    /// that is about to serve another piece while its counts go into a
    /// cumulative total. Call it only while nobody holds or waits for the
    /// latch.
    pub fn take_stats(&self) -> LatchStatsSnapshot {
        let mut state = self.state.lock();
        let stats = state.stats();
        debug_assert!(
            state.holders == 0 && state.no_writer_ahead(),
            "a latch in use"
        );
        (state.read_acquisitions, state.write_acquisitions) = (0, 0);
        state.queue = None;
        stats
    }

    fn release_write(&self) {
        let mut state = self.state.lock();
        state.dcheck_released();
        debug_assert_eq!(state.holders, EXCLUSIVE);
        state.holders = 0;
        Self::choose_next(&mut state);
        self.wake(state);
    }

    fn release_read(&self) {
        let mut state = self.state.lock();
        state.dcheck_released();
        assert!(
            state.holders != 0 && state.holders != EXCLUSIVE,
            "release_read with {} holders",
            state.holders
        );
        state.holders -= 1;
        if state.holders == 0 {
            Self::choose_next(&mut state);
        }
        self.wake(state);
    }

    /// Drops the state lock after a release and wakes every sleeper, if
    /// there is one.
    fn wake(&self, state: MutexGuard<'_, State>) {
        let sleepers = state.sleepers > 0;
        drop(state);
        if sleepers {
            self.condvar.notify_all();
        }
    }

    /// Picks the middle waiter (by bound order) as the next writer.
    fn choose_next(state: &mut State) {
        if let Some(queue) = state.queue.as_deref_mut() {
            if queue.chosen.is_none() && !queue.write_waiters.is_empty() {
                let mid = queue.write_waiters.len() / 2;
                queue.chosen = Some(queue.write_waiters[mid].ticket);
            }
        }
    }
}

impl OrderedWriteGuard<'_> {
    /// How this acquisition was granted.
    pub fn outcome(&self) -> WaitOutcome {
        self.outcome
    }

    /// Releases the latch early (before the guard is dropped).
    pub fn release(mut self) {
        self.release_inner();
    }

    fn release_inner(&mut self) {
        if !self.released {
            self.released = true;
            self.latch.release_write();
        }
    }
}

impl Drop for OrderedWriteGuard<'_> {
    fn drop(&mut self) {
        self.release_inner();
    }
}

impl OrderedReadGuard<'_> {
    /// How this acquisition was granted.
    pub fn outcome(&self) -> WaitOutcome {
        self.outcome
    }

    /// Releases the latch early (before the guard is dropped).
    pub fn release(mut self) {
        self.release_inner();
    }

    fn release_inner(&mut self) {
        if !self.released {
            self.released = true;
            self.latch.release_read();
        }
    }
}

impl Drop for OrderedReadGuard<'_> {
    fn drop(&mut self) {
        self.release_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PlMutex;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn immediate_write_acquisition() {
        let latch = OrderedWaitLatch::new();
        let g = latch.acquire_write(10);
        assert_eq!(g.outcome(), WaitOutcome::Immediate);
        assert_eq!(g.outcome().wait_time(), Duration::ZERO);
        assert!(!g.outcome().contended());
        drop(g);
        assert_eq!(latch.stats().write_acquisitions, 1);
    }

    #[test]
    fn readers_share_writers_exclude() {
        let latch = OrderedWaitLatch::new();
        let r1 = latch.acquire_read();
        let r2 = latch.acquire_read();
        assert!(latch.try_acquire_write().is_none());
        drop(r1);
        drop(r2);
        let w = latch.try_acquire_write().unwrap();
        assert!(latch.try_acquire_read().is_none());
        drop(w);
        assert!(latch.try_acquire_read().is_some());
    }

    #[test]
    fn try_write_fails_while_held_and_counts_abandoned() {
        let latch = OrderedWaitLatch::new();
        let g = latch.acquire_write(0);
        assert!(latch.try_acquire_write().is_none());
        drop(g);
        assert_eq!(latch.stats().abandoned, 1);
    }

    #[test]
    fn waiting_writer_eventually_granted() {
        let latch = Arc::new(OrderedWaitLatch::new());
        let l2 = Arc::clone(&latch);
        let g = latch.acquire_write(5);
        let handle = thread::spawn(move || {
            let g2 = l2.acquire_write(9);
            assert!(g2.outcome().contended());
        });
        thread::sleep(Duration::from_millis(20));
        assert_eq!(latch.queued_writers(), 1);
        drop(g);
        handle.join().unwrap();
        assert_eq!(latch.stats().write_acquisitions, 2);
        assert_eq!(latch.stats().write_conflicts, 1);
    }

    #[test]
    fn middle_waiter_is_woken_first() {
        // Hold the latch, queue five writers with bounds 20,30,50,70,90,
        // then release and observe that the first waiter to run is the one
        // with the median bound (50).
        let latch = Arc::new(OrderedWaitLatch::new());
        let order = Arc::new(PlMutex::new(Vec::<i64>::new()));
        let holder = latch.acquire_write(0);

        let mut handles = Vec::new();
        for &bound in &[20i64, 30, 50, 70, 90] {
            let latch = Arc::clone(&latch);
            let order = Arc::clone(&order);
            handles.push(thread::spawn(move || {
                let g = latch.acquire_write(bound);
                order.lock().push(bound);
                // Hold briefly so the queue cannot fully drain before all
                // waiters have enqueued their observation.
                thread::sleep(Duration::from_millis(5));
                drop(g);
            }));
            // Ensure deterministic queue arrival order.
            thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(latch.queued_writers(), 5);
        drop(holder);
        for h in handles {
            h.join().unwrap();
        }
        let order = order.lock();
        assert_eq!(order.len(), 5);
        assert_eq!(order[0], 50, "median-bound waiter must be granted first");
    }

    #[test]
    fn readers_wait_while_writers_are_queued() {
        // A queued writer blocks new readers (no writer starvation), and the
        // reader proceeds after the writer finishes.
        let latch = Arc::new(OrderedWaitLatch::new());
        let holder = latch.acquire_write(1);
        let l_writer = Arc::clone(&latch);
        let writer = thread::spawn(move || {
            let _g = l_writer.acquire_write(2);
            thread::sleep(Duration::from_millis(10));
        });
        thread::sleep(Duration::from_millis(20));
        assert!(latch.try_acquire_read().is_none());
        let l_reader = Arc::clone(&latch);
        let reader = thread::spawn(move || {
            let g = l_reader.acquire_read();
            assert!(g.outcome().contended());
        });
        drop(holder);
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(latch.stats().read_acquisitions, 1);
    }

    #[test]
    fn stress_many_threads_mixed_modes() {
        let latch = Arc::new(OrderedWaitLatch::new());
        let shared = Arc::new(PlMutex::new(0u64));
        let mut handles = Vec::new();
        for t in 0..8 {
            let latch = Arc::clone(&latch);
            let shared = Arc::clone(&shared);
            handles.push(thread::spawn(move || {
                for i in 0..50 {
                    if (t + i) % 3 == 0 {
                        let _g = latch.acquire_write(i as i64);
                        *shared.lock() += 1;
                    } else {
                        let _g = latch.acquire_read();
                        let _ = *shared.lock();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // All write-mode increments happened.
        let expected: u64 = (0..8u64)
            .map(|t| (0..50u64).filter(|i| (t + i) % 3 == 0).count() as u64)
            .sum();
        assert_eq!(*shared.lock(), expected);
    }

    #[test]
    fn take_stats_hands_over_the_counts_and_starts_from_zero() {
        let latch = OrderedWaitLatch::new();
        drop(latch.acquire_write(1));
        drop(latch.acquire_read());
        let held = latch.acquire_read();
        assert!(latch.try_acquire_write().is_none());
        drop(held);
        let taken = latch.take_stats();
        assert_eq!(
            (
                taken.write_acquisitions,
                taken.read_acquisitions,
                taken.abandoned
            ),
            (1, 2, 1)
        );
        assert_eq!(latch.stats(), LatchStatsSnapshot::default());
        drop(latch.acquire_read());
        assert_eq!(latch.stats().read_acquisitions, 1);
    }

    #[test]
    fn a_retag_replaces_the_checker_id() {
        let latch = OrderedWaitLatch::new();
        assert_eq!(latch.dcheck_id(), None);
        latch.set_dcheck_tag(crate::dcheck::Level::Piece, 7, "piece-latch");
        latch.set_dcheck_tag(crate::dcheck::Level::Piece, 8, "piece-latch");
        let expected = crate::dcheck::enabled().then_some(8);
        assert_eq!(latch.dcheck_id(), expected);
        drop(latch.acquire_read());
    }

    #[test]
    fn early_release_via_method() {
        let latch = OrderedWaitLatch::new();
        let g = latch.acquire_write(3);
        g.release();
        assert!(latch.try_acquire_write().is_some());
    }
}
