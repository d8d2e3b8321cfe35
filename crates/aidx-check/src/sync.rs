//! Instrumented sync primitives with the same API shape as the
//! `parking_lot` shim, so `aidx-latch` (and through it the rest of the
//! workspace) can route through them under the `check` cfg.
//!
//! Every primitive is dual-mode:
//!
//! * **Virtual** — when the calling thread is a virtual thread of an active
//!   [`explore`](fn@crate::explore) run, operations go through the
//!   scheduler: blocking is modelled, every effect is a decision point,
//!   and acquisition order is checked when the primitive carries an order
//!   tag.
//! * **Fallback** — outside a run the primitives degrade to plain `std::sync`
//!   locks, so facade-routed production code still works when the `check`
//!   feature happens to be enabled (e.g. in `cargo test --all-features`).
//!
//! A primitive must not be shared between model and non-model threads during
//! a run: the two modes use different exclusion mechanisms.

use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::AtomicUsize;
use std::sync::PoisonError;
use std::time::Duration;

use crate::sched;

/// Yields the virtual thread, creating a scheduling decision point.
/// No-op outside a model run.
pub fn yield_now() {
    sched::with_ctx(|c| c.yield_point());
}

// ---------------------------------------------------------------------------
// CheckedMutex
// ---------------------------------------------------------------------------

/// A mutex that is model-checked under an explorer run and a plain lock
/// otherwise. API mirrors the `parking_lot` shim.
pub struct CheckedMutex<T: ?Sized> {
    id: AtomicUsize,
    order: Option<(u8, &'static str)>,
    fallback: std::sync::Mutex<()>,
    data: UnsafeCell<T>,
}

// SAFETY: access to `data` is mediated either by `fallback` (outside a model
// run) or by the scheduler's single-runnable-thread discipline plus the
// modelled holder state (inside a run); both grant exclusive access to the
// guard holder only, matching std::sync::Mutex's Send/Sync bounds.
unsafe impl<T: ?Sized + Send> Send for CheckedMutex<T> {}
// SAFETY: see the Send impl above; `&CheckedMutex<T>` only hands out `&T`/
// `&mut T` through guards that enforce mutual exclusion.
unsafe impl<T: ?Sized + Send> Sync for CheckedMutex<T> {}

/// RAII guard for [`CheckedMutex`]. `real` is `Some` in fallback mode.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a CheckedMutex<T>,
    real: Option<std::sync::MutexGuard<'a, ()>>,
}

impl<T> CheckedMutex<T> {
    /// Creates a new unordered checked mutex.
    pub const fn new(value: T) -> Self {
        CheckedMutex {
            id: AtomicUsize::new(0),
            order: None,
            fallback: std::sync::Mutex::new(()),
            data: UnsafeCell::new(value),
        }
    }

    /// Creates a checked mutex carrying an acquisition-order tag: the model
    /// fails any schedule that acquires a lower level while holding a higher
    /// one.
    pub const fn ordered(value: T, level: u8, label: &'static str) -> Self {
        CheckedMutex {
            id: AtomicUsize::new(0),
            order: Some((level, label)),
            fallback: std::sync::Mutex::new(()),
            data: UnsafeCell::new(value),
        }
    }

    /// Consumes the mutex, returning the underlying data.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: Default> Default for CheckedMutex<T> {
    fn default() -> Self {
        CheckedMutex::new(T::default())
    }
}

impl<T: ?Sized> CheckedMutex<T> {
    /// Acquires the mutex, blocking (or model-blocking) until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match sched::with_ctx(|c| c.mutex_lock(&self.id, self.order)) {
            Some(()) => MutexGuard {
                lock: self,
                real: None,
            },
            None => MutexGuard {
                lock: self,
                real: Some(self.fallback.lock().unwrap_or_else(PoisonError::into_inner)),
            },
        }
    }

    /// Attempts to acquire the mutex without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        if let Some(acquired) = sched::with_ctx(|c| c.mutex_try_lock(&self.id, self.order)) {
            return acquired.then_some(MutexGuard {
                lock: self,
                real: None,
            });
        }
        match self.fallback.try_lock() {
            Ok(g) => Some(MutexGuard {
                lock: self,
                real: Some(g),
            }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                lock: self,
                real: Some(p.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T: fmt::Debug> fmt::Debug for CheckedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckedMutex").finish_non_exhaustive()
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: holding the guard means this thread holds the mutex
        // (fallback lock or modelled holder), so no other reference exists.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in Deref — the guard proves exclusive access.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.real.is_none() {
            sched::with_ctx(|c| c.mutex_unlock(&self.lock.id));
        }
    }
}

// ---------------------------------------------------------------------------
// CheckedRwLatch
// ---------------------------------------------------------------------------

/// A reader-writer latch, model-checked under an explorer run.
pub struct CheckedRwLatch<T: ?Sized> {
    id: AtomicUsize,
    order: Option<(u8, &'static str)>,
    fallback: std::sync::RwLock<()>,
    data: UnsafeCell<T>,
}

// SAFETY: same reasoning as CheckedMutex, with shared/exclusive modes
// mirroring std::sync::RwLock (readers get &T, the writer gets &mut T).
unsafe impl<T: ?Sized + Send> Send for CheckedRwLatch<T> {}
// SAFETY: read guards hand out &T concurrently (requires T: Send + Sync in
// std; we conservatively require T: Send + Sync for Sync).
unsafe impl<T: ?Sized + Send + Sync> Sync for CheckedRwLatch<T> {}

/// RAII guard proving shared access through a [`CheckedRwLatch`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a CheckedRwLatch<T>,
    real: Option<std::sync::RwLockReadGuard<'a, ()>>,
}

/// RAII guard proving exclusive access through a [`CheckedRwLatch`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a CheckedRwLatch<T>,
    real: Option<std::sync::RwLockWriteGuard<'a, ()>>,
}

impl<T> CheckedRwLatch<T> {
    /// Creates a new unordered reader-writer latch.
    pub const fn new(value: T) -> Self {
        CheckedRwLatch {
            id: AtomicUsize::new(0),
            order: None,
            fallback: std::sync::RwLock::new(()),
            data: UnsafeCell::new(value),
        }
    }

    /// Creates a latch carrying an acquisition-order tag (see
    /// [`CheckedMutex::ordered`]).
    pub const fn ordered(value: T, level: u8, label: &'static str) -> Self {
        CheckedRwLatch {
            id: AtomicUsize::new(0),
            order: Some((level, label)),
            fallback: std::sync::RwLock::new(()),
            data: UnsafeCell::new(value),
        }
    }

    /// Consumes the latch, returning the underlying data.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: Default> Default for CheckedRwLatch<T> {
    fn default() -> Self {
        CheckedRwLatch::new(T::default())
    }
}

impl<T: ?Sized> CheckedRwLatch<T> {
    /// Acquires shared access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        match sched::with_ctx(|c| c.rw_lock(&self.id, false, self.order)) {
            Some(()) => RwLockReadGuard {
                lock: self,
                real: None,
            },
            None => RwLockReadGuard {
                lock: self,
                real: Some(self.fallback.read().unwrap_or_else(PoisonError::into_inner)),
            },
        }
    }

    /// Acquires exclusive access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        match sched::with_ctx(|c| c.rw_lock(&self.id, true, self.order)) {
            Some(()) => RwLockWriteGuard {
                lock: self,
                real: None,
            },
            None => RwLockWriteGuard {
                lock: self,
                real: Some(
                    self.fallback
                        .write()
                        .unwrap_or_else(PoisonError::into_inner),
                ),
            },
        }
    }

    /// Attempts shared access without blocking.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        if let Some(acquired) = sched::with_ctx(|c| c.rw_try_lock(&self.id, false, self.order)) {
            return acquired.then_some(RwLockReadGuard {
                lock: self,
                real: None,
            });
        }
        match self.fallback.try_read() {
            Ok(g) => Some(RwLockReadGuard {
                lock: self,
                real: Some(g),
            }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(RwLockReadGuard {
                lock: self,
                real: Some(p.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Attempts exclusive access without blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        if let Some(acquired) = sched::with_ctx(|c| c.rw_try_lock(&self.id, true, self.order)) {
            return acquired.then_some(RwLockWriteGuard {
                lock: self,
                real: None,
            });
        }
        match self.fallback.try_write() {
            Ok(g) => Some(RwLockWriteGuard {
                lock: self,
                real: Some(g),
            }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(RwLockWriteGuard {
                lock: self,
                real: Some(p.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T: fmt::Debug> fmt::Debug for CheckedRwLatch<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckedRwLatch").finish_non_exhaustive()
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard proves shared access; writers are excluded by the
        // fallback lock or by the modelled writer slot.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        if self.real.is_none() {
            sched::with_ctx(|c| c.rw_unlock(&self.lock.id, false));
        }
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard proves exclusive access (see CheckedMutex).
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in Deref — exclusive access is guaranteed.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        if self.real.is_none() {
            sched::with_ctx(|c| c.rw_unlock(&self.lock.id, true));
        }
    }
}

// ---------------------------------------------------------------------------
// CheckedCondvar
// ---------------------------------------------------------------------------

/// Result of a timed wait: whether the timeout elapsed.
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// True if the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable paired with [`CheckedMutex`]. Under the model, timed
/// waits are last-resort wakeups: the timeout fires only when no other
/// virtual thread can run.
#[derive(Default)]
pub struct CheckedCondvar {
    id: AtomicUsize,
    fallback: std::sync::Condvar,
}

impl CheckedCondvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        CheckedCondvar {
            id: AtomicUsize::new(0),
            fallback: std::sync::Condvar::new(),
        }
    }

    /// Blocks until notified, atomically releasing and re-acquiring the mutex.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        if guard.real.is_none() {
            sched::with_ctx(|c| c.cond_wait(&self.id, &guard.lock.id, guard.lock.order, false));
            return;
        }
        let inner = guard.real.take().expect("fallback guard present");
        let inner = self
            .fallback
            .wait(inner)
            .unwrap_or_else(PoisonError::into_inner);
        guard.real = Some(inner);
    }

    /// Blocks until notified or the timeout elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        if guard.real.is_none() {
            let timed_out =
                sched::with_ctx(|c| c.cond_wait(&self.id, &guard.lock.id, guard.lock.order, true))
                    .unwrap_or(false);
            return WaitTimeoutResult { timed_out };
        }
        let inner = guard.real.take().expect("fallback guard present");
        let (inner, result) = match self.fallback.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, r),
            Err(p) => p.into_inner(),
        };
        guard.real = Some(inner);
        WaitTimeoutResult {
            timed_out: result.timed_out(),
        }
    }

    /// Wakes one waiting thread.
    pub fn notify_one(&self) {
        if sched::with_ctx(|c| c.cond_notify(&self.id, false)).is_none() {
            self.fallback.notify_one();
        }
    }

    /// Wakes all waiting threads.
    pub fn notify_all(&self) {
        if sched::with_ctx(|c| c.cond_notify(&self.id, true)).is_none() {
            self.fallback.notify_all();
        }
    }
}

impl fmt::Debug for CheckedCondvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("CheckedCondvar")
    }
}

// ---------------------------------------------------------------------------
// Checked atomics
// ---------------------------------------------------------------------------

pub use std::sync::atomic::Ordering;

macro_rules! checked_atomic {
    ($name:ident, $inner:ty, $prim:ty, $doc:literal) => {
        #[doc = $doc]
        ///
        /// Every operation is a scheduling decision point under the model.
        /// Memory orderings are accepted for API compatibility but the model
        /// itself explores schedules under sequential consistency only.
        #[derive(Default, Debug)]
        pub struct $name {
            inner: $inner,
        }

        impl $name {
            /// Creates a new checked atomic.
            pub const fn new(v: $prim) -> Self {
                Self {
                    inner: <$inner>::new(v),
                }
            }

            /// Atomic load, then a yield point.
            pub fn load(&self, order: Ordering) -> $prim {
                let v = self.inner.load(order);
                yield_now();
                v
            }

            /// Atomic store, then a yield point.
            pub fn store(&self, v: $prim, order: Ordering) {
                self.inner.store(v, order);
                yield_now();
            }

            /// Atomic swap, then a yield point.
            pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                let old = self.inner.swap(v, order);
                yield_now();
                old
            }

            /// Atomic compare-exchange, then a yield point.
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                let r = self.inner.compare_exchange(current, new, success, failure);
                yield_now();
                r
            }

            /// Access the raw value (requires exclusive ownership).
            pub fn get_mut(&mut self) -> &mut $prim {
                self.inner.get_mut()
            }

            /// Consumes the atomic, returning the value.
            pub fn into_inner(self) -> $prim {
                self.inner.into_inner()
            }
        }
    };
}

checked_atomic!(
    CheckedAtomicU64,
    std::sync::atomic::AtomicU64,
    u64,
    "A model-checked `AtomicU64`."
);
checked_atomic!(
    CheckedAtomicUsize,
    std::sync::atomic::AtomicUsize,
    usize,
    "A model-checked `AtomicUsize`."
);
checked_atomic!(
    CheckedAtomicBool,
    std::sync::atomic::AtomicBool,
    bool,
    "A model-checked `AtomicBool`."
);

macro_rules! checked_atomic_arith {
    ($name:ident, $prim:ty) => {
        impl $name {
            /// Atomic fetch-add, then a yield point.
            pub fn fetch_add(&self, v: $prim, order: Ordering) -> $prim {
                let old = self.inner.fetch_add(v, order);
                yield_now();
                old
            }

            /// Atomic fetch-sub, then a yield point.
            pub fn fetch_sub(&self, v: $prim, order: Ordering) -> $prim {
                let old = self.inner.fetch_sub(v, order);
                yield_now();
                old
            }

            /// Atomic fetch-max, then a yield point.
            pub fn fetch_max(&self, v: $prim, order: Ordering) -> $prim {
                let old = self.inner.fetch_max(v, order);
                yield_now();
                old
            }
        }
    };
}

checked_atomic_arith!(CheckedAtomicU64, u64);
checked_atomic_arith!(CheckedAtomicUsize, usize);
