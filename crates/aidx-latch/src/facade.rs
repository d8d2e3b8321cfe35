//! Sync-primitive facade for the whole workspace.
//!
//! Crates on the latch protocol path (`aidx-latch`, `aidx-core`,
//! `aidx-table`) import `Mutex`/`RwLock`/`Condvar` from
//! here instead of `parking_lot` directly (`aidx-lint` enforces this).
//! Normally the facade re-exports the `parking_lot` shim unchanged; under
//! the `check` feature it swaps in `aidx-check`'s instrumented primitives,
//! so model-checking scenarios can explore schedules of the *real* latch
//! code rather than a hand-written model of it. [`AtomicU64`] is here for
//! atomics that *are* a protocol (the cracker's shrink-epoch seqlock):
//! under `check` every access to one is a scheduling decision point.
//! Statistics counters keep using `std::sync::atomic` directly.

#[cfg(not(feature = "check"))]
pub use parking_lot::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};
#[cfg(not(feature = "check"))]
pub use std::sync::atomic::AtomicU64;

#[cfg(feature = "check")]
pub use aidx_check::sync::{
    CheckedAtomicU64 as AtomicU64, CheckedCondvar as Condvar, CheckedMutex as Mutex,
    CheckedRwLatch as RwLock, MutexGuard, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};
