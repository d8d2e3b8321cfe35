//! `aidx-check` — a hand-rolled mini-loom for the aidx workspace.
//!
//! Offline model checker in the spirit of `loom`, built on three pieces:
//!
//! * [`sync`] — instrumented primitives (`CheckedMutex`, `CheckedRwLatch`,
//!   `CheckedCondvar`, `CheckedAtomic*`) mirroring the `parking_lot` shim
//!   API, so `aidx-latch` can route the whole workspace through them under
//!   the `check` cfg.
//! * a scheduler (internal) owning N virtual threads, exactly one runnable
//!   at a time, with modelled blocking, deadlock detection with waits-for
//!   diagnostics, and acquisition-order checking on tagged primitives.
//! * [`mod@explore`] — a DFS/bounded-preemption explorer that enumerates
//!   interleavings of small scenarios and asserts invariants plus an oracle
//!   finale on every schedule.
//!
//! The model explores thread *schedules* under sequential consistency; it
//! does not enumerate weak-memory reorderings. See `docs/latch-order.md`
//! for the acquisition order the order tags encode.
//!
//! ```
//! use aidx_check::{explore_default, Scenario};
//! use aidx_check::sync::CheckedMutex;
//! use std::sync::Arc;
//!
//! let report = explore_default(|| {
//!     let counter = Arc::new(CheckedMutex::new(0u32));
//!     let (a, b) = (Arc::clone(&counter), Arc::clone(&counter));
//!     let fin = Arc::clone(&counter);
//!     Scenario::new()
//!         .thread(move || *a.lock() += 1)
//!         .thread(move || *b.lock() += 1)
//!         .finale(move || assert_eq!(*fin.lock(), 2))
//! });
//! report.assert_ok();
//! assert!(report.exhausted);
//! ```

#![warn(missing_docs)]

mod sched;

pub mod explore;
pub mod sync;

pub use explore::{explore, explore_default, ExploreConfig, ExploreReport, Scenario};
pub use sched::{in_model, Failure};
pub use sync::yield_now;
