//! `RwLatch`, a name the benchmark's latch probe still uses.
//!
//! Every latch in the workspace is an [`OrderedWaitLatch`]. `RwLatch` wraps
//! one under its old name, so a probe timing `read()` and `write()` times
//! the latch the cracker takes on its pieces.

use crate::ordered::{OrderedReadGuard, OrderedWaitLatch, OrderedWriteGuard};

/// An [`OrderedWaitLatch`] with read/write method names.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct RwLatch(OrderedWaitLatch);

impl RwLatch {
    /// A free latch; the name is not kept.
    pub fn new(_name: &str) -> Self {
        RwLatch::default()
    }

    /// Acquires the latch in shared mode.
    pub fn read(&self) -> OrderedReadGuard<'_> {
        self.0.acquire_read()
    }

    /// Acquires the latch exclusively.
    pub fn write(&self) -> OrderedWriteGuard<'_> {
        self.0.acquire_write(i64::MIN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn uncontended_acquisitions_do_not_count_conflicts() {
        let latch = RwLatch::new("x");
        drop(latch.read());
        drop(latch.write());
        let s = latch.0.stats();
        assert_eq!((s.read_acquisitions, s.write_acquisitions), (1, 1));
        assert_eq!(s.total_conflicts(), 0);
    }

    #[test]
    fn multiple_readers_coexist() {
        let latch = RwLatch::new("x");
        let (r1, r2) = (latch.read(), latch.read());
        assert!(latch.0.try_acquire_write().is_none(), "read is shared");
        drop((r1, r2));
        assert!(latch.0.try_acquire_write().is_some());
    }

    #[test]
    fn contended_write_records_wait_time() {
        let latch = Arc::new(RwLatch::new("x"));
        let r = latch.read();
        let writer = {
            let latch = Arc::clone(&latch);
            thread::spawn(move || drop(latch.write()))
        };
        // The writer is queued behind the reader before the reader leaves.
        while latch.0.queued_writers() == 0 {
            thread::yield_now();
        }
        drop(r);
        writer.join().unwrap();
        let s = latch.0.stats();
        assert_eq!((s.write_acquisitions, s.write_conflicts), (1, 1));
        assert!(s.wait_nanos > 0);
    }
}
