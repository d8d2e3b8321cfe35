//! The process-wide tracer: bounded per-thread ring buffers and drains.
//!
//! Hot paths call [`emit`], which is (a) an empty inline function when the
//! crate is built without the `trace` feature — the call compiles away
//! entirely — and (b) one relaxed atomic load plus a predictable branch
//! while tracing is disabled at runtime (the default). Only once
//! [`enable`] has been called does an emit pay for a timestamp and a push
//! into the calling thread's own ring buffer (an uncontended mutex: the
//! only other party that ever takes it is a drain).
//!
//! Rings are *bounded*: when a thread outruns the collector its oldest
//! events are overwritten and counted as dropped, so tracing can never
//! grow memory without bound — observability must not introduce the very
//! unbounded-growth bug PR 3 fixed in the delta.

use crate::event::{TraceEvent, TraceRecord};
use parking_lot::Mutex;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Default per-thread ring capacity (events).
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// One thread's bounded event ring.
#[cfg_attr(not(feature = "trace"), allow(dead_code))]
#[derive(Debug)]
struct Ring {
    buf: Vec<TraceRecord>,
    /// Configured capacity (Vec::with_capacity may over-allocate).
    cap: usize,
    /// Next write position (wraps at capacity once full).
    head: usize,
    /// True once the ring has wrapped at least once.
    wrapped: bool,
}

impl Ring {
    fn with_capacity(capacity: usize) -> Self {
        Ring {
            buf: Vec::with_capacity(capacity),
            cap: capacity,
            head: 0,
            wrapped: false,
        }
    }

    fn push(&mut self, record: TraceRecord) -> bool {
        if self.buf.len() < self.cap {
            self.buf.push(record);
            self.head = self.buf.len() % self.cap.max(1);
            false
        } else {
            // Full: overwrite the oldest record.
            self.buf[self.head] = record;
            self.head = (self.head + 1) % self.buf.len();
            self.wrapped = true;
            true
        }
    }

    /// Removes and returns all records in arrival order.
    fn drain(&mut self) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(self.buf.len());
        if self.wrapped {
            // Oldest surviving record sits at `head`.
            out.extend_from_slice(&self.buf[self.head..]);
            out.extend_from_slice(&self.buf[..self.head]);
        } else {
            // Never overwritten: pushes were plain appends.
            out.extend_from_slice(&self.buf);
        }
        self.buf.clear();
        self.head = 0;
        self.wrapped = false;
        out
    }
}

#[cfg_attr(not(feature = "trace"), allow(dead_code))]
#[derive(Debug, Default)]
struct SharedRing {
    ring: Mutex<Option<Ring>>,
    dropped: AtomicU64,
    thread: AtomicU32,
}

/// Global tracer state.
#[cfg_attr(not(feature = "trace"), allow(dead_code))]
struct Tracer {
    enabled: AtomicBool,
    capacity: AtomicUsize,
    epoch: Mutex<Option<Instant>>,
    rings: Mutex<Vec<Arc<SharedRing>>>,
    next_thread: AtomicU32,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();

fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| Tracer {
        enabled: AtomicBool::new(false),
        capacity: AtomicUsize::new(DEFAULT_RING_CAPACITY),
        epoch: Mutex::new(None),
        rings: Mutex::new(Vec::new()),
        next_thread: AtomicU32::new(0),
    })
}

#[cfg(feature = "trace")]
thread_local! {
    static LOCAL_RING: Arc<SharedRing> = register_ring();
}

#[cfg(feature = "trace")]
fn register_ring() -> Arc<SharedRing> {
    let t = tracer();
    let shared = Arc::new(SharedRing::default());
    shared.thread.store(
        t.next_thread.fetch_add(1, Ordering::Relaxed),
        Ordering::Relaxed,
    );
    t.rings.lock().push(Arc::clone(&shared));
    shared
}

/// True while runtime tracing is enabled.
#[inline]
pub fn enabled() -> bool {
    #[cfg(feature = "trace")]
    {
        // One relaxed load; the emitting fast path when tracing is off.
        TRACER
            .get()
            .is_some_and(|t| t.enabled.load(Ordering::Relaxed))
    }
    #[cfg(not(feature = "trace"))]
    {
        false
    }
}

/// Enables tracing with the default per-thread ring capacity.
pub fn enable() {
    enable_with_capacity(DEFAULT_RING_CAPACITY);
}

/// Enables tracing with an explicit per-thread ring capacity (events).
/// Events emitted from now on are captured; the timestamp epoch resets.
pub fn enable_with_capacity(capacity: usize) {
    let t = tracer();
    t.capacity.store(capacity.max(16), Ordering::Relaxed);
    *t.epoch.lock() = Some(Instant::now());
    t.enabled.store(true, Ordering::SeqCst);
}

/// Disables tracing. Buffered events stay available to [`drain`].
pub fn disable() {
    tracer().enabled.store(false, Ordering::SeqCst);
}

/// Emits one event into the calling thread's ring buffer.
///
/// Without the `trace` feature this is an empty inline function; with it,
/// the disabled-at-runtime path is one relaxed atomic load.
#[inline]
pub fn emit(event: TraceEvent) {
    #[cfg(feature = "trace")]
    {
        if !enabled() {
            return;
        }
        emit_slow(event);
    }
    #[cfg(not(feature = "trace"))]
    {
        let _ = event;
    }
}

#[cfg(feature = "trace")]
#[cold]
fn emit_slow(event: TraceEvent) {
    let t = tracer();
    let t_ns = {
        let epoch = t.epoch.lock();
        match *epoch {
            Some(instant) => u64::try_from(instant.elapsed().as_nanos()).unwrap_or(u64::MAX),
            None => 0,
        }
    };
    LOCAL_RING.with(|shared| {
        let record = TraceRecord {
            t_ns,
            thread: shared.thread.load(Ordering::Relaxed),
            event,
        };
        let desired = t.capacity.load(Ordering::Relaxed);
        let mut guard = shared.ring.lock();
        let ring = guard.get_or_insert_with(|| Ring::with_capacity(desired));
        if ring.cap != desired {
            // Re-enabled with a different capacity: start a fresh ring.
            *ring = Ring::with_capacity(desired);
        }
        if ring.push(record) {
            shared.dropped.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Drains every thread's buffered events, ordered by capture time.
/// Rings stay registered (threads keep tracing into them); only their
/// contents move.
pub fn drain() -> Vec<TraceRecord> {
    let rings: Vec<Arc<SharedRing>> = tracer().rings.lock().clone();
    let mut out = Vec::new();
    for shared in rings {
        if let Some(ring) = shared.ring.lock().as_mut() {
            out.append(&mut ring.drain());
        }
    }
    out.sort_by_key(|r| r.t_ns);
    out
}

/// Total events overwritten before a drain could collect them, across all
/// threads, since the process started.
pub fn dropped_events() -> u64 {
    tracer()
        .rings
        .lock()
        .iter()
        .map(|s| s.dropped.load(Ordering::Relaxed))
        .sum()
}

/// Drains all buffered events as JSONL into a writer, one record per
/// line; returns how many lines were written. Stops at the first write
/// error and returns it: the records drained but not written are lost
/// (the rings hold them no longer), and the caller learns so.
pub fn drain_jsonl<W: Write>(mut writer: W) -> std::io::Result<usize> {
    let records = drain();
    for record in &records {
        writeln!(writer, "{}", record.to_json().render())?;
    }
    Ok(records.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LatchMode;
    use crate::json::Json;

    // The tracer is process-global, so the tests below run under one lock
    // to avoid cross-talk between #[test] threads.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn event(ns: u64) -> TraceEvent {
        TraceEvent::LatchWait {
            piece: 1,
            mode: LatchMode::Read,
            ns,
        }
    }

    #[test]
    fn disabled_tracing_captures_nothing() {
        let _guard = TEST_LOCK.lock();
        disable();
        drain();
        emit(event(10));
        assert!(drain().is_empty());
        assert!(!enabled());
    }

    #[test]
    #[cfg(feature = "trace")]
    fn enabled_tracing_captures_and_drains_in_time_order() {
        let _guard = TEST_LOCK.lock();
        drain();
        enable();
        emit(event(10));
        emit(TraceEvent::SnapshotRetry { attempt: 1 });
        disable();
        emit(event(99)); // after disable: dropped
        let records = drain();
        assert_eq!(records.len(), 2);
        assert!(records.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        assert_eq!(records[0].event, event(10));
        assert!(drain().is_empty(), "drain empties the rings");
    }

    #[test]
    #[cfg(feature = "trace")]
    fn ring_overwrites_oldest_when_full() {
        let _guard = TEST_LOCK.lock();
        drain();
        enable_with_capacity(16);
        for i in 0..40 {
            emit(event(i));
        }
        disable();
        let records = drain();
        assert_eq!(records.len(), 16, "bounded at the ring capacity");
        // The survivors are the *newest* events.
        let min_ns = records
            .iter()
            .map(|r| match r.event {
                TraceEvent::LatchWait { ns, .. } => ns,
                _ => unreachable!(),
            })
            .min()
            .unwrap();
        assert_eq!(min_ns, 24, "oldest events were overwritten");
        assert!(dropped_events() >= 24);
        // Restore the default for other tests.
        enable();
        disable();
        drain();
    }

    #[test]
    #[cfg(feature = "trace")]
    fn jsonl_drain_produces_parseable_lines() {
        let _guard = TEST_LOCK.lock();
        drain();
        enable();
        emit(event(5));
        emit(TraceEvent::DeltaMerge {
            rows: 3,
            ns: 4,
            rebuild: true,
        });
        disable();
        let mut buf = Vec::new();
        let written = drain_jsonl(&mut buf).expect("a Vec takes every line");
        assert_eq!(written, 2);
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let json = Json::parse(line).expect("each line parses");
            assert!(json.get("ev").is_some());
        }
    }

    /// A writer that takes `budget` bytes, then fails every write.
    struct FailAfter {
        budget: usize,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.budget == 0 {
                return Err(std::io::Error::other("device full"));
            }
            let n = buf.len().min(self.budget);
            self.budget -= n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    #[cfg(feature = "trace")]
    fn jsonl_drain_reports_a_failing_writer() {
        let _guard = TEST_LOCK.lock();
        drain();
        enable();
        for i in 0..4 {
            emit(event(i));
        }
        disable();
        let err = drain_jsonl(FailAfter { budget: 40 }).expect_err("the writer fails");
        assert_eq!(err.to_string(), "device full");
        assert!(
            drain().is_empty(),
            "the failed drain still emptied the rings"
        );
    }

    #[test]
    #[cfg(feature = "trace")]
    fn multi_threaded_emits_all_arrive() {
        let _guard = TEST_LOCK.lock();
        drain();
        enable();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for i in 0..100 {
                        emit(event(i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        disable();
        let records = drain();
        assert_eq!(records.len(), 400);
        let threads: std::collections::HashSet<u32> = records.iter().map(|r| r.thread).collect();
        assert!(threads.len() >= 4, "per-thread rings kept attribution");
    }
}
