//! Core explorer semantics: exhaustive enumeration, bug finding, deadlock
//! detection with waits-for diagnostics, order-tag violations, condvar
//! modelling, and the preemption bound.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use aidx_check::sync::{CheckedAtomicU64, CheckedCondvar, CheckedMutex, CheckedRwLatch};
use aidx_check::{explore, explore_default, ExploreConfig, Scenario};

#[test]
fn mutex_counter_is_correct_on_every_schedule() {
    let report = explore_default(|| {
        let counter = Arc::new(CheckedMutex::new(0u32));
        let (a, b) = (Arc::clone(&counter), Arc::clone(&counter));
        let fin = Arc::clone(&counter);
        Scenario::new()
            .thread(move || {
                let mut g = a.lock();
                *g += 1;
            })
            .thread(move || {
                let mut g = b.lock();
                *g += 1;
            })
            .finale(move || assert_eq!(*fin.lock(), 2))
    });
    report.assert_ok();
    assert!(
        report.exhausted,
        "small scenario should be fully enumerated"
    );
    assert!(report.schedules >= 2, "both acquisition orders explored");
}

#[test]
fn lost_update_is_found() {
    // Unsynchronised read-modify-write: some schedule loses an increment.
    let report = explore_default(|| {
        let v = Arc::new(CheckedAtomicU64::new(0));
        let (a, b) = (Arc::clone(&v), Arc::clone(&v));
        let fin = Arc::clone(&v);
        let incr = |v: Arc<CheckedAtomicU64>| {
            move || {
                let cur = v.load(Ordering::SeqCst);
                v.store(cur + 1, Ordering::SeqCst);
            }
        };
        Scenario::new()
            .thread(incr(a))
            .thread(incr(b))
            .finale(move || assert_eq!(fin.load(Ordering::SeqCst), 2))
    });
    let f = report.expect_failure("finale-panic");
    assert!(
        !f.trace.is_empty(),
        "failure carries a reproducing schedule"
    );
}

#[test]
fn lost_update_hidden_below_preemption_bound_zero() {
    // The same bug needs one preemption; a bound of 0 prunes it away while a
    // bound of 1 finds it — exactly the bounded-preemption contract.
    let factory = || {
        let v = Arc::new(CheckedAtomicU64::new(0));
        let (a, b) = (Arc::clone(&v), Arc::clone(&v));
        let fin = Arc::clone(&v);
        let incr = |v: Arc<CheckedAtomicU64>| {
            move || {
                let cur = v.load(Ordering::SeqCst);
                v.store(cur + 1, Ordering::SeqCst);
            }
        };
        Scenario::new()
            .thread(incr(a))
            .thread(incr(b))
            .finale(move || assert_eq!(fin.load(Ordering::SeqCst), 2))
    };
    let bounded = explore(
        ExploreConfig {
            preemption_bound: Some(0),
            ..ExploreConfig::default()
        },
        factory,
    );
    bounded.assert_ok();
    assert!(bounded.exhausted);
    let full = explore(
        ExploreConfig {
            preemption_bound: Some(1),
            ..ExploreConfig::default()
        },
        factory,
    );
    full.expect_failure("finale-panic");
}

#[test]
fn abba_deadlock_is_found_with_waits_for_edges() {
    let report = explore_default(|| {
        let a = Arc::new(CheckedMutex::new(()));
        let b = Arc::new(CheckedMutex::new(()));
        let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        Scenario::new()
            .thread(move || {
                let _ga = a1.lock();
                let _gb = b1.lock();
            })
            .thread(move || {
                let _gb = b2.lock();
                let _ga = a2.lock();
            })
    });
    let f = report.expect_failure("deadlock");
    assert!(
        f.message.contains("waits-for"),
        "diagnostic should show waits-for edges: {}",
        f.message
    );
}

#[test]
fn order_tags_catch_inversion_without_deadlock() {
    // Single thread acquiring high level then low level: never deadlocks,
    // but the order tags flag it on the very first schedule.
    let report = explore_default(|| {
        let hi = Arc::new(CheckedMutex::ordered((), 5, "delta"));
        let lo = Arc::new(CheckedMutex::ordered((), 2, "column"));
        Scenario::new().thread(move || {
            let _g_hi = hi.lock();
            let _g_lo = lo.lock();
        })
    });
    let f = report.expect_failure("latch-order");
    assert!(f.message.contains("acquisition stack"), "{}", f.message);
    assert!(f.message.contains("delta"), "{}", f.message);
}

#[test]
fn rwlatch_readers_share_writers_exclude() {
    let report = explore_default(|| {
        let l = Arc::new(CheckedRwLatch::new(0u32));
        let (r1, r2, w) = (Arc::clone(&l), Arc::clone(&l), Arc::clone(&l));
        let fin = Arc::clone(&l);
        Scenario::new()
            .thread(move || {
                let g = r1.read();
                let v = *g;
                assert!(v == 0 || v == 7, "reader saw torn value {v}");
            })
            .thread(move || {
                let g = r2.read();
                let v = *g;
                assert!(v == 0 || v == 7);
            })
            .thread(move || {
                let mut g = w.write();
                *g = 7;
            })
            .finale(move || assert_eq!(*fin.read(), 7))
    });
    report.assert_ok();
    assert!(report.exhausted);
}

#[test]
fn condvar_handshake_has_no_lost_wakeup() {
    let report = explore_default(|| {
        let pair = Arc::new((CheckedMutex::new(false), CheckedCondvar::new()));
        let (p1, p2) = (Arc::clone(&pair), Arc::clone(&pair));
        Scenario::new()
            .thread(move || {
                let (m, cv) = &*p1;
                let mut flag = m.lock();
                while !*flag {
                    cv.wait(&mut flag);
                }
            })
            .thread(move || {
                let (m, cv) = &*p2;
                *p2.0.lock() = true;
                let _ = m;
                cv.notify_all();
            })
    });
    report.assert_ok();
    assert!(report.exhausted);
}

#[test]
fn timed_wait_fires_only_as_last_resort() {
    // A lone timed waiter with no notifier must wake via the modelled
    // timeout on every schedule, never deadlock.
    let report = explore_default(|| {
        let pair = Arc::new((CheckedMutex::new(()), CheckedCondvar::new()));
        let p = Arc::clone(&pair);
        Scenario::new().thread(move || {
            let (m, cv) = &*p;
            let mut g = m.lock();
            let r = cv.wait_for(&mut g, std::time::Duration::from_millis(5));
            assert!(r.timed_out(), "no notifier exists; must be a timeout");
        })
    });
    report.assert_ok();
    assert!(report.exhausted);
}

#[test]
fn try_lock_explores_both_outcomes() {
    // Depending on the schedule, try_lock observes the lock both free and
    // held; the explorer must visit both.
    use std::sync::atomic::AtomicU64;
    let saw_free = Arc::new(AtomicU64::new(0));
    let saw_held = Arc::new(AtomicU64::new(0));
    let (sf, sh) = (Arc::clone(&saw_free), Arc::clone(&saw_held));
    let report = explore_default(move || {
        let m = Arc::new(CheckedMutex::new(()));
        let (m1, m2) = (Arc::clone(&m), Arc::clone(&m));
        let (sf, sh) = (Arc::clone(&sf), Arc::clone(&sh));
        Scenario::new()
            .thread(move || {
                let _g = m1.lock();
                aidx_check::yield_now();
            })
            .thread(move || match m2.try_lock() {
                Some(_) => {
                    sf.fetch_add(1, Ordering::Relaxed);
                }
                None => {
                    sh.fetch_add(1, Ordering::Relaxed);
                }
            })
    });
    report.assert_ok();
    assert!(report.exhausted);
    assert!(
        saw_free.load(Ordering::Relaxed) > 0,
        "some schedule found it free"
    );
    assert!(
        saw_held.load(Ordering::Relaxed) > 0,
        "some schedule found it held"
    );
}

#[test]
fn exploration_is_deterministic() {
    let run = || {
        explore_default(|| {
            let v = Arc::new(CheckedAtomicU64::new(0));
            let (a, b) = (Arc::clone(&v), Arc::clone(&v));
            Scenario::new()
                .thread(move || {
                    a.fetch_add(1, Ordering::SeqCst);
                    a.fetch_add(1, Ordering::SeqCst);
                })
                .thread(move || {
                    b.fetch_add(2, Ordering::SeqCst);
                })
        })
    };
    let (r1, r2) = (run(), run());
    assert_eq!(r1.schedules, r2.schedules, "same tree on every exploration");
    assert!(r1.exhausted && r2.exhausted);
}
