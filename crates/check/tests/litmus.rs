//! Litmus tests for the model checker itself: classic weak-memory and
//! interleaving shapes with known verdicts. If the engine cannot find
//! these violations (or reports spurious ones), nothing downstream can be
//! trusted — this file is the checker's own acceptance gate.

use std::sync::atomic::Ordering;

use rdht_check::cell::UnsafeCell;
use rdht_check::sync::{Arc, AtomicU64, Mutex};
use rdht_check::{model, model_expect_violation, model_with, thread, Config};

fn exhaustive() -> Config {
    Config {
        preemption_bound: None,
        ..Config::default()
    }
}

/// Message passing with Release/Acquire: the classic publication idiom
/// must hold in every schedule.
#[test]
fn message_passing_release_acquire_holds() {
    let report = model_with(exhaustive(), || {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicU64::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(1, Ordering::Release);
        });
        if flag.load(Ordering::Acquire) == 1 {
            assert_eq!(data.load(Ordering::Relaxed), 42, "publication torn");
        }
        t.join().unwrap();
    });
    assert!(
        report.schedules >= 3,
        "expected several interleavings, saw {}",
        report.schedules
    );
}

/// The same shape with a Relaxed publication store must fail: the model
/// exposes the stale read a real weak machine could produce.
#[test]
fn message_passing_relaxed_fails() {
    let failure = model_expect_violation(exhaustive(), || {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicU64::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(1, Ordering::Relaxed);
        });
        if flag.load(Ordering::Acquire) == 1 {
            assert_eq!(data.load(Ordering::Relaxed), 42, "publication torn");
        }
        t.join().unwrap();
    });
    assert!(failure.contains("publication torn"), "{failure}");
    assert!(failure.contains("interleaving"), "{failure}");
}

/// Two unsynchronized load+store increments lose an update in some
/// schedule; the checker must find it.
#[test]
fn load_store_increment_loses_updates() {
    let failure = model_expect_violation(exhaustive(), || {
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&counter);
        let t = thread::spawn(move || {
            let v = c2.load(Ordering::Relaxed);
            c2.store(v + 1, Ordering::Relaxed);
        });
        let v = counter.load(Ordering::Relaxed);
        counter.store(v + 1, Ordering::Relaxed);
        t.join().unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 2, "lost increment");
    });
    assert!(failure.contains("lost increment"), "{failure}");
}

/// `fetch_add` increments are atomic: no schedule loses one.
#[test]
fn fetch_add_increments_are_exact() {
    model_with(exhaustive(), || {
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&counter);
        let t = thread::spawn(move || {
            c2.fetch_add(1, Ordering::Relaxed);
        });
        counter.fetch_add(1, Ordering::Relaxed);
        t.join().unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 2);
    });
}

/// Mutexes exclude and synchronize: a guarded read-modify-write never
/// loses updates even with plain (non-atomic) data inside.
#[test]
fn mutex_guards_exclude() {
    model(|| {
        let shared = Arc::new(Mutex::new(0u64));
        let s2 = Arc::clone(&shared);
        let t = thread::spawn(move || {
            *s2.lock().unwrap() += 1;
        });
        *shared.lock().unwrap() += 1;
        t.join().unwrap();
        assert_eq!(*shared.lock().unwrap(), 2);
    });
}

/// Lock-order inversion: the checker reports the deadlock instead of
/// hanging.
#[test]
fn lock_order_inversion_is_a_deadlock() {
    let failure = model_expect_violation(exhaustive(), || {
        let a = Arc::new(Mutex::new(()));
        let b = Arc::new(Mutex::new(()));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t = thread::spawn(move || {
            let _ga = a2.lock().unwrap();
            let _gb = b2.lock().unwrap();
        });
        let _gb = b.lock().unwrap();
        let _ga = a.lock().unwrap();
        drop((_gb, _ga));
        t.join().unwrap();
    });
    assert!(failure.contains("deadlock"), "{failure}");
}

/// Unsynchronized concurrent cell accesses are reported as a data race
/// with both source locations.
#[test]
fn unsynchronized_cell_access_races() {
    let failure = model_expect_violation(exhaustive(), || {
        let cell = Arc::new(UnsafeCell::new(0u64));
        let c2 = Arc::clone(&cell);
        let t = thread::spawn(move || {
            c2.with_mut(|p| unsafe { *p = 1 });
        });
        cell.with(|p| unsafe { *p });
        t.join().unwrap();
    });
    assert!(failure.contains("data race"), "{failure}");
    assert!(failure.contains("litmus.rs"), "{failure}");
}

/// The same cell protected by a mutex is race-free.
#[test]
fn mutex_protected_cell_is_race_free() {
    model(|| {
        let lock = Arc::new(Mutex::new(()));
        let cell = Arc::new(UnsafeCell::new(0u64));
        let (l2, c2) = (Arc::clone(&lock), Arc::clone(&cell));
        let t = thread::spawn(move || {
            let _g = l2.lock().unwrap();
            c2.with_mut(|p| unsafe { *p += 1 });
        });
        {
            let _g = lock.lock().unwrap();
            cell.with_mut(|p| unsafe { *p += 1 });
        }
        t.join().unwrap();
        let _g = lock.lock().unwrap();
        assert_eq!(cell.with(|p| unsafe { *p }), 2);
    });
}

/// The preemption bound really bounds. The probe bug is a lost update
/// through a read-unlock-relock-write gap: every operation is a mutex op
/// (strongly synchronized — no stale read can substitute for a context
/// switch), so the bug is reachable *only* by preempting the gap. Bound 0
/// (threads run to completion except at voluntary blocks) cannot see it;
/// bound 2 can.
#[test]
fn preemption_bound_trades_coverage() {
    let racy = |cfg: Config| {
        let run = || {
            let shared = Arc::new(Mutex::new(0u64));
            let s2 = Arc::clone(&shared);
            let increment_with_gap = |m: &Mutex<u64>| {
                let v = *m.lock().unwrap();
                *m.lock().unwrap() = v + 1;
            };
            let t = thread::spawn(move || increment_with_gap(&s2));
            increment_with_gap(&shared);
            t.join().unwrap();
            assert_eq!(*shared.lock().unwrap(), 2, "lost increment");
        };
        rdht_check::exec_probe(cfg, run)
    };
    assert!(racy(Config {
        preemption_bound: Some(0),
        ..Config::default()
    })
    .is_none());
    // Bound 2 covers it.
    assert!(racy(Config {
        preemption_bound: Some(2),
        ..Config::default()
    })
    .is_some());
}

/// CAS spin loops terminate under the model thanks to yield semantics,
/// and CAS exclusion holds.
#[test]
fn cas_spinlock_excludes() {
    model(|| {
        let lock = Arc::new(AtomicU64::new(0));
        let cell = Arc::new(UnsafeCell::new(0u64));
        let (l2, c2) = (Arc::clone(&lock), Arc::clone(&cell));
        let acquire = |l: &AtomicU64| {
            while l
                .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                thread::yield_now();
            }
        };
        let t = thread::spawn(move || {
            acquire(&l2);
            c2.with_mut(|p| unsafe { *p += 1 });
            l2.store(0, Ordering::Release);
        });
        acquire(&lock);
        cell.with_mut(|p| unsafe { *p += 1 });
        lock.store(0, Ordering::Release);
        t.join().unwrap();
        acquire(&lock);
        assert_eq!(cell.with(|p| unsafe { *p }), 2);
        lock.store(0, Ordering::Release);
    });
}

/// Three threads, sanity check that exploration scales and fetch_max is
/// exact (a high-water mark).
#[test]
fn three_thread_fetch_max_converges() {
    let report = model_with(Config::default(), || {
        let hwm = Arc::new(AtomicU64::new(0));
        let (h2, h3) = (Arc::clone(&hwm), Arc::clone(&hwm));
        let t2 = thread::spawn(move || {
            h2.fetch_max(10, Ordering::Relaxed);
        });
        let t3 = thread::spawn(move || {
            h3.fetch_max(7, Ordering::Relaxed);
        });
        hwm.fetch_max(3, Ordering::Relaxed);
        t2.join().unwrap();
        t3.join().unwrap();
        assert_eq!(hwm.load(Ordering::Relaxed), 10, "high-water mark lost");
    });
    assert!(report.schedules >= 3, "saw {} schedules", report.schedules);
}
