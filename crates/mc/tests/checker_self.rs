//! Self-tests for the checker engine: these validate the *checker*, not
//! the code under check. Half of them are detection-power tests — they
//! hand the checker a deliberately buggy model and require it to fail —
//! because a model checker that cannot find planted bugs proves nothing
//! when it passes.

// The tracked-cell tests dereference `UnsafeCell` pointers on purpose.
#![allow(unsafe_code)]

use mc::sync::atomic::{AtomicU64, Ordering};
use mc::sync::{Condvar, Mutex};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Two racing read-modify-write-by-hand increments (load; store) lose an
/// update in some interleaving; the checker must find it.
#[test]
fn finds_lost_update_between_plain_load_store() {
    let failure = mc::Checker::new("lost-update")
        .schedules(200)
        .try_check(|| {
            let c = Arc::new(AtomicU64::new(0));
            let mut ts = Vec::new();
            for _ in 0..2 {
                let c = Arc::clone(&c);
                ts.push(mc::thread::spawn(move || {
                    // ordering: deliberately non-atomic increment (the bug
                    // under test); SeqCst so only the interleaving, not
                    // stale values, can break it.
                    let v = c.load(Ordering::SeqCst);
                    c.store(v + 1, Ordering::SeqCst); // ordering: see comment above
                }));
            }
            for t in ts {
                t.join().unwrap();
            }
            // ordering: test harness readback.
            assert_eq!(c.load(Ordering::SeqCst), 2, "lost update");
        })
        .expect_err("checker must find the lost update");
    assert!(failure.message.contains("lost update"), "{failure}");
    assert!(failure.sseed.is_some(), "random mode must report a seed");
}

/// The same failing model must fail identically when re-run: the whole
/// point of seeded schedules is bit-for-bit reproducibility.
#[test]
fn failures_are_deterministic_across_reruns() {
    let run = || {
        mc::Checker::new("determinism")
            .schedules(200)
            .try_check(|| {
                let c = Arc::new(AtomicU64::new(0));
                let c2 = Arc::clone(&c);
                let t = mc::thread::spawn(move || {
                    // ordering: planted lost-update bug (see above).
                    let v = c2.load(Ordering::SeqCst);
                    c2.store(v + 1, Ordering::SeqCst); // ordering: see comment above
                });
                // ordering: planted lost-update bug (see above).
                let v = c.load(Ordering::SeqCst);
                c.store(v + 1, Ordering::SeqCst); // ordering: see comment above
                t.join().unwrap();
                // ordering: test harness readback.
                assert_eq!(c.load(Ordering::SeqCst), 2, "lost update");
            })
            .expect_err("must fail")
    };
    let a = run();
    let b = run();
    assert_eq!(a.schedule, b.schedule);
    assert_eq!(a.sseed, b.sseed);
    assert_eq!(a.message, b.message);
}

/// Mutex-protected increments never lose updates, under every schedule.
#[test]
fn mutex_excludes_under_all_schedules() {
    let report = mc::Checker::new("mutex-counter").schedules(150).check(|| {
        let c = Arc::new(Mutex::new(0u64));
        let mut ts = Vec::new();
        for _ in 0..3 {
            let c = Arc::clone(&c);
            ts.push(mc::thread::spawn(move || {
                *c.lock() += 1;
            }));
        }
        for t in ts {
            t.join().unwrap();
        }
        assert_eq!(*c.lock(), 3);
    });
    assert!(report.schedules_run >= 1);
}

/// Proper RMW increments are atomic even at `Relaxed`.
#[test]
fn fetch_add_is_atomic() {
    mc::Checker::new("fetch-add").schedules(100).check(|| {
        let c = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&c);
        let t = mc::thread::spawn(move || {
            // ordering: Relaxed suffices — RMW atomicity is independent
            // of memory ordering; only the count matters here.
            c2.fetch_add(1, Ordering::Relaxed);
        });
        // ordering: as above.
        c.fetch_add(1, Ordering::Relaxed);
        t.join().unwrap();
        // ordering: join above established happens-before with both adds.
        assert_eq!(c.load(Ordering::SeqCst), 2);
    });
}

/// Message passing through a Relaxed flag is broken: the data load may
/// observe a stale value because nothing orders it after the data store.
/// TSan-style or stress tests on x86 structurally cannot catch this;
/// the allowed-stale model must.
#[test]
fn catches_relaxed_publication_bug() {
    let failure = mc::Checker::new("relaxed-pub")
        .schedules(300)
        .try_check(|| {
            let data = Arc::new(AtomicU64::new(0));
            let flag = Arc::new(AtomicU64::new(0));
            let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
            let t = mc::thread::spawn(move || {
                // ordering: payload write; deliberately Relaxed — the
                // planted bug is the missing release/acquire pair.
                d2.store(42, Ordering::Relaxed);
                // ordering: planted bug — should be Release.
                f2.store(1, Ordering::Relaxed);
            });
            // ordering: planted bug — should be Acquire.
            if flag.load(Ordering::Relaxed) == 1 {
                // ordering: Relaxed payload read, may legally be stale.
                let v = data.load(Ordering::Relaxed);
                assert_eq!(v, 42, "stale publication");
            }
            t.join().unwrap();
        })
        .expect_err("checker must catch the missing release/acquire pair");
    assert!(failure.message.contains("stale publication"), "{failure}");
}

/// The fixed version of the same protocol — Release store, Acquire load
/// — must pass every schedule: the acquire join makes the stale value
/// coherence-forbidden.
#[test]
fn release_acquire_publication_is_clean() {
    mc::Checker::new("relacq-pub").schedules(300).check(|| {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicU64::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = mc::thread::spawn(move || {
            // ordering: payload write ordered before the Release flag
            // store below.
            d2.store(42, Ordering::Relaxed);
            // ordering: Release publishes the payload to Acquire loaders;
            // pairs-with: mc.self-flag.
            f2.store(1, Ordering::Release);
        });
        // ordering: Acquire pairs with the Release store of the flag;
        // pairs-with: mc.self-flag.
        if flag.load(Ordering::Acquire) == 1 {
            // ordering: happens-after the payload write via the
            // acquired flag; stale 0 is coherence-forbidden.
            assert_eq!(data.load(Ordering::Relaxed), 42);
        }
        t.join().unwrap();
    });
}

/// The race detector flags unsynchronised cell access with both source
/// locations.
#[test]
fn detects_data_race_on_tracked_cell() {
    struct Shared(mc::cell::UnsafeCell<u64>);
    // SAFETY: deliberately racy test fixture; the point is that the
    // checker, not the type system, rejects it.
    unsafe impl Send for Shared {}
    // SAFETY: as above.
    unsafe impl Sync for Shared {}

    let failure = mc::Checker::new("race")
        .schedules(100)
        .try_check(|| {
            let s = Arc::new(Shared(mc::cell::UnsafeCell::new(0)));
            let s2 = Arc::clone(&s);
            let t = mc::thread::spawn(move || {
                // SAFETY: single-threaded under the model token; the
                // *race* (no happens-before with the main thread's
                // write) is the planted bug.
                s2.0.with_mut(|p| unsafe { *p += 1 });
            });
            // SAFETY: as above — planted race.
            s.0.with_mut(|p| unsafe { *p += 1 });
            t.join().unwrap();
        })
        .expect_err("checker must detect the cell race");
    assert!(failure.message.contains("data race"), "{failure}");
    assert!(failure.message.contains("checker_self.rs"), "{failure}");
}

/// Mutex-protected cell access is race-free.
#[test]
fn mutex_protected_cell_is_race_free() {
    struct Shared {
        m: Mutex<()>,
        v: mc::cell::UnsafeCell<u64>,
    }
    // SAFETY: all cell access happens under `m` (checked by the model).
    unsafe impl Send for Shared {}
    // SAFETY: as above.
    unsafe impl Sync for Shared {}

    mc::Checker::new("guarded-cell").schedules(100).check(|| {
        let s = Arc::new(Shared {
            m: Mutex::new(()),
            v: mc::cell::UnsafeCell::new(0),
        });
        let s2 = Arc::clone(&s);
        let t = mc::thread::spawn(move || {
            let _g = s2.m.lock();
            // SAFETY: exclusive under `m`.
            s2.v.with_mut(|p| unsafe { *p += 1 });
        });
        {
            let _g = s.m.lock();
            // SAFETY: exclusive under `m`.
            s.v.with_mut(|p| unsafe { *p += 1 });
        }
        t.join().unwrap();
        let _g = s.m.lock();
        // SAFETY: exclusive under `m`; both writers joined or locked out.
        s.v.with(|p| assert_eq!(unsafe { *p }, 2));
    });
}

/// A waiter whose notify is missing deadlocks (untimed) — the scheduler
/// proves the lost wakeup instead of hanging the test.
#[test]
fn detects_deadlock_from_missing_notify() {
    let failure = mc::Checker::new("missing-notify")
        .schedules(50)
        .try_check(|| {
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            let p2 = Arc::clone(&pair);
            let t = mc::thread::spawn(move || {
                // Planted bug: sets the flag but never notifies.
                *p2.0.lock() = true;
            });
            let mut g = pair.0.lock();
            // Predicate checked once before waiting — combined with the
            // missing notify this deadlocks in schedules where the
            // setter runs after the predicate check.
            if !*g {
                pair.1.wait(&mut g);
            }
            drop(g);
            t.join().unwrap();
        })
        .expect_err("checker must detect the deadlock");
    assert!(failure.message.contains("deadlock"), "{failure}");
}

/// Timed waits use virtual time: with a correct notify protocol the
/// timeout never fires (no lost wakeup); `mc::timeouts_fired()` is the
/// witness.
#[test]
fn correct_notify_protocol_never_times_out() {
    let report = mc::Checker::new("no-lost-wakeup").schedules(200).check(|| {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = mc::thread::spawn(move || {
            *p2.0.lock() = true;
            p2.1.notify_one();
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut g = pair.0.lock();
        while !*g {
            let r = pair.1.wait_until(&mut g, deadline);
            assert!(
                !r.timed_out(),
                "lost wakeup: timed out with a pending notify"
            );
        }
        drop(g);
        t.join().unwrap();
        assert_eq!(mc::timeouts_fired(), 0, "virtual timeout fired");
    });
    assert!(report.timeouts == 0);
}

/// A timed wait with no notifier fires the virtual timeout (rather than
/// deadlocking), and reports it.
#[test]
fn timed_wait_without_notify_fires_virtual_timeout() {
    let report = mc::Checker::new("virtual-timeout").schedules(20).check(|| {
        let pair = (Mutex::new(()), Condvar::new());
        let mut g = pair.0.lock();
        let r = pair
            .1
            .wait_until(&mut g, Instant::now() + Duration::from_secs(60));
        assert!(r.timed_out());
        assert_eq!(mc::timeouts_fired(), 1);
    });
    assert!(report.timeouts >= 1);
}

/// Exhaustive mode on a correct 2-thread model explores the (pruned)
/// tree to completion and agrees there is no bug.
#[test]
fn exhaustive_mode_completes_on_correct_model() {
    let report = mc::Checker::new("exhaustive-ok")
        .schedules(5000)
        .exhaustive()
        .check(|| {
            let c = Arc::new(AtomicU64::new(0));
            let c2 = Arc::clone(&c);
            let t = mc::thread::spawn(move || {
                // ordering: atomic RMW; ordering irrelevant to the count.
                c2.fetch_add(1, Ordering::Relaxed);
            });
            // ordering: as above.
            c.fetch_add(1, Ordering::Relaxed);
            t.join().unwrap();
            // ordering: reads after join (happens-before established).
            assert_eq!(c.load(Ordering::SeqCst), 2);
        });
    assert!(report.complete, "DFS should finish within budget");
    assert!(report.schedules_run >= 2, "must explore both orders");
}

/// Exhaustive mode finds the lost update without any randomness.
#[test]
fn exhaustive_mode_finds_lost_update() {
    let failure = mc::Checker::new("exhaustive-bug")
        .schedules(5000)
        .exhaustive()
        .try_check(|| {
            let c = Arc::new(AtomicU64::new(0));
            let c2 = Arc::clone(&c);
            let t = mc::thread::spawn(move || {
                // ordering: planted lost-update bug.
                let v = c2.load(Ordering::SeqCst);
                c2.store(v + 1, Ordering::SeqCst); // ordering: see comment above
            });
            // ordering: planted lost-update bug.
            let v = c.load(Ordering::SeqCst);
            c.store(v + 1, Ordering::SeqCst); // ordering: see comment above
            t.join().unwrap();
            // ordering: test harness readback.
            assert_eq!(c.load(Ordering::SeqCst), 2, "lost update");
        })
        .expect_err("exhaustive mode must find the lost update");
    assert!(failure.message.contains("lost update"), "{failure}");
}

/// Sleep sets prune: for two threads touching *different* atomics the
/// orders commute, so the pruned tree is much smaller than 2^steps.
#[test]
fn sleep_sets_prune_independent_ops() {
    let report = mc::Checker::new("sleep-prune")
        .schedules(5000)
        .exhaustive()
        .check(|| {
            let a = Arc::new(AtomicU64::new(0));
            let b = Arc::new(AtomicU64::new(0));
            let a2 = Arc::clone(&a);
            let t = mc::thread::spawn(move || {
                // ordering: independent object; any order is equivalent.
                a2.store(1, Ordering::SeqCst);
            });
            // ordering: independent object; any order is equivalent.
            b.store(1, Ordering::SeqCst);
            t.join().unwrap();
        });
    assert!(report.complete);
    // Without pruning this would need every interleaving of the two
    // stores plus bookkeeping steps; with sleep sets a handful suffice.
    assert!(
        report.schedules_run <= 16,
        "expected heavy pruning, ran {} schedules",
        report.schedules_run
    );
}
