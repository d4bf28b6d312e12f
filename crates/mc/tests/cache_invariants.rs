//! Model-checked invariants for `alligator::BucketCache` — one mutex over
//! one generation-ordered FIFO, one condvar, an atomic `len` — explored
//! under the controlled scheduler (`alligator` is built with
//! `--features mc` here). Every invariant runs twice: seeded-random
//! schedules (broad, cheap) and the bounded-exhaustive DFS (systematic).
//!
//! Replay a failure with `MC_REPLAY=<seed> cargo test -p mc <test>`;
//! see `crates/mc/README.md`. The detection-power test at the bottom
//! seeds the one protocol bug this design can still be given (a park
//! predicate read outside the lock) and asserts the checker finds it.

use alligator::{AllocStats, Bucket, BucketCache, Tetris};
use mc::sync::atomic::{AtomicUsize, Ordering};
use mc::sync::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wafl_blockdev::{AaId, DriveId, DriveKind, GeometryBuilder, IoEngine, RaidGroupId, Vbn};

/// One shared (model-invisible) I/O engine: bucket construction cost is
/// paid once per test, not once per bucket per schedule.
fn engine() -> Arc<IoEngine> {
    Arc::new(IoEngine::new(
        Arc::new(
            GeometryBuilder::new()
                .aa_stripes(32)
                .raid_group(1, 1, 4096)
                .build(),
        ),
        DriveKind::Ssd,
    ))
}

fn mk_bucket(engine: &Arc<IoEngine>, drive: u32, start: u64, generation: u64) -> Bucket {
    let t = Tetris::new(
        RaidGroupId(0),
        1,
        Arc::clone(engine),
        Arc::new(AllocStats::default()),
    );
    Bucket::new(
        RaidGroupId(0),
        0,
        DriveId(drive),
        AaId {
            rg: RaidGroupId(0),
            index: 0,
        },
        (start..start + 4).map(Vbn).collect(),
        0,
        t,
        generation,
    )
}

/// Run `model` under seeded-random schedules, then under the bounded
/// exhaustive DFS.
fn check_both(name: &str, model: impl Fn() + Copy) {
    mc::Checker::new(name).schedules(300).check(model);
    let report = mc::Checker::new(name)
        .exhaustive()
        .schedules(20_000)
        .check(model);
    assert!(report.schedules_run >= 1);
}

fn drain(c: &BucketCache) -> Vec<(u64, u64)> {
    std::iter::from_fn(|| c.try_get())
        .map(|b| (b.generation(), b.start_vbn().0))
        .collect()
}

fn assert_ascending(gens: impl IntoIterator<Item = u64>, what: &str) {
    let gens: Vec<u64> = gens.into_iter().collect();
    assert!(gens.windows(2).all(|w| w[0] <= w[1]), "{what}: {gens:?}");
}

/// Bucket conservation across concurrent GETs: every inserted bucket is
/// delivered to exactly one consumer, none are lost, none are duplicated
/// — under every explored interleaving. Also witnesses liveness: with 3
/// buckets and 2 getters, neither getter may need its (virtual) timeout.
#[test]
fn concurrent_gets_conserve_buckets() {
    let eng = engine();
    check_both("cache-conservation", || {
        let c = Arc::new(BucketCache::new());
        c.insert_all([
            mk_bucket(&eng, 0, 0, 1),
            mk_bucket(&eng, 1, 100, 1),
            mk_bucket(&eng, 2, 200, 1),
        ]);
        let getters: Vec<_> = (0..2)
            .map(|_| {
                let c = Arc::clone(&c);
                mc::thread::spawn(move || {
                    c.get_timeout(Duration::from_secs(5))
                        .map(|b| b.start_vbn().0)
                })
            })
            .collect();
        let mut got: Vec<u64> = getters
            .into_iter()
            .filter_map(|t| t.join().unwrap())
            .collect();
        assert_eq!(got.len(), 2, "a getter starved with buckets available");
        assert_eq!(mc::timeouts_fired(), 0, "a getter needed its timeout");
        assert_eq!(c.len(), 1, "len disagrees with the queue");
        got.extend(drain(&c).into_iter().map(|(_, v)| v));
        got.sort_unstable();
        assert_eq!(got, vec![0, 100, 200], "bucket lost or duplicated");
    });
}

/// §IV-D collective visibility: a getter that observes any bucket of a
/// refill round observes the whole round. With a 2-bucket round and a
/// single consumer, the first successful GET implies the second cannot
/// miss.
#[test]
fn insert_all_is_collectively_visible() {
    let eng = engine();
    check_both("cache-collective", || {
        let c = Arc::new(BucketCache::new());
        let c1 = Arc::clone(&c);
        let eng1 = Arc::clone(&eng);
        let publisher = mc::thread::spawn(move || {
            c1.insert_all([mk_bucket(&eng1, 0, 0, 1), mk_bucket(&eng1, 1, 100, 1)]);
        });
        let c2 = Arc::clone(&c);
        let getter = mc::thread::spawn(move || {
            if c2.try_get().is_some() {
                assert!(
                    c2.try_get().is_some(),
                    "observed a partially published round"
                );
            }
        });
        publisher.join().unwrap();
        getter.join().unwrap();
    });
}

/// Oldest-round-first: whatever the interleaving of a getter, a cleaner
/// requeueing an untouched round-1 bucket and a publisher landing rounds
/// 2 and 3, pops come out in generation order — an older bucket is never
/// left behind a newer round.
#[test]
fn oldest_round_pops_first_despite_requeue_races() {
    let eng = engine();
    check_both("cache-oldest-first", || {
        let c = Arc::new(BucketCache::new());
        c.insert_all([mk_bucket(&eng, 0, 0, 1)]);
        let held = mk_bucket(&eng, 1, 10, 1);
        let c1 = Arc::clone(&c);
        let getter = mc::thread::spawn(move || c1.try_get().map(|b| b.generation()));
        let c2 = Arc::clone(&c);
        let requeuer = mc::thread::spawn(move || c2.insert(held));
        let c3 = Arc::clone(&c);
        let eng3 = Arc::clone(&eng);
        let publisher = mc::thread::spawn(move || {
            c3.insert_all([mk_bucket(&eng3, 0, 100, 2)]);
            c3.insert_all([mk_bucket(&eng3, 0, 200, 3)]);
        });
        let got = getter.join().unwrap();
        requeuer.join().unwrap();
        publisher.join().unwrap();
        assert_eq!(got, Some(1), "round 1 was available and is the oldest");
        let rest = drain(&c);
        assert_eq!(rest.len(), 3, "bucket lost or duplicated: {rest:?}");
        assert_ascending(
            rest.iter().map(|&(g, _)| g),
            "an older round sits behind a newer one",
        );
    });
}

/// No lost wakeup: a getter that finds the cache empty must be woken by
/// the insert, and must never need the virtual timeout to make progress.
/// A schedule where the park and the insert interleave so the notify is
/// missed shows up as `timeouts_fired() == 1` — a scheduler-proven
/// liveness failure, not a wall-clock race.
#[test]
fn insert_never_loses_a_wakeup() {
    let eng = engine();
    check_both("cache-lost-wakeup", || {
        let c = Arc::new(BucketCache::new());
        let c1 = Arc::clone(&c);
        let waiter = mc::thread::spawn(move || c1.get_timeout(Duration::from_secs(5)));
        c.insert(mk_bucket(&eng, 0, 0, 1));
        let got = waiter.join().unwrap();
        assert!(got.is_some(), "waiter timed out with a bucket available");
        assert_eq!(
            mc::timeouts_fired(),
            0,
            "wakeup was lost: the waiter only progressed via its timeout"
        );
    });
}

/// Batched GET vs a racing collective publish: the batch never mixes
/// refill rounds, never loses buckets, and leaves the cache drainable in
/// round order.
#[test]
fn get_many_respects_round_boundary_under_publish() {
    let eng = engine();
    check_both("cache-batch-boundary", || {
        let c = Arc::new(BucketCache::new());
        c.insert_all([mk_bucket(&eng, 0, 0, 1), mk_bucket(&eng, 1, 10, 1)]);
        let c1 = Arc::clone(&c);
        let batcher = mc::thread::spawn(move || {
            c1.get_many(8)
                .into_iter()
                .map(|b| (b.generation(), b.start_vbn().0))
                .collect::<Vec<_>>()
        });
        let c2 = Arc::clone(&c);
        let eng2 = Arc::clone(&eng);
        let publisher = mc::thread::spawn(move || {
            c2.insert_all([mk_bucket(&eng2, 0, 100, 2), mk_bucket(&eng2, 1, 110, 2)]);
        });
        let mut all = batcher.join().unwrap();
        publisher.join().unwrap();
        assert_eq!(
            all,
            vec![(1, 0), (1, 10)],
            "the batch is exactly round 1, whole and unmixed"
        );
        let rest = drain(&c);
        assert_ascending(rest.iter().map(|&(g, _)| g), "drain out of round order");
        all.extend(rest);
        assert_eq!(
            all.iter().map(|&(_, v)| v).collect::<Vec<_>>(),
            vec![0, 10, 100, 110],
            "bucket lost or duplicated"
        );
    });
}

// ---------------------------------------------------------------------------
// Detection power: seed the bug this design can still be given; the
// checker must find it.
// ---------------------------------------------------------------------------

/// The cache with its one remaining way to go wrong: the inserter bumps
/// `len` and notifies *after* releasing the lock, and the getter decides
/// to park from `len` *before* taking it. The insert can then land whole
/// between the getter's `len == 0` and its wait, and the getter sleeps
/// through a non-empty cache.
struct LenOutsideLock {
    q: Mutex<VecDeque<u64>>,
    available: Condvar,
    len: AtomicUsize,
}

impl LenOutsideLock {
    fn insert_buggy(&self, v: u64) {
        self.q.lock().push_back(v);
        // BUG: len and the notify are published outside the lock.
        // ordering: SeqCst — the bug is the missing lock, not the ordering.
        self.len.fetch_add(1, Ordering::SeqCst);
        self.available.notify_one();
    }

    fn get_buggy(&self, timeout: Duration) -> Option<u64> {
        let deadline = Instant::now() + timeout;
        loop {
            // BUG: the park predicate is read outside the lock.
            // ordering: SeqCst — as above.
            if self.len.load(Ordering::SeqCst) > 0 {
                if let Some(v) = self.q.lock().pop_front() {
                    // ordering: SeqCst — as above.
                    self.len.fetch_sub(1, Ordering::SeqCst);
                    return Some(v);
                }
            } else {
                let mut q = self.q.lock();
                if self.available.wait_until(&mut q, deadline).timed_out() {
                    return q.pop_front();
                }
            }
        }
    }
}

/// Seeded-bug test: the checker must find the schedule where the whole
/// insert runs between the getter's `len` read and its park.
#[test]
fn checker_finds_wakeup_lost_to_len_outside_the_lock() {
    let result = mc::Checker::new("len-outside-lock")
        .schedules(2000)
        .try_check(|| {
            let c = Arc::new(LenOutsideLock {
                q: Mutex::new(VecDeque::new()),
                available: Condvar::new(),
                len: AtomicUsize::new(0),
            });
            let c1 = Arc::clone(&c);
            let waiter = mc::thread::spawn(move || c1.get_buggy(Duration::from_secs(5)));
            c.insert_buggy(7);
            assert_eq!(waiter.join().unwrap(), Some(7));
            assert_eq!(
                mc::timeouts_fired(),
                0,
                "wakeup was lost: the getter slept through the insert"
            );
        });
    let failure = result.expect_err("the checker must detect the lost wakeup");
    assert!(
        failure.message.contains("slept through"),
        "unexpected failure message: {}",
        failure.message
    );
    assert!(
        failure.sseed.is_some(),
        "random-mode failure must be replayable"
    );
}
