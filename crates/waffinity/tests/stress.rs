//! Pool stress tests: message storms across the hierarchy with live
//! conflict detection, ordering checks, and lifecycle edges.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicI32, AtomicU64, Ordering};
use std::sync::Arc;
use waffinity::{Affinity, Model, Topology, WaffinityPool};

fn topo() -> Arc<Topology> {
    Arc::new(Topology::symmetric(Model::Hierarchical, 2, 2, 4, 4))
}

/// Per-affinity-subtree entry counters; any Serial message observing a
/// nonzero sum is a scheduler violation.
struct Detector {
    counts: Vec<AtomicI32>,
    violations: AtomicU64,
}

impl Detector {
    fn new(n: usize) -> Arc<Self> {
        Arc::new(Self {
            counts: (0..n).map(|_| AtomicI32::new(0)).collect(),
            violations: AtomicU64::new(0),
        })
    }
}

#[test]
fn storm_of_mixed_affinities_never_violates_exclusion() {
    let topo = topo();
    let pool = WaffinityPool::new(Arc::clone(&topo), 4);
    let det = Detector::new(topo.len());

    // A message in affinity X bumps X's counter; a message in an ancestor
    // asserts every descendant counter in its subtree is zero.
    let all: Vec<Affinity> = vec![
        Affinity::Serial,
        Affinity::Aggregate(0),
        Affinity::Aggregate(1),
        Affinity::Volume(0),
        Affinity::Volume(3),
        Affinity::VolumeLogical(1),
        Affinity::Stripe(0, 0),
        Affinity::Stripe(0, 3),
        Affinity::Stripe(2, 1),
        Affinity::VolumeVbn(2),
        Affinity::VolVbnRange(1, 2),
        Affinity::AggrVbn(0),
        Affinity::AggrVbnRange(0, 1),
        Affinity::AggrVbnRange(1, 3),
    ];
    for round in 0..200usize {
        let a = all[round % all.len()];
        let id = topo.id(a);
        let det = Arc::clone(&det);
        let topo2 = Arc::clone(&topo);
        pool.send(a, move || {
            let me = id.0 as usize;
            // ordering: SeqCst — the exclusion detector needs a single total order across its counters.
            det.counts[me].fetch_add(1, Ordering::SeqCst);
            // Check: no other running affinity may be my ancestor or
            // descendant. We verify the descendant direction (ancestors
            // hold the same invariant symmetrically from their side).
            for other in 0..det.counts.len() {
                if other == me {
                    continue;
                }
                // ordering: SeqCst — the exclusion detector needs a single total order across its counters.
                if det.counts[other].load(Ordering::SeqCst) > 0 {
                    let o = waffinity::AffinityId(other as u32);
                    if topo2.conflicts(id, o) {
                        // ordering: SeqCst — the exclusion detector needs a single total order across its counters.
                        det.violations.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
            std::thread::yield_now();
            // ordering: SeqCst — the exclusion detector needs a single total order across its counters.
            det.counts[me].fetch_sub(1, Ordering::SeqCst);
        });
    }
    pool.wait_idle();
    // ordering: test readback.
    assert_eq!(det.violations.load(Ordering::SeqCst), 0);
    assert_eq!(pool.total_messages(), 200);
}

#[test]
fn messages_sent_from_inside_messages_complete() {
    // Infra messages enqueue follow-up messages (commit → refill); the
    // pool must handle re-entrant sends.
    let topo = topo();
    let pool = Arc::new(WaffinityPool::new(Arc::clone(&topo), 3));
    let hits = Arc::new(AtomicU64::new(0));
    for i in 0..20u32 {
        let pool2 = Arc::clone(&pool);
        let hits2 = Arc::clone(&hits);
        pool.send(Affinity::AggrVbnRange(0, i % 4), move || {
            // ordering: statistics counter; staleness is acceptable.
            hits2.fetch_add(1, Ordering::Relaxed);
            let hits3 = Arc::clone(&hits2);
            pool2.send(Affinity::AggrVbnRange(1, i % 4), move || {
                // ordering: statistics counter; staleness is acceptable.
                hits3.fetch_add(1, Ordering::Relaxed);
            });
        });
    }
    // Wait for both generations.
    loop {
        pool.wait_idle();
        // ordering: statistics counter; staleness is acceptable.
        if hits.load(Ordering::Relaxed) >= 40 {
            break;
        }
    }
    // ordering: test readback.
    assert_eq!(hits.load(Ordering::Relaxed), 40);
}

#[test]
fn serial_message_sees_quiesced_system_under_storm() {
    let topo = topo();
    let pool = WaffinityPool::new(Arc::clone(&topo), 4);
    let in_flight = Arc::new(AtomicI32::new(0));
    let violations = Arc::new(AtomicU64::new(0));
    for round in 0..300usize {
        if round % 30 == 29 {
            let f = Arc::clone(&in_flight);
            let v = Arc::clone(&violations);
            pool.send(Affinity::Serial, move || {
                // ordering: SeqCst — the exclusion detector needs a single total order across its counters.
                if f.load(Ordering::SeqCst) != 0 {
                    // ordering: SeqCst — the exclusion detector needs a single total order across its counters.
                    v.fetch_add(1, Ordering::SeqCst);
                }
            });
        } else {
            let f = Arc::clone(&in_flight);
            let vol = (round % 4) as u32;
            let stripe = (round % 4) as u32;
            pool.send(Affinity::Stripe(vol, stripe), move || {
                // ordering: SeqCst — the exclusion detector needs a single total order across its counters.
                f.fetch_add(1, Ordering::SeqCst);
                std::thread::yield_now();
                // ordering: SeqCst — the exclusion detector needs a single total order across its counters.
                f.fetch_sub(1, Ordering::SeqCst);
            });
        }
    }
    pool.wait_idle();
    // ordering: test readback.
    assert_eq!(violations.load(Ordering::SeqCst), 0);
}

#[test]
fn per_affinity_fifo_holds_under_concurrency() {
    let topo = topo();
    let pool = WaffinityPool::new(Arc::clone(&topo), 4);
    let logs: Vec<Arc<Mutex<Vec<u32>>>> = (0..3)
        .map(|_| Arc::new(Mutex::ranked(Vec::new(), "test.log", 100)))
        .collect();
    for i in 0..120u32 {
        let lane = (i % 3) as usize;
        let log = Arc::clone(&logs[lane]);
        pool.send(Affinity::VolVbnRange(lane as u32, 0), move || {
            log.lock().push(i);
        });
    }
    pool.wait_idle();
    for (lane, log) in logs.iter().enumerate() {
        let got = log.lock().clone();
        let expect: Vec<u32> = (0..120).filter(|i| (i % 3) as usize == lane).collect();
        assert_eq!(got, expect, "lane {lane} preserved FIFO");
    }
}

#[test]
fn single_thread_pool_is_equivalent_to_serial_execution() {
    let topo = topo();
    let pool = WaffinityPool::new(Arc::clone(&topo), 1);
    let log = Arc::new(Mutex::ranked(Vec::new(), "test.log", 100));
    for i in 0..50u32 {
        let log = Arc::clone(&log);
        // Alternate conflicting affinities: one worker must still make
        // progress through all of them.
        let a = if i % 2 == 0 {
            Affinity::Serial
        } else {
            Affinity::Stripe(0, 0)
        };
        pool.send(a, move || log.lock().push(i));
    }
    pool.wait_idle();
    assert_eq!(log.lock().len(), 50);
}

#[test]
fn drop_without_explicit_shutdown_drains() {
    let topo = topo();
    let hits = Arc::new(AtomicU64::new(0));
    {
        let pool = WaffinityPool::new(Arc::clone(&topo), 2);
        for _ in 0..25 {
            let hits = Arc::clone(&hits);
            pool.send(Affinity::Volume(1), move || {
                // ordering: statistics counter; staleness is acceptable.
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        // Drop runs shutdown, which drains queued messages.
    }
    // ordering: test readback.
    assert_eq!(hits.load(Ordering::Relaxed), 25);
}
