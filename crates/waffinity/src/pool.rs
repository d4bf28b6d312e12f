//! [`WaffinityPool`] — a real-thread Waffinity executor.
//!
//! Worker threads pull runnable messages from a shared [`Scheduler`]; the
//! affinity exclusion rules are enforced by construction because a message
//! is only popped when [`ExclusionState::can_run`] holds and the affinity
//! stays marked running until the closure returns.
//!
//! This backend exists for two reasons:
//!
//! 1. the White Alligator *infrastructure* runs "as messages in Waffinity"
//!    (§IV of the paper), so the allocator crate drives its metafile work
//!    through this pool in the real-thread configuration;
//! 2. the MP-safety test suite needs genuine concurrency: tests assert
//!    that no two conflicting messages ever overlap (instrumented with a
//!    conflict detector) while disjoint ones do.
//!
//! [`ExclusionState::can_run`]: crate::state::ExclusionState::can_run

use crate::hierarchy::{Affinity, AffinityId, Topology};
use crate::sched::Scheduler;
use crate::state::ExclusionState;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Inner {
    sched: Mutex<Scheduler<Job>>,
    /// Signaled when work arrives or completes (a completion can unblock
    /// any number of excluded affinities, so notify_all).
    work: Condvar,
    /// Signaled when the scheduler drains to idle.
    idle: Condvar,
    shutdown: AtomicBool,
    topo: Arc<Topology>,
    /// Per-affinity message counts (reporting; relaxed).
    msg_counts: Vec<AtomicU64>,
    /// Per-affinity busy nanoseconds (wall clock; reporting only).
    busy_ns: Vec<AtomicU64>,
}

/// A fixed-size pool of Waffinity worker threads.
///
/// Dropping the pool shuts it down after draining queued messages.
///
/// ```
/// use std::sync::Arc;
/// use waffinity::{Affinity, Model, Topology, WaffinityPool};
///
/// let topo = Arc::new(Topology::symmetric(Model::Hierarchical, 1, 2, 4, 4));
/// let pool = WaffinityPool::new(topo, 2);
/// // Messages in disjoint affinities run in parallel; conflicting ones
/// // are serialized by the scheduler.
/// pool.send(Affinity::Stripe(0, 0), || { /* client op */ });
/// pool.send(Affinity::AggrVbnRange(0, 1), || { /* bucket refill */ });
/// let answer = pool.call(Affinity::VolumeVbn(1), || 6 * 7);
/// assert_eq!(answer, 42);
/// pool.wait_idle();
/// assert_eq!(pool.total_messages(), 3);
/// ```
pub struct WaffinityPool {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl WaffinityPool {
    /// Spawn `threads` workers over a topology.
    pub fn new(topo: Arc<Topology>, threads: usize) -> Self {
        assert!(threads > 0, "pool needs at least one thread");
        let n = topo.len();
        let inner = Arc::new(Inner {
            sched: Mutex::ranked(
                Scheduler::new(ExclusionState::new(Arc::clone(&topo))),
                "waffinity.sched",
                30,
            ),
            work: Condvar::new(),
            idle: Condvar::new(),
            shutdown: AtomicBool::new(false),
            topo,
            msg_counts: (0..n).map(|_| AtomicU64::new(0)).collect(),
            busy_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
        });
        let workers = (0..threads)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("waffinity-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn waffinity worker")
            })
            .collect();
        Self { inner, workers }
    }

    /// The pool's topology.
    #[inline]
    pub fn topology(&self) -> &Arc<Topology> {
        &self.inner.topo
    }

    /// Number of worker threads.
    #[inline]
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Fire-and-forget: enqueue `f` to run in affinity `a`.
    pub fn send(&self, a: Affinity, f: impl FnOnce() + Send + 'static) {
        let id = self.inner.topo.id(a);
        self.send_id(id, Box::new(f));
    }

    fn send_id(&self, id: AffinityId, job: Job) {
        assert!(
            // ordering: Acquire — pairs with the Release shutdown store;
            // pairs-with: waffinity.shutdown.
            !self.inner.shutdown.load(Ordering::Acquire),
            "send() on a shut-down pool"
        );
        {
            let mut s = self.inner.sched.lock();
            s.enqueue(id, job);
        }
        self.inner.work.notify_all();
    }

    /// Run `f` in affinity `a` and wait for its result.
    ///
    /// Must not be called from inside a pool worker: the calling message
    /// would hold its affinity while blocking, which can deadlock against
    /// the exclusion rules (e.g., calling into an ancestor affinity).
    pub fn call<R: Send + 'static>(
        &self,
        a: Affinity,
        f: impl FnOnce() -> R + Send + 'static,
    ) -> R {
        let (tx, rx) = crossbeam::channel::bounded(1);
        self.send(a, move || {
            let _ = tx.send(f());
        });
        rx.recv().expect("waffinity call target panicked")
    }

    /// Block until every queued and running message has finished.
    pub fn wait_idle(&self) {
        let mut s = self.inner.sched.lock();
        while !s.is_idle() {
            self.inner.idle.wait(&mut s);
        }
    }

    /// Messages executed in affinity `a` so far.
    pub fn messages_in(&self, a: Affinity) -> u64 {
        // ordering: statistics counter; staleness is acceptable.
        self.inner.msg_counts[self.inner.topo.id(a).0 as usize].load(Ordering::Relaxed)
    }

    /// Total messages executed.
    pub fn total_messages(&self) -> u64 {
        self.inner
            .msg_counts
            .iter()
            // ordering: statistics counter; staleness is acceptable.
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Wall-clock busy time accumulated in affinity `a` (reporting only).
    pub fn busy_ns_in(&self, a: Affinity) -> u64 {
        // ordering: statistics counter; staleness is acceptable.
        self.inner.busy_ns[self.inner.topo.id(a).0 as usize].load(Ordering::Relaxed)
    }

    /// Drain queued work and stop the workers.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        // Raise the flag under the scheduler lock: a worker tests it with
        // that lock held and gives the lock up only inside `wait`, so the
        // notification below cannot slip in between its test and its wait
        // (it would sleep through shutdown and `join` would never return).
        {
            let _sched = self.inner.sched.lock();
            // ordering: Release — all work queued before shutdown is visible
            // to the draining workers; pairs-with: waffinity.shutdown.
            self.inner.shutdown.store(true, Ordering::Release);
        }
        self.inner.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for WaffinityPool {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.shutdown_impl();
        }
    }
}

impl std::fmt::Debug for WaffinityPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WaffinityPool")
            .field("threads", &self.workers.len())
            .field("affinities", &self.inner.topo.len())
            .finish()
    }
}

fn worker_loop(inner: &Inner) {
    let mut sched = inner.sched.lock();
    loop {
        if let Some((id, job)) = sched.pop_runnable() {
            drop(sched);
            let t0 = std::time::Instant::now();
            job();
            let dt = t0.elapsed().as_nanos() as u64;
            // ordering: statistics counter; staleness is acceptable.
            inner.msg_counts[id.0 as usize].fetch_add(1, Ordering::Relaxed);
            // ordering: statistics counter; staleness is acceptable.
            inner.busy_ns[id.0 as usize].fetch_add(dt, Ordering::Relaxed);
            sched = inner.sched.lock();
            sched.complete(id);
            // A completion may unblock other affinities, and may have
            // drained the scheduler.
            inner.work.notify_all();
            if sched.is_idle() {
                inner.idle.notify_all();
            }
        // ordering: Acquire — pairs with the Release shutdown store;
        // pairs-with: waffinity.shutdown.
        } else if inner.shutdown.load(Ordering::Acquire) && sched.queued() == 0 {
            // Nothing runnable and shutting down. Remaining queued work is
            // zero; running work belongs to other workers.
            return;
        } else {
            inner.work.wait(&mut sched);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::Model;
    use std::sync::atomic::AtomicI32;

    fn topo() -> Arc<Topology> {
        Arc::new(Topology::symmetric(Model::Hierarchical, 1, 2, 4, 2))
    }

    #[test]
    fn executes_sent_messages() {
        let pool = WaffinityPool::new(topo(), 4);
        let hits = Arc::new(AtomicU64::new(0));
        for i in 0..100u32 {
            let hits = Arc::clone(&hits);
            pool.send(Affinity::Stripe(0, i % 4), move || {
                // ordering: statistics counter; staleness is acceptable.
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        // ordering: test readback.
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(pool.total_messages(), 100);
    }

    #[test]
    fn call_returns_result() {
        let pool = WaffinityPool::new(topo(), 2);
        let r = pool.call(Affinity::VolumeVbn(1), || 6 * 7);
        assert_eq!(r, 42);
    }

    #[test]
    fn conflicting_messages_never_overlap() {
        // Instrumented conflict detector: each message in Volume(0)'s
        // subtree bumps a counter on entry and drops it on exit; a Serial
        // message asserts the counter is zero for its whole duration.
        let pool = WaffinityPool::new(topo(), 4);
        let in_subtree = Arc::new(AtomicI32::new(0));
        let violations = Arc::new(AtomicU64::new(0));
        for round in 0..30u32 {
            for s in 0..4 {
                let c = Arc::clone(&in_subtree);
                pool.send(Affinity::Stripe(0, s), move || {
                    // ordering: SeqCst — the exclusion detector needs a single total order across its counters.
                    c.fetch_add(1, Ordering::SeqCst);
                    std::thread::yield_now();
                    // ordering: SeqCst — the exclusion detector needs a single total order across its counters.
                    c.fetch_sub(1, Ordering::SeqCst);
                });
            }
            if round % 5 == 0 {
                let c = Arc::clone(&in_subtree);
                let v = Arc::clone(&violations);
                pool.send(Affinity::Volume(0), move || {
                    // ordering: SeqCst — the exclusion detector needs a single total order across its counters.
                    if c.load(Ordering::SeqCst) != 0 {
                        // ordering: SeqCst — the exclusion detector needs a single total order across its counters.
                        v.fetch_add(1, Ordering::SeqCst);
                    }
                    std::thread::yield_now();
                    // ordering: SeqCst — the exclusion detector needs a single total order across its counters.
                    if c.load(Ordering::SeqCst) != 0 {
                        // ordering: SeqCst — the exclusion detector needs a single total order across its counters.
                        v.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        }
        pool.wait_idle();
        // ordering: test readback.
        assert_eq!(violations.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn same_affinity_messages_run_in_order() {
        let pool = WaffinityPool::new(topo(), 4);
        let log = Arc::new(Mutex::ranked(Vec::new(), "test.log", 100));
        for i in 0..50u32 {
            let log = Arc::clone(&log);
            pool.send(Affinity::VolVbnRange(0, 1), move || {
                log.lock().push(i);
            });
        }
        pool.wait_idle();
        let got = log.lock().clone();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn wait_idle_on_empty_pool_returns() {
        let pool = WaffinityPool::new(topo(), 1);
        pool.wait_idle();
    }

    #[test]
    fn shutdown_drains_queued_work() {
        let pool = WaffinityPool::new(topo(), 2);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..20 {
            let hits = Arc::clone(&hits);
            pool.send(Affinity::Stripe(1, 0), move || {
                // ordering: statistics counter; staleness is acceptable.
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.shutdown();
        // ordering: test readback.
        assert_eq!(hits.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn per_affinity_stats_accumulate() {
        let pool = WaffinityPool::new(topo(), 2);
        for _ in 0..5 {
            pool.send(Affinity::AggrVbn(0), || {});
        }
        pool.wait_idle();
        assert_eq!(pool.messages_in(Affinity::AggrVbn(0)), 5);
        assert_eq!(pool.messages_in(Affinity::Serial), 0);
    }
}
