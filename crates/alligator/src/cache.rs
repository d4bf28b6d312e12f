//! The bucket cache: the shared pool of available buckets.
//!
//! "These buckets are then enqueued … to a lock-protected list of
//! available buckets called the bucket cache that is filled by the
//! infrastructure and consumed by the cleaner threads" (§IV-A). "White
//! Alligator maintains a lock-protected set of buckets called a bucket
//! cache and keeps this list non-empty to ensure that the GET operation
//! does not block" (§IV-D).
//!
//! This is that list and nothing more: one [`Mutex`] over one FIFO kept
//! in refill-generation order, one [`Condvar`] for GETs that find it
//! empty, and an atomic copy of the length so `len`/`is_empty` (the
//! starvation and low-watermark checks) take no lock. A GET is one lock
//! acquisition per *bucket* — per `chunk` VBNs — which is the
//! amortization §IV-C relies on; on the end-to-end ledger it is 3–4 ns of
//! the 680–1 700 ns a buffer costs (DESIGN.md §7½).
//!
//! Under one lock the cache's contracts are properties of the queue:
//!
//! * **Collective visibility** (§IV-D): [`BucketCache::insert_all`] is one
//!   critical section, so no GET observes half a refill round.
//! * **Oldest round first / equal progress**: a round deposits one bucket
//!   per drive and the queue is sorted by generation, so round N drains
//!   before round N+1 and every drive advances one chunk per round. A
//!   bucket of an older round inserted late ([`BucketCache::insert`], the
//!   requeue path) goes ahead of the newer rounds, not behind them.
//! * **Round boundary**: [`BucketCache::get_many`] takes a
//!   same-generation prefix — a batch never mixes round N+1 into an
//!   unfinished round N, which would delay round N's tetris.
//! * **No lost wakeup**: the queue changes, `len` is stored and the
//!   condvar is notified all under the lock, and a blocked GET re-checks
//!   the queue under the same lock before it parks.

use crate::bucket::Bucket;
use crate::stats::AllocStats;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The lock-protected FIFO of available buckets.
#[derive(Debug)]
pub struct BucketCache {
    /// Available buckets, ascending by refill generation.
    q: Mutex<VecDeque<Bucket>>,
    available: Condvar,
    /// `q.len()`, stored under the lock and read without it.
    len: AtomicUsize,
    stats: Arc<AllocStats>,
}

impl Default for BucketCache {
    fn default() -> Self {
        Self::new()
    }
}

impl BucketCache {
    /// An empty cache with private statistics.
    pub fn new() -> Self {
        Self::with_stats(Arc::new(AllocStats::default()))
    }

    /// An empty cache recording its GET counters into `stats`.
    pub fn with_stats(stats: Arc<AllocStats>) -> Self {
        Self {
            q: Mutex::ranked(VecDeque::new(), "cache.queue", 60),
            available: Condvar::new(),
            len: AtomicUsize::new(0),
            stats,
        }
    }

    /// Number of buckets currently available (no lock taken).
    #[inline]
    pub fn len(&self) -> usize {
        // ordering: Relaxed — an advisory level for the low-watermark and
        // exhaustion checks; every decision that must be exact (pop, park)
        // looks at the queue itself under the lock.
        self.len.load(Ordering::Relaxed)
    }

    /// Is the cache empty (a GET would block)? No lock taken.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Take the queue lock, timing only the contended (slow) path.
    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<Bucket>> {
        if let Some(g) = self.q.try_lock() {
            return g;
        }
        let t0 = Instant::now();
        let g = self.q.lock();
        self.stats
            .cache_lock_waits_ns
            // ordering: statistics counter; staleness is acceptable.
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        g
    }

    /// Republish the queue's length. Called with the lock held, after
    /// every change to the queue.
    fn store_len(&self, q: &VecDeque<Bucket>) {
        // ordering: Relaxed — see `len`.
        self.len.store(q.len(), Ordering::Relaxed);
    }

    /// Place `b` behind every bucket of its own or an older refill round
    /// and ahead of every newer one. The newest round (the common case)
    /// lands at the back in O(1).
    fn enqueue(q: &mut VecDeque<Bucket>, b: Bucket) {
        let at = q.partition_point(|x| x.generation() <= b.generation());
        q.insert(at, b);
    }

    /// Pop the oldest bucket and republish the length. Lock held.
    fn pop(&self, q: &mut VecDeque<Bucket>) -> Option<Bucket> {
        let b = q.pop_front()?;
        self.store_len(q);
        Some(b)
    }

    /// Account `k` buckets handed out by a GET that did not park.
    fn count_fast(&self, k: usize) {
        // ordering: statistics counters; staleness is acceptable.
        self.stats
            .cache_get_fast
            .fetch_add(k as u64, Ordering::Relaxed);
        self.stats
            .cache_get_batched
            // ordering: statistics counter.
            .fetch_add(k.saturating_sub(1) as u64, Ordering::Relaxed);
    }

    /// Infrastructure side: insert one bucket (the Immediate-reinsertion
    /// ablation, and a cleaner handing back an untouched bucket). A bucket
    /// of an older round goes ahead of newer rounds.
    pub fn insert(&self, b: Bucket) {
        let mut q = self.lock_queue();
        Self::enqueue(&mut q, b);
        self.store_len(&q);
        self.available.notify_one();
    }

    /// Infrastructure side: insert a refill round atomically — the
    /// collective reinsertion of §IV-D ("collectively put back into the
    /// bucket cache"). One critical section, so no GET can observe a
    /// partially visible round.
    pub fn insert_all(&self, buckets: impl IntoIterator<Item = Bucket>) {
        let mut q = self.lock_queue();
        for b in buckets {
            Self::enqueue(&mut q, b);
        }
        self.store_len(&q);
        self.available.notify_all();
    }

    /// Cleaner side: take the oldest bucket without blocking.
    pub fn try_get(&self) -> Option<Bucket> {
        let b = self.pop(&mut self.lock_queue())?;
        self.count_fast(1);
        Some(b)
    }

    /// Batched GET: take up to `max` buckets of the oldest refill round
    /// with one lock acquisition, amortizing GET synchronization per batch
    /// as §IV-C amortizes it per chunk. The batch stops at the round
    /// boundary (see the module docs). Never blocks; empty when the cache
    /// is.
    pub fn get_many(&self, max: usize) -> Vec<Bucket> {
        let mut q = self.lock_queue();
        let Some(oldest) = q.front().map(Bucket::generation) else {
            return Vec::new();
        };
        let k = q
            .iter()
            .take(max)
            .take_while(|b| b.generation() == oldest)
            .count();
        let got: Vec<Bucket> = q.drain(..k).collect();
        self.store_len(&q);
        self.count_fast(k);
        got
    }

    /// Cleaner side: take the oldest bucket, blocking up to `timeout`.
    /// Returns `None` on timeout (callers treat that as "aggregate may be
    /// exhausted; re-check and retry or give up").
    pub fn get_timeout(&self, timeout: Duration) -> Option<Bucket> {
        let mut q = self.lock_queue();
        if let Some(b) = self.pop(&mut q) {
            self.count_fast(1);
            return Some(b);
        }
        self.stats
            .cache_blocked_gets
            // ordering: statistics counter; staleness is acceptable.
            .fetch_add(1, Ordering::Relaxed);
        let deadline = Instant::now() + timeout;
        loop {
            // The predicate was checked under the lock the wait releases,
            // and inserters notify under that lock: no wakeup is lost.
            let timed_out = self.available.wait_until(&mut q, deadline).timed_out();
            if let Some(b) = self.pop(&mut q) {
                return Some(b);
            }
            if timed_out {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tetris::Tetris;
    use wafl_blockdev::{AaId, DriveId, DriveKind, GeometryBuilder, IoEngine, RaidGroupId, Vbn};

    fn mk_bucket_gen(drive: u32, start: u64, generation: u64) -> Bucket {
        let engine = Arc::new(IoEngine::new(
            Arc::new(
                GeometryBuilder::new()
                    .aa_stripes(32)
                    .raid_group(1, 1, 4096)
                    .build(),
            ),
            DriveKind::Ssd,
        ));
        let t = Tetris::new(RaidGroupId(0), 1, engine, Arc::new(AllocStats::default()));
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

    fn mk_bucket(start: u64) -> Bucket {
        mk_bucket_gen(0, start, 0)
    }

    /// One refill round: a bucket per drive, all of generation `gen`.
    fn round(drives: u32, gen: u64) -> impl Iterator<Item = Bucket> {
        (0..drives).map(move |d| mk_bucket_gen(d, gen * 1000 + u64::from(d) * 10, gen))
    }

    fn drain_gens(c: &BucketCache) -> Vec<u64> {
        std::iter::from_fn(|| c.try_get())
            .map(|b| b.generation())
            .collect()
    }

    #[test]
    fn fifo_order_and_len() {
        let c = BucketCache::new();
        c.insert(mk_bucket(0));
        c.insert(mk_bucket(100));
        assert_eq!(c.len(), 2);
        assert_eq!(c.try_get().unwrap().start_vbn(), Vbn(0));
        assert_eq!(c.try_get().unwrap().start_vbn(), Vbn(100));
        assert!(c.try_get().is_none());
        assert!(c.is_empty());
        c.insert_all((0..5).map(|i| mk_bucket(i * 10)));
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn rounds_drain_oldest_first_one_bucket_per_drive() {
        // Two rounds land before anything is consumed (the refill
        // pipeline ran ahead): round 1 drains completely, one bucket per
        // drive, before round 2 is touched — otherwise round 1's tetris
        // would be left partial.
        let c = BucketCache::new();
        c.insert_all(round(3, 1));
        c.insert_all(round(3, 2));
        for gen in [1, 2] {
            let mut drives: Vec<u32> = (0..3)
                .map(|_| {
                    let b = c.try_get().unwrap();
                    assert_eq!(b.generation(), gen);
                    b.drive().0
                })
                .collect();
            drives.sort_unstable();
            assert_eq!(drives, vec![0, 1, 2]);
        }
    }

    #[test]
    fn older_generation_is_placed_ahead_of_newer_rounds() {
        // A requeued round-1 bucket, and a round that was built first but
        // published second, both go ahead of round 3.
        let c = BucketCache::new();
        c.insert_all(round(2, 3));
        c.insert(mk_bucket_gen(0, 7, 1));
        c.insert_all(round(2, 2));
        c.insert(mk_bucket_gen(1, 9, 3));
        assert_eq!(drain_gens(&c), vec![1, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn get_many_takes_a_same_generation_prefix() {
        let stats = Arc::new(AllocStats::default());
        let c = BucketCache::with_stats(Arc::clone(&stats));
        c.insert_all(round(2, 1));
        c.insert_all(round(3, 2));
        let first = c.get_many(8);
        assert_eq!(first.len(), 2, "batch stops at the round boundary");
        assert!(first.iter().all(|b| b.generation() == 1));
        assert_eq!(c.get_many(2).len(), 2, "capped by max");
        assert_eq!(c.get_many(1).len(), 1);
        assert!(c.get_many(8).is_empty());
        assert!(c.get_many(0).is_empty());
        let s = stats.snapshot();
        assert_eq!(s.cache_get_fast, 5);
        assert_eq!(s.cache_get_batched, 2, "2 + 2 + 1 buckets in 3 GETs");
        assert_eq!(s.cache_get_steal, 0, "one queue: nothing to steal from");
    }

    #[test]
    fn get_timeout_returns_none_when_starved_and_counts_the_block() {
        let stats = Arc::new(AllocStats::default());
        let c = BucketCache::with_stats(Arc::clone(&stats));
        assert!(c.get_timeout(Duration::from_millis(5)).is_none());
        assert_eq!(stats.snapshot().cache_blocked_gets, 1);
        c.insert(mk_bucket(0));
        assert!(c.get_timeout(Duration::from_millis(5)).is_some());
        assert_eq!(
            stats.snapshot().cache_blocked_gets,
            1,
            "a GET that finds a bucket never counts as blocked"
        );
    }

    #[test]
    fn get_timeout_never_sleeps_through_an_insert() {
        // One getter and one bucket per round. The lag sweeps the insert
        // across the getter's arrival, so an insert that lands between a
        // getter's emptiness check and its park is tried thousands of
        // times. A lost wakeup does not lose the bucket — the getter pops
        // it when its timeout fires — so the check is on the time waited.
        // Odd rounds publish through `insert_all` to cover `notify_all`.
        // EXPERIMENTS.md "The model checker leaves" has the rounds at
        // which a `len` read outside the lock was caught.
        let timeout = Duration::from_secs(2);
        let c = Arc::new(BucketCache::new());
        for round in 0..50_000u64 {
            let b = mk_bucket(round * 4);
            let getter = {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    let t0 = Instant::now();
                    let b = c.get_timeout(timeout);
                    (b.map(|b| b.start_vbn()), t0.elapsed())
                })
            };
            let spawned_at = Instant::now();
            let lag = Duration::from_nanos(round % 256 * 200);
            while spawned_at.elapsed() < lag {
                std::hint::spin_loop();
            }
            if round % 2 == 0 {
                c.insert(b);
            } else {
                c.insert_all([b]);
            }
            let (got, waited) = getter.join().unwrap();
            assert_eq!(got, Some(Vbn(round * 4)), "round {round}");
            assert!(waited < timeout, "round {round}: slept {waited:?}");
        }
        assert!(c.is_empty());
    }

    #[test]
    fn insert_all_is_collectively_visible_to_blocked_getters() {
        // §IV-D: a getter never sees only part of a refill round, so the
        // 8 GETs racing one 8-bucket insert drain exactly those 8 — and
        // none of them sleeps with the cache non-empty.
        for _ in 0..50 {
            let c = Arc::new(BucketCache::new());
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let c = Arc::clone(&c);
                    std::thread::spawn(move || {
                        let t0 = Instant::now();
                        let b = c.get_timeout(Duration::from_secs(30));
                        (b.map(|b| b.start_vbn().0), t0.elapsed())
                    })
                })
                .collect();
            c.insert_all(round(8, 1));
            let mut got = Vec::new();
            for h in handles {
                let (b, waited) = h.join().unwrap();
                assert!(waited < Duration::from_secs(5), "slept {waited:?}");
                got.push(b.expect("a getter starved with buckets available"));
            }
            got.sort_unstable();
            assert_eq!(got, (0..8).map(|d| 1000 + d * 10).collect::<Vec<u64>>());
            assert!(c.is_empty());
        }
    }
}
