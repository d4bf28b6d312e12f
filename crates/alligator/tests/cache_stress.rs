//! Bucket-cache stress and property tests: N cleaner threads hammering M
//! buckets must never lose or duplicate a bucket — through plain GETs,
//! batched `get_many` pops, concurrent collective `insert_all` rounds,
//! and `get_timeout` expiry under scarcity — and any single-threaded
//! interleaving of inserts, requeues and GETs must hand buckets out
//! oldest refill round first.
//!
//! CI runs this file with `-C debug-assertions=on` as well.

use alligator::{AllocConfig, AllocStats, Bucket, BucketCache, Infrastructure};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;
use wafl_blockdev::{DriveKind, GeometryBuilder, IoEngine};
use wafl_metafile::AggregateMap;

/// An infrastructure over `data_drives` drives whose refill rounds build
/// one 8-block bucket per drive.
fn infra(data_drives: u32, stats: &Arc<AllocStats>) -> Arc<Infrastructure> {
    let geo = Arc::new(
        GeometryBuilder::new()
            .aa_stripes(64)
            .raid_group(data_drives, 1, 65_536)
            .build(),
    );
    let aggmap = Arc::new(AggregateMap::new(Arc::clone(&geo)));
    let io = Arc::new(IoEngine::new(geo, DriveKind::Ssd));
    Infrastructure::new(AllocConfig::with_chunk(8), aggmap, io, Arc::clone(stats))
}

/// Build a cache over `data_drives` drives and fill it with `rounds`
/// collective refill rounds (one bucket per drive per round). Returns
/// the cache, its stats, and the identity set of every bucket in
/// circulation (start VBNs are unique per bucket).
fn warm_cache(
    data_drives: u32,
    rounds: usize,
) -> (Arc<BucketCache>, Arc<AllocStats>, HashSet<u64>) {
    let stats = Arc::new(AllocStats::default());
    let cache = Arc::new(BucketCache::with_stats(Arc::clone(&stats)));
    let infra = infra(data_drives, &stats);
    for _ in 0..rounds {
        assert_eq!(infra.refill_round(&cache), data_drives as usize);
    }
    // Drain once to learn every bucket's identity, then reinsert the
    // whole population collectively (§IV-D).
    let mut ids = HashSet::new();
    let mut all = Vec::new();
    while let Some(b) = cache.try_get() {
        assert!(ids.insert(b.start_vbn().0), "refill produced a duplicate");
        all.push(b);
    }
    assert_eq!(ids.len(), data_drives as usize * rounds);
    cache.insert_all(all);
    (cache, stats, ids)
}

/// Drain the cache and check the survivors are exactly `ids`.
fn assert_population(cache: &BucketCache, ids: &HashSet<u64>) {
    assert_eq!(cache.len(), ids.len());
    let mut drained = HashSet::new();
    while let Some(b) = cache.try_get() {
        let id = b.start_vbn().0;
        assert!(drained.insert(id), "bucket {id} came back twice");
    }
    assert_eq!(&drained, ids, "the surviving population changed");
    assert!(cache.is_empty());
}

/// N threads GET, hold, and reinsert; no bucket may be lost, duplicated,
/// or held by two threads at once.
#[test]
fn stress_no_bucket_lost_or_duplicated() {
    const THREADS: usize = 12;
    const ITERS: usize = 600;
    let (cache, stats, ids) = warm_cache(8, 3); // 24 buckets
    let population = ids.len();

    // Any bucket held by two threads at once trips this set.
    let in_flight: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
    let successes = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|i| {
            let cache = Arc::clone(&cache);
            let in_flight = Arc::clone(&in_flight);
            let successes = Arc::clone(&successes);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for iter in 0..ITERS {
                    // 24 buckets among 12 threads: the cache never runs dry.
                    let b = cache
                        .get_timeout(Duration::from_secs(20))
                        .expect("GET timed out with buckets in circulation");
                    let id = b.start_vbn().0;
                    assert!(
                        in_flight.lock().unwrap().insert(id),
                        "bucket {id} held by two threads at once"
                    );
                    if iter % 8 == i % 8 {
                        // Hold across a reschedule so the queue order
                        // churns under the other cleaners.
                        std::thread::yield_now();
                    }
                    assert!(in_flight.lock().unwrap().remove(&id));
                    cache.insert(b);
                    // ordering: statistics counter; staleness is acceptable.
                    successes.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    assert_population(&cache, &ids);

    // Accounting: a GET that never parked is a fast GET (the warm-up and
    // final drains popped too; include them), and one queue has no steals.
    let s = stats.snapshot();
    // ordering: test readback.
    let pops = successes.load(Ordering::Relaxed) + 2 * population as u64;
    assert_eq!(s.cache_blocked_gets, 0, "the cache ran dry");
    assert_eq!(s.cache_get_fast, pops);
    assert_eq!(s.cache_get_steal, 0);
}

/// Getters run batched `get_many` pops while a publisher keeps feeding
/// retired buckets back through collective `insert_all` rounds; nothing
/// may be lost or duplicated, and no batch may mix refill rounds.
#[test]
fn stress_concurrent_insert_all_preserves_population() {
    const GETTERS: usize = 6;
    const DRIVES: u32 = 8;
    const TARGET_ROUNDS: u64 = 120;
    let (cache, stats, ids) = warm_cache(DRIVES, 2);

    // Workers retire what they pop here; the publisher re-publishes it
    // in drive-sized collective rounds.
    let retired: Arc<Mutex<Vec<Bucket>>> = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let rounds_published = Arc::new(AtomicU64::new(0));
    let in_flight: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));

    let publisher = {
        let cache = Arc::clone(&cache);
        let retired = Arc::clone(&retired);
        let stop = Arc::clone(&stop);
        let rounds_published = Arc::clone(&rounds_published);
        std::thread::spawn(move || loop {
            let batch: Vec<_> = {
                let mut r = retired.lock().unwrap();
                if r.len() >= DRIVES as usize {
                    r.drain(..DRIVES as usize).collect()
                // ordering: shutdown flag; no data is published through it.
                } else if stop.load(Ordering::Relaxed) {
                    r.drain(..).collect()
                } else {
                    drop(r);
                    std::thread::yield_now();
                    continue;
                }
            };
            // ordering: shutdown flag; no data is published through it.
            let done = stop.load(Ordering::Relaxed) && batch.is_empty();
            if !batch.is_empty() {
                cache.insert_all(batch);
                // ordering: statistics counter; staleness is acceptable.
                rounds_published.fetch_add(1, Ordering::Relaxed);
            }
            if done {
                break;
            }
        })
    };

    let getters: Vec<_> = (0..GETTERS)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let retired = Arc::clone(&retired);
            let rounds_published = Arc::clone(&rounds_published);
            let in_flight = Arc::clone(&in_flight);
            std::thread::spawn(move || {
                // ordering: statistics counter; staleness is acceptable.
                while rounds_published.load(Ordering::Relaxed) < TARGET_ROUNDS {
                    let got = cache.get_many(3);
                    if got.is_empty() {
                        std::thread::yield_now();
                        continue;
                    }
                    assert!(
                        got.iter().all(|b| b.generation() == got[0].generation()),
                        "a batch mixed refill rounds"
                    );
                    {
                        let mut f = in_flight.lock().unwrap();
                        for b in &got {
                            let id = b.start_vbn().0;
                            assert!(f.insert(id), "bucket {id} held twice");
                        }
                    }
                    {
                        let mut f = in_flight.lock().unwrap();
                        for b in &got {
                            assert!(f.remove(&b.start_vbn().0));
                        }
                    }
                    retired.lock().unwrap().extend(got);
                }
            })
        })
        .collect();
    for h in getters {
        h.join().unwrap();
    }
    // ordering: shutdown flag; no data is published through it.
    stop.store(true, Ordering::Relaxed);
    publisher.join().unwrap();

    // Conservation across every concurrent insert_all round.
    assert_population(&cache, &ids);
    assert!(stats.snapshot().cache_get_fast > 0, "getters never popped");
}

/// Batched pops on one deep round: `get_many` must return whole buckets
/// exactly once each and actually batch (one lock acquisition hands out
/// several same-generation buckets).
#[test]
fn stress_batched_get_many_conserves() {
    const THREADS: usize = 4;
    let (cache, stats, ids) = warm_cache(8, 1); // 8 buckets, one round
    let population = ids.len();

    let held: Arc<Mutex<Vec<Bucket>>> = Arc::new(Mutex::new(Vec::new()));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let held = Arc::clone(&held);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                loop {
                    let got = cache.get_many(3);
                    if got.is_empty() {
                        break;
                    }
                    held.lock().unwrap().extend(got);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    assert!(cache.is_empty());
    let held = Arc::try_unwrap(held).unwrap().into_inner().unwrap();
    assert_eq!(held.len(), population, "buckets lost or duplicated");
    let drained: HashSet<u64> = held.iter().map(|b| b.start_vbn().0).collect();
    assert_eq!(drained, ids);
    assert!(
        stats.snapshot().cache_get_batched > 0,
        "a deep single round must yield batches"
    );
}

#[test]
fn stress_get_timeout_expires_under_scarcity() {
    const THREADS: usize = 6;
    const ITERS: usize = 40;
    let (cache, stats, ids) = warm_cache(2, 1); // 2 buckets, 6 threads

    // An empty-adjacent cache still answers a bounded-time GET miss.
    let successes = Arc::new(AtomicU64::new(0));
    let timeouts = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let successes = Arc::clone(&successes);
            let timeouts = Arc::clone(&timeouts);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..ITERS {
                    match cache.get_timeout(Duration::from_millis(1)) {
                        Some(b) => {
                            // Hold well past the other getters' timeout.
                            std::thread::sleep(Duration::from_millis(3));
                            cache.insert(b);
                            // ordering: statistics counter; staleness is acceptable.
                            successes.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            // ordering: statistics counter; staleness is acceptable.
                            timeouts.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    assert!(
        // ordering: statistics counter; staleness is acceptable.
        timeouts.load(Ordering::Relaxed) > 0,
        "6 threads over 2 long-held buckets must see expiries"
    );
    // ordering: test readback.
    assert!(successes.load(Ordering::Relaxed) > 0);

    // Expiries lose nothing: both buckets are back.
    assert_population(&cache, &ids);
    assert!(
        // ordering: statistics counter; staleness is acceptable.
        stats.snapshot().cache_blocked_gets >= timeouts.load(Ordering::Relaxed),
        "every expiry went through the blocked-GET path"
    );
}

// ---------------------------------------------------------------------------
// Property: the queue's order is the contract.
// ---------------------------------------------------------------------------

const DRIVES: u32 = 4;

#[derive(Debug, Clone, Copy)]
enum CacheOp {
    /// Build the next refill round and `insert_all` it.
    Round,
    /// Build the next refill round but hold it back (a round that is
    /// built first and published later, or dribbled in by `Single`).
    Build,
    /// `insert_all` the oldest held-back round, now behind newer ones.
    PublishHeld,
    /// `insert` one bucket of a held-back round (Immediate reinsertion).
    Single,
    /// `get_many(k)`; the batch stays with the "cleaner".
    Get(usize),
    /// The cleaner requeues the n-th bucket it holds, untouched.
    Requeue(usize),
}

fn cache_ops() -> impl Strategy<Value = Vec<CacheOp>> {
    prop::collection::vec(
        prop_oneof![
            Just(CacheOp::Round),
            Just(CacheOp::Build),
            Just(CacheOp::PublishHeld),
            Just(CacheOp::Single),
            (1usize..6).prop_map(CacheOp::Get),
            (0usize..8).prop_map(CacheOp::Requeue),
        ],
        1..80,
    )
}

/// What the cache must contain: bucket count per generation.
#[derive(Default)]
struct Model(BTreeMap<u64, usize>);

impl Model {
    fn add(&mut self, b: &Bucket) {
        *self.0.entry(b.generation()).or_default() += 1;
    }

    /// Remove the batch `get_many(max)` must return: up to `max` buckets,
    /// all of the oldest generation present.
    fn take_oldest(&mut self, max: usize) -> Option<(u64, usize)> {
        let (&gen, n) = self.0.iter_mut().next()?;
        let k = max.min(*n);
        *n -= k;
        if *n == 0 {
            self.0.remove(&gen);
        }
        Some((gen, k))
    }

    fn len(&self) -> usize {
        self.0.values().sum()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Over any interleaving of `insert_all`, `insert`, requeue and
    /// `get_many`: every GET returns buckets of the oldest generation in
    /// the cache and never crosses a round boundary, a drain is
    /// non-decreasing in generation, every round ends up handing out
    /// exactly one bucket per drive, and no bucket is lost or duplicated.
    #[test]
    fn gets_are_oldest_round_first(ops in cache_ops()) {
        let stats = Arc::new(AllocStats::default());
        let infra = infra(DRIVES, &stats);
        let scratch = BucketCache::new();
        let build_round = || -> Vec<Bucket> {
            assert_eq!(infra.refill_round(&scratch), DRIVES as usize);
            scratch.get_many(DRIVES as usize)
        };
        let cache = BucketCache::new();
        let mut model = Model::default();
        let mut built = 0usize;
        let mut held_back: Vec<Bucket> = Vec::new();
        let mut cleaner: Vec<Bucket> = Vec::new();

        for op in ops {
            match op {
                CacheOp::Round => {
                    let round = build_round();
                    built += round.len();
                    round.iter().for_each(|b| model.add(b));
                    cache.insert_all(round);
                }
                CacheOp::Build => {
                    let round = build_round();
                    built += round.len();
                    held_back.extend(round);
                }
                CacheOp::PublishHeld => {
                    let Some(gen) = held_back.first().map(Bucket::generation) else { continue };
                    let (round, rest): (Vec<_>, Vec<_>) =
                        held_back.drain(..).partition(|b| b.generation() == gen);
                    held_back = rest;
                    round.iter().for_each(|b| model.add(b));
                    cache.insert_all(round);
                }
                CacheOp::Single => {
                    if held_back.is_empty() { continue }
                    let b = held_back.remove(0);
                    model.add(&b);
                    cache.insert(b);
                }
                CacheOp::Get(k) => {
                    let got = cache.get_many(k);
                    match model.take_oldest(k) {
                        None => prop_assert!(got.is_empty()),
                        Some((gen, n)) => {
                            prop_assert_eq!(got.len(), n, "batch size");
                            prop_assert!(
                                got.iter().all(|b| b.generation() == gen),
                                "GET skipped the oldest round {}: {:?}",
                                gen,
                                got.iter().map(Bucket::generation).collect::<Vec<_>>()
                            );
                        }
                    }
                    cleaner.extend(got);
                }
                CacheOp::Requeue(i) => {
                    if cleaner.is_empty() { continue }
                    let b = cleaner.remove(i % cleaner.len());
                    model.add(&b);
                    cache.insert(b);
                }
            }
            prop_assert_eq!(cache.len(), model.len());
        }

        // Publish what is still held back, then drain: generation order.
        held_back.iter().for_each(|b| model.add(b));
        cache.insert_all(held_back);
        let drained: Vec<Bucket> = std::iter::from_fn(|| cache.try_get()).collect();
        prop_assert_eq!(drained.len(), model.len());
        prop_assert!(
            drained.windows(2).all(|w| w[0].generation() <= w[1].generation()),
            "drain out of round order"
        );

        // Every bucket built is out exactly once, one per drive per round.
        let mut per_round: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        let mut ids = HashSet::new();
        for b in cleaner.iter().chain(&drained) {
            prop_assert!(ids.insert(b.start_vbn().0), "bucket handed out twice");
            per_round.entry(b.generation()).or_default().push(b.drive().0);
        }
        prop_assert_eq!(ids.len(), built, "bucket lost");
        for (gen, mut drives) in per_round {
            drives.sort_unstable();
            prop_assert_eq!(
                drives,
                (0..DRIVES).collect::<Vec<_>>(),
                "round {} did not yield one bucket per drive",
                gen
            );
        }
    }
}
