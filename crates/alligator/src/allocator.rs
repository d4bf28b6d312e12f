//! [`Allocator`] — the facade cleaner threads program against.
//!
//! This type owns the bucket cache and routes infrastructure work (refills
//! and commits) to the configured [`Executor`] under the right Waffinity
//! affinity:
//!
//! * with [`config::InfraMode::Parallel`](crate::config::InfraMode),
//!   messages run in Aggregate-VBN **Range** affinities chosen by the
//!   metafile block they touch, so refills/commits against different
//!   metafile regions parallelize (§IV-B2);
//! * with [`config::InfraMode::Serial`](crate::config::InfraMode), every
//!   message maps to the **Serial** affinity — the pre-White-Alligator
//!   baseline measured in Figures 4, 6, and 7.
//!
//! The cleaner-side operations are exactly the Figure 2 API: GET
//! ([`Allocator::get_bucket`]), USE ([`Bucket::use_vbn`] — no allocator
//! involvement at all), PUT ([`Allocator::put_bucket`]), plus the staged
//! free path ([`Allocator::free_vbn`] / [`Allocator::flush_stage`]).

use crate::bucket::Bucket;
use crate::cache::BucketCache;
use crate::config::{AllocConfig, InfraMode, LOW_WATERMARK, STAGE_CAPACITY};
use crate::executor::Executor;
use crate::infra::Infrastructure;
use crate::stage::Stage;
use crate::stats::{AllocStats, StatsSnapshot};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use waffinity::{Affinity, Topology};
use wafl_blockdev::{IoEngine, Vbn};
use wafl_metafile::{AggregateMap, BITS_PER_MF_BLOCK};

/// The White Alligator write allocator for one aggregate.
///
/// ```
/// use alligator::{AllocConfig, Allocator, InlineExecutor};
/// use std::sync::Arc;
/// use waffinity::{Model, Topology};
/// use wafl_blockdev::{AioEngine, DriveKind, GeometryBuilder, IoEngine};
/// use wafl_metafile::AggregateMap;
///
/// let geo = Arc::new(GeometryBuilder::new().aa_stripes(64).raid_group(3, 1, 4096).build());
/// let aggmap = Arc::new(AggregateMap::new(Arc::clone(&geo)));
/// let io = Arc::new(IoEngine::new(geo, DriveKind::Ssd));
/// // Every tetris stripe goes to RAID through the async engine over `io`.
/// let _aio = AioEngine::new(Arc::clone(&io), 8);
/// let topo = Arc::new(Topology::symmetric(Model::Hierarchical, 1, 1, 4, 4));
/// let alloc = Allocator::new(
///     AllocConfig::with_chunk(64), aggmap, io, Arc::new(InlineExecutor), topo, 0,
/// );
///
/// // The Figure 2 cycle: GET a bucket, USE VBNs, PUT it back.
/// let mut bucket = alloc.get_bucket().unwrap();
/// let v1 = bucket.use_vbn(0xAA).unwrap();
/// let v2 = bucket.use_vbn(0xBB).unwrap();
/// assert_eq!(v2.0, v1.0 + 1, "consecutive USEs get contiguous VBNs");
/// alloc.put_bucket(bucket);
/// alloc.drain();
/// assert_eq!(alloc.stats().vbns_committed, 2);
/// ```
pub struct Allocator {
    cfg: AllocConfig,
    infra: Arc<Infrastructure>,
    cache: Arc<BucketCache>,
    executor: Arc<dyn Executor>,
    topo: Arc<Topology>,
    /// Index of this aggregate in the Waffinity topology.
    aggr: u32,
    /// Deduplicates concurrent async refill requests.
    refill_inflight: Arc<AtomicBool>,
    stats: Arc<AllocStats>,
}

impl Allocator {
    /// Assemble an allocator.
    ///
    /// `topo` must contain aggregate index `aggr`; its Range affinities
    /// are used for parallel-infrastructure messages.
    pub fn new(
        cfg: AllocConfig,
        aggmap: Arc<AggregateMap>,
        io: Arc<IoEngine>,
        executor: Arc<dyn Executor>,
        topo: Arc<Topology>,
        aggr: u32,
    ) -> Arc<Self> {
        let stats = Arc::new(AllocStats::default());
        let cache = Arc::new(BucketCache::with_stats(Arc::clone(&stats)));
        let infra = Infrastructure::new(cfg, aggmap, io, Arc::clone(&stats));
        Arc::new(Self {
            cfg,
            infra,
            cache,
            executor,
            topo,
            aggr,
            refill_inflight: Arc::new(AtomicBool::new(false)),
            stats,
        })
    }

    /// The infrastructure half (for inspection and tests).
    #[inline]
    pub fn infra(&self) -> &Arc<Infrastructure> {
        &self.infra
    }

    /// The allocator configuration.
    #[inline]
    pub fn config(&self) -> &AllocConfig {
        &self.cfg
    }

    /// Index of this aggregate in the Waffinity topology (used by callers
    /// that schedule their own Range-affinity messages, e.g. the scrubber).
    #[inline]
    pub fn aggr(&self) -> u32 {
        self.aggr
    }

    /// The bucket cache (for inspection).
    #[inline]
    pub fn cache(&self) -> &Arc<BucketCache> {
        &self.cache
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// A fresh free-stage of [`STAGE_CAPACITY`] frees.
    pub fn new_stage(&self) -> Stage {
        Stage::new(STAGE_CAPACITY)
    }

    /// The affinity an infrastructure message touching metafile block
    /// `mf_block` runs in, honoring [`InfraMode`].
    fn infra_affinity(&self, mf_block: u64) -> Affinity {
        match self.cfg.infra_mode {
            InfraMode::Serial => Affinity::Serial,
            InfraMode::Parallel => self.topo.aggr_range_for(self.aggr, mf_block),
        }
    }

    /// Request an asynchronous refill round if none is in flight.
    pub fn request_refill(&self) {
        if self
            .refill_inflight
            // ordering: AcqRel CAS claims the single-refiller slot; failure
            // Acquire sees the winner's refill; pairs-with: alloc.refill-slot.
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        let infra = Arc::clone(&self.infra);
        let cache = Arc::clone(&self.cache);
        let inflight = Arc::clone(&self.refill_inflight);
        let rg0 = self.infra.aggmap().geometry().raid_groups()[0].id;
        let affinity = self.infra_affinity(self.infra.refill_mf_block(rg0));
        self.executor.submit(
            affinity,
            Box::new(move || {
                infra.refill_round(&cache);
                // ordering: Release — publishes the refilled cache before
                // reopening the slot; pairs-with: alloc.refill-slot.
                inflight.store(false, Ordering::Release);
            }),
        );
    }

    /// **GET** (step 2 of Figure 2): acquire a bucket of VBNs from the
    /// bucket cache. Triggers refills as needed and keeps the cache warm
    /// (low-watermark prefetch). Returns `None` when the aggregate is out
    /// of space.
    pub fn get_bucket(&self) -> Option<Bucket> {
        self.get_bucket_from(0)
    }

    /// **GET** on behalf of cleaner `cleaner`. The cache is one queue
    /// shared by every cleaner, so the index selects nothing; the
    /// parameter stays because the cleaner pool and the end-to-end
    /// benchmark call GET with it.
    pub fn get_bucket_from(&self, cleaner: usize) -> Option<Bucket> {
        self.get_bucket_many(cleaner, 1)
            .map(|mut batch| batch.pop().expect("non-empty batch"))
    }

    /// Batched **GET**: acquire up to `max` buckets of the oldest refill
    /// round with a single acquisition of the cache lock — §IV-C's
    /// amortization applied to GET itself. Returns at least one bucket,
    /// or `None` when the aggregate is out of space; a deep cleaner queue
    /// holds the extras and returns unused ones via
    /// [`requeue_bucket`](Self::requeue_bucket). `_cleaner` selects
    /// nothing (see [`get_bucket_from`](Self::get_bucket_from)).
    pub fn get_bucket_many(&self, _cleaner: usize, max: usize) -> Option<Vec<Bucket>> {
        let t0 = std::time::Instant::now();
        let mut sp = obs::trace_span!(obs::EventKind::Get);
        let out = self.get_bucket_many_inner(max);
        sp.set_arg(out.as_ref().map_or(0, |b| b.len() as u64));
        self.stats
            .get_wait_ns
            // ordering: statistics counter; staleness is acceptable.
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    fn get_bucket_many_inner(&self, max: usize) -> Option<Vec<Bucket>> {
        let max = max.max(1);
        let mut stalled = false;
        loop {
            let batch = self.cache.get_many(max);
            if !batch.is_empty() {
                self.stats
                    .gets
                    // ordering: statistics counter; staleness is acceptable.
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
                if self.cache.len() < LOW_WATERMARK {
                    self.request_refill();
                }
                return Some(batch);
            }
            if !stalled {
                // ordering: statistics counter; staleness is acceptable.
                self.stats.get_stalls.fetch_add(1, Ordering::Relaxed);
                obs::trace_instant!(obs::EventKind::GetStall, max as u64);
                stalled = true;
            }
            self.request_refill();
            // Give the executor a chance to run the refill; the inline
            // executor has already completed it by now.
            if let Some(b) = self.cache.get_timeout(Duration::from_millis(2)) {
                // ordering: statistics counter; staleness is acceptable.
                self.stats.gets.fetch_add(1, Ordering::Relaxed);
                return Some(vec![b]);
            }
            if self.infra.is_exhausted()
                // ordering: Acquire — pairs with the Release reopen; a clear slot implies the refill is visible.
                && !self.refill_inflight.load(Ordering::Acquire)
                && self.cache.is_empty()
            {
                return None;
            }
        }
    }

    /// Return a bucket acquired by GET but never used: it re-enters the
    /// cache untouched (reservations intact), with no commit and no
    /// PUT accounting. This is how a cleaner hands back the unconsumed
    /// tail of a [`get_bucket_many`](Self::get_bucket_many) batch.
    pub fn requeue_bucket(&self, bucket: Bucket) {
        debug_assert!(
            bucket.consumed().is_empty(),
            "requeue is only for untouched buckets; PUT partially used ones"
        );
        self.cache.insert(bucket);
    }

    /// **PUT** (step 5 of Figure 2): return a bucket. The bucket's
    /// recorded writes are deposited into its tetris (possibly sending the
    /// RAID I/O), and a commit message is sent to the infrastructure to
    /// update the metafiles (step 6).
    pub fn put_bucket(&self, bucket: Bucket) {
        // ordering: statistics counter; staleness is acceptable.
        self.stats.puts.fetch_add(1, Ordering::Relaxed);
        let consumed = bucket.consumed().len() as u64;
        self.stats
            .uses
            // ordering: statistics counter; staleness is acceptable.
            .fetch_add(consumed, Ordering::Relaxed);
        // The per-block USE path has zero synchronization and stays
        // untraced (§IV-C); record its activity at bucket granularity.
        obs::trace_instant!(obs::EventKind::Use, consumed);
        obs::trace_instant!(obs::EventKind::Put, consumed);
        let mf_block = bucket.start_vbn().0 / BITS_PER_MF_BLOCK;
        let affinity = self.infra_affinity(mf_block);
        let rg = bucket.rg();
        let drive = bucket.drive_in_rg();
        let fin = bucket.finish();
        let infra = Arc::clone(&self.infra);
        let stats = Arc::clone(&self.stats);
        stats.commit_enqueued();
        let submitted = std::time::Instant::now();
        match self.cfg.reinsert {
            crate::config::ReinsertPolicy::Collective => {
                self.executor.submit(
                    affinity,
                    Box::new(move || {
                        stats
                            .commit_queue_wait_ns
                            // ordering: statistics counter; staleness is acceptable.
                            .fetch_add(submitted.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        infra.commit_bucket(fin);
                        stats.commit_dequeued();
                    }),
                );
            }
            crate::config::ReinsertPolicy::Immediate => {
                // The ablation path: commit, then refill this drive's
                // bucket right away without waiting for its peers.
                let cache = Arc::clone(&self.cache);
                self.executor.submit(
                    affinity,
                    Box::new(move || {
                        stats
                            .commit_queue_wait_ns
                            // ordering: statistics counter; staleness is acceptable.
                            .fetch_add(submitted.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        infra.commit_bucket(fin);
                        stats.commit_dequeued();
                        infra.refill_drive(rg, drive, &cache);
                    }),
                );
            }
        }
    }

    /// Return a bucket *without* triggering the Immediate-mode per-drive
    /// refill: the commit still runs, but the bucket leaves circulation.
    /// Used when draining the cache at CP end (and by test harnesses) —
    /// with [`ReinsertPolicy::Immediate`](crate::config::ReinsertPolicy),
    /// a plain [`put_bucket`](Self::put_bucket) loop over the cache would
    /// refill forever.
    pub fn retire_bucket(&self, bucket: Bucket) {
        // ordering: statistics counter; staleness is acceptable.
        self.stats.puts.fetch_add(1, Ordering::Relaxed);
        let consumed = bucket.consumed().len() as u64;
        self.stats
            .uses
            // ordering: statistics counter; staleness is acceptable.
            .fetch_add(consumed, Ordering::Relaxed);
        obs::trace_instant!(obs::EventKind::Put, consumed);
        let mf_block = bucket.start_vbn().0 / BITS_PER_MF_BLOCK;
        let affinity = self.infra_affinity(mf_block);
        let fin = bucket.finish();
        let infra = Arc::clone(&self.infra);
        let stats = Arc::clone(&self.stats);
        stats.commit_enqueued();
        let submitted = std::time::Instant::now();
        self.executor.submit(
            affinity,
            Box::new(move || {
                stats
                    .commit_queue_wait_ns
                    // ordering: statistics counter; staleness is acceptable.
                    .fetch_add(submitted.elapsed().as_nanos() as u64, Ordering::Relaxed);
                infra.commit_bucket(fin);
                stats.commit_dequeued();
            }),
        );
    }

    /// Drain the bucket cache, retiring every bucket (completing all
    /// in-flight tetrises) — the CP-end flush.
    pub fn flush_cache(&self) {
        // Settle any in-flight refill first so it cannot insert after we
        // empty the cache.
        self.drain();
        while let Some(b) = self.cache.try_get() {
            self.retire_bucket(b);
        }
        self.drain();
    }

    /// Record an overwritten VBN into `stage`; sends a commit message to
    /// the infrastructure when the stage fills.
    pub fn free_vbn(&self, stage: &mut Stage, vbn: Vbn) {
        if stage.push(vbn) {
            self.flush_stage(stage);
        }
    }

    /// Commit whatever is staged, even if the stage is not full (CP end).
    pub fn flush_stage(&self, stage: &mut Stage) {
        if stage.is_empty() {
            return;
        }
        let vbns = stage.drain();
        let mf_block = vbns[0].0 / BITS_PER_MF_BLOCK;
        let affinity = self.infra_affinity(mf_block);
        let infra = Arc::clone(&self.infra);
        self.executor
            .submit(affinity, Box::new(move || infra.commit_frees(vbns)));
    }

    /// Wait for all outstanding infrastructure messages to complete.
    pub fn drain(&self) {
        self.executor.drain();
    }
}

impl std::fmt::Debug for Allocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Allocator")
            .field("cache_len", &self.cache.len())
            .field("cfg", &self.cfg)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{InlineExecutor, PoolExecutor};
    use waffinity::{Model, WaffinityPool};
    use wafl_blockdev::{AioEngine, DriveKind, GeometryBuilder};

    /// An allocator, and the async engine its stripes go through.
    fn mk(cfg: AllocConfig, executor: Arc<dyn Executor>) -> (Arc<Allocator>, Arc<AioEngine>) {
        let geo = Arc::new(
            GeometryBuilder::new()
                .aa_stripes(64)
                .raid_group(3, 1, 1024)
                .build(),
        );
        let aggmap = Arc::new(AggregateMap::new(Arc::clone(&geo)));
        let io = Arc::new(IoEngine::new(geo, DriveKind::Ssd));
        let aio = AioEngine::new(Arc::clone(&io), 8);
        let topo = Arc::new(Topology::symmetric(Model::Hierarchical, 1, 1, 4, 4));
        (Allocator::new(cfg, aggmap, io, executor, topo, 0), aio)
    }

    #[test]
    fn get_use_put_cycle_inline() {
        let (a, _aio) = mk(AllocConfig::with_chunk(16), Arc::new(InlineExecutor));
        let mut b = a.get_bucket().unwrap();
        let mut vbns = Vec::new();
        while let Some(v) = b.use_vbn(0xfeed) {
            vbns.push(v);
        }
        assert_eq!(vbns.len(), 16);
        a.put_bucket(b);
        a.drain();
        let s = a.stats();
        assert_eq!(s.gets, 1);
        assert_eq!(s.puts, 1);
        assert_eq!(s.uses, 16);
        assert_eq!(s.vbns_committed, 16);
        assert_eq!(s.put_commit_queue_len, 1, "the PUT's commit was queued");
        a.infra().aggmap().verify().unwrap();
    }

    #[test]
    fn consecutive_uses_yield_contiguous_vbns() {
        // §IV-C objective: consecutive file blocks land contiguously on
        // one drive.
        let (a, _aio) = mk(AllocConfig::with_chunk(64), Arc::new(InlineExecutor));
        let mut b = a.get_bucket().unwrap();
        let v1 = b.use_vbn(1).unwrap();
        let v2 = b.use_vbn(2).unwrap();
        let v3 = b.use_vbn(3).unwrap();
        assert_eq!(v2.0, v1.0 + 1);
        assert_eq!(v3.0, v2.0 + 1);
        a.put_bucket(b);
    }

    #[test]
    fn free_stage_commits_when_full() {
        let (a, _aio) = mk(AllocConfig::with_chunk(8), Arc::new(InlineExecutor));
        let mut b = a.get_bucket().unwrap();
        let vbns: Vec<Vbn> = std::iter::from_fn(|| b.use_vbn(9)).collect();
        a.put_bucket(b);
        a.drain();
        let mut stage = Stage::new(4);
        for v in &vbns[..4] {
            a.free_vbn(&mut stage, *v);
        }
        a.drain();
        assert!(stage.is_empty(), "full stage auto-committed");
        let s = a.stats();
        assert_eq!(s.vbns_freed, 4);
        assert_eq!(s.stage_commits, 1);
    }

    #[test]
    fn flush_partial_stage() {
        let (a, _aio) = mk(AllocConfig::with_chunk(8), Arc::new(InlineExecutor));
        let mut b = a.get_bucket().unwrap();
        let v = b.use_vbn(1).unwrap();
        a.put_bucket(b);
        a.drain();
        let mut stage = a.new_stage();
        a.free_vbn(&mut stage, v);
        assert_eq!(stage.len(), 1);
        a.flush_stage(&mut stage);
        a.drain();
        assert_eq!(a.stats().vbns_freed, 1);
    }

    #[test]
    fn exhaustion_returns_none_then_recovers() {
        let geo = Arc::new(
            GeometryBuilder::new()
                .aa_stripes(8)
                .raid_group(1, 1, 32)
                .build(),
        );
        let aggmap = Arc::new(AggregateMap::new(Arc::clone(&geo)));
        let io = Arc::new(IoEngine::new(geo, DriveKind::Ssd));
        let _aio = AioEngine::new(Arc::clone(&io), 8);
        let topo = Arc::new(Topology::symmetric(Model::Hierarchical, 1, 1, 2, 2));
        let a = Allocator::new(
            AllocConfig::with_chunk(32),
            aggmap,
            io,
            Arc::new(InlineExecutor),
            topo,
            0,
        );
        // Buckets are AA-bound (8 stripes here), so draining the 32-block
        // drive takes several GET/USE/PUT cycles.
        let mut vbns: Vec<Vbn> = Vec::new();
        while let Some(mut b) = a.get_bucket() {
            while let Some(v) = b.use_vbn(5) {
                vbns.push(v);
            }
            a.put_bucket(b);
            a.drain();
        }
        assert_eq!(vbns.len(), 32);
        assert!(a.get_bucket().is_none(), "aggregate exhausted");
        let mut stage = a.new_stage();
        for v in vbns {
            a.free_vbn(&mut stage, v);
        }
        a.flush_stage(&mut stage);
        a.drain();
        assert!(a.get_bucket().is_some(), "space recovered after frees");
    }

    #[test]
    fn pool_backed_parallel_cleaners_never_share_vbns() {
        // DESIGN.md invariant 1 at the allocator level, with a real
        // Waffinity pool and 4 concurrent cleaner threads.
        let topo = Arc::new(Topology::symmetric(Model::Hierarchical, 1, 1, 4, 4));
        let pool = Arc::new(WaffinityPool::new(Arc::clone(&topo), 3));
        let geo = Arc::new(
            GeometryBuilder::new()
                .aa_stripes(64)
                .raid_group(4, 1, 2048)
                .build(),
        );
        let aggmap = Arc::new(AggregateMap::new(Arc::clone(&geo)));
        let io = Arc::new(IoEngine::new(geo, DriveKind::Ssd));
        let _aio = AioEngine::new(Arc::clone(&io), 8);
        let a = Allocator::new(
            AllocConfig::with_chunk(64),
            aggmap,
            io,
            Arc::new(PoolExecutor::new(pool)),
            topo,
            0,
        );
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let a = Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                for _ in 0..10 {
                    let Some(mut b) = a.get_bucket() else { break };
                    while let Some(v) = b.use_vbn(t as u128 + 1) {
                        got.push(v.0);
                    }
                    a.put_bucket(b);
                }
                got
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        assert!(n > 0);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "no VBN handed to two cleaners");
        a.drain();
        // Buckets still sitting in the cache hold reserved-but-unused
        // VBNs; retire them so everything is committed or released,
        // then the conservation identity must hold exactly.
        a.flush_cache();
        a.infra().aggmap().verify().unwrap();
        let s = a.stats();
        s.check_conservation(0).unwrap();
        assert!(s.put_commit_queue_len >= 1, "PUT commits were queued");
    }

    #[test]
    fn serial_infra_mode_runs_messages_in_serial_affinity() {
        let topo = Arc::new(Topology::symmetric(Model::Hierarchical, 1, 1, 4, 4));
        let pool = Arc::new(WaffinityPool::new(Arc::clone(&topo), 2));
        let geo = Arc::new(
            GeometryBuilder::new()
                .aa_stripes(64)
                .raid_group(2, 1, 512)
                .build(),
        );
        let aggmap = Arc::new(AggregateMap::new(Arc::clone(&geo)));
        let io = Arc::new(IoEngine::new(geo, DriveKind::Ssd));
        let _aio = AioEngine::new(Arc::clone(&io), 8);
        let a = Allocator::new(
            AllocConfig::with_chunk(16).serial_infra(),
            aggmap,
            io,
            Arc::new(PoolExecutor::new(Arc::clone(&pool))),
            topo,
            0,
        );
        let mut b = a.get_bucket().unwrap();
        while b.use_vbn(3).is_some() {}
        a.put_bucket(b);
        a.drain();
        assert!(
            pool.messages_in(Affinity::Serial) >= 2,
            "refill + commit in Serial"
        );
        assert_eq!(pool.messages_in(Affinity::AggrVbnRange(0, 0)), 0);
    }
}
