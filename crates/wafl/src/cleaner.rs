//! Parallel inode cleaning.
//!
//! "Each dirty buffer is cleaned by allocating a free block, writing the
//! buffer to this chosen location, and freeing the previously used block"
//! (§II-C). Under White Alligator, "multiple cleaner threads \[can\] operate
//! concurrently on different inodes or different regions of a single
//! inode" (§IV-A), and "synchronization is required only on the bucket
//! cache, the tetris data structures, and the used bucket list" (§IV-B1).
//!
//! This module provides:
//!
//! * [`partition_work`] — turns a CP's frozen dirty-inode list into
//!   cleaner messages: large inodes are *split into regions* (multiple
//!   cleaners per inode) and, when batching is enabled, many small inodes
//!   are packed into one message ("batched inode cleaning allows multiple
//!   inodes to be associated with a single message in cases when the
//!   dirty inodes each has few dirty buffers, to reduce the message
//!   processing overhead", §V-C);
//! * [`clean_job`] — the per-job cleaning loop: GET a bucket, USE a VBN
//!   per dirty buffer, stage frees of overwritten blocks, PUT the bucket;
//! * [`CleanerPool`] — a real-thread pool of cleaners with an
//!   activatable-thread limit driven by the
//!   [`DynamicTuner`](crate::tuner::DynamicTuner).

use crate::buffer::{CleanedBlock, DirtyBuffer};
use crate::inode::FileId;
use crate::volume::{Volume, VolumeId};
use alligator::{Allocator, Bucket};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use serde::Serialize;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Most VVBNs one reservation takes (the volume-side bucket analog). A
/// job reserves no more than it has buffers left to clean; the cap bounds
/// how long a reservation holds the volume's VVBN cursor.
const VVBN_CHUNK: usize = 64;

/// Cleaner subsystem configuration.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CleanerConfig {
    /// Worker threads in the pool (the paper's cleaner-thread count; 1 =
    /// the serialized-cleaning baseline of Figs 4/7).
    pub threads: usize,
    /// Enable batched inode cleaning (§V-C).
    pub batching: bool,
    /// Max inodes per batched message.
    pub batch_max_inodes: usize,
    /// Max total dirty buffers per batched message.
    pub batch_max_buffers: usize,
    /// Inodes with more dirty buffers than this are split into regions so
    /// multiple cleaners can work on one inode (§IV-A).
    pub region_split_threshold: usize,
    /// Buffers per region when splitting.
    pub region_size: usize,
    /// Buckets acquired per GET batch: a cleaner takes up to this many
    /// buckets of the oldest refill round in one acquisition of the cache
    /// lock ([`Allocator::get_bucket_many`]) and feeds later jobs from the
    /// prefetched tail — §IV-C's amortization applied to GET itself.
    /// `1` disables batching (every bucket pays its own lock).
    pub get_batch: usize,
}

impl Default for CleanerConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            batching: true,
            batch_max_inodes: 32,
            batch_max_buffers: 256,
            region_split_threshold: 512,
            region_size: 256,
            get_batch: 4,
        }
    }
}

impl CleanerConfig {
    /// The single-threaded baseline ("serialized cleaner threads").
    pub fn serial() -> Self {
        Self {
            threads: 1,
            ..Self::default()
        }
    }
}

/// One inode (or inode region) worth of cleaning work.
pub struct CleanJob {
    /// Volume owning the file.
    pub vol: Arc<Volume>,
    /// The file being cleaned.
    pub file: FileId,
    /// The dirty buffers of this job (the whole inode or one region).
    pub buffers: Vec<DirtyBuffer>,
}

/// One cleaner message: one or more jobs (more than one only when batched).
pub struct CleanItem {
    /// The jobs carried by this message.
    pub jobs: Vec<CleanJob>,
}

/// The outcome of cleaning one job.
#[derive(Debug)]
pub struct CleanResult {
    /// Volume owning the file.
    pub vol: VolumeId,
    /// The cleaned file.
    pub file: FileId,
    /// Where each buffer landed; the CP engine applies these to the
    /// inode's block map.
    pub cleaned: Vec<CleanedBlock>,
}

/// Partition a CP's frozen work into cleaner messages.
pub fn partition_work(
    frozen: Vec<(Arc<Volume>, FileId, Vec<DirtyBuffer>)>,
    cfg: &CleanerConfig,
) -> Vec<CleanItem> {
    let mut items = Vec::new();
    let mut batch: Vec<CleanJob> = Vec::new();
    let mut batch_buffers = 0usize;
    for (vol, file, buffers) in frozen {
        if buffers.len() > cfg.region_split_threshold {
            // Large inode: split into regions, one message each, so
            // multiple cleaner threads can process it in parallel.
            let mut rest = buffers;
            while !rest.is_empty() {
                let take = rest.len().min(cfg.region_size);
                let region: Vec<DirtyBuffer> = rest.drain(..take).collect();
                items.push(CleanItem {
                    jobs: vec![CleanJob {
                        vol: Arc::clone(&vol),
                        file,
                        buffers: region,
                    }],
                });
            }
        } else if cfg.batching {
            if !batch.is_empty()
                && (batch.len() >= cfg.batch_max_inodes
                    || batch_buffers + buffers.len() > cfg.batch_max_buffers)
            {
                items.push(CleanItem {
                    jobs: std::mem::take(&mut batch),
                });
                batch_buffers = 0;
            }
            batch_buffers += buffers.len();
            batch.push(CleanJob { vol, file, buffers });
        } else {
            items.push(CleanItem {
                jobs: vec![CleanJob { vol, file, buffers }],
            });
        }
    }
    if !batch.is_empty() {
        items.push(CleanItem { jobs: batch });
    }
    items
}

/// A cleaner's bucket state across the jobs of one message: the bucket
/// currently being consumed plus the prefetched tail of the last batched
/// GET. Create one per message, run jobs through [`clean_job`], and call
/// [`CleanerCtx::finish`] at message end to PUT the in-hand bucket and
/// requeue untouched prefetched ones.
#[derive(Debug)]
pub struct CleanerCtx {
    /// This cleaner's index, as passed to `Allocator::get_bucket_many`.
    pub cleaner: usize,
    /// Buckets per GET batch ([`CleanerConfig::get_batch`]).
    pub get_batch: usize,
    /// The bucket VBNs are currently drawn from.
    pub bucket: Option<Bucket>,
    /// Untouched buckets from the last batched GET, consumed before the
    /// next cache round-trip.
    pub prefetch: VecDeque<Bucket>,
}

impl CleanerCtx {
    /// Context for cleaner `cleaner` batching `get_batch` buckets per GET.
    pub fn new(cleaner: usize, get_batch: usize) -> Self {
        Self {
            cleaner,
            get_batch: get_batch.max(1),
            bucket: None,
            prefetch: VecDeque::new(),
        }
    }

    /// Make `bucket` non-empty: take from the prefetch queue, or GET a
    /// fresh batch. Returns `None` when the aggregate is out of space.
    fn refill(&mut self, alloc: &Allocator) -> Option<()> {
        if let Some(b) = self.prefetch.pop_front() {
            self.bucket = Some(b);
            return Some(());
        }
        let want = self.adaptive_batch(alloc);
        let mut batch = alloc.get_bucket_many(self.cleaner, want)?;
        let first = batch.remove(0);
        self.prefetch.extend(batch);
        self.bucket = Some(first);
        Some(())
    }

    /// The GET batch size for the next cache round-trip. The configured
    /// `get_batch` is a *base*, adapted to the cache's state at GET time:
    ///
    /// * when the whole cache is at or under the refill low watermark the
    ///   batch shrinks to 1 — stripping the last buckets into one
    ///   cleaner's prefetch queue would starve its peers and race ahead
    ///   of the refill pipeline;
    /// * when the cache runs deep (≥ 2× the base) the batch grows to 2× —
    ///   the refill pipeline is ahead, so amortizing more GETs into the
    ///   single lock acquisition costs nothing (§IV-C applied to GET);
    /// * otherwise the base applies.
    pub fn adaptive_batch(&self, alloc: &Allocator) -> usize {
        let base = self.get_batch;
        if base <= 1 {
            return base.max(1);
        }
        let stats = alloc.infra().stats();
        let depth = alloc.cache().len();
        if depth <= alligator::LOW_WATERMARK {
            // ordering: statistics counter; staleness is acceptable.
            stats.cache_batch_shrinks.fetch_add(1, Ordering::Relaxed);
            return 1;
        }
        if depth >= base * 2 {
            // ordering: statistics counter; staleness is acceptable.
            stats.cache_batch_grows.fetch_add(1, Ordering::Relaxed);
            return base * 2;
        }
        base
    }

    /// Message-end settlement: PUT the bucket in hand (its USEs must
    /// commit) and hand untouched prefetched buckets back to the cache.
    pub fn finish(&mut self, alloc: &Allocator) {
        if let Some(b) = self.bucket.take() {
            alloc.put_bucket(b);
        }
        for b in self.prefetch.drain(..) {
            alloc.requeue_bucket(b);
        }
    }
}

/// Clean one job: assign a VVBN and a PVBN to every dirty buffer, record
/// the buffer into the allocator's tetris (via USE), and stage frees of
/// overwritten blocks. `ctx` carries the cleaner's bucket (and batched-GET
/// prefetch queue) across jobs within one message.
///
/// Returns `None` if the aggregate ran out of space mid-job (callers
/// treat this as a fatal CP error; `ctx` can still be `finish`ed to
/// settle buckets it holds).
pub fn clean_job(
    alloc: &Allocator,
    ctx: &mut CleanerCtx,
    stage: &mut alligator::Stage,
    job: &CleanJob,
) -> Option<CleanResult> {
    let mut cleaned = Vec::with_capacity(job.buffers.len());
    let mut chunk: Option<crate::vvbn::VvbnChunkGuard<'_>> = None;
    for (i, buf) in job.buffers.iter().enumerate() {
        // Virtual VBNs from the volume's chunked allocator, reserved for
        // the buffers this job still has to clean: a small inode takes
        // exactly what it uses and releases nothing.
        if chunk.as_ref().is_none_or(|c| c.is_empty()) {
            let want = VVBN_CHUNK.min(job.buffers.len() - i);
            chunk = Some(crate::vvbn::VvbnChunkGuard::new(job.vol.vvbn(), want)?);
        }
        // Physical VBN from the bucket (prefetched or freshly GOT).
        let pvbn = loop {
            if let Some(b) = ctx.bucket.as_mut() {
                if let Some(v) = b.use_vbn(buf.stamp) {
                    break v;
                }
            }
            if let Some(old) = ctx.bucket.take() {
                alloc.put_bucket(old);
            }
            ctx.refill(alloc)?;
        };
        // Only now, with the PVBN in hand, consume the VVBN: an
        // out-of-space exit above leaves it reserved for the guard to
        // release.
        let vvbn = chunk
            .as_mut()
            .and_then(|c| c.take())
            .expect("chunk refilled above");
        job.vol.vvbn().commit(vvbn);
        // Overwrite: free the previous locations.
        if let Some(old) = buf.old_pvbn {
            alloc.free_vbn(stage, old);
        }
        if let Some(old_v) = buf.old_vvbn {
            job.vol.vvbn().free(old_v);
        }
        cleaned.push(CleanedBlock {
            fbn: buf.fbn,
            vvbn,
            pvbn,
            stamp: buf.stamp,
        });
    }
    Some(CleanResult {
        vol: job.vol.id(),
        file: job.file,
        cleaned,
    })
}

/// A worker's reply: the item's results (`None` when the aggregate ran
/// out of space), or the payload of a panic raised while cleaning it.
type Reply = std::thread::Result<Option<Vec<CleanResult>>>;

enum Msg {
    Item {
        item: CleanItem,
        reply: Sender<Reply>,
    },
}

struct PoolShared {
    alloc: Arc<Allocator>,
    cfg: CleanerConfig,
    rx: Receiver<Msg>,
    /// Workers with index ≥ this limit park (dynamic tuning).
    active_limit: AtomicUsize,
    limit_changed: Condvar,
    limit_lock: Mutex<()>,
    shutdown: AtomicBool,
    /// Per-pool busy time for utilization measurement.
    busy_ns: AtomicU64,
    items_done: AtomicU64,
}

/// A pool of real cleaner threads.
pub struct CleanerPool {
    shared: Arc<PoolShared>,
    tx: Sender<Msg>,
    workers: Vec<JoinHandle<()>>,
}

impl CleanerPool {
    /// Spawn `cfg.threads` cleaner threads bound to an allocator.
    pub fn new(alloc: Arc<Allocator>, cfg: CleanerConfig) -> Self {
        assert!(cfg.threads >= 1);
        let (tx, rx) = unbounded();
        let shared = Arc::new(PoolShared {
            alloc,
            cfg,
            rx,
            active_limit: AtomicUsize::new(cfg.threads),
            limit_changed: Condvar::new(),
            limit_lock: Mutex::ranked((), "cleaner.limit", 26),
            shutdown: AtomicBool::new(false),
            busy_ns: AtomicU64::new(0),
            items_done: AtomicU64::new(0),
        });
        let workers = (0..cfg.threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cleaner-{i}"))
                    .spawn(move || worker(i, &shared))
                    .expect("spawn cleaner")
            })
            .collect();
        Self {
            shared,
            tx,
            workers,
        }
    }

    /// Pool configuration.
    #[inline]
    pub fn config(&self) -> &CleanerConfig {
        &self.shared.cfg
    }

    /// Currently active (non-parked) thread limit.
    pub fn active_limit(&self) -> usize {
        // ordering: Acquire — pairs with the control plane's Release store
        // of the limit; pairs-with: cleaner.limit.
        self.shared.active_limit.load(Ordering::Acquire)
    }

    /// Set the active-thread limit (the dynamic tuner's actuator).
    pub fn set_active_limit(&self, n: usize) {
        let n = n.clamp(1, self.workers.len());
        // ordering: Release — publishes the new worker limit;
        // pairs-with: cleaner.limit.
        self.shared.active_limit.store(n, Ordering::Release);
        let _g = self.shared.limit_lock.lock();
        self.shared.limit_changed.notify_all();
    }

    /// Accumulated busy nanoseconds across all cleaners (utilization
    /// numerator for the tuner).
    pub fn busy_ns(&self) -> u64 {
        // ordering: statistics counter; staleness is acceptable.
        self.shared.busy_ns.load(Ordering::Relaxed)
    }

    /// Items processed over the pool's lifetime.
    pub fn items_done(&self) -> u64 {
        // ordering: statistics counter; staleness is acceptable.
        self.shared.items_done.load(Ordering::Relaxed)
    }

    /// Clean a CP's worth of items, blocking until all jobs complete.
    ///
    /// # Panics
    /// Panics if the aggregate ran out of space mid-CP (no caller can
    /// make progress in that state), and re-raises a panic from a worker
    /// on this thread, so a failed item fails the CP instead of hanging it.
    pub fn clean_all(&self, items: Vec<CleanItem>) -> Vec<CleanResult> {
        let (reply_tx, reply_rx) = unbounded();
        let n = items.len();
        for item in items {
            self.tx
                .send(Msg::Item {
                    item,
                    reply: reply_tx.clone(),
                })
                .expect("cleaner pool is alive");
        }
        drop(reply_tx);
        let mut out = Vec::new();
        for _ in 0..n {
            let results = match reply_rx.recv().expect("cleaner worker dropped its reply") {
                Ok(results) => results.expect("aggregate out of space during CP"),
                Err(panic) => std::panic::resume_unwind(panic),
            };
            out.extend(results);
        }
        out
    }

    /// Stop the pool (drains queued items first).
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        // ordering: Release/Acquire pair on the shutdown flag;
        // pairs-with: cleaner.shutdown.
        self.shared.shutdown.store(true, Ordering::Release);
        // Wake parked workers and unblock recv via channel close.
        self.set_active_limit(self.workers.len());
        let (dummy_tx, _) = unbounded::<Msg>();
        let _ = std::mem::replace(&mut self.tx, dummy_tx); // drop real sender
        let _g = self.shared.limit_lock.lock();
        self.shared.limit_changed.notify_all();
        drop(_g);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for CleanerPool {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.shutdown_impl();
        }
    }
}

impl std::fmt::Debug for CleanerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CleanerPool")
            .field("threads", &self.workers.len())
            .field("active_limit", &self.active_limit())
            .finish()
    }
}

fn worker(index: usize, shared: &PoolShared) {
    loop {
        // Dynamic tuning: park while deactivated.
        {
            let mut g = shared.limit_lock.lock();
            // ordering: Acquire — pairs with the control plane's Release store
            // of the limit; pairs-with: cleaner.limit.
            while index >= shared.active_limit.load(Ordering::Acquire)
                // ordering: Release/Acquire pair on the shutdown flag;
        // pairs-with: cleaner.shutdown.
                && !shared.shutdown.load(Ordering::Acquire)
            {
                shared.limit_changed.wait(&mut g);
            }
        }
        let msg = match shared.rx.recv() {
            Ok(m) => m,
            Err(_) => return, // all senders gone: shutdown
        };
        let Msg::Item { item, reply } = msg;
        // A panic while cleaning goes back to the CP thread, which
        // re-raises it. The worker lives on, so items queued behind this
        // one still get their replies.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            clean_item(index, shared, &item)
        }));
        let _ = reply.send(outcome);
    }
}

/// Clean one message's jobs on worker `index`: `None` when the aggregate
/// ran out of space.
fn clean_item(index: usize, shared: &PoolShared, item: &CleanItem) -> Option<Vec<CleanResult>> {
    let t0 = std::time::Instant::now();
    let _sp = obs::trace_span!(obs::EventKind::CleanItem, item.jobs.len() as u64);
    let mut ctx = CleanerCtx::new(index, shared.cfg.get_batch);
    let mut stage = shared.alloc.new_stage();
    let mut results = Vec::with_capacity(item.jobs.len());
    let mut failed = false;
    for job in &item.jobs {
        match clean_job(&shared.alloc, &mut ctx, &mut stage, job) {
            Some(r) => results.push(r),
            None => {
                failed = true;
                break;
            }
        }
    }
    // PUT the bucket, requeue unused prefetches, flush the stage at
    // message end.
    ctx.finish(&shared.alloc);
    shared.alloc.flush_stage(&mut stage);
    shared
        .busy_ns
        // ordering: statistics counter; staleness is acceptable.
        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    // ordering: statistics counter; staleness is acceptable.
    shared.items_done.fetch_add(1, Ordering::Relaxed);
    (!failed).then_some(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alligator::{AllocConfig, InlineExecutor};
    use std::sync::Arc;
    use waffinity::{Model, Topology};
    use wafl_blockdev::{AioEngine, DriveKind, GeometryBuilder, IoEngine};
    use wafl_metafile::AggregateMap;

    /// An allocator over three data drives, and the async engine its
    /// stripes go through. Every inline refill round adds 3 buckets (one
    /// per drive), so cache depths are exact and deterministic.
    fn mk_alloc() -> (Arc<Allocator>, Arc<AioEngine>) {
        let geo = Arc::new(
            GeometryBuilder::new()
                .aa_stripes(64)
                .raid_group(3, 1, 4096)
                .build(),
        );
        let aggmap = Arc::new(AggregateMap::new(Arc::clone(&geo)));
        let io = Arc::new(IoEngine::new(geo, DriveKind::Ssd));
        let aio = AioEngine::new(Arc::clone(&io), 8);
        let topo = Arc::new(Topology::symmetric(Model::Hierarchical, 1, 1, 4, 4));
        let cfg = AllocConfig::with_chunk(64);
        let alloc = Allocator::new(cfg, aggmap, io, Arc::new(InlineExecutor), topo, 0);
        (alloc, aio)
    }

    fn vol() -> Arc<Volume> {
        let v = Volume::new(VolumeId(0), 0, 1 << 16);
        v.create_file(FileId(1));
        v.create_file(FileId(2));
        v
    }

    fn dirty(n: u64) -> Vec<DirtyBuffer> {
        (0..n)
            .map(|fbn| DirtyBuffer::first_write(fbn, wafl_blockdev::stamp(1, fbn, 1)))
            .collect()
    }

    #[test]
    fn partition_splits_large_inodes_into_regions() {
        let cfg = CleanerConfig {
            region_split_threshold: 10,
            region_size: 4,
            batching: false,
            ..Default::default()
        };
        let v = vol();
        let items = partition_work(vec![(v, FileId(1), dirty(11))], &cfg);
        assert_eq!(items.len(), 3, "11 buffers → regions of 4+4+3");
        assert!(items.iter().all(|i| i.jobs.len() == 1));
        let sizes: Vec<usize> = items.iter().map(|i| i.jobs[0].buffers.len()).collect();
        assert_eq!(sizes, vec![4, 4, 3]);
    }

    #[test]
    fn partition_batches_small_inodes() {
        let cfg = CleanerConfig {
            batching: true,
            batch_max_inodes: 3,
            batch_max_buffers: 1000,
            ..Default::default()
        };
        let v = vol();
        let frozen: Vec<_> = (0..7u64)
            .map(|f| {
                v.create_file(FileId(100 + f));
                (Arc::clone(&v), FileId(100 + f), dirty(2))
            })
            .collect();
        let items = partition_work(frozen, &cfg);
        assert_eq!(items.len(), 3, "7 inodes at ≤3 per message");
        assert_eq!(items[0].jobs.len(), 3);
        assert_eq!(items[2].jobs.len(), 1);
    }

    #[test]
    fn partition_without_batching_is_one_inode_per_message() {
        let cfg = CleanerConfig {
            batching: false,
            ..Default::default()
        };
        let v = vol();
        let frozen: Vec<_> = (0..5u64)
            .map(|f| {
                v.create_file(FileId(200 + f));
                (Arc::clone(&v), FileId(200 + f), dirty(1))
            })
            .collect();
        let items = partition_work(frozen, &cfg);
        assert_eq!(items.len(), 5);
    }

    #[test]
    fn batch_respects_buffer_budget() {
        let cfg = CleanerConfig {
            batching: true,
            batch_max_inodes: 100,
            batch_max_buffers: 5,
            ..Default::default()
        };
        let v = vol();
        let frozen: Vec<_> = (0..4u64)
            .map(|f| {
                v.create_file(FileId(300 + f));
                (Arc::clone(&v), FileId(300 + f), dirty(3))
            })
            .collect();
        let items = partition_work(frozen, &cfg);
        // Each 3-buffer inode plus the next is 6 > 5: one inode per message.
        assert_eq!(items.len(), 4);
    }

    #[test]
    fn clean_job_assigns_contiguous_vbns_and_frees_old() {
        let (alloc, _aio) = mk_alloc();
        let v = vol();
        let mut ctx = CleanerCtx::new(0, 4);
        let mut stage = alloc.new_stage();
        let job = CleanJob {
            vol: Arc::clone(&v),
            file: FileId(1),
            buffers: dirty(8),
        };
        let r = clean_job(&alloc, &mut ctx, &mut stage, &job).unwrap();
        assert_eq!(r.cleaned.len(), 8);
        for w in r.cleaned.windows(2) {
            assert_eq!(
                w[1].pvbn.0,
                w[0].pvbn.0 + 1,
                "consecutive buffers get contiguous VBNs"
            );
        }
        // Overwrite pass: frees must be staged.
        let over: Vec<DirtyBuffer> = r
            .cleaned
            .iter()
            .map(|c| DirtyBuffer::overwrite(c.fbn, c.stamp + 1, c.vvbn, c.pvbn))
            .collect();
        let job2 = CleanJob {
            vol: v,
            file: FileId(1),
            buffers: over,
        };
        let r2 = clean_job(&alloc, &mut ctx, &mut stage, &job2).unwrap();
        assert_eq!(r2.cleaned.len(), 8);
        assert_eq!(stage.len(), 8, "8 old PVBNs staged for freeing");
        ctx.finish(&alloc);
        alloc.flush_stage(&mut stage);
        alloc.drain();
        alloc.infra().aggmap().verify().unwrap();
    }

    #[test]
    fn small_jobs_reserve_only_the_vvbns_they_use() {
        let (alloc, _aio) = mk_alloc();
        let v = vol();
        let total = v.vvbn().total();
        let mut ctx = CleanerCtx::new(0, 4);
        let mut stage = alloc.new_stage();
        let mut vvbns = Vec::new();
        for _ in 0..8 {
            let job = CleanJob {
                vol: Arc::clone(&v),
                file: FileId(1),
                buffers: dirty(3),
            };
            let r = clean_job(&alloc, &mut ctx, &mut stage, &job).unwrap();
            vvbns.extend(r.cleaned.iter().map(|c| c.vvbn));
            assert_eq!(
                v.vvbn().free_count(),
                total - vvbns.len() as u64,
                "no reservation outlives its job"
            );
        }
        assert_eq!(
            vvbns,
            (0..24).collect::<Vec<u64>>(),
            "each job reserves exactly its 3 VVBNs, so jobs pack back to back"
        );
        ctx.finish(&alloc);
        alloc.flush_stage(&mut stage);
        alloc.drain();
    }

    #[test]
    fn out_of_space_commits_no_vvbn_without_a_pvbn() {
        // A 32-block aggregate (the allocator's exhaustion geometry).
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
        let alloc = Allocator::new(
            AllocConfig::with_chunk(32),
            aggmap,
            io,
            Arc::new(InlineExecutor),
            topo,
            0,
        );
        let v = vol();
        let total = v.vvbn().total();
        let mut ctx = CleanerCtx::new(0, 4);
        let mut stage = alloc.new_stage();
        let job = CleanJob {
            vol: Arc::clone(&v),
            file: FileId(1),
            buffers: dirty(40),
        };
        assert!(clean_job(&alloc, &mut ctx, &mut stage, &job).is_none());
        assert_eq!(
            v.vvbn().free_count(),
            total - 32,
            "one VVBN per PVBN handed out; the 33rd buffer consumed none"
        );
        assert_eq!(v.vvbn().map().recount_free(), v.vvbn().free_count());
        ctx.finish(&alloc);
        alloc.flush_stage(&mut stage);
        alloc.drain();
    }

    #[test]
    fn batched_get_prefetches_and_requeues_leftovers() {
        // One refill round is 3 buckets (one per drive), so a
        // get_batch=4 GET takes the whole round in one acquisition.
        let (alloc, _aio) = mk_alloc();
        let v = vol();
        let mut ctx = CleanerCtx::new(0, 4);
        let mut stage = alloc.new_stage();
        // Warm the cache first (inline executor: the round lands
        // synchronously) so the first GET takes the batched fast path
        // instead of the empty-cache stall path, which hands out a
        // single bucket.
        alloc.request_refill();
        let job = CleanJob {
            vol: Arc::clone(&v),
            file: FileId(1),
            buffers: dirty(8),
        };
        clean_job(&alloc, &mut ctx, &mut stage, &job).unwrap();
        let s = alloc.stats();
        assert!(
            s.cache_get_batched >= 2,
            "one GET batch delivered the whole refill round (got {})",
            s.cache_get_batched
        );
        let prefetched = ctx.prefetch.len();
        assert_eq!(prefetched, 2, "bucket in hand + 2 prefetched");
        let len_before = alloc.cache().len();
        ctx.finish(&alloc);
        assert_eq!(
            alloc.cache().len(),
            len_before + prefetched,
            "untouched prefetched buckets requeued"
        );
        alloc.flush_stage(&mut stage);
        alloc.flush_cache();
        alloc.drain();
        alloc.infra().aggmap().verify().unwrap();
        alloc.stats().check_conservation(0).unwrap();
    }

    #[test]
    fn adaptive_batch_grows_when_cache_runs_deep() {
        let (alloc, _aio) = mk_alloc();
        let ctx = CleanerCtx::new(0, 2);
        // Two inline refill rounds: 6 buckets in the cache, past 2× the
        // base batch of 2.
        alloc.request_refill();
        alloc.request_refill();
        assert!(alloc.cache().len() >= 4, "setup: deep cache");
        assert_eq!(
            ctx.adaptive_batch(&alloc),
            4,
            "deep cache doubles the batch"
        );
        assert!(alloc.stats().cache_batch_grows >= 1);
        alloc.flush_cache();
        alloc.drain();
        alloc.stats().check_conservation(0).unwrap();
    }

    #[test]
    fn adaptive_batch_shrinks_near_low_watermark() {
        let (alloc, _aio) = mk_alloc();
        let ctx = CleanerCtx::new(0, 4);
        // One round: 3 buckets — above the watermark (2), below the
        // grow threshold (8) — the base applies.
        alloc.request_refill();
        assert_eq!(
            ctx.adaptive_batch(&alloc),
            4,
            "moderate fill keeps the base batch"
        );
        // Draw the cache down to the low watermark: the batch collapses
        // to 1 so one cleaner cannot strip the last buckets.
        let held = alloc.get_bucket_from(0).unwrap();
        assert!(alloc.cache().len() <= alligator::LOW_WATERMARK);
        assert_eq!(ctx.adaptive_batch(&alloc), 1, "shrink at the watermark");
        assert!(alloc.stats().cache_batch_shrinks >= 1);
        alloc.requeue_bucket(held);
        alloc.flush_cache();
        alloc.drain();
        alloc.stats().check_conservation(0).unwrap();
    }

    #[test]
    fn pool_cleans_items_in_parallel() {
        let (alloc, _aio) = mk_alloc();
        let v = vol();
        let cfg = CleanerConfig {
            threads: 4,
            batching: false,
            ..Default::default()
        };
        let pool = CleanerPool::new(Arc::clone(&alloc), cfg);
        let frozen: Vec<_> = (0..20u64)
            .map(|f| {
                v.create_file(FileId(400 + f));
                (Arc::clone(&v), FileId(400 + f), dirty(16))
            })
            .collect();
        let items = partition_work(frozen, &cfg);
        let results = pool.clean_all(items);
        assert_eq!(results.len(), 20);
        let mut all: Vec<u64> = results
            .iter()
            .flat_map(|r| r.cleaned.iter().map(|c| c.pvbn.0))
            .collect();
        let n = all.len();
        assert_eq!(n, 320);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "no pvbn assigned twice");
        pool.shutdown();
        alloc.drain();
    }

    #[test]
    fn reduced_active_limit_still_completes() {
        let (alloc, _aio) = mk_alloc();
        let v = vol();
        let cfg = CleanerConfig {
            threads: 4,
            ..Default::default()
        };
        let pool = CleanerPool::new(Arc::clone(&alloc), cfg);
        pool.set_active_limit(1);
        assert_eq!(pool.active_limit(), 1);
        let items = partition_work(vec![(v, FileId(1), dirty(100))], &cfg);
        let results = pool.clean_all(items);
        let total: usize = results.iter().map(|r| r.cleaned.len()).sum();
        assert_eq!(total, 100);
        pool.set_active_limit(4);
        assert!(pool.items_done() > 0);
    }

    /// A panic on a cleaner worker fails the CP on the CP thread. With one
    /// worker, the first item's panic must not leave `clean_all` waiting
    /// for a reply the dead worker would never send.
    #[test]
    fn worker_panic_fails_clean_all_instead_of_hanging() {
        let (alloc, _aio) = mk_alloc();
        let v = vol();
        let cfg = CleanerConfig {
            threads: 1,
            batching: false,
            ..Default::default()
        };
        let pool = CleanerPool::new(Arc::clone(&alloc), cfg);
        // A VVBN that was never allocated: freeing it is a double free.
        let bad = DirtyBuffer {
            old_vvbn: Some(60_000),
            ..DirtyBuffer::first_write(0, wafl_blockdev::stamp(1, 0, 1))
        };
        let items = partition_work(
            vec![
                (Arc::clone(&v), FileId(1), vec![bad]),
                (v, FileId(2), dirty(4)),
            ],
            &cfg,
        );
        assert_eq!(items.len(), 2);
        let (tx, rx) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let r =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.clean_all(items)));
            // Shut the pool down before replying, so the bounded wait
            // below covers the shutdown too.
            drop(pool);
            let _ = tx.send(r.err().and_then(|p| p.downcast::<String>().ok()));
        });
        let msg = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("clean_all and the pool's shutdown returned within 10 s");
        let msg = msg.expect("clean_all re-raised the worker's panic message");
        assert!(msg.contains("double VVBN free"), "{msg}");
        helper.join().expect("helper thread exits");
    }
}
