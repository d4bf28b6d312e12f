//! The write-allocation infrastructure.
//!
//! "The infrastructure processes allocation metafiles to find available
//! VBNs that meet the write allocator's objectives and uses them to
//! construct a set of buckets" (§IV-A). Its duties (§IV-B2):
//!
//! 1. read allocation bitmap files to find free VBNs with which to fill
//!    buckets ([`Infrastructure::refill_round`]);
//! 2. write to allocation bitmap files to reflect VBN allocations and
//!    frees performed by cleaner threads
//!    ([`Infrastructure::commit_bucket`], [`Infrastructure::commit_frees`]).
//!
//! ## Fill policy (§IV-D, Figure 3)
//!
//! Per RAID group, the infrastructure selects the Allocation Area with the
//! most free blocks and walks the bitmaps from the top of the AA; *each
//! data drive contributes one bucket* filled with the next chunk of free
//! VBNs on that drive. All buckets of a refill round share one
//! [`Tetris`], whose outstanding-bucket count is the number of buckets
//! built. When every drive's progress reaches the end of the AA, a new AA
//! is selected from the same RAID group. Collective reinsertion — buckets
//! only entering the cache once *all* drives have a refilled bucket —
//! "ensures equal progress on each drive".

use crate::bucket::{Bucket, FinishedBucket};
use crate::cache::BucketCache;
use crate::config::{AllocConfig, ReinsertPolicy};
use crate::stats::AllocStats;
use crate::tetris::Tetris;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use wafl_blockdev::{AaId, IoEngine, RaidGroupId, Vbn};
use wafl_metafile::AggregateMap;

/// Per-RAID-group fill cursor: the current AA and each drive's progress
/// (absolute DBN of the next block to scan) within it.
#[derive(Debug, Clone)]
struct RgCursor {
    aa: Option<AaId>,
    /// Next DBN to scan, per data drive of the group.
    next_dbn: Vec<u64>,
}

/// The infrastructure half of White Alligator.
pub struct Infrastructure {
    cfg: AllocConfig,
    aggmap: Arc<AggregateMap>,
    io: Arc<IoEngine>,
    stats: Arc<AllocStats>,
    cursors: Mutex<Vec<RgCursor>>,
    generation: AtomicU64,
    /// Set when the most recent refill round produced zero buckets —
    /// i.e., the aggregate has no allocatable space left.
    exhausted: AtomicBool,
}

impl Infrastructure {
    /// Build the infrastructure over an aggregate's metadata and media.
    pub fn new(
        cfg: AllocConfig,
        aggmap: Arc<AggregateMap>,
        io: Arc<IoEngine>,
        stats: Arc<AllocStats>,
    ) -> Arc<Self> {
        let cursors = aggmap
            .geometry()
            .raid_groups()
            .iter()
            .map(|g| RgCursor {
                aa: None,
                next_dbn: vec![0; g.width() as usize],
            })
            .collect();
        Arc::new(Self {
            cfg,
            aggmap,
            io,
            stats,
            cursors: Mutex::ranked(cursors, "infra.cursors", 40),
            generation: AtomicU64::new(0),
            exhausted: AtomicBool::new(false),
        })
    }

    /// The allocator configuration.
    #[inline]
    pub fn config(&self) -> &AllocConfig {
        &self.cfg
    }

    /// Shared statistics.
    #[inline]
    pub fn stats(&self) -> &Arc<AllocStats> {
        &self.stats
    }

    /// The aggregate's free-space metadata.
    #[inline]
    pub fn aggmap(&self) -> &Arc<AggregateMap> {
        &self.aggmap
    }

    /// The aggregate's I/O engine.
    #[inline]
    pub fn io(&self) -> &Arc<IoEngine> {
        &self.io
    }

    /// Did the last refill round find no space anywhere?
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        // ordering: Acquire — pairs with the Release stores of the fill
        // outcome; pairs-with: infra.exhausted.
        self.exhausted.load(Ordering::Acquire)
    }

    /// Harvest completions of queued writes without blocking. A stripe
    /// write that failed terminally is counted here, per *completion*,
    /// and nowhere else. Depth and latency live in the engine itself.
    /// Returns the number of completions harvested.
    pub fn harvest_io(&self) -> usize {
        self.account_completions(self.io.poll())
    }

    /// Barrier: wait for every queued write to complete and the file
    /// mirror, if any, to fsync, then harvest. Returns completions
    /// harvested.
    pub fn drain_io(&self) -> usize {
        self.account_completions(self.io.barrier())
    }

    fn account_completions(&self, done: Vec<wafl_blockdev::Completion>) -> usize {
        for c in &done {
            if c.result.is_err() {
                // ordering: statistics counter; staleness is acceptable.
                self.stats.io_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        done.len()
    }

    /// One refill round (steps 1 and 6→1 of Figure 2): build one bucket
    /// per data drive per RAID group and insert them into `cache`
    /// according to the reinsertion policy. Returns the number of buckets
    /// inserted.
    ///
    /// Runs as an infrastructure message; callers route it through the
    /// configured executor/affinity (see [`crate::Allocator`]).
    pub fn refill_round(&self, cache: &BucketCache) -> usize {
        let mut sp = obs::trace_span!(obs::EventKind::Refill);
        // ordering: statistics counter; staleness is acceptable.
        self.stats.infra_msgs.fetch_add(1, Ordering::Relaxed);
        // ordering: statistics counter; staleness is acceptable.
        self.stats.refill_rounds.fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed RMW gives unique generations; round ordering comes from the publish path, not this counter.
        let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        let geo = Arc::clone(self.aggmap.geometry());
        let mut cursors = self.cursors.lock();
        let mut all_buckets = Vec::new();
        let mut built = 0usize;
        for g in geo.raid_groups() {
            let cursor = &mut cursors[g.id.0 as usize];
            let width = g.width() as usize;
            // Gather one chunk per drive, advancing to fresh AAs as
            // needed. A drive may contribute nothing if the group is out
            // of space.
            let mut per_drive: Vec<Vec<Vbn>> = vec![Vec::new(); width];
            // A bucket is one contiguous run from a single AA (§IV-C): a
            // drive that already holds VBNs from an earlier AA never
            // splices a later AA into the same bucket (AA selection may
            // jump to a lower-numbered AA after frees, which would break
            // the ascending-contiguous invariant). Bounded by the AA
            // count: each inner failure advances the AA.
            let mut drive_aa: Vec<Option<AaId>> = vec![None; width];
            for _ in 0..=geo.aa_count(g.id) {
                let aa = match cursor.aa {
                    Some(aa) => aa,
                    None => match self.aggmap.select_aa(g.id) {
                        Some(aa) => {
                            // ordering: statistics counter; staleness is acceptable.
                            self.stats.aa_switches.fetch_add(1, Ordering::Relaxed);
                            let dbns = geo.aa_dbn_range(aa);
                            cursor.aa = Some(aa);
                            cursor.next_dbn = vec![dbns.start; width];
                            aa
                        }
                        None => break, // RAID group fully allocated.
                    },
                };
                let dbns = geo.aa_dbn_range(aa);
                let mut any_progress = false;
                for d in 0..width {
                    if drive_aa[d].is_some_and(|prev| prev != aa) {
                        continue; // this drive's bucket is AA-bound
                    }
                    let want = self.cfg.chunk_blocks - per_drive[d].len();
                    if want == 0 {
                        continue;
                    }
                    let got = self
                        .aggmap
                        .reserve_in_aa(aa, d as u32, cursor.next_dbn[d], want);
                    if let Some(last) = got.last() {
                        // Progress = one past the last reserved block.
                        let g_base = g.drive_vbn_range(d as u32).start;
                        cursor.next_dbn[d] = (last.0 - g_base) + 1;
                        any_progress = true;
                        drive_aa[d] = Some(aa);
                    } else {
                        cursor.next_dbn[d] = dbns.end;
                    }
                    per_drive[d].extend(got);
                }
                let filled = per_drive.iter().all(|v| v.len() >= self.cfg.chunk_blocks);
                let have_any = per_drive.iter().all(|v| !v.is_empty());
                let aa_done = cursor.next_dbn.iter().all(|&n| n >= dbns.end);
                if filled || (aa_done && have_any) {
                    if aa_done {
                        cursor.aa = None;
                    }
                    break;
                }
                if aa_done {
                    cursor.aa = None; // move on to the next AA
                    continue;
                }
                if !any_progress {
                    // Defensive: no fill and no AA completion should be
                    // impossible; avoid spinning.
                    break;
                }
            }
            let reserved: u64 = per_drive.iter().map(|v| v.len() as u64).sum();
            if reserved == 0 {
                continue;
            }
            self.stats
                .vbns_reserved
                // ordering: statistics counter; staleness is acceptable.
                .fetch_add(reserved, Ordering::Relaxed);
            let nonempty = per_drive.iter().filter(|v| !v.is_empty()).count();
            let tetris = Tetris::new(
                g.id,
                nonempty,
                Arc::clone(&self.io),
                Arc::clone(&self.stats),
            );
            for (d, vbns) in per_drive.into_iter().enumerate() {
                if vbns.is_empty() {
                    continue;
                }
                let aa = geo.aa_of(vbns[0]);
                let bucket = Bucket::new(
                    g.id,
                    d as u32,
                    g.data_drives[d],
                    aa,
                    vbns,
                    g.drive_vbn_range(d as u32).start,
                    Arc::clone(&tetris),
                    generation,
                );
                // ordering: statistics counter; staleness is acceptable.
                self.stats.buckets_filled.fetch_add(1, Ordering::Relaxed);
                built += 1;
                match self.cfg.reinsert {
                    ReinsertPolicy::Immediate => cache.insert(bucket),
                    ReinsertPolicy::Collective => all_buckets.push(bucket),
                }
            }
        }
        drop(cursors);
        if self.cfg.reinsert == ReinsertPolicy::Collective {
            obs::trace_instant!(obs::EventKind::InsertAll, all_buckets.len() as u64);
            cache.insert_all(all_buckets);
        }
        self.exhausted
            // ordering: Release — publishes the fill outcome this flag
            // summarizes; pairs-with: infra.exhausted.
            .store(built == 0 && cache.is_empty(), Ordering::Release);
        sp.set_arg(built as u64);
        built
    }

    /// Refill a single drive's bucket independently of its RAID-group
    /// peers — the [`ReinsertPolicy::Immediate`] alternative the paper
    /// argues against (§IV-D). The bucket gets a tetris of its own
    /// (outstanding = 1), so its write I/O covers only one drive's rows:
    /// drives drift apart and stripes are never complete. Returns `true`
    /// if a bucket was built.
    pub fn refill_drive(&self, rg: RaidGroupId, drive_in_rg: u32, cache: &BucketCache) -> bool {
        // ordering: statistics counter; staleness is acceptable.
        self.stats.infra_msgs.fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed RMW gives unique generations; round ordering comes from the publish path, not this counter.
        let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        let geo = Arc::clone(self.aggmap.geometry());
        let g = geo.raid_group(rg);
        let mut cursors = self.cursors.lock();
        let cursor = &mut cursors[rg.0 as usize];
        let mut vbns = Vec::new();
        for _ in 0..=geo.aa_count(rg) {
            let aa = match cursor.aa {
                Some(aa) => aa,
                None => match self.aggmap.select_aa(rg) {
                    Some(aa) => {
                        // ordering: statistics counter; staleness is acceptable.
                        self.stats.aa_switches.fetch_add(1, Ordering::Relaxed);
                        let dbns = geo.aa_dbn_range(aa);
                        cursor.aa = Some(aa);
                        cursor.next_dbn = vec![dbns.start; g.width() as usize];
                        aa
                    }
                    None => break,
                },
            };
            let dbns = geo.aa_dbn_range(aa);
            let want = self.cfg.chunk_blocks - vbns.len();
            let got = self.aggmap.reserve_in_aa(
                aa,
                drive_in_rg,
                cursor.next_dbn[drive_in_rg as usize],
                want,
            );
            if let Some(last) = got.last() {
                let base = g.drive_vbn_range(drive_in_rg).start;
                cursor.next_dbn[drive_in_rg as usize] = (last.0 - base) + 1;
            } else {
                cursor.next_dbn[drive_in_rg as usize] = dbns.end;
            }
            vbns.extend(got);
            if !vbns.is_empty() {
                // One AA per bucket (§IV-C): stop at the AA boundary even
                // if the bucket is short.
                break;
            }
            // This drive is out of space in the AA; only advance the AA
            // when *every* drive has drained it (other drives may lag).
            if cursor.next_dbn.iter().all(|&n| n >= dbns.end) {
                cursor.aa = None;
            } else {
                break;
            }
        }
        drop(cursors);
        if vbns.is_empty() {
            return false;
        }
        self.stats
            .vbns_reserved
            // ordering: statistics counter; staleness is acceptable.
            .fetch_add(vbns.len() as u64, Ordering::Relaxed);
        // ordering: statistics counter; staleness is acceptable.
        self.stats.buckets_filled.fetch_add(1, Ordering::Relaxed);
        let tetris = Tetris::new(rg, 1, Arc::clone(&self.io), Arc::clone(&self.stats));
        let aa = geo.aa_of(vbns[0]);
        let bucket = Bucket::new(
            rg,
            drive_in_rg,
            g.data_drives[drive_in_rg as usize],
            aa,
            vbns,
            g.drive_vbn_range(drive_in_rg).start,
            tetris,
            generation,
        );
        cache.insert(bucket);
        true
    }

    /// Step 6 of Figure 2: process a returned bucket — commit consumed
    /// VBNs to the metafiles, release unconsumed reservations. Wall time
    /// spent here accumulates into `commit_batch_ns` so the PUT-side
    /// commit funnel is measurable alongside the convoy gauge.
    pub fn commit_bucket(&self, fin: FinishedBucket) {
        let t0 = std::time::Instant::now();
        let _sp = obs::trace_span!(obs::EventKind::CommitBucket, fin.consumed.len() as u64);
        // ordering: statistics counter; staleness is acceptable.
        self.stats.infra_msgs.fetch_add(1, Ordering::Relaxed);
        for v in &fin.consumed {
            self.aggmap
                .commit_used(*v)
                .expect("consumed VBN must be reserved");
        }
        for v in &fin.unused {
            self.aggmap
                .release(*v)
                .expect("unused VBN must be reserved");
        }
        self.stats
            .vbns_committed
            // ordering: statistics counter; staleness is acceptable.
            .fetch_add(fin.consumed.len() as u64, Ordering::Relaxed);
        self.stats
            .vbns_released
            // ordering: statistics counter; staleness is acceptable.
            .fetch_add(fin.unused.len() as u64, Ordering::Relaxed);
        self.stats
            .commit_batch_ns
            // ordering: statistics counter; staleness is acceptable.
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Commit a stage of frees to the metafiles (§IV-A's free path).
    pub fn commit_frees(&self, vbns: Vec<Vbn>) {
        let _sp = obs::trace_span!(obs::EventKind::StageCommit, vbns.len() as u64);
        // ordering: statistics counter; staleness is acceptable.
        self.stats.infra_msgs.fetch_add(1, Ordering::Relaxed);
        // ordering: statistics counter; staleness is acceptable.
        self.stats.stage_commits.fetch_add(1, Ordering::Relaxed);
        for v in &vbns {
            self.aggmap.free(*v).expect("double free");
        }
        self.stats
            .vbns_freed
            // ordering: statistics counter; staleness is acceptable.
            .fetch_add(vbns.len() as u64, Ordering::Relaxed);
        // ordering: Release — reopen only after the new free space is
        // published; pairs-with: infra.exhausted.
        self.exhausted.store(false, Ordering::Release);
    }

    /// The metafile block (of the aggregate active map) that a refill for
    /// this RAID group will touch next — used to pick the Range affinity
    /// for the message.
    pub fn refill_mf_block(&self, rg: RaidGroupId) -> u64 {
        let cursors = self.cursors.lock();
        let c = &cursors[rg.0 as usize];
        let geo = self.aggmap.geometry();
        let g = geo.raid_group(rg);
        let dbn = c.next_dbn.first().copied().unwrap_or(0);
        let vbn = g.vbn_base + dbn;
        vbn / wafl_metafile::BITS_PER_MF_BLOCK
    }
}

impl std::fmt::Debug for Infrastructure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Infrastructure")
            .field("free", &self.aggmap.free_count())
            .field("exhausted", &self.is_exhausted())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wafl_blockdev::{AioEngine, DriveKind, GeometryBuilder};

    /// An infrastructure and an empty cache, and the async engine the
    /// infrastructure's stripes go through.
    fn setup(chunk: usize) -> (Arc<Infrastructure>, BucketCache, Arc<AioEngine>) {
        let geo = Arc::new(
            GeometryBuilder::new()
                .aa_stripes(64)
                .raid_group(3, 1, 256)
                .raid_group(2, 1, 256)
                .build(),
        );
        let aggmap = Arc::new(AggregateMap::new(Arc::clone(&geo)));
        let io = Arc::new(IoEngine::new(geo, DriveKind::Ssd));
        let aio = AioEngine::new(Arc::clone(&io), 8);
        let infra = Infrastructure::new(
            AllocConfig::with_chunk(chunk),
            aggmap,
            io,
            Arc::new(AllocStats::default()),
        );
        (infra, BucketCache::new(), aio)
    }

    #[test]
    fn refill_builds_one_bucket_per_drive() {
        let (infra, cache, _aio) = setup(16);
        let n = infra.refill_round(&cache);
        assert_eq!(n, 5, "3 + 2 data drives");
        assert_eq!(cache.len(), 5);
        let b = cache.try_get().unwrap();
        assert_eq!(b.len(), 16);
        assert!(b.is_contiguous(), "fresh AA yields contiguous chunks");
    }

    #[test]
    fn buckets_start_at_top_of_emptiest_aa() {
        let (infra, cache, _aio) = setup(8);
        infra.refill_round(&cache);
        // All AAs equally free → AA 0 → buckets start at each drive's
        // VBN base.
        let starts: Vec<u64> = (0..5)
            .map(|_| cache.try_get().unwrap().start_vbn().0)
            .collect();
        assert!(starts.contains(&0));
        assert!(starts.contains(&256));
        assert!(starts.contains(&512));
        assert!(starts.contains(&768)); // RG1 drive 0
        assert!(starts.contains(&1024));
    }

    #[test]
    fn successive_refills_advance_equally_per_drive() {
        let (infra, cache, _aio) = setup(8);
        infra.refill_round(&cache);
        while cache.try_get().is_some() {}
        infra.refill_round(&cache);
        let mut starts: Vec<u64> = Vec::new();
        while let Some(b) = cache.try_get() {
            starts.push(b.start_vbn().0);
        }
        starts.sort_unstable();
        // Every drive progressed by exactly one chunk (8): invariant 7.
        assert_eq!(starts, vec![8, 264, 520, 776, 1032]);
    }

    #[test]
    fn aa_switch_when_exhausted() {
        let (infra, cache, _aio) = setup(64); // one AA per refill (64 stripes)
        infra.refill_round(&cache);
        // ordering: statistics counter; staleness is acceptable.
        let before = infra.stats().aa_switches.load(Ordering::Relaxed);
        while cache.try_get().is_some() {}
        infra.refill_round(&cache);
        // ordering: statistics counter; staleness is acceptable.
        let after = infra.stats().aa_switches.load(Ordering::Relaxed);
        assert!(after > before, "second refill had to select a new AA");
        // AA selection prefers untouched AAs (most free).
        let b = cache.try_get().unwrap();
        assert_eq!(b.aa().index, 1);
    }

    #[test]
    fn commit_bucket_updates_metafiles() {
        let (infra, cache, _aio) = setup(8);
        infra.refill_round(&cache);
        let mut b = cache.try_get().unwrap();
        let v1 = b.use_vbn(0x1).unwrap();
        let v2 = b.use_vbn(0x2).unwrap();
        let fin = b.finish();
        assert_eq!(fin.consumed, vec![v1, v2]);
        infra.commit_bucket(fin);
        let am = infra.aggmap();
        assert!(am.is_used(v1));
        assert!(am.is_used(v2));
        assert_eq!(am.active_map().dirty_block_count(), 1);
        // Unused releases went back to free.
        let s = infra.stats().snapshot();
        assert_eq!(s.vbns_committed, 2);
        assert_eq!(s.vbns_released, 6);
    }

    #[test]
    fn commit_frees_restores_space() {
        let (infra, cache, _aio) = setup(8);
        infra.refill_round(&cache);
        let mut b = cache.try_get().unwrap();
        let v = b.use_vbn(0x9).unwrap();
        infra.commit_bucket(b.finish());
        let free_before = infra.aggmap().free_count();
        infra.commit_frees(vec![v]);
        assert_eq!(infra.aggmap().free_count(), free_before + 1);
        assert!(!infra.aggmap().is_used(v));
    }

    #[test]
    fn exhaustion_detected_and_recovers_after_frees() {
        let geo = Arc::new(
            GeometryBuilder::new()
                .aa_stripes(8)
                .raid_group(1, 1, 16)
                .build(),
        );
        let aggmap = Arc::new(AggregateMap::new(Arc::clone(&geo)));
        let io = Arc::new(IoEngine::new(geo, DriveKind::Ssd));
        let _aio = AioEngine::new(Arc::clone(&io), 8);
        let infra = Infrastructure::new(
            AllocConfig::with_chunk(16),
            aggmap,
            io,
            Arc::new(AllocStats::default()),
        );
        let cache = BucketCache::new();
        // Buckets are AA-bound (8 stripes): drain the 16-block drive
        // across however many refill rounds that takes.
        let mut used = Vec::new();
        loop {
            if cache.is_empty() && infra.refill_round(&cache) == 0 {
                break;
            }
            let mut b = cache.try_get().unwrap();
            while let Some(v) = b.use_vbn(1) {
                used.push(v);
            }
            infra.commit_bucket(b.finish());
        }
        assert_eq!(used.len(), 16, "every block consumed");
        assert!(infra.is_exhausted());
        infra.commit_frees(used);
        assert!(!infra.is_exhausted());
        assert!(infra.refill_round(&cache) >= 1);
    }

    #[test]
    fn consumed_vbns_survive_metafile_consistency_check() {
        let (infra, cache, _aio) = setup(32);
        for _ in 0..3 {
            infra.refill_round(&cache);
            while let Some(mut b) = cache.try_get() {
                while b.use_vbn(7).is_some() {}
                infra.commit_bucket(b.finish());
            }
        }
        infra.aggmap().verify().unwrap();
        let s = infra.stats().snapshot();
        s.check_conservation(0).unwrap();
    }
}
