//! Consistency points: WAFL's atomic batch-commit of dirty state.
//!
//! "WAFL accumulates and flushes thousands of operations worth of data to
//! persistent storage … Writing a consistent collection of changes as a
//! single transaction in WAFL is known as a consistency point … The
//! primary function of a CP is to flush changed state — i.e., all dirty
//! buffers — from each dirty inode to persistent storage, which is known
//! as inode cleaning … Once all dirty inodes for files and metafiles have
//! been cleaned, the newly written data is atomically persisted by
//! overwriting the superblock in place" (§II-C).
//!
//! The phases implemented by [`run_cp`]:
//!
//! 1. **freeze** — swap the NVLog halves and atomically take every dirty
//!    inode's CP workload (in-memory COW boundary);
//! 2. **clean** — partition into cleaner messages (region split +
//!    batching) and run them on the [`CleanerPool`];
//! 3. **apply** — install cleaned block locations into the inodes;
//! 4. **metafile flush** — the allocation metafiles dirtied by this CP's
//!    commits and frees are themselves write-allocated and written, to a
//!    bounded fix-point ("any metafile updates made on behalf of a CP
//!    must reach persistent storage as part of that same CP"). Allocating
//!    a bitmap block's new location dirties the bitmap again, so a true
//!    fix-point never closes; after [`METAFILE_FIXPOINT_MAX`] rounds the
//!    residual blocks are written in place at their previous locations
//!    (first-time blocks take one final allocation whose bitmap dirt is
//!    dropped, counted in [`CpReport::residual_dirty_dropped`]);
//! 5. **commit** — wait for the CP's writes (5a, the barrier), then
//!    overwrite the superblock in place and discard the in-flight NVLog
//!    half (5b). Because the file system is copy-on-write a CP persists
//!    only what changed, and so does the commit: the committed
//!    [`DiskImage`] is kept and *updated* with this CP's delta — the
//!    cleaned lists of phase 3, the files whose block maps changed in a
//!    way no cleaned list describes (created, truncated, deleted: copied
//!    or dropped whole), new volumes, the snapshot lists — at a cost of
//!    O(buffers cleaned), not O(blocks in the file system). Invariant:
//!    after every committed CP the image equals one rebuilt from every
//!    live inode's block map. Readers are point-in-time: a handle from
//!    [`SuperblockStore::load`] never changes under its holder. See
//!    [`SuperblockStore`] and DESIGN.md §7½ "Superblock as logical
//!    snapshot".

use crate::buffer::CleanedBlock;
use crate::cleaner::{partition_work, CleanResult, CleanerPool};
use crate::config::FsConfig;
use crate::inode::{BlockMap, FileId};
use crate::nvlog::NvLog;
use crate::snapshot::Snapshot;
use crate::volume::{Volume, VolumeId};
use alligator::Allocator;
use parking_lot::Mutex;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Arc;
use wafl_blockdev::Vbn;

/// Identifies the owner of a metafile block: the aggregate's active map,
/// or a volume's VVBN map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum MetafileSrc {
    /// The aggregate active map / AA metadata.
    Aggregate,
    /// A volume's VVBN active map.
    Volume(VolumeId),
}

/// On-disk locations of metafile blocks (metafiles are files too and are
/// written copy-on-write like everything else).
#[derive(Debug)]
pub struct MetafileLocs {
    locs: Mutex<BTreeMap<(MetafileSrc, u64), Vbn>>,
}

impl Default for MetafileLocs {
    fn default() -> Self {
        Self::restore(&[])
    }
}

impl MetafileLocs {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current location of a metafile block.
    pub fn get(&self, src: MetafileSrc, block: u64) -> Option<Vbn> {
        self.locs.lock().get(&(src, block)).copied()
    }

    /// Record a new location; returns the previous one (to free).
    pub fn set(&self, src: MetafileSrc, block: u64, vbn: Vbn) -> Option<Vbn> {
        self.locs.lock().insert((src, block), vbn)
    }

    /// Snapshot for the superblock image.
    pub fn snapshot(&self) -> Vec<((MetafileSrc, u64), Vbn)> {
        self.locs.lock().iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// Restore from a superblock image.
    pub fn restore(entries: &[((MetafileSrc, u64), Vbn)]) -> Self {
        Self {
            locs: Mutex::ranked(entries.iter().copied().collect(), "cp.locs", 20),
        }
    }

    /// Number of located metafile blocks.
    pub fn len(&self) -> usize {
        self.locs.lock().len()
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.locs.lock().is_empty()
    }
}

/// The point-in-time on-disk image committed by a CP: what the superblock
/// roots. (Real WAFL serializes this state into metafile/inodefile blocks;
/// the simulation snapshots it logically — see DESIGN.md §3.)
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiskImage {
    /// CP sequence number.
    pub cp_id: u64,
    /// Per-volume file system trees, ascending by volume id.
    pub volumes: Vec<VolumeImage>,
    /// Metafile block locations.
    pub metafile_locs: Vec<((MetafileSrc, u64), Vbn)>,
}

/// One volume's committed state.
#[derive(Debug, Clone, PartialEq)]
pub struct VolumeImage {
    /// Volume id.
    pub id: VolumeId,
    /// Housing aggregate index.
    pub aggr: u32,
    /// VVBN space size.
    pub vvbn_total: u64,
    /// Every file with its committed block map.
    pub files: BTreeMap<FileId, BlockMap>,
    /// Retained snapshots (part of the on-disk state: a snapshot is a
    /// kept CP image). Shared with the volume's [`crate::SnapshotSet`]:
    /// a snapshot never changes once taken.
    pub snapshots: Vec<Arc<Snapshot>>,
}

/// Install one cleaner result into a committed file map.
fn install_cleaned(map: &mut BlockMap, cleaned: &[CleanedBlock]) {
    for c in cleaned {
        map.insert(c.fbn, c.into());
    }
}

/// The superblock slot: the committed image, updated in place by each CP.
#[derive(Debug)]
pub struct SuperblockStore {
    image: Mutex<Option<Arc<DiskImage>>>,
}

impl Default for SuperblockStore {
    fn default() -> Self {
        Self {
            image: Mutex::ranked(None, "cp.image", 12),
        }
    }
}

impl SuperblockStore {
    /// Empty store (no CP committed yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Root an image that already exists (recovery: the superblock lives
    /// on persistent storage, so the recovered instance roots the very
    /// image it was recovered from).
    pub fn install(&self, image: Arc<DiskImage>) {
        *self.image.lock() = Some(image);
    }

    /// The most recently committed image. The returned handle is a
    /// point-in-time copy: later CPs never change what it shows.
    pub fn load(&self) -> Option<Arc<DiskImage>> {
        self.image.lock().clone()
    }

    /// The commit point: bring the committed image up to this CP by
    /// applying what the CP changed — the cleaner results phase 3
    /// installed in the inodes, each volume's restructured files (created,
    /// truncated or deleted since the previous commit; re-copied or
    /// dropped whole), volumes that appeared, the snapshot lists and the
    /// metafile locations. Cost is O(buffers cleaned + blocks of
    /// restructured files), not O(blocks in the file system).
    ///
    /// Invariant: afterwards the image equals one rebuilt from every live
    /// inode's block map. A reader still holding an earlier
    /// [`SuperblockStore::load`] keeps its image ([`Arc::make_mut`] copies
    /// first in that case); with no reader the update is in place.
    fn commit_delta(
        &self,
        cp_id: u64,
        volumes: &[Arc<Volume>],
        results: &[CleanResult],
        metafile_locs: Vec<((MetafileSrc, u64), Vbn)>,
    ) {
        let mut slot = self.image.lock();
        let image = Arc::make_mut(slot.get_or_insert_with(Arc::default));
        image.cp_id = cp_id;
        image.metafile_locs = metafile_locs;
        // `volumes` ascends by id and volumes are never removed, so the
        // image's volumes are a sorted subset: once index `i` is visited
        // it holds volume `volumes[i]` on both sides.
        let mut restructured = Vec::with_capacity(volumes.len());
        for (i, v) in volumes.iter().enumerate() {
            if image.volumes.get(i).map(|vi| vi.id) != Some(v.id()) {
                image.volumes.insert(
                    i,
                    VolumeImage {
                        id: v.id(),
                        aggr: v.aggr(),
                        vvbn_total: v.vvbn().total(),
                        files: BTreeMap::new(),
                        snapshots: Vec::new(),
                    },
                );
            }
            let vi = &mut image.volumes[i];
            vi.snapshots = v.snapshots().list();
            let files = v.take_restructured();
            for &f in &files {
                match v.inode(f) {
                    Some(inode) => {
                        let inode = inode.lock();
                        vi.files.insert(f, inode.block_map().clone());
                    }
                    None => {
                        vi.files.remove(&f);
                    }
                }
            }
            restructured.push(files);
        }
        for r in results {
            let i = image
                .volumes
                .binary_search_by_key(&r.vol, |vi| vi.id)
                .expect("cleaned volume is live");
            // Restructured files were copied whole above.
            if !restructured[i].contains(&r.file) {
                let map = image.volumes[i].files.entry(r.file).or_default();
                install_cleaned(map, &r.cleaned);
            }
        }
    }
}

/// A point inside the CP pipeline where an injected crash fires, for
/// recovery testing. Every point precedes the superblock commit, so a
/// crashed CP must be equivalent to *no* CP at all once the NVRAM log is
/// replayed (§II-C: "If the system crashes before the superblock is
/// written, the file system state from the most recently completed CP is
/// loaded and all subsequent operations are replayed").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CrashPoint {
    /// After the NVLog/inode freeze, before any cleaning.
    AfterFreeze,
    /// After cleaner messages ran (data blocks may be on media).
    AfterClean,
    /// After cleaned locations were installed in the inodes and the
    /// in-flight tetrises were completed.
    AfterApply,
    /// After the metafile fix-point flush — one step short of the
    /// superblock commit.
    AfterMetafileFlush,
}

impl CrashPoint {
    /// All crash points, in pipeline order.
    pub const ALL: [CrashPoint; 4] = [
        CrashPoint::AfterFreeze,
        CrashPoint::AfterClean,
        CrashPoint::AfterApply,
        CrashPoint::AfterMetafileFlush,
    ];
}

/// What one CP did (returned by [`run_cp`]).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct CpReport {
    /// CP sequence number.
    pub cp_id: u64,
    /// Dirty inodes cleaned.
    pub inodes_cleaned: usize,
    /// Dirty buffers cleaned (user data blocks written).
    pub buffers_cleaned: usize,
    /// Cleaner messages dispatched (after batching / region split).
    pub cleaner_messages: usize,
    /// Metafile blocks written by the flush phase.
    pub metafile_blocks_written: usize,
    /// Fix-point rounds used by the metafile flush.
    pub fixpoint_rounds: usize,
    /// Dirty metafile blocks whose re-dirt was dropped at the bound.
    pub residual_dirty_dropped: usize,
    /// Phase 1 wall time (NVLog/inode freeze).
    pub freeze_ns: u64,
    /// Phase 2 wall time (cleaner fan-out, tetris stripe fill,
    /// async-write submission).
    pub clean_ns: u64,
    /// Phase 3 wall time (install cleaned locations, complete
    /// in-flight tetrises).
    pub apply_ns: u64,
    /// Phase 4 wall time (metafile fix-point flush).
    pub metafile_ns: u64,
    /// Phase 5a wall time (async-I/O drain / media fsync barrier).
    pub barrier_ns: u64,
    /// Phase 5b wall time (delta commit of the superblock image +
    /// NVLog half-swap).
    pub commit_ns: u64,
    /// Whole-CP wall time, measured around all phases. The per-phase
    /// times are nested inside this span, so
    /// `phase_ns().iter().sum() <= total_ns`; the gap is the (tiny)
    /// inter-phase bookkeeping, which `cp_units` bounds at ≤ 5 %.
    pub total_ns: u64,
}

/// Profiler names of the CP phases, index-aligned with
/// [`CpReport::phase_ns`]. Phase 5 is split at its two very different
/// costs: the I/O `barrier` (scales with queue depth and device speed)
/// and the in-memory image `commit`. A traced build records one
/// `obs::EventKind::CpPhase` span per entry, its `arg` the 1-based index.
pub const CP_PHASE_NAMES: [&str; 6] = ["freeze", "clean", "apply", "metafile", "barrier", "commit"];

impl CpReport {
    /// Per-phase wall times, index-aligned with [`CP_PHASE_NAMES`].
    pub fn phase_ns(&self) -> [u64; 6] {
        [
            self.freeze_ns,
            self.clean_ns,
            self.apply_ns,
            self.metafile_ns,
            self.barrier_ns,
            self.commit_ns,
        ]
    }
}

/// Execute one consistency point. See the module docs for phases.
///
/// `cp_id` must increase monotonically across calls.
#[allow(clippy::too_many_arguments)]
pub fn run_cp(
    cp_id: u64,
    cfg: &FsConfig,
    volumes: &[Arc<Volume>],
    nvlog: &NvLog,
    alloc: &Arc<Allocator>,
    pool: &CleanerPool,
    mf_locs: &MetafileLocs,
    sb: &SuperblockStore,
) -> CpReport {
    run_cp_inner(cp_id, cfg, volumes, nvlog, alloc, pool, mf_locs, sb, None)
        .expect("CP without an injected crash always commits")
}

/// [`run_cp`] with a crash injected at `crash_at`: the CP is abandoned at
/// that point and `None` is returned. The superblock is *not* committed
/// and the NVLog's in-flight half is *not* discarded, exactly as a real
/// crash would leave them; the caller is expected to drop the instance
/// and recover (e.g. [`crate::Filesystem::crash_and_recover`]).
#[allow(clippy::too_many_arguments)]
pub fn run_cp_crash_at(
    cp_id: u64,
    cfg: &FsConfig,
    volumes: &[Arc<Volume>],
    nvlog: &NvLog,
    alloc: &Arc<Allocator>,
    pool: &CleanerPool,
    mf_locs: &MetafileLocs,
    sb: &SuperblockStore,
    crash_at: CrashPoint,
) -> Option<CpReport> {
    run_cp_inner(
        cp_id,
        cfg,
        volumes,
        nvlog,
        alloc,
        pool,
        mf_locs,
        sb,
        Some(crash_at),
    )
}

#[allow(clippy::too_many_arguments)]
fn run_cp_inner(
    cp_id: u64,
    cfg: &FsConfig,
    volumes: &[Arc<Volume>],
    nvlog: &NvLog,
    alloc: &Arc<Allocator>,
    pool: &CleanerPool,
    mf_locs: &MetafileLocs,
    sb: &SuperblockStore,
    crash_at: Option<CrashPoint>,
) -> Option<CpReport> {
    let mut report = CpReport {
        cp_id,
        ..Default::default()
    };
    let cp_t0 = std::time::Instant::now();

    // Phase 1: freeze.
    let t0 = std::time::Instant::now();
    let sp1 = obs::trace_span!(obs::EventKind::CpPhase, 1);
    nvlog.freeze();
    let mut frozen = Vec::new();
    for v in volumes {
        for (file, buffers) in v.freeze_for_cp() {
            frozen.push((Arc::clone(v), file, buffers));
        }
    }
    report.inodes_cleaned = frozen.len();
    report.buffers_cleaned = frozen.iter().map(|(_, _, b)| b.len()).sum();
    drop(sp1);
    report.freeze_ns = t0.elapsed().as_nanos() as u64;
    if crash_at == Some(CrashPoint::AfterFreeze) {
        alloc.infra().io().crash();
        return None;
    }

    // Phase 2: clean. Each completed tetris is only *submitted* here —
    // its media write overlaps the cleaning (and parity computation) of
    // the stripes after it.
    let t0 = std::time::Instant::now();
    let sp2 = obs::trace_span!(obs::EventKind::CpPhase, 2);
    let items = partition_work(frozen, &cfg.cleaner);
    report.cleaner_messages = items.len();
    let results = pool.clean_all(items);
    // Errors are accounted per completion here, not per submission.
    alloc.infra().harvest_io();
    drop(sp2);
    report.clean_ns = t0.elapsed().as_nanos() as u64;
    if crash_at == Some(CrashPoint::AfterClean) {
        alloc.infra().io().crash();
        return None;
    }

    // Phase 3: apply cleaned locations.
    let t0 = std::time::Instant::now();
    let sp3 = obs::trace_span!(obs::EventKind::CpPhase, 3);
    let by_vol: BTreeMap<VolumeId, &Arc<Volume>> = volumes.iter().map(|v| (v.id(), v)).collect();
    for r in &results {
        let vol = by_vol[&r.vol];
        if let Some(inode) = vol.inode(r.file) {
            inode.lock().apply_cleaned(&r.cleaned);
        }
    }
    // All bucket commits and staged frees must reach the metafiles before
    // we flush them, and every partially filled tetris must be completed
    // so the CP's data is on disk before the superblock commit: buckets
    // still sitting in the cache are returned unused, which finishes
    // their tetrises (WAFL's CP-end flush of the partial write I/O).
    flush_bucket_cache(alloc);
    alloc.infra().harvest_io();
    drop(sp3);
    report.apply_ns = t0.elapsed().as_nanos() as u64;
    if crash_at == Some(CrashPoint::AfterApply) {
        alloc.infra().io().crash();
        return None;
    }

    // Phase 4: metafile flush (bounded fix-point).
    let t0 = std::time::Instant::now();
    let sp4 = obs::trace_span!(obs::EventKind::CpPhase, 4);
    flush_metafiles(volumes, alloc, mf_locs, cp_id, &mut report);
    // The metafile flush allocated through buckets of its own; complete
    // those tetrises too.
    flush_bucket_cache(alloc);
    drop(sp4);
    report.metafile_ns = t0.elapsed().as_nanos() as u64;
    if crash_at == Some(CrashPoint::AfterMetafileFlush) {
        alloc.infra().io().crash();
        return None;
    }

    // Phase 5: superblock commit. This is the CP's one durability
    // barrier: every stripe submitted during phases 2–4 must be on media
    // (and the file backend fsynced) before the superblock can root the
    // new image. Until this point nothing waited on in-flight writes.
    // The profiler splits it at the barrier: `barrier_ns` is where a
    // deep I/O queue pays (or hides) its debt, `commit_ns` is the
    // in-memory update of the committed image.
    let t0 = std::time::Instant::now();
    let sp5 = obs::trace_span!(obs::EventKind::CpPhase, 5);
    alloc.infra().drain_io();
    report.barrier_ns = t0.elapsed().as_nanos() as u64;
    drop(sp5);
    let t0 = std::time::Instant::now();
    let _sp6 = obs::trace_span!(obs::EventKind::CpPhase, 6);
    sb.commit_delta(cp_id, volumes, &results, mf_locs.snapshot());
    nvlog.commit_cp();
    report.commit_ns = t0.elapsed().as_nanos() as u64;
    report.total_ns = cp_t0.elapsed().as_nanos() as u64;
    Some(report)
}

/// Complete all in-flight tetrises by returning every cached bucket
/// unused. Their reserved VBNs are released (no metafile dirt), and each
/// tetris's outstanding count reaches zero, sending the write I/O.
fn flush_bucket_cache(alloc: &Arc<Allocator>) {
    // `flush_cache` retires buckets (no Immediate-mode re-refill), so
    // this terminates under either reinsertion policy.
    alloc.flush_cache();
}

/// Metafile-flush fix-point rounds before the CP writes the remaining
/// dirty metafile blocks in place (module docs, phase 4).
pub const METAFILE_FIXPOINT_MAX: usize = 4;

/// Phase 4: write-allocate and write every dirty metafile block.
fn flush_metafiles(
    volumes: &[Arc<Volume>],
    alloc: &Arc<Allocator>,
    mf_locs: &MetafileLocs,
    cp_id: u64,
    report: &mut CpReport,
) {
    /// Distinguished file-id namespace for metafile stamps ("META").
    const MF_STAMP_NS: u64 = 0x4D45_5441;

    let take_dirty = |volumes: &[Arc<Volume>]| -> Vec<(MetafileSrc, u64)> {
        let mut out: Vec<(MetafileSrc, u64)> = alloc
            .infra()
            .aggmap()
            .take_dirty_blocks()
            .into_iter()
            .map(|b| (MetafileSrc::Aggregate, b))
            .collect();
        for v in volumes {
            out.extend(
                v.vvbn()
                    .take_dirty_blocks()
                    .into_iter()
                    .map(|b| (MetafileSrc::Volume(v.id()), b)),
            );
        }
        out
    };

    let io = Arc::clone(alloc.infra().io());
    let mut bucket = None;
    let mut stage = alloc.new_stage();
    for round in 0..METAFILE_FIXPOINT_MAX {
        let dirty = take_dirty(volumes);
        if dirty.is_empty() {
            break;
        }
        report.fixpoint_rounds = round + 1;
        let last_round = round + 1 == METAFILE_FIXPOINT_MAX;
        for (src, block) in dirty {
            let stamp_src = match src {
                MetafileSrc::Aggregate => MF_STAMP_NS,
                MetafileSrc::Volume(v) => MF_STAMP_NS ^ (1 + v.0 as u64),
            };
            let stamp = wafl_blockdev::stamp(stamp_src, block, cp_id);
            let prev = mf_locs.get(src, block);
            if last_round {
                // Bound reached: write in place (or allocate once for a
                // block that has never had a location, dropping the
                // resulting bitmap dirt after the loop).
                match prev {
                    Some(vbn) => {
                        // Blocks written via alloc_one reach disk through
                        // the bucket's tetris at PUT; in-place rewrites
                        // need a direct write.
                        // An in-place metafile rewrite that fails
                        // terminally (e.g. a double drive failure) leaves
                        // the CP unable to meet its durability contract;
                        // halt the aggregate rather than commit a
                        // superblock rooting unwritten metadata.
                        io.write_vbn(vbn, stamp)
                            .expect("CP metafile in-place write failed unrecoverably");
                        report.metafile_blocks_written += 1;
                    }
                    None => {
                        if let Some(vbn) = alloc_one(alloc, &mut bucket, stamp) {
                            mf_locs.set(src, block, vbn);
                            report.metafile_blocks_written += 1;
                        }
                    }
                }
            } else {
                // Copy-on-write: new location, free the old. The data
                // itself reaches disk through the bucket's tetris.
                if let Some(vbn) = alloc_one(alloc, &mut bucket, stamp) {
                    if let Some(old) = mf_locs.set(src, block, vbn) {
                        alloc.free_vbn(&mut stage, old);
                    }
                    report.metafile_blocks_written += 1;
                }
            }
        }
        // Settle this round's allocations so the next round sees the
        // metafile dirt they produced — otherwise the fix-point
        // terminates vacuously after one round and bitmap updates leak
        // into the next CP.
        if let Some(b) = bucket.take() {
            alloc.put_bucket(b);
        }
        alloc.flush_stage(&mut stage);
        alloc.drain();
        if last_round {
            // Drop residual dirt produced by the in-place round's
            // first-time allocations.
            let residual = take_dirty(volumes);
            report.residual_dirty_dropped += residual.len();
            return;
        }
    }
}

/// Allocate a single VBN through the bucket API (metafile cleaning uses
/// the same allocator as user data).
fn alloc_one(
    alloc: &Arc<Allocator>,
    bucket: &mut Option<alligator::Bucket>,
    stamp: wafl_blockdev::BlockStamp,
) -> Option<Vbn> {
    loop {
        if let Some(b) = bucket.as_mut() {
            if let Some(v) = b.use_vbn(stamp) {
                return Some(v);
            }
        }
        if let Some(old) = bucket.take() {
            alloc.put_bucket(old);
        }
        *bucket = Some(alloc.get_bucket()?);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inode::Inode;

    fn cleaned(fbn: u64, generation: u64) -> CleanedBlock {
        CleanedBlock {
            fbn,
            vvbn: generation * 1000 + fbn % 1000,
            pvbn: Vbn(generation * 1000 + fbn % 1000),
            stamp: wafl_blockdev::stamp(1, fbn, generation),
        }
    }

    /// Installing the lists in the image's map leaves what an inode holds
    /// after the same lists were applied to it.
    fn check(lists: &[Vec<CleanedBlock>]) {
        let mut map = BlockMap::default();
        let mut inode = Inode::new(FileId(1));
        for l in lists {
            install_cleaned(&mut map, l);
            inode.apply_cleaned(l);
        }
        assert_eq!(&map, inode.block_map());
    }

    #[test]
    fn install_cleaned_matches_the_inode_map() {
        let run = |fbns: std::ops::Range<u64>, g| fbns.map(|f| cleaned(f, g)).collect::<Vec<_>>();
        // Dense file: append, then overwrite.
        check(&[run(0..8, 1), run(2..5, 2), run(8..12, 3)]);
        // Region-split lists of one new file landing out of order, across
        // a page boundary.
        check(&[run(60..70, 1), run(0..60, 1), run(4..66, 2)]);
        // Holes, and a page far from the others.
        check(&[
            vec![cleaned(3, 1), cleaned(9, 1), cleaned(1 << 40, 1)],
            vec![cleaned(9, 2), cleaned(1 << 40, 2)],
            vec![cleaned(0, 3), cleaned(5, 3), cleaned((1 << 40) + 1, 3)],
        ]);
    }

    #[test]
    fn file_deleted_while_its_cp_is_in_flight_leaves_the_image() {
        let vol = Volume::new(VolumeId(0), 0, 1 << 14);
        let sb = SuperblockStore::new();
        let commit = |cp_id, results: &[CleanResult]| {
            sb.commit_delta(cp_id, std::slice::from_ref(&vol), results, Vec::new());
            sb.load().expect("committed")
        };
        let result = |file: u64, fbns: std::ops::Range<u64>, g| {
            let mut cleaned: Vec<_> = fbns.map(|f| cleaned(f, g)).collect();
            for c in &mut cleaned {
                c.vvbn += file * 100;
                vol.vvbn().adopt(c.vvbn);
            }
            CleanResult {
                vol: VolumeId(0),
                file: FileId(file),
                cleaned,
            }
        };
        for f in [1, 2] {
            vol.create_file(FileId(f));
            vol.write(FileId(f), 0, 0xA);
        }
        // CP 1: both files frozen and cleaned; file 1 is deleted before
        // phase 3, so its result is never applied to an inode.
        vol.freeze_for_cp();
        vol.delete_file(FileId(1));
        let r2 = result(2, 0..1, 1);
        vol.inode(FileId(2))
            .unwrap()
            .lock()
            .apply_cleaned(&r2.cleaned);
        let image = commit(1, &[result(1, 0..1, 1), r2]);
        let files: Vec<FileId> = image.volumes[0].files.keys().copied().collect();
        assert_eq!(files, [FileId(2)]);
        drop(image);
        // CP 2: deleted after a commit that rooted it, then re-created
        // and cleaned within one CP — the live inode wins.
        vol.delete_file(FileId(2));
        vol.create_file(FileId(2));
        let r2 = result(2, 4..6, 2);
        vol.inode(FileId(2))
            .unwrap()
            .lock()
            .apply_cleaned(&r2.cleaned);
        let image = commit(2, &[r2]);
        let fbns: Vec<u64> = image.volumes[0].files[&FileId(2)]
            .iter()
            .map(|e| e.0)
            .collect();
        assert_eq!(fbns, [4, 5]);
    }
}
