//! [`Filesystem`] — the public facade: aggregate + volumes + NVLog + CP.
//!
//! This is the object a downstream user (and the examples, integration
//! tests, and the simulator's real-thread mode) programs against:
//!
//! ```
//! use wafl::{Filesystem, FsConfig, ExecMode, FileId, VolumeId};
//! use wafl_blockdev::{DriveKind, GeometryBuilder};
//!
//! let fs = Filesystem::new(
//!     FsConfig::default(),
//!     GeometryBuilder::new().aa_stripes(64).raid_group(3, 1, 4096).build(),
//!     DriveKind::Ssd,
//!     ExecMode::Inline,
//! );
//! fs.create_volume(VolumeId(0));
//! fs.create_file(VolumeId(0), FileId(1));
//! fs.write(VolumeId(0), FileId(1), 0, 0xfeed);
//! let report = fs.run_cp();
//! assert_eq!(report.buffers_cleaned, 1);
//! assert_eq!(fs.read_persisted(VolumeId(0), FileId(1), 0), Some(0xfeed));
//! ```

use crate::cleaner::CleanerPool;
use crate::config::FsConfig;
use crate::cp::{self, CpReport, CrashPoint, DiskImage, MetafileLocs, SuperblockStore};
use crate::inode::{BlockPtr, FileId};
use crate::nvlog::{NvLog, Op};
use crate::volume::{Volume, VolumeId};
use alligator::{Allocator, Executor, InlineExecutor, PoolExecutor};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use waffinity::{Model, Topology, WaffinityPool};
use wafl_blockdev::{
    AggregateGeometry, AioEngine, BlockStamp, DriveKind, FaultSpec, IoEngine, RetryPolicy,
    SyncPolicy,
};
use wafl_metafile::AggregateMap;

/// How infrastructure messages execute.
#[derive(Debug, Clone, Copy)]
pub enum ExecMode {
    /// Synchronously on the calling thread (deterministic; tests).
    Inline,
    /// On a real Waffinity thread pool with this many workers.
    Pool(usize),
}

/// Waffinity topology sizing used by [`Filesystem`]. Fixed counts keep the
/// affinity id space static while volumes come and go; volume `v` maps to
/// affinity slot `v % VOLUME_SLOTS`.
const VOLUME_SLOTS: u32 = 8;
const STRIPES_PER_VOLUME: u32 = 8;
const RANGES: u32 = 8;
/// Per-RAID-group submit-ring depth of every file system's async I/O
/// engine.
const AIO_DEPTH: usize = 8;

/// A WAFL-like file system over one simulated aggregate.
pub struct Filesystem {
    cfg: FsConfig,
    topo: Arc<Topology>,
    io: Arc<IoEngine>,
    /// The async I/O engine every tetris stripe goes through. The file
    /// system owns the strong reference; the `IoEngine` holds only a
    /// `Weak` back-pointer (no cycle).
    aio: Arc<AioEngine>,
    alloc: Arc<Allocator>,
    volumes: RwLock<BTreeMap<VolumeId, Arc<Volume>>>,
    nvlog: NvLog,
    pool: CleanerPool,
    mf_locs: MetafileLocs,
    sb: SuperblockStore,
    cp_counter: AtomicU64,
    /// True while a CP is executing. Advisory: background maintenance
    /// (the online scrubber) uses it to schedule its quiesce-dependent
    /// re-checks between CPs.
    cp_in_flight: AtomicBool,
    /// Keeps the Waffinity pool alive in `ExecMode::Pool`.
    waff_pool: Option<Arc<WaffinityPool>>,
}

impl Filesystem {
    /// Create a fresh (empty) file system over a new aggregate.
    pub fn new(
        cfg: FsConfig,
        geometry: AggregateGeometry,
        kind: DriveKind,
        exec: ExecMode,
    ) -> Self {
        let geo = Arc::new(geometry);
        let io = Arc::new(IoEngine::new(Arc::clone(&geo), kind));
        let aggmap = Arc::new(AggregateMap::new(geo));
        Self::assemble(cfg, io, aggmap, exec)
    }

    /// Like [`Filesystem::new`], but with a deterministic fault-injection
    /// plan and retry policy installed on every drive of the aggregate.
    pub fn with_faults(
        cfg: FsConfig,
        geometry: AggregateGeometry,
        kind: DriveKind,
        spec: FaultSpec,
        policy: RetryPolicy,
        exec: ExecMode,
    ) -> Self {
        let geo = Arc::new(geometry);
        let io = Arc::new(IoEngine::with_faults_and_policy(
            Arc::clone(&geo),
            kind,
            spec,
            policy,
        ));
        let aggmap = Arc::new(AggregateMap::new(geo));
        Self::assemble(cfg, io, aggmap, exec)
    }

    fn assemble(
        cfg: FsConfig,
        io: Arc<IoEngine>,
        aggmap: Arc<AggregateMap>,
        exec: ExecMode,
    ) -> Self {
        let topo = Arc::new(Topology::symmetric(
            Model::Hierarchical,
            1,
            VOLUME_SLOTS,
            STRIPES_PER_VOLUME,
            RANGES,
        ));
        let (executor, waff_pool): (Arc<dyn Executor>, _) = match exec {
            ExecMode::Inline => (Arc::new(InlineExecutor), None),
            ExecMode::Pool(threads) => {
                let pool = Arc::new(WaffinityPool::new(Arc::clone(&topo), threads));
                (Arc::new(PoolExecutor::new(Arc::clone(&pool))), Some(pool))
            }
        };
        Self::assemble_shared(cfg, io, aggmap, executor, topo, 0, waff_pool)
    }

    /// Assemble an aggregate's file system over a *shared* Waffinity
    /// topology/executor — the multi-aggregate path (§IV-B2: metafiles of
    /// different aggregates map to different Aggregate-VBN affinities, so
    /// their infrastructure work parallelizes with no extra locking).
    /// `aggr` is this aggregate's index in `topo`.
    pub(crate) fn assemble_shared(
        cfg: FsConfig,
        io: Arc<IoEngine>,
        aggmap: Arc<AggregateMap>,
        executor: Arc<dyn Executor>,
        topo: Arc<Topology>,
        aggr: u32,
        waff_pool: Option<Arc<WaffinityPool>>,
    ) -> Self {
        let alloc = Allocator::new(
            cfg.alloc,
            aggmap,
            io.clone(),
            executor,
            Arc::clone(&topo),
            aggr,
        );
        let pool = CleanerPool::new(Arc::clone(&alloc), cfg.cleaner);
        // The engine registers itself on `io`, taking over from any an
        // earlier instance on the same media built (`crash_and_recover`).
        let aio = AioEngine::new(Arc::clone(&io), AIO_DEPTH);
        Self {
            cfg,
            topo,
            io,
            aio,
            alloc,
            volumes: RwLock::ranked(BTreeMap::new(), "fs.volumes", 10),
            nvlog: NvLog::new(),
            pool,
            mf_locs: MetafileLocs::new(),
            sb: SuperblockStore::new(),
            cp_counter: AtomicU64::new(0),
            cp_in_flight: AtomicBool::new(false),
            waff_pool,
        }
    }

    /// Configuration.
    #[inline]
    pub fn config(&self) -> &FsConfig {
        &self.cfg
    }

    /// The aggregate's I/O engine (shared with any recovered instance —
    /// the drives *are* the persistent state).
    #[inline]
    pub fn io(&self) -> &Arc<IoEngine> {
        &self.io
    }

    /// The write allocator.
    #[inline]
    pub fn allocator(&self) -> &Arc<Allocator> {
        &self.alloc
    }

    /// The async I/O engine this file system's stripes go through.
    /// Always `Some`; the `Option` stays for the e2e harness, which
    /// still matches on it.
    #[inline]
    pub fn aio(&self) -> Option<&Arc<AioEngine>> {
        Some(&self.aio)
    }

    /// The cleaner pool (e.g., for dynamic-tuner actuation).
    #[inline]
    pub fn cleaner_pool(&self) -> &CleanerPool {
        &self.pool
    }

    /// The NVRAM log.
    #[inline]
    pub fn nvlog(&self) -> &NvLog {
        &self.nvlog
    }

    /// The most recently committed superblock image, if any CP has run.
    /// A point-in-time copy: later CPs never change what the handle shows.
    pub fn committed_image(&self) -> Option<Arc<DiskImage>> {
        self.sb.load()
    }

    /// Where the metafile blocks currently live.
    #[inline]
    pub fn metafile_locs(&self) -> &MetafileLocs {
        &self.mf_locs
    }

    /// The Waffinity topology.
    #[inline]
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The Waffinity thread pool, when running in [`ExecMode::Pool`].
    #[inline]
    pub fn waffinity_pool(&self) -> Option<&Arc<WaffinityPool>> {
        self.waff_pool.as_ref()
    }

    /// Create a volume. Returns `false` if the id exists.
    pub fn create_volume(&self, id: VolumeId) -> bool {
        let mut vols = self.volumes.write();
        if vols.contains_key(&id) {
            return false;
        }
        vols.insert(
            id,
            Volume::new(id, id.0 % VOLUME_SLOTS, self.cfg.vvbn_per_volume),
        );
        true
    }

    /// Handle to a volume.
    pub fn volume(&self, id: VolumeId) -> Option<Arc<Volume>> {
        self.volumes.read().get(&id).cloned()
    }

    /// All volumes.
    pub fn volumes(&self) -> Vec<Arc<Volume>> {
        self.volumes.read().values().cloned().collect()
    }

    /// Create a file (logged to NVRAM).
    pub fn create_file(&self, vol: VolumeId, file: FileId) -> bool {
        let v = self.volume(vol).expect("volume exists");
        let created = v.create_file(file);
        if created {
            self.nvlog.log(Op::Create { vol, file });
        }
        created
    }

    /// Client write: acknowledge after dirtying in memory and logging to
    /// NVRAM (§II-C's fast-reply path).
    pub fn write(&self, vol: VolumeId, file: FileId, fbn: u64, stamp: BlockStamp) {
        let v = self.volume(vol).expect("volume exists");
        v.write(file, fbn, stamp);
        self.nvlog.log(Op::Write {
            vol,
            file,
            fbn,
            stamp,
        });
    }

    /// Read current logical contents (dirty data wins).
    pub fn read(&self, vol: VolumeId, file: FileId, fbn: u64) -> Option<BlockStamp> {
        self.volume(vol)?.read(file, fbn)
    }

    /// Truncate a file to `new_size_fbns` blocks (logged to NVRAM).
    /// Freed blocks flow through the allocator's stage path, exactly like
    /// overwrite frees (§IV-A). Returns `false` if the file is missing.
    pub fn truncate(&self, vol: VolumeId, file: FileId, new_size_fbns: u64) -> bool {
        let v = self.volume(vol).expect("volume exists");
        let Some(pvbns) = v.truncate_file(file, new_size_fbns) else {
            return false;
        };
        self.stage_frees(pvbns);
        self.nvlog.log(Op::Truncate {
            vol,
            file,
            new_size_fbns,
        });
        true
    }

    /// Delete a file (logged to NVRAM). Returns `false` if missing.
    pub fn delete_file(&self, vol: VolumeId, file: FileId) -> bool {
        let v = self.volume(vol).expect("volume exists");
        let Some(pvbns) = v.delete_file(file) else {
            return false;
        };
        self.stage_frees(pvbns);
        self.nvlog.log(Op::Delete { vol, file });
        true
    }

    /// Create a named snapshot of a volume: runs a CP to make the image
    /// current, captures it, and runs another CP so the snapshot itself
    /// is durable (snapshot creation *is* a CP in WAFL). Returns `false`
    /// if the name exists or the volume does not.
    pub fn create_snapshot(&self, vol: VolumeId, name: &str) -> bool {
        let Some(v) = self.volume(vol) else {
            return false;
        };
        let report = self.run_cp();
        if !v.take_snapshot(name, report.cp_id) {
            return false;
        }
        self.run_cp(); // publish the snapshot in the on-disk image
        true
    }

    /// Read a block as of a snapshot.
    pub fn read_snapshot(
        &self,
        vol: VolumeId,
        snapshot: &str,
        file: FileId,
        fbn: u64,
    ) -> Option<BlockStamp> {
        let v = self.volume(vol)?;
        let snap = v.snapshots().get(snapshot)?;
        let ptr = snap.lookup(file, fbn)?;
        self.io.read_vbn(ptr.pvbn).ok()
    }

    /// Delete a snapshot, reclaiming blocks no other image references.
    /// The reclaim is durable at the next CP. Returns the number of
    /// blocks freed, or `None` if the snapshot does not exist.
    pub fn delete_snapshot(&self, vol: VolumeId, name: &str) -> Option<usize> {
        let v = self.volume(vol)?;
        let reclaimed = v.delete_snapshot(name)?;
        let n = reclaimed.len();
        let mut pvbns = Vec::with_capacity(n);
        for (vvbn, pvbn) in reclaimed {
            v.vvbn().free(vvbn);
            pvbns.push(pvbn);
        }
        self.stage_frees(pvbns);
        Some(n)
    }

    fn stage_frees(&self, pvbns: Vec<wafl_blockdev::Vbn>) {
        if pvbns.is_empty() {
            return;
        }
        let mut stage = self.alloc.new_stage();
        for v in pvbns {
            self.alloc.free_vbn(&mut stage, v);
        }
        self.alloc.flush_stage(&mut stage);
    }

    /// Read through the committed block map and the simulated media —
    /// returns what a reboot would see for this block (`None` for holes
    /// or uncommitted blocks).
    pub fn read_persisted(&self, vol: VolumeId, file: FileId, fbn: u64) -> Option<BlockStamp> {
        let v = self.volume(vol)?;
        let inode = v.inode(file)?;
        let ptr = inode.lock().lookup(fbn)?;
        self.io.read_vbn(ptr.pvbn).ok()
    }

    /// Run one consistency point.
    pub fn run_cp(&self) -> CpReport {
        // ordering: Relaxed RMW gives unique CP ids; CP ordering is serialized by the checkpoint lock.
        let cp_id = self.cp_counter.fetch_add(1, Ordering::Relaxed) + 1;
        let vols = self.volumes();
        // ordering: Release/Acquire pair with `cp_in_flight()`; advisory;
        // pairs-with: fs.cp-flag.
        self.cp_in_flight.store(true, Ordering::Release);
        let report = cp::run_cp(
            cp_id,
            &self.cfg,
            &vols,
            &self.nvlog,
            &self.alloc,
            &self.pool,
            &self.mf_locs,
            &self.sb,
        );
        // ordering: Release — the CP's effects precede the flag clearing;
        // pairs-with: fs.cp-flag.
        self.cp_in_flight.store(false, Ordering::Release);
        report
    }

    /// Run a consistency point that crashes at `at`: the CP is abandoned
    /// before the superblock commit, leaving the media, the committed
    /// image, and the NVRAM log exactly as a real mid-CP crash would.
    /// The instance is then dead (its NVLog has a CP permanently in
    /// flight); call [`Filesystem::crash_and_recover`] to get the
    /// post-reboot file system.
    pub fn run_cp_crash_at(&self, at: CrashPoint) {
        // ordering: Relaxed RMW gives unique CP ids; CP ordering is serialized by the checkpoint lock.
        let cp_id = self.cp_counter.fetch_add(1, Ordering::Relaxed) + 1;
        let vols = self.volumes();
        // ordering: Release/Acquire pair with `cp_in_flight()`; advisory;
        // pairs-with: fs.cp-flag.
        self.cp_in_flight.store(true, Ordering::Release);
        let r = cp::run_cp_crash_at(
            cp_id,
            &self.cfg,
            &vols,
            &self.nvlog,
            &self.alloc,
            &self.pool,
            &self.mf_locs,
            &self.sb,
            at,
        );
        debug_assert!(r.is_none(), "an injected crash never commits");
        // ordering: Release — the abandoned CP's effects precede the clear;
        // pairs-with: fs.cp-flag.
        self.cp_in_flight.store(false, Ordering::Release);
    }

    /// Number of CPs run.
    pub fn cp_count(&self) -> u64 {
        // ordering: advisory read of the CP counter.
        self.cp_counter.load(Ordering::Relaxed)
    }

    /// Is a CP currently executing? Advisory — by the time the caller
    /// acts the answer may have changed; the scrubber combines it with a
    /// [`Filesystem::cp_count`] stability check to bracket CP-quiet
    /// windows.
    pub fn cp_in_flight(&self) -> bool {
        // ordering: Acquire pairs with the Release stores around the CP;
        // pairs-with: fs.cp-flag.
        self.cp_in_flight.load(Ordering::Acquire)
    }

    /// Total dirty inodes across volumes (pending the next CP).
    pub fn dirty_inode_count(&self) -> usize {
        self.volumes().iter().map(|v| v.dirty_count()).sum()
    }

    /// Verify that every committed block reads back its expected stamp
    /// from the simulated media, and that the free-space metadata is
    /// internally consistent: the aggregate's, and each volume's VVBN map,
    /// whose used VVBNs are exactly those the block maps and retained
    /// snapshots reference.
    pub fn verify_integrity(&self) -> Result<(), String> {
        for v in self.volumes() {
            let space = v.vvbn();
            let mut referenced = vec![0u64; space.total().div_ceil(64) as usize];
            let mut unallocated = 0u64;
            let mut mark = |vvbn: u64| {
                referenced[(vvbn / 64) as usize] |= 1 << (vvbn % 64);
                unallocated += u64::from(!space.map().is_used(vvbn));
            };
            for snap in v.snapshots().list() {
                snap.iter_blocks().for_each(|(_, _, ptr)| mark(ptr.vvbn));
            }
            for f in v.file_ids() {
                let inode = v.inode(f).expect("listed file exists");
                let inode = inode.lock();
                for (fbn, ptr) in inode.block_map().iter() {
                    mark(ptr.vvbn);
                    let got = self.io.read_vbn(ptr.pvbn).map_err(|e| {
                        format!("read failed vol {:?} file {:?} fbn {fbn}: {e}", v.id(), f)
                    })?;
                    if got != ptr.stamp {
                        return Err(format!(
                            "stamp mismatch vol {:?} file {:?} fbn {fbn}: disk {got:#x}, map {:#x}",
                            v.id(),
                            f,
                            ptr.stamp
                        ));
                    }
                }
            }
            let free = space.free_count();
            let recount = space.map().recount_free();
            if recount != free {
                return Err(format!(
                    "vol {:?}: VVBN free count {free}, bitmap recount {recount}",
                    v.id()
                ));
            }
            let distinct: u64 = referenced.iter().map(|w| u64::from(w.count_ones())).sum();
            if unallocated > 0 || space.total() - free != distinct {
                return Err(format!(
                    "vol {:?}: {} VVBNs used, {distinct} referenced by block maps and \
                     snapshots ({unallocated} of them free)",
                    v.id(),
                    space.total() - free
                ));
            }
        }
        self.alloc.infra().aggmap().verify()?;
        self.io.scrub()
    }

    /// Simulate a crash: drop all in-memory state and recover from the
    /// committed superblock image plus an NVRAM log replay. The simulated
    /// media (drives) are shared — they are the persistent state.
    pub fn crash_and_recover(&self, exec: ExecMode) -> Filesystem {
        let image = self.sb.load();
        let ops = self.nvlog.replay_ops();
        Self::recover(self.cfg, Arc::clone(&self.io), image, &ops, exec)
    }

    /// Attach a real-file backend under `dir`: from now on every write
    /// that reaches the simulated media is also persisted to per-drive
    /// backing files (O_DIRECT where the filesystem supports it). Call
    /// on a fresh instance, before any writes, so files and simulated
    /// drives stay byte-equivalent.
    pub fn attach_file_backend(
        &self,
        dir: &std::path::Path,
        policy: SyncPolicy,
    ) -> Result<Arc<wafl_blockdev::FileBackend>, wafl_blockdev::IoError> {
        let backend = Arc::new(wafl_blockdev::FileBackend::open(
            dir,
            self.io.geometry(),
            policy,
        )?);
        self.io.attach_mirror(Arc::clone(&backend));
        Ok(backend)
    }

    /// Remount from the file backend: build **fresh** simulated drives,
    /// reload their contents from the backing files under `dir` (parity
    /// rebuilt from the surviving data — a torn stripe reloads as an
    /// internally consistent but logically stale stripe, exactly like a
    /// real array after power loss), then recover from the committed
    /// superblock image + NVRAM replay as usual. Unlike
    /// [`Filesystem::crash_and_recover`], nothing of the old media
    /// survives except what the files hold.
    pub fn remount_from_files(
        &self,
        dir: &std::path::Path,
        exec: ExecMode,
    ) -> Result<Filesystem, String> {
        self.io
            .file_mirror()
            .ok_or("remount_from_files requires an attached file backend")?;
        let kind = self.io.raid_groups()[0].data_drives()[0].kind();
        let fresh_io = Arc::new(IoEngine::new(Arc::clone(self.io.geometry()), kind));
        let backend = Arc::new(
            wafl_blockdev::FileBackend::open(dir, fresh_io.geometry(), SyncPolicy::Barrier)
                .map_err(|e| format!("reopen file backend: {e}"))?,
        );
        backend
            .load_into(&fresh_io)
            .map_err(|e| format!("load file backend: {e}"))?;
        // Attach only after the load, so reloading is not echoed back.
        fresh_io.attach_mirror(backend);
        let image = self.sb.load();
        let ops = self.nvlog.replay_ops();
        Ok(Self::recover(self.cfg, fresh_io, image, &ops, exec))
    }

    /// Build a file system from a committed image + unreplayed NVRAM ops.
    pub fn recover(
        cfg: FsConfig,
        io: Arc<IoEngine>,
        image: Option<Arc<DiskImage>>,
        ops: &[Op],
        exec: ExecMode,
    ) -> Filesystem {
        let aggmap = Arc::new(AggregateMap::new(Arc::clone(io.geometry())));
        let fs = Self::assemble(cfg, io, aggmap, exec);
        fs.populate_from(image, ops);
        fs
    }

    /// [`Filesystem::recover`] over a *shared* Waffinity topology — the
    /// multi-aggregate recovery path used by
    /// [`crate::StorageSystem::crash_and_recover`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn recover_shared(
        cfg: FsConfig,
        io: Arc<IoEngine>,
        image: Option<Arc<DiskImage>>,
        ops: &[Op],
        executor: Arc<dyn Executor>,
        topo: Arc<Topology>,
        aggr: u32,
        waff_pool: Option<Arc<WaffinityPool>>,
    ) -> Filesystem {
        let aggmap = Arc::new(AggregateMap::new(Arc::clone(io.geometry())));
        let fs = Self::assemble_shared(cfg, io, aggmap, executor, topo, aggr, waff_pool);
        fs.populate_from(image, ops);
        fs
    }

    /// Restore committed state from `image` and replay `ops` into a
    /// freshly assembled instance.
    fn populate_from(&self, image: Option<Arc<DiskImage>>, ops: &[Op]) {
        let fs = self;
        if let Some(img) = image {
            // ordering: recovery/replay is single-threaded.
            fs.cp_counter.store(img.cp_id, Ordering::Relaxed);
            // Blocks may be referenced by both the active maps and one or
            // more snapshots; adopt each physical/virtual block once. This
            // instance's bitmaps started empty, so a set bit means "already
            // adopted".
            let aggmap = fs.alloc.infra().aggmap();
            for vi in &img.volumes {
                fs.create_volume(vi.id);
                // create_volume logged nothing; recovery-internal.
                let v = fs.volume(vi.id).expect("just created");
                let adopt = |ptr: &BlockPtr| {
                    if !aggmap.is_used(ptr.pvbn) {
                        aggmap
                            .adopt_used(ptr.pvbn)
                            .expect("image references a VBN outside the aggregate");
                    }
                    if !v.vvbn().map().is_used(ptr.vvbn) {
                        v.vvbn().adopt(ptr.vvbn);
                    }
                };
                for (file, blocks) in &vi.files {
                    v.create_file(*file);
                    let inode = v.inode(*file).expect("just created");
                    inode.lock().restore_block_map(blocks.clone());
                    blocks.iter().for_each(|(_fbn, ptr)| adopt(ptr));
                }
                // Snapshots: restore and adopt blocks the active maps no
                // longer reference.
                for snap in &vi.snapshots {
                    snap.iter_blocks().for_each(|(_f, _fbn, ptr)| adopt(&ptr));
                    v.snapshots().add(Arc::clone(snap));
                }
                // The files above came out of the image: creating them
                // was no change the next commit has to copy.
                v.take_restructured();
            }
            for ((_src, _block), vbn) in &img.metafile_locs {
                aggmap
                    .adopt_used(*vbn)
                    .expect("metafile VBN double-referenced");
            }
            for (key, vbn) in &img.metafile_locs {
                fs.mf_locs.set(key.0, key.1, *vbn);
            }
            // The superblock lives on persistent storage: a recovered
            // instance must still root the same committed image, or a
            // second crash before the next CP would lose it.
            fs.sb.install(img);
        }
        // Replay unacknowledged-on-disk ops; they re-enter the NVRAM log
        // because they are still not covered by a committed CP.
        for op in ops {
            match *op {
                Op::Create { vol, file } => {
                    if fs.volume(vol).is_none() {
                        fs.create_volume(vol);
                    }
                    fs.create_file(vol, file);
                }
                Op::Write {
                    vol,
                    file,
                    fbn,
                    stamp,
                } => {
                    if fs.volume(vol).is_none() {
                        fs.create_volume(vol);
                    }
                    if fs.volume(vol).map(|v| !v.has_file(file)).unwrap_or(false) {
                        fs.create_file(vol, file);
                    }
                    fs.write(vol, file, fbn, stamp);
                }
                Op::Truncate {
                    vol,
                    file,
                    new_size_fbns,
                } => {
                    fs.truncate(vol, file, new_size_fbns);
                }
                Op::Delete { vol, file } => {
                    fs.delete_file(vol, file);
                }
            }
        }
    }
}

impl std::fmt::Debug for Filesystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Filesystem")
            .field("volumes", &self.volumes.read().len())
            .field("cps", &self.cp_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wafl_blockdev::GeometryBuilder;

    fn fs(exec: ExecMode) -> Filesystem {
        let cfg = FsConfig {
            vvbn_per_volume: 1 << 14,
            ..Default::default()
        };
        Filesystem::new(
            cfg,
            GeometryBuilder::new()
                .aa_stripes(64)
                .raid_group(3, 1, 4096)
                .build(),
            DriveKind::Ssd,
            exec,
        )
    }

    #[test]
    fn write_cp_read_persisted_roundtrip() {
        let fs = fs(ExecMode::Inline);
        fs.create_volume(VolumeId(0));
        fs.create_file(VolumeId(0), FileId(1));
        for fbn in 0..32 {
            fs.write(VolumeId(0), FileId(1), fbn, wafl_blockdev::stamp(1, fbn, 1));
        }
        let r = fs.run_cp();
        assert_eq!(r.buffers_cleaned, 32);
        assert_eq!(r.inodes_cleaned, 1);
        for fbn in 0..32 {
            assert_eq!(
                fs.read_persisted(VolumeId(0), FileId(1), fbn),
                Some(wafl_blockdev::stamp(1, fbn, 1))
            );
        }
        fs.verify_integrity().unwrap();
    }

    #[test]
    fn overwrites_free_old_blocks() {
        let fs = fs(ExecMode::Inline);
        fs.create_volume(VolumeId(0));
        fs.create_file(VolumeId(0), FileId(1));
        for fbn in 0..16 {
            fs.write(VolumeId(0), FileId(1), fbn, wafl_blockdev::stamp(1, fbn, 1));
        }
        fs.run_cp();
        let free_after_first = fs.allocator().infra().aggmap().free_count();
        for fbn in 0..16 {
            fs.write(VolumeId(0), FileId(1), fbn, wafl_blockdev::stamp(1, fbn, 2));
        }
        fs.run_cp();
        let free_after_second = fs.allocator().infra().aggmap().free_count();
        // Overwrite: new blocks allocated, old freed → net change only
        // from metafile churn, bounded well below 16.
        assert!(
            free_after_first.abs_diff(free_after_second) < 16,
            "old data blocks were freed ({free_after_first} → {free_after_second})"
        );
        assert_eq!(
            fs.read_persisted(VolumeId(0), FileId(1), 3),
            Some(wafl_blockdev::stamp(1, 3, 2))
        );
        fs.verify_integrity().unwrap();
    }

    #[test]
    fn cp_writes_are_mostly_full_stripes() {
        let fs = fs(ExecMode::Inline);
        fs.create_volume(VolumeId(0));
        fs.create_file(VolumeId(0), FileId(1));
        for fbn in 0..3 * 64 * 4 {
            fs.write(VolumeId(0), FileId(1), fbn, wafl_blockdev::stamp(1, fbn, 1));
        }
        fs.run_cp();
        let ratio = fs.io().full_stripe_ratio().unwrap();
        assert!(
            ratio > 0.8,
            "sequential write should be mostly full stripes, got {ratio}"
        );
    }

    #[test]
    fn multiple_volumes_and_cps() {
        let fs = fs(ExecMode::Inline);
        for v in 0..3 {
            fs.create_volume(VolumeId(v));
            fs.create_file(VolumeId(v), FileId(1));
        }
        for cp in 1..=3u64 {
            for v in 0..3 {
                for fbn in 0..8 {
                    fs.write(
                        VolumeId(v),
                        FileId(1),
                        fbn,
                        wafl_blockdev::stamp(v as u64, fbn, cp),
                    );
                }
            }
            let r = fs.run_cp();
            assert_eq!(r.inodes_cleaned, 3);
        }
        assert_eq!(fs.cp_count(), 3);
        for v in 0..3 {
            assert_eq!(
                fs.read_persisted(VolumeId(v), FileId(1), 5),
                Some(wafl_blockdev::stamp(v as u64, 5, 3))
            );
        }
        fs.verify_integrity().unwrap();
    }

    #[test]
    fn crash_before_any_cp_replays_everything_from_nvlog() {
        let fs = fs(ExecMode::Inline);
        fs.create_volume(VolumeId(0));
        fs.create_file(VolumeId(0), FileId(1));
        fs.write(VolumeId(0), FileId(1), 0, 0xabc);
        let recovered = fs.crash_and_recover(ExecMode::Inline);
        assert_eq!(recovered.read(VolumeId(0), FileId(1), 0), Some(0xabc));
        recovered.run_cp();
        assert_eq!(
            recovered.read_persisted(VolumeId(0), FileId(1), 0),
            Some(0xabc)
        );
        recovered.verify_integrity().unwrap();
    }

    #[test]
    fn crash_after_cp_preserves_committed_and_replays_rest() {
        let fs = fs(ExecMode::Inline);
        fs.create_volume(VolumeId(0));
        fs.create_file(VolumeId(0), FileId(1));
        fs.write(VolumeId(0), FileId(1), 0, 0x1);
        fs.write(VolumeId(0), FileId(1), 1, 0x2);
        fs.run_cp();
        // Acknowledged but not yet CP'd:
        fs.write(VolumeId(0), FileId(1), 1, 0x22);
        fs.write(VolumeId(0), FileId(1), 2, 0x3);
        let recovered = fs.crash_and_recover(ExecMode::Inline);
        assert_eq!(recovered.read(VolumeId(0), FileId(1), 0), Some(0x1));
        assert_eq!(recovered.read(VolumeId(0), FileId(1), 1), Some(0x22));
        assert_eq!(recovered.read(VolumeId(0), FileId(1), 2), Some(0x3));
        // The replayed ops re-commit on the next CP.
        recovered.run_cp();
        assert_eq!(
            recovered.read_persisted(VolumeId(0), FileId(1), 1),
            Some(0x22)
        );
        recovered.verify_integrity().unwrap();
    }

    #[test]
    fn recovered_fs_does_not_reallocate_live_blocks() {
        let fs = fs(ExecMode::Inline);
        fs.create_volume(VolumeId(0));
        fs.create_file(VolumeId(0), FileId(1));
        for fbn in 0..64 {
            fs.write(VolumeId(0), FileId(1), fbn, wafl_blockdev::stamp(1, fbn, 1));
        }
        fs.run_cp();
        let recovered = fs.crash_and_recover(ExecMode::Inline);
        // New writes after recovery must not clobber committed blocks.
        recovered.create_file(VolumeId(0), FileId(2));
        for fbn in 0..64 {
            recovered.write(VolumeId(0), FileId(2), fbn, wafl_blockdev::stamp(2, fbn, 1));
        }
        recovered.run_cp();
        for fbn in 0..64 {
            assert_eq!(
                recovered.read_persisted(VolumeId(0), FileId(1), fbn),
                Some(wafl_blockdev::stamp(1, fbn, 1)),
                "committed block clobbered at fbn {fbn}"
            );
        }
        recovered.verify_integrity().unwrap();
    }

    #[test]
    fn pool_exec_mode_works_end_to_end() {
        let fs = fs(ExecMode::Pool(2));
        fs.create_volume(VolumeId(0));
        fs.create_file(VolumeId(0), FileId(1));
        for fbn in 0..128 {
            fs.write(VolumeId(0), FileId(1), fbn, wafl_blockdev::stamp(1, fbn, 7));
        }
        let r = fs.run_cp();
        assert_eq!(r.buffers_cleaned, 128);
        fs.verify_integrity().unwrap();
    }

    #[test]
    fn delete_frees_all_blocks() {
        let fs = fs(ExecMode::Inline);
        fs.create_volume(VolumeId(0));
        fs.create_file(VolumeId(0), FileId(1));
        for fbn in 0..64 {
            fs.write(VolumeId(0), FileId(1), fbn, wafl_blockdev::stamp(1, fbn, 1));
        }
        fs.run_cp();
        let free_before = fs.allocator().infra().aggmap().free_count();
        assert!(fs.delete_file(VolumeId(0), FileId(1)));
        fs.allocator().drain();
        let free_after = fs.allocator().infra().aggmap().free_count();
        assert_eq!(free_after, free_before + 64);
        assert_eq!(fs.read(VolumeId(0), FileId(1), 0), None);
        assert!(!fs.delete_file(VolumeId(0), FileId(1)), "double delete");
        fs.run_cp();
        fs.verify_integrity().unwrap();
    }

    #[test]
    fn truncate_frees_tail_and_keeps_head() {
        let fs = fs(ExecMode::Inline);
        fs.create_volume(VolumeId(0));
        fs.create_file(VolumeId(0), FileId(1));
        for fbn in 0..32 {
            fs.write(VolumeId(0), FileId(1), fbn, wafl_blockdev::stamp(1, fbn, 1));
        }
        fs.run_cp();
        assert!(fs.truncate(VolumeId(0), FileId(1), 10));
        fs.allocator().drain();
        assert_eq!(
            fs.read(VolumeId(0), FileId(1), 5),
            Some(wafl_blockdev::stamp(1, 5, 1))
        );
        assert_eq!(fs.read(VolumeId(0), FileId(1), 10), None);
        assert_eq!(fs.read(VolumeId(0), FileId(1), 31), None);
        fs.run_cp();
        fs.verify_integrity().unwrap();
    }

    #[test]
    fn truncate_drops_uncommitted_dirty_tail() {
        let fs = fs(ExecMode::Inline);
        fs.create_volume(VolumeId(0));
        fs.create_file(VolumeId(0), FileId(1));
        for fbn in 0..16 {
            fs.write(VolumeId(0), FileId(1), fbn, wafl_blockdev::stamp(1, fbn, 1));
        }
        fs.truncate(VolumeId(0), FileId(1), 4);
        let r = fs.run_cp();
        assert_eq!(r.buffers_cleaned, 4, "only the surviving head is cleaned");
        fs.verify_integrity().unwrap();
    }

    #[test]
    fn delete_and_truncate_survive_crash_replay() {
        let fs = fs(ExecMode::Inline);
        fs.create_volume(VolumeId(0));
        fs.create_file(VolumeId(0), FileId(1));
        fs.create_file(VolumeId(0), FileId(2));
        for fbn in 0..20 {
            fs.write(VolumeId(0), FileId(1), fbn, wafl_blockdev::stamp(1, fbn, 1));
            fs.write(VolumeId(0), FileId(2), fbn, wafl_blockdev::stamp(2, fbn, 1));
        }
        fs.run_cp();
        fs.delete_file(VolumeId(0), FileId(1));
        fs.truncate(VolumeId(0), FileId(2), 5);
        let r = fs.crash_and_recover(ExecMode::Inline);
        assert_eq!(r.read(VolumeId(0), FileId(1), 0), None, "delete replayed");
        assert_eq!(
            r.read(VolumeId(0), FileId(2), 3),
            Some(wafl_blockdev::stamp(2, 3, 1))
        );
        assert_eq!(
            r.read(VolumeId(0), FileId(2), 10),
            None,
            "truncate replayed"
        );
        r.run_cp();
        r.verify_integrity().unwrap();
    }

    #[test]
    fn deleted_space_is_reusable() {
        // Fill a tiny aggregate, delete, refill: allocation must succeed
        // again (space actually cycles).
        let cfg = FsConfig {
            vvbn_per_volume: 1 << 12,
            ..Default::default()
        };
        let fs = Filesystem::new(
            cfg,
            GeometryBuilder::new()
                .aa_stripes(64)
                .raid_group(2, 1, 512)
                .build(),
            DriveKind::Ssd,
            ExecMode::Inline,
        );
        fs.create_volume(VolumeId(0));
        for round in 0..4u64 {
            fs.create_file(VolumeId(0), FileId(round));
            for fbn in 0..400 {
                fs.write(
                    VolumeId(0),
                    FileId(round),
                    fbn,
                    wafl_blockdev::stamp(round, fbn, 1),
                );
            }
            fs.run_cp();
            fs.delete_file(VolumeId(0), FileId(round));
            fs.allocator().drain();
        }
        fs.run_cp();
        fs.verify_integrity().unwrap();
    }

    #[test]
    fn mid_cp_crash_recovers_equivalently_at_every_point() {
        // A crash at ANY point before the superblock commit must be
        // equivalent to no CP at all: the committed image plus NVLog
        // replay reconstructs every acknowledged op (§II-C).
        for at in CrashPoint::ALL {
            let fs = fs(ExecMode::Inline);
            fs.create_volume(VolumeId(0));
            fs.create_file(VolumeId(0), FileId(1));
            for fbn in 0..16 {
                fs.write(VolumeId(0), FileId(1), fbn, wafl_blockdev::stamp(1, fbn, 1));
            }
            fs.run_cp();
            // Acknowledged after the commit: overwrites + a new file.
            for fbn in 0..16 {
                fs.write(VolumeId(0), FileId(1), fbn, wafl_blockdev::stamp(1, fbn, 2));
            }
            fs.create_file(VolumeId(0), FileId(2));
            fs.write(VolumeId(0), FileId(2), 0, wafl_blockdev::stamp(2, 0, 1));
            fs.run_cp_crash_at(at);
            let r = fs.crash_and_recover(ExecMode::Inline);
            for fbn in 0..16 {
                assert_eq!(
                    r.read(VolumeId(0), FileId(1), fbn),
                    Some(wafl_blockdev::stamp(1, fbn, 2)),
                    "replayed overwrite lost at {at:?} fbn {fbn}"
                );
            }
            assert_eq!(
                r.read(VolumeId(0), FileId(2), 0),
                Some(wafl_blockdev::stamp(2, 0, 1)),
                "replayed create lost at {at:?}"
            );
            // The replayed state commits and verifies end to end,
            // including the raw-media parity scrub.
            r.run_cp();
            for fbn in 0..16 {
                assert_eq!(
                    r.read_persisted(VolumeId(0), FileId(1), fbn),
                    Some(wafl_blockdev::stamp(1, fbn, 2))
                );
            }
            r.verify_integrity()
                .unwrap_or_else(|e| panic!("verify failed after crash at {at:?}: {e}"));
        }
    }

    #[test]
    fn cp_completes_degraded_after_drive_failure_then_rebuilds() {
        // One data drive dies mid-run; every CP still completes through
        // parity-based degraded writes and reads, and the drive rebuilds.
        let cfg = FsConfig {
            vvbn_per_volume: 1 << 14,
            ..Default::default()
        };
        let fs = Filesystem::with_faults(
            cfg,
            GeometryBuilder::new()
                .aa_stripes(64)
                .raid_group(3, 1, 2048)
                .build(),
            DriveKind::Ssd,
            // The equal-progress bucket cache batches each drive's CP
            // writes into a handful of long runs (one fault-plan op
            // each), so trip the failure on the drive's third op to land
            // mid-CP.
            FaultSpec::drive_failure(1, 2),
            RetryPolicy::default(),
            ExecMode::Inline,
        );
        fs.create_volume(VolumeId(0));
        fs.create_file(VolumeId(0), FileId(1));
        for fbn in 0..200 {
            fs.write(VolumeId(0), FileId(1), fbn, wafl_blockdev::stamp(1, fbn, 1));
        }
        fs.run_cp();
        let snap = fs.io().fault_snapshot();
        assert_eq!(snap.drives_offline, 1, "the targeted drive went offline");
        // Every committed block reads back — a third of them through
        // XOR reconstruction.
        for fbn in 0..200 {
            assert_eq!(
                fs.read_persisted(VolumeId(0), FileId(1), fbn),
                Some(wafl_blockdev::stamp(1, fbn, 1)),
                "degraded read wrong at fbn {fbn}"
            );
        }
        assert!(
            fs.io().fault_snapshot().reconstructed_reads > 0,
            "reads off the failed drive were reconstructed from parity"
        );
        // The raw media is inconsistent until the drive is rebuilt.
        assert!(fs.verify_integrity().is_err(), "scrub fails while degraded");
        assert!(fs.io().rebuild_offline() > 0);
        fs.verify_integrity().unwrap();
    }

    #[test]
    fn crash_while_degraded_recovers_via_replay_and_rebuild() {
        // Compound fault: a drive failure AND a mid-CP crash. Recovery
        // replays the NVLog over the degraded aggregate, the next CP
        // completes degraded, and the rebuild restores parity.
        let cfg = FsConfig {
            vvbn_per_volume: 1 << 14,
            ..Default::default()
        };
        let fs = Filesystem::with_faults(
            cfg,
            GeometryBuilder::new()
                .aa_stripes(64)
                .raid_group(3, 1, 2048)
                .build(),
            DriveKind::Ssd,
            FaultSpec::drive_failure(2, 4),
            RetryPolicy::default(),
            ExecMode::Inline,
        );
        fs.create_volume(VolumeId(0));
        fs.create_file(VolumeId(0), FileId(1));
        for fbn in 0..64 {
            fs.write(VolumeId(0), FileId(1), fbn, wafl_blockdev::stamp(1, fbn, 1));
        }
        fs.run_cp();
        for fbn in 0..64 {
            fs.write(VolumeId(0), FileId(1), fbn, wafl_blockdev::stamp(1, fbn, 2));
        }
        fs.run_cp_crash_at(CrashPoint::AfterMetafileFlush);
        let r = fs.crash_and_recover(ExecMode::Inline);
        r.run_cp();
        for fbn in 0..64 {
            assert_eq!(
                r.read_persisted(VolumeId(0), FileId(1), fbn),
                Some(wafl_blockdev::stamp(1, fbn, 2))
            );
        }
        assert!(r.io().rebuild_offline() > 0, "the failed drive rebuilds");
        r.verify_integrity().unwrap();
    }

    /// However an instance came to be — fresh, recovered, remounted from
    /// files, or an aggregate of a `StorageSystem` — its media's stripes
    /// go to the engine it owns, and a CP sends them there.
    #[test]
    fn every_instance_writes_its_stripes_through_its_own_engine() {
        let check = |fs: &Filesystem, file: u64| {
            let aio = fs.aio().expect("every file system owns an engine");
            let registered = fs.io().aio().expect("an engine is registered on the media");
            assert!(
                Arc::ptr_eq(aio, &registered),
                "file {file}: a foreign engine"
            );
            let before = aio.submitted();
            fs.create_volume(VolumeId(0));
            fs.create_file(VolumeId(0), FileId(file));
            for fbn in 0..8 {
                fs.write(
                    VolumeId(0),
                    FileId(file),
                    fbn,
                    wafl_blockdev::stamp(file, fbn, 1),
                );
            }
            fs.run_cp();
            assert!(
                aio.submitted() > before,
                "file {file}: the CP queued no stripe"
            );
        };
        let fresh = fs(ExecMode::Inline);
        check(&fresh, 1);
        check(&fresh.crash_and_recover(ExecMode::Inline), 2);

        let dir = std::env::temp_dir().join(format!("wafl-own-engine-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mirrored = fs(ExecMode::Inline);
        mirrored
            .attach_file_backend(&dir, SyncPolicy::Barrier)
            .unwrap();
        check(&mirrored, 1);
        let remounted = mirrored.remount_from_files(&dir, ExecMode::Inline);
        check(&remounted.unwrap(), 2);
        let _ = std::fs::remove_dir_all(&dir);

        let geometry = || {
            GeometryBuilder::new()
                .aa_stripes(64)
                .raid_group(3, 1, 4096)
                .build()
        };
        let system = crate::StorageSystem::new(
            FsConfig::default(),
            vec![geometry(), geometry()],
            DriveKind::Ssd,
            ExecMode::Inline,
        );
        for i in 0..system.aggregate_count() {
            check(system.aggregate(i), 1);
        }
        let recovered = system.crash_and_recover(ExecMode::Inline);
        for i in 0..recovered.aggregate_count() {
            check(recovered.aggregate(i), 2);
        }
    }

    #[test]
    fn writes_during_cp_land_in_next_cp() {
        let fs = fs(ExecMode::Inline);
        fs.create_volume(VolumeId(0));
        fs.create_file(VolumeId(0), FileId(1));
        fs.write(VolumeId(0), FileId(1), 0, 0xa);
        fs.run_cp();
        fs.write(VolumeId(0), FileId(1), 0, 0xb);
        assert_eq!(fs.read_persisted(VolumeId(0), FileId(1), 0), Some(0xa));
        let r = fs.run_cp();
        assert_eq!(r.buffers_cleaned, 1);
        assert_eq!(fs.read_persisted(VolumeId(0), FileId(1), 0), Some(0xb));
        fs.verify_integrity().unwrap();
    }
}
