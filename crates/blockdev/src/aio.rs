//! Asynchronous write-I/O engine: submission/completion queues over the
//! aggregate's [`IoEngine`], with an optional real-file backend.
//!
//! Every tetris stripe goes through here: [`IoEngine::write`] enqueues
//! it on the engine built over that `IoEngine`, so the cleaner that
//! completes a tetris goes on cleaning while the stripe's media write
//! runs, and the RAID groups write in parallel. The queues are
//! io_uring-shaped:
//!
//! * [`AioEngine::submit`] enqueues a [`WriteIo`] on its RAID group's
//!   bounded submit ring and returns an [`IoTicket`] immediately;
//! * a worker per RAID group services the ring in FIFO order (one
//!   worker per group keeps every drive's fault-plan op ordinals
//!   identical at any queue depth — retries and offlining decisions are
//!   made **per completion**, in the order the stripes were submitted);
//! * finished writes go on one lock-protected completion list, counted
//!   under the same lock — a tetris I/O carries a few hundred buffers,
//!   so the lock is taken once per few hundred buffers (§IV-C: amortise
//!   until a plain lock is cheap enough);
//! * [`AioEngine::poll_completions`] takes that list without blocking,
//!   and [`AioEngine::drain`] is the barrier: it waits under the same
//!   lock until every prior submission has completed, then fsyncs the
//!   file backend (CP phase boundaries are the only durability
//!   barriers).
//!
//! The engine writes through two backends at once when a
//! [`FileBackend`] mirror is attached to the [`IoEngine`]: the
//! simulated drives stay the read/verify authority, and every block
//! that completes is additionally `pwrite`n at its geometry offset into
//! a per-drive backing file with O_DIRECT-style alignment. The files
//! are the remount-persistent state for crash-consistency torture:
//! [`FileBackend::crash`] drops (and mid-I/O, tears) everything not yet
//! on media, and [`FileBackend::load_into`] rebuilds a fresh aggregate
//! from whatever survived. Raw block devices are probed by
//! [`DiskKind::probe`] and rejected with a typed
//! [`IoError::NotYetSupported`].

use crate::fault::IoError;
use crate::geometry::{AggregateGeometry, Dbn, RaidGroupId, BLOCK_SIZE};
use crate::io::{IoEngine, IoResult, WriteIo};
use crate::BlockStamp;
use std::any::Any;
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------
// Tickets and completions
// ---------------------------------------------------------------------

/// Opaque handle for one submitted write I/O.
///
/// Tickets are minted only by [`AioEngine::submit`]: the field is
/// private to this module, so a completion can never be forged or
/// double-sourced by a caller. The compiler refuses a forged one:
///
/// ```compile_fail,E0603
/// let _t: wafl_blockdev::aio::IoTicket = wafl_blockdev::aio::IoTicket(7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IoTicket(u64);

impl IoTicket {
    /// The ticket's sequence number (monotone per engine).
    #[inline]
    pub fn id(&self) -> u64 {
        self.0
    }
}

/// A finished write I/O, as delivered by [`AioEngine::poll_completions`].
#[derive(Debug, Clone)]
pub struct Completion {
    /// The ticket returned by the matching [`AioEngine::submit`].
    pub ticket: IoTicket,
    /// The write outcome, as [`IoEngine::submit_write`] returned it on
    /// the worker (degraded writes absorbed, unrecoverable ones `Err`).
    pub result: Result<IoResult, IoError>,
    /// Wall-clock nanoseconds from submit to completion publish.
    pub submit_to_complete_ns: u64,
}

// ---------------------------------------------------------------------
// DiskKind probe + file backend
// ---------------------------------------------------------------------

/// What kind of storage target a path refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskKind {
    /// A directory of per-drive backing files (supported).
    Directory,
    /// A raw block device (detected, but writes are rejected with
    /// [`IoError::NotYetSupported`] until the on-device allocator
    /// lands — see ROADMAP).
    BlockDevice,
}

impl DiskKind {
    /// Probe a path. Nonexistent paths probe as [`DiskKind::Directory`]
    /// (they will be created as one).
    pub fn probe(path: &Path) -> DiskKind {
        use std::os::unix::fs::FileTypeExt;
        match std::fs::metadata(path) {
            Ok(md) if md.file_type().is_block_device() => DiskKind::BlockDevice,
            _ => DiskKind::Directory,
        }
    }
}

/// When the file backend makes completed writes durable. There is one
/// discipline; the type stays because callers of [`FileBackend::open`]
/// name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fdatasync` only at [`FileBackend::sync_all`] barriers (CP phase
    /// boundaries / [`AioEngine::drain`]).
    Barrier,
}

/// Linux `O_DIRECT` open flag (no libc dependency in this tree).
const O_DIRECT: i32 = 0x4000;

/// Real-file storage backend: one backing file per data drive, blocks
/// at `dbn * BLOCK_SIZE`, each 4 KiB block filled with its 16-byte
/// stamp repeated (so content survives a remount byte-exactly).
///
/// Attached to an [`IoEngine`] as a mirror
/// ([`IoEngine::attach_mirror`]): every write that completes against
/// the simulated drives is also written here, through O_DIRECT when
/// the filesystem supports it (falling back to buffered I/O with the
/// fallback recorded — see [`FileBackend::o_direct`]).
pub struct FileBackend {
    dir: PathBuf,
    /// One file per data drive, indexed by `rg_base[rg] + drive_in_rg`.
    files: Vec<File>,
    rg_base: Vec<usize>,
    blocks_per_drive: Vec<u64>,
    o_direct: bool,
    /// Set by [`FileBackend::crash`]: all subsequent file writes are
    /// dropped, tearing any multi-segment write in progress.
    crashed: AtomicBool,
}

impl FileBackend {
    /// Open (creating if needed) the per-drive backing files for a
    /// geometry under `dir`. A `dir` that probes as a raw block device
    /// is rejected with [`IoError::NotYetSupported`].
    pub fn open(
        dir: &Path,
        geometry: &AggregateGeometry,
        _policy: SyncPolicy,
    ) -> Result<FileBackend, IoError> {
        if DiskKind::probe(dir) == DiskKind::BlockDevice {
            return Err(IoError::NotYetSupported {
                detail: "raw block devices are probed but not yet written (ROADMAP: on-device allocator)",
            });
        }
        std::fs::create_dir_all(dir).map_err(|_| IoError::NotYetSupported {
            detail: "file backend directory could not be created",
        })?;
        let mut files = Vec::new();
        let mut rg_base = Vec::new();
        let mut blocks_per_drive = Vec::new();
        let mut o_direct = true;
        for g in geometry.raid_groups() {
            rg_base.push(files.len());
            for d in 0..g.data_drives.len() {
                let path = dir.join(format!("rg{}-d{}.blk", g.id.0, d));
                let size = g.blocks_per_drive * BLOCK_SIZE as u64;
                let file = match open_direct(&path, size) {
                    Ok(f) => f,
                    Err(_) => {
                        // O_DIRECT unavailable (e.g. tmpfs): fall back
                        // to buffered I/O and record the downgrade.
                        o_direct = false;
                        let f = OpenOptions::new()
                            .read(true)
                            .write(true)
                            .create(true)
                            .truncate(false)
                            .open(&path)
                            .map_err(|_| IoError::NotYetSupported {
                                detail: "file backend open failed",
                            })?;
                        f.set_len(size).map_err(|_| IoError::NotYetSupported {
                            detail: "file backend set_len failed",
                        })?;
                        f
                    }
                };
                files.push(file);
                blocks_per_drive.push(g.blocks_per_drive);
            }
        }
        Ok(FileBackend {
            dir: dir.to_path_buf(),
            files,
            rg_base,
            blocks_per_drive,
            o_direct,
            crashed: AtomicBool::new(false),
        })
    }

    /// The backing directory.
    #[inline]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether every backing file is open with `O_DIRECT` (false after
    /// a buffered fallback, e.g. on tmpfs).
    #[inline]
    pub fn o_direct(&self) -> bool {
        self.o_direct
    }

    /// Simulate power loss: drop every file write from now on. A
    /// multi-segment write racing this call persists only a prefix of
    /// its segments — the torn-stripe case recovery must absorb.
    pub fn crash(&self) {
        // ordering: Release — the tear point is published to writer
        // threads; pairs-with: aio.file-crash.
        self.crashed.store(true, Ordering::Release);
    }

    /// Has [`FileBackend::crash`] been called?
    pub fn is_crashed(&self) -> bool {
        // ordering: Acquire — pairs with the Release store in crash();
        // pairs-with: aio.file-crash.
        self.crashed.load(Ordering::Acquire)
    }

    /// Mirror one completed write I/O into the backing files. Segments
    /// are written in order; a crash flag observed between segments
    /// tears the write. Returns `Ok` even when dropped — a crashed
    /// backend behaves like powered-off media, not an erroring one.
    pub fn apply_write(&self, io: &WriteIo) -> std::io::Result<()> {
        use std::os::unix::fs::FileExt;
        let base = self.rg_base[io.rg.0 as usize];
        for seg in &io.segments {
            if self.is_crashed() {
                return Ok(()); // torn: earlier segments persisted, rest lost
            }
            let idx = base + seg.drive_in_rg as usize;
            let buf = AlignedBuf::fill(&seg.stamps);
            self.files[idx].write_at(buf.bytes(), seg.start_dbn * BLOCK_SIZE as u64)?;
        }
        Ok(())
    }

    /// Barrier: fdatasync every backing file (a no-op after a crash).
    pub fn sync_all(&self) -> std::io::Result<()> {
        if self.is_crashed() {
            return Ok(());
        }
        for f in &self.files {
            f.sync_data()?;
        }
        Ok(())
    }

    /// Read one drive's full stamp array back from its backing file.
    pub fn read_drive(
        &self,
        rg: RaidGroupId,
        drive_in_rg: u32,
    ) -> std::io::Result<Vec<BlockStamp>> {
        use std::os::unix::fs::FileExt;
        let idx = self.rg_base[rg.0 as usize] + drive_in_rg as usize;
        let blocks = self.blocks_per_drive[idx] as usize;
        let mut buf = AlignedBuf::zeroed(blocks);
        self.files[idx].read_exact_at(buf.bytes_mut(), 0)?;
        Ok(buf.stamps())
    }

    /// Remount: load every surviving block into a fresh engine's
    /// simulated drives and rebuild parity from the loaded data.
    /// Returns the number of nonzero blocks loaded.
    pub fn load_into(&self, engine: &IoEngine) -> std::io::Result<u64> {
        let mut loaded = 0u64;
        for g in engine.raid_groups() {
            let rg = g.geometry().id;
            for (d, drive) in g.data_drives().iter().enumerate() {
                let stamps = self.read_drive(rg, d as u32)?;
                loaded += stamps.iter().filter(|&&s| s != 0).count() as u64;
                drive.repair_write(Dbn(0), &stamps);
            }
            for p in 0..g.parity_drives().len() {
                g.rebuild_parity(p);
            }
        }
        Ok(loaded)
    }
}

impl std::fmt::Debug for FileBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileBackend")
            .field("dir", &self.dir)
            .field("files", &self.files.len())
            .field("o_direct", &self.o_direct)
            .finish()
    }
}

/// Open a file with `O_DIRECT` sized to `size` bytes, verifying the
/// flag actually works on this filesystem with a non-destructive
/// aligned read probe (filesystems like tmpfs reject the flag at open;
/// a few accept it at open and fail at I/O time).
fn open_direct(path: &Path, size: u64) -> std::io::Result<File> {
    use std::os::unix::fs::{FileExt, OpenOptionsExt};
    let f = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .custom_flags(O_DIRECT)
        .open(path)?;
    f.set_len(size)?;
    let mut probe = AlignedBuf::zeroed(1);
    f.read_exact_at(probe.bytes_mut(), 0)?;
    Ok(f)
}

use aligned::AlignedBuf;

/// The crate's only `unsafe`: raw allocation for O_DIRECT's alignment
/// rule. `ptr`/`len` are private to this module, so every function that
/// can change what the `SAFETY` comments rely on is in it.
#[allow(unsafe_code)]
mod aligned {
    use crate::geometry::BLOCK_SIZE;
    use crate::BlockStamp;

    /// A 4096-aligned heap buffer sized in whole blocks (O_DIRECT requires
    /// aligned user memory as well as aligned offsets/lengths).
    pub(super) struct AlignedBuf {
        ptr: *mut u8,
        len: usize,
    }

    impl AlignedBuf {
        pub(super) fn zeroed(blocks: usize) -> Self {
            let len = blocks.max(1) * BLOCK_SIZE;
            let layout =
                std::alloc::Layout::from_size_align(len, BLOCK_SIZE).expect("valid layout");
            // SAFETY: layout has nonzero size (blocks >= 1) and valid
            // power-of-two alignment; allocation failure is handled below.
            let ptr = unsafe { std::alloc::alloc_zeroed(layout) };
            assert!(!ptr.is_null(), "aligned buffer allocation failed");
            Self { ptr, len }
        }

        /// Fill: one block per stamp, each block the 16-byte stamp repeated.
        pub(super) fn fill(stamps: &[BlockStamp]) -> Self {
            let buf = Self::zeroed(stamps.len());
            for (i, &s) in stamps.iter().enumerate() {
                let bytes = s.to_le_bytes();
                for j in 0..(BLOCK_SIZE / 16) {
                    let off = i * BLOCK_SIZE + j * 16;
                    // SAFETY: off + 16 <= len by construction (i < stamps.len(),
                    // j < BLOCK_SIZE/16); the buffer is exclusively owned here.
                    unsafe {
                        std::ptr::copy_nonoverlapping(bytes.as_ptr(), buf.ptr.add(off), 16);
                    }
                }
            }
            buf
        }

        pub(super) fn bytes(&self) -> &[u8] {
            // SAFETY: ptr is a live allocation of exactly len bytes.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }

        pub(super) fn bytes_mut(&mut self) -> &mut [u8] {
            // SAFETY: ptr is a live allocation of exactly len bytes, and
            // &mut self guarantees exclusivity.
            unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
        }

        /// Decode the first 16 bytes of each block as its stamp.
        pub(super) fn stamps(&self) -> Vec<BlockStamp> {
            self.bytes()
                .chunks_exact(BLOCK_SIZE)
                .map(|b| BlockStamp::from_le_bytes(b[..16].try_into().expect("16-byte prefix")))
                .collect()
        }
    }

    impl Drop for AlignedBuf {
        fn drop(&mut self) {
            let layout =
                std::alloc::Layout::from_size_align(self.len, BLOCK_SIZE).expect("valid layout");
            // SAFETY: ptr was allocated with exactly this layout in zeroed().
            unsafe { std::alloc::dealloc(self.ptr, layout) };
        }
    }
}

// ---------------------------------------------------------------------
// The async engine
// ---------------------------------------------------------------------

/// One submitted-but-unserviced write.
struct Pending {
    ticket: u64,
    io: WriteIo,
    submitted_at: Instant,
}

/// Per-RAID-group bounded MPSC submit ring: producers block when the
/// ring is at capacity (backpressure), the group's worker drains FIFO.
struct SubmitRing {
    q: parking_lot::Mutex<VecDeque<Pending>>,
    not_full: parking_lot::Condvar,
    not_empty: parking_lot::Condvar,
    cap: usize,
}

/// The completion side: finished writes waiting to be harvested, and the
/// counts [`AioEngine::drain`] waits on. One lock covers both, so a
/// drainer that sees `completed` catch up with `submitted` also sees
/// every completion behind that count.
#[derive(Default)]
struct Done {
    list: Vec<Completion>,
    /// Writes finished or crash-dropped; never exceeds `Inner::submitted`.
    completed: u64,
    dropped: u64,
    lat_total_ns: u64,
    /// The first panic a worker raised while writing, for the next
    /// [`AioEngine::drain`] to re-raise.
    panic: Option<Box<dyn Any + Send>>,
}

impl Done {
    /// Hand the finished writes over. The list keeps its buffer: taking
    /// it whole makes the workers regrow one every CP and free it on
    /// another thread, which read as +1.8 % `peak_rss_mb` on the aged
    /// e2e workload (EXPERIMENTS.md "One completion queue").
    fn harvest(&mut self) -> Vec<Completion> {
        self.list.drain(..).collect()
    }
}

/// Shared state between the engine handle and its workers.
struct Inner {
    io: Arc<IoEngine>,
    rings: Vec<SubmitRing>,
    done: parking_lot::Mutex<Done>,
    done_cv: parking_lot::Condvar,
    submitted: AtomicU64,
    inflight: AtomicU64,
    depth_peak: AtomicU64,
    shutdown: AtomicBool,
    crashed: AtomicBool,
}

/// The asynchronous I/O engine (see module docs).
pub struct AioEngine {
    inner: Arc<Inner>,
    workers: parking_lot::Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl AioEngine {
    /// Build an engine over `io` with one worker and one submit ring
    /// per RAID group, and register it there ([`IoEngine::set_aio`]), so
    /// `io`'s stripes go through it for as long as it lives. `depth`
    /// bounds each ring (minimum 1): a submit against a full ring blocks
    /// until the worker makes room.
    pub fn new(io: Arc<IoEngine>, depth: usize) -> Arc<AioEngine> {
        let depth = depth.max(1);
        let groups = io.raid_groups().len();
        let rings = (0..groups)
            .map(|_| SubmitRing {
                q: parking_lot::Mutex::ranked(VecDeque::with_capacity(depth), "aio.queue", 73),
                not_full: parking_lot::Condvar::new(),
                not_empty: parking_lot::Condvar::new(),
                cap: depth,
            })
            .collect();
        let inner = Arc::new(Inner {
            io,
            rings,
            done: parking_lot::Mutex::ranked(Done::default(), "aio.done", 72),
            done_cv: parking_lot::Condvar::new(),
            submitted: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            depth_peak: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
        });
        let workers = (0..groups)
            .map(|rg| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("aio-rg{rg}"))
                    .spawn(move || worker_loop(&inner, rg))
                    .expect("spawn aio worker")
            })
            .collect();
        let engine = Arc::new(AioEngine {
            inner,
            workers: parking_lot::Mutex::ranked(workers, "aio.workers", 75),
        });
        engine.inner.io.set_aio(&engine);
        engine
    }

    /// The engine this one submits to.
    #[inline]
    pub fn io(&self) -> &Arc<IoEngine> {
        &self.inner.io
    }

    /// Enqueue a write I/O on its RAID group's submit ring. Blocks only
    /// when the ring is at capacity (backpressure). The returned ticket
    /// matches the eventual [`Completion::ticket`].
    pub fn submit(&self, wio: WriteIo) -> Result<IoTicket, IoError> {
        let inner = &*self.inner;
        // ordering: Relaxed RMW mints unique tickets; a completion is
        // ordered after its own mint by the submit ring's lock.
        let id = inner.submitted.fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed — statistics gauge.
        let depth = inner.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        // ordering: Acquire — see whether a crash point already fired;
        // pairs-with: aio.crashed.
        if inner.crashed.load(Ordering::Acquire) {
            // Crashed engine: the write is lost (powered-off media), but
            // the caller's ticket accounting must still balance.
            inner.account_dropped(1);
            return Ok(IoTicket(id));
        }
        // ordering: Relaxed — statistics high-water mark.
        inner.depth_peak.fetch_max(depth, Ordering::Relaxed);
        let ring = &inner.rings[wio.rg.0 as usize];
        let mut q = ring.q.lock();
        while q.len() >= ring.cap {
            ring.not_full.wait(&mut q);
            // A crash while parked: bail out like the pre-queue check.
            // ordering: Acquire — pairs with the crash point's Release;
            // pairs-with: aio.crashed.
            if inner.crashed.load(Ordering::Acquire) {
                drop(q);
                inner.account_dropped(1);
                return Ok(IoTicket(id));
            }
        }
        q.push_back(Pending {
            ticket: id,
            io: wio,
            submitted_at: Instant::now(),
        });
        ring.not_empty.notify_one();
        Ok(IoTicket(id))
    }

    /// Harvest every completion published so far, without blocking.
    pub fn poll_completions(&self) -> Vec<Completion> {
        self.inner.done.lock().harvest()
    }

    /// Barrier: wait until every prior submission has completed, fsync
    /// the file backend (if one is attached to the engine), and return
    /// all unharvested completions. This is the only point with
    /// ordering guarantees — completions before the barrier, in any
    /// order; nothing in flight after it.
    ///
    /// # Panics
    /// Re-raises, on this thread, a panic a worker raised while writing
    /// since the last drain, so a failed write fails the barrier instead
    /// of hanging it.
    pub fn drain(&self) -> Vec<Completion> {
        let inner = &*self.inner;
        let (harvested, panic) = {
            let mut done = inner.done.lock();
            // ordering: Relaxed — a submission made before this call is
            // visible by program order or the caller's own hand-off, and
            // every completion counted under the lock was minted (and so
            // counted here) first; reread because other threads' writes
            // may complete ahead of the ones this barrier is for.
            while done.completed < inner.submitted.load(Ordering::Relaxed) {
                inner.done_cv.wait(&mut done);
            }
            (done.harvest(), done.panic.take())
        };
        if let Some(panic) = panic {
            std::panic::resume_unwind(panic);
        }
        // The durability half of the barrier: everything the workers
        // wrote is on media before the caller proceeds (CP phase
        // boundary / superblock commit).
        let _ = inner.io.sync_media();
        harvested
    }

    /// Crash point: drop everything still queued (and, via the file
    /// mirror's crash flag, tear anything mid-write). Returns the
    /// number of queued writes dropped. The engine stays alive but
    /// every later submit is dropped too.
    pub fn crash_drop_inflight(&self) -> u64 {
        let inner = &*self.inner;
        // ordering: Release — later Acquire loads (submit, workers) see the
        // crash before they see any queue state mutated below;
        // pairs-with: aio.crashed.
        inner.crashed.store(true, Ordering::Release);
        inner.io.crash_mirror();
        let mut n = 0u64;
        for ring in &inner.rings {
            let mut q = ring.q.lock();
            n += q.len() as u64;
            q.clear();
            ring.not_full.notify_all();
            ring.not_empty.notify_all();
        }
        if n > 0 {
            inner.account_dropped(n);
        }
        n
    }

    /// Total writes submitted.
    pub fn submitted(&self) -> u64 {
        // ordering: Relaxed — a point-in-time reporting read.
        self.inner.submitted.load(Ordering::Relaxed)
    }

    /// Total writes completed (including crash-dropped ones).
    pub fn completed(&self) -> u64 {
        self.inner.done.lock().completed
    }

    /// Writes dropped by a crash point.
    pub fn dropped(&self) -> u64 {
        self.inner.done.lock().dropped
    }

    /// Writes currently submitted but not completed.
    pub fn inflight(&self) -> u64 {
        // ordering: Relaxed — statistics gauge.
        self.inner.inflight.load(Ordering::Relaxed)
    }

    /// High-water mark of [`AioEngine::inflight`].
    pub fn queue_depth_peak(&self) -> u64 {
        // ordering: Relaxed — statistics high-water mark.
        self.inner.depth_peak.load(Ordering::Relaxed)
    }

    /// Accumulated submit→complete latency over all completions.
    pub fn submit_to_complete_ns_total(&self) -> u64 {
        self.inner.done.lock().lat_total_ns
    }

    /// Stop the workers (draining their rings first unless crashed).
    /// Called automatically on drop.
    pub fn shutdown(&self) {
        // ordering: Release — workers' Acquire loads see the flag after
        // observing any queue state published before this call;
        // pairs-with: aio.shutdown.
        self.inner.shutdown.store(true, Ordering::Release);
        for ring in &self.inner.rings {
            let _q = ring.q.lock();
            ring.not_empty.notify_all();
            ring.not_full.notify_all();
        }
        let mut workers = self.workers.lock();
        for w in workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for AioEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for AioEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AioEngine")
            .field("rings", &self.inner.rings.len())
            .field("submitted", &self.submitted())
            .field("completed", &self.completed())
            .finish()
    }
}

impl Inner {
    /// Publish one finished write and wake any drainer. A write whose
    /// service panicked still counts as completed; its panic is kept
    /// (the first one only) for the next drain to re-raise.
    fn complete(
        &self,
        ticket: u64,
        outcome: std::thread::Result<Result<IoResult, IoError>>,
        ns: u64,
    ) {
        // ordering: Relaxed — statistics gauge.
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        let mut done = self.done.lock();
        match outcome {
            Ok(result) => done.list.push(Completion {
                ticket: IoTicket(ticket),
                result,
                submit_to_complete_ns: ns,
            }),
            Err(panic) => {
                done.panic.get_or_insert(panic);
            }
        }
        done.lat_total_ns += ns;
        done.completed += 1;
        self.done_cv.notify_all();
    }

    /// Count `n` writes lost to a crash point as completed (the caller's
    /// ticket accounting must balance) and wake any drainer.
    fn account_dropped(&self, n: u64) {
        // ordering: Relaxed — statistics gauge.
        self.inflight.fetch_sub(n, Ordering::Relaxed);
        let mut done = self.done.lock();
        done.dropped += n;
        done.completed += n;
        self.done_cv.notify_all();
    }
}

/// Worker: drain one RAID group's submit ring in FIFO order. One
/// worker per group means each drive observes the same op sequence at
/// any queue depth, so fault-plan draws, retry backoff, and
/// consecutive-error offlining are depth-invariant.
fn worker_loop(inner: &Inner, rg: usize) {
    let ring = &inner.rings[rg];
    loop {
        let pending = {
            let mut q = ring.q.lock();
            loop {
                if let Some(p) = q.pop_front() {
                    ring.not_full.notify_one();
                    break p;
                }
                // ordering: Acquire — pairs with shutdown's Release store;
                // pairs-with: aio.shutdown.
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                ring.not_empty.wait(&mut q);
            }
        };
        // ordering: Acquire — a crash point fired while this item was
        // queued; drop it exactly as the crash path drops the rest;
        // pairs-with: aio.crashed.
        if inner.crashed.load(Ordering::Acquire) {
            inner.account_dropped(1);
            continue;
        }
        let sp = obs::trace_span!(obs::EventKind::Io, pending.io.blocks());
        // A panic while writing goes to the next drain, which re-raises
        // it. The write still counts as completed, so the drain is not
        // left waiting for it, and the worker lives on.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inner.io.submit_write(&pending.io)
        }));
        drop(sp);
        let ns = pending.submitted_at.elapsed().as_nanos() as u64;
        inner.complete(pending.ticket, outcome, ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::DriveKind;
    use crate::fault::{FaultSpec, RetryPolicy};
    use crate::geometry::{GeometryBuilder, Vbn};
    use crate::io::WriteSegment;

    fn engine() -> Arc<IoEngine> {
        Arc::new(IoEngine::new(
            Arc::new(
                GeometryBuilder::new()
                    .aa_stripes(32)
                    .raid_group(3, 1, 512)
                    .raid_group(2, 1, 512)
                    .build(),
            ),
            DriveKind::Ssd,
        ))
    }

    fn stripe_io(rg: u32, start: u64, depth: u64, width: u32, salt: u64) -> WriteIo {
        WriteIo {
            rg: RaidGroupId(rg),
            segments: (0..width)
                .map(|d| WriteSegment {
                    drive_in_rg: d,
                    start_dbn: start,
                    stamps: (0..depth)
                        .map(|i| crate::stamp(salt ^ d as u64, start + i, 1))
                        .collect(),
                })
                .collect(),
        }
    }

    #[test]
    fn submit_poll_drain_roundtrip() {
        let io = engine();
        let aio = AioEngine::new(Arc::clone(&io), 8);
        let mut tickets = Vec::new();
        for s in 0..6u64 {
            tickets.push(aio.submit(stripe_io(0, s * 4, 4, 3, 7)).unwrap());
        }
        let done = aio.drain();
        assert_eq!(done.len(), 6);
        assert_eq!(aio.inflight(), 0);
        assert_eq!(aio.completed(), 6);
        assert!(aio.queue_depth_peak() >= 1);
        let mut got: Vec<u64> = done.iter().map(|c| c.ticket.id()).collect();
        got.sort_unstable();
        let mut want: Vec<u64> = tickets.iter().map(|t| t.id()).collect();
        want.sort_unstable();
        assert_eq!(got, want, "every ticket completes exactly once");
        for c in &done {
            let r = c.result.as_ref().unwrap();
            assert_eq!(r.blocks_written, 12);
            assert_eq!(r.parity_reads, 0, "aligned stripes are full-stripe");
        }
        // Media state identical to the synchronous path.
        assert_eq!(io.full_stripe_ratio(), Some(1.0));
        io.scrub().unwrap();
        assert_eq!(io.read_vbn(Vbn(0)).unwrap(), crate::stamp(7, 0, 1));
    }

    /// Submit `n` two-block stripes to `rg`, wrapping within the drive.
    fn submit_stripes(aio: &AioEngine, rg: u32, width: u32, n: u64) {
        for i in 0..n {
            aio.submit(stripe_io(rg, (i * 2) % 512, 2, width, 13))
                .unwrap();
        }
    }

    fn sorted_ids(done: impl IntoIterator<Item = Completion>) -> Vec<u64> {
        let mut ids: Vec<u64> = done.into_iter().map(|c| c.ticket.id()).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn burst_between_polls_is_delivered_exactly_once() {
        // Nothing harvests until the one drain at the end, so the list
        // holds the whole burst (far beyond either ring's depth of 8).
        let aio = AioEngine::new(engine(), 8);
        std::thread::scope(|s| {
            s.spawn(|| submit_stripes(&aio, 0, 3, 300));
            s.spawn(|| submit_stripes(&aio, 1, 2, 300));
        });
        assert_eq!(sorted_ids(aio.drain()), (0..600).collect::<Vec<_>>());
        assert!(aio.poll_completions().is_empty());
    }

    #[test]
    fn concurrent_pollers_lose_and_duplicate_nothing() {
        let aio = AioEngine::new(engine(), 8);
        let n = 600;
        let mut got = std::thread::scope(|s| {
            let pollers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let mut got = Vec::new();
                        while aio.completed() < n {
                            got.extend(aio.poll_completions());
                        }
                        got
                    })
                })
                .collect();
            s.spawn(|| submit_stripes(&aio, 0, 3, n / 2));
            s.spawn(|| submit_stripes(&aio, 1, 2, n / 2));
            pollers
                .into_iter()
                .flat_map(|p| p.join().unwrap())
                .collect::<Vec<_>>()
        });
        got.extend(aio.drain());
        assert_eq!(sorted_ids(got), (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn drain_never_sleeps_through_the_last_completion() {
        // One write in flight per round, and the one wake-up the drainer
        // will ever get is for it. No wait in the engine has a timeout, so
        // a completion that forgets to notify hangs this test. The lag
        // sweeps the drainer's arrival across the worker's completion, so
        // a count that runs ahead of the list (bumped before the push
        // instead of under its lock) lets a drain return without its
        // completion within a few thousand rounds. (A count bumped
        // *after* the lock is released loses a wake-up only inside the
        // few instructions between predicate and park: EXPERIMENTS.md
        // "One completion queue" has the rounds that took.)
        let aio = AioEngine::new(engine(), 8);
        for round in 0..30_000u64 {
            aio.submit(stripe_io(0, (round * 2) % 512, 2, 3, 17))
                .unwrap();
            let submitted_at = Instant::now();
            let lag = std::time::Duration::from_nanos(round % 256 * 200);
            while submitted_at.elapsed() < lag {
                std::hint::spin_loop();
            }
            assert_eq!(sorted_ids(aio.drain()), [round]);
        }
    }

    /// A panic on an aio worker fails the next `drain` on the draining
    /// thread. Without the catch the worker dies with the write
    /// uncounted, and `drain`, whose wait has no timeout, never returns.
    /// No write input panics (an I/O is checked before any drive op), so
    /// the panic here is an overflow: a latency spike of `u64::MAX` ns on
    /// every drive op overflows the service-time sum, which only a debug
    /// build checks.
    #[cfg(debug_assertions)]
    #[test]
    fn worker_panic_fails_drain_instead_of_hanging() {
        let spikes = FaultSpec {
            latency_spike_ppm: 1_000_000,
            latency_spike_ns: u64::MAX,
            ..FaultSpec::default()
        };
        let geo = Arc::clone(engine().geometry());
        let aio = AioEngine::new(
            Arc::new(IoEngine::with_faults(geo, DriveKind::Ssd, spikes)),
            8,
        );
        aio.submit(stripe_io(0, 0, 2, 3, 1)).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| aio.drain()));
            // Shut the engine down before replying, so the bounded wait
            // below covers the shutdown too.
            drop(aio);
            let _ = tx.send(r.err().and_then(|p| p.downcast::<&str>().ok().map(|s| *s)));
        });
        let msg = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("drain and the engine's shutdown returned within 10 s");
        let msg = msg.expect("drain re-raised the worker's panic message");
        assert!(msg.contains("overflow"), "{msg}");
        helper.join().expect("helper thread exits");
    }

    #[test]
    fn depth_one_serializes_depth_eight_overlaps() {
        let io = engine();
        let aio = AioEngine::new(io, 8);
        for s in 0..20u64 {
            aio.submit(stripe_io(0, s * 2, 2, 3, 3)).unwrap();
            aio.submit(stripe_io(1, s * 2, 2, 2, 4)).unwrap();
        }
        let done = aio.drain();
        assert_eq!(done.len(), 40);
        // Two RAID groups → up to two writes genuinely in flight at once.
        assert!(aio.queue_depth_peak() >= 2);
    }

    #[test]
    fn fault_accounting_is_depth_invariant() {
        // The same seeded fault plan must produce the same retry and
        // offlining decisions whether writes queue 1-deep or 8-deep:
        // decisions are drawn per drive-op *completion* in worker FIFO
        // order, not per submission.
        let spec = FaultSpec {
            seed: 0xD15C,
            write_error_ppm: 120_000,
            ..FaultSpec::default()
        };
        let run = |depth: usize| {
            let geo = Arc::new(
                GeometryBuilder::new()
                    .aa_stripes(32)
                    .raid_group(3, 1, 512)
                    .build(),
            );
            let io = Arc::new(IoEngine::with_faults_and_policy(
                geo,
                DriveKind::Ssd,
                spec,
                RetryPolicy::default(),
            ));
            let aio = AioEngine::new(Arc::clone(&io), depth);
            for s in 0..40u64 {
                aio.submit(stripe_io(0, s * 4, 4, 3, 9)).unwrap();
            }
            let done = aio.drain();
            assert_eq!(done.len(), 40);
            io.fault_snapshot()
        };
        let d1 = run(1);
        let d8 = run(8);
        assert_eq!(d1, d8, "fault accounting must not depend on queue depth");
        assert!(d1.io_retries > 0, "the seed injects retried transients");
        assert_eq!(d1.drives_offline, 0);
    }

    #[test]
    fn crash_drops_queued_writes_but_balances_tickets() {
        let io = engine();
        let aio = AioEngine::new(io, 4);
        for s in 0..12u64 {
            aio.submit(stripe_io(0, s * 2, 2, 3, 5)).unwrap();
        }
        aio.crash_drop_inflight();
        // Post-crash submissions are dropped, not queued.
        aio.submit(stripe_io(0, 100, 2, 3, 5)).unwrap();
        let done = aio.drain(); // must not hang
        assert_eq!(aio.completed(), aio.submitted());
        assert!(aio.dropped() >= 1, "at least the post-crash submit dropped");
        assert!(done.len() as u64 <= 13 - aio.dropped());
    }

    #[test]
    fn file_backend_mirrors_and_reloads() {
        let dir = std::env::temp_dir().join(format!("wafl-aio-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let io = engine();
        let backend =
            Arc::new(FileBackend::open(&dir, io.geometry(), SyncPolicy::Barrier).unwrap());
        io.attach_mirror(Arc::clone(&backend));
        let aio = AioEngine::new(Arc::clone(&io), 8);
        for s in 0..8u64 {
            aio.submit(stripe_io(0, s * 4, 4, 3, 11)).unwrap();
        }
        aio.drain();
        io.write_vbn(Vbn(700), 0xFEED).unwrap(); // sync path mirrors too
        io.sync_media().unwrap();
        // Remount into a fresh engine from the files alone.
        let fresh = engine();
        let back2 = FileBackend::open(&dir, fresh.geometry(), SyncPolicy::Barrier).unwrap();
        let loaded = back2.load_into(&fresh).unwrap();
        assert_eq!(loaded, 8 * 4 * 3 + 1);
        for s in 0..8u64 {
            for d in 0..3u64 {
                let vbn = Vbn(d * 512 + s * 4);
                assert_eq!(
                    fresh.read_vbn(vbn).unwrap(),
                    crate::stamp(11 ^ d, s * 4, 1),
                    "reloaded stamp at {vbn:?}"
                );
            }
        }
        assert_eq!(fresh.read_vbn(Vbn(700)).unwrap(), 0xFEED);
        fresh.scrub().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_crash_tears_writes() {
        let dir = std::env::temp_dir().join(format!("wafl-aio-tear-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let io = engine();
        let backend =
            Arc::new(FileBackend::open(&dir, io.geometry(), SyncPolicy::Barrier).unwrap());
        io.attach_mirror(Arc::clone(&backend));
        io.write_vbn(Vbn(0), 0xAA).unwrap();
        backend.crash();
        io.write_vbn(Vbn(1), 0xBB).unwrap(); // dropped at the mirror
        let fresh = engine();
        let back2 = FileBackend::open(&dir, fresh.geometry(), SyncPolicy::Barrier).unwrap();
        back2.load_into(&fresh).unwrap();
        assert_eq!(fresh.read_vbn(Vbn(0)).unwrap(), 0xAA);
        assert_eq!(fresh.read_vbn(Vbn(1)).unwrap(), 0, "post-crash write lost");
        fresh.scrub().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn block_device_probe_is_typed_rejection() {
        let dev = Path::new("/dev/vda");
        if DiskKind::probe(dev) != DiskKind::BlockDevice {
            return; // environment without the device: nothing to assert
        }
        let geo = GeometryBuilder::new()
            .aa_stripes(8)
            .raid_group(1, 1, 16)
            .build();
        match FileBackend::open(dev, &geo, SyncPolicy::Barrier) {
            Err(IoError::NotYetSupported { .. }) => {}
            other => panic!("expected NotYetSupported, got {other:?}"),
        }
    }
}
