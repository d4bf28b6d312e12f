//! The aggregate-level write-I/O engine.
//!
//! A **tetris** (§IV-E) is the unit of write I/O in WAFL: a contiguous
//! collection of stripes, one buffer list per drive. The `alligator` crate
//! builds tetris structures; when a tetris is complete it is "sent to
//! RAID" — that is, submitted here as a [`WriteIo`].
//!
//! The engine resolves VBNs to drives, forwards the write to the owning
//! [`crate::raid::RaidGroup`], and maintains aggregate-wide
//! counters that the evaluation harness reads (full-stripe ratio, blocks
//! written per drive, simulated busy time).

use crate::aio::{AioEngine, Completion, FileBackend};
use crate::drive::DriveKind;
use crate::fault::{FaultPlan, FaultSpec, IoError, RetryPolicy};
use crate::geometry::{AggregateGeometry, BlockLoc, DriveId, RaidGroupId, Vbn};
use crate::raid::RaidGroup;
use crate::BlockStamp;
use parking_lot::Mutex;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// One contiguous run of blocks on a single data drive within a write.
#[derive(Debug, Clone)]
pub struct WriteSegment {
    /// Index of the drive within its RAID group.
    pub drive_in_rg: u32,
    /// Starting DBN of the run.
    pub start_dbn: u64,
    /// Block payloads, one per DBN starting at `start_dbn`.
    pub stamps: Vec<BlockStamp>,
}

/// A write I/O against one RAID group (the on-the-wire form of a tetris).
#[derive(Debug, Clone)]
pub struct WriteIo {
    /// Target RAID group.
    pub rg: RaidGroupId,
    /// Per-drive segments. Multiple segments per drive are allowed.
    pub segments: Vec<WriteSegment>,
}

impl WriteIo {
    /// Total number of data blocks in the I/O.
    pub fn blocks(&self) -> u64 {
        self.segments.iter().map(|s| s.stamps.len() as u64).sum()
    }
}

/// Outcome of a submitted write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct IoResult {
    /// Simulated service time of the whole I/O (max over drives).
    pub service_ns: u64,
    /// Data blocks read back for parity (0 for pure full-stripe I/O).
    pub parity_reads: u64,
    /// Data blocks written.
    pub blocks_written: u64,
}

/// Aggregate-wide I/O counters.
#[derive(Debug, Default)]
pub struct IoCounters {
    /// Write I/Os submitted.
    pub write_ios: AtomicU64,
    /// Data blocks written.
    pub blocks_written: AtomicU64,
    /// Parity-driven data reads.
    pub parity_reads: AtomicU64,
    /// Accumulated simulated service time.
    pub service_ns: AtomicU64,
}

impl IoCounters {
    /// Plain-value snapshot.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            // ordering: statistics counter; staleness is acceptable.
            write_ios: self.write_ios.load(Ordering::Relaxed),
            // ordering: statistics counter; staleness is acceptable.
            blocks_written: self.blocks_written.load(Ordering::Relaxed),
            // ordering: statistics counter; staleness is acceptable.
            parity_reads: self.parity_reads.load(Ordering::Relaxed),
            // ordering: statistics counter; staleness is acceptable.
            service_ns: self.service_ns.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of [`IoCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct IoSnapshot {
    /// Write I/Os submitted.
    pub write_ios: u64,
    /// Data blocks written.
    pub blocks_written: u64,
    /// Parity-driven data reads.
    pub parity_reads: u64,
    /// Accumulated simulated service time.
    pub service_ns: u64,
}

/// Aggregate-wide fault/degraded-mode counters, summed over RAID groups.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct FaultSnapshot {
    /// Blocks served by XOR reconstruction instead of the home drive.
    pub reconstructed_reads: u64,
    /// Stripes written or read while one member was offline.
    pub degraded_stripes: u64,
    /// Data blocks whose media write was skipped (drive offline).
    pub degraded_writes: u64,
    /// Drive-op retries performed by the bounded-backoff policy.
    pub io_retries: u64,
    /// Drive-op errors observed (before retry resolution).
    pub io_errors: u64,
    /// Blocks rewritten onto media by the repair paths (whole-drive
    /// rebuilds plus single-block scrub repairs).
    pub blocks_rebuilt: u64,
    /// Drives (data + parity) currently out of service.
    pub drives_offline: u64,
}

/// The aggregate I/O engine: geometry + RAID groups + counters.
pub struct IoEngine {
    geometry: Arc<AggregateGeometry>,
    groups: Vec<RaidGroup>,
    counters: IoCounters,
    fault: Option<Arc<FaultPlan>>,
    /// Optional real-file mirror: every write that completes against the
    /// simulated drives is also persisted here (see [`crate::aio`]).
    mirror: Mutex<Option<Arc<FileBackend>>>,
    /// Back-reference to the async engine built over this one, which
    /// every stripe goes through. Weak: the [`AioEngine`] owns an
    /// `Arc<IoEngine>`, never the reverse.
    aio: Mutex<Weak<AioEngine>>,
}

impl IoEngine {
    /// Build the engine and all backing drives for a geometry.
    pub fn new(geometry: Arc<AggregateGeometry>, kind: DriveKind) -> Self {
        let groups = geometry
            .raid_groups()
            .iter()
            .map(|g| RaidGroup::new(g.clone(), kind))
            .collect();
        Self {
            geometry,
            groups,
            counters: IoCounters::default(),
            fault: None,
            mirror: Mutex::ranked(None, "io.mirror", 70),
            aio: Mutex::ranked(Weak::new(), "io.aio", 71),
        }
    }

    /// Attach a real-file mirror: from now on every successful
    /// [`IoEngine::submit_write`] is also applied to the backing files.
    /// Attach **after** [`FileBackend::load_into`] on remount, so the
    /// load is not echoed back into the files.
    pub fn attach_mirror(&self, backend: Arc<FileBackend>) {
        *self.mirror.lock() = Some(backend);
    }

    /// The attached file mirror, if any.
    pub fn file_mirror(&self) -> Option<Arc<FileBackend>> {
        self.mirror.lock().clone()
    }

    /// Durability barrier: fdatasync the file mirror (no-op without one).
    pub fn sync_media(&self) -> Result<(), IoError> {
        if let Some(m) = self.file_mirror() {
            m.sync_all().map_err(|_| IoError::Unrecoverable {
                detail: "file backend fsync failed",
            })?;
        }
        Ok(())
    }

    /// Crash the file mirror (power-loss simulation): subsequent mirror
    /// writes are dropped, and one mid-flight write may be torn.
    pub fn crash_mirror(&self) {
        if let Some(m) = self.file_mirror() {
            m.crash();
        }
    }

    /// Register an async engine layered on top of this one. From now on
    /// [`IoEngine::write`], [`IoEngine::poll`], [`IoEngine::barrier`] and
    /// [`IoEngine::crash`] go through it. [`AioEngine::new`] registers
    /// the engine it builds, so this only re-points an `IoEngine` at an
    /// engine that already exists.
    pub fn set_aio(&self, engine: &Arc<AioEngine>) {
        *self.aio.lock() = Arc::downgrade(engine);
    }

    /// The registered async engine, if one is attached and still alive.
    pub fn aio(&self) -> Option<Arc<AioEngine>> {
        self.aio.lock().upgrade()
    }

    /// The registered engine, for the verbs that go through it.
    fn engine(&self) -> Arc<AioEngine> {
        // invariant: whoever writes stripes through this engine built an
        // `AioEngine` over it and keeps it alive (a `Filesystem` owns its
        // own); there is no inline stripe path to fall back to.
        self.aio()
            .expect("stripe I/O on an IoEngine with no AioEngine built over it")
    }

    /// Send a tetris to RAID. The write is only enqueued on the attached
    /// [`AioEngine`] — it completes in the background, so parity
    /// computation for the next tetris overlaps this one's media time —
    /// and its outcome arrives as a [`Completion`] from
    /// [`IoEngine::poll`] or [`IoEngine::barrier`]. An I/O with nothing
    /// in it (a tetris whose buckets all came back unused) reaches no
    /// drive and is only counted, inline.
    pub fn write(&self, io: WriteIo) {
        if io.segments.is_empty() {
            // invariant: with no segment there is no drive op and no
            // mirror write, so nothing in `submit_write` can fail.
            self.submit_write(&io)
                .expect("an empty write reaches no drive");
            return;
        }
        // invariant: `AioEngine::submit` has no failing path; a write
        // lost to a crash point still gets its ticket.
        self.engine()
            .submit(io)
            .expect("AioEngine::submit does not fail");
    }

    /// Completions of queued writes that have finished since the last
    /// call, without blocking.
    pub fn poll(&self) -> Vec<Completion> {
        self.engine().poll_completions()
    }

    /// The durability barrier: wait for every queued write, make the file
    /// mirror (if any) durable, and return the unharvested completions.
    pub fn barrier(&self) -> Vec<Completion> {
        self.engine().drain()
    }

    /// A crash point fired: everything submitted but not yet on media is
    /// lost. Queued writes are dropped and the file mirror (if any)
    /// stops persisting, tearing at most one mid-flight stripe.
    ///
    /// What a recovery may rely on afterwards is weaker than "the
    /// committed image is intact": a CP reuses blocks freed *within* it
    /// (an overwrite's old PVBN is staged by the cleaner, a full stage
    /// clears its active-map bit, a later refill of the same CP hands it
    /// out), so writes that did reach media before this call may have
    /// overwritten blocks the committed image still maps. Every such
    /// block was freed by an operation still in the un-retired NVLog
    /// halves, so replay supersedes it
    /// (`abandoned_cp_overwrites_only_blocks_the_log_supersedes`).
    pub fn crash(&self) {
        self.engine().crash_drop_inflight();
    }

    /// Build an engine whose drives (data and parity) share a seeded
    /// [`FaultPlan`], with the default [`RetryPolicy`].
    pub fn with_faults(geometry: Arc<AggregateGeometry>, kind: DriveKind, spec: FaultSpec) -> Self {
        Self::with_faults_and_policy(geometry, kind, spec, RetryPolicy::default())
    }

    /// Build a fault-injected engine with an explicit retry/offlining
    /// policy.
    pub fn with_faults_and_policy(
        geometry: Arc<AggregateGeometry>,
        kind: DriveKind,
        spec: FaultSpec,
        policy: RetryPolicy,
    ) -> Self {
        let mut engine = Self::new(geometry, kind);
        let plan = Arc::new(FaultPlan::new(spec));
        for g in &mut engine.groups {
            g.set_retry_policy(policy);
        }
        for g in &engine.groups {
            for d in g.data_drives().iter().chain(g.parity_drives()) {
                d.set_fault_plan(Arc::clone(&plan));
            }
        }
        engine.fault = Some(plan);
        engine
    }

    /// The installed fault plan, if any.
    #[inline]
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.fault.as_ref()
    }

    /// The aggregate geometry.
    #[inline]
    pub fn geometry(&self) -> &Arc<AggregateGeometry> {
        &self.geometry
    }

    /// Access one RAID group.
    #[inline]
    pub fn raid_group(&self, rg: RaidGroupId) -> &RaidGroup {
        &self.groups[rg.0 as usize]
    }

    /// All RAID groups.
    #[inline]
    pub fn raid_groups(&self) -> &[RaidGroup] {
        &self.groups
    }

    /// Aggregate counters.
    #[inline]
    pub fn counters(&self) -> &IoCounters {
        &self.counters
    }

    /// Submit a write I/O (a completed tetris). A single drive failure is
    /// absorbed by the RAID layer's degraded mode; the error surfaces
    /// only when the write is unrecoverable (or structurally invalid).
    pub fn submit_write(&self, io: &WriteIo) -> Result<IoResult, IoError> {
        let g = self
            .groups
            .get(io.rg.0 as usize)
            .ok_or(IoError::NoSuchTarget {
                rg: io.rg,
                drive_in_rg: None,
            })?;
        let (service_ns, parity_reads) = g.write_segments(&io.segments)?;
        let blocks = io.blocks();
        if let Some(m) = self.file_mirror() {
            m.apply_write(io).map_err(|_| IoError::Unrecoverable {
                detail: "file backend write failed",
            })?;
        }
        // ordering: statistics counter; staleness is acceptable.
        self.counters.write_ios.fetch_add(1, Ordering::Relaxed);
        self.counters
            .blocks_written
            // ordering: statistics counter; staleness is acceptable.
            .fetch_add(blocks, Ordering::Relaxed);
        self.counters
            .parity_reads
            // ordering: statistics counter; staleness is acceptable.
            .fetch_add(parity_reads, Ordering::Relaxed);
        self.counters
            .service_ns
            // ordering: statistics counter; staleness is acceptable.
            .fetch_add(service_ns, Ordering::Relaxed);
        Ok(IoResult {
            service_ns,
            parity_reads,
            blocks_written: blocks,
        })
    }

    /// Convenience: write a single block at a VBN (used by metafile flushes
    /// and the superblock path, which bypass tetris construction).
    pub fn write_vbn(&self, vbn: Vbn, stamp: BlockStamp) -> Result<IoResult, IoError> {
        let loc = self.geometry.locate(vbn)?;
        self.submit_write(&WriteIo {
            rg: loc.rg,
            segments: vec![WriteSegment {
                drive_in_rg: loc.drive_in_rg,
                start_dbn: loc.dbn.0,
                stamps: vec![stamp],
            }],
        })
    }

    /// Read the stamp stored at a VBN, transparently served by
    /// degraded-mode reconstruction when the home drive has failed.
    pub fn read_vbn(&self, vbn: Vbn) -> Result<BlockStamp, IoError> {
        let BlockLoc {
            rg,
            drive_in_rg,
            dbn,
            ..
        } = self.geometry.locate(vbn)?;
        Ok(self.groups[rg.0 as usize].read_block(drive_in_rg, dbn)?.0)
    }

    /// Verify parity across the whole aggregate (scrub). Inspects raw
    /// media, so it fails while a group is degraded and passes again
    /// after [`IoEngine::rebuild_offline`].
    pub fn scrub(&self) -> Result<(), String> {
        for g in &self.groups {
            g.verify_parity(0, g.geometry().blocks_per_drive)?;
        }
        Ok(())
    }

    /// Rebuild every offline drive in the aggregate. Returns total
    /// blocks rebuilt.
    pub fn rebuild_offline(&self) -> u64 {
        self.groups.iter().map(|g| g.rebuild_offline()).sum()
    }

    /// Ids of all drives (data and parity) currently out of service.
    pub fn offline_drives(&self) -> Vec<DriveId> {
        let mut out = Vec::new();
        for g in &self.groups {
            for d in g.data_drives().iter().chain(g.parity_drives()) {
                if d.is_offline() {
                    out.push(d.id());
                }
            }
        }
        out
    }

    /// Aggregate-wide fault/degraded-mode counters.
    pub fn fault_snapshot(&self) -> FaultSnapshot {
        let mut s = FaultSnapshot::default();
        for g in &self.groups {
            let c = g.counters();
            // ordering: statistics counter; staleness is acceptable.
            s.reconstructed_reads += c.reconstructed_reads.load(Ordering::Relaxed);
            // ordering: statistics counter; staleness is acceptable.
            s.degraded_stripes += c.degraded_stripes.load(Ordering::Relaxed);
            // ordering: statistics counter; staleness is acceptable.
            s.degraded_writes += c.degraded_writes.load(Ordering::Relaxed);
            // ordering: statistics counter; staleness is acceptable.
            s.io_retries += c.io_retries.load(Ordering::Relaxed);
            // ordering: statistics counter; staleness is acceptable.
            s.io_errors += c.io_errors.load(Ordering::Relaxed);
            // ordering: statistics counter; staleness is acceptable.
            s.blocks_rebuilt += c.blocks_rebuilt.load(Ordering::Relaxed);
        }
        s.drives_offline = self.offline_drives().len() as u64;
        s
    }

    /// Fraction of stripes written full-stripe, aggregated over all groups.
    /// Returns `None` before any stripe has been written.
    pub fn full_stripe_ratio(&self) -> Option<f64> {
        let (mut full, mut partial) = (0u64, 0u64);
        for g in &self.groups {
            // ordering: statistics counter; staleness is acceptable.
            full += g.counters().full_stripe_writes.load(Ordering::Relaxed);
            // ordering: statistics counter; staleness is acceptable.
            partial += g.counters().partial_stripe_writes.load(Ordering::Relaxed);
        }
        let total = full + partial;
        (total > 0).then(|| full as f64 / total as f64)
    }
}

impl std::fmt::Debug for IoEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoEngine")
            .field("raid_groups", &self.groups.len())
            .field("total_vbns", &self.geometry.total_vbns())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSpec;
    use crate::geometry::GeometryBuilder;

    fn engine() -> IoEngine {
        let geo = Arc::new(
            GeometryBuilder::new()
                .aa_stripes(32)
                .raid_group(3, 1, 512)
                .raid_group(2, 1, 512)
                .build(),
        );
        IoEngine::new(geo, DriveKind::Ssd)
    }

    #[test]
    fn write_vbn_then_read_vbn() {
        let e = engine();
        e.write_vbn(Vbn(1500), 0xabc).unwrap();
        assert_eq!(e.read_vbn(Vbn(1500)).unwrap(), 0xabc);
        assert_eq!(e.read_vbn(Vbn(1501)).unwrap(), 0);
    }

    #[test]
    fn out_of_range_vbn_errors() {
        let e = engine();
        let total = e.geometry().total_vbns();
        assert!(matches!(
            e.read_vbn(Vbn(total)),
            Err(crate::fault::IoError::OutOfRange { .. })
        ));
        assert!(matches!(
            e.write_vbn(Vbn(total + 5), 1),
            Err(crate::fault::IoError::OutOfRange { .. })
        ));
    }

    #[test]
    fn injected_drive_failure_served_degraded_then_rebuilt() {
        let geo = Arc::new(
            GeometryBuilder::new()
                .aa_stripes(32)
                .raid_group(3, 1, 512)
                .build(),
        );
        // Drive 1 dies after 4 ops.
        let e = IoEngine::with_faults(geo, DriveKind::Ssd, FaultSpec::drive_failure(1, 4));
        for v in 0..40u64 {
            for d in 0..3u64 {
                e.write_vbn(Vbn(d * 512 + v), crate::stamp(d, v, 1))
                    .unwrap();
            }
        }
        assert_eq!(e.offline_drives(), vec![DriveId(1)]);
        // Every block — including the dead drive's — reads back correct.
        for v in 0..40u64 {
            for d in 0..3u64 {
                assert_eq!(e.read_vbn(Vbn(d * 512 + v)).unwrap(), crate::stamp(d, v, 1));
            }
        }
        let s = e.fault_snapshot();
        assert!(s.reconstructed_reads > 0);
        assert!(s.degraded_writes > 0);
        assert_eq!(s.drives_offline, 1);
        // Scrub fails while degraded, passes after rebuild.
        assert!(e.scrub().is_err());
        assert!(e.rebuild_offline() > 0);
        assert!(e.offline_drives().is_empty());
        e.scrub().unwrap();
    }

    #[test]
    fn full_tetris_write_is_all_full_stripes() {
        let e = engine();
        // Cover stripes [0, 4) of RG0 on all three drives.
        let io = WriteIo {
            rg: RaidGroupId(0),
            segments: (0..3)
                .map(|d| WriteSegment {
                    drive_in_rg: d,
                    start_dbn: 0,
                    stamps: vec![crate::stamp(d as u64, 0, 1); 4],
                })
                .collect(),
        };
        let r = e.submit_write(&io).unwrap();
        assert_eq!(r.parity_reads, 0);
        assert_eq!(r.blocks_written, 12);
        assert_eq!(e.full_stripe_ratio(), Some(1.0));
        e.scrub().unwrap();
    }

    #[test]
    fn ragged_tetris_pays_parity_reads() {
        let e = engine();
        let io = WriteIo {
            rg: RaidGroupId(1),
            segments: vec![WriteSegment {
                drive_in_rg: 0,
                start_dbn: 10,
                stamps: vec![7; 2],
            }],
        };
        let r = e.submit_write(&io).unwrap();
        assert_eq!(r.parity_reads, 2); // the other drive, 2 stripes
        assert!(e.full_stripe_ratio().unwrap() < 1.0);
        e.scrub().unwrap();
    }

    #[test]
    fn overlapping_segments_are_rejected_before_any_drive_op() {
        let e = engine();
        let seg = |start_dbn, stamps: Vec<BlockStamp>| WriteSegment {
            drive_in_rg: 1,
            start_dbn,
            stamps,
        };
        let io = WriteIo {
            rg: RaidGroupId(0),
            segments: vec![
                seg(20, vec![1; 4]),
                seg(10, vec![2; 3]),
                seg(12, vec![3; 2]),
            ],
        };
        let g = e.raid_group(RaidGroupId(0));
        assert_eq!(
            e.submit_write(&io),
            Err(IoError::OverlappingWrite {
                drive: g.data_drives()[1].id(),
                dbn: crate::geometry::Dbn(12),
            })
        );
        for d in g.data_drives().iter().chain(g.parity_drives()) {
            assert_eq!(d.stats(), Default::default(), "no drive op ran");
        }
        assert_eq!(e.counters().snapshot(), IoSnapshot::default());
        e.scrub().unwrap();
    }

    /// A partial-stripe run past the end of a drive used to read the
    /// untouched block past the end, take that for a dead drive and
    /// panic in `Drive::peek` while reconstructing it.
    #[test]
    fn write_past_the_end_of_a_drive_is_a_capacity_error() {
        let e = engine();
        let io = WriteIo {
            rg: RaidGroupId(1),
            segments: vec![WriteSegment {
                drive_in_rg: 0,
                start_dbn: 510,
                stamps: vec![7; 4],
            }],
        };
        let g = e.raid_group(RaidGroupId(1));
        assert_eq!(
            e.submit_write(&io),
            Err(IoError::Capacity {
                drive: g.data_drives()[0].id(),
                dbn: crate::geometry::Dbn(510),
                blocks: 4,
            })
        );
        for d in g.data_drives().iter().chain(g.parity_drives()) {
            assert_eq!(d.stats(), Default::default(), "no drive op ran");
        }
        e.scrub().unwrap();
    }

    #[test]
    fn write_to_a_missing_group_or_drive_is_rejected() {
        let e = engine();
        let io = |rg, drive_in_rg| WriteIo {
            rg: RaidGroupId(rg),
            segments: vec![WriteSegment {
                drive_in_rg,
                start_dbn: 0,
                stamps: vec![7],
            }],
        };
        assert_eq!(
            e.submit_write(&io(2, 0)),
            Err(IoError::NoSuchTarget {
                rg: RaidGroupId(2),
                drive_in_rg: None,
            })
        );
        assert_eq!(
            e.submit_write(&io(1, 2)),
            Err(IoError::NoSuchTarget {
                rg: RaidGroupId(1),
                drive_in_rg: Some(2),
            })
        );
        assert_eq!(e.counters().snapshot(), IoSnapshot::default());
        e.scrub().unwrap();
    }

    #[test]
    fn counters_accumulate_across_ios() {
        let e = engine();
        e.write_vbn(Vbn(0), 1).unwrap();
        e.write_vbn(Vbn(700), 2).unwrap();
        let s = e.counters().snapshot();
        assert_eq!(s.write_ios, 2);
        assert_eq!(s.blocks_written, 2);
        assert!(s.service_ns > 0);
    }

    #[test]
    fn scrub_detects_everything_consistent_initially() {
        engine().scrub().unwrap();
    }
}
