//! Simulated drives: in-memory block media plus a service-time model.
//!
//! The paper's testbeds use all-SSD aggregates (Figs 4–7, 9) and a
//! SAS-HDD + SSD "Flash Pool" (Fig 8). We model a drive as:
//!
//! * a content store mapping DBN → [`crate::BlockStamp`], used
//!   by integrity tests (what you read is what was last written);
//! * a [`ServiceModel`] that converts an I/O (seek-or-not + blocks moved)
//!   into simulated nanoseconds, used by the discrete-event server model.
//!
//! Content is guarded by a per-drive `RwLock`. The write allocator already
//! guarantees single-writer access per drive region (a cleaner thread owns
//! a bucket's drive range exclusively, §IV-E), so this lock is uncontended
//! in practice; it exists to keep the substrate safe under arbitrary test
//! harnesses.
//!
//! ## One pass per drive
//!
//! [`Drive::read_block`] and [`Drive::write_run`] are single ops. A RAID
//! write instead makes one pass per drive (`read_pass`, `write_pass`):
//! every block it reads and every run it writes is still one op, with its
//! own fault draw and its own share of the statistics, but the ops run
//! under one content guard and the statistics are added once per pass.
//! A concurrent reader of [`Drive::stats`] may see a pass half-added; the
//! totals are exact once the system is quiescent. `clean_ops` checks a
//! pass's fault draws before it starts, so a pass never meets a fault
//! that fails its op: such ops go one at a time through
//! [`Drive::read_block`] and [`Drive::write_run`] instead, and the drive
//! sees the same op ordinals either way. The plan is set once, so a
//! draw reads it without a lock.

use crate::fault::{FaultDecision, FaultPlan, IoError, OpKind};
use crate::geometry::{Dbn, DriveId};
use crate::BlockStamp;
use parking_lot::RwLock;
use serde::Serialize;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The kind of media behind a simulated drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum DriveKind {
    /// Flash media: no positioning cost, low per-block cost.
    Ssd,
    /// Rotating SAS media: positioning cost on non-sequential access.
    Hdd,
}

/// Converts I/O shape into simulated service time (nanoseconds).
///
/// The constants are deliberately simple — the reproduction claims shape,
/// not absolute latency. Defaults approximate enterprise media circa 2017:
/// SSD ≈ 90 µs access + 10 µs per 4 KiB block; 10k-RPM SAS ≈ 6 ms seek +
/// 40 µs per block, with sequential follow-on writes skipping the seek.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ServiceModel {
    /// Fixed per-I/O cost (command overhead; seek+rotate for HDD random).
    pub access_ns: u64,
    /// Per-block transfer cost.
    pub per_block_ns: u64,
    /// Fixed cost when the I/O starts where the previous one ended
    /// (sequential). For SSDs this equals `access_ns`.
    pub sequential_access_ns: u64,
}

impl ServiceModel {
    /// The default model for a media kind.
    pub fn for_kind(kind: DriveKind) -> Self {
        match kind {
            DriveKind::Ssd => ServiceModel {
                access_ns: 90_000,
                per_block_ns: 10_000,
                sequential_access_ns: 90_000,
            },
            DriveKind::Hdd => ServiceModel {
                access_ns: 6_000_000,
                per_block_ns: 40_000,
                sequential_access_ns: 200_000,
            },
        }
    }

    /// Service time of an I/O touching `blocks` blocks.
    #[inline]
    pub fn service_ns(&self, blocks: u64, sequential: bool) -> u64 {
        let access = if sequential {
            self.sequential_access_ns
        } else {
            self.access_ns
        };
        access + blocks * self.per_block_ns
    }
}

/// Stamps for a contiguous range of DBNs on one drive. In a pass,
/// adjacent extents form one run: one write op, as if they were one
/// slice.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Extent<'a> {
    /// First DBN.
    pub(crate) start: u64,
    /// One stamp per DBN from `start`.
    pub(crate) stamps: &'a [BlockStamp],
}

impl Extent<'_> {
    /// DBN just past the extent.
    #[inline]
    pub(crate) fn end(&self) -> u64 {
        self.start + self.stamps.len() as u64
    }

    /// The runs of `extents` (ascending): maximal groups of adjacent
    /// extents, each one write op.
    pub(crate) fn runs<'e, 'a>(
        extents: &'e [Extent<'a>],
    ) -> impl Iterator<Item = &'e [Extent<'a>]> {
        extents.chunk_by(|a, b| a.end() == b.start)
    }
}

/// The fault draws of a pass's ops, checked by [`Drive::clean_ops`]:
/// every one lets its op complete.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CleanOps {
    ops: u64,
    extra_ns: u64,
    spikes: u64,
}

/// A simulated drive: content store + counters + service model.
#[derive(Debug)]
pub struct Drive {
    id: DriveId,
    kind: DriveKind,
    model: ServiceModel,
    blocks: u64,
    content: RwLock<Vec<BlockStamp>>,
    // Statistics (relaxed: monotone counters, read only for reporting).
    writes: AtomicU64,
    blocks_written: AtomicU64,
    reads: AtomicU64,
    blocks_read: AtomicU64,
    /// DBN just past the end of the last write, for sequentiality detection.
    last_write_end: AtomicU64,
    busy_ns: AtomicU64,
    // Fault machinery.
    /// Injected fault schedule, set at most once (unset = perfect media).
    fault: OnceLock<Arc<FaultPlan>>,
    /// Per-drive op ordinal feeding the fault plan's deterministic draws.
    op_counter: AtomicU64,
    /// Set when the drive has been taken out of service (whole-drive
    /// failure or exhausted-retry policy). Offline drives fail every I/O
    /// until [`Drive::bring_online`].
    offline: AtomicBool,
    /// Consecutive exhausted-retry failures (reset on success); the RAID
    /// layer's offlining policy reads this.
    consecutive_failures: AtomicU32,
}

impl Drive {
    /// Create a drive with `blocks` blocks of the given kind.
    pub fn new(id: DriveId, kind: DriveKind, blocks: u64) -> Self {
        Self {
            id,
            kind,
            model: ServiceModel::for_kind(kind),
            blocks,
            content: RwLock::ranked(vec![0; blocks as usize], "drive.content", 76),
            writes: AtomicU64::new(0),
            blocks_written: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            blocks_read: AtomicU64::new(0),
            last_write_end: AtomicU64::new(u64::MAX),
            busy_ns: AtomicU64::new(0),
            fault: OnceLock::new(),
            op_counter: AtomicU64::new(0),
            offline: AtomicBool::new(false),
            consecutive_failures: AtomicU32::new(0),
        }
    }

    /// Drive id.
    #[inline]
    pub fn id(&self) -> DriveId {
        self.id
    }

    /// Media kind.
    #[inline]
    pub fn kind(&self) -> DriveKind {
        self.kind
    }

    /// Capacity in blocks.
    #[inline]
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Install the fault-injection schedule for this drive.
    ///
    /// # Panics
    /// Panics if a plan is already installed: a drive's plan is set once.
    pub fn set_fault_plan(&self, plan: Arc<FaultPlan>) {
        assert!(
            self.fault.set(plan).is_ok(),
            "drive {} already has a fault plan",
            self.id.0
        );
    }

    /// Is the drive out of service?
    #[inline]
    pub fn is_offline(&self) -> bool {
        // ordering: Acquire — pairs with the Release stores of the health
        // state; pairs-with: drive.health.
        self.offline.load(Ordering::Acquire)
    }

    /// Take the drive out of service; every subsequent I/O fails with
    /// [`IoError::DriveFailed`] until [`Drive::bring_online`].
    pub fn take_offline(&self) {
        // ordering: Release — publishes the health-state transition;
        // pairs-with: drive.health.
        self.offline.store(true, Ordering::Release);
    }

    /// Return the drive to service (after a rebuild) and reset its
    /// failure streak.
    pub fn bring_online(&self) {
        // ordering: Release — publishes the health-state transition;
        // pairs-with: drive.health.
        self.offline.store(false, Ordering::Release);
        // ordering: Release — publishes the health-state transition;
        // pairs-with: drive.health.
        self.consecutive_failures.store(0, Ordering::Release);
    }

    /// Consecutive exhausted-retry failures since the last success.
    #[inline]
    pub fn consecutive_failures(&self) -> u32 {
        // ordering: Acquire — pairs with the Release stores of the health
        // state; pairs-with: drive.health.
        self.consecutive_failures.load(Ordering::Acquire)
    }

    /// Record one exhausted-retry failure; returns the new streak length.
    pub(crate) fn note_failure(&self) -> u32 {
        // ordering: AcqRel — the failure count and the offline decision it
        // feeds must not reorder; pairs-with: drive.health.
        self.consecutive_failures.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Draw the fault decision for the next op of `kind`.
    fn decide(&self, kind: OpKind) -> FaultDecision {
        // ordering: statistics counter; staleness is acceptable.
        let op = self.op_counter.fetch_add(1, Ordering::Relaxed);
        let decision = match self.fault.get() {
            Some(plan) => plan.decide(self.id, op, kind),
            None => FaultDecision::Ok,
        };
        // Fault taxonomy codes for the trace (see obs::EventKind::Fault).
        let code = match decision {
            FaultDecision::Ok => 0u64,
            FaultDecision::Slow { .. } => 1,
            FaultDecision::DriveFailed => 2,
            FaultDecision::TransientError => 3,
            FaultDecision::TornWrite => 4,
        };
        if code != 0 {
            obs::trace_instant!(obs::EventKind::Fault, code);
        }
        decision
    }

    /// Check the fault draws of the next `ops` ops of `kind` without
    /// taking them. `Some` when every op would complete: the drive is in
    /// service (or `ops` is 0) and no draw fails or tears its op; latency
    /// spikes are carried along. A pass takes the ordinals, so a reader
    /// of the same drive that runs between the check and the pass (it
    /// holds no RAID lock) shifts which draws the pass's ops use, never
    /// how many.
    pub(crate) fn clean_ops(&self, kind: OpKind, ops: u64) -> Option<CleanOps> {
        let mut clean = CleanOps {
            ops,
            ..CleanOps::default()
        };
        if ops == 0 {
            return Some(clean);
        }
        if self.is_offline() {
            return None;
        }
        if let Some(plan) = self.fault.get() {
            // ordering: statistics counter; staleness is acceptable.
            let first = self.op_counter.load(Ordering::Relaxed);
            for op in first..first + ops {
                match plan.decide(self.id, op, kind) {
                    FaultDecision::Ok => {}
                    FaultDecision::Slow { extra_ns } => {
                        clean.extra_ns += extra_ns;
                        clean.spikes += 1;
                    }
                    _ => return None,
                }
            }
        }
        Some(clean)
    }

    /// Take the ordinals of checked ops.
    fn take_ops(&self, clean: CleanOps) {
        // ordering: statistics counter; staleness is acceptable.
        self.op_counter.fetch_add(clean.ops, Ordering::Relaxed);
        for _ in 0..clean.spikes {
            obs::trace_instant!(obs::EventKind::Fault, 1);
        }
    }

    /// Account completed ops: the drive answered, so its failure streak
    /// ends.
    fn account(&self, ops: &AtomicU64, blocks: &AtomicU64, n: u64, block_count: u64, ns: u64) {
        // ordering: Release — publishes the health-state transition;
        // pairs-with: drive.health.
        self.consecutive_failures.store(0, Ordering::Release);
        // ordering: statistics counter; staleness is acceptable.
        ops.fetch_add(n, Ordering::Relaxed);
        // ordering: statistics counter; staleness is acceptable.
        blocks.fetch_add(block_count, Ordering::Relaxed);
        // ordering: statistics counter; staleness is acceptable.
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Land the write ops of `extents` (ascending, in range), one per
    /// run, under one write guard. Returns their service time,
    /// `extra_ns` included.
    fn land_writes(&self, extents: &[Extent<'_>], extra_ns: u64) -> u64 {
        // ordering: statistics counter; staleness is acceptable.
        let mut last_end = self.last_write_end.load(Ordering::Relaxed);
        let (mut ns, mut runs, mut blocks) = (extra_ns, 0u64, 0u64);
        {
            let mut c = self.content.write();
            for run in Extent::runs(extents) {
                let start = run[0].start;
                for e in run {
                    c[e.start as usize..e.end() as usize].copy_from_slice(e.stamps);
                }
                let end = run[run.len() - 1].end();
                ns += self.model.service_ns(end - start, last_end == start);
                runs += 1;
                blocks += end - start;
                last_end = end;
            }
        }
        // ordering: statistics counter; staleness is acceptable.
        self.last_write_end.store(last_end, Ordering::Relaxed);
        self.account(&self.writes, &self.blocks_written, runs, blocks, ns);
        ns
    }

    /// Land the read ops of `ranges` (`(start, len)`, in range), one
    /// per block, under one read guard, handing each range's stamps to
    /// `f`.
    fn land_reads(
        &self,
        ranges: &[(u64, u64)],
        extra_ns: u64,
        mut f: impl FnMut(u64, &[BlockStamp]),
    ) {
        let mut blocks = 0u64;
        {
            let c = self.content.read();
            for &(start, len) in ranges {
                f(start, &c[start as usize..(start + len) as usize]);
                blocks += len;
            }
        }
        let ns = blocks * self.model.service_ns(1, false) + extra_ns;
        self.account(&self.reads, &self.blocks_read, blocks, blocks, ns);
    }

    /// Write `extents` (ascending, non-overlapping, within capacity) as
    /// one pass: each run is one write op, with the service time and
    /// statistics [`Drive::write_run`] would give it. `clean` must be
    /// [`Drive::clean_ops`] for that many write ops. Returns the summed
    /// service time.
    pub(crate) fn write_pass(&self, clean: CleanOps, extents: &[Extent<'_>]) -> u64 {
        if clean.ops == 0 {
            return 0;
        }
        self.take_ops(clean);
        self.land_writes(extents, clean.extra_ns)
    }

    /// Read `ranges` (`(start, len)`, within capacity) as one pass: each
    /// block is one read op, with the service time and statistics
    /// [`Drive::read_block`] would give it. `clean` must be
    /// [`Drive::clean_ops`] for that many read ops. `f` gets each range's
    /// start and stamps.
    pub(crate) fn read_pass(
        &self,
        clean: CleanOps,
        ranges: &[(u64, u64)],
        f: impl FnMut(u64, &[BlockStamp]),
    ) {
        if clean.ops == 0 {
            return;
        }
        self.take_ops(clean);
        self.land_reads(ranges, clean.extra_ns, f);
    }

    /// Write a contiguous run of stamps starting at `start`. Returns the
    /// simulated service time, or the injected/structural error.
    pub fn write_run(&self, start: Dbn, stamps: &[BlockStamp]) -> Result<u64, IoError> {
        let end = start.0 + stamps.len() as u64;
        if end > self.blocks {
            return Err(IoError::Capacity {
                drive: self.id,
                dbn: start,
                blocks: stamps.len() as u64,
            });
        }
        if self.is_offline() {
            return Err(IoError::DriveFailed { drive: self.id });
        }
        let mut extra_ns = 0;
        match self.decide(OpKind::Write) {
            FaultDecision::Ok => {}
            FaultDecision::Slow { extra_ns: ns } => extra_ns = ns,
            FaultDecision::DriveFailed => {
                self.take_offline();
                return Err(IoError::DriveFailed { drive: self.id });
            }
            FaultDecision::TransientError => {
                return Err(IoError::Transient {
                    drive: self.id,
                    dbn: start,
                })
            }
            FaultDecision::TornWrite => {
                // Power-loss model: only a prefix of the run reaches
                // media, then the op reports failure. A successful retry
                // rewrites the full run, restoring consistency.
                let torn = stamps.len() / 2;
                let mut c = self.content.write();
                c[start.0 as usize..start.0 as usize + torn].copy_from_slice(&stamps[..torn]);
                return Err(IoError::Transient {
                    drive: self.id,
                    dbn: start,
                });
            }
        }
        let run = Extent {
            start: start.0,
            stamps,
        };
        Ok(self.land_writes(&[run], extra_ns))
    }

    /// Read one block's stamp. Returns `(stamp, service_ns)` or an error.
    pub fn read_block(&self, dbn: Dbn) -> Result<(BlockStamp, u64), IoError> {
        if dbn.0 >= self.blocks {
            return Err(IoError::Capacity {
                drive: self.id,
                dbn,
                blocks: 1,
            });
        }
        if self.is_offline() {
            return Err(IoError::DriveFailed { drive: self.id });
        }
        let mut extra_ns = 0;
        match self.decide(OpKind::Read) {
            FaultDecision::Ok | FaultDecision::TornWrite => {}
            FaultDecision::Slow { extra_ns: ns } => extra_ns = ns,
            FaultDecision::DriveFailed => {
                self.take_offline();
                return Err(IoError::DriveFailed { drive: self.id });
            }
            FaultDecision::TransientError => {
                return Err(IoError::Transient {
                    drive: self.id,
                    dbn,
                })
            }
        }
        let mut stamp = 0;
        self.land_reads(&[(dbn.0, 1)], extra_ns, |_, s| stamp = s[0]);
        Ok((stamp, self.model.service_ns(1, false) + extra_ns))
    }

    /// Raw media peek for maintenance paths (scrub, reconstruction,
    /// rebuild). Bypasses fault injection and statistics: it models the
    /// RAID layer's privileged access to whatever is physically on the
    /// platters, not a client I/O.
    ///
    /// # Panics
    /// Panics if `dbn` is out of range (maintenance callers iterate the
    /// geometry, so a violation is a programming error).
    #[inline]
    pub fn peek(&self, dbn: Dbn) -> BlockStamp {
        self.content.read()[dbn.0 as usize]
    }

    /// Raw media write for maintenance paths (drive rebuild). Bypasses
    /// fault injection, statistics, and the offline gate.
    ///
    /// # Panics
    /// Panics if the run exceeds the drive capacity.
    pub fn repair_write(&self, start: Dbn, stamps: &[BlockStamp]) {
        let end = start.0 + stamps.len() as u64;
        assert!(end <= self.blocks, "repair write beyond drive capacity");
        let mut c = self.content.write();
        c[start.0 as usize..end as usize].copy_from_slice(stamps);
    }

    /// Snapshot of the drive's statistics.
    pub fn stats(&self) -> DriveStats {
        DriveStats {
            // ordering: statistics counter; staleness is acceptable.
            writes: self.writes.load(Ordering::Relaxed),
            // ordering: statistics counter; staleness is acceptable.
            blocks_written: self.blocks_written.load(Ordering::Relaxed),
            // ordering: statistics counter; staleness is acceptable.
            reads: self.reads.load(Ordering::Relaxed),
            // ordering: statistics counter; staleness is acceptable.
            blocks_read: self.blocks_read.load(Ordering::Relaxed),
            // ordering: statistics counter; staleness is acceptable.
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time drive statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DriveStats {
    /// Number of write I/Os.
    pub writes: u64,
    /// Total blocks written.
    pub blocks_written: u64,
    /// Number of read I/Os.
    pub reads: u64,
    /// Total blocks read.
    pub blocks_read: u64,
    /// Accumulated simulated busy time.
    pub busy_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_roundtrips() {
        let d = Drive::new(DriveId(0), DriveKind::Ssd, 128);
        d.write_run(Dbn(10), &[11, 12, 13]).unwrap();
        assert_eq!(d.read_block(Dbn(10)).unwrap().0, 11);
        assert_eq!(d.read_block(Dbn(12)).unwrap().0, 13);
        assert_eq!(
            d.read_block(Dbn(13)).unwrap().0,
            0,
            "unwritten block reads zero"
        );
    }

    #[test]
    fn sequential_writes_detected_for_hdd() {
        let d = Drive::new(DriveId(0), DriveKind::Hdd, 1024);
        let first = d.write_run(Dbn(0), &[1; 8]).unwrap();
        let seq = d.write_run(Dbn(8), &[2; 8]).unwrap();
        let rand = d.write_run(Dbn(500), &[3; 8]).unwrap();
        assert!(seq < first, "sequential follow-on skips the seek");
        assert!(rand > seq, "random write pays the seek again");
    }

    #[test]
    fn ssd_has_no_seek_penalty() {
        let d = Drive::new(DriveId(0), DriveKind::Ssd, 1024);
        d.write_run(Dbn(0), &[1; 8]).unwrap();
        let seq = d.write_run(Dbn(8), &[2; 8]).unwrap();
        let rand = d.write_run(Dbn(500), &[3; 8]).unwrap();
        assert_eq!(seq, rand);
    }

    #[test]
    fn stats_accumulate() {
        let d = Drive::new(DriveId(0), DriveKind::Ssd, 64);
        d.write_run(Dbn(0), &[1, 2]).unwrap();
        d.write_run(Dbn(2), &[3]).unwrap();
        d.read_block(Dbn(0)).unwrap();
        let s = d.stats();
        assert_eq!(s.writes, 2);
        assert_eq!(s.blocks_written, 3);
        assert_eq!(s.reads, 1);
        assert_eq!(s.blocks_read, 1);
        assert!(s.busy_ns > 0);
    }

    #[test]
    fn overflow_write_errors() {
        let d = Drive::new(DriveId(0), DriveKind::Ssd, 4);
        assert_eq!(
            d.write_run(Dbn(3), &[1, 2]),
            Err(IoError::Capacity {
                drive: DriveId(0),
                dbn: Dbn(3),
                blocks: 2,
            })
        );
        assert!(matches!(
            d.read_block(Dbn(4)),
            Err(IoError::Capacity { .. })
        ));
    }

    #[test]
    fn offline_drive_fails_every_io_until_rebuilt() {
        let d = Drive::new(DriveId(5), DriveKind::Ssd, 16);
        d.write_run(Dbn(0), &[7]).unwrap();
        d.take_offline();
        assert_eq!(
            d.write_run(Dbn(1), &[8]),
            Err(IoError::DriveFailed { drive: DriveId(5) })
        );
        assert_eq!(
            d.read_block(Dbn(0)),
            Err(IoError::DriveFailed { drive: DriveId(5) })
        );
        // Maintenance access still sees the media.
        assert_eq!(d.peek(Dbn(0)), 7);
        d.repair_write(Dbn(1), &[8]);
        d.bring_online();
        assert_eq!(d.read_block(Dbn(1)).unwrap().0, 8);
    }

    #[test]
    fn injected_drive_failure_takes_drive_offline() {
        use crate::fault::{FaultPlan, FaultSpec};
        let d = Drive::new(DriveId(2), DriveKind::Ssd, 16);
        d.set_fault_plan(Arc::new(FaultPlan::new(FaultSpec::drive_failure(2, 1))));
        d.write_run(Dbn(0), &[1]).unwrap(); // op 0 precedes the failure
        assert!(matches!(
            d.write_run(Dbn(1), &[2]),
            Err(IoError::DriveFailed { .. })
        ));
        assert!(d.is_offline());
    }

    #[test]
    fn torn_write_persists_prefix_and_errors() {
        use crate::fault::{FaultPlan, FaultSpec};
        let d = Drive::new(DriveId(0), DriveKind::Ssd, 64);
        let spec = FaultSpec {
            seed: 11,
            torn_write_ppm: 1_000_000, // every write tears
            ..FaultSpec::default()
        };
        d.set_fault_plan(Arc::new(FaultPlan::new(spec)));
        let err = d.write_run(Dbn(0), &[1, 2, 3, 4]).unwrap_err();
        assert!(matches!(err, IoError::Transient { .. }));
        let torn: Vec<_> = (0..4).map(|dbn| d.peek(Dbn(dbn))).collect();
        assert_eq!(torn, [1, 2, 0, 0], "prefix reached media, tail lost");
        // The retry, on media holding the torn run and no plan, rewrites
        // the full run.
        let retry = Drive::new(DriveId(0), DriveKind::Ssd, 64);
        retry.repair_write(Dbn(0), &torn);
        retry.write_run(Dbn(0), &[1, 2, 3, 4]).unwrap();
        assert_eq!(retry.peek(Dbn(3)), 4);
    }

    #[test]
    fn latency_spike_charges_extra_service_time() {
        use crate::fault::{FaultPlan, FaultSpec};
        let quiet = Drive::new(DriveId(0), DriveKind::Ssd, 64);
        let base = quiet.write_run(Dbn(0), &[1]).unwrap();
        let d = Drive::new(DriveId(0), DriveKind::Ssd, 64);
        let spec = FaultSpec {
            seed: 3,
            latency_spike_ppm: 1_000_000,
            latency_spike_ns: 5_000_000,
            ..FaultSpec::default()
        };
        d.set_fault_plan(Arc::new(FaultPlan::new(spec)));
        let spiked = d.write_run(Dbn(0), &[1]).unwrap();
        assert_eq!(spiked, base + 5_000_000);
    }

    #[test]
    fn service_model_costs() {
        let m = ServiceModel::for_kind(DriveKind::Hdd);
        assert!(m.service_ns(64, true) < m.service_ns(64, false));
        let s = ServiceModel::for_kind(DriveKind::Ssd);
        assert_eq!(s.service_ns(1, true), s.service_ns(1, false));
    }
}
