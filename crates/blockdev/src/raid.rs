//! RAID-group parity accounting, degraded mode, and drive rebuild.
//!
//! White Alligator's first layout objective (§IV-D) is to *minimize reads
//! required for RAID parity computation*: when a write covers an entire
//! stripe, parity is computed from the new data alone; when it covers only
//! part of a stripe, the missing data blocks must be read back from disk
//! (read-modify-write). The allocator's AA selection and equal-progress
//! bucket discipline exist to maximize the full-stripe ratio, and the
//! benchmarks verify exactly that through the counters kept here.
//!
//! Parity is modeled as the XOR of the 128-bit block stamps, which is a
//! faithful miniature of RAID-4/RAID-DP row parity and lets tests verify
//! parity correctness after arbitrary write sequences.
//!
//! ## Fault handling
//!
//! Drive I/O is fallible (see [`crate::fault`]). The group applies a
//! [`RetryPolicy`] at every drive op: transient errors are retried with
//! exponential backoff charged to service time; a drive that keeps
//! failing is taken **offline** and the group enters degraded mode for
//! it. Degraded semantics follow real RAID-4:
//!
//! * **writes** targeting the offline drive skip the media but still
//!   fold the intended stamps into row parity, so the lost drive's
//!   logical contents remain reconstructable;
//! * **reads** of the offline drive are served by XOR-reconstruction
//!   from the surviving drives plus parity ([`RaidGroup::read_block`]);
//! * [`RaidGroup::rebuild_drive`] reconstructs every block onto fresh
//!   media and returns the drive to service, after which a raw-media
//!   parity scrub passes again.
//!
//! ## One write, one pass per drive
//!
//! A tetris reaches the group as one write I/O
//! ([`RaidGroup::write_segments`]), and the group spends per run and per
//! drive on it, not per block. It sorts each drive's segments and finds
//! the stripes they touch by merging the drives' runs into spans (DBN
//! ranges written by the same drives); parity for every touched stripe
//! is built in one buffer. Then, per drive:
//!
//! * the blocks its partial stripes leave untouched are read in one pass,
//!   under one content read guard, and folded into parity;
//! * its runs are written in one pass, under one content write guard;
//!   the parity drive's runs follow the same way.
//!
//! Each block read and each run written is still one drive op with its
//! own fault draw: a drive sees the same op sequence, in the same order,
//! as when every block was read on its own. Before a pass the drive
//! checks that none of its draws would fail an op; if one would (or the
//! drive is offline), the reads go one at a time in stripe order — the
//! order the group always used — and that drive's runs one at a time,
//! through [`RaidGroup::read_with_retries`], [`RaidGroup::write_with_retries`]
//! and the degraded-mode fallbacks, with no content guard held. Drive
//! statistics and the [`ParityModel`] counts are added once per drive
//! per write; their totals are exactly what per-op accounting gives, and
//! exact once the system is quiescent. `RaidGroup::write`, which takes
//! per-drive block maps, only converts them to segments.
//!
//! ## Concurrent writers
//!
//! A partial-stripe write is a read-modify-write of the stripe's parity
//! block, and the group has several writers (its aio worker, the
//! synchronous metafile `write_vbn` path, scrub repairs). One
//! per-group mutex serializes them: it is held from the read of the
//! untouched blocks to the parity write, and by every repair and
//! rebuild, so parity is always computed from the data that is on media
//! when it lands. It ranks before the drive locks it is held across.

use crate::drive::{CleanOps, Drive, DriveKind, Extent};
use crate::fault::{IoError, OpKind, RetryPolicy};
use crate::geometry::{Dbn, DriveId, RaidGroupGeometry};
use crate::io::WriteSegment;
use crate::BlockStamp;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Parity and fault accounting counters for one RAID group.
#[derive(Debug, Default)]
pub struct ParityModel {
    /// Stripes written with full-stripe parity (no reads).
    pub full_stripe_writes: AtomicU64,
    /// Stripes written via read-modify-write.
    pub partial_stripe_writes: AtomicU64,
    /// Data blocks read back to recompute parity.
    pub parity_read_blocks: AtomicU64,
    /// Blocks served by XOR reconstruction instead of the home drive.
    pub reconstructed_reads: AtomicU64,
    /// Stripes written or read while one member was offline.
    pub degraded_stripes: AtomicU64,
    /// Data blocks whose media write was skipped because the target
    /// drive was offline (parity still reflects them).
    pub degraded_writes: AtomicU64,
    /// Drive-op retries performed by the bounded-backoff policy.
    pub io_retries: AtomicU64,
    /// Drive-op errors observed (before retry resolution).
    pub io_errors: AtomicU64,
    /// Blocks rewritten onto media by the repair paths: whole-drive
    /// rebuilds plus single-block scrub repairs (data or parity).
    pub blocks_rebuilt: AtomicU64,
}

/// A RAID group: data drives, parity drive(s), and parity bookkeeping.
///
/// The group owns `Arc<Drive>`s so the I/O engine, allocator, and tests can
/// all hold references to the same media.
pub struct RaidGroup {
    geom: RaidGroupGeometry,
    data: Vec<Arc<Drive>>,
    /// First parity drive (additional parity drives in RAID-DP carry the
    /// same row parity in this model; diagonal parity is out of scope).
    parity: Vec<Arc<Drive>>,
    counters: ParityModel,
    policy: RetryPolicy,
    /// Serializes every parity read-modify-write of the group (see the
    /// module docs).
    stripe_write: Mutex<()>,
}

impl RaidGroup {
    /// Build a group and its drives.
    pub fn new(geom: RaidGroupGeometry, kind: DriveKind) -> Self {
        let data = geom
            .data_drives
            .iter()
            .map(|d| Arc::new(Drive::new(*d, kind, geom.blocks_per_drive)))
            .collect();
        let parity = (0..geom.parity_drives)
            .map(|i| {
                Arc::new(Drive::new(
                    DriveId(u32::MAX - geom.id.0 * 8 - i),
                    kind,
                    geom.blocks_per_drive,
                ))
            })
            .collect();
        Self {
            geom,
            data,
            parity,
            counters: ParityModel::default(),
            policy: RetryPolicy::default(),
            stripe_write: Mutex::ranked((), "raid.stripe-write", 69),
        }
    }

    /// Group geometry.
    #[inline]
    pub fn geometry(&self) -> &RaidGroupGeometry {
        &self.geom
    }

    /// Data drives, in stripe order.
    #[inline]
    pub fn data_drives(&self) -> &[Arc<Drive>] {
        &self.data
    }

    /// Parity drives.
    #[inline]
    pub fn parity_drives(&self) -> &[Arc<Drive>] {
        &self.parity
    }

    /// Parity counters.
    #[inline]
    pub fn counters(&self) -> &ParityModel {
        &self.counters
    }

    /// Width (number of data drives).
    #[inline]
    pub fn width(&self) -> u32 {
        self.data.len() as u32
    }

    /// Replace the retry/offlining policy (default: [`RetryPolicy::default`]).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
    }

    /// The active retry/offlining policy.
    #[inline]
    pub fn retry_policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Indexes (within the group) of offline data drives.
    pub fn offline_data_drives(&self) -> Vec<u32> {
        self.data
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_offline())
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Record a terminal (retries-exhausted or injected-fatal) failure
    /// and apply the offlining policy.
    fn note_terminal_failure(&self, drive: &Drive) {
        if drive.is_offline() {
            return; // injected whole-drive failure already offlined it
        }
        if drive.note_failure() >= self.policy.offline_after {
            drive.take_offline();
        }
    }

    /// Read one block of `drive` through the retry policy. Backoff is
    /// charged to the returned service time.
    pub fn read_with_retries(&self, drive: &Drive, dbn: Dbn) -> Result<(BlockStamp, u64), IoError> {
        let mut backoff_ns = 0u64;
        for attempt in 0..=self.policy.max_retries {
            match drive.read_block(dbn) {
                Ok((stamp, ns)) => return Ok((stamp, ns + backoff_ns)),
                Err(e @ IoError::Transient { .. }) => {
                    // ordering: statistics counter; staleness is acceptable.
                    self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                    if attempt == self.policy.max_retries {
                        self.note_terminal_failure(drive);
                        return Err(e);
                    }
                    // ordering: statistics counter; staleness is acceptable.
                    self.counters.io_retries.fetch_add(1, Ordering::Relaxed);
                    backoff_ns += self.policy.backoff_base_ns << attempt;
                }
                Err(e) => {
                    // ordering: statistics counter; staleness is acceptable.
                    self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                    return Err(e);
                }
            }
        }
        unreachable!("retry loop always returns")
    }

    /// Write one run to `drive` through the retry policy. Backoff is
    /// charged to the returned service time.
    pub fn write_with_retries(
        &self,
        drive: &Drive,
        start: Dbn,
        stamps: &[BlockStamp],
    ) -> Result<u64, IoError> {
        let mut backoff_ns = 0u64;
        for attempt in 0..=self.policy.max_retries {
            match drive.write_run(start, stamps) {
                Ok(ns) => return Ok(ns + backoff_ns),
                Err(e @ IoError::Transient { .. }) => {
                    // ordering: statistics counter; staleness is acceptable.
                    self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                    if attempt == self.policy.max_retries {
                        self.note_terminal_failure(drive);
                        return Err(e);
                    }
                    // ordering: statistics counter; staleness is acceptable.
                    self.counters.io_retries.fetch_add(1, Ordering::Relaxed);
                    backoff_ns += self.policy.backoff_base_ns << attempt;
                }
                Err(e) => {
                    // ordering: statistics counter; staleness is acceptable.
                    self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                    return Err(e);
                }
            }
        }
        unreachable!("retry loop always returns")
    }

    /// Write `extents` (ascending, non-overlapping, non-empty) to one
    /// drive: one pass when every run fits and draws clean, else run by
    /// run through the retry policy up to the first terminal error.
    /// Returns the summed service time.
    fn write_drive(&self, drive: &Drive, extents: &[Extent<'_>]) -> Result<u64, IoError> {
        let fits = extents.last().is_none_or(|e| e.end() <= drive.blocks());
        let runs = Extent::runs(extents).count() as u64;
        if let Some(clean) = drive.clean_ops(OpKind::Write, runs).filter(|_| fits) {
            return Ok(drive.write_pass(clean, extents));
        }
        let mut ns = 0u64;
        for run in Extent::runs(extents) {
            let stamps: Vec<BlockStamp> = run.iter().flat_map(|e| e.stamps).copied().collect();
            ns += self.write_with_retries(drive, Dbn(run[0].start), &stamps)?;
        }
        Ok(ns)
    }

    /// Add the full and partial stripes of `spans` below `end`.
    fn count_stripes(&self, spans: &[Span], end: u64) {
        let (mut full, mut partial) = (0u64, 0u64);
        for s in spans.iter().take_while(|s| s.start < end) {
            let n = s.end.min(end) - s.start;
            if s.covered == self.width() {
                full += n;
            } else {
                partial += n;
            }
        }
        self.counters
            .full_stripe_writes
            // ordering: statistics counter; staleness is acceptable.
            .fetch_add(full, Ordering::Relaxed);
        self.counters
            .partial_stripe_writes
            // ordering: statistics counter; staleness is acceptable.
            .fetch_add(partial, Ordering::Relaxed);
    }

    /// Fold into `parity` the old contents of every block the write's
    /// partial stripes leave untouched, and return how many there are.
    /// Each drive's blocks are read in one pass when every drive's reads
    /// draw clean; otherwise they are read one at a time, in stripe order,
    /// through the retry policy and the degraded-read fallback, which
    /// errors when the block cannot be reconstructed.
    fn fold_untouched(
        &self,
        per_drive: &[Vec<Extent<'_>>],
        spans: &[Span],
        parity: &mut [BlockStamp],
    ) -> Result<u64, IoError> {
        let mut untouched: Vec<Vec<(u64, u64)>> = vec![Vec::new(); per_drive.len()];
        for (extents, reads) in per_drive.iter().zip(&mut untouched) {
            let mut next = extents.iter().peekable();
            for s in spans.iter().filter(|s| s.covered < self.width()) {
                while next.next_if(|e| e.end() <= s.start).is_some() {}
                if next.peek().is_some_and(|e| e.start <= s.start) {
                    continue;
                }
                match reads.last_mut() {
                    Some((start, len)) if *start + *len == s.start => *len += s.len() as u64,
                    _ => reads.push((s.start, s.len() as u64)),
                }
            }
        }
        let blocks = |reads: &[(u64, u64)]| reads.iter().map(|(_, n)| n).sum::<u64>();
        let clean: Option<Vec<CleanOps>> = self
            .data
            .iter()
            .zip(&untouched)
            .map(|(d, reads)| {
                let fits = reads.last().is_none_or(|(s, n)| s + n <= d.blocks());
                d.clean_ops(OpKind::Read, blocks(reads)).filter(|_| fits)
            })
            .collect();
        if let Some(clean) = clean {
            for ((d, reads), clean) in self.data.iter().zip(&untouched).zip(clean) {
                d.read_pass(clean, reads, |start, old| {
                    fold(&mut parity[parity_index(spans, start)..], old)
                });
            }
        } else {
            let mut order: Vec<(u64, usize)> = untouched
                .iter()
                .enumerate()
                .flat_map(|(i, r)| {
                    r.iter()
                        .flat_map(move |&(s, n)| (s..s + n).map(move |dbn| (dbn, i)))
                })
                .collect();
            order.sort_unstable();
            for (dbn, i) in order {
                let old = match self.read_with_retries(&self.data[i], Dbn(dbn)) {
                    Ok((old, _)) => old,
                    Err(_) => {
                        // Degraded read-modify-write: recover the
                        // untouched block's logical value from parity +
                        // surviving media. Failing that, the write stops
                        // in this stripe, having counted the stripes up
                        // to it.
                        if let Err(e) = self.ensure_reconstructable(i as u32) {
                            self.count_stripes(spans, dbn + 1);
                            return Err(e);
                        }
                        self.counters
                            .reconstructed_reads
                            // ordering: statistics counter; staleness is acceptable.
                            .fetch_add(1, Ordering::Relaxed);
                        self.reconstruct(i as u32, Dbn(dbn))
                    }
                };
                parity[parity_index(spans, dbn)] ^= old;
            }
        }
        Ok(untouched.iter().map(|r| blocks(r)).sum())
    }

    /// Apply a write given as per-drive block maps: `per_drive[i]` maps
    /// DBN → stamp for data drive `i`. An adapter over
    /// [`RaidGroup::write_segments`], which does the work; see it for the
    /// return value and the error cases.
    pub fn write(&self, per_drive: &[BTreeMap<u64, BlockStamp>]) -> Result<(u64, u64), IoError> {
        assert_eq!(per_drive.len(), self.data.len(), "one map per data drive");
        let mut segments: Vec<WriteSegment> = Vec::new();
        for (drive, m) in per_drive.iter().enumerate() {
            for (&dbn, &stamp) in m {
                match segments.last_mut() {
                    Some(s)
                        if s.drive_in_rg == drive as u32
                            && s.start_dbn + s.stamps.len() as u64 == dbn =>
                    {
                        s.stamps.push(stamp)
                    }
                    _ => segments.push(WriteSegment {
                        drive_in_rg: drive as u32,
                        start_dbn: dbn,
                        stamps: vec![stamp],
                    }),
                }
            }
        }
        self.write_segments(&segments)
    }

    /// Apply one write I/O (a tetris) and maintain parity. Segments may
    /// come in any order, several per drive; two that cover one block
    /// are an [`IoError::OverlappingWrite`], caught before any drive op.
    /// Returns `(service_ns, parity_reads)` where `service_ns` is the
    /// *maximum* over drives (drives work in parallel, the group
    /// completes when the slowest member does).
    ///
    /// The write is one pass per drive (see the module docs). When some
    /// drive is offline or a fault draw would fail one of its ops, the
    /// reads go one at a time in stripe order, and that drive's runs one
    /// at a time, through the retry policy: the per-drive op sequence,
    /// and so every fault draw, is the same either way.
    ///
    /// A single failed data drive does not fail the write: its media
    /// blocks are skipped but its intended stamps are folded into parity,
    /// leaving them reconstructable (degraded mode). The write errors
    /// only when reconstruction itself is impossible (a second failure in
    /// a single-parity group) or on a structural error.
    ///
    /// # Panics
    /// Panics if a segment names a drive outside the group.
    pub fn write_segments(&self, segments: &[WriteSegment]) -> Result<(u64, u64), IoError> {
        let mut per_drive: Vec<Vec<Extent<'_>>> = vec![Vec::new(); self.data.len()];
        for seg in segments.iter().filter(|s| !s.stamps.is_empty()) {
            per_drive[seg.drive_in_rg as usize].push(Extent {
                start: seg.start_dbn,
                stamps: &seg.stamps,
            });
        }
        for (extents, d) in per_drive.iter_mut().zip(&self.data) {
            extents.sort_unstable_by_key(|e| e.start);
            if let Some(w) = extents.windows(2).find(|w| w[1].start < w[0].end()) {
                return Err(IoError::OverlappingWrite {
                    drive: d.id(),
                    dbn: Dbn(w[1].start),
                });
            }
        }
        let _w = self.stripe_write.lock();
        let spans = spans(&per_drive);
        let mut parity = vec![0 as BlockStamp; spans.last().map_or(0, |s| s.at + s.len())];
        for e in per_drive.iter().flatten() {
            fold(&mut parity[parity_index(&spans, e.start)..], e.stamps);
        }
        let parity_reads = self.fold_untouched(&per_drive, &spans, &mut parity)?;
        self.count_stripes(&spans, u64::MAX);
        self.counters
            .parity_read_blocks
            // ordering: statistics counter; staleness is acceptable.
            .fetch_add(parity_reads, Ordering::Relaxed);

        // One pass per drive; the group's service time is the slowest
        // drive (drives operate in parallel). A terminal per-drive
        // failure degrades that drive instead of failing the I/O: parity
        // above already encodes its stamps.
        let mut max_ns = 0u64;
        for (i, (d, extents)) in self.data.iter().zip(&per_drive).enumerate() {
            if extents.is_empty() {
                continue;
            }
            let blocks: u64 = extents.iter().map(|e| e.stamps.len() as u64).sum();
            match self.write_drive(d, extents) {
                Ok(ns) => max_ns = max_ns.max(ns),
                Err(IoError::Capacity { .. }) => {
                    return Err(IoError::Capacity {
                        drive: d.id(),
                        dbn: Dbn(extents[0].start),
                        blocks,
                    })
                }
                Err(_) => {
                    // A write that exhausted its retries lost data on
                    // that drive: take it out of service unconditionally
                    // (stale media must never serve direct reads) and
                    // rely on parity for its contents.
                    d.take_offline();
                    self.ensure_reconstructable(i as u32)?;
                    self.counters
                        .degraded_writes
                        // ordering: statistics counter; staleness is acceptable.
                        .fetch_add(blocks, Ordering::Relaxed);
                    self.counters
                        .degraded_stripes
                        // ordering: statistics counter; staleness is acceptable.
                        .fetch_add(blocks, Ordering::Relaxed);
                }
            }
        }
        let parity_extents: Vec<Extent<'_>> = spans
            .iter()
            .map(|s| Extent {
                start: s.start,
                stamps: &parity[s.at..s.at + s.len()],
            })
            .collect();
        for p in &self.parity {
            match self.write_drive(p, &parity_extents) {
                Ok(ns) => max_ns = max_ns.max(ns),
                Err(e @ IoError::Capacity { .. }) => return Err(e),
                Err(_) => {
                    // Lost parity: data writes above still landed, but a
                    // concurrent data-drive failure would now be
                    // unrecoverable. Take the parity drive offline (its
                    // media is stale) and tolerate the loss as long as
                    // every data drive is healthy.
                    p.take_offline();
                    if !self.offline_data_drives().is_empty() {
                        return Err(IoError::Unrecoverable {
                            detail: "parity and data drive failed in one group",
                        });
                    }
                    self.counters
                        .degraded_writes
                        // ordering: statistics counter; staleness is acceptable.
                        .fetch_add(parity.len() as u64, Ordering::Relaxed);
                }
            }
        }
        Ok((max_ns, parity_reads))
    }

    /// Error unless the group can reconstruct `failed_drive_in_rg`: every
    /// other data drive and the parity drive must be in service.
    fn ensure_reconstructable(&self, failed_drive_in_rg: u32) -> Result<(), IoError> {
        let others_ok = self
            .data
            .iter()
            .enumerate()
            .all(|(i, d)| i as u32 == failed_drive_in_rg || !d.is_offline());
        let parity_ok = self.parity.first().is_some_and(|p| !p.is_offline());
        if others_ok && parity_ok {
            Ok(())
        } else {
            Err(IoError::Unrecoverable {
                detail: "multiple drive failures in a single-parity group",
            })
        }
    }

    /// Read one data block, transparently falling back to degraded-mode
    /// XOR reconstruction when the home drive has failed. Returns
    /// `(stamp, service_ns)`.
    pub fn read_block(&self, drive_in_rg: u32, dbn: Dbn) -> Result<(BlockStamp, u64), IoError> {
        match self.read_with_retries(&self.data[drive_in_rg as usize], dbn) {
            Ok(v) => Ok(v),
            Err(IoError::Capacity { drive, dbn, blocks }) => {
                Err(IoError::Capacity { drive, dbn, blocks })
            }
            Err(_) => self.degraded_read(drive_in_rg, dbn),
        }
    }

    /// Serve a read of `drive_in_rg` by XOR of the surviving drives and
    /// parity (the degraded-mode path). The survivors are read as real,
    /// fault-injectable I/O.
    fn degraded_read(&self, drive_in_rg: u32, dbn: Dbn) -> Result<(BlockStamp, u64), IoError> {
        self.ensure_reconstructable(drive_in_rg)?;
        let mut x = 0u128;
        let mut max_ns = 0u64;
        for (i, d) in self.data.iter().enumerate() {
            if i as u32 == drive_in_rg {
                continue;
            }
            let (s, ns) = self
                .read_with_retries(d, dbn)
                .map_err(|_| IoError::Unrecoverable {
                    detail: "survivor read failed during reconstruction",
                })?;
            x ^= s;
            max_ns = max_ns.max(ns);
        }
        let (p, ns) =
            self.read_with_retries(&self.parity[0], dbn)
                .map_err(|_| IoError::Unrecoverable {
                    detail: "parity read failed during reconstruction",
                })?;
        x ^= p;
        max_ns = max_ns.max(ns);
        self.counters
            .reconstructed_reads
            // ordering: statistics counter; staleness is acceptable.
            .fetch_add(1, Ordering::Relaxed);
        self.counters
            .degraded_stripes
            // ordering: statistics counter; staleness is acceptable.
            .fetch_add(1, Ordering::Relaxed);
        Ok((x, max_ns))
    }

    /// Verify that parity equals the XOR of data blocks for every stripe in
    /// `[start, end)`, inspecting raw media (scrub is a maintenance path
    /// and bypasses fault injection).
    pub fn verify_parity(&self, start: u64, end: u64) -> Result<(), String> {
        for dbn in start..end {
            let mut x = 0u128;
            for d in &self.data {
                x ^= d.peek(Dbn(dbn));
            }
            for p in &self.parity {
                let got = p.peek(Dbn(dbn));
                if got != x {
                    return Err(format!(
                        "parity mismatch at rg {:?} dbn {dbn}: expected {x:#x}, got {got:#x}",
                        self.geom.id
                    ));
                }
            }
        }
        Ok(())
    }

    /// Reconstruct a data block from the surviving drives + parity via
    /// raw media access (maintenance path: no fault injection, no
    /// statistics). This is what [`RaidGroup::rebuild_drive`] and the
    /// degraded read-modify-write fallback use.
    pub fn reconstruct(&self, failed_drive_in_rg: u32, dbn: Dbn) -> BlockStamp {
        let mut x = self.parity[0].peek(dbn);
        for (i, d) in self.data.iter().enumerate() {
            if i as u32 != failed_drive_in_rg {
                x ^= d.peek(dbn);
            }
        }
        x
    }

    /// Rebuild an offline data drive: reconstruct every block from
    /// parity + survivors onto the drive's media and return it to
    /// service. Returns the number of blocks rebuilt. After a rebuild,
    /// [`RaidGroup::verify_parity`] passes again.
    pub fn rebuild_drive(&self, drive_in_rg: u32) -> u64 {
        let _w = self.stripe_write.lock();
        let blocks = self.geom.blocks_per_drive;
        let stamps: Vec<BlockStamp> = (0..blocks)
            .map(|dbn| self.reconstruct(drive_in_rg, Dbn(dbn)))
            .collect();
        let drive = &self.data[drive_in_rg as usize];
        drive.repair_write(Dbn(0), &stamps);
        drive.bring_online();
        // ordering: statistics counter; staleness is acceptable.
        self.counters
            .blocks_rebuilt
            .fetch_add(blocks, Ordering::Relaxed);
        blocks
    }

    /// Repair a single data block in place: reconstruct it from parity
    /// plus the surviving members (the degraded-read math applied as a
    /// maintenance write) and rewrite the home drive's media. Returns
    /// the reconstructed stamp now on media.
    pub fn repair_data_block(&self, drive_in_rg: u32, dbn: Dbn) -> BlockStamp {
        let _w = self.stripe_write.lock();
        let stamp = self.reconstruct(drive_in_rg, dbn);
        self.data[drive_in_rg as usize].repair_write(dbn, &[stamp]);
        // ordering: statistics counter; staleness is acceptable.
        self.counters.blocks_rebuilt.fetch_add(1, Ordering::Relaxed);
        stamp
    }

    /// Recompute a single parity block from the data drives and rewrite
    /// it in place. Returns the recomputed parity stamp.
    pub fn repair_parity_block(&self, dbn: Dbn) -> BlockStamp {
        let _w = self.stripe_write.lock();
        let stamp = self.data.iter().fold(0u128, |x, d| x ^ d.peek(dbn));
        self.parity[0].repair_write(dbn, &[stamp]);
        // ordering: statistics counter; staleness is acceptable.
        self.counters.blocks_rebuilt.fetch_add(1, Ordering::Relaxed);
        stamp
    }

    /// Recompute a parity drive's media from the data drives and return
    /// it to service. Returns the number of blocks rebuilt.
    pub fn rebuild_parity(&self, parity_index: usize) -> u64 {
        let _w = self.stripe_write.lock();
        let blocks = self.geom.blocks_per_drive;
        let stamps: Vec<BlockStamp> = (0..blocks)
            .map(|dbn| self.data.iter().fold(0u128, |x, d| x ^ d.peek(Dbn(dbn))))
            .collect();
        let drive = &self.parity[parity_index];
        drive.repair_write(Dbn(0), &stamps);
        drive.bring_online();
        // ordering: statistics counter; staleness is acceptable.
        self.counters
            .blocks_rebuilt
            .fetch_add(blocks, Ordering::Relaxed);
        blocks
    }

    /// Rebuild every offline member of the group (data drives first,
    /// then parity). Returns total blocks rebuilt.
    pub fn rebuild_offline(&self) -> u64 {
        let mut rebuilt = 0;
        for i in self.offline_data_drives() {
            rebuilt += self.rebuild_drive(i);
        }
        for (i, p) in self.parity.iter().enumerate() {
            if p.is_offline() {
                rebuilt += self.rebuild_parity(i);
            }
        }
        rebuilt
    }
}

/// A maximal DBN range over which the same data drives are written, and
/// where its parity sits in the write's parity buffer.
struct Span {
    start: u64,
    end: u64,
    /// Data drives writing it.
    covered: u32,
    /// Index of its first stripe's parity.
    at: usize,
}

impl Span {
    fn len(&self) -> usize {
        (self.end - self.start) as usize
    }
}

/// Where `dbn`'s parity sits in the buffer laid out by `spans`.
fn parity_index(spans: &[Span], dbn: u64) -> usize {
    let s = &spans[spans.partition_point(|s| s.end <= dbn)];
    s.at + (dbn - s.start) as usize
}

/// XOR `stamps` into the front of `parity`.
fn fold(parity: &mut [BlockStamp], stamps: &[BlockStamp]) {
    parity.iter_mut().zip(stamps).for_each(|(p, s)| *p ^= s);
}

/// The stripes a write touches, as spans in DBN order, found by merging
/// the drives' runs. Every run boundary is a span boundary, so a drive
/// writes a span whole or not at all.
fn spans(per_drive: &[Vec<Extent<'_>>]) -> Vec<Span> {
    let mut edges: Vec<(u64, i32)> = per_drive
        .iter()
        .flatten()
        .flat_map(|e| [(e.start, 1), (e.end(), -1)])
        .collect();
    edges.sort_unstable();
    let mut spans = Vec::new();
    let (mut covered, mut at) = (0i32, 0usize);
    for (k, &(dbn, delta)) in edges.iter().enumerate() {
        covered += delta;
        match edges.get(k + 1) {
            Some(&(next, _)) if next > dbn && covered > 0 => {
                spans.push(Span {
                    start: dbn,
                    end: next,
                    covered: covered as u32,
                    at,
                });
                at += (next - dbn) as usize;
            }
            _ => {}
        }
    }
    spans
}

impl std::fmt::Debug for RaidGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RaidGroup")
            .field("id", &self.geom.id)
            .field("width", &self.width())
            .field("parity_drives", &self.parity.len())
            .field("offline", &self.offline_data_drives())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultSpec};
    use crate::geometry::{GeometryBuilder, RaidGroupId};

    fn rg(width: u32) -> RaidGroup {
        let geo = GeometryBuilder::new()
            .aa_stripes(16)
            .raid_group(width, 1, 256)
            .build();
        RaidGroup::new(geo.raid_group(RaidGroupId(0)).clone(), DriveKind::Ssd)
    }

    #[test]
    fn full_stripe_needs_no_parity_reads() {
        let g = rg(3);
        let maps = vec![
            BTreeMap::from([(5u64, 0xa_u128)]),
            BTreeMap::from([(5u64, 0xb_u128)]),
            BTreeMap::from([(5u64, 0xc_u128)]),
        ];
        let (_, reads) = g.write(&maps).unwrap();
        assert_eq!(reads, 0);
        // ordering: test readback.
        assert_eq!(g.counters().full_stripe_writes.load(Ordering::Relaxed), 1);
        assert_eq!(
            // ordering: statistics counter; staleness is acceptable.
            g.counters().partial_stripe_writes.load(Ordering::Relaxed),
            0
        );
        g.verify_parity(5, 6).unwrap();
    }

    #[test]
    fn partial_stripe_reads_missing_blocks() {
        let g = rg(4);
        // Touch only 2 of 4 drives at dbn 9 → 2 parity reads.
        let maps = vec![
            BTreeMap::from([(9u64, 0x1_u128)]),
            BTreeMap::from([(9u64, 0x2_u128)]),
            BTreeMap::new(),
            BTreeMap::new(),
        ];
        let (_, reads) = g.write(&maps).unwrap();
        assert_eq!(reads, 2);
        assert_eq!(
            // ordering: statistics counter; staleness is acceptable.
            g.counters().partial_stripe_writes.load(Ordering::Relaxed),
            1
        );
        g.verify_parity(9, 10).unwrap();
    }

    #[test]
    fn parity_tracks_overwrites() {
        let g = rg(2);
        let w1 = vec![
            BTreeMap::from([(0u64, 0x11_u128)]),
            BTreeMap::from([(0u64, 0x22_u128)]),
        ];
        g.write(&w1).unwrap();
        // Overwrite one side (partial stripe → read the other).
        let w2 = vec![BTreeMap::from([(0u64, 0x33_u128)]), BTreeMap::new()];
        g.write(&w2).unwrap();
        g.verify_parity(0, 1).unwrap();
    }

    #[test]
    fn concurrent_partial_stripe_writes_keep_parity() {
        // Two writers, each rewriting its own drive of the same 256
        // stripes at the same moment (the aio worker and a synchronous
        // metafile write do exactly this). Each write is partial, so each
        // folds the *other* drive's block into parity: unless the
        // read-modify-write is exclusive per group, both read the other's
        // old block and the later parity write erases the earlier one's
        // data from parity.
        const STRIPES: u64 = 256;
        let g = Arc::new(rg(2));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let writers: Vec<_> = (0..2u64)
            .map(|d| {
                let g = Arc::clone(&g);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    for round in 1..=50u64 {
                        let mut maps = vec![BTreeMap::new(), BTreeMap::new()];
                        maps[d as usize] = (0..STRIPES)
                            .map(|dbn| (dbn, crate::stamp(d, dbn, round)))
                            .collect();
                        barrier.wait();
                        g.write(&maps).unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        g.verify_parity(0, STRIPES).unwrap();
    }

    #[test]
    fn reconstruction_recovers_lost_block() {
        let g = rg(3);
        let maps = vec![
            BTreeMap::from([(7u64, 0xdead_u128)]),
            BTreeMap::from([(7u64, 0xbeef_u128)]),
            BTreeMap::from([(7u64, 0xf00d_u128)]),
        ];
        g.write(&maps).unwrap();
        assert_eq!(g.reconstruct(1, Dbn(7)), 0xbeef);
    }

    #[test]
    fn multi_stripe_write_counts_each_stripe() {
        let g = rg(2);
        let maps = vec![
            BTreeMap::from([(0u64, 1u128), (1, 2), (2, 3)]),
            BTreeMap::from([(0u64, 4u128), (1, 5)]), // stripe 2 is partial
        ];
        let (_, reads) = g.write(&maps).unwrap();
        // ordering: test readback.
        assert_eq!(g.counters().full_stripe_writes.load(Ordering::Relaxed), 2);
        assert_eq!(
            // ordering: statistics counter; staleness is acceptable.
            g.counters().partial_stripe_writes.load(Ordering::Relaxed),
            1
        );
        assert_eq!(reads, 1);
        g.verify_parity(0, 3).unwrap();
    }

    #[test]
    fn contiguous_runs_issue_one_drive_write() {
        let g = rg(1);
        let maps = vec![BTreeMap::from([(0u64, 1u128), (1, 2), (2, 3), (10, 4)])];
        g.write(&maps).unwrap();
        // 2 runs: [0..3) and [10..11).
        assert_eq!(g.data_drives()[0].stats().writes, 2);
        assert_eq!(g.data_drives()[0].stats().blocks_written, 4);
    }

    #[test]
    fn transient_errors_are_retried_to_success() {
        let g = rg(2);
        // ~30 % transient write errors: with 3 retries the probability of
        // a terminal failure per run is ~0.8 %, and the fixed seed below
        // is verified to complete without one.
        let spec = FaultSpec {
            seed: 1234,
            write_error_ppm: 300_000,
            ..FaultSpec::default()
        };
        let plan = Arc::new(FaultPlan::new(spec));
        for d in g.data_drives().iter().chain(g.parity_drives()) {
            d.set_fault_plan(Arc::clone(&plan));
        }
        for dbn in 0..32u64 {
            let maps = vec![
                BTreeMap::from([(dbn, crate::stamp(0, dbn, 1))]),
                BTreeMap::from([(dbn, crate::stamp(1, dbn, 1))]),
            ];
            g.write(&maps).unwrap();
        }
        assert!(
            // ordering: statistics counter; staleness is acceptable.
            g.counters().io_retries.load(Ordering::Relaxed) > 0,
            "expected retries at 30 % error rate"
        );
        assert!(g.offline_data_drives().is_empty());
        g.verify_parity(0, 32).unwrap();
    }

    #[test]
    fn failed_drive_degrades_then_rebuilds() {
        let g = rg(3);
        // Drive 1 dies after its first op.
        let plan = Arc::new(FaultPlan::new(FaultSpec::drive_failure(1, 1)));
        for d in g.data_drives().iter().chain(g.parity_drives()) {
            d.set_fault_plan(Arc::clone(&plan));
        }
        // First write succeeds everywhere.
        let w = |dbn: u64| {
            vec![
                BTreeMap::from([(dbn, crate::stamp(0, dbn, 1))]),
                BTreeMap::from([(dbn, crate::stamp(1, dbn, 1))]),
                BTreeMap::from([(dbn, crate::stamp(2, dbn, 1))]),
            ]
        };
        g.write(&w(0)).unwrap();
        // Second write hits the dead drive → degraded, not failed.
        g.write(&w(1)).unwrap();
        assert_eq!(g.offline_data_drives(), vec![1]);
        // ordering: test readback.
        assert!(g.counters().degraded_writes.load(Ordering::Relaxed) > 0);
        // Degraded read returns the *intended* stamp via reconstruction.
        let (s, _) = g.read_block(1, Dbn(1)).unwrap();
        assert_eq!(s, crate::stamp(1, 1, 1));
        // ordering: test readback.
        assert!(g.counters().reconstructed_reads.load(Ordering::Relaxed) > 0);
        // Raw media is stale, so the scrub fails while degraded...
        assert!(g.verify_parity(1, 2).is_err());
        // ...and passes again after a rebuild.
        assert_eq!(g.rebuild_drive(1), 256);
        assert!(g.offline_data_drives().is_empty());
        g.verify_parity(0, 2).unwrap();
        assert_eq!(g.read_block(1, Dbn(1)).unwrap().0, crate::stamp(1, 1, 1));
    }

    #[test]
    fn degraded_partial_stripe_write_reconstructs_old_values() {
        let g = rg(3);
        let full = vec![
            BTreeMap::from([(4u64, 0x10_u128)]),
            BTreeMap::from([(4u64, 0x20_u128)]),
            BTreeMap::from([(4u64, 0x30_u128)]),
        ];
        g.write(&full).unwrap();
        g.data_drives()[2].take_offline();
        // Partial write touching only drive 0: the untouched offline
        // drive 2 must contribute its (reconstructed) old value to parity.
        let partial = vec![
            BTreeMap::from([(4u64, 0x40_u128)]),
            BTreeMap::new(),
            BTreeMap::new(),
        ];
        g.write(&partial).unwrap();
        assert_eq!(g.read_block(2, Dbn(4)).unwrap().0, 0x30);
        assert_eq!(g.read_block(1, Dbn(4)).unwrap().0, 0x20);
        assert_eq!(g.read_block(0, Dbn(4)).unwrap().0, 0x40);
    }

    #[test]
    fn double_failure_is_unrecoverable() {
        let g = rg(3);
        let maps = vec![
            BTreeMap::from([(0u64, 1u128)]),
            BTreeMap::from([(0u64, 2u128)]),
            BTreeMap::from([(0u64, 3u128)]),
        ];
        g.write(&maps).unwrap();
        g.data_drives()[0].take_offline();
        g.data_drives()[1].take_offline();
        assert!(matches!(
            g.read_block(0, Dbn(0)),
            Err(IoError::Unrecoverable { .. })
        ));
    }
}
