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
//! ## Concurrent writers
//!
//! A partial-stripe write is a read-modify-write of the stripe's parity
//! block, and the group has several writers (its aio worker, the
//! synchronous metafile `write_vbn` path, scrub repairs). One
//! per-group mutex serializes them: it is held from the read of the
//! untouched blocks to the parity write, and by every repair and
//! rebuild, so parity is always computed from the data that is on media
//! when it lands. It ranks before the drive locks it is held across.

use crate::drive::{Drive, DriveKind};
use crate::fault::{IoError, RetryPolicy};
use crate::geometry::{Dbn, DriveId, RaidGroupGeometry};
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
    stripe_write: Mutex<()>, // lock-rank: raid.stripe-write 69
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
            stripe_write: Mutex::new(()),
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

    /// Read one block through the retry policy. Backoff is charged to
    /// the returned service time.
    fn read_with_retries(&self, drive: &Drive, dbn: Dbn) -> Result<(BlockStamp, u64), IoError> {
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

    /// Write one run through the retry policy. Backoff is charged to the
    /// returned service time.
    fn write_with_retries(
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

    /// Write a DBN→stamp map to one drive as maximal contiguous runs,
    /// applying the retry policy per run. Returns accumulated service
    /// time, or the first terminal error.
    fn write_runs(&self, drive: &Drive, m: &BTreeMap<u64, BlockStamp>) -> Result<u64, IoError> {
        let mut ns = 0u64;
        let mut iter = m.iter().peekable();
        while let Some((&start, &first)) = iter.next() {
            let mut run = vec![first];
            let mut next = start + 1;
            while let Some(&(&d, &s)) = iter.peek() {
                if d == next {
                    run.push(s);
                    next += 1;
                    iter.next();
                } else {
                    break;
                }
            }
            ns += self.write_with_retries(drive, Dbn(start), &run)?;
        }
        Ok(ns)
    }

    /// Apply a write organized as per-drive block maps and maintain
    /// parity. `per_drive[i]` maps DBN → stamp for data drive `i` (index
    /// within the group). Returns `(service_ns, parity_reads)` where
    /// `service_ns` is the *maximum* over drives (drives work in
    /// parallel, the group completes when the slowest member does).
    ///
    /// A single failed data drive does not fail the write: its media
    /// blocks are skipped but its intended stamps are folded into parity,
    /// leaving them reconstructable (degraded mode). The write errors
    /// only when reconstruction itself is impossible (a second failure in
    /// a single-parity group) or on a structural error.
    pub fn write(&self, per_drive: &[BTreeMap<u64, BlockStamp>]) -> Result<(u64, u64), IoError> {
        assert_eq!(per_drive.len(), self.data.len(), "one map per data drive");
        let _w = self.stripe_write.lock();

        // Gather the set of stripes touched and whether each is full.
        let mut stripes: BTreeMap<u64, u32> = BTreeMap::new();
        for m in per_drive {
            for &dbn in m.keys() {
                *stripes.entry(dbn).or_insert(0) += 1;
            }
        }

        let width = self.width();
        let mut parity_reads = 0u64;
        let mut parity_updates: BTreeMap<u64, BlockStamp> = BTreeMap::new();

        for (&dbn, &covered) in &stripes {
            let mut parity = 0u128;
            if covered == width {
                // Full stripe: parity from new data only.
                self.counters
                    .full_stripe_writes
                    // ordering: statistics counter; staleness is acceptable.
                    .fetch_add(1, Ordering::Relaxed);
                for m in per_drive {
                    parity ^= m[&dbn];
                }
            } else {
                // Partial stripe: read the untouched blocks back.
                self.counters
                    .partial_stripe_writes
                    // ordering: statistics counter; staleness is acceptable.
                    .fetch_add(1, Ordering::Relaxed);
                for (i, m) in per_drive.iter().enumerate() {
                    match m.get(&dbn) {
                        Some(&s) => parity ^= s,
                        None => {
                            let old = match self.read_with_retries(&self.data[i], Dbn(dbn)) {
                                Ok((old, _)) => old,
                                Err(_) => {
                                    // Degraded read-modify-write: recover
                                    // the untouched block's logical value
                                    // from parity + surviving media.
                                    self.ensure_reconstructable(i as u32)?;
                                    self.counters
                                        .reconstructed_reads
                                        // ordering: statistics counter; staleness is acceptable.
                                        .fetch_add(1, Ordering::Relaxed);
                                    self.reconstruct(i as u32, Dbn(dbn))
                                }
                            };
                            parity ^= old;
                            parity_reads += 1;
                        }
                    }
                }
            }
            parity_updates.insert(dbn, parity);
        }
        self.counters
            .parity_read_blocks
            // ordering: statistics counter; staleness is acceptable.
            .fetch_add(parity_reads, Ordering::Relaxed);

        // Issue per-drive writes as maximal contiguous runs; the group's
        // service time is the slowest drive (drives operate in parallel).
        // A terminal per-drive failure degrades that drive instead of
        // failing the I/O: parity above already encodes its stamps.
        let mut max_ns = 0u64;
        for (i, m) in per_drive.iter().enumerate() {
            if m.is_empty() {
                continue;
            }
            match self.write_runs(&self.data[i], m) {
                Ok(ns) => max_ns = max_ns.max(ns),
                Err(IoError::Capacity { .. }) => {
                    return Err(IoError::Capacity {
                        drive: self.data[i].id(),
                        dbn: Dbn(*m.keys().next().unwrap()),
                        blocks: m.len() as u64,
                    })
                }
                Err(_) => {
                    // A write that exhausted its retries lost data on
                    // that drive: take it out of service unconditionally
                    // (stale media must never serve direct reads) and
                    // rely on parity for its contents.
                    self.data[i].take_offline();
                    self.ensure_reconstructable(i as u32)?;
                    self.counters
                        .degraded_writes
                        // ordering: statistics counter; staleness is acceptable.
                        .fetch_add(m.len() as u64, Ordering::Relaxed);
                    self.counters
                        .degraded_stripes
                        // ordering: statistics counter; staleness is acceptable.
                        .fetch_add(m.len() as u64, Ordering::Relaxed);
                }
            }
        }
        for p in &self.parity {
            match self.write_runs(p, &parity_updates) {
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
                        .fetch_add(parity_updates.len() as u64, Ordering::Relaxed);
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
            d.set_fault_plan(Some(Arc::clone(&plan)));
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
            d.set_fault_plan(Some(Arc::clone(&plan)));
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
