//! Online parallel scrub/fsck over the Waffinity pool.
//!
//! WAFL's RAID layer scrubs continuously in production: parity is
//! re-verified, the active map is cross-checked against the block trees,
//! and latent media errors are repaired from redundancy *while the file
//! system serves traffic*. This module reproduces that discipline on the
//! simulated substrate: a scrub pass walks every allocation area (AA) of
//! every RAID group as Range-affinity messages on the Waffinity pool —
//! the same §IV-A message hierarchy the allocator's infrastructure work
//! runs in — so scrub parallelism composes with (and is fenced by) the
//! ordinary affinity rules rather than a private lock order.
//!
//! Each scrub **unit** is one `(raid group, AA)` pair. Detection is
//! read-only and runs concurrently, `ScrubConfig::workers` units at a
//! time; repair is serialized on the calling thread inside a CP-quiet
//! window. The pipeline per finding is a small state machine:
//!
//! ```text
//!   detect ──▶ quarantine (re-check in a CP-quiet window,
//!         │     cache flushed — racy sightings die here)
//!         └──▶ repair (reconstruct / bitmap adopt / AA re-credit)
//!               └──▶ re-verify (read back, XOR, bit state)
//! ```
//!
//! Robustness properties:
//!
//! * **Checkpointable**: the cursor (next unit) and the set of already
//!   repaired finding keys are committed to a [`ScrubCheckpointStore`]
//!   after every unit. A scrub interrupted by `crash_and_recover`
//!   resumes from the cursor and suppresses findings it already
//!   repaired instead of re-reporting them.
//! * **Bounded retry**: transiently faulted reads are retried with the
//!   same exponential-backoff shape as [`RetryPolicy`] before a block
//!   is declared unreadable.
//! * **Graceful degradation**: between waves the scrubber samples
//!   cleaner-pool utilization and pauses above
//!   [`ScrubConfig::pause_above`], resuming below
//!   [`ScrubConfig::resume_below`] — the §V-B hysteresis shape, applied
//!   to background work instead of thread counts.
//!
//! Every `scrub_*` counter flows through [`alligator::AllocStats`] into
//! the unified `obs` metrics surface, and each unit scan emits an
//! [`obs::EventKind::Scrub`] trace span.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use alligator::AllocStats;
use parking_lot::Mutex;
use wafl_blockdev::{AaId, BlockStamp, Dbn, IoEngine, IoError, RetryPolicy, Vbn};
use wafl_metafile::{AggregateMap, AllocError};

use crate::fs::Filesystem;

/// How many CP-quiet evaluation rounds quarantine attempts before
/// accepting a best-effort verdict (CPs kept landing mid-evaluation).
const CONFIRM_ROUNDS: u32 = 16;

/// Maximum 500 µs pause ticks per pressure-gate episode, so a saturated
/// cleaner pool can delay but never livelock the scrub.
const MAX_PAUSE_TICKS: u32 = 200;

/// Configuration for one scrub pass.
#[derive(Debug, Clone)]
pub struct ScrubConfig {
    /// Units scanned concurrently per wave (Waffinity messages in
    /// flight). Clamped to at least 1.
    pub workers: usize,
    /// Retry/backoff policy for transiently faulted reads during
    /// detection and re-verification.
    pub retry: RetryPolicy,
    /// Cleaner-pool utilization above which the scrubber pauses
    /// between waves (§V-B activation threshold shape).
    pub pause_above: f64,
    /// Utilization below which a paused scrubber resumes.
    pub resume_below: f64,
    /// Scan at most this many units in this call (the cursor checkpoint
    /// makes the next call resume where this one stopped). `None`
    /// scans to the end of the pass.
    pub unit_budget: Option<usize>,
    /// Bounded spins (200 µs each) waiting for a CP-quiet window before
    /// each quarantine evaluation round.
    pub quiesce_spins: u32,
}

impl Default for ScrubConfig {
    fn default() -> Self {
        ScrubConfig {
            workers: 4,
            retry: RetryPolicy::default(),
            pause_above: 0.90,
            resume_below: 0.50,
            unit_budget: None,
            quiesce_spins: 64,
        }
    }
}

/// A typed corruption finding. The variants cover the seeded fault
/// classes of the torture suite: media bit-flips and torn writes
/// (`StampMismatch`, `ParityMismatch`), bitmap corruption
/// (`StaleActiveBit`, `MissingActiveBit`), AA summary skew
/// (`AaCounterSkew`), dead drives, and reads that stay faulted past the
/// retry budget (`UnreadableBlock`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScrubError {
    /// Media stamp at `vbn` differs from the committed reference.
    StampMismatch {
        /// Physical block number.
        vbn: u64,
        /// Stamp the committed tree expects.
        expected: BlockStamp,
        /// Stamp read from media.
        found: BlockStamp,
    },
    /// Stripe parity does not equal the XOR of its data blocks.
    ParityMismatch {
        /// RAID group index.
        rg: u32,
        /// Drive block offset of the stripe.
        dbn: u64,
    },
    /// A committed tree references `vbn` but its active-map bit is
    /// clear (refcount skew toward free).
    MissingActiveBit {
        /// Physical block number.
        vbn: u64,
    },
    /// Active-map bit set for a block no committed tree references
    /// (refcount skew toward used — a leak).
    StaleActiveBit {
        /// Physical block number.
        vbn: u64,
    },
    /// AA summary free count disagrees with the bitmap itself.
    AaCounterSkew {
        /// RAID group index.
        rg: u32,
        /// AA index within the group.
        aa: u32,
        /// Free count the AA summary tracks.
        tracked: u64,
        /// Free count recounted from the bitmap.
        actual: u64,
    },
    /// A drive in the unit's RAID group is offline.
    DeadDrive {
        /// Aggregate-wide drive id.
        drive: u32,
    },
    /// Referenced block unreadable after the bounded retry budget.
    UnreadableBlock {
        /// Physical block number.
        vbn: u64,
    },
}

impl ScrubError {
    /// Stable identity for checkpoint suppression: the same corruption
    /// re-detected after a crash produces the same key. Volatile
    /// payload (found stamps, live counts) is excluded.
    pub fn key(&self) -> String {
        match self {
            ScrubError::StampMismatch { vbn, .. } => format!("stamp:vbn={vbn}"),
            ScrubError::ParityMismatch { rg, dbn } => format!("parity:rg={rg}:dbn={dbn}"),
            ScrubError::MissingActiveBit { vbn } => format!("missbit:vbn={vbn}"),
            ScrubError::StaleActiveBit { vbn } => format!("stalebit:vbn={vbn}"),
            ScrubError::AaCounterSkew { rg, aa, .. } => format!("aaskew:rg={rg}:aa={aa}"),
            ScrubError::DeadDrive { drive } => format!("dead:drive={drive}"),
            ScrubError::UnreadableBlock { vbn } => format!("unread:vbn={vbn}"),
        }
    }

    /// Short class name (for counters and report rollups).
    pub fn kind(&self) -> &'static str {
        match self {
            ScrubError::StampMismatch { .. } => "stamp_mismatch",
            ScrubError::ParityMismatch { .. } => "parity_mismatch",
            ScrubError::MissingActiveBit { .. } => "missing_active_bit",
            ScrubError::StaleActiveBit { .. } => "stale_active_bit",
            ScrubError::AaCounterSkew { .. } => "aa_counter_skew",
            ScrubError::DeadDrive { .. } => "dead_drive",
            ScrubError::UnreadableBlock { .. } => "unreadable_block",
        }
    }
}

impl fmt::Display for ScrubError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScrubError::StampMismatch {
                vbn,
                expected,
                found,
            } => write!(
                f,
                "stamp mismatch at vbn {vbn}: expected {expected:#x}, found {found:#x}"
            ),
            ScrubError::ParityMismatch { rg, dbn } => {
                write!(f, "parity mismatch in rg {rg} at dbn {dbn}")
            }
            ScrubError::MissingActiveBit { vbn } => {
                write!(f, "referenced vbn {vbn} has a clear active-map bit")
            }
            ScrubError::StaleActiveBit { vbn } => {
                write!(f, "unreferenced vbn {vbn} has a set active-map bit")
            }
            ScrubError::AaCounterSkew {
                rg,
                aa,
                tracked,
                actual,
            } => write!(
                f,
                "AA summary skew in rg {rg} aa {aa}: tracked {tracked} free, bitmap says {actual}"
            ),
            ScrubError::DeadDrive { drive } => write!(f, "drive {drive} is offline"),
            ScrubError::UnreadableBlock { vbn } => {
                write!(f, "vbn {vbn} unreadable after retries")
            }
        }
    }
}

/// Where a confirmed finding ended up in the repair state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingState {
    /// Confirmed but not yet acted on (transient internal state; a
    /// returned report never carries it).
    Detected,
    /// Repaired, but the re-verification read could not run.
    Repaired,
    /// Repaired and re-verified clean (or re-verified clean after a
    /// sibling repair in the same batch fixed the shared root cause).
    Reverified,
    /// Real, but not repairable from available redundancy.
    Unrepairable,
}

/// One confirmed finding with its terminal repair state.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The typed corruption.
    pub error: ScrubError,
    /// Terminal state after repair/re-verify.
    pub state: FindingState,
}

/// Durable scrub cursor: committed after every unit, survives
/// `crash_and_recover` the same way [`crate::cp::SuperblockStore`]
/// does — the caller holds the [`Arc`] across the crash boundary.
#[derive(Debug, Clone)]
pub struct ScrubCheckpoint {
    /// Monotonic pass number (bumped when a pass completes).
    pub pass: u64,
    /// Next unit index to scan (units `0..next_unit` are done).
    pub next_unit: u64,
    /// Unit count the cursor was computed against; a geometry change
    /// invalidates the checkpoint.
    pub total_units: u64,
    /// Keys (see [`ScrubError::key`]) of findings already repaired in
    /// this pass; re-detections are suppressed, not re-reported.
    pub repaired: BTreeSet<String>,
}

/// Shared store for the scrub cursor (the scrubber's "superblock").
#[derive(Debug)]
pub struct ScrubCheckpointStore {
    slot: Mutex<Option<ScrubCheckpoint>>,
}

impl Default for ScrubCheckpointStore {
    fn default() -> Self {
        Self {
            slot: Mutex::ranked(None, "scrub.slot", 25),
        }
    }
}

impl ScrubCheckpointStore {
    /// Empty store (no pass in flight).
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Atomically commit a checkpoint, replacing any previous one.
    pub fn commit(&self, cp: ScrubCheckpoint) {
        *self.slot.lock() = Some(cp);
    }

    /// The most recently committed checkpoint, if any.
    pub fn load(&self) -> Option<ScrubCheckpoint> {
        self.slot.lock().clone()
    }

    /// Drop any stored checkpoint (tests; or to force a fresh pass).
    pub fn clear(&self) {
        *self.slot.lock() = None;
    }
}

/// Result of one scrub pass (or one budgeted slice of a pass).
#[derive(Debug, Default)]
pub struct ScrubReport {
    /// Total units in the pass (RAID groups × AAs).
    pub units_total: u64,
    /// Units scanned by this call.
    pub units_scanned: u64,
    /// `Some(unit)` when this call resumed a checkpointed pass.
    pub resumed_from: Option<u64>,
    /// Did this call reach the end of the pass?
    pub completed: bool,
    /// Blocks examined (data reads + parity stripes + bitmap bits).
    pub blocks_checked: u64,
    /// Confirmed findings with their terminal repair states.
    pub findings: Vec<Finding>,
    /// Detection-phase candidates that evaporated under quarantine
    /// re-check (races with live allocation, not corruption).
    pub false_alarms: u64,
    /// Confirmed findings suppressed because the checkpoint says they
    /// were already repaired earlier in this pass.
    pub suppressed: u64,
    /// Transient-fault read retries performed during scanning.
    pub retries: u64,
    /// Pressure-gate pause episodes.
    pub pauses: u64,
    /// p50 of per-unit scan time, nanoseconds.
    pub unit_scan_p50_ns: u64,
    /// p99 of per-unit scan time, nanoseconds.
    pub unit_scan_p99_ns: u64,
}

impl ScrubReport {
    /// Confirmed findings reported by this call.
    pub fn detected(&self) -> u64 {
        self.findings.len() as u64
    }

    /// Findings repaired (whether or not re-verified).
    pub fn repaired(&self) -> u64 {
        self.findings
            .iter()
            .filter(|f| matches!(f.state, FindingState::Repaired | FindingState::Reverified))
            .count() as u64
    }

    /// Findings repaired *and* re-verified clean.
    pub fn reverified(&self) -> u64 {
        self.findings
            .iter()
            .filter(|f| f.state == FindingState::Reverified)
            .count() as u64
    }

    /// Findings that could not be repaired from redundancy.
    pub fn unrepairable(&self) -> u64 {
        self.findings
            .iter()
            .filter(|f| f.state == FindingState::Unrepairable)
            .count() as u64
    }

    /// No confirmed findings and nothing suppressed: the scanned slice
    /// is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.suppressed == 0
    }
}

/// §V-B-style hysteresis gate: pause when utilization crosses
/// `pause_above`, resume only when it falls below `resume_below`.
/// The dead band prevents flapping under oscillating load.
#[derive(Debug)]
pub struct PressureGate {
    pause_above: f64,
    resume_below: f64,
    paused: bool,
}

impl PressureGate {
    /// Gate with the given thresholds (`resume_below` should be well
    /// under `pause_above`; 0.90/0.50 mirrors the §V-B tuner).
    pub fn new(pause_above: f64, resume_below: f64) -> Self {
        PressureGate {
            pause_above,
            resume_below,
            paused: false,
        }
    }

    /// Feed one utilization sample (0.0..=1.0); returns the post-sample
    /// paused state.
    pub fn observe(&mut self, utilization: f64) -> bool {
        if self.paused {
            if utilization < self.resume_below {
                self.paused = false;
            }
        } else if utilization > self.pause_above {
            self.paused = true;
        }
        self.paused
    }

    /// Currently paused?
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// Force the gate open (pause budget exhausted: progress beats
    /// politeness).
    pub fn force_resume(&mut self) {
        self.paused = false;
    }
}

/// Shared, `Send + Sync` context each detection message owns a clone of.
struct ScanCtx {
    io: Arc<IoEngine>,
    aggmap: Arc<AggregateMap>,
    /// vbn → expected stamp (`None` for metafile blocks, whose stamps
    /// the reference tree does not record).
    refs: Arc<BTreeMap<u64, Option<BlockStamp>>>,
    retry: RetryPolicy,
    stats: Arc<AllocStats>,
}

/// What one unit's detection message sends back.
struct UnitScan {
    blocks: u64,
    scan_ns: u64,
    retries: u64,
    cands: Vec<ScrubError>,
}

/// Reference index from the committed disk image only — cheap, stable
/// for a whole pass, used by the concurrent detection phase. Candidates
/// it produces are re-checked against [`build_confirm_refs`] before
/// anything is reported.
fn build_image_refs(fs: &Filesystem) -> BTreeMap<u64, Option<BlockStamp>> {
    let mut refs = BTreeMap::new();
    if let Some(img) = fs.committed_image() {
        for vi in &img.volumes {
            for blocks in vi.files.values() {
                for (_fbn, ptr) in blocks.iter() {
                    refs.insert(ptr.pvbn.0, Some(ptr.stamp));
                }
            }
            for snap in &vi.snapshots {
                for (_f, _fbn, ptr) in snap.iter_blocks() {
                    refs.entry(ptr.pvbn.0).or_insert(Some(ptr.stamp));
                }
            }
        }
        for ((_src, _blk), vbn) in &img.metafile_locs {
            refs.insert(vbn.0, None);
        }
    }
    refs
}

/// Reference index for quarantine: the union of the *live* committed
/// block maps (CP apply updates these; a concurrent delete removes its
/// references immediately) and the committed image (which the on-disk
/// superblock still points to). A block is only "unreferenced" — and a
/// set bit only stale — when neither side claims it; a block is only
/// "referenced" when at least one side does. The union is conservative
/// in both directions, so quarantine never repairs away a bit that
/// crash recovery would still need.
fn build_confirm_refs(fs: &Filesystem) -> BTreeMap<u64, Option<BlockStamp>> {
    let mut refs = build_image_refs(fs);
    for v in fs.volumes() {
        for f in v.file_ids() {
            if let Some(inode) = v.inode(f) {
                for (_fbn, ptr) in inode.lock().block_map().iter() {
                    refs.insert(ptr.pvbn.0, Some(ptr.stamp));
                }
            }
        }
        for snap in v.snapshots().list() {
            for (_f, _fbn, ptr) in snap.iter_blocks() {
                refs.entry(ptr.pvbn.0).or_insert(Some(ptr.stamp));
            }
        }
    }
    refs
}

/// Read `vbn` with the scrub's own bounded retry/backoff on transient
/// faults (the RAID layer's internal policy already ran underneath;
/// this is the scrubber's outer patience budget).
fn read_with_retry(ctx: &ScanCtx, vbn: Vbn, retries: &mut u64) -> Result<BlockStamp, IoError> {
    let mut last = None;
    for attempt in 0..=ctx.retry.max_retries {
        match ctx.io.read_vbn(vbn) {
            Ok(s) => return Ok(s),
            Err(e @ IoError::Transient { .. }) => {
                *retries += 1;
                // ordering: statistics counter; staleness is acceptable.
                ctx.stats.scrub_retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_nanos(
                    ctx.retry.backoff_base_ns << attempt.min(10),
                ));
                last = Some(e);
            }
            Err(e) => return Err(e),
        }
    }
    Err(last.unwrap_or(IoError::Unrecoverable {
        detail: "retry budget exhausted",
    }))
}

/// Recount an AA's free blocks straight from the bitmap.
fn recount_aa_free(ctx: &ScanCtx, aa: AaId) -> u64 {
    let geo = ctx.io.geometry();
    let group = ctx.io.raid_group(aa.rg);
    let dbns = geo.aa_dbn_range(aa);
    let map = ctx.aggmap.active_map();
    let mut free = 0u64;
    for d in 0..group.data_drives().len() as u32 {
        let base = group.geometry().drive_vbn_range(d).start;
        free += map.count_free_in(base + dbns.start, base + dbns.end);
    }
    free
}

/// Detection phase for one unit: read-only, safe to run concurrently
/// with cleaners and CPs. Everything it flags is a *candidate* — racy
/// sightings are expected and are filtered by quarantine.
fn scan_unit(ctx: &ScanCtx, aa: AaId) -> UnitScan {
    let t0 = Instant::now();
    let mut sp = obs::trace_span!(obs::EventKind::Scrub);
    let geo = Arc::clone(ctx.io.geometry());
    let group = ctx.io.raid_group(aa.rg);
    let dbns = geo.aa_dbn_range(aa);
    let mut cands = Vec::new();
    let mut blocks = 0u64;
    let mut retries = 0u64;

    // Drive health first: a dead drive is itself a finding, and it
    // poisons raw-media checks (stale peeks) for the whole group.
    let offline_data = group.offline_data_drives();
    for d in &offline_data {
        cands.push(ScrubError::DeadDrive {
            drive: group.data_drives()[*d as usize].id().0,
        });
    }
    let mut parity_offline = false;
    for p in group.parity_drives() {
        if p.is_offline() {
            parity_offline = true;
            cands.push(ScrubError::DeadDrive { drive: p.id().0 });
        }
    }
    let degraded = !offline_data.is_empty() || parity_offline;

    // Per-block checks: reference vs media stamp, reference vs bitmap.
    // read_vbn is degraded-transparent, so stamp verification keeps
    // working through a single drive failure.
    for d in 0..group.data_drives().len() as u32 {
        for dbn in dbns.clone() {
            let vbn = geo.vbn_at(aa.rg, d, Dbn(dbn));
            blocks += 1;
            let used = ctx.aggmap.is_used(vbn);
            match ctx.refs.get(&vbn.0) {
                Some(expected) => {
                    if !used {
                        cands.push(ScrubError::MissingActiveBit { vbn: vbn.0 });
                    }
                    match read_with_retry(ctx, vbn, &mut retries) {
                        Ok(found) => {
                            if let Some(exp) = expected {
                                if found != *exp {
                                    cands.push(ScrubError::StampMismatch {
                                        vbn: vbn.0,
                                        expected: *exp,
                                        found,
                                    });
                                }
                            }
                        }
                        Err(IoError::DriveFailed { .. }) => {} // flagged above
                        Err(_) => cands.push(ScrubError::UnreadableBlock { vbn: vbn.0 }),
                    }
                }
                None => {
                    if used {
                        cands.push(ScrubError::StaleActiveBit { vbn: vbn.0 });
                    }
                }
            }
        }
    }

    // Parity XOR check over raw media — only meaningful when every
    // group member is online (offline media is stale by definition).
    if !degraded {
        for dbn in dbns.clone() {
            blocks += 1;
            let xor = group
                .data_drives()
                .iter()
                .fold(0u128, |x, drv| x ^ drv.peek(Dbn(dbn)));
            if xor != group.parity_drives()[0].peek(Dbn(dbn)) {
                cands.push(ScrubError::ParityMismatch { rg: aa.rg.0, dbn });
            }
        }
    }

    // AA summary cross-check. Live allocation makes transient skew
    // normal; require it to hold across an immediate re-read before
    // even flagging a candidate (quarantine still gets the final say).
    let tracked = ctx.aggmap.aa_stats().free_in(aa);
    let actual = recount_aa_free(ctx, aa);
    if tracked != actual {
        let tracked2 = ctx.aggmap.aa_stats().free_in(aa);
        let actual2 = recount_aa_free(ctx, aa);
        if tracked2 != actual2 {
            cands.push(ScrubError::AaCounterSkew {
                rg: aa.rg.0,
                aa: aa.index,
                tracked: tracked2,
                actual: actual2,
            });
        }
    }

    sp.set_arg(blocks);
    UnitScan {
        blocks,
        scan_ns: t0.elapsed().as_nanos() as u64,
        retries,
        cands,
    }
}

/// Spin (bounded) until no CP is in flight.
fn wait_cp_quiet(fs: &Filesystem, spins: u32) {
    for _ in 0..spins {
        if !fs.cp_in_flight() {
            return;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Re-evaluate one candidate against fresh references in a quiet
/// window. `None` means the sighting evaporated (false alarm).
fn recheck(
    fs: &Filesystem,
    ctx: &ScanCtx,
    refs: &BTreeMap<u64, Option<BlockStamp>>,
    cand: &ScrubError,
) -> Option<ScrubError> {
    let mut retries = 0u64;
    match cand {
        ScrubError::StampMismatch { vbn, .. } => {
            let exp = (*refs.get(vbn)?)?;
            match read_with_retry(ctx, Vbn(*vbn), &mut retries) {
                Ok(found) if found != exp => Some(ScrubError::StampMismatch {
                    vbn: *vbn,
                    expected: exp,
                    found,
                }),
                Ok(_) => None,
                Err(IoError::DriveFailed { .. }) => None,
                Err(_) => Some(ScrubError::UnreadableBlock { vbn: *vbn }),
            }
        }
        ScrubError::UnreadableBlock { vbn } => {
            refs.get(vbn)?;
            match read_with_retry(ctx, Vbn(*vbn), &mut retries) {
                Ok(found) => match refs.get(vbn) {
                    Some(Some(exp)) if found != *exp => Some(ScrubError::StampMismatch {
                        vbn: *vbn,
                        expected: *exp,
                        found,
                    }),
                    _ => None,
                },
                Err(IoError::DriveFailed { .. }) => None,
                Err(_) => Some(cand.clone()),
            }
        }
        ScrubError::ParityMismatch { rg, dbn } => {
            let group = ctx.io.raid_group(wafl_blockdev::RaidGroupId(*rg));
            if !group.offline_data_drives().is_empty()
                || group.parity_drives().iter().any(|p| p.is_offline())
            {
                return None; // dead-drive finding owns this stripe
            }
            let xor = group
                .data_drives()
                .iter()
                .fold(0u128, |x, drv| x ^ drv.peek(Dbn(*dbn)));
            (xor != group.parity_drives()[0].peek(Dbn(*dbn))).then(|| cand.clone())
        }
        ScrubError::MissingActiveBit { vbn } => {
            (refs.contains_key(vbn) && !ctx.aggmap.is_used(Vbn(*vbn))).then(|| cand.clone())
        }
        ScrubError::StaleActiveBit { vbn } => {
            (!refs.contains_key(vbn) && ctx.aggmap.is_used(Vbn(*vbn))).then(|| cand.clone())
        }
        ScrubError::AaCounterSkew { rg, aa, .. } => {
            let id = AaId {
                rg: wafl_blockdev::RaidGroupId(*rg),
                index: *aa,
            };
            let tracked = ctx.aggmap.aa_stats().free_in(id);
            let actual = recount_aa_free(ctx, id);
            (tracked != actual).then_some(ScrubError::AaCounterSkew {
                rg: *rg,
                aa: *aa,
                tracked,
                actual,
            })
        }
        ScrubError::DeadDrive { drive } => fs
            .io()
            .offline_drives()
            .iter()
            .any(|d| d.0 == *drive)
            .then(|| cand.clone()),
    }
}

/// Quarantine: re-evaluate candidates inside a CP-quiet window with the
/// allocator's bucket cache flushed (so reserved-but-unreferenced bits
/// do not masquerade as leaks). Retries until an evaluation round sees
/// no CP land mid-flight, bounded by [`CONFIRM_ROUNDS`]. Returns the
/// surviving findings, the false-alarm count, and the reference index
/// of the final round (for the repair phase).
#[allow(clippy::type_complexity)]
fn confirm_unit(
    fs: &Filesystem,
    cfg: &ScrubConfig,
    ctx: &ScanCtx,
    cands: Vec<ScrubError>,
) -> (Vec<ScrubError>, u64, BTreeMap<u64, Option<BlockStamp>>) {
    let mut uniq: BTreeMap<String, ScrubError> = BTreeMap::new();
    for c in cands {
        uniq.entry(c.key()).or_insert(c);
    }
    let needs_flush = uniq.values().any(|e| {
        matches!(
            e,
            ScrubError::StaleActiveBit { .. }
                | ScrubError::MissingActiveBit { .. }
                | ScrubError::AaCounterSkew { .. }
        )
    });
    let mut still: Vec<ScrubError> = Vec::new();
    let mut refs = BTreeMap::new();
    for round in 0..CONFIRM_ROUNDS {
        wait_cp_quiet(fs, cfg.quiesce_spins);
        let cp0 = fs.cp_count();
        if needs_flush {
            // Retire every cached (unheld) bucket and drain pending
            // infrastructure work: outstanding reservations are the one
            // legitimate reason a set bit has no referencing tree.
            fs.allocator().flush_cache();
            fs.allocator().drain();
        }
        refs = build_confirm_refs(fs);
        still = uniq
            .values()
            .filter_map(|e| recheck(fs, ctx, &refs, e))
            .collect();
        let quiet = fs.cp_count() == cp0 && !fs.cp_in_flight();
        if quiet || round + 1 == CONFIRM_ROUNDS {
            break;
        }
    }
    let fa = (uniq.len() as u64).saturating_sub(still.len() as u64);
    (still, fa, refs)
}

/// Reconcile one AA's tracked free count against a recount of its
/// active-map range. Idempotent; used by every bitmap-class repair so
/// the counters always end consistent with the bits.
fn reconcile_aa(ctx: &ScanCtx, id: AaId) {
    let tracked = ctx.aggmap.aa_stats().free_in(id);
    let actual = recount_aa_free(ctx, id);
    if tracked > actual {
        ctx.aggmap.aa_stats().on_reserve(id, tracked - actual);
    } else if actual > tracked {
        ctx.aggmap.aa_stats().on_release(id, actual - tracked);
    }
}

/// Repair ordering: fix known-bad data blocks from redundancy *before*
/// rebuilding a dead drive — a rebuild XORs the survivors, so any
/// surviving corruption would be baked into the reconstructed member
/// (leaving the stripe parity-consistent but wrong). Then rebuild the
/// drive, then the parity that summarizes the data, then the bitmap,
/// then the AA counters that summarize the bitmap.
fn repair_rank(e: &ScrubError) -> u8 {
    match e {
        ScrubError::StampMismatch { .. } => 0,
        ScrubError::UnreadableBlock { .. } => 1,
        ScrubError::DeadDrive { .. } => 2,
        ScrubError::ParityMismatch { .. } => 3,
        ScrubError::MissingActiveBit { .. } => 4,
        ScrubError::StaleActiveBit { .. } => 5,
        ScrubError::AaCounterSkew { .. } => 6,
    }
}

/// Repair one confirmed finding and re-verify. Runs serially in the
/// quiet window; every arm ends with an independent re-check of the
/// invariant it restored.
fn repair_finding(
    fs: &Filesystem,
    ctx: &ScanCtx,
    refs: &BTreeMap<u64, Option<BlockStamp>>,
    err: &ScrubError,
) -> FindingState {
    let geo = Arc::clone(ctx.io.geometry());
    match err {
        ScrubError::StampMismatch { vbn, expected, .. } => {
            let Ok(loc) = geo.locate(Vbn(*vbn)) else {
                return FindingState::Unrepairable;
            };
            let group = ctx.io.raid_group(loc.rg);
            if group.data_drives()[loc.drive_in_rg as usize].peek(loc.dbn) == *expected {
                return FindingState::Reverified; // sibling repair got here first
            }
            if group.reconstruct(loc.drive_in_rg, loc.dbn) == *expected {
                group.repair_data_block(loc.drive_in_rg, loc.dbn);
                let mut retries = 0u64;
                match read_with_retry(ctx, Vbn(*vbn), &mut retries) {
                    Ok(s) if s == *expected => FindingState::Reverified,
                    Ok(_) => FindingState::Unrepairable,
                    Err(_) => FindingState::Repaired,
                }
            } else {
                // Parity cannot vouch for the reference: both the block
                // and its redundancy are gone.
                FindingState::Unrepairable
            }
        }
        ScrubError::UnreadableBlock { vbn } => {
            let mut retries = 0u64;
            if read_with_retry(ctx, Vbn(*vbn), &mut retries).is_ok() {
                return FindingState::Reverified;
            }
            let Some(Some(exp)) = refs.get(vbn) else {
                return FindingState::Unrepairable;
            };
            let Ok(loc) = geo.locate(Vbn(*vbn)) else {
                return FindingState::Unrepairable;
            };
            let group = ctx.io.raid_group(loc.rg);
            if group.reconstruct(loc.drive_in_rg, loc.dbn) == *exp {
                group.repair_data_block(loc.drive_in_rg, loc.dbn);
                FindingState::Repaired
            } else {
                FindingState::Unrepairable
            }
        }
        ScrubError::ParityMismatch { rg, dbn } => {
            let rg_id = wafl_blockdev::RaidGroupId(*rg);
            let group = ctx.io.raid_group(rg_id);
            let xor = group
                .data_drives()
                .iter()
                .fold(0u128, |x, drv| x ^ drv.peek(Dbn(*dbn)));
            if xor == group.parity_drives()[0].peek(Dbn(*dbn)) {
                return FindingState::Reverified; // data repair fixed the stripe
            }
            // Recompute parity from media only if every *referenced*
            // member matches its expected stamp — otherwise we would
            // launder a data corruption into "consistent" parity.
            for d in 0..group.data_drives().len() as u32 {
                let vbn = geo.vbn_at(rg_id, d, Dbn(*dbn));
                if let Some(Some(exp)) = refs.get(&vbn.0) {
                    if group.data_drives()[d as usize].peek(Dbn(*dbn)) != *exp {
                        return FindingState::Unrepairable;
                    }
                }
            }
            group.repair_parity_block(Dbn(*dbn));
            let xor2 = group
                .data_drives()
                .iter()
                .fold(0u128, |x, drv| x ^ drv.peek(Dbn(*dbn)));
            if xor2 == group.parity_drives()[0].peek(Dbn(*dbn)) {
                FindingState::Reverified
            } else {
                FindingState::Repaired
            }
        }
        // Bitmap repairs edit the raw active map only, then reconcile
        // the AA counters from a recount. Going through the counter-
        // consistent `adopt_used`/`free` paths would double-account the
        // skew the corruption already introduced (and can underflow a
        // fully-used AA's free count).
        ScrubError::MissingActiveBit { vbn } => match ctx.aggmap.active_map().reserve(*vbn) {
            Ok(()) | Err(AllocError::AlreadyUsed { .. }) => {
                reconcile_aa(ctx, geo.aa_of(Vbn(*vbn)));
                if ctx.aggmap.is_used(Vbn(*vbn)) {
                    FindingState::Reverified
                } else {
                    FindingState::Repaired
                }
            }
            Err(_) => FindingState::Unrepairable,
        },
        ScrubError::StaleActiveBit { vbn } => match ctx.aggmap.active_map().free(*vbn) {
            Ok(()) | Err(AllocError::AlreadyFree { .. }) => {
                reconcile_aa(ctx, geo.aa_of(Vbn(*vbn)));
                if !ctx.aggmap.is_used(Vbn(*vbn)) {
                    FindingState::Reverified
                } else {
                    FindingState::Repaired
                }
            }
            Err(_) => FindingState::Unrepairable,
        },
        ScrubError::AaCounterSkew { rg, aa, .. } => {
            let id = AaId {
                rg: wafl_blockdev::RaidGroupId(*rg),
                index: *aa,
            };
            reconcile_aa(ctx, id);
            if ctx.aggmap.aa_stats().free_in(id) == recount_aa_free(ctx, id) {
                FindingState::Reverified
            } else {
                FindingState::Repaired
            }
        }
        ScrubError::DeadDrive { drive } => {
            ctx.io.rebuild_offline();
            if fs.io().offline_drives().iter().any(|d| d.0 == *drive) {
                FindingState::Unrepairable
            } else {
                FindingState::Reverified
            }
        }
    }
}

/// Quarantine → repair → re-verify one unit's candidates, maintaining
/// the checkpoint suppression set and the report.
fn process_unit(
    fs: &Filesystem,
    cfg: &ScrubConfig,
    ctx: &ScanCtx,
    cands: Vec<ScrubError>,
    repaired_keys: &mut BTreeSet<String>,
    report: &mut ScrubReport,
) {
    if cands.is_empty() {
        return;
    }
    let (mut confirmed, false_alarms, refs) = confirm_unit(fs, cfg, ctx, cands);
    // ordering: statistics counter; staleness is acceptable.
    ctx.stats
        .scrub_false_alarms
        .fetch_add(false_alarms, Ordering::Relaxed);
    report.false_alarms += false_alarms;
    confirmed.sort_by_key(repair_rank);
    for err in confirmed {
        let key = err.key();
        if repaired_keys.contains(&key) {
            // Already repaired earlier in this pass (the checkpoint
            // outlived a crash that reverted an in-memory repair):
            // repair again silently, but do not re-report.
            report.suppressed += 1;
            repair_finding(fs, ctx, &refs, &err);
            continue;
        }
        // ordering: statistics counter; staleness is acceptable.
        ctx.stats.scrub_findings.fetch_add(1, Ordering::Relaxed);
        let state = repair_finding(fs, ctx, &refs, &err);
        if matches!(state, FindingState::Repaired | FindingState::Reverified) {
            repaired_keys.insert(key);
            // ordering: statistics counter; staleness is acceptable.
            ctx.stats.scrub_repairs.fetch_add(1, Ordering::Relaxed);
            if state == FindingState::Reverified {
                // ordering: statistics counter; staleness is acceptable.
                ctx.stats.scrub_reverified.fetch_add(1, Ordering::Relaxed);
            }
        }
        report.findings.push(Finding { error: err, state });
    }
}

/// Cleaner-pool utilization sampler: busy-ns delta over wall delta,
/// normalized by the pool's active-thread limit.
struct UtilSampler {
    last_busy: u64,
    last_at: Instant,
}

impl UtilSampler {
    fn new(fs: &Filesystem) -> Self {
        UtilSampler {
            last_busy: fs.cleaner_pool().busy_ns(),
            last_at: Instant::now(),
        }
    }

    fn sample(&mut self, fs: &Filesystem) -> f64 {
        let busy = fs.cleaner_pool().busy_ns();
        let now = Instant::now();
        let dt = now.duration_since(self.last_at).as_nanos() as f64;
        let db = busy.saturating_sub(self.last_busy) as f64;
        self.last_busy = busy;
        self.last_at = now;
        let lanes = fs.cleaner_pool().active_limit().max(1) as f64;
        if dt <= 0.0 {
            0.0
        } else {
            (db / (dt * lanes)).min(1.0)
        }
    }
}

/// Between waves: sample utilization, pause while the cleaners are
/// saturated, resume on the hysteresis low threshold or when the pause
/// budget runs out.
fn maybe_pause(
    fs: &Filesystem,
    gate: &mut PressureGate,
    sampler: &mut UtilSampler,
    stats: &AllocStats,
    report: &mut ScrubReport,
) {
    let u = sampler.sample(fs);
    if !gate.observe(u) {
        return;
    }
    // ordering: statistics counter; staleness is acceptable.
    stats.scrub_pauses.fetch_add(1, Ordering::Relaxed);
    report.pauses += 1;
    for _ in 0..MAX_PAUSE_TICKS {
        std::thread::sleep(Duration::from_micros(500));
        if !gate.observe(sampler.sample(fs)) {
            break;
        }
    }
    gate.force_resume();
    // ordering: statistics counter; staleness is acceptable.
    stats.scrub_resumes.fetch_add(1, Ordering::Relaxed);
}

/// Run (or resume) one online scrub pass over the whole aggregate.
///
/// Detection messages are scheduled on the Waffinity pool when the
/// file system runs in [`crate::fs::ExecMode::Pool`] (each unit in its
/// AggrVbnRange affinity), and inline otherwise. Repair is serialized
/// on the calling thread. The pass checkpoints into `store` after
/// every unit; see [`ScrubCheckpointStore`].
pub fn run_scrub(fs: &Filesystem, cfg: &ScrubConfig, store: &ScrubCheckpointStore) -> ScrubReport {
    let io = Arc::clone(fs.io());
    let geo = Arc::clone(io.geometry());
    let units: Vec<AaId> = geo
        .rg_ids()
        .flat_map(|rg| (0..geo.aa_count(rg)).map(move |i| AaId { rg, index: i }))
        .collect();
    let total = units.len() as u64;

    let (pass, start, resumed_from, mut repaired_keys) = match store.load() {
        Some(cp) if cp.total_units == total && cp.next_unit > 0 && cp.next_unit < total => (
            cp.pass,
            cp.next_unit as usize,
            Some(cp.next_unit),
            cp.repaired,
        ),
        Some(cp) if cp.total_units == total => (cp.pass.wrapping_add(1), 0, None, BTreeSet::new()),
        _ => (0, 0, None, BTreeSet::new()),
    };

    let ctx = Arc::new(ScanCtx {
        io,
        aggmap: Arc::clone(fs.allocator().infra().aggmap()),
        refs: Arc::new(build_image_refs(fs)),
        retry: cfg.retry,
        stats: Arc::clone(fs.allocator().infra().stats()),
    });

    let mut report = ScrubReport {
        units_total: total,
        resumed_from,
        ..ScrubReport::default()
    };
    let mut gate = PressureGate::new(cfg.pause_above, cfg.resume_below);
    let mut sampler = UtilSampler::new(fs);
    let hist = obs::LogHistogram::new();

    let end = match cfg.unit_budget {
        Some(b) => (start + b).min(units.len()),
        None => units.len(),
    };
    let workers = cfg.workers.max(1);
    let pool = fs.waffinity_pool().cloned();
    let topo = Arc::clone(fs.topology());
    let aggr = fs.allocator().aggr();

    let mut next = start;
    while next < end {
        maybe_pause(fs, &mut gate, &mut sampler, &ctx.stats, &mut report);
        let wave_end = (next + workers).min(end);
        let mut outs: Vec<(usize, UnitScan)> = Vec::with_capacity(wave_end - next);
        match &pool {
            Some(p) => {
                let (tx, rx) = mpsc::channel();
                for (i, aa) in units.iter().enumerate().take(wave_end).skip(next) {
                    let ctx2 = Arc::clone(&ctx);
                    let aa = *aa;
                    let tx = tx.clone();
                    p.send(topo.aggr_range_for(aggr, i as u64), move || {
                        let out = scan_unit(&ctx2, aa);
                        let _ = tx.send((i, out));
                    });
                }
                drop(tx);
                while let Ok(pair) = rx.recv() {
                    outs.push(pair);
                }
            }
            None => {
                for (i, aa) in units.iter().enumerate().take(wave_end).skip(next) {
                    outs.push((i, scan_unit(&ctx, *aa)));
                }
            }
        }
        outs.sort_by_key(|(i, _)| *i);
        for (i, scan) in outs {
            hist.record(scan.scan_ns);
            report.blocks_checked += scan.blocks;
            report.retries += scan.retries;
            // ordering: statistics counters; staleness is acceptable.
            ctx.stats.scrub_units.fetch_add(1, Ordering::Relaxed);
            // ordering: as above.
            ctx.stats
                .scrub_blocks_checked
                .fetch_add(scan.blocks, Ordering::Relaxed);
            process_unit(fs, cfg, &ctx, scan.cands, &mut repaired_keys, &mut report);
            store.commit(ScrubCheckpoint {
                pass,
                next_unit: (i + 1) as u64,
                total_units: total,
                repaired: repaired_keys.clone(),
            });
        }
        next = wave_end;
    }

    report.units_scanned = (next - start) as u64;
    report.completed = next == units.len();
    report.unit_scan_p50_ns = hist.percentile(0.50);
    report.unit_scan_p99_ns = hist.percentile(0.99);
    report
}

impl Filesystem {
    /// Run (or resume) an online scrub pass; see [`run_scrub`].
    pub fn scrub(&self, cfg: &ScrubConfig, store: &ScrubCheckpointStore) -> ScrubReport {
        run_scrub(self, cfg, store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pressure_gate_hysteresis() {
        let mut g = PressureGate::new(0.90, 0.50);
        assert!(!g.observe(0.80), "below activation stays open");
        assert!(g.observe(0.95), "crossing the high threshold pauses");
        assert!(g.observe(0.70), "dead band holds the pause");
        assert!(g.observe(0.55), "still above the low threshold");
        assert!(!g.observe(0.40), "dropping below the low threshold resumes");
        assert!(!g.observe(0.80), "and stays open until the high threshold");
        g.observe(0.95);
        assert!(g.is_paused());
        g.force_resume();
        assert!(!g.is_paused());
    }

    #[test]
    fn checkpoint_store_commit_load_clear() {
        let store = ScrubCheckpointStore::new();
        assert!(store.load().is_none());
        let mut repaired = BTreeSet::new();
        repaired.insert("stamp:vbn=7".to_string());
        store.commit(ScrubCheckpoint {
            pass: 2,
            next_unit: 5,
            total_units: 64,
            repaired: repaired.clone(),
        });
        let cp = store.load().expect("committed");
        assert_eq!(cp.pass, 2);
        assert_eq!(cp.next_unit, 5);
        assert_eq!(cp.total_units, 64);
        assert_eq!(cp.repaired, repaired);
        store.clear();
        assert!(store.load().is_none());
    }

    #[test]
    fn finding_keys_are_stable_and_exclude_volatile_payload() {
        let a = ScrubError::StampMismatch {
            vbn: 9,
            expected: 1,
            found: 2,
        };
        let b = ScrubError::StampMismatch {
            vbn: 9,
            expected: 1,
            found: 77,
        };
        assert_eq!(a.key(), b.key(), "found stamp is volatile");
        let c = ScrubError::AaCounterSkew {
            rg: 1,
            aa: 3,
            tracked: 10,
            actual: 12,
        };
        let d = ScrubError::AaCounterSkew {
            rg: 1,
            aa: 3,
            tracked: 11,
            actual: 12,
        };
        assert_eq!(c.key(), d.key(), "counts are volatile");
        assert_ne!(
            ScrubError::StaleActiveBit { vbn: 4 }.key(),
            ScrubError::MissingActiveBit { vbn: 4 }.key(),
            "direction of bitmap skew is part of the identity"
        );
    }

    #[test]
    fn repair_rank_orders_data_before_rebuild_before_summaries() {
        let dead = ScrubError::DeadDrive { drive: 0 };
        let stamp = ScrubError::StampMismatch {
            vbn: 0,
            expected: 0,
            found: 1,
        };
        let parity = ScrubError::ParityMismatch { rg: 0, dbn: 0 };
        let skew = ScrubError::AaCounterSkew {
            rg: 0,
            aa: 0,
            tracked: 0,
            actual: 1,
        };
        // A rebuild XORs the survivors: repairing data blocks first keeps
        // survivor corruption out of the reconstructed member.
        assert!(repair_rank(&stamp) < repair_rank(&dead));
        assert!(repair_rank(&dead) < repair_rank(&parity));
        assert!(repair_rank(&parity) < repair_rank(&skew));
    }
}
