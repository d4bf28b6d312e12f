//! The consistency checker, and the online scrub built on it.
//!
//! The paper's consistency claims rest on a few invariants: every block a
//! tree references reads back the stamp it was written with, its
//! active-map bit is set and no other bit is, each allocation area's (AA)
//! summary matches its bitmap, and stripe parity is the XOR of its data.
//! [`Filesystem::check`] is the one place each of them is computed. It is
//! read-only and returns every violation as a typed [`ScrubError`];
//! [`Filesystem::verify_integrity`] and [`Filesystem::scrub`] are built on
//! it.
//!
//! A check runs two kinds of unit, split the way pFSCK splits fsck into
//! data-parallel pieces:
//!
//! * **per volume** (on the calling thread): every block a file or a
//!   retained snapshot references is read through the block maps and its
//!   stamp compared; the volume's VVBNs are conserved (used exactly when
//!   referenced) and its free count matches a recount. The walk also
//!   fills the reference index — one bit per PVBN — with the metafile
//!   homes and the bucket cache's outstanding reservations added.
//! * **per (RAID group, AA)**: stripe parity over raw media, the active
//!   map against the reference index in both directions, the AA's free
//!   recount, and dead drives. These run as AggrVbnRange-affinity
//!   messages on the Waffinity pool in [`crate::fs::ExecMode::Pool`] — the
//!   same §IV-A message hierarchy the allocator's infrastructure work
//!   runs in — and inline otherwise.
//!
//! A scrub is a check plus what to do about its findings:
//!
//! ```text
//!   check ──▶ quarantine (re-check in a CP-quiet window,
//!         │     cache flushed — racy sightings die here)
//!         └──▶ repair (reconstruct / rebuild / bitmap edit / AA re-credit)
//!               └──▶ re-verify (one more check)
//! ```
//!
//! A check that races a CP sees half-applied state (new locations
//! installed before their stripes are on media, bits set for buffers not
//! yet applied), so nothing is repaired on the strength of the first
//! sighting. Quarantine waits for a window with no CP in flight, retires
//! the cached buckets and drains the infrastructure, checks again, and
//! keeps only what both checks report. Each (RAID group, AA) unit runs
//! under an [`obs::EventKind::Scrub`] trace span.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use wafl_blockdev::{AaId, BlockStamp, Dbn, IoEngine, IoError, RaidGroupId, Vbn};
use wafl_metafile::{AggregateMap, AllocError};

use crate::fs::Filesystem;
use crate::inode::BlockPtr;
use crate::volume::Volume;

/// How many CP-quiet evaluation rounds quarantine attempts before
/// accepting a best-effort verdict (CPs kept landing mid-evaluation).
const CONFIRM_ROUNDS: u32 = 16;

/// Bounded spins (200 µs each) waiting for a CP-quiet window before
/// each quarantine evaluation round.
const QUIESCE_SPINS: u32 = 64;

/// A typed consistency finding. The aggregate classes cover the seeded
/// fault classes of the torture suite: media bit-flips and torn writes
/// (`StampMismatch`, `ParityMismatch`), bitmap corruption
/// (`StaleActiveBit`, `MissingActiveBit`), AA summary skew
/// (`AaCounterSkew`), dead drives, and reads that fail even through the
/// RAID layer's retries and reconstruction (`UnreadableBlock`). The
/// volume classes (`VvbnFreeDrift`, `VvbnConservation`) and
/// `AggrFreeDrift` are metadata bugs no redundancy can repair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScrubError {
    /// Media stamp at `vbn` differs from the one its block map records.
    StampMismatch {
        /// Physical block number.
        vbn: u64,
        /// Stamp the block map expects.
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
    /// A tree references `vbn` but its active-map bit is clear
    /// (refcount skew toward free).
    MissingActiveBit {
        /// Physical block number.
        vbn: u64,
    },
    /// Active-map bit set for a block nothing references or reserves
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
    /// A drive of the RAID group is offline.
    DeadDrive {
        /// Aggregate-wide drive id.
        drive: u32,
    },
    /// Referenced block unreadable through the RAID layer.
    UnreadableBlock {
        /// Physical block number.
        vbn: u64,
    },
    /// A volume's running VVBN free count disagrees with its bitmap.
    VvbnFreeDrift {
        /// Volume id.
        vol: u32,
        /// Free count the VVBN map keeps.
        tracked: u64,
        /// Free count recounted from the bitmap.
        actual: u64,
    },
    /// A volume's used VVBNs are not exactly the ones its block maps and
    /// snapshots reference.
    VvbnConservation {
        /// Volume id.
        vol: u32,
        /// VVBNs the bitmap marks used.
        used: u64,
        /// Distinct VVBNs the block maps and snapshots reference.
        referenced: u64,
        /// How many of the referenced VVBNs the bitmap marks free.
        unallocated: u64,
    },
    /// The aggregate's running free count disagrees with its bitmap.
    AggrFreeDrift {
        /// Free count the active map keeps.
        tracked: u64,
        /// Free count recounted from the bitmap.
        actual: u64,
    },
}

impl ScrubError {
    /// Stable identity of a finding: the same corruption seen by two
    /// checks has the same key. Volatile payload (found stamps, live
    /// counts) is excluded.
    pub fn key(&self) -> String {
        match self {
            ScrubError::StampMismatch { vbn, .. } => format!("stamp:vbn={vbn}"),
            ScrubError::ParityMismatch { rg, dbn } => format!("parity:rg={rg}:dbn={dbn}"),
            ScrubError::MissingActiveBit { vbn } => format!("missbit:vbn={vbn}"),
            ScrubError::StaleActiveBit { vbn } => format!("stalebit:vbn={vbn}"),
            ScrubError::AaCounterSkew { rg, aa, .. } => format!("aaskew:rg={rg}:aa={aa}"),
            ScrubError::DeadDrive { drive } => format!("dead:drive={drive}"),
            ScrubError::UnreadableBlock { vbn } => format!("unread:vbn={vbn}"),
            ScrubError::VvbnFreeDrift { vol, .. } => format!("vvbnfree:vol={vol}"),
            ScrubError::VvbnConservation { vol, .. } => format!("vvbnconserve:vol={vol}"),
            ScrubError::AggrFreeDrift { .. } => "aggrfree".to_string(),
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
            ScrubError::UnreadableBlock { vbn } => write!(f, "vbn {vbn} unreadable"),
            ScrubError::VvbnFreeDrift {
                vol,
                tracked,
                actual,
            } => write!(
                f,
                "vol {vol}: VVBN free count {tracked}, bitmap recount {actual}"
            ),
            ScrubError::VvbnConservation {
                vol,
                used,
                referenced,
                unallocated,
            } => write!(
                f,
                "vol {vol}: {used} VVBNs used, {referenced} referenced by block maps and \
                 snapshots ({unallocated} of them free)"
            ),
            ScrubError::AggrFreeDrift { tracked, actual } => write!(
                f,
                "aggregate free count drift: running {tracked}, recount {actual}"
            ),
        }
    }
}

/// Where a confirmed finding ended up in the repair state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingState {
    /// Repaired, but the re-verifying check still reports it.
    Repaired,
    /// Repaired, and the re-verifying check no longer reports it (or a
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

/// Result of one scrub pass.
#[derive(Debug, Default)]
pub struct ScrubReport {
    /// Confirmed findings with their terminal repair states.
    pub findings: Vec<Finding>,
    /// First-check findings that evaporated under quarantine (races with
    /// live allocation, not corruption).
    pub false_alarms: u64,
}

impl ScrubReport {
    /// No confirmed findings: the aggregate is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// One bit per block number: the checker's reference indexes.
struct Bits(Vec<u64>);

impl Bits {
    fn new(n: u64) -> Self {
        Bits(vec![0; n.div_ceil(64) as usize])
    }

    /// Set bit `i`; returns whether it was already set.
    fn set(&mut self, i: u64) -> bool {
        let (w, m) = ((i / 64) as usize, 1u64 << (i % 64));
        let was = self.0[w] & m != 0;
        self.0[w] |= m;
        was
    }

    fn get(&self, i: u64) -> bool {
        self.0[(i / 64) as usize] & (1 << (i % 64)) != 0
    }

    fn count(&self) -> u64 {
        self.0.iter().map(|w| u64::from(w.count_ones())).sum()
    }
}

/// The volume unit: stamps read through the block maps (each PVBN once),
/// VVBN conservation and the VVBN free recount. Marks every referenced
/// PVBN in `pvbns`.
fn check_volume(io: &IoEngine, v: &Volume, pvbns: &mut Bits, out: &mut Vec<ScrubError>) {
    let vol = v.id().0;
    let space = v.vvbn();
    let mut vvbns = Bits::new(space.total());
    let mut unallocated = 0u64;
    let mut visit = |ptr: &BlockPtr, out: &mut Vec<ScrubError>| {
        if !vvbns.set(ptr.vvbn) && !space.map().is_used(ptr.vvbn) {
            unallocated += 1;
        }
        if pvbns.set(ptr.pvbn.0) {
            return;
        }
        match io.read_vbn(ptr.pvbn) {
            Ok(found) if found != ptr.stamp => out.push(ScrubError::StampMismatch {
                vbn: ptr.pvbn.0,
                expected: ptr.stamp,
                found,
            }),
            Ok(_) | Err(IoError::DriveFailed { .. }) => {} // a dead drive is its own finding
            Err(_) => out.push(ScrubError::UnreadableBlock { vbn: ptr.pvbn.0 }),
        }
    };
    for f in v.file_ids() {
        if let Some(inode) = v.inode(f) {
            for (_fbn, ptr) in inode.lock().block_map().iter() {
                visit(ptr, out);
            }
        }
    }
    for snap in v.snapshots().list() {
        snap.iter_blocks().for_each(|(_, _, ptr)| visit(&ptr, out));
    }
    let tracked = space.free_count();
    let actual = space.map().recount_free();
    if tracked != actual {
        out.push(ScrubError::VvbnFreeDrift {
            vol,
            tracked,
            actual,
        });
    }
    let used = space.total() - actual;
    let referenced = vvbns.count();
    if unallocated > 0 || used != referenced {
        out.push(ScrubError::VvbnConservation {
            vol,
            used,
            referenced,
            unallocated,
        });
    }
}

/// What every (RAID group, AA) unit shares.
struct UnitCtx {
    io: Arc<IoEngine>,
    aggmap: Arc<AggregateMap>,
    /// Referenced or reserved PVBNs.
    refs: Bits,
}

/// The (RAID group, AA) unit: dead drives, stripe parity, active-map
/// bits both ways and the AA free recount.
fn check_unit(ctx: &UnitCtx, aa: AaId) -> Vec<ScrubError> {
    let mut sp = obs::trace_span!(obs::EventKind::Scrub);
    let geo = ctx.io.geometry();
    let group = ctx.io.raid_group(aa.rg);
    let dbns = geo.aa_dbn_range(aa);
    let mut out = Vec::new();

    // A dead drive is a group-wide finding: the group's first unit
    // reports it.
    let dead: Vec<u32> = group
        .data_drives()
        .iter()
        .chain(group.parity_drives())
        .filter(|d| d.is_offline())
        .map(|d| d.id().0)
        .collect();
    if aa.index == 0 {
        out.extend(dead.iter().map(|&drive| ScrubError::DeadDrive { drive }));
    }
    // Parity over raw media means something only when every member is
    // online: an offline drive's media is stale by definition.
    if dead.is_empty() {
        for dbn in dbns.clone() {
            if group.verify_parity(dbn, dbn + 1).is_err() {
                out.push(ScrubError::ParityMismatch { rg: aa.rg.0, dbn });
            }
        }
    }

    let mut free = 0u64;
    for d in 0..group.data_drives().len() as u32 {
        for dbn in dbns.clone() {
            let vbn = geo.vbn_at(aa.rg, d, Dbn(dbn)).0;
            let used = ctx.aggmap.is_used(Vbn(vbn));
            free += u64::from(!used);
            match (ctx.refs.get(vbn), used) {
                (true, false) => out.push(ScrubError::MissingActiveBit { vbn }),
                (false, true) => out.push(ScrubError::StaleActiveBit { vbn }),
                _ => {}
            }
        }
    }
    let tracked = ctx.aggmap.aa_stats().free_in(aa);
    if tracked != free {
        out.push(ScrubError::AaCounterSkew {
            rg: aa.rg.0,
            aa: aa.index,
            tracked,
            actual: free,
        });
    }
    sp.set_arg(dbns.end - dbns.start);
    out
}

impl Filesystem {
    /// Check every invariant of the file system and return each
    /// violation; an empty result means consistent. Read-only: it
    /// neither flushes nor drains the allocator, and counts the bucket
    /// cache's outstanding reservations as referenced, so a quiescent
    /// instance with a warm cache checks clean. Against a live instance
    /// the result may include sightings of a CP in progress; see
    /// [`Filesystem::scrub`].
    pub fn check(&self) -> Vec<ScrubError> {
        let io = Arc::clone(self.io());
        let geo = Arc::clone(io.geometry());
        let aggmap = Arc::clone(self.allocator().infra().aggmap());
        let mut out = Vec::new();

        let mut refs = Bits::new(geo.total_vbns());
        for v in self.volumes() {
            check_volume(&io, &v, &mut refs, &mut out);
        }
        for (_, vbn) in self.metafile_locs().snapshot() {
            refs.set(vbn.0);
        }
        self.allocator().cache().for_each_reserved(|vbn| {
            refs.set(vbn.0);
        });

        let units: Vec<AaId> = geo
            .rg_ids()
            .flat_map(|rg| (0..geo.aa_count(rg)).map(move |index| AaId { rg, index }))
            .collect();
        let ctx = Arc::new(UnitCtx {
            io,
            aggmap: Arc::clone(&aggmap),
            refs,
        });
        match self.waffinity_pool() {
            Some(pool) => {
                let (tx, rx) = mpsc::channel();
                let aggr = self.allocator().aggr();
                for (i, aa) in units.into_iter().enumerate() {
                    let (ctx, tx) = (Arc::clone(&ctx), tx.clone());
                    pool.send(self.topology().aggr_range_for(aggr, i as u64), move || {
                        let _ = tx.send((i, check_unit(&ctx, aa)));
                    });
                }
                drop(tx);
                let mut done: Vec<(usize, Vec<ScrubError>)> = rx.iter().collect();
                done.sort_by_key(|(i, _)| *i);
                out.extend(done.into_iter().flat_map(|(_, f)| f));
            }
            None => out.extend(units.into_iter().flat_map(|aa| check_unit(&ctx, aa))),
        }

        let tracked = aggmap.free_count();
        let actual = aggmap.active_map().recount_free();
        if tracked != actual {
            out.push(ScrubError::AggrFreeDrift { tracked, actual });
        }
        out
    }

    /// Run one online scrub pass: [`Filesystem::check`], quarantine of
    /// what it found, repair of what survives quarantine, and one more
    /// check to re-verify. Safe to run while cleaners and CPs are busy.
    pub fn scrub(&self) -> ScrubReport {
        let candidates: BTreeSet<String> = self.check().iter().map(ScrubError::key).collect();
        if candidates.is_empty() {
            return ScrubReport::default();
        }
        let confirmed = quarantine(self, &candidates);
        ScrubReport {
            false_alarms: (candidates.len() - confirmed.len()) as u64,
            findings: repair(self, confirmed),
        }
    }
}

/// Spin (bounded) until no CP is in flight.
fn wait_cp_quiet(fs: &Filesystem) {
    for _ in 0..QUIESCE_SPINS {
        if !fs.cp_in_flight() {
            return;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Check again inside a CP-quiet window with the allocator's bucket
/// cache flushed and its infrastructure work drained, and keep the
/// findings the first check also reported. Retries until a round sees
/// no CP land mid-flight, bounded by [`CONFIRM_ROUNDS`].
fn quarantine(fs: &Filesystem, candidates: &BTreeSet<String>) -> Vec<ScrubError> {
    let mut confirmed = Vec::new();
    for round in 0..CONFIRM_ROUNDS {
        wait_cp_quiet(fs);
        let cp0 = fs.cp_count();
        // The check counts cached reservations itself; the drain settles
        // a refill in flight, whose bits are set before its buckets
        // reach the cache.
        fs.allocator().flush_cache();
        fs.allocator().drain();
        confirmed = fs.check();
        confirmed.retain(|e| candidates.contains(&e.key()));
        if (fs.cp_count() == cp0 && !fs.cp_in_flight()) || round + 1 == CONFIRM_ROUNDS {
            break;
        }
    }
    confirmed
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
        ScrubError::VvbnFreeDrift { .. }
        | ScrubError::VvbnConservation { .. }
        | ScrubError::AggrFreeDrift { .. } => 7,
    }
}

/// What the repairs of one batch carry from finding to finding.
#[derive(Default)]
struct RepairState {
    /// Stripes with a data block redundancy could not restore: their
    /// parity must not be recomputed from media, which would launder the
    /// corruption into "consistent" parity.
    lost: BTreeSet<(u32, u64)>,
    /// Net free-count correction each AA summary needs: its skew, plus
    /// one per bit the bitmap repairs free, minus one per bit they set.
    recredit: BTreeMap<AaId, i64>,
}

/// Repair one confirmed finding; `false` when it cannot be repaired.
fn repair_one(fs: &Filesystem, e: &ScrubError, st: &mut RepairState) -> bool {
    let io = fs.io();
    let geo = io.geometry();
    let active = fs.allocator().infra().aggmap().active_map();
    match e {
        ScrubError::StampMismatch { vbn, expected, .. } => {
            let Ok(loc) = geo.locate(Vbn(*vbn)) else {
                return false;
            };
            let group = io.raid_group(loc.rg);
            if group.data_drives()[loc.drive_in_rg as usize].peek(loc.dbn) == *expected {
                return true; // a sibling repair got here first
            }
            if group.reconstruct(loc.drive_in_rg, loc.dbn) != *expected {
                // Parity cannot vouch for the block: both it and its
                // redundancy are gone.
                st.lost.insert((loc.rg.0, loc.dbn.0));
                return false;
            }
            group.repair_data_block(loc.drive_in_rg, loc.dbn);
            true
        }
        // The RAID layer already served a failed read by XOR
        // reconstruction: a block still unreadable is past what one
        // parity drive restores.
        ScrubError::UnreadableBlock { vbn } => {
            if io.read_vbn(Vbn(*vbn)).is_ok() {
                return true;
            }
            if let Ok(loc) = geo.locate(Vbn(*vbn)) {
                st.lost.insert((loc.rg.0, loc.dbn.0));
            }
            false
        }
        ScrubError::DeadDrive { .. } => {
            io.rebuild_offline();
            true
        }
        ScrubError::ParityMismatch { rg, dbn } => {
            let group = io.raid_group(RaidGroupId(*rg));
            if group.verify_parity(*dbn, dbn + 1).is_ok() {
                return true; // a data repair fixed the stripe
            }
            if st.lost.contains(&(*rg, *dbn)) {
                return false;
            }
            group.repair_parity_block(Dbn(*dbn));
            true
        }
        // Bitmap repairs edit the raw active map only and leave the AA
        // summaries to the re-credit after the batch. Going through the
        // counter-consistent `adopt_used`/`free` paths would
        // double-account the skew the corruption already introduced.
        ScrubError::MissingActiveBit { vbn } => match active.reserve(*vbn) {
            Ok(()) => {
                *st.recredit.entry(geo.aa_of(Vbn(*vbn))).or_default() -= 1;
                true
            }
            Err(e) => matches!(e, AllocError::AlreadyUsed { .. }),
        },
        ScrubError::StaleActiveBit { vbn } => match active.free(*vbn) {
            Ok(()) => {
                *st.recredit.entry(geo.aa_of(Vbn(*vbn))).or_default() += 1;
                true
            }
            Err(e) => matches!(e, AllocError::AlreadyFree { .. }),
        },
        ScrubError::AaCounterSkew {
            rg,
            aa,
            tracked,
            actual,
        } => {
            let id = AaId {
                rg: RaidGroupId(*rg),
                index: *aa,
            };
            *st.recredit.entry(id).or_default() += *actual as i64 - *tracked as i64;
            true
        }
        ScrubError::VvbnFreeDrift { .. }
        | ScrubError::VvbnConservation { .. }
        | ScrubError::AggrFreeDrift { .. } => false,
    }
}

/// Repair every confirmed finding in [`repair_rank`] order, re-credit
/// the AA summaries, then re-verify with one more check. A finding whose
/// repair ran ends `Reverified` when that check no longer reports it,
/// `Repaired` otherwise.
fn repair(fs: &Filesystem, mut confirmed: Vec<ScrubError>) -> Vec<Finding> {
    confirmed.sort_by_key(repair_rank);
    let mut st = RepairState::default();
    let ran: Vec<bool> = confirmed
        .iter()
        .map(|e| repair_one(fs, e, &mut st))
        .collect();
    // Relative adjustments commute with concurrent allocation: a cleaner
    // reserving from the same AA meanwhile is not undone.
    let aa_stats = fs.allocator().infra().aggmap().aa_stats();
    for (aa, delta) in st.recredit {
        if delta > 0 {
            aa_stats.on_release(aa, delta.unsigned_abs());
        } else if delta < 0 {
            aa_stats.on_reserve(aa, delta.unsigned_abs());
        }
    }

    let after: BTreeSet<String> = fs.check().iter().map(ScrubError::key).collect();
    confirmed
        .into_iter()
        .zip(ran)
        .map(|(error, ran)| {
            let state = if !ran {
                FindingState::Unrepairable
            } else if after.contains(&error.key()) {
                FindingState::Repaired
            } else {
                FindingState::Reverified
            };
            Finding { error, state }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
