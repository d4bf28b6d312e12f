//! Detection-power property test for the consistency checker and the
//! scrub built on it.
//!
//! For every corruption class the checker claims to detect — media
//! bit-flips, stale and missing active-bitmap bits, AA refcount skew,
//! bad parity, and the metadata classes: a VVBN freed under a referenced
//! block, a leaked VVBN, VVBN and aggregate free-count drift — seed one
//! instance with randomized placement and payload and assert the scrub
//! (a) always reports it, (b) reports nothing outside the seeded fault
//! and its physically entailed collaterals (a flipped data block also
//! breaks its stripe's parity; a bitmap edit also skews its AA's
//! counter), and (c) repairs it so a re-scan is clean — or, for the
//! metadata classes no redundancy covers, reports it `Unrepairable`.
//! A second property asserts zero false positives on clean images
//! across randomized fill shapes.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use wafl::scrub::FindingState;
use wafl::{ExecMode, FileId, Filesystem, FsConfig, VolumeId};
use wafl_blockdev::{stamp, BlockStamp, Dbn, DriveKind, GeometryBuilder, Vbn};

const FBNS: u64 = 48;

/// Two RAID groups of (3 data + 1 parity) × 1024 blocks, 64-stripe AAs.
fn mk_fs() -> Filesystem {
    let cfg = FsConfig {
        vvbn_per_volume: 1 << 14,
        ..FsConfig::default()
    };
    let fs = Filesystem::new(
        cfg,
        GeometryBuilder::new()
            .aa_stripes(64)
            .raid_group(3, 1, 1024)
            .raid_group(3, 1, 1024)
            .build(),
        DriveKind::Ssd,
        ExecMode::Inline,
    );
    fs.create_volume(VolumeId(0));
    fs
}

fn fill(fs: &Filesystem, files: u64, fbns: u64) {
    for f in 0..files {
        fs.create_file(VolumeId(0), FileId(f));
        for fbn in 0..fbns {
            fs.write(VolumeId(0), FileId(f), fbn, stamp(f, fbn, 1));
        }
    }
    fs.run_cp();
}

/// One more file, a whole refill round of the bucket cache long (a
/// 64-block bucket on each of the 2 × 3 data drives), cleaned in a CP of
/// its own: one cleaner message, so one cleaner uses up the round's
/// buckets and the file fills every stripe of the round's tetrises —
/// whatever the timing, a fully referenced stripe exists afterwards.
/// (The 48-block files of [`fill`] cover one only when their cleaner
/// happens to draw three buckets of one RAID group in a row.)
fn fill_whole_round(fs: &Filesystem, file: FileId) {
    fs.create_file(VolumeId(0), file);
    for fbn in 0..6 * 64 {
        fs.write(VolumeId(0), file, fbn, stamp(file.0, fbn, 1));
    }
    fs.run_cp();
}

/// vbn → expected stamp for every committed file block.
fn file_refs(fs: &Filesystem) -> BTreeMap<u64, BlockStamp> {
    let img = fs.committed_image().expect("at least one CP committed");
    let mut refs = BTreeMap::new();
    for vi in &img.volumes {
        for blocks in vi.files.values() {
            for (_fbn, ptr) in blocks.iter() {
                refs.insert(ptr.pvbn.0, ptr.stamp);
            }
        }
    }
    refs
}

/// All referenced vbns, including metafile homes.
fn all_refs(fs: &Filesystem) -> BTreeSet<u64> {
    let img = fs.committed_image().expect("at least one CP committed");
    let mut refs: BTreeSet<u64> = file_refs(fs).into_keys().collect();
    for ((_src, _blk), vbn) in &img.metafile_locs {
        refs.insert(vbn.0);
    }
    refs
}

/// The parity-mismatch key for the stripe holding `vbn`.
fn stripe_parity_key(fs: &Filesystem, vbn: u64) -> String {
    let loc = fs.io().geometry().locate(Vbn(vbn)).expect("valid vbn");
    format!("parity:rg={}:dbn={}", loc.rg.0, loc.dbn.0)
}

/// The AA-skew key for the allocation area holding `vbn`.
fn aa_skew_key(fs: &Filesystem, vbn: u64) -> String {
    let aa = fs.io().geometry().aa_of(Vbn(vbn));
    format!("aaskew:rg={}:aa={}", aa.rg.0, aa.index)
}

/// One seeded fault: the class plus randomized placement / payload.
#[derive(Debug, Clone, Copy)]
enum Seed {
    /// XOR a referenced block's media stamp.
    BitFlip { pick: usize, mask: u128 },
    /// Mark a free block used behind the allocator's back.
    StaleBit { pick: usize },
    /// Mark a referenced block free behind the allocator's back.
    MissingBit { pick: usize },
    /// XOR the parity block of a fully referenced stripe.
    BadParity { mask: u128 },
    /// Inflate an AA's tracked free count (refcount skew).
    RefcountSkew { pick: usize, delta: u64 },
    /// Free a referenced block's VVBN.
    VvbnCleared { pick: usize },
    /// Mark a free VVBN used with no block referencing it.
    VvbnLeak { pick: usize },
    /// Move the volume's running VVBN free count off its bitmap.
    VvbnFreeDrift { delta: i64 },
    /// Move the aggregate's running free count off its bitmap.
    AggrFreeDrift { delta: i64 },
}

impl Seed {
    /// The metadata classes: detected, but beyond what redundancy repairs.
    fn repairable(self) -> bool {
        !matches!(
            self,
            Seed::VvbnCleared { .. }
                | Seed::VvbnLeak { .. }
                | Seed::VvbnFreeDrift { .. }
                | Seed::AggrFreeDrift { .. }
        )
    }
}

/// A nonzero drift of either sign.
fn drift() -> impl Strategy<Value = i64> {
    prop_oneof![-8i64..-1, 1i64..8]
}

fn seeds() -> impl Strategy<Value = Seed> {
    prop_oneof![
        (0usize..1 << 20, 1u128..u128::MAX).prop_map(|(pick, mask)| Seed::BitFlip { pick, mask }),
        (0usize..1 << 20).prop_map(|pick| Seed::StaleBit { pick }),
        (0usize..1 << 20).prop_map(|pick| Seed::MissingBit { pick }),
        (1u128..u128::MAX).prop_map(|mask| Seed::BadParity { mask }),
        (0usize..1 << 20, 1u64..4).prop_map(|(pick, delta)| Seed::RefcountSkew { pick, delta }),
        (0usize..1 << 20).prop_map(|pick| Seed::VvbnCleared { pick }),
        (0usize..1 << 20).prop_map(|pick| Seed::VvbnLeak { pick }),
        drift().prop_map(|delta| Seed::VvbnFreeDrift { delta }),
        drift().prop_map(|delta| Seed::AggrFreeDrift { delta }),
    ]
}

/// Plant `seed` and return `(required_key, allowed_keys)`: the finding
/// the scrub MUST report, and the full set it MAY report (the required
/// key plus physically entailed collateral findings).
fn plant(fs: &Filesystem, seed: Seed) -> (String, BTreeSet<String>) {
    let geo = fs.io().geometry();
    let refs = file_refs(fs);
    let aggmap = fs.allocator().infra().aggmap();
    match seed {
        Seed::BitFlip { pick, mask } => {
            let (&vbn, &good) = refs.iter().nth(pick % refs.len()).unwrap();
            let loc = geo.locate(Vbn(vbn)).unwrap();
            let group = fs.io().raid_group(loc.rg);
            group.data_drives()[loc.drive_in_rg as usize].repair_write(loc.dbn, &[good ^ mask]);
            let key = format!("stamp:vbn={vbn}");
            // A flipped data block also breaks its stripe's parity.
            let allowed = BTreeSet::from([key.clone(), stripe_parity_key(fs, vbn)]);
            (key, allowed)
        }
        Seed::StaleBit { pick } => {
            let all = all_refs(fs);
            let free: Vec<u64> = (0..geo.total_vbns())
                .rev()
                .filter(|v| !all.contains(v) && !aggmap.is_used(Vbn(*v)))
                .take(256)
                .collect();
            let vbn = free[pick % free.len()];
            aggmap.active_map().reserve(vbn).expect("was free");
            let key = format!("stalebit:vbn={vbn}");
            // A raw bitmap edit bypasses the AA counters: skew entailed.
            let allowed = BTreeSet::from([key.clone(), aa_skew_key(fs, vbn)]);
            (key, allowed)
        }
        Seed::MissingBit { pick } => {
            let (&vbn, _) = refs.iter().nth(pick % refs.len()).unwrap();
            aggmap.active_map().free(vbn).expect("was used");
            let key = format!("missbit:vbn={vbn}");
            let allowed = BTreeSet::from([key.clone(), aa_skew_key(fs, vbn)]);
            (key, allowed)
        }
        Seed::BadParity { mask } => {
            // Find a stripe whose every data member is referenced, so the
            // parity seed cannot be clobbered by a later full-stripe write.
            let all = all_refs(fs);
            let (rg, dbn) = 'found: {
                for rg in geo.rg_ids() {
                    let group = fs.io().raid_group(rg);
                    let drives = group.data_drives().len() as u32;
                    'dbn: for dbn in 0..group.geometry().blocks_per_drive {
                        for d in 0..drives {
                            if !all.contains(&geo.vbn_at(rg, d, Dbn(dbn)).0) {
                                continue 'dbn;
                            }
                        }
                        break 'found (rg, dbn);
                    }
                }
                panic!("no fully referenced stripe");
            };
            let group = fs.io().raid_group(rg);
            let cur = group.parity_drives()[0].peek(Dbn(dbn));
            group.parity_drives()[0].repair_write(Dbn(dbn), &[cur ^ mask]);
            let key = format!("parity:rg={}:dbn={dbn}", rg.0);
            (key.clone(), BTreeSet::from([key]))
        }
        Seed::RefcountSkew { pick, delta } => {
            let aas: Vec<wafl_blockdev::AaId> = geo
                .rg_ids()
                .flat_map(|rg| {
                    (0..geo.aa_count(rg)).map(move |i| wafl_blockdev::AaId { rg, index: i })
                })
                .collect();
            let aa = aas[pick % aas.len()];
            // on_release only inflates the tracked count: safe for any AA.
            aggmap.aa_stats().on_release(aa, delta);
            let key = format!("aaskew:rg={}:aa={}", aa.rg.0, aa.index);
            (key.clone(), BTreeSet::from([key]))
        }
        Seed::VvbnCleared { pick } => {
            let vvbns = file_vvbns(fs);
            vol0(fs).vvbn().free(vvbns[pick % vvbns.len()]);
            let key = "vvbnconserve:vol=0".to_string();
            (key.clone(), BTreeSet::from([key]))
        }
        Seed::VvbnLeak { pick } => {
            let vol = vol0(fs);
            let space = vol.vvbn();
            let free: Vec<u64> = (0..space.total())
                .filter(|v| !space.map().is_used(*v))
                .take(256)
                .collect();
            space.adopt(free[pick % free.len()]);
            let key = "vvbnconserve:vol=0".to_string();
            (key.clone(), BTreeSet::from([key]))
        }
        Seed::VvbnFreeDrift { delta } => {
            vol0(fs).vvbn().map().skew_free_count(delta);
            let key = "vvbnfree:vol=0".to_string();
            (key.clone(), BTreeSet::from([key]))
        }
        Seed::AggrFreeDrift { delta } => {
            aggmap.active_map().skew_free_count(delta);
            let key = "aggrfree".to_string();
            (key.clone(), BTreeSet::from([key]))
        }
    }
}

fn vol0(fs: &Filesystem) -> std::sync::Arc<wafl::Volume> {
    fs.volume(VolumeId(0)).expect("volume 0 exists")
}

/// Every VVBN a committed file block holds.
fn file_vvbns(fs: &Filesystem) -> Vec<u64> {
    let img = fs.committed_image().expect("at least one CP committed");
    img.volumes
        .iter()
        .flat_map(|vi| vi.files.values())
        .flat_map(|blocks| blocks.iter().map(|(_fbn, ptr)| ptr.vvbn))
        .collect()
}

/// Plant `seed` on a freshly filled instance, scrub, and hold the scrub
/// to the detection, false-positive and repair contract of the module
/// docs.
fn scrub_catches(seed: Seed) -> Result<(), TestCaseError> {
    let fs = mk_fs();
    fill(&fs, 4, FBNS);
    fill_whole_round(&fs, FileId(4));
    let (required, allowed) = plant(&fs, seed);

    let report = fs.scrub();
    let keys: BTreeSet<String> = report.findings.iter().map(|f| f.error.key()).collect();
    prop_assert!(
        keys.contains(&required),
        "seed {seed:?} undetected; got {keys:?}"
    );
    for k in &keys {
        prop_assert!(
            allowed.contains(k),
            "false positive {k} for seed {seed:?} (allowed {allowed:?})"
        );
    }
    let again = fs.scrub();
    if !seed.repairable() {
        for f in &report.findings {
            prop_assert_eq!(f.state, FindingState::Unrepairable, "{}", &f.error);
        }
        prop_assert!(again.findings.iter().any(|f| f.error.key() == required));
        prop_assert!(fs.verify_integrity().is_err());
        return Ok(());
    }
    for f in &report.findings {
        prop_assert!(
            matches!(f.state, FindingState::Repaired | FindingState::Reverified),
            "finding {} not repaired: {:?}",
            f.error,
            f.state
        );
    }
    prop_assert!(
        again.is_clean(),
        "re-scan after repair of {seed:?} found {:?}",
        again.findings
    );
    fs.verify_integrity()
        .map_err(|e| TestCaseError::fail(format!("post-repair integrity: {e}")))
}

/// One seed of every class, so each is exercised whatever the random
/// draw of the property below.
#[test]
fn every_corruption_class_is_detected_once() {
    for seed in [
        Seed::BitFlip { pick: 7, mask: 1 },
        Seed::StaleBit { pick: 7 },
        Seed::MissingBit { pick: 7 },
        Seed::BadParity { mask: 1 },
        Seed::RefcountSkew { pick: 7, delta: 1 },
        Seed::VvbnCleared { pick: 7 },
        Seed::VvbnLeak { pick: 7 },
        Seed::VvbnFreeDrift { delta: -1 },
        Seed::AggrFreeDrift { delta: 1 },
    ] {
        scrub_catches(seed).unwrap_or_else(|e| panic!("{e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every seeded corruption is detected (100 % detection), nothing
    /// outside the seed and its entailed collaterals is reported (no
    /// false positives), and every repairable finding is repaired and
    /// re-verified so a second pass comes back clean.
    #[test]
    fn every_corruption_class_is_detected_and_repaired(seed in seeds()) {
        scrub_catches(seed)?;
    }

    /// A clean image never produces findings, whatever its fill shape.
    #[test]
    fn clean_images_produce_zero_findings(files in 1u64..5, fbns in 8u64..64) {
        let fs = mk_fs();
        fill(&fs, files, fbns);
        let report = fs.scrub();
        prop_assert!(
            report.is_clean(),
            "clean image produced findings: {:?}", report.findings
        );
        prop_assert_eq!(report.false_alarms, 0);
    }
}
