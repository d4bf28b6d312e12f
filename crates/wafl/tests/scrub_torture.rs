//! Fault-torture suite for the online scrubber.
//!
//! Seeds every corruption class the scrubber claims to handle — media
//! bit-flips, bad parity, stale/missing active-map bits, AA summary
//! skew, dead drives, a double drive failure, transient read faults —
//! and asserts the full check → quarantine → repair → re-verify
//! pipeline: 100 % detection,
//! repair via redundancy, a clean re-scan afterwards, and zero findings
//! on uncorrupted images. Also exercises the read-only check against a
//! warm bucket cache and the scrub running online against an active
//! cleaner pool.

use std::collections::{BTreeMap, BTreeSet};

use wafl::scrub::FindingState;
use wafl::{ExecMode, FileId, Filesystem, FsConfig, VolumeId};
use wafl_blockdev::{
    stamp, BlockStamp, Dbn, DriveKind, FaultSpec, GeometryBuilder, RetryPolicy, Vbn,
};

const FBNS: u64 = 48;

/// Two RAID groups of (3 data + 1 parity) × 1024 blocks, 64-stripe AAs:
/// 16 AAs per group, 32 scrub units.
fn mk_fs(exec: ExecMode) -> Filesystem {
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
        exec,
    );
    fs.create_volume(VolumeId(0));
    fs.create_volume(VolumeId(1));
    fs
}

/// Fill `files` × `FBNS` blocks of `vol` and commit a CP.
fn fill(fs: &Filesystem, vol: VolumeId, files: u64, generation: u64) {
    for f in 0..files {
        fs.create_file(vol, FileId(f));
        for fbn in 0..FBNS {
            fs.write(vol, FileId(f), fbn, stamp(f, fbn, generation));
        }
    }
    fs.run_cp();
}

/// Blocks in one refill round of the bucket cache: a 64-block bucket on
/// each of the 2 × 3 data drives.
const ROUND_BLOCKS: u64 = 6 * 64;

/// Give `vol` stripes that it alone references, whatever the cleaner
/// timing: one more file, a whole refill round long, cleaned in a CP of
/// its own. Below the region-split threshold a file is one cleaner
/// message, and a CP starts on a fresh round, so a single cleaner uses up
/// that round's buckets — one per data drive, oldest round first — and
/// this file fills every stripe of the round's tetrises. (The 48-block
/// files of [`fill`] cover a whole stripe only when their cleaner happens
/// to draw three buckets of one RAID group in a row.)
fn fill_whole_round(fs: &Filesystem, vol: VolumeId, file: FileId, generation: u64) {
    fs.create_file(vol, file);
    for fbn in 0..ROUND_BLOCKS {
        fs.write(vol, file, fbn, stamp(file.0, fbn, generation));
    }
    fs.run_cp();
}

/// vbn → expected stamp for every file block the committed image
/// references in `vol`.
fn image_refs(fs: &Filesystem, vol: VolumeId) -> BTreeMap<u64, BlockStamp> {
    let img = fs.committed_image().expect("at least one CP committed");
    let mut refs = BTreeMap::new();
    for vi in &img.volumes {
        if vi.id != vol {
            continue;
        }
        for blocks in vi.files.values() {
            for (_fbn, ptr) in blocks.iter() {
                refs.insert(ptr.pvbn.0, ptr.stamp);
            }
        }
    }
    refs
}

/// All referenced vbns (any volume) plus metafile blocks.
fn all_refs(fs: &Filesystem) -> BTreeSet<u64> {
    let img = fs.committed_image().expect("at least one CP committed");
    let mut refs = BTreeSet::new();
    for vi in &img.volumes {
        for blocks in vi.files.values() {
            for (_fbn, ptr) in blocks.iter() {
                refs.insert(ptr.pvbn.0);
            }
        }
    }
    for ((_src, _blk), vbn) in &img.metafile_locs {
        refs.insert(vbn.0);
    }
    refs
}

/// vbn → expected stamp for every file block of every volume.
fn all_file_refs(fs: &Filesystem) -> BTreeMap<u64, BlockStamp> {
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

/// Overwrite the media stamp at `vbn` (a seeded bit-flip / torn write).
fn corrupt_stamp(fs: &Filesystem, vbn: u64, bad: BlockStamp) {
    let loc = fs.io().geometry().locate(Vbn(vbn)).expect("valid vbn");
    let group = fs.io().raid_group(loc.rg);
    group.data_drives()[loc.drive_in_rg as usize].repair_write(loc.dbn, &[bad]);
}

/// Find a stripe whose every data block is in `refs` (so a seeded
/// parity corruption cannot be "fixed" by a concurrent full-stripe
/// write), excluding one stripe. Returns `(rg_index, dbn)`.
fn referenced_stripe(
    fs: &Filesystem,
    refs: &BTreeSet<u64>,
    exclude: Option<(u32, u64)>,
) -> (u32, u64) {
    let geo = fs.io().geometry();
    for rg in geo.rg_ids() {
        let group = fs.io().raid_group(rg);
        let drives = group.data_drives().len() as u32;
        let blocks = group.geometry().blocks_per_drive;
        'dbn: for dbn in 0..blocks {
            if exclude == Some((rg.0, dbn)) {
                continue;
            }
            for d in 0..drives {
                if !refs.contains(&geo.vbn_at(rg, d, Dbn(dbn)).0) {
                    continue 'dbn;
                }
            }
            return (rg.0, dbn);
        }
    }
    panic!("no fully referenced stripe anywhere");
}

/// XOR-corrupt the parity block of `(rg, dbn)`.
fn corrupt_parity(fs: &Filesystem, rg_index: u32, dbn: u64) {
    let group = fs.io().raid_group(wafl_blockdev::RaidGroupId(rg_index));
    let cur = group.parity_drives()[0].peek(Dbn(dbn));
    group.parity_drives()[0].repair_write(Dbn(dbn), &[cur ^ 0xBAD_F00D]);
}

/// A free, unreferenced vbn scanned from the top of the address space
/// (the allocator fills from the emptiest AAs, so high free vbns in a
/// mostly-full low region stay untouched).
fn free_unreferenced_vbn(fs: &Filesystem, refs: &BTreeSet<u64>) -> u64 {
    let aggmap = fs.allocator().infra().aggmap();
    let total = fs.io().geometry().total_vbns();
    for vbn in (0..total).rev() {
        if !refs.contains(&vbn) && !aggmap.is_used(Vbn(vbn)) {
            return vbn;
        }
    }
    panic!("no free unreferenced vbn");
}

fn finding_keys(report: &wafl::ScrubReport) -> BTreeSet<String> {
    report.findings.iter().map(|f| f.error.key()).collect()
}

fn assert_all_reverified(report: &wafl::ScrubReport) {
    for f in &report.findings {
        assert_eq!(
            f.state,
            FindingState::Reverified,
            "finding not re-verified: {} ({:?})",
            f.error,
            f.state
        );
    }
}

#[test]
fn clean_image_scrub_reports_nothing() {
    let fs = mk_fs(ExecMode::Inline);
    fill(&fs, VolumeId(0), 4, 1);
    fill(&fs, VolumeId(1), 3, 2);
    let report = fs.scrub();
    assert!(
        report.is_clean(),
        "clean image produced findings: {:?}",
        report.findings
    );
    assert_eq!(report.false_alarms, 0, "quiesced clean scan saw no races");
}

/// The check counts the bucket cache's outstanding reservations as
/// referenced, so a quiescent instance with a warm cache checks clean —
/// and it leaves the cache as it found it.
#[test]
fn check_is_read_only_and_clean_with_a_warm_cache() {
    for exec in [ExecMode::Inline, ExecMode::Pool(2)] {
        let fs = mk_fs(exec);
        fill(&fs, VolumeId(0), 4, 1);
        let alloc = fs.allocator();
        let bucket = alloc.get_bucket().expect("space left");
        alloc.requeue_bucket(bucket);
        alloc.drain();
        let warm = alloc.cache().len();
        assert!(warm > 0, "a GET leaves the cache warm");
        assert_eq!(fs.check(), vec![], "{exec:?}: reservations are not leaks");
        assert_eq!(alloc.cache().len(), warm, "{exec:?}: the check flushed");
        fs.verify_integrity().expect("warm cache verifies");
    }
}

#[test]
fn scrub_detects_and_repairs_every_seeded_corruption_class() {
    let fs = mk_fs(ExecMode::Inline);
    fill(&fs, VolumeId(0), 4, 1);
    fill(&fs, VolumeId(1), 3, 2);
    fill_whole_round(&fs, VolumeId(1), FileId(3), 2);
    let refs1 = image_refs(&fs, VolumeId(1));
    let all = all_refs(&fs);
    let aggmap = fs.allocator().infra().aggmap();

    // Class 1: media bit-flip on a referenced block (also breaks its
    // stripe's parity — the collateral parity finding is real too).
    let (&flip_vbn, &flip_stamp) = refs1.iter().nth(refs1.len() / 2).expect("vol 1 has blocks");
    corrupt_stamp(&fs, flip_vbn, flip_stamp ^ 0xDEAD_BEEF);
    let flip_loc = fs.io().geometry().locate(Vbn(flip_vbn)).unwrap();

    // Class 2: bad parity on a fully referenced stripe (excluding the
    // bit-flip's stripe, whose parity finding is its collateral).
    let vol1_set: BTreeSet<u64> = refs1.keys().copied().collect();
    let (parity_rg, parity_dbn) =
        referenced_stripe(&fs, &vol1_set, Some((flip_loc.rg.0, flip_loc.dbn.0)));
    corrupt_parity(&fs, parity_rg, parity_dbn);

    // Class 3: stale active-map bit (leak) — bit set behind the AA
    // summary's back, so the same unit also has AA counter skew.
    let stale_vbn = free_unreferenced_vbn(&fs, &all);
    aggmap.active_map().reserve(stale_vbn).expect("was free");

    // Class 4: missing active-map bit (refcount skew toward free) on a
    // referenced block, again skewing its AA summary.
    let (&miss_vbn, _) = refs1
        .iter()
        .find(|(v, _)| {
            let geo = fs.io().geometry();
            geo.aa_of(Vbn(**v)) != geo.aa_of(Vbn(stale_vbn)) && **v != flip_vbn
        })
        .expect("a referenced block outside the stale AA");
    aggmap.active_map().free(miss_vbn).expect("was used");

    let report = fs.scrub();

    let keys = finding_keys(&report);
    let required = [
        format!("stamp:vbn={flip_vbn}"),
        format!("parity:rg={parity_rg}:dbn={parity_dbn}"),
        format!("stalebit:vbn={stale_vbn}"),
        format!("missbit:vbn={miss_vbn}"),
    ];
    for k in &required {
        assert!(
            keys.contains(k),
            "seeded corruption undetected: {k}; got {keys:?}"
        );
    }
    // Everything else reported must be a real collateral of the seeds:
    // the bit-flip's stripe parity, and the AA summary skew of the two
    // bitmap seeds.
    let flip_parity = format!("parity:rg={}:dbn={}", flip_loc.rg.0, flip_loc.dbn.0);
    let geo = fs.io().geometry();
    let stale_aa = geo.aa_of(Vbn(stale_vbn));
    let miss_aa = geo.aa_of(Vbn(miss_vbn));
    let mut allowed: BTreeSet<String> = required.iter().cloned().collect();
    allowed.insert(flip_parity);
    allowed.insert(format!("aaskew:rg={}:aa={}", stale_aa.rg.0, stale_aa.index));
    allowed.insert(format!("aaskew:rg={}:aa={}", miss_aa.rg.0, miss_aa.index));
    for k in &keys {
        assert!(allowed.contains(k), "false positive finding: {k}");
    }

    assert_all_reverified(&report);

    // Repairs restored every invariant: full integrity check (stamps,
    // bitmap vs trees, AA summaries, raw parity scrub) passes, and a
    // fresh scrub pass is clean.
    fs.verify_integrity().expect("post-repair integrity");
    let second = fs.scrub();
    assert!(
        second.is_clean(),
        "re-scan after repair found: {:?}",
        second.findings
    );
}

#[test]
fn scrub_retries_through_transient_read_faults_without_false_positives() {
    let cfg = FsConfig {
        vvbn_per_volume: 1 << 14,
        ..FsConfig::default()
    };
    // 2 % transient read-error rate: heavy enough to force retries,
    // far below any chance of exhausting the retry budget.
    let fs = Filesystem::with_faults(
        cfg,
        GeometryBuilder::new()
            .aa_stripes(64)
            .raid_group(3, 1, 1024)
            .build(),
        DriveKind::Ssd,
        FaultSpec {
            seed: 0x5eed,
            read_error_ppm: 20_000,
            ..FaultSpec::default()
        },
        RetryPolicy::default(),
        ExecMode::Inline,
    );
    fs.create_volume(VolumeId(0));
    fill(&fs, VolumeId(0), 4, 1);

    let retries_before = fs.io().fault_snapshot().io_retries;
    let report = fs.scrub();
    assert!(
        report.is_clean(),
        "transient faults must not become findings: {:?}",
        report.findings
    );
    // Scrub reads flow through the RAID layer's RetryPolicy; a 2 %
    // fault rate over thousands of block reads must have retried.
    let retries_after = fs.io().fault_snapshot().io_retries;
    assert!(
        retries_after > retries_before,
        "2 % read-fault rate must exercise the bounded retry path"
    );
}

#[test]
fn dead_drive_mid_scrub_is_detected_rebuilt_and_reverified() {
    let fs = mk_fs(ExecMode::Inline);
    fill(&fs, VolumeId(0), 4, 1);
    fill(&fs, VolumeId(1), 3, 2);
    let refs = all_file_refs(&fs);
    let (&bad_vbn, &bad_stamp) = refs.iter().last().expect("image has file blocks");
    corrupt_stamp(&fs, bad_vbn, bad_stamp ^ 0xF00D);

    // Kill a *different* drive of the same group, so the corrupted
    // block stays directly readable while the group is degraded.
    let dead_loc = fs.io().geometry().locate(Vbn(bad_vbn)).unwrap();
    let group = fs.io().raid_group(dead_loc.rg);
    let dead_in_rg = (dead_loc.drive_in_rg + 1) % group.data_drives().len() as u32;
    let dead_id = group.data_drives()[dead_in_rg as usize].id().0;
    group.data_drives()[dead_in_rg as usize].take_offline();

    // The scrubber must report the dead drive, rebuild it, and still
    // catch the stamp corruption in the degraded group.
    let report = fs.scrub();
    let keys = finding_keys(&report);
    assert!(
        keys.contains(&format!("dead:drive={dead_id}")),
        "dead drive unreported: {keys:?}"
    );
    assert!(
        keys.contains(&format!("stamp:vbn={bad_vbn}")),
        "degraded-mode stamp detection failed: {keys:?}"
    );
    assert_all_reverified(&report);
    assert!(fs.io().offline_drives().is_empty(), "drive rebuilt online");
    assert!(
        fs.io().fault_snapshot().blocks_rebuilt > 0,
        "rebuild progress counter advanced"
    );
    fs.verify_integrity().expect("post-rebuild integrity");
}

/// With two data drives of a single-parity group down, a block on either
/// is past reconstruction: the check reports it unreadable beside both
/// dead drives, and the scrub cannot repair it.
#[test]
fn double_drive_failure_reads_as_unreadable_blocks() {
    let fs = mk_fs(ExecMode::Inline);
    fill(&fs, VolumeId(0), 4, 1);
    let (&vbn, _) = all_file_refs(&fs).iter().next().expect("file blocks");
    let loc = fs.io().geometry().locate(Vbn(vbn)).unwrap();
    let group = fs.io().raid_group(loc.rg);
    let width = group.data_drives().len() as u32;
    let mut required = BTreeSet::from([format!("unread:vbn={vbn}")]);
    for d in [loc.drive_in_rg, (loc.drive_in_rg + 1) % width] {
        let drive = &group.data_drives()[d as usize];
        drive.take_offline();
        required.insert(format!("dead:drive={}", drive.id().0));
    }
    let keys: BTreeSet<String> = fs.check().iter().map(|e| e.key()).collect();
    assert!(keys.is_superset(&required), "{required:?} not in {keys:?}");

    let report = fs.scrub();
    let unread = report
        .findings
        .iter()
        .find(|f| f.error.key() == format!("unread:vbn={vbn}"))
        .expect("the unreadable block is confirmed");
    assert_eq!(unread.state, FindingState::Unrepairable);
}

#[test]
fn online_scrub_against_active_cleaners_catches_all_seeds() {
    let fs = mk_fs(ExecMode::Pool(4));
    // Volume 1 is the quiescent victim; volume 0 takes foreground churn.
    fill(&fs, VolumeId(1), 4, 7);
    fill_whole_round(&fs, VolumeId(1), FileId(4), 7);
    fill(&fs, VolumeId(0), 4, 1);
    let refs1 = image_refs(&fs, VolumeId(1));
    let all = all_refs(&fs);
    let aggmap = fs.allocator().infra().aggmap();

    // Seed three stable-under-load classes: a bit-flip on a quiescent
    // referenced block, bad parity on a fully referenced stripe, and a
    // stale bit on a free block (set bits are never handed out by the
    // allocator, so no cleaner can touch it).
    let (&flip_vbn, &flip_stamp) = refs1.iter().nth(refs1.len() / 3).expect("vol 1 blocks");
    corrupt_stamp(&fs, flip_vbn, flip_stamp ^ 0x0DD_0DD);
    let flip_loc = fs.io().geometry().locate(Vbn(flip_vbn)).unwrap();
    // The parity victim stripe must be referenced entirely by the
    // quiescent volume, so no foreground write can ever rewrite it.
    let vol1_set: BTreeSet<u64> = refs1.keys().copied().collect();
    let (parity_rg, parity_dbn) =
        referenced_stripe(&fs, &vol1_set, Some((flip_loc.rg.0, flip_loc.dbn.0)));
    corrupt_parity(&fs, parity_rg, parity_dbn);
    let stale_vbn = free_unreferenced_vbn(&fs, &all);
    aggmap.active_map().reserve(stale_vbn).expect("was free");

    // Foreground: ≥4 cleaner threads (CleanerConfig default) stay busy
    // with write + CP rounds while the scrub runs on the same pool.
    assert!(fs.config().cleaner.threads >= 4);
    let report = std::thread::scope(|s| {
        s.spawn(|| {
            for round in 0..12u64 {
                for f in 0..4u64 {
                    for fbn in 0..FBNS {
                        fs.write(VolumeId(0), FileId(f), fbn, stamp(f, fbn, 100 + round));
                    }
                }
                fs.run_cp();
            }
        });
        fs.scrub()
    });

    let keys = finding_keys(&report);
    let required = [
        format!("stamp:vbn={flip_vbn}"),
        format!("parity:rg={parity_rg}:dbn={parity_dbn}"),
        format!("stalebit:vbn={stale_vbn}"),
    ];
    for k in &required {
        assert!(
            keys.contains(k),
            "online scrub missed a seeded corruption: {k}; got {keys:?}"
        );
    }
    let geo = fs.io().geometry();
    let stale_aa = geo.aa_of(Vbn(stale_vbn));
    let mut allowed: BTreeSet<String> = required.iter().cloned().collect();
    allowed.insert(format!(
        "parity:rg={}:dbn={}",
        flip_loc.rg.0, flip_loc.dbn.0
    ));
    allowed.insert(format!("aaskew:rg={}:aa={}", stale_aa.rg.0, stale_aa.index));
    for k in &keys {
        assert!(
            allowed.contains(k),
            "online scrub confirmed a false positive: {k}"
        );
    }
    for f in &report.findings {
        assert!(
            matches!(f.state, FindingState::Reverified | FindingState::Repaired),
            "online finding unrepaired: {} ({:?})",
            f.error,
            f.state
        );
    }

    // Quiesce, then a fresh pass over the whole pool must be clean.
    fs.run_cp();
    fs.verify_integrity().expect("post-torture integrity");
    let quiet = fs.scrub();
    assert!(
        quiet.is_clean(),
        "post-torture re-scan found: {:?}",
        quiet.findings
    );
}
