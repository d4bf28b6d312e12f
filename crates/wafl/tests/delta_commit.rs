//! The superblock commit updates the committed image in place from what
//! the CP changed. Its contract, checked here against the obvious oracle —
//! an image rebuilt from every live inode:
//!
//! * after every committed CP, `committed_image()` equals the rebuild;
//! * a handle taken before a CP still shows the image it was taken from;
//! * recovery from the incrementally maintained image reads back every
//!   acknowledged block.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use wafl::cp::VolumeImage;
use wafl::inode::BlockMap;
use wafl::{CrashPoint, DiskImage, ExecMode, FileId, Filesystem, FsConfig, VolumeId};
use wafl_blockdev::{stamp, BlockStamp, DriveKind, GeometryBuilder};

/// The oracle: the image the commit used to build from scratch.
fn rebuild(fs: &Filesystem) -> DiskImage {
    DiskImage {
        cp_id: fs.cp_count(),
        volumes: fs
            .volumes()
            .iter()
            .map(|v| VolumeImage {
                id: v.id(),
                aggr: v.aggr(),
                vvbn_total: v.vvbn().total(),
                files: v
                    .file_ids()
                    .into_iter()
                    .map(|f| {
                        // Block by block into a fresh map, not a clone: equal
                        // contents must compare equal whatever built them.
                        let inode = v.inode(f).expect("listed file exists");
                        let mut map = BlockMap::default();
                        for (fbn, ptr) in inode.lock().block_map().iter() {
                            map.insert(fbn, *ptr);
                        }
                        (f, map)
                    })
                    .collect(),
                snapshots: v.snapshots().list(),
            })
            .collect(),
        metafile_locs: fs.metafile_locs().snapshot(),
    }
}

fn mk_fs() -> Filesystem {
    let cfg = FsConfig {
        vvbn_per_volume: 1 << 14,
        ..FsConfig::default()
    };
    Filesystem::new(
        cfg,
        GeometryBuilder::new()
            .aa_stripes(64)
            .raid_group(3, 1, 2048)
            .build(),
        DriveKind::Ssd,
        ExecMode::Inline,
    )
}

/// Run a CP and check the contract. `hold` keeps a handle on the previous
/// image across the CP (the commit must then copy before it writes);
/// without it the commit updates the image in place.
fn cp_and_check(fs: &Filesystem, hold: bool) {
    let held = fs
        .committed_image()
        .filter(|_| hold)
        .map(|img| (DiskImage::clone(&img), img));
    fs.run_cp();
    let image = fs.committed_image().expect("CP committed");
    assert_eq!(*image, rebuild(fs), "image diverged from the live inodes");
    if let Some((copy, handle)) = held {
        assert_eq!(*handle, copy, "a CP changed an image a reader held");
    }
}

const VOLS: u32 = 2;
const FILES: u64 = 3;
const SNAPS: u8 = 2;

#[derive(Debug, Clone, Copy)]
enum Step {
    Write { vol: u32, file: u64, fbn: u64 },
    Truncate { vol: u32, file: u64, cut: u64 },
    Delete { vol: u32, file: u64 },
    SnapCreate { vol: u32, snap: u8 },
    SnapDelete { vol: u32, snap: u8 },
    Cp { hold: bool },
    CrashCp { at: usize },
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    // Mostly a dense head, now and then a block far beyond it.
    let fbn = || prop_oneof![6 => 0u64..24, 1 => (1u64 << 33)..(1u64 << 33) + 3];
    prop::collection::vec(
        prop_oneof![
            12 => (0..VOLS, 0..FILES, fbn()).prop_map(|(vol, file, fbn)| Step::Write { vol, file, fbn }),
            2 => (0..VOLS, 0..FILES, 0u64..24).prop_map(|(vol, file, cut)| Step::Truncate { vol, file, cut }),
            1 => (0..VOLS, 0..FILES).prop_map(|(vol, file)| Step::Delete { vol, file }),
            1 => (0..VOLS, 0..SNAPS).prop_map(|(vol, snap)| Step::SnapCreate { vol, snap }),
            1 => (0..VOLS, 0..SNAPS).prop_map(|(vol, snap)| Step::SnapDelete { vol, snap }),
            3 => prop::bool::ANY.prop_map(|hold| Step::Cp { hold }),
            1 => (0usize..CrashPoint::ALL.len()).prop_map(|at| Step::CrashCp { at }),
        ],
        1..90,
    )
}

/// What the client was told: every live file's acknowledged blocks.
type Acked = BTreeMap<(u32, u64), BTreeMap<u64, BlockStamp>>;

fn check_reads(fs: &Filesystem, acked: &Acked) {
    for vol in 0..VOLS {
        let v = fs.volume(VolumeId(vol)).expect("volume survives");
        for file in 0..FILES {
            match acked.get(&(vol, file)) {
                Some(blocks) => {
                    assert!(v.has_file(FileId(file)), "vol {vol} file {file} lost");
                    for (&fbn, &want) in blocks {
                        assert_eq!(
                            fs.read(VolumeId(vol), FileId(file), fbn),
                            Some(want),
                            "vol {vol} file {file} fbn {fbn}"
                        );
                    }
                }
                None => assert!(!v.has_file(FileId(file)), "vol {vol} file {file} undeleted"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn committed_image_tracks_the_live_inodes(steps in steps()) {
        let mut fs = mk_fs();
        for vol in 0..VOLS {
            fs.create_volume(VolumeId(vol));
        }
        // Creating a volume is not logged: only a CP makes it durable.
        cp_and_check(&fs, false);
        let mut acked = Acked::new();
        for (seq, step) in steps.into_iter().enumerate() {
            match step {
                Step::Write { vol, file, fbn } => {
                    if !acked.contains_key(&(vol, file)) {
                        fs.create_file(VolumeId(vol), FileId(file));
                    }
                    let s = stamp(file, fbn, seq as u64 + 1);
                    fs.write(VolumeId(vol), FileId(file), fbn, s);
                    acked.entry((vol, file)).or_default().insert(fbn, s);
                }
                Step::Truncate { vol, file, cut } => {
                    fs.truncate(VolumeId(vol), FileId(file), cut);
                    if let Some(blocks) = acked.get_mut(&(vol, file)) {
                        blocks.retain(|&fbn, _| fbn < cut);
                    }
                }
                Step::Delete { vol, file } => {
                    fs.delete_file(VolumeId(vol), FileId(file));
                    acked.remove(&(vol, file));
                }
                Step::SnapCreate { vol, snap } => {
                    // Two CPs inside; check the image they leave.
                    fs.create_snapshot(VolumeId(vol), &format!("s{snap}"));
                    cp_and_check(&fs, false);
                }
                Step::SnapDelete { vol, snap } => {
                    fs.delete_snapshot(VolumeId(vol), &format!("s{snap}"));
                }
                Step::Cp { hold } => cp_and_check(&fs, hold),
                Step::CrashCp { at } => {
                    let before = fs.committed_image();
                    let copy = before.as_deref().cloned();
                    fs.run_cp_crash_at(CrashPoint::ALL[at]);
                    prop_assert_eq!(before.as_deref(), copy.as_ref(), "an abandoned CP touched the image");
                    let recovered = fs.crash_and_recover(ExecMode::Inline);
                    match (&before, recovered.committed_image()) {
                        (Some(a), Some(b)) => prop_assert!(Arc::ptr_eq(a, &b), "recovery copied the image"),
                        (None, None) => {}
                        _ => prop_assert!(false, "recovery changed whether an image is rooted"),
                    }
                    fs = recovered;
                    check_reads(&fs, &acked);
                }
            }
        }
        cp_and_check(&fs, false);
        check_reads(&fs, &acked);
        for ((vol, file), blocks) in &acked {
            for (&fbn, &want) in blocks {
                prop_assert_eq!(fs.read_persisted(VolumeId(*vol), FileId(*file), fbn), Some(want));
            }
        }
    }
}

#[test]
fn sparse_file_block_far_beyond_its_length() {
    let fs = mk_fs();
    let (vol, file) = (VolumeId(0), FileId(1));
    let far = 1u64 << 40;
    fs.create_volume(vol);
    fs.create_file(vol, file);
    for fbn in [0, 1, 2, far] {
        fs.write(vol, file, fbn, stamp(1, fbn, 1));
    }
    cp_and_check(&fs, false);
    // Overwrite the far block, fill a hole below it, grow past it.
    for fbn in [far, 7, far + 5] {
        fs.write(vol, file, fbn, stamp(1, fbn, 2));
    }
    cp_and_check(&fs, false);
    let image = fs.committed_image().unwrap();
    let fbns: Vec<u64> = image.volumes[0].files[&file].iter().map(|e| e.0).collect();
    assert_eq!(fbns, [0, 1, 2, 7, far, far + 5]);
    drop(image);
    let r = fs.crash_and_recover(ExecMode::Inline);
    assert_eq!(r.read_persisted(vol, file, far), Some(stamp(1, far, 2)));
    assert_eq!(r.read_persisted(vol, file, 7), Some(stamp(1, 7, 2)));
}

#[test]
fn volume_created_between_cps_joins_the_image() {
    let fs = mk_fs();
    // Out of id order, so the new volume lands in front of the old one.
    fs.create_volume(VolumeId(5));
    fs.create_file(VolumeId(5), FileId(1));
    fs.write(VolumeId(5), FileId(1), 0, 0xA);
    cp_and_check(&fs, false);
    fs.create_volume(VolumeId(2));
    fs.create_file(VolumeId(2), FileId(9));
    fs.write(VolumeId(2), FileId(9), 3, 0xB);
    fs.create_volume(VolumeId(7)); // stays empty
    cp_and_check(&fs, false);
    let ids: Vec<u32> = fs
        .committed_image()
        .unwrap()
        .volumes
        .iter()
        .map(|vi| vi.id.0)
        .collect();
    assert_eq!(ids, [2, 5, 7]);
    let r = fs.crash_and_recover(ExecMode::Inline);
    assert_eq!(r.read_persisted(VolumeId(2), FileId(9), 3), Some(0xB));
    assert_eq!(r.read_persisted(VolumeId(5), FileId(1), 0), Some(0xA));
}

#[test]
fn a_cp_copies_nothing_of_a_retained_snapshot() {
    let fs = mk_fs();
    let (vol, file) = (VolumeId(0), FileId(1));
    fs.create_volume(vol);
    fs.create_file(vol, file);
    for fbn in 0..32 {
        fs.write(vol, file, fbn, stamp(1, fbn, 1));
    }
    assert!(fs.create_snapshot(vol, "keep"));
    let before = fs.committed_image().unwrap();
    fs.write(vol, file, 0, stamp(1, 0, 2));
    cp_and_check(&fs, false);
    let after = fs.committed_image().unwrap();
    let live = fs.volume(vol).unwrap().snapshots().get("keep").unwrap();
    assert!(Arc::ptr_eq(&before.volumes[0].snapshots[0], &live));
    assert!(Arc::ptr_eq(&after.volumes[0].snapshots[0], &live));
    // Recovery shares it too.
    drop((before, after));
    let r = fs.crash_and_recover(ExecMode::Inline);
    let recovered = r.volume(vol).unwrap().snapshots().get("keep").unwrap();
    assert!(Arc::ptr_eq(&recovered, &live));
}

/// Address of a committed file map's first page: stable exactly as long
/// as the map is updated in place.
fn map_addr(fs: &Filesystem, vol: usize, file: FileId) -> usize {
    let image = fs.committed_image().unwrap();
    let first = image.volumes[vol].files[&file]
        .get(0)
        .expect("fbn 0 mapped");
    std::ptr::from_ref(first) as usize
}

#[test]
fn the_commit_updates_in_place_and_recovery_marks_no_file_for_copying() {
    let fs = mk_fs();
    let vol = VolumeId(0);
    fs.create_volume(vol);
    for file in 1..=2u64 {
        fs.create_file(vol, FileId(file));
        for fbn in 0..64 {
            fs.write(vol, FileId(file), fbn, stamp(file, fbn, 1));
        }
    }
    cp_and_check(&fs, false);
    let addrs = [map_addr(&fs, 0, FileId(1)), map_addr(&fs, 0, FileId(2))];
    // Overwrites only: neither the touched nor the untouched file moves.
    fs.write(vol, FileId(1), 5, stamp(1, 5, 2));
    cp_and_check(&fs, false);
    assert_eq!(
        [map_addr(&fs, 0, FileId(1)), map_addr(&fs, 0, FileId(2))],
        addrs
    );
    // Recovery roots the same image; once the dead instance lets go of
    // it, the first CP must not re-copy the files recovery re-created.
    let r = fs.crash_and_recover(ExecMode::Inline);
    drop(fs);
    r.write(vol, FileId(2), 9, stamp(2, 9, 3));
    cp_and_check(&r, false);
    assert_eq!(
        [map_addr(&r, 0, FileId(1)), map_addr(&r, 0, FileId(2))],
        addrs
    );
    // A truncate is a change no cleaner result describes: that file, and
    // only that file, is copied afresh.
    assert!(r.truncate(vol, FileId(1), 10));
    cp_and_check(&r, false);
    assert_ne!(map_addr(&r, 0, FileId(1)), addrs[0]);
    assert_eq!(map_addr(&r, 0, FileId(2)), addrs[1]);
}
