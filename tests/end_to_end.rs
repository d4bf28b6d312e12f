//! End-to-end integration: the full stack (blockdev → metafile →
//! waffinity → alligator → wafl) exercised through the public
//! [`Filesystem`] API.

use wafl::{ExecMode, FileId, Filesystem, FsConfig, VolumeId};
use wafl_blockdev::{stamp, DriveKind, GeometryBuilder};

fn small_fs(exec: ExecMode) -> Filesystem {
    let cfg = FsConfig {
        vvbn_per_volume: 1 << 16,
        ..FsConfig::default()
    };
    Filesystem::new(
        cfg,
        GeometryBuilder::new()
            .aa_stripes(128)
            .raid_group(3, 1, 16 * 1024)
            .raid_group(2, 1, 16 * 1024)
            .build(),
        DriveKind::Ssd,
        exec,
    )
}

#[test]
fn multi_volume_multi_cp_integrity() {
    let fs = small_fs(ExecMode::Inline);
    for v in 0..4 {
        fs.create_volume(VolumeId(v));
        for f in 0..5u64 {
            fs.create_file(VolumeId(v), FileId(f));
        }
    }
    for generation in 1..=5u64 {
        for v in 0..4 {
            for f in 0..5u64 {
                for fbn in 0..20 {
                    fs.write(
                        VolumeId(v),
                        FileId(f),
                        fbn,
                        stamp(v as u64 * 100 + f, fbn, generation),
                    );
                }
            }
        }
        let r = fs.run_cp();
        assert_eq!(r.inodes_cleaned, 20);
        assert_eq!(r.buffers_cleaned, 400);
    }
    for v in 0..4 {
        for f in 0..5u64 {
            for fbn in 0..20 {
                assert_eq!(
                    fs.read_persisted(VolumeId(v), FileId(f), fbn),
                    Some(stamp(v as u64 * 100 + f, fbn, 5))
                );
            }
        }
    }
    fs.verify_integrity().unwrap();
    assert_eq!(fs.cp_count(), 5);
}

#[test]
fn space_is_conserved_across_overwrite_cycles() {
    // Repeated overwrites of the same logical blocks must not leak
    // physical space: frees keep pace with allocations (DESIGN.md §8.2).
    let fs = small_fs(ExecMode::Inline);
    fs.create_volume(VolumeId(0));
    fs.create_file(VolumeId(0), FileId(1));
    let mut free_after = Vec::new();
    for generation in 1..=10u64 {
        for fbn in 0..200 {
            fs.write(VolumeId(0), FileId(1), fbn, stamp(1, fbn, generation));
        }
        fs.run_cp();
        free_after.push(fs.allocator().infra().aggmap().free_count());
    }
    // After the steady state is reached, free space stays flat (modulo
    // metafile-block churn bounded by a few blocks per CP).
    let late = &free_after[4..];
    let min = *late.iter().min().unwrap();
    let max = *late.iter().max().unwrap();
    assert!(
        max - min < 64,
        "free space drifts under overwrite churn: {free_after:?}"
    );
    fs.verify_integrity().unwrap();
}

#[test]
fn small_files_conserve_vvbns_through_churn_and_snapshots() {
    // Many 1–4-block files: each cleaner job is smaller than a VVBN
    // reservation cap, the case where a job's reservation is sized to it.
    let fs = small_fs(ExecMode::Pool(2));
    let vol = VolumeId(0);
    fs.create_volume(vol);
    let files = 300u64;
    let blocks = |f: u64| 1 + f % 4;
    for f in 0..files {
        fs.create_file(vol, FileId(f));
    }
    for generation in 1..=3u64 {
        for f in (0..files).filter(|f| generation == 1 || f % generation == 0) {
            for fbn in 0..blocks(f) {
                fs.write(vol, FileId(f), fbn, stamp(f, fbn, generation));
            }
        }
        fs.run_cp();
        fs.verify_integrity().unwrap();
    }
    assert!(fs.create_snapshot(vol, "before"));
    // Overwrite and truncate blocks the snapshot retains, delete a file.
    for f in (0..files).step_by(5) {
        fs.write(vol, FileId(f), 0, stamp(f, 0, 9));
    }
    for f in (3..files).step_by(4) {
        assert!(fs.truncate(vol, FileId(f), 1));
    }
    assert!(fs.delete_file(vol, FileId(2)));
    fs.run_cp();
    fs.verify_integrity().unwrap();
    assert!(fs.delete_snapshot(vol, "before").unwrap() > 0);
    fs.run_cp();
    fs.verify_integrity().unwrap();
    // No snapshot left: the used VVBNs are exactly the live blocks.
    let v = fs.volume(vol).unwrap();
    let live: usize = v
        .file_ids()
        .into_iter()
        .map(|f| v.inode(f).unwrap().lock().block_map().len())
        .sum();
    assert_eq!(v.vvbn().total() - v.vvbn().free_count(), live as u64);
}

#[test]
fn sequential_files_land_contiguously_per_drive() {
    // §IV-C objective 2: consecutive blocks of a file written by one
    // cleaner land on consecutive VBNs of one drive.
    let mut cfg = FsConfig::default();
    cfg.cleaner.threads = 1; // single cleaner → strictest contiguity
    let fs = Filesystem::new(
        cfg,
        GeometryBuilder::new()
            .aa_stripes(512)
            .raid_group(4, 1, 64 * 1024)
            .build(),
        DriveKind::Ssd,
        ExecMode::Inline,
    );
    fs.create_volume(VolumeId(0));
    fs.create_file(VolumeId(0), FileId(1));
    for fbn in 0..64 {
        fs.write(VolumeId(0), FileId(1), fbn, stamp(1, fbn, 1));
    }
    fs.run_cp();
    let vol = fs.volume(VolumeId(0)).unwrap();
    let inode = vol.inode(FileId(1)).unwrap();
    let inode = inode.lock();
    let mut runs = 1u32;
    let mut prev: Option<u64> = None;
    for fbn in 0..64 {
        let ptr = inode.lookup(fbn).expect("block committed");
        if let Some(p) = prev {
            if ptr.pvbn.0 != p + 1 {
                runs += 1;
            }
        }
        prev = Some(ptr.pvbn.0);
    }
    assert!(
        runs <= 2,
        "64 sequential blocks should form at most 2 contiguous runs, got {runs}"
    );
}

#[test]
fn full_stripe_ratio_high_for_sequential_load() {
    let fs = small_fs(ExecMode::Inline);
    fs.create_volume(VolumeId(0));
    fs.create_file(VolumeId(0), FileId(1));
    for fbn in 0..2048 {
        fs.write(VolumeId(0), FileId(1), fbn, stamp(1, fbn, 1));
    }
    fs.run_cp();
    let ratio = fs.io().full_stripe_ratio().unwrap();
    assert!(
        ratio > 0.7,
        "sequential CP should be mostly full stripes: {ratio}"
    );
    fs.io().scrub().unwrap();
}

#[test]
fn pool_mode_matches_inline_results() {
    // The Waffinity-pool execution must produce the same logical file
    // contents as inline execution (physical placement may differ).
    let run = |exec: ExecMode| {
        let fs = small_fs(exec);
        fs.create_volume(VolumeId(0));
        fs.create_file(VolumeId(0), FileId(1));
        for g in 1..=3u64 {
            for fbn in 0..100 {
                fs.write(VolumeId(0), FileId(1), fbn, stamp(1, fbn, g));
            }
            fs.run_cp();
        }
        (0..100)
            .map(|fbn| fs.read_persisted(VolumeId(0), FileId(1), fbn).unwrap())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(ExecMode::Inline), run(ExecMode::Pool(3)));
}

#[test]
fn empty_cp_is_a_noop() {
    let fs = small_fs(ExecMode::Inline);
    fs.create_volume(VolumeId(0));
    let r = fs.run_cp();
    assert_eq!(r.buffers_cleaned, 0);
    assert_eq!(r.inodes_cleaned, 0);
    fs.verify_integrity().unwrap();
}

#[test]
fn serial_infra_config_still_correct() {
    // The Figure 4 baseline configuration must be functionally identical,
    // only slower.
    let mut cfg = FsConfig::default();
    cfg.alloc = cfg.alloc.serial_infra();
    cfg.cleaner.threads = 1;
    let fs = Filesystem::new(
        cfg,
        GeometryBuilder::new()
            .aa_stripes(128)
            .raid_group(3, 1, 8192)
            .build(),
        DriveKind::Ssd,
        ExecMode::Pool(2),
    );
    fs.create_volume(VolumeId(0));
    fs.create_file(VolumeId(0), FileId(1));
    for fbn in 0..300 {
        fs.write(VolumeId(0), FileId(1), fbn, stamp(1, fbn, 1));
    }
    fs.run_cp();
    for fbn in 0..300 {
        assert_eq!(
            fs.read_persisted(VolumeId(0), FileId(1), fbn),
            Some(stamp(1, fbn, 1))
        );
    }
    fs.verify_integrity().unwrap();
}

#[test]
fn hdd_media_works_end_to_end() {
    let fs = Filesystem::new(
        FsConfig::default(),
        GeometryBuilder::new()
            .aa_stripes(128)
            .raid_group(3, 1, 8192)
            .build(),
        DriveKind::Hdd,
        ExecMode::Inline,
    );
    fs.create_volume(VolumeId(0));
    fs.create_file(VolumeId(0), FileId(1));
    for fbn in 0..64 {
        fs.write(VolumeId(0), FileId(1), fbn, stamp(1, fbn, 1));
    }
    fs.run_cp();
    fs.verify_integrity().unwrap();
}
