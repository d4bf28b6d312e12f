//! Property test: NVLog replay idempotence under injected mid-CP crashes.
//!
//! For a random sequence of client ops with CPs sprinkled in, crashing the
//! final CP at *any* phase and recovering must yield exactly the logical
//! state of a run that never crashed: the committed image plus an NVRAM
//! log replay reconstructs every acknowledged op (§II-C), and the
//! recovered aggregate passes the full integrity check including the
//! raw-media parity scrub.

use proptest::prelude::*;
use wafl::{CrashPoint, ExecMode, FileId, Filesystem, FsConfig, Op, VolumeId};
use wafl_blockdev::{DriveKind, GeometryBuilder};

const FILES: u64 = 4;
const FBNS: u64 = 32;

#[derive(Debug, Clone, Copy)]
enum ClientOp {
    Write { file: u64, fbn: u64 },
    Truncate { file: u64, cut: u64 },
    Delete { file: u64 },
    Cp,
}

fn client_ops() -> impl Strategy<Value = Vec<ClientOp>> {
    prop::collection::vec(
        prop_oneof![
            8 => (0u64..FILES, 0u64..FBNS)
                .prop_map(|(file, fbn)| ClientOp::Write { file, fbn }),
            1 => (0u64..FILES, 0u64..FBNS)
                .prop_map(|(file, cut)| ClientOp::Truncate { file, cut }),
            1 => (0u64..FILES).prop_map(|file| ClientOp::Delete { file }),
            1 => Just(ClientOp::Cp),
        ],
        1..80,
    )
}

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
            .build(),
        DriveKind::Ssd,
        ExecMode::Inline,
    );
    fs.create_volume(VolumeId(0));
    for f in 0..FILES {
        fs.create_file(VolumeId(0), FileId(f));
    }
    fs
}

/// Apply one op identically on a file system; `seq` disambiguates stamps.
fn apply(fs: &Filesystem, op: ClientOp, seq: u64) {
    let vol = VolumeId(0);
    match op {
        ClientOp::Write { file, fbn } => {
            // A deleted file may be written again: re-create first, as a
            // client would.
            if fs
                .volume(vol)
                .map(|v| !v.has_file(FileId(file)))
                .unwrap_or(false)
            {
                fs.create_file(vol, FileId(file));
            }
            fs.write(
                vol,
                FileId(file),
                fbn,
                wafl_blockdev::stamp(file, fbn, seq + 1),
            );
        }
        ClientOp::Truncate { file, cut } => {
            fs.truncate(vol, FileId(file), cut);
        }
        ClientOp::Delete { file } => {
            fs.delete_file(vol, FileId(file));
        }
        ClientOp::Cp => {
            fs.run_cp();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every tetris stripe goes through the async engine's submission
    /// queues, with the superblock commit as the only barrier, so a crash
    /// point *drops the in-flight queues*: writes submitted but never
    /// serviced are lost outright. Recovery must still converge to the
    /// uncrashed run, because every dropped write was copy-on-write and
    /// its logical content is replayed from the NVRAM log.
    #[test]
    fn crashed_cp_recovery_matches_uncrashed_run(
        ops in client_ops(),
        crash_idx in 0usize..4,
    ) {
        let crash_at = CrashPoint::ALL[crash_idx];
        let reference = mk_fs();
        let crashed = mk_fs();
        for (seq, &op) in ops.iter().enumerate() {
            apply(&reference, op, seq as u64);
            apply(&crashed, op, seq as u64);
        }
        // Reference finishes cleanly; the other run crashes mid-CP and
        // reboots on the same media, with an engine of its own.
        reference.run_cp();
        crashed.run_cp_crash_at(crash_at);
        let recovered = crashed.crash_and_recover(ExecMode::Inline);
        recovered.run_cp();

        // Logical state is identical, both in memory and as committed.
        for file in 0..FILES {
            for fbn in 0..FBNS {
                let want = reference.read(VolumeId(0), FileId(file), fbn);
                prop_assert_eq!(
                    recovered.read(VolumeId(0), FileId(file), fbn),
                    want,
                    "logical divergence at {:?} file {} fbn {}",
                    crash_at, file, fbn
                );
                prop_assert_eq!(
                    recovered.read_persisted(VolumeId(0), FileId(file), fbn),
                    reference.read_persisted(VolumeId(0), FileId(file), fbn),
                    "committed divergence at {:?} file {} fbn {}",
                    crash_at, file, fbn
                );
            }
        }
        // Both aggregates verify end to end (stamps, metafiles, parity).
        reference.verify_integrity().map_err(|e| {
            TestCaseError::fail(format!("reference: {e}"))
        })?;
        recovered.verify_integrity().map_err(|e| {
            TestCaseError::fail(format!("recovered after {crash_at:?}: {e}"))
        })?;
    }
}

/// What an abandoned CP may do to the committed image **on the device**.
/// Not "nothing": a CP reuses blocks freed within it (`clean_job` stages an
/// overwrite's old PVBN, a full stage clears its active-map bit, a later
/// refill of the same CP hands it out), so the image recovered *without*
/// the NVLog reads back foreign stamps — 576 to 2 112 of these 10 500
/// blocks over ten runs, depending on how many queued stripes reached
/// media before the crash dropped the rest — and `verify_integrity`
/// fails on it until the next CP. The two halves that do hold: every
/// clobbered block belongs to an fbn with a write still in the
/// un-retired log, and with the log replayed every logical read is
/// right. Whether to free at commit instead, or keep reuse and make
/// replay a stated contract, is ROADMAP direction 2(a)'s to decide.
#[test]
fn abandoned_cp_overwrites_only_blocks_the_log_supersedes() {
    const BLOCKS: u64 = 10_500;
    const OVERWRITTEN: u64 = 3_000;
    let (vol, file) = (VolumeId(0), FileId(0));
    let cfg = FsConfig::default();
    let fs = Filesystem::new(
        cfg,
        GeometryBuilder::new()
            .aa_stripes(64)
            .raid_group(3, 1, 4096)
            .build(),
        DriveKind::Ssd,
        ExecMode::Inline,
    );
    fs.create_volume(vol);
    fs.create_file(vol, file);
    for fbn in 0..BLOCKS {
        fs.write(vol, file, fbn, wafl_blockdev::stamp(0, fbn, 1));
    }
    fs.run_cp();
    for fbn in 0..OVERWRITTEN {
        fs.write(vol, file, fbn, wafl_blockdev::stamp(0, fbn, 2));
    }
    fs.run_cp_crash_at(CrashPoint::AfterClean);

    let ops = fs.nvlog().replay_ops();
    let logged: std::collections::BTreeSet<u64> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Write { fbn, .. } => Some(*fbn),
            _ => None,
        })
        .collect();
    let image_only = Filesystem::recover(
        cfg,
        std::sync::Arc::clone(fs.io()),
        fs.committed_image(),
        &[],
        ExecMode::Inline,
    );
    for fbn in 0..BLOCKS {
        let intact =
            image_only.read_persisted(vol, file, fbn) == Some(wafl_blockdev::stamp(0, fbn, 1));
        assert!(
            intact || logged.contains(&fbn),
            "fbn {fbn}: committed block clobbered with no logged write to supersede it"
        );
    }

    let replayed = fs.crash_and_recover(ExecMode::Inline);
    for fbn in 0..BLOCKS {
        let generation = if fbn < OVERWRITTEN { 2 } else { 1 };
        assert_eq!(
            replayed.read(vol, file, fbn),
            Some(wafl_blockdev::stamp(0, fbn, generation)),
            "fbn {fbn} after replay"
        );
    }
}

/// Unique tmpdir per torture case (cases run concurrently under
/// proptest's fork-free runner; the counter keeps them disjoint).
fn torture_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    // ordering: test-local unique-id counter.
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("wafl-torture-{}-{}", std::process::id(), n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Crash-consistency torture on the **file backend**: the aggregate
    /// mirrors to real files, the mid-CP crash drops the async queues
    /// *and* tears the mirror (a multi-segment stripe racing the crash
    /// persists only a prefix of its segments), and the remount rebuilds
    /// fresh drives from whatever the files hold. NVLog replay must then
    /// reconstruct every acknowledged op, and the remounted aggregate
    /// must verify end to end — stamps, metafiles, and a raw parity
    /// scrub with zero findings.
    #[test]
    fn file_backend_torn_stripe_remount(
        ops in client_ops(),
        crash_idx in 0usize..4,
    ) {
        let crash_at = CrashPoint::ALL[crash_idx];
        let dir = torture_dir();
        let _ = std::fs::remove_dir_all(&dir);
        let reference = mk_fs();
        let crashed = mk_fs();
        crashed
            .attach_file_backend(&dir, wafl_blockdev::SyncPolicy::Barrier)
            .expect("file backend opens in a tmpdir");
        for (seq, &op) in ops.iter().enumerate() {
            apply(&reference, op, seq as u64);
            apply(&crashed, op, seq as u64);
        }
        reference.run_cp();
        crashed.run_cp_crash_at(crash_at);
        let remounted = crashed
            .remount_from_files(&dir, ExecMode::Inline)
            .map_err(TestCaseError::fail)?;
        remounted.run_cp();

        for file in 0..FILES {
            for fbn in 0..FBNS {
                prop_assert_eq!(
                    remounted.read(VolumeId(0), FileId(file), fbn),
                    reference.read(VolumeId(0), FileId(file), fbn),
                    "file-backend logical divergence at {:?} file {} fbn {}",
                    crash_at, file, fbn
                );
                prop_assert_eq!(
                    remounted.read_persisted(VolumeId(0), FileId(file), fbn),
                    reference.read_persisted(VolumeId(0), FileId(file), fbn),
                    "file-backend committed divergence at {:?} file {} fbn {}",
                    crash_at, file, fbn
                );
            }
        }
        let verdict = remounted.verify_integrity();
        let _ = std::fs::remove_dir_all(&dir);
        verdict.map_err(|e| {
            TestCaseError::fail(format!("file-backend remount after {crash_at:?}: {e}"))
        })?;
    }
}
