//! Focused tests for the CP-support structures: metafile locations, the
//! superblock store, and CP report semantics driven through the public
//! file-system API.

use std::sync::Arc;
use wafl::cp::MetafileSrc;
use wafl::{
    DiskImage, ExecMode, FileId, Filesystem, FsConfig, MetafileLocs, SuperblockStore, VolumeId,
};
use wafl_blockdev::{stamp, DriveKind, GeometryBuilder, Vbn};

#[test]
fn metafile_locs_set_get_and_previous() {
    let m = MetafileLocs::new();
    assert!(m.is_empty());
    assert_eq!(m.get(MetafileSrc::Aggregate, 3), None);
    assert_eq!(m.set(MetafileSrc::Aggregate, 3, Vbn(100)), None);
    assert_eq!(
        m.set(MetafileSrc::Aggregate, 3, Vbn(200)),
        Some(Vbn(100)),
        "returns the old location for freeing"
    );
    assert_eq!(m.get(MetafileSrc::Aggregate, 3), Some(Vbn(200)));
    // Distinct sources do not collide.
    m.set(MetafileSrc::Volume(VolumeId(1)), 3, Vbn(300));
    assert_eq!(m.get(MetafileSrc::Aggregate, 3), Some(Vbn(200)));
    assert_eq!(m.len(), 2);
}

#[test]
fn metafile_locs_snapshot_restore_roundtrip() {
    let m = MetafileLocs::new();
    m.set(MetafileSrc::Aggregate, 0, Vbn(10));
    m.set(MetafileSrc::Volume(VolumeId(2)), 7, Vbn(20));
    let snap = m.snapshot();
    let r = MetafileLocs::restore(&snap);
    assert_eq!(r.get(MetafileSrc::Aggregate, 0), Some(Vbn(10)));
    assert_eq!(r.get(MetafileSrc::Volume(VolumeId(2)), 7), Some(Vbn(20)));
    assert_eq!(r.len(), 2);
}

#[test]
fn superblock_store_roots_the_installed_image() {
    let sb = SuperblockStore::new();
    assert!(sb.load().is_none());
    let image = |cp_id| {
        Arc::new(DiskImage {
            cp_id,
            ..Default::default()
        })
    };
    let first = image(1);
    sb.install(Arc::clone(&first));
    assert!(
        Arc::ptr_eq(&sb.load().unwrap(), &first),
        "rooted, not copied"
    );
    sb.install(image(2));
    assert_eq!(sb.load().unwrap().cp_id, 2);
    assert_eq!(first.cp_id, 1, "an earlier handle keeps its image");
}

fn fs() -> Filesystem {
    Filesystem::new(
        FsConfig::default(),
        GeometryBuilder::new()
            .aa_stripes(128)
            .raid_group(3, 1, 8192)
            .build(),
        DriveKind::Ssd,
        ExecMode::Inline,
    )
}

#[test]
fn cp_report_counts_are_consistent() {
    let f = fs();
    f.create_volume(VolumeId(0));
    for file in 0..10u64 {
        f.create_file(VolumeId(0), FileId(file));
        for fbn in 0..7 {
            f.write(VolumeId(0), FileId(file), fbn, stamp(file, fbn, 1));
        }
    }
    let r = f.run_cp();
    assert_eq!(r.cp_id, 1);
    assert_eq!(r.inodes_cleaned, 10);
    assert_eq!(r.buffers_cleaned, 70);
    assert!(r.cleaner_messages >= 1);
    assert!(r.metafile_blocks_written >= 1, "bitmap updates must flush");
    assert!(r.fixpoint_rounds >= 1);
}

#[test]
fn cp_ids_increase_monotonically() {
    let f = fs();
    f.create_volume(VolumeId(0));
    f.create_file(VolumeId(0), FileId(1));
    for i in 1..=4u64 {
        f.write(VolumeId(0), FileId(1), 0, stamp(1, 0, i));
        let r = f.run_cp();
        assert_eq!(r.cp_id, i);
    }
}

#[test]
fn metafile_flush_converges_within_bound() {
    let f = fs();
    f.create_volume(VolumeId(0));
    f.create_file(VolumeId(0), FileId(1));
    for fbn in 0..500 {
        f.write(VolumeId(0), FileId(1), fbn, stamp(1, fbn, 1));
    }
    let r = f.run_cp();
    assert!(
        r.fixpoint_rounds <= wafl::cp::METAFILE_FIXPOINT_MAX,
        "fix-point respects the bound"
    );
    // The residual dirt dropped at the bound must stay tiny (a handful
    // of self-referential bitmap blocks).
    assert!(
        r.residual_dirty_dropped <= 4,
        "residual dirt bounded: {}",
        r.residual_dirty_dropped
    );
}

#[test]
fn superblock_image_contains_every_committed_file() {
    let f = fs();
    f.create_volume(VolumeId(0));
    f.create_volume(VolumeId(1));
    f.create_file(VolumeId(0), FileId(1));
    f.create_file(VolumeId(1), FileId(9));
    f.write(VolumeId(0), FileId(1), 0, 0xA);
    f.write(VolumeId(1), FileId(9), 0, 0xB);
    f.run_cp();
    // Reach the image through crash recovery (the public path).
    let r = f.crash_and_recover(ExecMode::Inline);
    assert_eq!(r.read_persisted(VolumeId(0), FileId(1), 0), Some(0xA));
    assert_eq!(r.read_persisted(VolumeId(1), FileId(9), 0), Some(0xB));
}

#[test]
fn empty_files_survive_the_image() {
    let f = fs();
    f.create_volume(VolumeId(0));
    f.create_file(VolumeId(0), FileId(5)); // never written
    f.run_cp();
    let r = f.crash_and_recover(ExecMode::Inline);
    let v = r.volume(VolumeId(0)).unwrap();
    assert!(v.has_file(FileId(5)), "created-but-empty file persists");
}

#[test]
fn cp_profile_attributes_wall_time_to_phases() {
    let f = fs();
    f.create_volume(VolumeId(0));
    for file in 0..4u64 {
        f.create_file(VolumeId(0), FileId(file));
        for fbn in 0..32 {
            f.write(VolumeId(0), FileId(file), fbn, stamp(file, fbn, 1));
        }
    }
    let r = f.run_cp();
    assert!(r.total_ns > 0, "a real CP takes measurable time");
    let attributed: u64 = r.phase_ns().iter().sum();
    assert!(attributed > 0);
    assert!(
        attributed <= r.total_ns,
        "phases nest inside the CP span: {attributed} <= {}",
        r.total_ns
    );
    let coverage = attributed as f64 / r.total_ns as f64;
    assert!(
        coverage >= 0.95,
        "inter-phase bookkeeping must stay under 5% ({coverage:.3})"
    );
}

/// A `--features trace` build records a real CP into the event rings:
/// the CP thread's ring holds one `CpPhase` span per entry of
/// `CP_PHASE_NAMES`, and the cleaning path's GET, PUT and refill land in
/// some ring. The Chrome exporter renders each phase span as one `X`
/// event on the CP thread's track. Without the feature the macros are
/// no-ops and no ring is ever registered.
#[test]
fn traced_cp_lands_in_the_rings() {
    use obs::EventKind;
    use serde::Value;
    use std::collections::BTreeSet;
    use wafl::cp::CP_PHASE_NAMES;
    let f = fs();
    f.create_volume(VolumeId(0));
    f.create_file(VolumeId(0), FileId(1));
    for fbn in 0..64 {
        f.write(VolumeId(0), FileId(1), fbn, stamp(1, fbn, 1));
    }
    f.run_cp();
    let rings = obs::trace::snapshot_all();
    if !obs::ENABLED {
        assert!(rings.is_empty(), "an untraced build registers no ring");
        return;
    }
    // Rings are per thread and named at registration; libtest names
    // each test's thread after the test.
    let me = std::thread::current().name().unwrap_or("?").to_string();
    let mine = rings
        .iter()
        .find(|t| t.name == me)
        .expect("the CP thread registered a ring");
    let phases: BTreeSet<u64> = mine
        .events
        .iter()
        .filter(|e| e.kind == EventKind::CpPhase)
        .map(|e| e.arg)
        .collect();
    assert_eq!(
        phases,
        (1..=CP_PHASE_NAMES.len() as u64).collect(),
        "one span per phase"
    );
    for kind in [EventKind::Get, EventKind::Put, EventKind::Refill] {
        assert!(
            rings
                .iter()
                .any(|t| t.events.iter().any(|e| e.kind == kind)),
            "no ring holds a {kind:?} event"
        );
    }

    // The same rings through the exporter: one complete (`X`) event per
    // phase on this thread's track, in phase order.
    let doc = serde_json::from_str(&obs::chrome::chrome_trace_json(&rings, 0))
        .expect("exporter output parses");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_seq)
        .expect("traceEvents is an array");
    let is = |e: &Value, key: &str, want: &str| e.get(key).and_then(Value::as_str) == Some(want);
    let tid = events
        .iter()
        .find(|e| is(e, "ph", "M") && e.get("args").is_some_and(|a| is(a, "name", &me)))
        .and_then(|e| e.get("tid"))
        .expect("this thread's track is named");
    let phase_args: Vec<&Value> = events
        .iter()
        .filter(|e| {
            e.get("tid") == Some(tid)
                && is(e, "ph", "X")
                && is(e, "name", EventKind::CpPhase.name())
        })
        .filter_map(|e| e.get("args")?.get("arg"))
        .collect();
    let want: Vec<Value> = (1..=CP_PHASE_NAMES.len() as u128)
        .map(Value::UInt)
        .collect();
    assert_eq!(
        phase_args,
        want.iter().collect::<Vec<_>>(),
        "one X event per CP phase"
    );
}

#[test]
fn phase_names_align_with_report_fields() {
    // A distinct value per `*_ns` field: swapping two entries of
    // `phase_ns()` or of `CP_PHASE_NAMES` changes a pair below.
    let r = wafl::cp::CpReport {
        freeze_ns: 1,
        clean_ns: 2,
        apply_ns: 3,
        metafile_ns: 4,
        barrier_ns: 5,
        commit_ns: 6,
        ..Default::default()
    };
    let pairs: Vec<(&str, u64)> = wafl::cp::CP_PHASE_NAMES
        .iter()
        .copied()
        .zip(r.phase_ns())
        .collect();
    assert_eq!(
        pairs,
        [
            ("freeze", r.freeze_ns),
            ("clean", r.clean_ns),
            ("apply", r.apply_ns),
            ("metafile", r.metafile_ns),
            ("barrier", r.barrier_ns),
            ("commit", r.commit_ns),
        ]
    );
}
