//! Extension experiment — online parallel scrub over the Waffinity
//! pool. The scrubber walks (RAID group × AA) units as Range-affinity
//! messages, cross-checking media stamps, parity, the active bitmap,
//! and the AA free counters against the committed buffer trees, and
//! repairs what redundancy can vouch for (see `wafl::scrub`). This
//! bench records:
//!
//! - a 1→16 scrub-worker sweep of scan throughput on a pooled
//!   file system (wall-clock, machine-dependent: no perf gate);
//! - a detection record: one seeded instance of every corruption class
//!   must be detected, repaired, and re-verified, and a re-scan must
//!   come back clean (gated at 100 % detection, zero unrepaired);
//! - a clean-image record: zero findings, zero false positives (gated);
//! - a foreground-interference record: client write + CP throughput
//!   with a scrub pass looping alongside vs undisturbed (gated
//!   generously on non-quick runs; wall-clock otherwise);
//! - a resume record: a budgeted slice plus a resumed slice must cover
//!   the pass exactly, without re-reporting repaired findings (gated).
//!
//! Outputs `BENCH_scrub.json` (schema `wafl.scrub.v1`) at the repo root
//! (override with `WAFL_BENCH_ROOT`).
//! `--smoke` shrinks the sweep; `--validate <path>` re-checks a written
//! record's schema and gates (exit 1 on violation).

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use serde::{Deserialize, Serialize};
use wafl::scrub::{FindingState, ScrubCheckpointStore, ScrubConfig};
use wafl::{ExecMode, FileId, Filesystem, FsConfig, VolumeId};
use wafl_bench::{save_record, validate_arg};
use wafl_blockdev::{stamp, Dbn, DriveKind, GeometryBuilder, Vbn};
use wafl_simsrv::FigureTable;

/// Schema tag for `BENCH_scrub.json`.
const SCHEMA: &str = "wafl.scrub.v1";

/// Scrub worker counts swept (the ISSUE's 1→16 range).
const WORKERS: [usize; 5] = [1, 2, 4, 8, 16];
const WORKERS_QUICK: [usize; 2] = [1, 4];

/// Foreground throughput retained while a scrub loops alongside must
/// stay above this on full runs. Deliberately generous: the gate is
/// "the scrubber does not starve the foreground", not a speed claim.
const INTERFERENCE_FLOOR: f64 = 0.20;

/// One point of the worker sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ScanPoint {
    /// Scrub workers (wave width over the Waffinity pool).
    workers: u64,
    /// Wall-clock time of the full pass, milliseconds.
    scan_ms: f64,
    /// Scrub units in the pass.
    units: u64,
    /// Blocks examined (data + parity stripes + bitmap words).
    blocks: u64,
    /// Units scanned per second.
    units_per_sec: f64,
}

/// Seeded-corruption detection record.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct DetectionRecord {
    /// Corruption instances seeded (one per class).
    seeded: u64,
    /// Seeded instances the scrub reported.
    detected: u64,
    /// `detected / seeded`.
    detection_rate: f64,
    /// Findings (seeds + physically entailed collaterals) repaired and
    /// re-verified.
    reverified: u64,
    /// Findings the repair engine gave up on (must be 0).
    unrepairable: u64,
    /// Did the post-repair re-scan come back clean?
    rescan_clean: bool,
}

/// Clean-image record.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CleanRecord {
    /// Findings on an uncorrupted image (must be 0).
    findings: u64,
    /// Quarantine-dismissed candidates (informational).
    false_alarms: u64,
    /// Blocks examined.
    blocks: u64,
}

/// Foreground-interference record.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct InterferenceRecord {
    /// Foreground write+CP ops/s with no scrub running.
    baseline_ops_per_sec: f64,
    /// The same workload with a scrub pass looping alongside.
    scrubbed_ops_per_sec: f64,
    /// `scrubbed / baseline`.
    retained: f64,
    /// Scrub passes completed during the workload window.
    scrub_passes: u64,
    /// Pressure-gate pause episodes across those passes.
    scrub_pauses: u64,
}

/// Checkpoint/resume record.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ResumeRecord {
    /// Unit budget of the first slice.
    budget_units: u64,
    /// Units scanned by the first slice.
    first_scanned: u64,
    /// Units scanned by the resumed slice.
    second_scanned: u64,
    /// Units in the whole pass.
    total_units: u64,
    /// Did the second slice resume from the committed cursor?
    resumed_ok: bool,
    /// Findings re-reported after already being repaired (must be 0).
    rereported: u64,
}

/// The persisted record.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ScrubDoc {
    /// Schema tag (`wafl.scrub.v1`).
    schema: String,
    /// Producing binary.
    bench: String,
    /// True under `--smoke` / `WAFL_BENCH_QUICK` (smaller sweep; the
    /// wall-clock-sensitive gate is skipped).
    quick: bool,
    /// Worker counts swept.
    workers: Vec<u64>,
    /// One point per worker count.
    scan: Vec<ScanPoint>,
    /// Seeded-corruption detection (gated).
    detection: DetectionRecord,
    /// Clean-image false-positive check (gated).
    clean: CleanRecord,
    /// Foreground interference (gated on full runs).
    interference: InterferenceRecord,
    /// Checkpoint/resume behavior (gated).
    resume: ResumeRecord,
}

/// Two RAID groups of (3 data + 1 parity) × `blocks` blocks, 64-stripe
/// AAs, running the Waffinity pool when `pool` is set.
fn mk_fs(pool: bool, blocks: u64) -> Filesystem {
    let cfg = FsConfig {
        vvbn_per_volume: 1 << 16,
        ..FsConfig::default()
    };
    let fs = Filesystem::new(
        cfg,
        GeometryBuilder::new()
            .aa_stripes(64)
            .raid_group(3, 1, blocks)
            .raid_group(3, 1, blocks)
            .build(),
        DriveKind::Ssd,
        if pool {
            ExecMode::Pool(4)
        } else {
            ExecMode::Inline
        },
    );
    fs.create_volume(VolumeId(0));
    fs
}

/// Write `files` × `fbns` blocks and commit a CP.
fn fill(fs: &Filesystem, files: u64, fbns: u64) {
    for f in 0..files {
        fs.create_file(VolumeId(0), FileId(f));
        for fbn in 0..fbns {
            fs.write(VolumeId(0), FileId(f), fbn, stamp(f, fbn, 1));
        }
    }
    fs.run_cp();
}

/// `(vbn, expected stamp)` for every committed file block.
fn file_refs(fs: &Filesystem) -> Vec<(u64, u128)> {
    let img = fs.committed_image().expect("CP committed");
    let mut refs = Vec::new();
    for vi in &img.volumes {
        for blocks in vi.files.values() {
            for (_fbn, ptr) in blocks.iter() {
                refs.push((ptr.pvbn.0, ptr.stamp));
            }
        }
    }
    refs.sort_unstable();
    refs
}

/// Seed one instance of every corruption class; returns the keys the
/// scrub must report.
fn seed_all_classes(fs: &Filesystem) -> Vec<String> {
    let geo = fs.io().geometry();
    let aggmap = fs.allocator().infra().aggmap();
    let refs = file_refs(fs);
    let referenced: BTreeSet<u64> = refs.iter().map(|&(v, _)| v).collect();
    let mut required = Vec::new();

    // Media bit-flip on a referenced block.
    let (flip_vbn, flip_stamp) = refs[refs.len() / 3];
    let loc = geo.locate(Vbn(flip_vbn)).unwrap();
    fs.io().raid_group(loc.rg).data_drives()[loc.drive_in_rg as usize]
        .repair_write(loc.dbn, &[flip_stamp ^ 0xF00D]);
    required.push(format!("stamp:vbn={flip_vbn}"));

    // Bad parity on a fully referenced stripe (not the flipped one).
    'parity: for rg in geo.rg_ids() {
        let group = fs.io().raid_group(rg);
        let drives = group.data_drives().len() as u32;
        'dbn: for dbn in 0..group.geometry().blocks_per_drive {
            if (rg, Dbn(dbn)) == (loc.rg, loc.dbn) {
                continue;
            }
            for d in 0..drives {
                if !referenced.contains(&geo.vbn_at(rg, d, Dbn(dbn)).0) {
                    continue 'dbn;
                }
            }
            let cur = group.parity_drives()[0].peek(Dbn(dbn));
            group.parity_drives()[0].repair_write(Dbn(dbn), &[cur ^ 0xBAD]);
            required.push(format!("parity:rg={}:dbn={dbn}", rg.0));
            break 'parity;
        }
    }

    // Stale active bit on a free, unreferenced block.
    let stale_vbn = (0..geo.total_vbns())
        .rev()
        .find(|v| !referenced.contains(v) && !aggmap.is_used(Vbn(*v)))
        .expect("free block exists");
    aggmap.active_map().reserve(stale_vbn).expect("was free");
    required.push(format!("stalebit:vbn={stale_vbn}"));

    // Missing active bit on a referenced block (different AA than the
    // stale seed so their collateral skews stay distinct).
    let stale_aa = geo.aa_of(Vbn(stale_vbn));
    let (miss_vbn, _) = refs
        .iter()
        .find(|&&(v, _)| geo.aa_of(Vbn(v)) != stale_aa)
        .copied()
        .unwrap_or(refs[0]);
    aggmap.active_map().free(miss_vbn).expect("was used");
    required.push(format!("missbit:vbn={miss_vbn}"));

    // Refcount skew on an AA with no other seed in it.
    let dirty: BTreeSet<_> = [geo.aa_of(Vbn(flip_vbn)), stale_aa, geo.aa_of(Vbn(miss_vbn))]
        .into_iter()
        .collect();
    let skew_aa = geo
        .rg_ids()
        .flat_map(|rg| (0..geo.aa_count(rg)).map(move |i| wafl_blockdev::AaId { rg, index: i }))
        .find(|aa| !dirty.contains(aa))
        .expect("a clean AA exists");
    aggmap.aa_stats().on_release(skew_aa, 2);
    required.push(format!("aaskew:rg={}:aa={}", skew_aa.rg.0, skew_aa.index));

    required
}

/// Foreground workload: `rounds` rounds of re-writing `files` × `fbns`
/// blocks plus a CP. Returns client write ops/s.
fn foreground(fs: &Filesystem, rounds: u64, files: u64, fbns: u64) -> f64 {
    let start = Instant::now();
    let mut ops = 0u64;
    for round in 0..rounds {
        for f in 0..files {
            for fbn in 0..fbns {
                fs.write(VolumeId(0), FileId(f), fbn, stamp(f, fbn, round + 2));
                ops += 1;
            }
        }
        fs.run_cp();
    }
    ops as f64 / start.elapsed().as_secs_f64()
}

fn measure(quick: bool) -> ScrubDoc {
    let workers: Vec<usize> = if quick {
        WORKERS_QUICK.to_vec()
    } else {
        WORKERS.to_vec()
    };
    let (blocks, files, fbns) = if quick { (512, 4, 64) } else { (2048, 8, 256) };

    // Worker sweep: full pass over a pooled aggregate.
    let mut scan = Vec::new();
    for &w in &workers {
        let fs = mk_fs(true, blocks);
        fill(&fs, files, fbns);
        let store = ScrubCheckpointStore::new();
        let cfg = ScrubConfig {
            workers: w,
            ..ScrubConfig::default()
        };
        let start = Instant::now();
        let report = fs.scrub(&cfg, &store);
        let secs = start.elapsed().as_secs_f64();
        assert!(report.completed && report.is_clean());
        scan.push(ScanPoint {
            workers: w as u64,
            scan_ms: secs * 1e3,
            units: report.units_total,
            blocks: report.blocks_checked,
            units_per_sec: report.units_total as f64 / secs,
        });
    }

    // Detection: one seed of every class, then repair, then re-scan.
    let fs = mk_fs(false, 1024);
    fill(&fs, 4, 96);
    let required = seed_all_classes(&fs);
    let store = ScrubCheckpointStore::new();
    let report = fs.scrub(&ScrubConfig::default(), &store);
    let keys: BTreeSet<String> = report.findings.iter().map(|f| f.error.key()).collect();
    let detected = required.iter().filter(|k| keys.contains(*k)).count() as u64;
    let reverified = report
        .findings
        .iter()
        .filter(|f| matches!(f.state, FindingState::Repaired | FindingState::Reverified))
        .count() as u64;
    let unrepairable = report.findings.len() as u64 - reverified;
    let rescan = fs.scrub(&ScrubConfig::default(), &store);
    let detection = DetectionRecord {
        seeded: required.len() as u64,
        detected,
        detection_rate: detected as f64 / required.len() as f64,
        reverified,
        unrepairable,
        rescan_clean: rescan.is_clean(),
    };

    // Clean image: zero findings, whatever the fill.
    let fs = mk_fs(true, 1024);
    fill(&fs, 6, 128);
    let store = ScrubCheckpointStore::new();
    let report = fs.scrub(&ScrubConfig::default(), &store);
    let clean = CleanRecord {
        findings: report.findings.len() as u64,
        false_alarms: report.false_alarms,
        blocks: report.blocks_checked,
    };

    // Interference: the same foreground with and without a scrub loop.
    let rounds = if quick { 3 } else { 10 };
    let fs = mk_fs(true, blocks);
    fill(&fs, files, fbns);
    let baseline = foreground(&fs, rounds, files, fbns);
    let fs = mk_fs(true, blocks);
    fill(&fs, files, fbns);
    let stop = AtomicBool::new(false);
    let (scrubbed, passes, pauses) = std::thread::scope(|s| {
        let handle = s.spawn(|| {
            let store = ScrubCheckpointStore::new();
            let cfg = ScrubConfig::default();
            let (mut passes, mut pauses) = (0u64, 0u64);
            // ordering: shutdown flag; no data is published through it.
            while !stop.load(Ordering::Relaxed) {
                let r = fs.scrub(&cfg, &store);
                passes += u64::from(r.completed);
                pauses += r.pauses;
            }
            (passes, pauses)
        });
        let ops = foreground(&fs, rounds, files, fbns);
        // ordering: shutdown flag; no data is published through it.
        stop.store(true, Ordering::Relaxed);
        let (passes, pauses) = handle.join().expect("scrub loop");
        (ops, passes, pauses)
    });
    fs.verify_integrity().expect("scrubbed run verifies");
    let interference = InterferenceRecord {
        baseline_ops_per_sec: baseline,
        scrubbed_ops_per_sec: scrubbed,
        retained: scrubbed / baseline,
        scrub_passes: passes,
        scrub_pauses: pauses,
    };

    // Resume: budgeted slice, seeded repair, resumed remainder.
    let fs = mk_fs(false, 1024);
    fill(&fs, 4, 96);
    let refs = file_refs(&fs);
    let (early_vbn, early_stamp) = refs[0];
    let loc = fs.io().geometry().locate(Vbn(early_vbn)).unwrap();
    fs.io().raid_group(loc.rg).data_drives()[loc.drive_in_rg as usize]
        .repair_write(loc.dbn, &[early_stamp ^ 0xA5]);
    let store = ScrubCheckpointStore::new();
    let total: u64 = {
        let geo = fs.io().geometry();
        geo.rg_ids().map(|rg| geo.aa_count(rg) as u64).sum()
    };
    let budget = (total / 2).max(1);
    let first = fs.scrub(
        &ScrubConfig {
            unit_budget: Some(budget as usize),
            ..ScrubConfig::default()
        },
        &store,
    );
    let second = fs.scrub(&ScrubConfig::default(), &store);
    let early_key = format!("stamp:vbn={early_vbn}");
    let rereported = second
        .findings
        .iter()
        .filter(|f| f.error.key() == early_key)
        .count() as u64;
    let resume = ResumeRecord {
        budget_units: budget,
        first_scanned: first.units_scanned,
        second_scanned: second.units_scanned,
        total_units: total,
        resumed_ok: second.resumed_from == Some(first.units_scanned) && second.completed,
        rereported,
    };

    ScrubDoc {
        schema: SCHEMA.to_string(),
        bench: "exp_scrub".to_string(),
        quick,
        workers: workers.iter().map(|&w| w as u64).collect(),
        scan,
        detection,
        clean,
        interference,
        resume,
    }
}

/// Schema/gate check of a record. Returns the first violation.
fn validate(doc: &ScrubDoc) -> Result<(), String> {
    if doc.schema != SCHEMA {
        return Err(format!("schema: expected {SCHEMA:?}, got {:?}", doc.schema));
    }
    if doc.workers.is_empty() || !doc.workers.windows(2).all(|w| w[0] < w[1]) {
        return Err(format!(
            "workers not strictly increasing: {:?}",
            doc.workers
        ));
    }
    if !doc.quick && (doc.workers.first() != Some(&1) || doc.workers.last() != Some(&16)) {
        return Err(format!(
            "full run must sweep 1→16 workers: {:?}",
            doc.workers
        ));
    }
    if doc.scan.len() != doc.workers.len() {
        return Err(format!(
            "scan: {} points, {} workers",
            doc.scan.len(),
            doc.workers.len()
        ));
    }
    for (i, p) in doc.scan.iter().enumerate() {
        if p.workers != doc.workers[i] {
            return Err(format!(
                "scan[{i}]: workers {} ≠ {}",
                p.workers, doc.workers[i]
            ));
        }
        if p.units == 0 || p.blocks == 0 || !p.units_per_sec.is_finite() || p.units_per_sec <= 0.0 {
            return Err(format!("scan[{i}]: empty or non-positive point"));
        }
    }
    let d = &doc.detection;
    if d.seeded < 5 {
        return Err(format!("detection.seeded = {} (< 5 classes)", d.seeded));
    }
    if d.detected != d.seeded || d.detection_rate != 1.0 {
        return Err(format!(
            "detection rate {}/{} — the scrub must detect every seeded class",
            d.detected, d.seeded
        ));
    }
    if d.unrepairable != 0 {
        return Err(format!("{} findings unrepairable", d.unrepairable));
    }
    if !d.rescan_clean {
        return Err("post-repair re-scan not clean".into());
    }
    if doc.clean.findings != 0 {
        return Err(format!(
            "{} findings on a clean image (false positives)",
            doc.clean.findings
        ));
    }
    let r = &doc.resume;
    if !r.resumed_ok {
        return Err("second slice did not resume from the committed cursor".into());
    }
    if r.first_scanned + r.second_scanned != r.total_units {
        return Err(format!(
            "slices cover {} + {} ≠ {} units",
            r.first_scanned, r.second_scanned, r.total_units
        ));
    }
    if r.rereported != 0 {
        return Err(format!(
            "{} already-repaired findings re-reported after resume",
            r.rereported
        ));
    }
    let i = &doc.interference;
    if !i.retained.is_finite() || i.retained <= 0.0 {
        return Err(format!("interference.retained = {}", i.retained));
    }
    if !doc.quick && i.retained < INTERFERENCE_FLOOR {
        return Err(format!(
            "foreground retained {:.2} < {INTERFERENCE_FLOOR} while scrubbing",
            i.retained
        ));
    }
    Ok(())
}

/// One-line digest of a valid record for `--validate`.
fn summary(doc: &ScrubDoc) -> String {
    format!(
        "{} worker points, detection {}/{}, foreground retained {:.2}",
        doc.workers.len(),
        doc.detection.detected,
        doc.detection.seeded,
        doc.interference.retained
    )
}

fn main() {
    validate_arg("exp_scrub", SCHEMA, validate, summary);
    let quick =
        std::env::args().any(|a| a == "--smoke") || std::env::var_os("WAFL_BENCH_QUICK").is_some();

    let doc = measure(quick);

    let mut t = FigureTable::new(
        "exp_scrub",
        "online scrub: worker scaling, detection power, foreground interference",
    );
    for p in &doc.scan {
        t.row_measured(
            format!("scrub pass @{} workers", p.workers),
            p.scan_ms,
            "ms",
        );
    }
    t.row(
        "seeded corruption classes detected",
        doc.detection.seeded as f64,
        doc.detection.detected as f64,
        "classes",
    );
    t.row_measured(
        "findings repaired and re-verified",
        doc.detection.reverified as f64,
        "findings",
    );
    t.row(
        "findings on a clean image",
        0.0,
        doc.clean.findings as f64,
        "findings",
    );
    t.row_measured(
        "foreground throughput retained under scrub",
        doc.interference.retained * 100.0,
        "%",
    );
    t.row_measured(
        "scrub passes completed alongside foreground",
        doc.interference.scrub_passes as f64,
        "passes",
    );
    t.row(
        "resume covers the pass exactly",
        doc.resume.total_units as f64,
        (doc.resume.first_scanned + doc.resume.second_scanned) as f64,
        "units",
    );

    save_record("exp_scrub", "BENCH_scrub.json", &doc, validate);
    println!("{}", t.render());
    println!(
        "detection {}/{}, clean-image findings {}, foreground retained {:.2}",
        doc.detection.detected, doc.detection.seeded, doc.clean.findings, doc.interference.retained
    );
}
