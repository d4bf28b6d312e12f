//! Canned experiment sweeps: one function per paper figure/table.
//!
//! Each function returns plain data; the `wafl-bench` crate's `fig*`
//! binaries format them next to the paper's reported numbers, and
//! EXPERIMENTS.md records the comparison.

use crate::config::{CleanerSetting, SimConfig};
use crate::engine::{SimResult, Simulator};
use crate::metrics::{knee_point, LoadPoint};
use crate::workload::WorkloadKind;
use alligator::InfraMode;
use serde::Serialize;
use wafl::scrub::ScrubError;
use wafl::{CrashPoint, ExecMode, FileId, Filesystem, FsConfig, VolumeId};
use wafl_blockdev::{stamp, DriveKind, FaultSnapshot, FaultSpec, GeometryBuilder, RetryPolicy};

/// One permutation row of Figures 4 / 7.
#[derive(Debug, Clone, Serialize)]
pub struct PermutationRow {
    /// Parallel cleaner threads enabled?
    pub parallel_cleaners: bool,
    /// Parallel infrastructure enabled?
    pub parallel_infra: bool,
    /// The simulation outcome.
    pub result: SimResult,
}

impl PermutationRow {
    /// Short label matching the paper's x-axis.
    pub fn label(&self) -> &'static str {
        match (self.parallel_cleaners, self.parallel_infra) {
            (false, false) => "serial/serial",
            (false, true) => "serial-cleaners/parallel-infra",
            (true, false) => "parallel-cleaners/serial-infra",
            (true, true) => "parallel/parallel",
        }
    }
}

/// Figures 4 and 7: the four permutations of {parallel cleaners,
/// parallel infrastructure}. `parallel` is the cleaner setting used when
/// cleaners are parallel — the shipped system runs the dynamic tuner
/// (§V-B), so [`CleanerSetting::dynamic_default`] is the faithful choice.
pub fn permutation_sweep(base: &SimConfig, parallel: CleanerSetting) -> Vec<PermutationRow> {
    let mut rows = Vec::with_capacity(4);
    for (pc, pi) in [(false, false), (false, true), (true, false), (true, true)] {
        let mut cfg = base.clone();
        cfg.cleaners = if pc {
            parallel
        } else {
            CleanerSetting::Fixed(1)
        };
        cfg.infra_mode = if pi {
            InfraMode::Parallel
        } else {
            InfraMode::Serial
        };
        rows.push(PermutationRow {
            parallel_cleaners: pc,
            parallel_infra: pi,
            result: Simulator::new(cfg).run(),
        });
    }
    rows
}

/// Figure 5: throughput and core usage as the number of cleaner threads
/// grows (parallel infrastructure).
pub fn cleaner_thread_sweep(base: &SimConfig, counts: &[usize]) -> Vec<(usize, SimResult)> {
    counts
        .iter()
        .map(|&n| {
            let mut cfg = base.clone();
            cfg.cleaners = CleanerSetting::Fixed(n);
            cfg.infra_mode = InfraMode::Parallel;
            (n, Simulator::new(cfg).run())
        })
        .collect()
}

/// Figure 6: infrastructure serial vs parallel, with parallel cleaners.
pub fn infra_comparison(base: &SimConfig, cleaners: usize) -> (SimResult, SimResult) {
    let mut serial = base.clone();
    serial.cleaners = CleanerSetting::Fixed(cleaners);
    serial.infra_mode = InfraMode::Serial;
    let mut par = base.clone();
    par.cleaners = CleanerSetting::Fixed(cleaners);
    par.infra_mode = InfraMode::Parallel;
    (Simulator::new(serial).run(), Simulator::new(par).run())
}

/// One cleaner-setting's load sweep (Figs 8–9): vary client count, record
/// throughput and latency at each level.
pub fn load_sweep(base: &SimConfig, client_levels: &[u32]) -> Vec<LoadPoint> {
    client_levels
        .iter()
        .map(|&clients| {
            let mut cfg = base.clone();
            cfg.clients = clients;
            let r = Simulator::new(cfg).run();
            LoadPoint {
                load: clients as u64,
                throughput_ops: r.throughput_ops,
                latency_ns: r.latency.mean_ns,
            }
        })
        .collect()
}

/// Figure 8 row: peak throughput across the sweep + latency at the knee.
#[derive(Debug, Clone, Serialize)]
pub struct KneeRow {
    /// Setting label ("1", "2", …, "dynamic").
    pub setting: String,
    /// Peak throughput over the load sweep (ops/s).
    pub peak_throughput: f64,
    /// Latency at the knee of the curve (ns).
    pub knee_latency_ns: u64,
    /// Throughput at the knee (ops/s).
    pub knee_throughput: f64,
    /// The full curve (for Figure 9 plotting).
    pub curve: Vec<LoadPoint>,
}

/// Figures 8/9: sweep load for each cleaner setting (static counts and
/// dynamic) and extract peak + knee.
pub fn knee_sweep(
    base: &SimConfig,
    settings: &[(String, CleanerSetting)],
    client_levels: &[u32],
) -> Vec<KneeRow> {
    settings
        .iter()
        .map(|(label, setting)| {
            let mut cfg = base.clone();
            cfg.cleaners = *setting;
            let curve = load_sweep(&cfg, client_levels);
            let peak = curve
                .iter()
                .map(|p| p.throughput_ops)
                .fold(0.0f64, f64::max);
            let knee = knee_point(&curve).expect("non-empty sweep");
            KneeRow {
                setting: label.clone(),
                peak_throughput: peak,
                knee_latency_ns: knee.latency_ns,
                knee_throughput: knee.throughput_ops,
                curve,
            }
        })
        .collect()
}

/// §V-C: the NFS-mix batching comparison. Returns `(batched, unbatched)`.
pub fn batching_comparison(base: &SimConfig) -> (SimResult, SimResult) {
    let mut on = base.clone();
    on.workload = WorkloadKind::nfs_mix();
    on.batching = true;
    let mut off = on.clone();
    off.batching = false;
    (Simulator::new(on).run(), Simulator::new(off).run())
}

/// Ablation: the bucket chunk-size sweep (§IV-C's amortization claim at
/// system level).
pub fn chunk_sweep(base: &SimConfig, chunks: &[u64]) -> Vec<(u64, SimResult)> {
    chunks
        .iter()
        .map(|&chunk| {
            let mut cfg = base.clone();
            cfg.chunk = chunk;
            (chunk, Simulator::new(cfg).run())
        })
        .collect()
}

// ----------------------------------------------------------------------
// Recovery sweep (fault injection + crash/NVLog-replay, real-thread stack)
// ----------------------------------------------------------------------

/// One cell of the recovery sweep: a fault or crash scenario executed
/// against the *real-thread* `wafl` stack (not the discrete-event model),
/// turning §II-C's crash-consistency claim — "the contents of NVRAM from
/// before the CP are replayed" — into a measured pass/fail row.
#[derive(Debug, Clone, Serialize)]
pub struct RecoveryRow {
    /// Scenario label ("crash@AfterClean", "drive-failure", …).
    pub scenario: String,
    /// NVLog ops replayed during recovery (0 for non-crash cells).
    pub replayed_ops: u64,
    /// Blocks whose persisted stamp was checked after recovery.
    pub blocks_checked: u64,
    /// Fault/degraded-mode counters at the end of the run.
    pub faults: FaultSnapshot,
    /// Blocks reconstructed onto replacement drives by the rebuild pass.
    pub blocks_rebuilt: u64,
    /// Findings the post-recovery scrub reported beyond the cell's own
    /// planned drive failure (0 when recovered).
    pub scrub_findings: u64,
    /// All checked blocks held the expected stamps, and the scrub pass —
    /// the full consistency check plus repair — found nothing beyond the
    /// planned drive failure.
    pub recovered: bool,
}

const SWEEP_FILES: u64 = 2;

/// A sweep cell's file system. Every CP stripe goes through the
/// `blockdev::aio` submission/completion queues, so a crash cell's
/// crash point drops the in-flight queues.
fn sweep_fs(kind: DriveKind, spec: FaultSpec) -> Filesystem {
    let cfg = FsConfig {
        vvbn_per_volume: 1 << 14,
        ..FsConfig::default()
    };
    let geometry = GeometryBuilder::new()
        .aa_stripes(64)
        .raid_group(3, 1, 2048)
        .build();
    let fs = if spec == FaultSpec::default() {
        Filesystem::new(cfg, geometry, kind, ExecMode::Inline)
    } else {
        Filesystem::with_faults(
            cfg,
            geometry,
            kind,
            spec,
            RetryPolicy::default(),
            ExecMode::Inline,
        )
    };
    fs.create_volume(VolumeId(0));
    for f in 0..SWEEP_FILES {
        fs.create_file(VolumeId(0), FileId(f));
    }
    fs
}

fn write_generation(fs: &Filesystem, blocks_per_file: u64, generation: u64) {
    for f in 0..SWEEP_FILES {
        for fbn in 0..blocks_per_file {
            fs.write(VolumeId(0), FileId(f), fbn, stamp(f, fbn, generation));
        }
    }
}

/// Check every block's committed stamp; returns (blocks checked, all ok).
fn check_generation(fs: &Filesystem, blocks_per_file: u64, generation: u64) -> (u64, bool) {
    let mut checked = 0;
    let mut ok = true;
    for f in 0..SWEEP_FILES {
        for fbn in 0..blocks_per_file {
            checked += 1;
            ok &= fs.read_persisted(VolumeId(0), FileId(f), fbn) == Some(stamp(f, fbn, generation));
        }
    }
    (checked, ok)
}

/// Post-recovery verdict: one scrub pass — [`Filesystem::check`] plus
/// repair of what it confirms. Returns `(findings, clean)`.
///
/// A cell whose fault plan kills a drive *persistently* can never stay
/// fully online — the I/O path re-offlines the drive as soon as the
/// rebuild returns it to service — so the scrub is expected to re-flag
/// (and re-repair) exactly that planned dead drive. Such findings do
/// not count against the cell; anything else does.
fn post_recovery_scrub(fs: &Filesystem) -> (u64, bool) {
    let report = fs.scrub();
    let planned = fs.io().fault_plan().and_then(|p| p.spec().fail_drive);
    let planned_dead = |f: &wafl::scrub::Finding| matches!(&f.error, ScrubError::DeadDrive { drive } if Some(*drive) == planned);
    let unexpected = report.findings.iter().filter(|f| !planned_dead(f)).count() as u64;
    let repaired = report.findings.iter().all(|f| {
        matches!(
            f.state,
            wafl::FindingState::Repaired | wafl::FindingState::Reverified
        )
    });
    (unexpected, unexpected == 0 && repaired)
}

/// The recovery sweep behind `exp_recovery` and EXPERIMENTS.md: one cell
/// per mid-CP [`CrashPoint`] (crash, reboot, NVLog replay), plus a
/// whole-drive-failure cell served in degraded mode and rebuilt, a
/// transient-error cell absorbed by bounded retries, and a combined
/// crash-while-degraded cell. Every cell ends with one scrub pass: the
/// full consistency check, including raw-media parity, plus repair.
pub fn recovery_sweep(seed: u64, blocks_per_file: u64) -> Vec<RecoveryRow> {
    let mut rows = Vec::new();

    // Cells 1–4: crash at each CP phase, recover from the committed image
    // plus an NVLog replay of acknowledged-but-uncommitted overwrites.
    // Each crash point drops in-flight submissions outright — replay
    // must still reconstruct every acknowledged op.
    for at in CrashPoint::ALL {
        let fs = sweep_fs(DriveKind::Ssd, FaultSpec::default());
        write_generation(&fs, blocks_per_file, 1);
        fs.run_cp();
        write_generation(&fs, blocks_per_file, 2);
        let replayed_ops = fs.nvlog().replay_ops().len() as u64;
        fs.run_cp_crash_at(at);
        let rec = fs.crash_and_recover(ExecMode::Inline);
        rec.run_cp();
        let (blocks_checked, ok) = check_generation(&rec, blocks_per_file, 2);
        let (scrub_findings, scrub_clean) = post_recovery_scrub(&rec);
        rows.push(RecoveryRow {
            scenario: format!("crash@{at:?}"),
            replayed_ops,
            blocks_checked,
            faults: rec.io().fault_snapshot(),
            blocks_rebuilt: 0,
            scrub_findings,
            recovered: ok && scrub_clean,
        });
    }

    // Cell 5: a whole drive dies mid-workload; the CP completes in
    // degraded mode (parity folds the intended stamps), reads are served
    // by XOR reconstruction, then the drive is rebuilt from parity.
    {
        let fail_after = 8 + seed % 8;
        let fs = sweep_fs(DriveKind::Ssd, FaultSpec::drive_failure(1, fail_after));
        write_generation(&fs, blocks_per_file, 1);
        fs.run_cp();
        let (blocks_checked, ok) = check_generation(&fs, blocks_per_file, 1);
        let faults = fs.io().fault_snapshot();
        let blocks_rebuilt = fs.io().rebuild_offline();
        let (scrub_findings, scrub_clean) = post_recovery_scrub(&fs);
        rows.push(RecoveryRow {
            scenario: "drive-failure".into(),
            replayed_ops: 0,
            blocks_checked,
            faults,
            blocks_rebuilt,
            scrub_findings,
            recovered: ok && scrub_clean,
        });
    }

    // Cell 6: transient media errors at a high rate, fully absorbed by
    // the bounded-backoff retry policy — no drive goes offline.
    {
        let spec = FaultSpec {
            seed,
            read_error_ppm: 20_000,
            write_error_ppm: 20_000,
            latency_spike_ppm: 5_000,
            ..FaultSpec::default()
        };
        let fs = sweep_fs(DriveKind::Ssd, spec);
        write_generation(&fs, blocks_per_file, 1);
        fs.run_cp();
        let (blocks_checked, ok) = check_generation(&fs, blocks_per_file, 1);
        let (scrub_findings, scrub_clean) = post_recovery_scrub(&fs);
        rows.push(RecoveryRow {
            scenario: "transient-errors".into(),
            replayed_ops: 0,
            blocks_checked,
            faults: fs.io().fault_snapshot(),
            blocks_rebuilt: 0,
            scrub_findings,
            recovered: ok && scrub_clean,
        });
    }

    // Cell 7: the compound case — crash mid-CP while a drive is already
    // offline; replay re-drives the lost CP in degraded mode, then the
    // drive is rebuilt.
    {
        let fs = sweep_fs(DriveKind::Ssd, FaultSpec::drive_failure(2, 4));
        write_generation(&fs, blocks_per_file, 1);
        fs.run_cp();
        write_generation(&fs, blocks_per_file, 2);
        let replayed_ops = fs.nvlog().replay_ops().len() as u64;
        fs.run_cp_crash_at(CrashPoint::AfterApply);
        let rec = fs.crash_and_recover(ExecMode::Inline);
        rec.run_cp();
        let (blocks_checked, ok) = check_generation(&rec, blocks_per_file, 2);
        let faults = rec.io().fault_snapshot();
        let blocks_rebuilt = rec.io().rebuild_offline();
        let (scrub_findings, scrub_clean) = post_recovery_scrub(&rec);
        rows.push(RecoveryRow {
            scenario: "crash-while-degraded".into(),
            replayed_ops,
            blocks_checked,
            faults,
            blocks_rebuilt,
            scrub_findings,
            recovered: ok && scrub_clean,
        });
    }

    // Cell 8: crash-consistency torture on the real file backend. The
    // aggregate mirrors every stripe to O_DIRECT-opened files, the
    // mid-CP crash both drops the async queues and tears the mirror
    // (a stripe racing the crash persists only a prefix of its
    // segments), and recovery *remounts from the files alone* — fresh
    // drives rebuilt from on-disk bytes, then NVLog replay. The scrub
    // afterwards must find nothing.
    {
        let dir = std::env::temp_dir().join(format!(
            "wafl-recovery-sweep-{}-{seed:x}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = sweep_fs(DriveKind::Ssd, FaultSpec::default());
        fs.attach_file_backend(&dir, wafl_blockdev::SyncPolicy::Barrier)
            .expect("file backend opens in a tmpdir");
        write_generation(&fs, blocks_per_file, 1);
        fs.run_cp();
        write_generation(&fs, blocks_per_file, 2);
        let replayed_ops = fs.nvlog().replay_ops().len() as u64;
        fs.run_cp_crash_at(CrashPoint::AfterApply);
        let rec = fs
            .remount_from_files(&dir, ExecMode::Inline)
            .expect("remount from torn files");
        rec.run_cp();
        let (blocks_checked, ok) = check_generation(&rec, blocks_per_file, 2);
        let (scrub_findings, scrub_clean) = post_recovery_scrub(&rec);
        let _ = std::fs::remove_dir_all(&dir);
        rows.push(RecoveryRow {
            scenario: "file-backend-torn-stripe".into(),
            replayed_ops,
            blocks_checked,
            faults: rec.io().fault_snapshot(),
            blocks_rebuilt: 0,
            scrub_findings,
            recovered: ok && scrub_clean,
        });
    }

    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: WorkloadKind) -> SimConfig {
        let mut c = SimConfig::paper_platform(workload);
        c.duration_ns = 200_000_000;
        c.warmup_ns = 50_000_000;
        c
    }

    #[test]
    fn permutation_sweep_produces_four_ordered_rows() {
        let rows = permutation_sweep(
            &quick(WorkloadKind::sequential_write()),
            CleanerSetting::dynamic_default(6),
        );
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].label(), "serial/serial");
        let base = rows[0].result.throughput_ops;
        let both = rows[3].result.throughput_ops;
        assert!(both > base * 1.5, "full parallelization wins big");
    }

    #[test]
    fn cleaner_sweep_is_monotonicish_then_saturates() {
        let rows = cleaner_thread_sweep(&quick(WorkloadKind::sequential_write()), &[1, 2, 4]);
        assert!(rows[1].1.throughput_ops > rows[0].1.throughput_ops);
        assert!(rows[2].1.throughput_ops >= rows[1].1.throughput_ops * 0.95);
    }

    #[test]
    fn load_sweep_latency_grows_with_load() {
        let cfg = quick(WorkloadKind::oltp());
        let curve = load_sweep(&cfg, &[2, 8, 64]);
        assert!(curve[2].latency_ns > curve[0].latency_ns);
    }

    #[test]
    fn recovery_sweep_every_cell_recovers() {
        let rows = recovery_sweep(0xFA17, 24);
        assert_eq!(rows.len(), 8);
        for row in &rows {
            assert!(row.recovered, "cell {} did not recover", row.scenario);
            assert!(row.blocks_checked > 0);
            // The post-recovery scrub found nothing beyond each cell's
            // own planned drive failure.
            assert_eq!(
                row.scrub_findings, 0,
                "{} left corruption behind",
                row.scenario
            );
        }
        // Crash cells replayed the acknowledged-but-uncommitted overwrites.
        for row in &rows[..4] {
            assert!(row.replayed_ops > 0, "{} replayed nothing", row.scenario);
        }
        let degraded = &rows[4];
        assert!(degraded.faults.reconstructed_reads > 0, "no XOR reads");
        assert!(
            degraded.faults.degraded_writes > 0,
            "CP never went degraded"
        );
        assert!(degraded.blocks_rebuilt > 0, "rebuild did no work");
        let transient = &rows[5];
        assert!(transient.faults.io_retries > 0, "no retries absorbed");
        assert_eq!(
            transient.faults.drives_offline, 0,
            "retries offlined a drive"
        );
        let compound = &rows[6];
        assert!(compound.replayed_ops > 0);
        assert!(compound.blocks_rebuilt > 0);
        // The file-backend torture cell replayed through a remount built
        // purely from the on-disk files.
        let torn = &rows[7];
        assert!(torn.replayed_ops > 0, "torn-stripe cell replayed nothing");
        assert_eq!(torn.scrub_findings, 0);
    }

    #[test]
    fn knee_sweep_produces_rows_per_setting() {
        let mut cfg = quick(WorkloadKind::oltp());
        cfg.duration_ns = 120_000_000;
        cfg.warmup_ns = 30_000_000;
        let rows = knee_sweep(
            &cfg,
            &[
                ("1".into(), CleanerSetting::Fixed(1)),
                ("2".into(), CleanerSetting::Fixed(2)),
            ],
            &[2, 8, 32],
        );
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.peak_throughput > 0.0));
        assert!(rows.iter().all(|r| r.curve.len() == 3));
    }
}
