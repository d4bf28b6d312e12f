//! Continuous-telemetry gates — the evidence behind DESIGN.md §16's
//! "always-on" claim, in three parts:
//!
//! 1. **CP critical-path profile.** A file-backed CP is run at
//!    `io_queue_depth` ∈ {0, 8, 16}; every [`CpReport`] must attribute
//!    ≥ 95% of its wall time to the six named phases, and the summed
//!    phase profile names the **binding phase** per depth — the answer
//!    to "which phase bounds CP latency as the I/O engine deepens".
//! 2. **Blackbox post-mortem.** A seeded whole-drive death fires the
//!    `drive_offline` trigger; servicing the flight recorder must yield
//!    a `wafl.blackbox.v1` bundle whose trigger board, fault snapshot,
//!    and metrics agree with the live engine (and whose per-thread
//!    event rings are populated in `--features trace` builds).
//! 3. **Sampler overhead.** The `exp_put_convoy` cleaner-pool workload
//!    runs with and without a [`SamplerThread`] ticking the global
//!    registry at the default interval; the throughput loss must stay
//!    under the 5% always-on budget. Enforced on full runs with ≥ 2
//!    cpus; reported-only (skip-with-notice) under `WAFL_BENCH_QUICK`
//!    or on one core, where wall clocks measure the scheduler.
//!
//! Outputs `BENCH_telemetry.json` at the repo root (`WAFL_BENCH_ROOT`
//! overrides the directory). `--validate <path>` re-parses a previously
//! written record and checks schema + gates (exit 1 on violation).

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wafl::cleaner::{partition_work, CleanerConfig, CleanerPool};
use wafl::cp::CP_PHASE_NAMES;
use wafl::{DirtyBuffer, ExecMode, FileId, Filesystem, FsConfig, Volume, VolumeId};
use wafl_bench::{save_record, validate_arg};
use wafl_simsrv::FigureTable;

use alligator::{AllocConfig, Allocator, Executor, PoolExecutor};
use obs::{Blackbox, BlackboxConfig, RegistrySource, Sampler, SamplerConfig, SamplerThread};
use serde::Value;
use waffinity::{Model, Topology, WaffinityPool};
use wafl_blockdev::{
    stamp, DriveKind, FaultSpec, GeometryBuilder, IoEngine, RetryPolicy, SyncPolicy,
};
use wafl_metafile::AggregateMap;

/// Schema tag for `BENCH_telemetry.json`.
const SCHEMA: &str = "wafl.telemetry_bench.v1";

/// Always-on sampler budget: throughput with the sampler thread
/// running may lose at most this to the sampler-off baseline.
const OVERHEAD_BUDGET_PCT: f64 = 5.0;

/// Phase-attribution floor: every CP must account for at least this
/// fraction of its wall time in the six named phases.
const COVERAGE_FLOOR: f64 = 0.95;

/// Cleaner threads of the overhead A/B (the `exp_put_convoy` trace
/// point).
const AB_CLEANERS: usize = 8;

/// Infrastructure (Waffinity) threads of the A/B workload.
const INFRA_THREADS: usize = 2;

/// A/B pairs on full runs (even, so arm order alternates evenly).
const AB_REPS: usize = 4;

/// One phase row of a depth point.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PhaseRow {
    /// Phase name (one of [`CP_PHASE_NAMES`]).
    name: String,
    /// Summed wall time of this phase across the point's CPs (ns).
    total_ns: u64,
    /// `total_ns / Σ total_ns` over the six phases.
    fraction: f64,
}

/// CP phase profile at one `io_queue_depth`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CpDepthPoint {
    /// `io_queue_depth` of the run (0 = synchronous engine).
    depth: u64,
    /// CPs measured at this depth.
    cps: u64,
    /// Per-phase summed wall time, pipeline order.
    phases: Vec<PhaseRow>,
    /// Worst per-CP phase coverage (Σ phase_ns / total_ns).
    min_coverage: f64,
    /// Name of the phase with the largest summed wall time.
    binding_phase: String,
}

/// Blackbox drive-death checks (facts read back from the bundle).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BlackboxCheck {
    /// `schema` field of the bundle.
    bundle_schema: String,
    /// `reason` the bundle records.
    reason: String,
    /// `fires` of the `drive_offline` board slot.
    drive_offline_fires: u64,
    /// `last_arg` of that slot — the dead drive's id.
    dead_drive: u64,
    /// `drives_offline` of the bundled fault snapshot.
    drives_offline: u64,
    /// Thread rings captured in the bundle.
    threads: u64,
    /// Events across all captured rings.
    events_total: u64,
    /// `telemetry_blackbox_dumps` in the bundled metrics snapshot.
    dumps_counted: u64,
}

/// Sampler-on vs sampler-off A/B on the cleaner-pool workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SamplerOverhead {
    /// Cleaner threads of both runs.
    cleaners: u64,
    /// Sampling interval used (ms) — the default.
    interval_ms: u64,
    /// Buffers/s without the sampler thread.
    off_buffers_per_sec: f64,
    /// Buffers/s with the sampler thread running.
    on_buffers_per_sec: f64,
    /// `100 · (off − on) / off` — positive = sampler slowdown.
    overhead_pct: f64,
    /// Ticks the sampler ring accumulated during the on-run.
    ticks: u64,
    /// Whether the < 5% budget is enforced (full run, ≥ 2 cpus) or
    /// reported-only.
    gate_enforced: bool,
}

/// The persisted record.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TelemetryDoc {
    /// Schema tag (`wafl.telemetry_bench.v1`).
    schema: String,
    /// Producing binary.
    bench: String,
    /// True when run under `WAFL_BENCH_QUICK`.
    quick: bool,
    /// True when built with `--features trace` (thread rings real).
    trace_build: bool,
    /// `available_parallelism()` of the producing machine.
    cpus: u64,
    /// CP phase profile per swept `io_queue_depth`.
    cp_depths: Vec<CpDepthPoint>,
    /// Drive-death post-mortem checks.
    blackbox: BlackboxCheck,
    /// Sampler A/B.
    sampler: SamplerOverhead,
}

/// Depths swept and CPs per depth.
fn cp_shape(quick: bool) -> (Vec<usize>, u64) {
    if quick {
        (vec![0, 8], 2)
    } else {
        (vec![0, 8, 16], 3)
    }
}

/// A file-backed aggregate at `io_queue_depth`, with a CP-sized dirty
/// working set rewritten before every measured CP. Depth 0 keeps the
/// synchronous per-write-fsync discipline; deeper runs pipeline with
/// one barrier at the superblock commit, so the `barrier` phase is the
/// one the depth sweep moves.
fn profile_depth(root: &std::path::Path, depth: usize, cps: u64) -> CpDepthPoint {
    let dir = root.join(format!("cp-depth-{depth}"));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = FsConfig {
        vvbn_per_volume: 1 << 14,
        io_queue_depth: depth,
        ..FsConfig::default()
    };
    let fs = Filesystem::new(
        cfg,
        GeometryBuilder::new()
            .aa_stripes(64)
            .raid_group(3, 1, 2048)
            .build(),
        DriveKind::Ssd,
        ExecMode::Inline,
    );
    let policy = if depth == 0 {
        SyncPolicy::PerWrite
    } else {
        SyncPolicy::Barrier
    };
    fs.attach_file_backend(&dir, policy).expect("backend opens");
    fs.create_volume(VolumeId(0));
    for f in 0..4u64 {
        fs.create_file(VolumeId(0), FileId(f));
    }

    let mut totals = [0u64; 6];
    let mut min_coverage = f64::INFINITY;
    for gen in 1..=cps {
        for f in 0..4u64 {
            for fbn in 0..48u64 {
                fs.write(VolumeId(0), FileId(f), fbn, stamp(f, fbn, gen));
            }
        }
        let report = fs.run_cp();
        assert!(report.total_ns > 0, "CP must be timed");
        for (t, ns) in totals.iter_mut().zip(report.phase_ns()) {
            *t += ns;
        }
        min_coverage = min_coverage.min(report.phase_coverage());
    }
    fs.verify_integrity().expect("profiled CPs verify");
    let _ = std::fs::remove_dir_all(&dir);

    let sum: u64 = totals.iter().sum();
    let binding = totals
        .iter()
        .enumerate()
        .max_by_key(|(_, &ns)| ns)
        .map(|(i, _)| i)
        .unwrap_or(0);
    CpDepthPoint {
        depth: depth as u64,
        cps,
        phases: CP_PHASE_NAMES
            .iter()
            .zip(totals)
            .map(|(name, total_ns)| PhaseRow {
                name: name.to_string(),
                total_ns,
                fraction: total_ns as f64 / sum.max(1) as f64,
            })
            .collect(),
        min_coverage,
        binding_phase: CP_PHASE_NAMES[binding].to_string(),
    }
}

fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
    let Value::Map(pairs) = v else {
        panic!("bundle: expected object looking up {key}")
    };
    &pairs
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("bundle: missing field {key}"))
        .1
}

fn uint(v: &Value) -> u64 {
    match v {
        Value::UInt(n) => *n as u64,
        other => panic!("bundle: expected uint, got {other:?}"),
    }
}

/// Seeded drive death → serviced flight recorder → facts read back
/// from the bundle. Mirrors the golden test in
/// `crates/wafl/tests/telemetry.rs`, but records the outcome instead
/// of asserting, so `--validate` can re-check the committed record.
fn run_blackbox(root: &std::path::Path) -> BlackboxCheck {
    let dir = root.join("blackbox");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = FsConfig {
        vvbn_per_volume: 1 << 14,
        ..FsConfig::default()
    };
    // Drive 1 dies on its 2nd whole-run op — early enough that a small
    // CP reaches it, tolerated by single-parity RAID.
    let fs = Filesystem::with_faults(
        cfg,
        GeometryBuilder::new()
            .aa_stripes(64)
            .raid_group(3, 1, 1024)
            .build(),
        DriveKind::Ssd,
        FaultSpec {
            seed: 0x7e1e,
            fail_drive: Some(1),
            fail_drive_after_ops: 1,
            ..FaultSpec::default()
        },
        RetryPolicy::default(),
        ExecMode::Inline,
    );
    let bb = Blackbox::new(RegistrySource::Global, BlackboxConfig::new(&dir));
    let io = Arc::clone(fs.io());
    bb.add_section(
        "fault_snapshot",
        Box::new(move || {
            let s = serde_json::to_string(&io.fault_snapshot()).unwrap();
            serde_json::from_str(&s).unwrap()
        }),
    );

    fs.create_volume(VolumeId(0));
    for file in 0..4u64 {
        fs.create_file(VolumeId(0), FileId(file));
        for fbn in 0..16 {
            fs.write(VolumeId(0), FileId(file), fbn, stamp(file, fbn, 1));
        }
    }
    fs.run_cp();

    let path = bb
        .service()
        .expect("bundle writes")
        .expect("drive death arms the recorder");
    let doc: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();

    let Value::Seq(board) = field(&doc, "triggers") else {
        panic!("bundle: triggers must be an array")
    };
    let slot = board
        .iter()
        .find(|t| *field(t, "name") == Value::Str("drive_offline".into()))
        .expect("drive_offline board slot");
    let Value::Seq(threads) = field(&doc, "threads") else {
        panic!("bundle: threads must be an array")
    };
    let events_total = threads
        .iter()
        .map(|t| {
            let Value::Seq(events) = field(t, "events") else {
                panic!("bundle: events must be an array")
            };
            events.len() as u64
        })
        .sum();
    let schema = match field(&doc, "schema") {
        Value::Str(s) => s.clone(),
        other => panic!("bundle: schema must be a string, got {other:?}"),
    };
    let reason = match field(&doc, "reason") {
        Value::Str(s) => s.clone(),
        other => panic!("bundle: reason must be a string, got {other:?}"),
    };
    let check = BlackboxCheck {
        bundle_schema: schema,
        reason,
        drive_offline_fires: uint(field(slot, "fires")),
        dead_drive: uint(field(slot, "last_arg")),
        drives_offline: uint(field(
            field(field(&doc, "sections"), "fault_snapshot"),
            "drives_offline",
        )),
        threads: threads.len() as u64,
        events_total,
        dumps_counted: uint(field(
            field(field(&doc, "metrics"), "counters"),
            "telemetry_blackbox_dumps",
        )),
    };
    let _ = std::fs::remove_dir_all(&dir);
    check
}

/// Dirty-buffer shape of the A/B runs — the `exp_put_convoy` shape.
fn ab_shape(quick: bool) -> (u64, u64) {
    if quick {
        (24, 128)
    } else {
        (120, 256)
    }
}

/// One cleaner-pool run at [`AB_CLEANERS`] threads (the
/// `exp_put_convoy` workload); returns buffers/s.
fn run_convoy(quick: bool) -> f64 {
    let geo = Arc::new(
        GeometryBuilder::new()
            .aa_stripes(64)
            .raid_group(8, 1, 8192)
            .build(),
    );
    let aggmap = Arc::new(AggregateMap::new(Arc::clone(&geo)));
    let io = Arc::new(IoEngine::new(geo, DriveKind::Ssd));
    let topo = Arc::new(Topology::symmetric(Model::Hierarchical, 1, 1, 4, 4));
    let infra_pool = Arc::new(WaffinityPool::new(Arc::clone(&topo), INFRA_THREADS));
    let executor = Arc::new(PoolExecutor::new(Arc::clone(&infra_pool))) as Arc<dyn Executor>;
    let alloc = Allocator::new(AllocConfig::with_chunk(64), aggmap, io, executor, topo, 0);

    let cfg = CleanerConfig {
        threads: AB_CLEANERS,
        batching: false,
        get_batch: 4,
        ..CleanerConfig::default()
    };
    let pool = CleanerPool::new(Arc::clone(&alloc), cfg);

    let vol = Volume::new(VolumeId(0), 0, 1 << 20);
    let (files, bufs_per_file) = ab_shape(quick);
    let frozen: Vec<_> = (0..files)
        .map(|f| {
            let file = FileId(1 + f);
            vol.create_file(file);
            let buffers: Vec<DirtyBuffer> = (0..bufs_per_file)
                .map(|fbn| DirtyBuffer::first_write(fbn, stamp(1 + f, fbn, 1)))
                .collect();
            (Arc::clone(&vol), file, buffers)
        })
        .collect();
    let items = partition_work(frozen, &cfg);

    let t0 = Instant::now();
    let results = pool.clean_all(items);
    alloc.drain();
    let wall_ns = t0.elapsed().as_nanos().max(1) as u64;
    let buffers: u64 = results.iter().map(|r| r.cleaned.len() as u64).sum();
    assert_eq!(buffers, files * bufs_per_file, "every buffer cleaned");
    pool.shutdown();
    buffers as f64 / (wall_ns as f64 / 1e9)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// Aggregate buffers/s over repeated convoy runs until `budget` wall
/// time has elapsed. A single run finishes in milliseconds — far
/// inside one sampling interval — so each A/B arm must span several
/// intervals for the sampler to be *running* during the measurement.
fn run_convoy_for(quick: bool, budget: Duration) -> f64 {
    let t0 = Instant::now();
    let mut buffers = 0u64;
    let (files, bufs_per_file) = ab_shape(quick);
    while t0.elapsed() < budget {
        run_convoy(quick);
        buffers += files * bufs_per_file;
    }
    buffers as f64 / t0.elapsed().as_secs_f64()
}

/// Sampler-off vs sampler-on throughput on the cleaner-pool workload,
/// the on-arm under a live [`SamplerThread`] at the default interval
/// snapshotting the global registry (populated by the CP sweep that
/// ran first). One discarded warm-up run, then [`AB_REPS`] interleaved
/// off/on pairs compared by median: interleaving cancels drift in the
/// machine's background load and the median sheds the outliers that
/// would otherwise dominate a one-shot wall clock.
fn run_overhead(quick: bool, cpus: u64) -> SamplerOverhead {
    let reps = if quick { 1 } else { AB_REPS };
    let budget = if quick {
        Duration::from_millis(250)
    } else {
        Duration::from_millis(1200)
    };
    // Ring recording off for the whole A/B (no-op without the trace
    // feature): its overhead is exp_put_convoy's gate, and every traced
    // pool spawn would otherwise retain fresh per-thread rings, slowing
    // the process monotonically and drowning the sampler's cost.
    obs::trace::set_recording(false);
    let _ = run_convoy(quick); // warm-up (page cache, allocator pools)

    let cfg = SamplerConfig::default();
    let interval_ms = cfg.interval.as_millis() as u64;
    let sampler = Arc::new(Sampler::new(RegistrySource::Global, cfg));
    let (mut offs, mut ons) = (Vec::new(), Vec::new());
    for i in 0..reps {
        // Alternate which arm goes first: every traced run leaves
        // per-thread rings registered, so the process slows slightly
        // over the A/B's lifetime — alternation cancels that drift
        // instead of billing it all to whichever arm runs second.
        let measure_on = || {
            let mut thread = SamplerThread::spawn(Arc::clone(&sampler), None);
            let r = run_convoy_for(quick, budget);
            thread.stop();
            r
        };
        if i % 2 == 0 {
            offs.push(run_convoy_for(quick, budget));
            ons.push(measure_on());
        } else {
            ons.push(measure_on());
            offs.push(run_convoy_for(quick, budget));
        }
    }
    obs::trace::set_recording(true);
    // Short workloads can finish inside one interval; fold a final tick
    // so the record always carries a non-empty ring.
    sampler.sample();
    let (off, on) = (median(offs), median(ons));

    SamplerOverhead {
        cleaners: AB_CLEANERS as u64,
        interval_ms,
        off_buffers_per_sec: off,
        on_buffers_per_sec: on,
        overhead_pct: 100.0 * (off - on) / off.max(f64::MIN_POSITIVE),
        ticks: sampler.ticks().len() as u64,
        gate_enforced: !quick && cpus >= 2,
    }
}

fn run(quick: bool, cpus: u64) -> TelemetryDoc {
    let root = std::env::temp_dir().join(format!("wafl-exp-telemetry-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&root);

    // CP sweep first: it populates the global registry the blackbox
    // bundle snapshots and the sampler thread ticks over.
    let (depths, cps) = cp_shape(quick);
    let cp_depths: Vec<CpDepthPoint> = depths
        .iter()
        .map(|&d| profile_depth(&root, d, cps))
        .collect();
    let blackbox = run_blackbox(&root);
    let sampler = run_overhead(quick, cpus);
    let _ = std::fs::remove_dir_all(&root);

    TelemetryDoc {
        schema: SCHEMA.to_string(),
        bench: "exp_telemetry".to_string(),
        quick,
        trace_build: obs::ENABLED,
        cpus,
        cp_depths,
        blackbox,
        sampler,
    }
}

/// Schema + gates. Structural gates (coverage, bundle consistency)
/// hold on quick runs too; the sampler budget is enforced only where
/// the wall clock means anything (full run, ≥ 2 cpus).
fn validate(doc: &TelemetryDoc) -> Result<(), String> {
    if doc.schema != SCHEMA {
        return Err(format!("schema: expected {SCHEMA:?}, got {:?}", doc.schema));
    }
    if doc.cp_depths.is_empty() || doc.cp_depths[0].depth != 0 {
        return Err("cp sweep must start at the synchronous depth-0 baseline".into());
    }
    if !doc.cp_depths.iter().any(|p| p.depth >= 8) {
        return Err("cp sweep never reached depth 8".into());
    }
    for p in &doc.cp_depths {
        if p.cps == 0 {
            return Err(format!("depth {}: no CPs measured", p.depth));
        }
        if p.phases.len() != CP_PHASE_NAMES.len() {
            return Err(format!(
                "depth {}: {} phase rows, expected {}",
                p.depth,
                p.phases.len(),
                CP_PHASE_NAMES.len()
            ));
        }
        let sum: u64 = p.phases.iter().map(|r| r.total_ns).sum();
        if sum == 0 {
            return Err(format!("depth {}: no phase time attributed", p.depth));
        }
        let mut best = ("", 0u64);
        for (row, name) in p.phases.iter().zip(CP_PHASE_NAMES) {
            if row.name != name {
                return Err(format!(
                    "depth {}: phase row {:?} out of pipeline order (expected {name:?})",
                    p.depth, row.name
                ));
            }
            let expect = row.total_ns as f64 / sum as f64;
            if !row.fraction.is_finite() || (row.fraction - expect).abs() > 1e-6 {
                return Err(format!(
                    "depth {}: phase {:?} fraction {} inconsistent ({expect})",
                    p.depth, row.name, row.fraction
                ));
            }
            if row.total_ns > best.1 {
                best = (name, row.total_ns);
            }
        }
        if p.binding_phase != best.0 {
            return Err(format!(
                "depth {}: binding_phase {:?} but {:?} holds the most time",
                p.depth, p.binding_phase, best.0
            ));
        }
        // The profiler's accounting gate: ≥ 95% of each CP's wall time
        // lands in a named phase.
        if !p.min_coverage.is_finite() || p.min_coverage < COVERAGE_FLOOR {
            return Err(format!(
                "depth {}: worst phase coverage {:.4} under the {COVERAGE_FLOOR} floor",
                p.depth, p.min_coverage
            ));
        }
        if p.min_coverage > 1.0 + 1e-9 {
            return Err(format!(
                "depth {}: coverage {} exceeds 1 (phases must nest in total_ns)",
                p.depth, p.min_coverage
            ));
        }
    }

    let b = &doc.blackbox;
    if b.bundle_schema != obs::BLACKBOX_SCHEMA {
        return Err(format!(
            "blackbox: bundle schema {:?}, expected {:?}",
            b.bundle_schema,
            obs::BLACKBOX_SCHEMA
        ));
    }
    if b.reason != "drive_offline" {
        return Err(format!(
            "blackbox: reason {:?}, expected the drive-death trigger",
            b.reason
        ));
    }
    if b.drive_offline_fires == 0 {
        return Err("blackbox: drive_offline never fired".into());
    }
    if b.dead_drive != 1 || b.drives_offline != 1 {
        return Err(format!(
            "blackbox: seeded death of drive 1 not recorded (arg {}, offline {})",
            b.dead_drive, b.drives_offline
        ));
    }
    if b.dumps_counted == 0 {
        return Err("blackbox: bundled metrics missed the dump counter".into());
    }
    if doc.trace_build && (b.threads == 0 || b.events_total == 0) {
        return Err("blackbox: trace build must capture per-thread rings".into());
    }
    if !doc.trace_build && b.threads != 0 {
        return Err("blackbox: thread rings claimed without the trace feature".into());
    }

    let s = &doc.sampler;
    if s.off_buffers_per_sec <= 0.0 || s.on_buffers_per_sec <= 0.0 {
        return Err("sampler: non-positive throughput".into());
    }
    let expect = 100.0 * (s.off_buffers_per_sec - s.on_buffers_per_sec)
        / s.off_buffers_per_sec.max(f64::MIN_POSITIVE);
    if !s.overhead_pct.is_finite() || (s.overhead_pct - expect).abs() > 1e-6 {
        return Err(format!(
            "sampler: overhead_pct {} inconsistent ({expect})",
            s.overhead_pct
        ));
    }
    if s.ticks == 0 {
        return Err("sampler: ring never ticked during the on-run".into());
    }
    if s.interval_ms == 0 {
        return Err("sampler: degenerate interval".into());
    }
    if s.gate_enforced != (!doc.quick && doc.cpus >= 2) {
        return Err("sampler: gate_enforced inconsistent with quick/cpus".into());
    }
    if s.gate_enforced && s.overhead_pct > OVERHEAD_BUDGET_PCT {
        return Err(format!(
            "sampler overhead {:.2}% exceeds the {OVERHEAD_BUDGET_PCT}% always-on budget",
            s.overhead_pct
        ));
    }
    Ok(())
}

/// One-line digest of a valid record for `--validate`.
fn summary(doc: &TelemetryDoc) -> String {
    format!(
        "{} depths, binding {}, sampler {:+.2}%{}",
        doc.cp_depths.len(),
        doc.cp_depths
            .iter()
            .map(|p| format!("{}@{}", p.binding_phase, p.depth))
            .collect::<Vec<_>>()
            .join("/"),
        doc.sampler.overhead_pct,
        if doc.sampler.gate_enforced {
            " gated"
        } else {
            " reported-only"
        }
    )
}

fn main() {
    validate_arg("exp_telemetry", SCHEMA, validate, summary);

    let quick = std::env::var_os("WAFL_BENCH_QUICK").is_some();
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1) as u64;
    let doc = run(quick, cpus);

    let mut t = FigureTable::new(
        "exp_telemetry",
        "continuous telemetry: CP phase attribution, blackbox post-mortem, sampler overhead",
    );
    for p in &doc.cp_depths {
        t.row_measured(
            format!("phase coverage (worst CP) @depth {}", p.depth),
            p.min_coverage,
            "frac",
        );
        let bind = p.phases.iter().max_by_key(|r| r.total_ns).unwrap();
        t.row_measured(
            format!("binding phase share ({}) @depth {}", bind.name, p.depth),
            bind.fraction,
            "frac",
        );
        println!(
            "depth {:>2}: binding phase {:10} ({:.1}% of phase time, coverage ≥ {:.3})",
            p.depth,
            p.binding_phase,
            100.0 * bind.fraction,
            p.min_coverage
        );
    }
    t.row_measured(
        "blackbox threads captured",
        doc.blackbox.threads as f64,
        "count",
    );
    t.row_measured(
        "blackbox events bundled",
        doc.blackbox.events_total as f64,
        "count",
    );
    t.row_measured("sampler overhead", doc.sampler.overhead_pct, "%");
    t.row_measured(
        "sampler ticks during A/B",
        doc.sampler.ticks as f64,
        "count",
    );
    if doc.sampler.gate_enforced {
        println!(
            "sampler overhead {:+.2}% (budget {OVERHEAD_BUDGET_PCT}%, enforced)",
            doc.sampler.overhead_pct
        );
    } else {
        println!(
            "NOTICE: sampler budget reported-only ({}; overhead {:+.2}%)",
            if doc.quick {
                "quick run"
            } else {
                "single-core box — wall clocks measure the scheduler"
            },
            doc.sampler.overhead_pct
        );
    }

    save_record("exp_telemetry", "BENCH_telemetry.json", &doc, validate);
    println!("{}", t.render());
}
