//! PUT-convoy profiler — the measurement the ROADMAP's used-queue
//! sharding item is waiting on.
//!
//! Every PUT sends one commit message to the infrastructure (§IV-C: one
//! metafile commit per bucket). As cleaner threads scale 1→16 against a
//! *fixed* infrastructure executor, those commits can convoy behind the
//! executor — queue wait (`commit_queue_wait_ns`) grows while service
//! time (`commit_batch_ns`) stays flat. This bench runs the **real**
//! [`wafl::CleanerPool`] over the real allocator with a real
//! [`alligator::PoolExecutor`] (Waffinity threads) and reports, per
//! swept cleaner count:
//!
//! * commit-queue wait, service time, and depth high-water;
//! * GET wall time (`get_wait_ns`) — the synchronization cost §IV-C
//!   already amortizes, used as the comparison baseline;
//! * `convoy_ratio = commit_queue_wait_ns / get_wait_ns` — the headline:
//!   above ~1 the PUT side out-queues the GET side and used-queue
//!   sharding is justified.
//!
//! Outputs:
//! - `BENCH_put_convoy.json` at the repo root (`WAFL_BENCH_ROOT`
//!   overrides the directory) — validated by the CI schema gate;
//! - with `--features trace`: a Chrome-trace export of the 8-cleaner
//!   run (`results/trace_put_convoy.json`, loadable in Perfetto) and a
//!   recording-on vs recording-off overhead A/B at 8 cleaners (the
//!   <5% always-on budget; gated in full runs on multi-core machines,
//!   reported-only under `WAFL_BENCH_QUICK` or on one core).
//!
//! `--validate <path>` re-parses a previously written record and checks
//! schema + invariants (exit 1 on violation).

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use wafl::cleaner::{partition_work, CleanerConfig, CleanerPool};
use wafl::{DirtyBuffer, FileId, Volume, VolumeId};
use wafl_bench::{save_record, validate_arg};
use wafl_simsrv::FigureTable;

use alligator::{AllocConfig, Allocator, Executor, PoolExecutor, StatsSnapshot};
use waffinity::{Model, Topology, WaffinityPool};
use wafl_blockdev::{DriveKind, GeometryBuilder, IoEngine};
use wafl_metafile::AggregateMap;

/// Schema tag for `BENCH_put_convoy.json`.
const SCHEMA: &str = "wafl.put_convoy.v1";

/// Cleaner thread counts swept (the ISSUE's 1→16 range).
const CLEANERS: [usize; 6] = [1, 2, 4, 8, 12, 16];

/// Infrastructure (Waffinity) threads — deliberately *fixed* while
/// cleaners scale, so the commit funnel narrows relative to the PUT
/// rate and any convoy becomes visible.
const INFRA_THREADS: usize = 2;

/// Cleaner count used for the trace export and the overhead A/B.
const TRACE_POINT: usize = 8;

/// Always-on tracing budget: recording-on throughput at 8 cleaners may
/// lose at most this to recording-off (full runs, ≥ 2 cpus).
const OVERHEAD_BUDGET_PCT: f64 = 5.0;

/// Per-thread event cap of the committed Chrome trace (keeps the
/// artifact bounded; newest events win).
const TRACE_EXPORT_CAP: usize = 768;

/// One swept point: the real pool at `cleaners` threads.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ConvoyPoint {
    /// Cleaner threads.
    cleaners: u64,
    /// Wall time of the cleaning run, ms.
    wall_ms: f64,
    /// Dirty buffers cleaned.
    buffers: u64,
    /// Buffers cleaned per second (wall).
    buffers_per_sec: f64,
    /// Bucket GETs (cache pops handed to cleaners).
    gets: u64,
    /// GETs that found the cache empty.
    get_stalls: u64,
    /// Bucket PUTs (each submits one commit message).
    puts: u64,
    /// Commit-queue depth high-water (submitted but unexecuted commits).
    commit_queue_high_water: u64,
    /// Total ns PUT commits waited in the executor queue.
    commit_queue_wait_ns: u64,
    /// Total ns the infrastructure spent servicing commits.
    commit_batch_ns: u64,
    /// Total ns cleaners spent inside GET (stalls included).
    get_wait_ns: u64,
    /// Mean commit-queue wait per PUT, µs.
    commit_wait_per_put_us: f64,
    /// Mean commit service per PUT, µs.
    commit_service_per_put_us: f64,
    /// Mean GET wall time per GET, µs.
    get_wait_per_get_us: f64,
    /// `commit_queue_wait_ns / get_wait_ns` — the sharding question.
    convoy_ratio: f64,
}

/// Recording-on vs recording-off A/B at [`TRACE_POINT`] cleaners
/// (only meaningful inside a `--features trace` build).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TraceOverhead {
    /// Cleaner threads of the A/B runs.
    cleaners: u64,
    /// Buffers/s with the runtime recording switch on.
    on_buffers_per_sec: f64,
    /// Buffers/s with the switch off (rings compiled in but cold).
    off_buffers_per_sec: f64,
    /// `100 · (off − on) / off` — positive = tracing slowdown.
    overhead_pct: f64,
    /// Events readable across all rings after the traced run.
    events_captured: u64,
    /// Events lost to ring overwrite (counted, not kept).
    events_dropped: u64,
}

/// The persisted record.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ConvoyDoc {
    /// Schema tag (`wafl.put_convoy.v1`).
    schema: String,
    /// Producing binary.
    bench: String,
    /// True when run under `WAFL_BENCH_QUICK` (smaller workload; gates
    /// are reported, not enforced).
    quick: bool,
    /// True when the binary was built with `--features trace`.
    trace_build: bool,
    /// `available_parallelism()` of the producing machine. Wall-clock
    /// fields are machine-dependent; the trace-overhead gate needs ≥ 2.
    cpus: u64,
    /// Infrastructure (Waffinity) threads, fixed across the sweep.
    infra_threads: u64,
    /// Cleaner counts swept.
    cleaners: Vec<u64>,
    /// One point per swept cleaner count.
    points: Vec<ConvoyPoint>,
    /// Maximum `convoy_ratio` over the sweep.
    max_convoy_ratio: f64,
    /// Overhead A/B, or `null` without `--features trace`.
    trace_overhead: Option<TraceOverhead>,
    /// Path of the exported Chrome trace, or `null` without the feature.
    trace_file: Option<String>,
}

/// Outcome of one real-pool run.
struct RunOutcome {
    stats: StatsSnapshot,
    wall_ns: u64,
    buffers: u64,
}

/// Dirty-buffer count per file and file count for one run. Scaled down
/// under `WAFL_BENCH_QUICK`; sized so a run consumes well under the
/// aggregate's capacity.
fn workload_shape(quick: bool) -> (u64, u64) {
    if quick {
        (24, 128)
    } else {
        (120, 256)
    }
}

/// Run the real cleaner pool once at `cleaners` threads and return the
/// allocator's counters plus wall time. Fresh stack per run: geometry,
/// aggregate map, Waffinity infra pool, allocator, cleaner pool.
fn run_point(cleaners: usize, quick: bool) -> RunOutcome {
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
        threads: cleaners,
        batching: false,
        get_batch: 4,
        ..CleanerConfig::default()
    };
    let pool = CleanerPool::new(Arc::clone(&alloc), cfg);

    let vol = Volume::new(VolumeId(0), 0, 1 << 20);
    let (files, bufs_per_file) = workload_shape(quick);
    let frozen: Vec<_> = (0..files)
        .map(|f| {
            let file = FileId(1 + f);
            vol.create_file(file);
            let buffers: Vec<DirtyBuffer> = (0..bufs_per_file)
                .map(|fbn| DirtyBuffer::first_write(fbn, wafl_blockdev::stamp(1 + f, fbn, 1)))
                .collect();
            (Arc::clone(&vol), file, buffers)
        })
        .collect();
    let items = partition_work(frozen, &cfg);

    let t0 = std::time::Instant::now();
    let results = pool.clean_all(items);
    alloc.drain();
    let wall_ns = t0.elapsed().as_nanos() as u64;

    let buffers: u64 = results.iter().map(|r| r.cleaned.len() as u64).sum();
    assert_eq!(buffers, files * bufs_per_file, "every buffer cleaned");
    let stats = alloc.stats();
    pool.shutdown();
    RunOutcome {
        stats,
        wall_ns,
        buffers,
    }
}

fn point(cleaners: usize, o: &RunOutcome) -> ConvoyPoint {
    let s = &o.stats;
    let per = |total_ns: u64, n: u64| total_ns as f64 / n.max(1) as f64 / 1e3;
    ConvoyPoint {
        cleaners: cleaners as u64,
        wall_ms: o.wall_ns as f64 / 1e6,
        buffers: o.buffers,
        buffers_per_sec: o.buffers as f64 / (o.wall_ns.max(1) as f64 / 1e9),
        gets: s.gets,
        get_stalls: s.get_stalls,
        puts: s.puts,
        commit_queue_high_water: s.put_commit_queue_len,
        commit_queue_wait_ns: s.commit_queue_wait_ns,
        commit_batch_ns: s.commit_batch_ns,
        get_wait_ns: s.get_wait_ns,
        commit_wait_per_put_us: per(s.commit_queue_wait_ns, s.puts),
        commit_service_per_put_us: per(s.commit_batch_ns, s.puts),
        get_wait_per_get_us: per(s.get_wait_ns, s.gets),
        convoy_ratio: s.commit_queue_wait_ns as f64 / s.get_wait_ns.max(1) as f64,
    }
}

/// Recording-on vs recording-off throughput at [`TRACE_POINT`] cleaners.
/// Off runs first so the on-run's rings hold the freshest events for the
/// trace export. No-op (`None`) without `--features trace`.
fn measure_overhead(quick: bool) -> Option<TraceOverhead> {
    if !obs::ENABLED {
        return None;
    }
    obs::trace::set_recording(false);
    let off = run_point(TRACE_POINT, quick);
    obs::trace::set_recording(true);
    let on = run_point(TRACE_POINT, quick);
    let rate = |o: &RunOutcome| o.buffers as f64 / (o.wall_ns.max(1) as f64 / 1e9);
    let (on_rate, off_rate) = (rate(&on), rate(&off));
    let traces = obs::trace::snapshot_all();
    Some(TraceOverhead {
        cleaners: TRACE_POINT as u64,
        on_buffers_per_sec: on_rate,
        off_buffers_per_sec: off_rate,
        overhead_pct: 100.0 * (off_rate - on_rate) / off_rate.max(f64::MIN_POSITIVE),
        events_captured: traces.iter().map(|t| t.events.len() as u64).sum(),
        events_dropped: traces.iter().map(|t| t.dropped).sum(),
    })
}

/// Export every ring as Chrome trace JSON under the results directory.
/// Returns the written path. `None` without `--features trace`.
fn export_trace() -> Option<String> {
    if !obs::ENABLED {
        return None;
    }
    let traces = obs::trace::snapshot_all();
    let json = obs::chrome::chrome_trace_json(&traces, TRACE_EXPORT_CAP);
    let dir = std::env::var("WAFL_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    std::fs::create_dir_all(&dir).ok()?;
    let path = format!("{dir}/trace_put_convoy.json");
    match std::fs::write(&path, json) {
        Ok(()) => {
            println!("[saved {path} — load it in chrome://tracing or ui.perfetto.dev]");
            Some(path)
        }
        Err(e) => {
            eprintln!("warning: could not write {path}: {e}");
            None
        }
    }
}

/// Schema/invariant check of a record. Returns the first violation.
fn validate(doc: &ConvoyDoc) -> Result<(), String> {
    if doc.schema != SCHEMA {
        return Err(format!("schema: expected {SCHEMA:?}, got {:?}", doc.schema));
    }
    if doc.cleaners.is_empty() {
        return Err("cleaners: empty sweep".into());
    }
    if !doc.cleaners.windows(2).all(|w| w[0] < w[1]) {
        return Err(format!(
            "cleaners not strictly increasing: {:?}",
            doc.cleaners
        ));
    }
    if !doc.cleaners.iter().any(|&c| c >= 8) {
        return Err("cleaners: no point at ≥ 8 (acceptance range uncovered)".into());
    }
    if doc.infra_threads == 0 {
        return Err("infra_threads = 0".into());
    }
    if doc.points.len() != doc.cleaners.len() {
        return Err(format!(
            "{} points, {} cleaner counts",
            doc.points.len(),
            doc.cleaners.len()
        ));
    }
    let mut max_ratio = f64::NEG_INFINITY;
    for (i, p) in doc.points.iter().enumerate() {
        if p.cleaners != doc.cleaners[i] {
            return Err(format!(
                "points[{i}]: cleaners {} ≠ {}",
                p.cleaners, doc.cleaners[i]
            ));
        }
        if p.buffers == 0 || p.puts == 0 || p.gets == 0 {
            return Err(format!(
                "points[{i}]: empty run (buffers {}, puts {}, gets {})",
                p.buffers, p.puts, p.gets
            ));
        }
        if !p.buffers_per_sec.is_finite() || p.buffers_per_sec <= 0.0 {
            return Err(format!(
                "points[{i}]: buffers_per_sec {}",
                p.buffers_per_sec
            ));
        }
        if p.commit_queue_high_water == 0 {
            return Err(format!("points[{i}]: commit queue never observed"));
        }
        let checks = [
            (
                "commit_wait_per_put_us",
                p.commit_wait_per_put_us,
                p.commit_queue_wait_ns,
                p.puts,
            ),
            (
                "commit_service_per_put_us",
                p.commit_service_per_put_us,
                p.commit_batch_ns,
                p.puts,
            ),
            (
                "get_wait_per_get_us",
                p.get_wait_per_get_us,
                p.get_wait_ns,
                p.gets,
            ),
        ];
        for (name, got, total_ns, n) in checks {
            let expect = total_ns as f64 / n.max(1) as f64 / 1e3;
            if !got.is_finite() || (got - expect).abs() > 1e-6 * expect.abs() + 1e-9 {
                return Err(format!(
                    "points[{i}].{name} = {got} inconsistent ({expect})"
                ));
            }
        }
        let expect_ratio = p.commit_queue_wait_ns as f64 / p.get_wait_ns.max(1) as f64;
        if !p.convoy_ratio.is_finite()
            || (p.convoy_ratio - expect_ratio).abs() > 1e-6 * expect_ratio.abs() + 1e-9
        {
            return Err(format!(
                "points[{i}].convoy_ratio = {} inconsistent ({expect_ratio})",
                p.convoy_ratio
            ));
        }
        max_ratio = max_ratio.max(p.convoy_ratio);
    }
    if (doc.max_convoy_ratio - max_ratio).abs() > 1e-6 * max_ratio.abs() + 1e-9 {
        return Err(format!(
            "max_convoy_ratio = {} but points give {max_ratio}",
            doc.max_convoy_ratio
        ));
    }
    match (&doc.trace_overhead, doc.trace_build) {
        (Some(_), false) => return Err("trace_overhead present without trace_build".into()),
        (None, true) => return Err("trace_build without trace_overhead".into()),
        _ => {}
    }
    if let Some(t) = &doc.trace_overhead {
        if t.on_buffers_per_sec <= 0.0 || t.off_buffers_per_sec <= 0.0 {
            return Err("trace_overhead: non-positive rate".into());
        }
        let expect = 100.0 * (t.off_buffers_per_sec - t.on_buffers_per_sec)
            / t.off_buffers_per_sec.max(f64::MIN_POSITIVE);
        if !t.overhead_pct.is_finite() || (t.overhead_pct - expect).abs() > 1e-6 {
            return Err(format!(
                "trace_overhead.overhead_pct = {} inconsistent ({expect})",
                t.overhead_pct
            ));
        }
        if t.events_captured == 0 {
            return Err("trace_overhead: traced run captured no events".into());
        }
        // The <5% always-on budget: enforced on full runs with real
        // parallelism (single-core wall clocks measure the scheduler).
        if !doc.quick && doc.cpus >= 2 && t.overhead_pct > OVERHEAD_BUDGET_PCT {
            return Err(format!(
                "tracing overhead {:.2}% at {} cleaners exceeds the {OVERHEAD_BUDGET_PCT}% budget",
                t.overhead_pct, t.cleaners
            ));
        }
    }
    if doc.trace_file.is_some() != doc.trace_build {
        return Err("trace_file must be present iff trace_build".into());
    }
    Ok(())
}

/// One-line digest of a valid record for `--validate`.
fn summary(doc: &ConvoyDoc) -> String {
    format!(
        "{} points, max convoy ratio {:.3}, trace: {}",
        doc.points.len(),
        doc.max_convoy_ratio,
        match &doc.trace_overhead {
            Some(t) => format!("{:+.2}% overhead", t.overhead_pct),
            None => "off".to_string(),
        }
    )
}

fn main() {
    validate_arg("exp_put_convoy", SCHEMA, validate, summary);

    let quick = std::env::var_os("WAFL_BENCH_QUICK").is_some();
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1) as u64;

    let mut t = FigureTable::new(
        "exp_put_convoy",
        "PUT commit-queue convoy vs GET time, real cleaner pool 1→16 threads",
    );
    let mut points = Vec::new();
    for &n in &CLEANERS {
        let o = run_point(n, quick);
        let p = point(n, &o);
        t.row_measured(
            format!("commit wait/PUT @{n} cleaners"),
            p.commit_wait_per_put_us,
            "µs",
        );
        t.row_measured(
            format!("GET wait/GET @{n} cleaners"),
            p.get_wait_per_get_us,
            "µs",
        );
        t.row_measured(format!("convoy ratio @{n} cleaners"), p.convoy_ratio, "x");
        t.row_measured(
            format!("commit-queue high-water @{n} cleaners"),
            p.commit_queue_high_water as f64,
            "count",
        );
        points.push(p);
    }
    let max_convoy_ratio = points.iter().map(|p| p.convoy_ratio).fold(0.0, f64::max);

    let trace_overhead = measure_overhead(quick);
    if let Some(t) = &trace_overhead {
        println!(
            "tracing overhead at {} cleaners: {:+.2}% ({:.0} vs {:.0} buffers/s)",
            t.cleaners, t.overhead_pct, t.on_buffers_per_sec, t.off_buffers_per_sec
        );
    }
    let trace_file = export_trace();

    let doc = ConvoyDoc {
        schema: SCHEMA.to_string(),
        bench: "exp_put_convoy".to_string(),
        quick,
        trace_build: obs::ENABLED,
        cpus,
        infra_threads: INFRA_THREADS as u64,
        cleaners: CLEANERS.iter().map(|&n| n as u64).collect(),
        points,
        max_convoy_ratio,
        trace_overhead,
        trace_file,
    };
    save_record("exp_put_convoy", "BENCH_put_convoy.json", &doc, validate);
    println!("{}", t.render());
    println!(
        "max convoy ratio over the sweep: {max_convoy_ratio:.3} \
         (commit-queue wait / GET wall time; > 1 would justify used-queue sharding)"
    );
}
