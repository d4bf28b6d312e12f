//! The four workloads, driven through `wafl::Filesystem` on real threads:
//! set-up, one unmeasured warm-up cycle, the measured window, then the
//! correctness gate and the simulated crash.

use crate::config::{self, Shape, Workload};
use crate::metrics::{median_band, per, percentile, Values};
use crate::probes::{self, Probes};
use crate::rng::Rng;
use crate::trace::{Snap, Tracer};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use wafl::{CpReport, FileId, Filesystem, VolumeId};
use wafl_blockdev::{BlockStamp, DriveKind, SyncPolicy};

/// Set-up and recovery are each repeated and the median reported: at least
/// this many times and for [`REPEAT_MIN`], but no longer than
/// [`REPEAT_BUDGET`]. A measurement of several seconds is steady on its
/// own; one of a few milliseconds needs the median of many.
const REPEATS: usize = 3;
/// See [`REPEATS`].
const REPEAT_MIN: Duration = Duration::from_secs(1);
/// See [`REPEATS`].
const REPEAT_BUDGET: Duration = Duration::from_secs(4);
/// Longest window of the file-backed section of a traced run.
const FILE_SECTION_S: f64 = 3.0;
/// One client op in this many is timed individually.
const SAMPLE_EVERY: usize = 16;
/// Blocks of each batch read back through `Filesystem::read` before its CP.
const SPOT_READS: usize = 64;
/// How long a blocked client or an idle CP driver sleeps between polls.
const POLL: Duration = Duration::from_micros(50);

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Seed of the op stream and the payload stamps.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: record spans and counter snapshots, run the probes and
    /// report the per-layer table in place of the end-to-end metrics.
    pub trace: bool,
    /// Data-set divisor (1 = the fixed configuration).
    pub scale: u64,
    /// Directory for the span file and the file backend's media.
    pub out_dir: PathBuf,
    /// Time spent on each probe loop of a traced run.
    pub probe_budget: Duration,
}

/// What one invocation measured.
#[derive(Debug)]
pub struct RunResult {
    /// Checks made by the correctness gate.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// The first few failures, for the operator.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Values,
    /// File-system type under the media directory (`"memory"` without a
    /// file backend).
    pub media_fs: String,
    /// Whether the file backend got `O_DIRECT`.
    pub o_direct: bool,
}

/// The durations of one repeated measurement (see [`REPEATS`]).
#[derive(Default)]
struct Repeated {
    times: Vec<Duration>,
}

impl Repeated {
    fn push(&mut self, d: Duration) {
        self.times.push(d);
    }

    fn enough(&self) -> bool {
        let spent: Duration = self.times.iter().sum();
        spent >= REPEAT_BUDGET || (self.times.len() >= REPEATS && spent >= REPEAT_MIN)
    }

    fn median_s(mut self) -> f64 {
        self.times.sort();
        self.times[self.times.len() / 2].as_secs_f64()
    }
}

/// Counts the correctness gate's checks and keeps the first failures.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Reads through `Filesystem::read` checked during the run.
    reads: u64,
    /// Those that overlapped a CP and returned the version the block map
    /// held instead of the latest acknowledged one (finding F3 in the
    /// README). Not a failure of the gate: `fresh_read_ratio` reports them
    /// in every run, so a rise is a regression of that metric.
    stale_reads: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

/// The data set and the harness's shadow of it: the last acknowledged
/// version of every block, from which the expected stamp is recomputed.
struct DataSet {
    shape: Shape,
    seed: u64,
    versions: Vec<u32>,
}

impl DataSet {
    fn new(shape: Shape, seed: u64) -> DataSet {
        DataSet {
            shape,
            seed,
            versions: vec![0; shape.blocks() as usize],
        }
    }

    fn locate(&self, idx: u64) -> (VolumeId, FileId, u64) {
        let file = idx / self.shape.blocks_per_file;
        (
            VolumeId((file % u64::from(config::VOLUMES)) as u32),
            FileId(file + 1),
            idx % self.shape.blocks_per_file,
        )
    }

    fn stamp(&self, idx: u64, version: u32) -> BlockStamp {
        let (_, FileId(file), fbn) = self.locate(idx);
        wafl_blockdev::stamp(file, fbn, (self.seed << 32) | u64::from(version))
    }

    /// The stamp a reader must see, `None` for a block never written.
    fn expected(&self, idx: u64) -> Option<BlockStamp> {
        match self.versions[idx as usize] {
            0 => None,
            v => Some(self.stamp(idx, v)),
        }
    }

    fn create(&self, fs: &Filesystem) {
        for v in 0..config::VOLUMES {
            fs.create_volume(VolumeId(v));
        }
        for file in 0..self.shape.files {
            let (vol, id, _) = self.locate(file * self.shape.blocks_per_file);
            fs.create_file(vol, id);
        }
    }

    fn write(&mut self, fs: &Filesystem, idx: u64) {
        let version = self.versions[idx as usize] + 1;
        self.versions[idx as usize] = version;
        let (vol, file, fbn) = self.locate(idx);
        fs.write(vol, file, fbn, self.stamp(idx, version));
    }

    fn read(&self, fs: &Filesystem, idx: u64) -> Option<BlockStamp> {
        let (vol, file, fbn) = self.locate(idx);
        fs.read(vol, file, fbn)
    }
}

/// Where the next block index of a workload comes from.
enum OpGen {
    /// Front to back over the whole data set, in passes.
    Sequential(u64),
    /// Uniform over the whole data set.
    Random(Rng),
}

impl OpGen {
    fn for_workload(w: Workload, seed: u64) -> OpGen {
        match w {
            Workload::SeqWrite | Workload::SeqWriteFile => OpGen::Sequential(0),
            Workload::RandOverwriteAged | Workload::OltpMix => OpGen::Random(Rng(seed)),
        }
    }

    fn next(&mut self, blocks: u64) -> u64 {
        match self {
            OpGen::Sequential(at) => {
                let idx = *at;
                *at = (*at + 1) % blocks;
                idx
            }
            OpGen::Random(rng) => rng.below(blocks),
        }
    }
}

/// What a read that overlaps a CP may return besides the latest version
/// (finding F3): `Filesystem::read` misses the buffers a CP has frozen and
/// not yet applied, and serves the block map instead. The block map holds
/// every write a committed CP covered, so the oldest acceptable version of
/// a block is the latest one known to be covered.
///
/// The client notes how many CPs have started once per chunk of ops. A
/// write of a chunk that saw `n` is frozen by CP `n`, `n + 1` or, when CP
/// `n + 1` starts within the chunk, `n + 2`; no later one, because the next
/// CP starts only after another NVLog half of writes. Seeing CP `c` started
/// means CP `c - 1` committed: every write tagged `c - 3` or less is then
/// in the block map.
#[derive(Default)]
struct Settling {
    /// Per block, the latest version known to be in the block map.
    floor: Vec<u32>,
    /// Acknowledged writes not yet known to be covered, oldest first:
    /// block, version, CPs started when it was written.
    acks: VecDeque<(u64, u32, u64)>,
}

impl Settling {
    fn settle(&mut self, cps_started: u64) {
        while let Some(&(idx, version, tag)) = self.acks.front() {
            if tag + 3 > cps_started {
                break;
            }
            self.floor[idx as usize] = version;
            self.acks.pop_front();
        }
    }
}

/// Individually timed client ops.
#[derive(Default)]
struct Samples {
    /// Acknowledgement latency of every timed op, stalls included.
    ack_ns: Vec<u32>,
    write_ns: u64,
    writes: u64,
    read_ns: u64,
    reads: u64,
}

impl Samples {
    fn record(&mut self, t: Instant, is_write: bool, stalled: bool) {
        let ns = t.elapsed().as_nanos() as u64;
        self.ack_ns.push(ns.min(u64::from(u32::MAX)) as u32);
        // The per-call cost of the layer leaves out time blocked by the
        // harness's own half-full rule.
        if stalled {
            return;
        }
        if is_write {
            self.write_ns += ns;
            self.writes += 1;
        } else {
            self.read_ns += ns;
            self.reads += 1;
        }
    }
}

/// One `run_cp()` call as the harness saw it.
#[derive(Clone, Copy)]
struct CpRec {
    start_ns: u64,
    end_ns: u64,
    report: CpReport,
}

/// What happened between two instants of a run.
struct Phase {
    start: Snap,
    end: Snap,
    ops: u64,
    stall_ns: u64,
    stalls: u64,
    /// Reads checked, and those of them that were stale (see [`Checks`]).
    reads: u64,
    stale_reads: u64,
    cps: Vec<CpRec>,
}

impl Phase {
    fn wall_s(&self) -> f64 {
        (self.end.t_ns - self.start.t_ns) as f64 / 1e9
    }

    fn buffers(&self) -> f64 {
        self.cps
            .iter()
            .map(|c| c.report.buffers_cleaned as f64)
            .sum()
    }

    fn ops_per_s(&self) -> f64 {
        per(self.ops as f64, self.wall_s())
    }
}

/// The client side of a run: data set, op source, samples, checks, spans.
struct Client<'a> {
    fs: &'a Filesystem,
    ds: DataSet,
    gen: OpGen,
    samples: Samples,
    checks: Checks,
    /// Used by `oltp_mix` only: no other workload reads beside a CP.
    settling: Settling,
    tracer: Tracer,
    cycle: u64,
    ops_buf: Vec<u64>,
}

impl Client<'_> {
    /// Write `ops_buf` through `Filesystem::write`, timing one op in
    /// [`SAMPLE_EVERY`].
    fn write_batch(&mut self) {
        for (i, &idx) in self.ops_buf.iter().enumerate() {
            if i % SAMPLE_EVERY == 0 {
                let t = Instant::now();
                self.ds.write(self.fs, idx);
                self.samples.record(t, true, false);
            } else {
                self.ds.write(self.fs, idx);
            }
        }
    }

    /// Read a few blocks of the batch just written back before its CP:
    /// dirty data must win.
    fn spot_reads(&mut self) {
        let step = (self.ops_buf.len() / SPOT_READS).max(1);
        for &idx in self.ops_buf.iter().step_by(step) {
            let t = Instant::now();
            let got = self.ds.read(self.fs, idx);
            self.samples.record(t, false, false);
            let want = self.ds.expected(idx);
            self.checks.reads += 1;
            self.checks.check(got == want, || {
                format!("read before CP: block {idx} holds {got:x?}, acknowledged {want:x?}")
            });
        }
    }

    /// One cycle of a batch workload: a client batch, then a CP, on this
    /// one thread.
    fn batch_cycle(&mut self, batch: u64, cps: &mut Vec<CpRec>) {
        let blocks = self.ds.shape.blocks();
        self.ops_buf.clear();
        for _ in 0..batch {
            self.ops_buf.push(self.gen.next(blocks));
        }
        let t0 = self.tracer.now();
        self.write_batch();
        let t1 = self.tracer.now();
        self.spot_reads();
        let t2 = self.tracer.now();
        let report = self.fs.run_cp();
        let t3 = self.tracer.now();
        cps.push(CpRec {
            start_ns: t2,
            end_ns: t3,
            report,
        });
        if self.tracer.enabled() {
            let c = self.cycle;
            let cycle = self.tracer.span("cycle", self.tracer.root(), c, t0, t3);
            self.tracer.span("client_batch", cycle, c, t0, t1);
            self.tracer.span("verify", cycle, c, t1, t2);
            self.tracer.cp(cycle, c, t2, t3, &report);
            self.tracer.counters(c, self.fs);
            self.tracer.recorded(t3);
        }
        self.cycle += 1;
    }

    /// Batch cycles until `dur` has passed (at least one).
    fn batch_phase(&mut self, batch: u64, dur: Duration) -> Phase {
        self.samples = Samples::default();
        let start = Snap::take(self.fs, self.tracer.epoch());
        let reads0 = self.checks.reads;
        let t0 = Instant::now();
        let mut cps = Vec::new();
        loop {
            self.batch_cycle(batch, &mut cps);
            if t0.elapsed() >= dur {
                break;
            }
        }
        Phase {
            start,
            end: Snap::take(self.fs, self.tracer.epoch()),
            ops: cps.len() as u64 * batch,
            stall_ns: 0,
            stalls: 0,
            reads: self.checks.reads - reads0,
            stale_reads: 0,
            cps,
        }
    }

    /// The `oltp_mix` client: uniform random 2 reads : 1 write until
    /// `done()` says stop, blocking while the NVLog half is full. The CP
    /// driver runs on its own thread; its CPs are attached afterwards.
    fn oltp_phase(&mut self, half: u64, done: impl Fn() -> bool) -> Phase {
        /// Ops between two looks at the clock, the NVLog and the CP count.
        const CHUNK: usize = 2 * SAMPLE_EVERY;
        self.samples = Samples::default();
        if self.settling.floor.is_empty() {
            // Set-up ended with a CP: everything written so far is covered.
            self.settling.floor = self.ds.versions.clone();
        }
        let blocks = self.ds.shape.blocks();
        let start = Snap::take(self.fs, self.tracer.epoch());
        let (reads0, stale0) = (self.checks.reads, self.checks.stale_reads);
        let (mut ops, mut stall_ns, mut stalls) = (0u64, 0u64, 0u64);
        let mut span_start = start.t_ns;
        while !done() {
            self.settling.settle(self.fs.cp_count());
            // The first op of a chunk is the one that meets the half-full
            // rule: when it does, its timed latency includes the stall.
            let chunk_start = Instant::now();
            let stalled = self.fs.nvlog().current_len() as u64 >= half;
            if stalled {
                let s0 = self.tracer.now();
                while self.fs.nvlog().current_len() as u64 >= half {
                    std::thread::sleep(POLL);
                }
                let s1 = self.tracer.now();
                stall_ns += s1 - s0;
                stalls += 1;
                if self.tracer.enabled() {
                    let c = self.cycle;
                    let root = self.tracer.root();
                    self.tracer.span("client_batch", root, c, span_start, s0);
                    self.tracer.span("stall", root, c, s0, s1);
                    self.tracer.recorded(s1);
                    span_start = s1;
                    self.cycle += 1;
                }
            }
            // Read after the stall, which is the one place the client
            // waits for a CP to start. The count before the flag: a CP that
            // starts in between shows in the flag, a later one in the count.
            let cps_started = self.fs.cp_count();
            let cp_running = self.fs.cp_in_flight();
            for i in 0..CHUNK {
                let OpGen::Random(rng) = &mut self.gen else {
                    unreachable!("oltp_mix draws uniform random ops");
                };
                let is_write = rng.below(3) == 0;
                let idx = rng.below(blocks);
                // Timed: the op that stalled, and one in `SAMPLE_EVERY` from
                // the middle of the chunk, clear of the chunk's bookkeeping.
                let timed = match i {
                    0 if stalled => Some(chunk_start),
                    _ => (i % SAMPLE_EVERY == SAMPLE_EVERY / 2).then(Instant::now),
                };
                if is_write {
                    self.ds.write(self.fs, idx);
                    let version = self.ds.versions[idx as usize];
                    self.settling.acks.push_back((idx, version, cps_started));
                } else {
                    let got = self.ds.read(self.fs, idx);
                    let want = self.ds.expected(idx);
                    self.checks.reads += 1;
                    // Stale, not wrong: a version the block map may still
                    // hold, returned while a CP overlapped this chunk.
                    let stale = got != want
                        && (self.settling.floor[idx as usize]..self.ds.versions[idx as usize])
                            .any(|v| got == Some(self.ds.stamp(idx, v)))
                        && (cp_running
                            || self.fs.cp_in_flight()
                            || self.fs.cp_count() != cps_started);
                    self.checks.stale_reads += u64::from(stale);
                    self.checks.check(got == want || stale, || {
                        format!("read: block {idx} holds {got:x?}, acknowledged {want:x?}")
                    });
                }
                if let Some(t) = timed {
                    self.samples.record(t, is_write, stalled && i == 0);
                }
            }
            ops += CHUNK as u64;
        }
        let end = Snap::take(self.fs, self.tracer.epoch());
        if self.tracer.enabled() {
            let root = self.tracer.root();
            self.tracer
                .span("client_batch", root, self.cycle, span_start, end.t_ns);
        }
        Phase {
            start,
            end,
            ops,
            stall_ns,
            stalls,
            reads: self.checks.reads - reads0,
            stale_reads: self.checks.stale_reads - stale0,
            cps: Vec::new(),
        }
    }
}

/// State shared between the `oltp_mix` client and its CP driver.
#[derive(Default)]
struct CpShared {
    stop: AtomicBool,
    trace: AtomicBool,
    cps_done: AtomicU64,
}

/// The `oltp_mix` CP driver: run a CP whenever the NVLog half is full.
/// A cycle is the wait for the half to fill plus the CP.
fn cp_driver(
    fs: &Filesystem,
    shared: &CpShared,
    half: u64,
    mut tracer: Tracer,
) -> (Vec<CpRec>, Tracer) {
    let mut cps = Vec::new();
    let root = tracer.root();
    let mut cycle = 0;
    let mut cycle_start = tracer.now();
    // ordering: Relaxed — advisory flags polled in a loop; the thread join
    // orders everything the harness reads afterwards.
    while !shared.stop.load(Ordering::Relaxed) {
        if (fs.nvlog().current_len() as u64) < half {
            std::thread::sleep(POLL);
            continue;
        }
        let t0 = tracer.now();
        let report = fs.run_cp();
        let t1 = tracer.now();
        cps.push(CpRec {
            start_ns: t0,
            end_ns: t1,
            report,
        });
        // ordering: Relaxed — see above.
        if shared.trace.load(Ordering::Relaxed) {
            let span = tracer.span("cycle", root, cycle, cycle_start, t1);
            tracer.span("wait", span, cycle, cycle_start, t0);
            tracer.cp(span, cycle, t0, t1, &report);
            tracer.counters(cycle, fs);
            tracer.recorded(t1);
        }
        cycle += 1;
        cycle_start = t1;
        // ordering: Relaxed — see above.
        shared.cps_done.fetch_add(1, Ordering::Relaxed);
    }
    (cps, tracer)
}

/// A fresh file system over the fixed configuration, with a file backend
/// under `media` when the workload has one.
fn build_fs(scale: u64, media: Option<&Path>) -> Result<(Filesystem, bool), String> {
    let fs = Filesystem::new(
        config::fs_config(scale),
        config::geometry(scale),
        DriveKind::Ssd,
        config::EXEC,
    );
    let mut o_direct = false;
    if let Some(dir) = media {
        // A fresh instance needs fresh files: leftovers would reload as
        // blocks no superblock references.
        let _ = std::fs::remove_dir_all(dir);
        let backend = fs
            .attach_file_backend(dir, SyncPolicy::Barrier)
            .map_err(|e| format!("attach file backend under {}: {e}", dir.display()))?;
        o_direct = backend.o_direct();
    }
    Ok((fs, o_direct))
}

/// Write `n` blocks drawn from `gen` in batches of `batch`, a CP after each.
fn fill(fs: &Filesystem, ds: &mut DataSet, gen: &mut OpGen, n: u64, batch: u64) {
    let blocks = ds.shape.blocks();
    let mut left = n;
    while left > 0 {
        for _ in 0..batch.min(left) {
            let idx = gen.next(blocks);
            ds.write(fs, idx);
        }
        left -= batch.min(left);
        fs.run_cp();
    }
}

/// Build the workload's data set: every block written once front to back,
/// and for the aged workload overwritten once at random to fragment the
/// free space.
fn populate(fs: &Filesystem, w: Workload, shape: Shape, seed: u64) -> DataSet {
    let mut ds = DataSet::new(shape, seed);
    ds.create(fs);
    fill(
        fs,
        &mut ds,
        &mut OpGen::Sequential(0),
        shape.blocks(),
        shape.batch,
    );
    if w == Workload::RandOverwriteAged {
        let mut aging = OpGen::Random(Rng(seed ^ 0xa6ed));
        fill(fs, &mut ds, &mut aging, shape.blocks(), shape.batch);
    }
    ds
}

/// The correctness gate after the last CP: every acknowledged block reads
/// back from the media, parity holds in every allocation area, and the
/// block maps and free-space metadata are consistent.
fn verify_persisted(fs: &Filesystem, ds: &DataSet, checks: &mut Checks) {
    for idx in 0..ds.shape.blocks() {
        let (vol, file, fbn) = ds.locate(idx);
        let got = fs.read_persisted(vol, file, fbn);
        let want = ds.expected(idx);
        checks.check(got == want, || {
            format!("read_persisted: block {idx} holds {got:x?}, acknowledged {want:x?}")
        });
    }
    let geo = fs.io().geometry();
    for g in fs.io().raid_groups() {
        let rg = g.geometry().id;
        for index in 0..geo.aa_count(rg) {
            let dbns = geo.aa_dbn_range(wafl_blockdev::AaId { rg, index });
            let r = g.verify_parity(dbns.start, dbns.end);
            checks.check(r.is_ok(), || r.unwrap_err());
        }
    }
    let r = fs.verify_integrity();
    checks.check(r.is_ok(), || {
        format!("verify_integrity: {}", r.unwrap_err())
    });
    let r = fs.allocator().infra().aggmap().verify();
    checks.check(r.is_ok(), || format!("aggmap verify: {}", r.unwrap_err()));
}

/// Run one workload. Returns an error only when the harness itself cannot
/// run (e.g. the media directory cannot be created); failed checks are
/// counted in the result.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let w = args.workload;
    let shape = w.shape(args.scale);
    let media = (w == Workload::SeqWriteFile)
        .then(|| args.out_dir.join(format!("media-{}", std::process::id())));
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;

    // Set-up. The first instance built is the one measured; the repeats
    // that make `setup_s` a median are run at the very end, so that what
    // they leave in the allocator does not show in `peak_rss_mb`.
    let mut setup = Repeated::default();
    let t = Instant::now();
    let (fs, o_direct) = build_fs(args.scale, media.as_deref())?;
    let ds = populate(&fs, w, shape, args.seed);
    setup.push(t.elapsed());
    let media_fs = media
        .as_deref()
        .map_or_else(|| "memory".to_string(), crate::host::fs_type);

    let probes = if args.trace {
        probes::run_all(args.probe_budget, &args.out_dir)?
    } else {
        Probes::default()
    };

    let epoch = Instant::now();
    let tracer = Tracer::new(epoch, 0);
    let root = tracer.root();
    let mut client = Client {
        fs: &fs,
        ds,
        gen: OpGen::for_workload(w, args.seed),
        samples: Samples::default(),
        checks: Checks::default(),
        settling: Settling::default(),
        tracer,
        cycle: 0,
        ops_buf: Vec::with_capacity(shape.batch as usize),
    };
    let window = Duration::from_secs_f64(args.seconds);

    let measured = if w == Workload::OltpMix {
        let shared = CpShared::default();
        // The driver records only while `shared.trace` is set.
        let mut cp_tracer = Tracer::new(epoch, 1);
        cp_tracer.set_enabled(true);
        std::thread::scope(|s| {
            let driver = s.spawn(|| cp_driver(&fs, &shared, shape.batch, cp_tracer));
            // ordering: Relaxed — see `cp_driver`.
            client.oltp_phase(shape.batch, || shared.cps_done.load(Ordering::Relaxed) >= 1);
            client.tracer.set_enabled(args.trace);
            // ordering: Relaxed — see `cp_driver`.
            shared.trace.store(args.trace, Ordering::Relaxed);
            let t0 = Instant::now();
            let mut measured = client.oltp_phase(shape.batch, || t0.elapsed() >= window);
            // ordering: Relaxed — see `cp_driver`.
            shared.stop.store(true, Ordering::Relaxed);
            let (cps, mut cp_tracer) = driver.join().expect("CP driver panicked");
            cp_tracer.set_window(measured.start.t_ns, measured.end.t_ns);
            client.tracer.merge(cp_tracer);
            // A CP belongs to the window it was committed in.
            measured.cps = cps
                .into_iter()
                .filter(|c| c.end_ns > measured.start.t_ns && c.end_ns <= measured.end.t_ns)
                .collect();
            measured
        })
    } else {
        client.batch_phase(shape.batch, Duration::ZERO);
        client.tracer.set_enabled(args.trace);
        client.batch_phase(shape.batch, window)
    };
    client
        .tracer
        .set_window(measured.start.t_ns, measured.end.t_ns);
    let mut samples = std::mem::take(&mut client.samples);

    // The correctness gate, then the simulated crash: half a batch that no
    // CP covers, power loss, recovery, and every acknowledged write read
    // back from the recovered instance.
    let v0 = client.tracer.now();
    fs.run_cp();
    verify_persisted(&fs, &client.ds, &mut client.checks);
    let v1 = client.tracer.now();
    client.tracer.span("verify", root, client.cycle, v0, v1);
    let blocks = shape.blocks();
    for _ in 0..shape.batch / 2 {
        let idx = client.gen.next(blocks);
        client.ds.write(&fs, idx);
    }
    if media.is_some() {
        fs.io().crash_mirror();
    }
    let mut recover = Repeated::default();
    loop {
        let r0 = client.tracer.now();
        let recovered = match media.as_deref() {
            Some(dir) => fs.remount_from_files(dir, config::EXEC)?,
            None => fs.crash_and_recover(config::EXEC),
        };
        let r1 = client.tracer.now();
        client.tracer.span("remount", root, client.cycle, r0, r1);
        recover.push(Duration::from_nanos(r1 - r0));
        if recover.enough() {
            for idx in 0..blocks {
                let got = client.ds.read(&recovered, idx);
                let want = client.ds.expected(idx);
                client.checks.check(got == want, || {
                    format!(
                        "read after recovery: block {idx} holds {got:x?}, acknowledged {want:x?}"
                    )
                });
            }
            break;
        }
    }
    let Client { checks, tracer, .. } = client;
    drop(fs);
    let peak_rss_mb = crate::host::peak_rss_mib();
    while !setup.enough() {
        let t = Instant::now();
        let (fs, _) = build_fs(args.scale, media.as_deref())?;
        populate(&fs, w, shape, args.seed);
        setup.push(t.elapsed());
    }
    if let Some(dir) = media.as_deref() {
        let _ = std::fs::remove_dir_all(dir);
    }

    if args.trace {
        let path = args.out_dir.join(format!("trace-{}.json", w.name()));
        std::fs::write(&path, tracer.to_json(w.name()))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }

    samples.ack_ns.sort_unstable();
    let Checks {
        mut attempted,
        mut failed,
        mut failures,
        ..
    } = checks;
    let mut metrics = end_to_end(
        &measured,
        &samples,
        setup.median_s(),
        recover.median_s() * 1e3,
        peak_rss_mb,
    );
    if args.trace {
        // The device path's own rows: this run's when it is the file-backed
        // workload, else those of a short untraced run of it.
        let file = if w == Workload::SeqWriteFile {
            metrics
        } else {
            let r = run(&RunArgs {
                workload: Workload::SeqWriteFile,
                seconds: args.seconds.min(FILE_SECTION_S),
                trace: false,
                ..args.clone()
            })?;
            attempted += r.attempted;
            failed += r.failed;
            failures.extend(r.failures);
            r.metrics
        };
        let recording_s = tracer.recording_ns() as f64 / 1e9;
        metrics = per_layer(&measured, &samples, recording_s, &probes, &file);
    }
    Ok(RunResult {
        attempted,
        failed,
        failures,
        metrics,
        media_fs,
        o_direct,
    })
}

fn cp_wall_ms_sorted(p: &Phase) -> Vec<f64> {
    let mut ms: Vec<f64> = p
        .cps
        .iter()
        .map(|c| (c.end_ns - c.start_ns) as f64 / 1e6)
        .collect();
    ms.sort_by(f64::total_cmp);
    ms
}

fn end_to_end(
    p: &Phase,
    samples: &Samples,
    setup_s: f64,
    recover_ms: f64,
    peak_rss_mb: f64,
) -> Values {
    let bufs = p.buffers();
    let (a, b) = (&p.start, &p.end);
    let stripes = (b.full_stripes - a.full_stripes + b.partial_stripes - a.partial_stripes) as f64;
    let dev_blocks = (b.io.blocks_written - a.io.blocks_written) as f64;
    Values::from([
        ("setup_s", setup_s),
        ("ops_per_s", p.ops_per_s()),
        ("buffers_per_s", per(bufs, p.wall_s())),
        ("cp_ms_p50", percentile(&cp_wall_ms_sorted(p), 0.5)),
        ("ack_ns_p50", median_band(&samples.ack_ns)),
        ("cpu_s_per_mbuf", per(b.cpu_s - a.cpu_s, bufs / 1e6)),
        ("dev_blocks_per_buf", per(dev_blocks, bufs)),
        (
            "stripe_fill_ratio",
            per(dev_blocks, stripes * f64::from(config::DATA_DRIVES)),
        ),
        (
            "fresh_read_ratio",
            1.0 - per(p.stale_reads as f64, p.reads as f64),
        ),
        ("peak_rss_mb", peak_rss_mb),
        ("recover_ms", recover_ms),
    ])
}

fn per_layer(
    p: &Phase,
    samples: &Samples,
    recording_s: f64,
    probes: &Probes,
    file: &Values,
) -> Values {
    let bufs = p.buffers();
    let kbufs = bufs / 1e3;
    let cps = p.cps.len() as f64;
    let (a, b) = (&p.start, &p.end);
    // Counter deltas over the window.
    macro_rules! d {
        ($($field:tt)+) => {
            (b.$($field)+ - a.$($field)+) as f64
        };
    }
    let sum = |f: fn(&CpReport) -> u64| p.cps.iter().map(|c| f(&c.report) as f64).sum::<f64>();
    let phase_ns: [f64; 6] = std::array::from_fn(|i| {
        p.cps
            .iter()
            .map(|c| c.report.phase_ns()[i] as f64)
            .sum::<f64>()
    });
    let total_ns = sum(|r| r.total_ns);
    let msgs = sum(|r| r.cleaner_messages as u64);
    let blocks_written = d!(io.blocks_written);
    // What the probed layers predict the cleaner threads spent in them:
    // GET and PUT per bucket, USE per buffer, the staged free per freed
    // block. PUT as probed contains the tetris deposit and the hand-off to
    // the async engine; the RAID write itself runs on the engine's workers,
    // not on a cleaner.
    let predicted_ns = d!(alloc.gets) * probes.cache_get
        + d!(alloc.uses) * probes.bucket_use
        + d!(alloc.puts) * probes.allocator_put
        + d!(alloc.vbns_freed) * probes.stage_free;
    let mut v = Values::from([
        (
            "wafl.fs.write_ns",
            per(samples.write_ns as f64, samples.writes as f64),
        ),
        (
            "wafl.fs.read_ns",
            per(samples.read_ns as f64, samples.reads as f64),
        ),
        ("wafl.fs.ack_ns_p99", percentile(&samples.ack_ns, 0.99)),
        ("wafl.fs.ack_ns_p999", percentile(&samples.ack_ns, 0.999)),
        (
            "wafl.fs.stale_read_ratio",
            per(p.stale_reads as f64, p.reads as f64),
        ),
        (
            "wafl.nvlog.stall_frac",
            per(p.stall_ns as f64 / 1e9, p.wall_s()),
        ),
        ("wafl.nvlog.stalls", p.stalls as f64),
        ("wafl.cp.freeze_ns_per_buf", per(phase_ns[0], bufs)),
        ("wafl.cp.clean_ns_per_buf", per(phase_ns[1], bufs)),
        ("wafl.cp.apply_ns_per_buf", per(phase_ns[2], bufs)),
        ("wafl.cp.metafile_ns_per_buf", per(phase_ns[3], bufs)),
        ("wafl.cp.barrier_ns_per_buf", per(phase_ns[4], bufs)),
        ("wafl.cp.commit_ns_per_buf", per(phase_ns[5], bufs)),
        ("wafl.cp.coverage", per(phase_ns.iter().sum(), total_ns)),
        (
            "wafl.cp.total_ms_p95",
            percentile(&cp_wall_ms_sorted(p), 0.95),
        ),
        ("wafl.cp.bufs_per_cp", per(bufs, cps)),
        (
            "wafl.cp.fixpoint_rounds_per_cp",
            per(sum(|r| r.fixpoint_rounds as u64), cps),
        ),
        (
            "wafl.cp.mf_blocks_per_kbuf",
            per(sum(|r| r.metafile_blocks_written as u64), kbufs),
        ),
        (
            "wafl.cleaner.busy_ns_per_buf",
            per(d!(cleaner_busy_ns), bufs),
        ),
        (
            "wafl.cleaner.util",
            per(d!(cleaner_busy_ns), phase_ns[1] * config::CLEANERS as f64),
        ),
        ("wafl.cleaner.msgs_per_cp", per(msgs, cps)),
        ("wafl.cleaner.bufs_per_msg", per(bufs, msgs)),
        (
            "alligator.cache.bufs_per_get",
            per(d!(alloc.uses), d!(alloc.gets)),
        ),
        (
            "alligator.cache.stall_ratio",
            per(d!(alloc.get_stalls), d!(alloc.gets)),
        ),
        (
            "alligator.cache.steal_ratio",
            per(
                d!(alloc.cache_get_steal),
                d!(alloc.cache_get_fast) + d!(alloc.cache_get_steal),
            ),
        ),
        (
            "alligator.cache.get_wait_ns_per_buf",
            per(d!(alloc.get_wait_ns), bufs),
        ),
        (
            "alligator.allocator.commit_wait_ns_per_put",
            per(d!(alloc.commit_queue_wait_ns), d!(alloc.puts)),
        ),
        (
            "alligator.allocator.commit_ns_per_put",
            per(d!(alloc.commit_batch_ns), d!(alloc.puts)),
        ),
        (
            "alligator.allocator.commit_queue_peak",
            b.alloc.put_commit_queue_len as f64,
        ),
        (
            "alligator.infra.refills_per_kbuf",
            per(d!(alloc.refill_rounds), kbufs),
        ),
        (
            "alligator.infra.aa_switches_per_kbuf",
            per(d!(alloc.aa_switches), kbufs),
        ),
        (
            "alligator.infra.released_ratio",
            per(d!(alloc.vbns_released), d!(alloc.vbns_reserved)),
        ),
        (
            "alligator.stage.frees_per_buf",
            per(d!(alloc.vbns_freed), bufs),
        ),
        (
            "alligator.stage.commits_per_kbuf",
            per(d!(alloc.stage_commits), kbufs),
        ),
        (
            "alligator.tetris.blocks_per_io",
            per(blocks_written, d!(alloc.tetris_ios)),
        ),
        ("waffinity.pool.msgs_per_kbuf", per(d!(waff_msgs), kbufs)),
        (
            "blockdev.raid.full_stripe_ratio",
            per(d!(full_stripes), d!(full_stripes) + d!(partial_stripes)),
        ),
        (
            "blockdev.raid.parity_reads_per_buf",
            per(d!(io.parity_reads), bufs),
        ),
        (
            "blockdev.aio.s2c_us",
            per(d!(aio_s2c_ns) / 1e3, d!(aio_completed)),
        ),
        ("blockdev.aio.depth_peak", b.aio_depth_peak as f64),
        ("blockdev.file.buffers_per_s", file["buffers_per_s"]),
        ("blockdev.file.cp_ms_p50", file["cp_ms_p50"]),
        ("blockdev.file.cpu_s_per_mbuf", file["cpu_s_per_mbuf"]),
        ("blockdev.file.recover_ms", file["recover_ms"]),
        ("traced_ops_per_s", p.ops_per_s()),
        ("trace_recording_frac", per(recording_s, p.wall_s())),
        ("ledger_coverage", per(predicted_ns, d!(cleaner_busy_ns))),
    ]);
    v.extend(probes.named());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_write_settles_once_the_third_cp_after_its_tag_has_started() {
        let mut s = Settling {
            floor: vec![1, 1],
            acks: VecDeque::from([(0, 2, 5), (1, 2, 6), (0, 3, 6)]),
        };
        s.settle(7);
        assert_eq!(s.floor, [1, 1]);
        s.settle(8);
        assert_eq!(s.floor, [2, 1]);
        s.settle(9);
        assert_eq!(s.floor, [3, 2]);
        assert!(s.acks.is_empty());
    }
}
