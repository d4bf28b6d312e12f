//! The `*_probe_ns` loops: each layer's public functions called directly
//! from this file, on one thread, in the shape the workloads use them
//! (bucket chunk 64, RAID width 4, GET batch 4), and timed around the
//! call. Work that only resets a fixture (handing buckets back, draining
//! queues, freeing what was allocated) is left outside the timed part.
//!
//! A probe's value is the median over [`REPEATS`] slices of
//! (timed nanoseconds / operations).

use crate::config;
use crate::metrics::Values;
use crate::rng::Rng;
use alligator::{AllocConfig, AllocStats, Allocator, InlineExecutor, Tetris};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use waffinity::{Model, Topology, WaffinityPool};
use wafl::{FileId, Filesystem, NvLog, Op, VolumeId};
use wafl_blockdev::{
    AioEngine, BlockStamp, DriveKind, FileBackend, IoEngine, RaidGroupId, SyncPolicy, Vbn, WriteIo,
    WriteSegment,
};
use wafl_metafile::{ActiveMap, AggregateMap, LooseCounter};

/// Slices per probe; the reported value is their median.
pub const REPEATS: u32 = 5;
/// Bucket length (`AllocConfig::default().chunk_blocks`).
const CHUNK: u64 = 64;
/// Data drives per RAID group.
const WIDTH: u32 = config::DATA_DRIVES;
/// Buckets per GET (`CleanerConfig::default().get_batch`).
const GET_BATCH: usize = 4;
/// Data-set divisor of the probe fixtures: drives of 16 384 blocks.
const FIXTURE_SCALE: u64 = 16;
/// Divisor of the file-backend fixture: drives of 4 096 blocks (16 MiB
/// files), so one `load_into` stays in the tens of milliseconds.
const FILE_FIXTURE_SCALE: u64 = 64;
/// Share of an aged bitmap that is in use.
const AGED_USED: f64 = 0.75;

/// Every probe's result, nanoseconds per operation unless named `_us`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Probes {
    /// `NvLog::log`, per op.
    pub nvlog_log: f64,
    /// `Allocator::get_bucket_many(_, 4)` on a non-empty cache, per bucket.
    pub cache_get: f64,
    /// `Bucket::use_vbn`, per buffer.
    pub bucket_use: f64,
    /// `Allocator::put_bucket` as a cleaner sees it (tetris deposit, the
    /// fire of every fourth bucket, the commit enqueue), per bucket.
    pub allocator_put: f64,
    /// `Infrastructure::refill_round` over empty AAs, per VBN reserved.
    pub refill_empty: f64,
    /// The same over a 75 %-full fragmented map.
    pub refill_aged: f64,
    /// `Allocator::free_vbn` + `flush_stage` as a cleaner sees them, per VBN.
    pub stage_free: f64,
    /// `Tetris::deposit_and_complete` of a 4 × 64 tetris handed to the
    /// async engine, per block.
    pub tetris_deposit: f64,
    /// `ActiveMap::reserve_scan` over an empty map, per bit found.
    pub scan_empty: f64,
    /// The same over a 75 %-full fragmented map.
    pub scan_aged: f64,
    /// `AggregateMap::select_aa`, per call (512 AAs).
    pub select_aa: f64,
    /// `LooseToken::add`, per call.
    pub loose_add: f64,
    /// `WaffinityPool::call` on 2 workers, per round trip.
    pub pool_roundtrip: f64,
    /// `RaidGroup::write` covering 4 of 4 drives, per block.
    pub raid_full_write: f64,
    /// `RaidGroup::write` covering 1 of 4 drives, per block.
    pub raid_partial_write: f64,
    /// `IoEngine::submit_write` without an async engine, per block.
    pub io_submit: f64,
    /// `AioEngine::submit`, per block.
    pub aio_submit: f64,
    /// `AioEngine::drain` of 8 queued stripes, microseconds per drain.
    pub aio_drain_us: f64,
    /// `FileBackend::apply_write` of a 4 × 64-block stripe, per block.
    pub file_write: f64,
    /// `FileBackend::sync_all` after 8 such stripes, microseconds.
    pub file_sync_us: f64,
    /// `FileBackend::load_into`, per block of the geometry.
    pub file_load: f64,
    /// `LogHistogram::record`, per sample.
    pub hist_record: f64,
    /// `Counter::inc`, per call.
    pub counter_inc: f64,
}

impl Probes {
    /// The probes under their per-layer metric names.
    pub fn named(&self) -> Values {
        Values::from([
            ("wafl.nvlog.log_probe_ns", self.nvlog_log),
            ("alligator.cache.get_probe_ns", self.cache_get),
            ("alligator.bucket.use_probe_ns", self.bucket_use),
            ("alligator.allocator.put_probe_ns", self.allocator_put),
            ("alligator.infra.refill_probe_ns_empty", self.refill_empty),
            ("alligator.infra.refill_probe_ns_aged", self.refill_aged),
            ("alligator.stage.free_probe_ns", self.stage_free),
            ("alligator.tetris.deposit_probe_ns", self.tetris_deposit),
            ("metafile.activemap.scan_probe_ns_empty", self.scan_empty),
            ("metafile.activemap.scan_probe_ns_aged", self.scan_aged),
            ("metafile.aggmap.select_aa_probe_ns", self.select_aa),
            ("metafile.loose.add_probe_ns", self.loose_add),
            ("waffinity.pool.roundtrip_probe_ns", self.pool_roundtrip),
            ("blockdev.raid.full_write_probe_ns", self.raid_full_write),
            (
                "blockdev.raid.partial_write_probe_ns",
                self.raid_partial_write,
            ),
            ("blockdev.io.submit_probe_ns", self.io_submit),
            ("blockdev.aio.submit_probe_ns", self.aio_submit),
            ("blockdev.aio.drain_probe_us", self.aio_drain_us),
            ("blockdev.file.write_probe_ns_per_block", self.file_write),
            ("blockdev.file.sync_probe_us", self.file_sync_us),
            ("blockdev.file.load_probe_ns_per_block", self.file_load),
            ("obs.hist_record_probe_ns", self.hist_record),
            ("obs.counter_inc_probe_ns", self.counter_inc),
        ])
    }
}

/// One timed part of a probe round: how long, over how many operations.
type Timed = (Duration, u64);

/// Run `round` for `budget`, split into [`REPEATS`] slices, and return for
/// each of its `N` timed parts the median nanoseconds per operation.
fn measure<const N: usize>(budget: Duration, mut round: impl FnMut() -> [Timed; N]) -> [f64; N] {
    let slice = budget / REPEATS;
    let mut per_op = [const { Vec::new() }; N];
    for _ in 0..REPEATS {
        let mut total = [(Duration::ZERO, 0u64); N];
        let t0 = Instant::now();
        loop {
            for (sum, part) in total.iter_mut().zip(round()) {
                sum.0 += part.0;
                sum.1 += part.1;
            }
            if t0.elapsed() >= slice {
                break;
            }
        }
        for (out, (ns, ops)) in per_op.iter_mut().zip(total) {
            out.push(ns.as_nanos() as f64 / ops.max(1) as f64);
        }
    }
    per_op.map(|mut v| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    })
}

/// Time one call.
fn timed<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed(), r)
}

fn stamp(i: u64) -> BlockStamp {
    wafl_blockdev::stamp(0x70_726f_6265, i, 1)
}

/// A full-width write of [`CHUNK`] stripes starting at `dbn` on `rg`.
fn stripe_io(rg: RaidGroupId, dbn: u64) -> WriteIo {
    WriteIo {
        rg,
        segments: (0..WIDTH)
            .map(|d| WriteSegment {
                drive_in_rg: d,
                start_dbn: dbn,
                stamps: (0..CHUNK).map(|i| stamp(dbn + i)).collect(),
            })
            .collect(),
    }
}

/// `RaidGroup::write` input covering `drives` of the group's drives.
fn raid_maps(drives: u32, dbn: u64) -> Vec<BTreeMap<u64, BlockStamp>> {
    (0..WIDTH)
        .map(|d| {
            if d < drives {
                (dbn..dbn + CHUNK).map(|b| (b, stamp(b))).collect()
            } else {
                BTreeMap::new()
            }
        })
        .collect()
}

/// The indices in `0..n` an aged bitmap has in use: [`AGED_USED`] of them,
/// picked at random from a fixed seed.
fn aged_used(n: u64) -> impl Iterator<Item = u64> {
    let mut rng = Rng(0xa6ed);
    (0..n).filter(move |_| (rng.next_u64() as f64 / u64::MAX as f64) < AGED_USED)
}

/// An inline-executor allocator over the fixture geometry, with
/// [`AGED_USED`] of its blocks adopted at random when `aged`.
fn inline_allocator(aged: bool) -> Arc<Allocator> {
    let geo = Arc::new(config::geometry(FIXTURE_SCALE));
    let aggmap = Arc::new(AggregateMap::new(Arc::clone(&geo)));
    if aged {
        for v in aged_used(geo.total_vbns()) {
            aggmap.adopt_used(Vbn(v)).expect("fresh map");
        }
    }
    let io = Arc::new(IoEngine::new(geo, DriveKind::Ssd));
    let topo = Arc::new(Topology::symmetric(Model::Hierarchical, 1, 8, 8, 8));
    Allocator::new(
        AllocConfig::default(),
        aggmap,
        io,
        Arc::new(InlineExecutor),
        topo,
        0,
    )
}

/// `refill_round`, per VBN reserved; the buckets are retired (their
/// reservations released) outside the timed part.
fn refill(budget: Duration, aged: bool) -> f64 {
    let alloc = inline_allocator(aged);
    let [ns] = measure(budget, || {
        let before = alloc.stats().vbns_reserved;
        let (d, _) = timed(|| alloc.infra().refill_round(alloc.cache()));
        let reserved = alloc.stats().vbns_reserved - before;
        alloc.flush_cache();
        [(d, reserved)]
    });
    ns
}

/// `reserve_scan` over AA-sized windows of a 1 Mi-bit map, per bit found.
fn scan(budget: Duration, aged: bool) -> f64 {
    const BITS: u64 = 1 << 20;
    let map = ActiveMap::new(BITS);
    if aged {
        for b in aged_used(BITS) {
            map.reserve(b).expect("fresh map");
        }
    }
    let mut start = 0;
    let [ns] = measure(budget, || {
        let (d, found) =
            timed(|| map.reserve_scan(start, start + config::AA_STRIPES, CHUNK as usize));
        for &b in &found {
            map.release(b).expect("just reserved");
        }
        start = (start + config::AA_STRIPES) % BITS;
        [(d, found.len() as u64)]
    });
    ns
}

/// GET, USE, PUT and the staged free against the allocator of a real
/// `Filesystem` (pool executor, async engine), as a cleaner thread calls
/// them.
fn allocator_cycle(budget: Duration, p: &mut Probes) {
    let fs = Filesystem::new(
        config::fs_config(FIXTURE_SCALE),
        config::geometry(FIXTURE_SCALE),
        DriveKind::Ssd,
        config::EXEC,
    );
    let alloc = fs.allocator();
    let settle = || {
        alloc.drain();
        alloc.infra().drain_io();
    };

    // GET with the cache kept non-empty: every bucket goes straight back.
    let warm = alloc
        .get_bucket_many(0, GET_BATCH)
        .expect("empty aggregate");
    warm.into_iter().for_each(|b| alloc.requeue_bucket(b));
    settle();
    [p.cache_get] = measure(budget, || {
        let (d, got) = timed(|| {
            alloc
                .get_bucket_many(0, GET_BATCH)
                .expect("empty aggregate")
        });
        let n = got.len() as u64;
        got.into_iter().for_each(|b| alloc.requeue_bucket(b));
        [(d, n)]
    });

    // USE fills the buckets of one GET, PUT returns them, and once the
    // commits have run the same VBNs are freed through a stage, which
    // keeps the fixture's free space steady.
    [p.bucket_use, p.allocator_put, p.stage_free] = measure(budget, || {
        let mut buckets = alloc
            .get_bucket_many(0, GET_BATCH)
            .expect("empty aggregate");
        let (used, uses) = timed(|| {
            let mut n = 0;
            for b in &mut buckets {
                while b.use_vbn(stamp(n)).is_some() {
                    n += 1;
                }
            }
            n
        });
        let consumed: Vec<Vbn> = buckets
            .iter()
            .flat_map(|b| b.consumed().iter().copied())
            .collect();
        let puts = buckets.len() as u64;
        let (put, ()) = timed(|| buckets.into_iter().for_each(|b| alloc.put_bucket(b)));
        settle();
        let (freed, ()) = timed(|| {
            let mut stage = alloc.new_stage();
            for &v in &consumed {
                alloc.free_vbn(&mut stage, v);
            }
            alloc.flush_stage(&mut stage);
        });
        settle();
        [(used, uses), (put, puts), (freed, consumed.len() as u64)]
    });
}

/// The tetris and the async engine: deposits that fire into the engine,
/// then raw submits and the drain.
fn tetris_and_aio(budget: Duration, p: &mut Probes) {
    let geo = Arc::new(config::geometry(FIXTURE_SCALE));
    let blocks = geo.raid_groups()[0].blocks_per_drive;
    let io = Arc::new(IoEngine::new(geo, DriveKind::Ssd));
    let aio = AioEngine::new(Arc::clone(&io), config::IO_QUEUE_DEPTH);
    io.set_aio(&aio);
    let stats = Arc::new(AllocStats::default());
    let rg = RaidGroupId(0);
    let mut dbn = 0;
    let mut advance = move || {
        dbn = (dbn + CHUNK) % blocks;
        dbn
    };

    [p.tetris_deposit] = measure(budget, || {
        let at = advance();
        let tetris = Tetris::new(rg, WIDTH as usize, Arc::clone(&io), Arc::clone(&stats));
        let deposits: Vec<Vec<(u64, BlockStamp)>> = (0..WIDTH)
            .map(|_| (at..at + CHUNK).map(|b| (b, stamp(b))).collect())
            .collect();
        let (d, ()) = timed(|| {
            for (drive, writes) in deposits.into_iter().enumerate() {
                black_box(tetris.deposit_and_complete(drive as u32, writes));
            }
        });
        aio.drain();
        [(d, u64::from(WIDTH) * CHUNK)]
    });

    [p.aio_submit, p.aio_drain_us] = measure(budget, || {
        let ios: Vec<WriteIo> = (0..config::IO_QUEUE_DEPTH)
            .map(|_| stripe_io(rg, advance()))
            .collect();
        let n = ios.len() as u64 * u64::from(WIDTH) * CHUNK;
        let (submit, ()) = timed(|| {
            for wio in ios {
                aio.submit(wio).expect("engine is alive");
            }
        });
        let (drain, _) = timed(|| aio.drain());
        [(submit, n), (drain, 1)]
    });
    p.aio_drain_us /= 1e3;
}

/// `RaidGroup::write` and `IoEngine::submit_write`, synchronous.
fn raid_and_io(budget: Duration, p: &mut Probes) {
    let io = IoEngine::new(Arc::new(config::geometry(FIXTURE_SCALE)), DriveKind::Ssd);
    let g = io.raid_group(RaidGroupId(0));
    let full = raid_maps(WIDTH, 0);
    [p.raid_full_write] = measure(budget, || {
        let (d, r) = timed(|| g.write(&full));
        r.expect("healthy group");
        [(d, u64::from(WIDTH) * CHUNK)]
    });
    let partial = raid_maps(1, CHUNK);
    [p.raid_partial_write] = measure(budget, || {
        let (d, r) = timed(|| g.write(&partial));
        r.expect("healthy group");
        [(d, CHUNK)]
    });
    let wio = stripe_io(RaidGroupId(1), 0);
    [p.io_submit] = measure(budget, || {
        let (d, r) = timed(|| io.submit_write(&wio));
        r.expect("healthy group");
        [(d, wio.blocks())]
    });
}

/// `FileBackend` under `dir`: stripe writes with a barrier every 8, then
/// the remount load.
fn file_backend(budget: Duration, dir: &Path, p: &mut Probes) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let geo = Arc::new(config::geometry(FILE_FIXTURE_SCALE));
    let blocks = geo.raid_groups()[0].blocks_per_drive;
    let backend = FileBackend::open(dir, &geo, SyncPolicy::Barrier)
        .map_err(|e| format!("open file backend under {}: {e}", dir.display()))?;
    let mut dbn = 0;
    [p.file_write, p.file_sync_us] = measure(budget, || {
        let mut write = Duration::ZERO;
        for _ in 0..config::IO_QUEUE_DEPTH {
            let wio = stripe_io(RaidGroupId(0), dbn);
            dbn = (dbn + CHUNK) % blocks;
            let (d, r) = timed(|| backend.apply_write(&wio));
            r.expect("file backend write");
            write += d;
        }
        let (sync, r) = timed(|| backend.sync_all());
        r.expect("file backend sync");
        let n = config::IO_QUEUE_DEPTH as u64 * u64::from(WIDTH) * CHUNK;
        [(write, n), (sync, 1)]
    });
    p.file_sync_us /= 1e3;
    [p.file_load] = measure(budget, || {
        let fresh = IoEngine::new(Arc::clone(&geo), DriveKind::Ssd);
        let (d, r) = timed(|| backend.load_into(&fresh));
        r.expect("file backend load");
        [(d, geo.total_vbns())]
    });
    drop(backend);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

/// Run every probe, spending about `budget` on each; the file-backend
/// probes keep their files under `out_dir` and remove them afterwards.
pub fn run_all(budget: Duration, out_dir: &Path) -> Result<Probes, String> {
    let mut p = Probes::default();

    let log = NvLog::new();
    [p.nvlog_log] = measure(budget, || {
        const OPS: u64 = 16_384;
        let (d, ()) = timed(|| {
            for fbn in 0..OPS {
                log.log(Op::Write {
                    vol: VolumeId(0),
                    file: FileId(1),
                    fbn,
                    stamp: stamp(fbn),
                });
            }
        });
        log.freeze();
        log.commit_cp();
        [(d, OPS)]
    });

    allocator_cycle(budget, &mut p);
    p.refill_empty = refill(budget, false);
    p.refill_aged = refill(budget, true);
    tetris_and_aio(budget, &mut p);
    p.scan_empty = scan(budget, false);
    p.scan_aged = scan(budget, true);

    let aggmap = AggregateMap::new(Arc::new(config::geometry(1)));
    [p.select_aa] = measure(budget, || {
        const CALLS: u64 = 64;
        let (d, ()) = timed(|| {
            for _ in 0..CALLS {
                black_box(aggmap.select_aa(black_box(RaidGroupId(0))));
            }
        });
        [(d, CALLS)]
    });

    let counter = LooseCounter::new(0);
    let mut token = counter.token(CHUNK as i64);
    [p.loose_add] = measure(budget, || {
        const CALLS: u64 = 4096;
        let (d, ()) = timed(|| {
            for _ in 0..CALLS {
                token.add(black_box(1));
            }
        });
        [(d, CALLS)]
    });

    let topo = Arc::new(Topology::symmetric(Model::Hierarchical, 1, 8, 8, 8));
    let pool = WaffinityPool::new(Arc::clone(&topo), 2);
    let range = topo.aggr_range_for(0, 0);
    [p.pool_roundtrip] = measure(budget, || {
        let (d, ()) = timed(|| pool.call(range, || ()));
        [(d, 1)]
    });
    pool.shutdown();

    raid_and_io(budget, &mut p);
    file_backend(
        budget,
        &out_dir.join(format!("probe-media-{}", std::process::id())),
        &mut p,
    )?;

    let hist = obs::LogHistogram::new();
    let registry = obs::Registry::new();
    let inc = registry.counter("probe");
    [p.hist_record, p.counter_inc] = measure(budget, || {
        const CALLS: u64 = 4096;
        let (h, ()) = timed(|| {
            for v in 0..CALLS {
                hist.record(black_box(v));
            }
        });
        let (c, ()) = timed(|| {
            for _ in 0..CALLS {
                black_box(&inc).inc();
            }
        });
        [(h, CALLS), (c, CALLS)]
    });
    Ok(p)
}
