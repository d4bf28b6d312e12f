//! Allocator integration tests: full Figure 2 cycles against the real
//! substrate, immediate-refill mode, and starvation/exhaustion edges.

use alligator::{AllocConfig, Allocator, InlineExecutor, PoolExecutor, ReinsertPolicy};
use std::sync::Arc;
use waffinity::{Affinity, Model, Topology, WaffinityPool};
use wafl_blockdev::{AioEngine, DriveKind, GeometryBuilder, IoEngine, Vbn};
use wafl_metafile::AggregateMap;

/// An allocator over a fresh aggregate, and the async engine its
/// stripes go through.
fn stack(cfg: AllocConfig, blocks_per_drive: u64) -> (Arc<Allocator>, Arc<AioEngine>) {
    let geo = Arc::new(
        GeometryBuilder::new()
            .aa_stripes(64)
            .raid_group(3, 1, blocks_per_drive)
            .build(),
    );
    let aggmap = Arc::new(AggregateMap::new(Arc::clone(&geo)));
    let io = Arc::new(IoEngine::new(geo, DriveKind::Ssd));
    let aio = AioEngine::new(Arc::clone(&io), 8);
    let topo = Arc::new(Topology::symmetric(Model::Hierarchical, 1, 1, 4, 4));
    let a = Allocator::new(cfg, aggmap, io, Arc::new(InlineExecutor), topo, 0);
    (a, aio)
}

#[test]
fn figure2_cycle_step_by_step() {
    // Walk the exact steps of Figure 2 and observe each one.
    let (alloc, aio) = stack(AllocConfig::with_chunk(16), 4096);

    // Step 1: infrastructure fills buckets into the bucket cache.
    alloc.request_refill();
    alloc.drain();
    assert!(alloc.cache().len() >= 3, "one bucket per data drive");

    // Step 2: GET.
    let mut bucket = alloc.get_bucket().expect("cache warm");
    let before_stats = alloc.stats();
    assert!(before_stats.gets >= 1);

    // Step 3: USE assigns VBNs and records buffers for the tetris.
    let mut vbns = Vec::new();
    while let Some(v) = bucket.use_vbn(0xD00D + vbns.len() as u128) {
        vbns.push(v);
    }
    assert_eq!(vbns.len(), 16);

    // Steps 4–5: PUT deposits into the tetris and queues the commit.
    alloc.put_bucket(bucket);

    // Step 4 completes when the tetris's sibling buckets finish: retire
    // the cached siblings to close the round.
    // Step 6: infrastructure commits the metafile updates.
    alloc.flush_cache();
    let s = alloc.stats();
    assert_eq!(s.vbns_committed, 16);
    assert!(s.tetris_ios >= 1, "the round's write I/O was sent to RAID");
    assert!(alloc.infra().drain_io() >= 1, "and completed");
    for (i, v) in vbns.iter().enumerate() {
        assert_eq!(aio.io().read_vbn(*v).unwrap(), 0xD00D + i as u128);
        assert!(alloc.infra().aggmap().is_used(*v));
    }
    alloc.infra().aggmap().verify().unwrap();
}

#[test]
fn immediate_mode_full_cycle_is_functionally_correct() {
    let mut cfg = AllocConfig::with_chunk(32);
    cfg.reinsert = ReinsertPolicy::Immediate;
    let (alloc, aio) = stack(cfg, 4096);
    let mut total = 0u64;
    for round in 0..20 {
        let Some(mut b) = alloc.get_bucket() else {
            break;
        };
        while b.use_vbn(round as u128 + 1).is_some() {
            total += 1;
        }
        alloc.put_bucket(b);
        alloc.drain();
    }
    assert!(total >= 20 * 32);
    // Retire cached buckets (plain PUT would re-refill forever in
    // Immediate mode), then audit.
    alloc.flush_cache();
    alloc.stats().check_conservation(0).unwrap();
    alloc.infra().drain_io();
    aio.io().scrub().unwrap();
}

#[test]
fn frees_reopen_an_exhausted_aggregate() {
    let (alloc, _aio) = stack(AllocConfig::with_chunk(64), 128);
    let mut live: Vec<Vbn> = Vec::new();
    while let Some(mut b) = alloc.get_bucket() {
        while let Some(v) = b.use_vbn(7) {
            live.push(v);
        }
        alloc.put_bucket(b);
    }
    alloc.drain();
    assert_eq!(live.len(), 3 * 128, "every block consumed");
    assert!(alloc.get_bucket().is_none());
    // Free half; allocation resumes.
    let mut stage = alloc.new_stage();
    for v in live.drain(..192) {
        alloc.free_vbn(&mut stage, v);
    }
    alloc.flush_stage(&mut stage);
    alloc.drain();
    let b = alloc.get_bucket().expect("space recovered");
    assert!(!b.is_empty());
    alloc.put_bucket(b);
    alloc.drain();
    alloc.infra().aggmap().verify().unwrap();
}

#[test]
fn parallel_infra_uses_multiple_range_affinities() {
    let topo = Arc::new(Topology::symmetric(Model::Hierarchical, 1, 1, 4, 8));
    let pool = Arc::new(WaffinityPool::new(Arc::clone(&topo), 2));
    let geo = Arc::new(
        GeometryBuilder::new()
            .aa_stripes(512)
            // Big drives so commit messages span several metafile blocks.
            .raid_group(3, 1, 400_000)
            .build(),
    );
    let aggmap = Arc::new(AggregateMap::new(Arc::clone(&geo)));
    let io = Arc::new(IoEngine::new(geo, DriveKind::Ssd));
    let _aio = AioEngine::new(Arc::clone(&io), 8);
    let alloc = Allocator::new(
        AllocConfig::with_chunk(64),
        aggmap,
        io,
        Arc::new(PoolExecutor::new(Arc::clone(&pool))),
        Arc::clone(&topo),
        0,
    );
    for _ in 0..40 {
        let Some(mut b) = alloc.get_bucket() else {
            break;
        };
        while b.use_vbn(1).is_some() {}
        alloc.put_bucket(b);
    }
    alloc.drain();
    let used_ranges = (0..8)
        .filter(|&r| pool.messages_in(Affinity::AggrVbnRange(0, r)) > 0)
        .count();
    assert!(
        used_ranges >= 2,
        "commits for different metafile regions spread over ranges: {used_ranges}"
    );
    assert_eq!(pool.messages_in(Affinity::Serial), 0);
}

#[test]
fn get_timeout_starvation_returns_none_quickly() {
    // An exhausted tiny aggregate: GET must give up, not hang.
    let (alloc, _aio) = stack(AllocConfig::with_chunk(64), 64);
    let mut all = Vec::new();
    while let Some(mut b) = alloc.get_bucket() {
        while let Some(v) = b.use_vbn(1) {
            all.push(v);
        }
        alloc.put_bucket(b);
    }
    alloc.drain();
    let t0 = std::time::Instant::now();
    assert!(alloc.get_bucket().is_none());
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(2),
        "exhaustion detection is prompt"
    );
}

#[test]
fn stats_snapshot_serializes() {
    let (alloc, _aio) = stack(AllocConfig::with_chunk(8), 1024);
    let mut b = alloc.get_bucket().unwrap();
    b.use_vbn(1);
    alloc.put_bucket(b);
    alloc.drain();
    let s = alloc.stats();
    let json = serde_json::to_string(&s).unwrap();
    assert!(json.contains("vbns_committed"));
}
