//! Ablation: collective vs immediate bucket reinsertion (§IV-D), on the
//! *real* allocator stack (not the simulator).
//!
//! The paper's equal-progress rule — buckets re-enter the cache only when
//! every drive's bucket has been refilled — keeps all drives advancing in
//! lock step, which maximizes full-stripe writes. Immediate reinsertion
//! lets consumers drain one drive ahead of the others; this binary
//! measures the resulting full-stripe ratio drop under an adversarial
//! consumption pattern that prefers low-numbered drives.

use alligator::{AllocConfig, Allocator, InlineExecutor, ReinsertPolicy};
use std::sync::Arc;
use waffinity::{Model, Topology};
use wafl_bench::emit;
use wafl_blockdev::{AioEngine, DriveKind, GeometryBuilder, IoEngine};
use wafl_metafile::AggregateMap;
use wafl_simsrv::FigureTable;

fn run(policy: ReinsertPolicy) -> (f64, u64) {
    let geo = Arc::new(
        GeometryBuilder::new()
            .aa_stripes(256)
            .raid_group(4, 1, 1 << 14)
            .build(),
    );
    let aggmap = Arc::new(AggregateMap::new(Arc::clone(&geo)));
    let io = Arc::new(IoEngine::new(geo, DriveKind::Ssd));
    let _aio = AioEngine::new(Arc::clone(&io), 8);
    let topo = Arc::new(Topology::symmetric(Model::Hierarchical, 1, 1, 4, 4));
    let mut cfg = AllocConfig::with_chunk(64);
    cfg.reinsert = policy;
    let alloc = Allocator::new(
        cfg,
        aggmap,
        Arc::clone(&io),
        Arc::new(InlineExecutor),
        topo,
        0,
    );

    // A single cleaner consuming buckets fully, in GET order. Under the
    // collective policy every refill round shares one tetris, so complete
    // rounds produce complete stripes; under immediate per-drive refills
    // each bucket's write I/O covers a single drive.
    let mut stamp = 1u128;
    for _ in 0..200 {
        let Some(mut b) = alloc.get_bucket() else {
            break;
        };
        while b.use_vbn(stamp).is_some() {
            stamp += 1;
        }
        alloc.put_bucket(b);
        alloc.drain();
    }
    alloc.drain();
    alloc.infra().drain_io();
    let ratio = io.full_stripe_ratio().unwrap_or(0.0);
    let parity_reads = io.counters().snapshot().parity_reads;
    (ratio, parity_reads)
}

fn main() {
    let (coll_ratio, coll_parity) = run(ReinsertPolicy::Collective);
    let (imm_ratio, imm_parity) = run(ReinsertPolicy::Immediate);
    let mut t = FigureTable::new(
        "ablation_reinsert",
        "collective (equal-progress) vs immediate bucket reinsertion — real allocator",
    );
    t.row_measured("full-stripe ratio, collective", coll_ratio * 100.0, "%");
    t.row_measured("full-stripe ratio, immediate", imm_ratio * 100.0, "%");
    t.row_measured("parity reads, collective", coll_parity as f64, "blocks");
    t.row_measured("parity reads, immediate", imm_parity as f64, "blocks");
    emit(&t);
}
