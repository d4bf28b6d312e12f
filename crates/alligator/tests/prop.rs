//! Property tests: allocator-level invariants under random GET/USE/PUT
//! schedules (DESIGN.md §8.1–8.3, 8.6–8.7).

use alligator::{AllocConfig, Allocator, InlineExecutor, ReinsertPolicy};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;
use waffinity::{Model, Topology};
use wafl_blockdev::{AioEngine, DriveKind, GeometryBuilder, IoEngine, Vbn};
use wafl_metafile::AggregateMap;

/// An allocator, and the async engine its stripes go through.
fn mk(chunk: usize, reinsert: ReinsertPolicy) -> (Arc<Allocator>, Arc<AioEngine>) {
    let geo = Arc::new(
        GeometryBuilder::new()
            .aa_stripes(64)
            .raid_group(3, 1, 2048)
            .build(),
    );
    let aggmap = Arc::new(AggregateMap::new(Arc::clone(&geo)));
    let io = Arc::new(IoEngine::new(geo, DriveKind::Ssd));
    let aio = AioEngine::new(Arc::clone(&io), 8);
    let mut cfg = AllocConfig::with_chunk(chunk);
    cfg.reinsert = reinsert;
    let alloc = Allocator::new(
        cfg,
        aggmap,
        io,
        Arc::new(InlineExecutor),
        Arc::new(Topology::symmetric(Model::Hierarchical, 1, 1, 2, 4)),
        0,
    );
    (alloc, aio)
}

#[derive(Debug, Clone, Copy)]
enum AllocOp {
    /// GET a bucket and USE this many VBNs (possibly 0) before PUT.
    Cycle(u8),
    /// Free this many of the oldest live VBNs through a stage.
    Free(u8),
}

fn ops() -> impl Strategy<Value = Vec<AllocOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..255).prop_map(AllocOp::Cycle),
            (1u8..64).prop_map(AllocOp::Free),
        ],
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn no_double_allocation_and_conservation(
        schedule in ops(),
        chunk in 1usize..100,
        collective in prop::bool::ANY,
    ) {
        let reinsert = if collective {
            ReinsertPolicy::Collective
        } else {
            ReinsertPolicy::Immediate
        };
        let (alloc, aio) = mk(chunk, reinsert);
        let mut live: Vec<Vbn> = Vec::new();
        let mut ever_used: HashSet<u64> = HashSet::new();
        let mut stage = alloc.new_stage();
        let mut stamp = 1u128;
        for op in schedule {
            match op {
                AllocOp::Cycle(n) => {
                    let Some(mut b) = alloc.get_bucket() else { continue };
                    for _ in 0..n {
                        let Some(v) = b.use_vbn(stamp) else { break };
                        stamp += 1;
                        // A USE'd VBN must never be live twice at once.
                        prop_assert!(
                            !live.contains(&v),
                            "VBN {v:?} allocated while still live"
                        );
                        live.push(v);
                        ever_used.insert(v.0);
                    }
                    alloc.put_bucket(b);
                }
                AllocOp::Free(n) => {
                    for _ in 0..n.min(live.len() as u8) {
                        let v = live.remove(0);
                        alloc.free_vbn(&mut stage, v);
                    }
                }
            }
        }
        alloc.flush_stage(&mut stage);
        // Retire cached buckets so reservations settle, then audit.
        alloc.flush_cache();
        let am = alloc.infra().aggmap();
        am.verify().unwrap();
        let s = alloc.stats();
        s.check_conservation(0).unwrap();
        // Exactly the live VBNs are marked used.
        let used_count = am.geometry().total_vbns() - am.free_count();
        prop_assert_eq!(used_count, live.len() as u64);
        for v in &live {
            prop_assert!(am.is_used(*v));
        }
        // Data integrity: the media holds a nonzero stamp wherever we
        // wrote.
        alloc.infra().drain_io();
        for v in live.iter().take(20) {
            prop_assert_ne!(aio.io().read_vbn(*v).unwrap(), 0, "written block must be on media");
        }
    }

    #[test]
    fn fresh_bucket_vbns_are_contiguous_and_drive_local(
        chunk in 1usize..64,
        cycles in 1usize..12,
    ) {
        // §IV-C: buckets are contiguous VBN runs on one drive.
        let (alloc, _aio) = mk(chunk, ReinsertPolicy::Collective);
        let geo = Arc::clone(alloc.infra().aggmap().geometry());
        for _ in 0..cycles {
            let Some(mut b) = alloc.get_bucket() else { break };
            prop_assert!(b.is_contiguous(), "fresh-AA buckets are contiguous");
            prop_assert!(b.len() <= chunk);
            let drive = geo.locate(b.start_vbn()).unwrap().drive;
            let mut prev: Option<Vbn> = None;
            while let Some(v) = b.use_vbn(1) {
                prop_assert_eq!(geo.locate(v).unwrap().drive, drive, "bucket stays on one drive");
                if let Some(p) = prev {
                    prop_assert_eq!(v.0, p.0 + 1, "USE yields consecutive VBNs");
                }
                prev = Some(v);
            }
            alloc.put_bucket(b);
        }
        alloc.drain();
    }

    #[test]
    fn equal_progress_across_drives_under_collective_policy(
        rounds in 1usize..8,
        chunk in 8usize..64,
    ) {
        // DESIGN.md invariant 7: after full consumption of each round,
        // per-drive fill offsets differ by at most one chunk.
        let (alloc, _aio) = mk(chunk, ReinsertPolicy::Collective);
        let geo = Arc::clone(alloc.infra().aggmap().geometry());
        let mut max_dbn = vec![0u64; 3];
        for _ in 0..rounds {
            for _ in 0..3 {
                let Some(mut b) = alloc.get_bucket() else { break };
                let d = b.drive_in_rg() as usize;
                while let Some(v) = b.use_vbn(2) {
                    max_dbn[d] = max_dbn[d].max(geo.locate(v).unwrap().dbn.0);
                }
                alloc.put_bucket(b);
            }
        }
        alloc.drain();
        let hi = *max_dbn.iter().max().unwrap();
        let lo = *max_dbn.iter().min().unwrap();
        prop_assert!(
            hi - lo <= chunk as u64,
            "drive progress diverged: {max_dbn:?} (chunk {chunk})"
        );
    }
}
