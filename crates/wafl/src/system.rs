//! [`StorageSystem`]: multiple aggregates under one Waffinity scheduler.
//!
//! §IV-B2's *first* parallelism mechanism: "allocation bitmaps in each
//! aggregate … map to different Aggregate VBN … affinities … Thus,
//! accesses to metafiles in different aggregates and volumes are
//! parallelized in Waffinity because threads running in parallel on
//! different cores can read and write to metafiles without explicit
//! synchronization."
//!
//! A [`StorageSystem`] owns one Waffinity topology and thread pool shared
//! by N aggregates, each a full [`Filesystem`] (its own drives, metafiles,
//! allocator, cleaner pool, NVLog, and CP engine). Infrastructure messages
//! for aggregate `a` run in `AggrVbnRange(a, ·)` affinities, so two
//! aggregates' refills and commits never serialize against each other —
//! with zero additional locking, exactly as in the paper.

use crate::config::FsConfig;
use crate::cp::CpReport;
use crate::fs::{ExecMode, Filesystem};
use alligator::{Executor, InlineExecutor, PoolExecutor};
use std::sync::Arc;
use waffinity::{Model, Topology, WaffinityPool};
use wafl_blockdev::{AggregateGeometry, DriveKind, IoEngine};
use wafl_metafile::AggregateMap;

/// A storage system: several aggregates sharing one Waffinity scheduler.
pub struct StorageSystem {
    topo: Arc<Topology>,
    pool: Option<Arc<WaffinityPool>>,
    aggregates: Vec<Filesystem>,
}

impl StorageSystem {
    /// Build a system with one aggregate per geometry. All aggregates
    /// share one Waffinity topology (and thread pool in
    /// [`ExecMode::Pool`]).
    pub fn new(
        cfg: FsConfig,
        geometries: Vec<AggregateGeometry>,
        kind: DriveKind,
        exec: ExecMode,
    ) -> Self {
        assert!(!geometries.is_empty(), "need at least one aggregate");
        let n = geometries.len() as u32;
        let topo = Arc::new(Topology::symmetric(Model::Hierarchical, n, 8, 8, 8));
        let (executor, pool): (Arc<dyn Executor>, _) = match exec {
            ExecMode::Inline => (Arc::new(InlineExecutor), None),
            ExecMode::Pool(threads) => {
                let pool = Arc::new(WaffinityPool::new(Arc::clone(&topo), threads));
                (
                    Arc::new(PoolExecutor::new(Arc::clone(&pool))) as Arc<dyn Executor>,
                    Some(pool),
                )
            }
        };
        let aggregates = geometries
            .into_iter()
            .enumerate()
            .map(|(i, geometry)| {
                let geo = Arc::new(geometry);
                let io = Arc::new(IoEngine::new(Arc::clone(&geo), kind));
                let aggmap = Arc::new(AggregateMap::new(geo));
                Filesystem::assemble_shared(
                    cfg,
                    io,
                    aggmap,
                    Arc::clone(&executor),
                    Arc::clone(&topo),
                    i as u32,
                    pool.clone(),
                )
            })
            .collect();
        Self {
            topo,
            pool,
            aggregates,
        }
    }

    /// Number of aggregates.
    pub fn aggregate_count(&self) -> usize {
        self.aggregates.len()
    }

    /// Access one aggregate's file system.
    pub fn aggregate(&self, i: usize) -> &Filesystem {
        &self.aggregates[i]
    }

    /// The shared topology.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The shared Waffinity pool (pool mode only).
    pub fn waffinity_pool(&self) -> Option<&Arc<WaffinityPool>> {
        self.pool.as_ref()
    }

    /// Run a CP on every aggregate (each aggregate's CP is independent,
    /// as in WAFL: "any two operations in different aggregates" can
    /// proceed in parallel).
    pub fn run_cp_all(&self) -> Vec<CpReport> {
        self.aggregates.iter().map(|a| a.run_cp()).collect()
    }

    /// Verify every aggregate.
    pub fn verify_all(&self) -> Result<(), String> {
        for (i, a) in self.aggregates.iter().enumerate() {
            a.verify_integrity()
                .map_err(|e| format!("aggregate {i}: {e}"))?;
        }
        Ok(())
    }

    /// Rebuild every offline drive in every aggregate from parity; returns
    /// the total number of blocks reconstructed. After this, a raw-media
    /// parity scrub passes again.
    pub fn rebuild_offline_all(&self) -> u64 {
        self.aggregates
            .iter()
            .map(|a| a.io().rebuild_offline())
            .sum()
    }

    /// Simulate a whole-system crash: drop all in-memory state and rebuild
    /// every aggregate from its committed superblock image plus an NVRAM
    /// log replay, over a fresh shared Waffinity topology. The simulated
    /// drives are shared with the old instance — they are the persistent
    /// state.
    pub fn crash_and_recover(&self, exec: ExecMode) -> StorageSystem {
        let n = self.aggregates.len() as u32;
        let topo = Arc::new(Topology::symmetric(Model::Hierarchical, n, 8, 8, 8));
        let (executor, pool): (Arc<dyn Executor>, _) = match exec {
            ExecMode::Inline => (Arc::new(InlineExecutor), None),
            ExecMode::Pool(threads) => {
                let pool = Arc::new(WaffinityPool::new(Arc::clone(&topo), threads));
                (
                    Arc::new(PoolExecutor::new(Arc::clone(&pool))) as Arc<dyn Executor>,
                    Some(pool),
                )
            }
        };
        let aggregates = self
            .aggregates
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let image = a.committed_image();
                let ops = a.nvlog().replay_ops();
                Filesystem::recover_shared(
                    *a.config(),
                    Arc::clone(a.io()),
                    image,
                    &ops,
                    Arc::clone(&executor),
                    Arc::clone(&topo),
                    i as u32,
                    pool.clone(),
                )
            })
            .collect();
        Self {
            topo,
            pool,
            aggregates,
        }
    }
}

impl std::fmt::Debug for StorageSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageSystem")
            .field("aggregates", &self.aggregates.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inode::FileId;
    use crate::volume::VolumeId;
    use waffinity::Affinity;
    use wafl_blockdev::{stamp, GeometryBuilder};

    fn geos(n: usize) -> Vec<AggregateGeometry> {
        (0..n)
            .map(|_| {
                GeometryBuilder::new()
                    .aa_stripes(128)
                    .raid_group(3, 1, 8192)
                    .build()
            })
            .collect()
    }

    #[test]
    fn two_aggregates_operate_independently() {
        let sys = StorageSystem::new(
            FsConfig::default(),
            geos(2),
            DriveKind::Ssd,
            ExecMode::Inline,
        );
        for a in 0..2 {
            let fs = sys.aggregate(a);
            fs.create_volume(VolumeId(0));
            fs.create_file(VolumeId(0), FileId(1));
            for fbn in 0..50 {
                fs.write(VolumeId(0), FileId(1), fbn, stamp(a as u64, fbn, 1));
            }
        }
        let reports = sys.run_cp_all();
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.buffers_cleaned == 50));
        for a in 0..2 {
            assert_eq!(
                sys.aggregate(a).read_persisted(VolumeId(0), FileId(1), 7),
                Some(stamp(a as u64, 7, 1))
            );
        }
        sys.verify_all().unwrap();
    }

    #[test]
    fn aggregates_use_disjoint_waffinity_affinities() {
        let sys = StorageSystem::new(
            FsConfig::default(),
            geos(2),
            DriveKind::Ssd,
            ExecMode::Pool(2),
        );
        for a in 0..2 {
            let fs = sys.aggregate(a);
            fs.create_volume(VolumeId(0));
            fs.create_file(VolumeId(0), FileId(1));
            for fbn in 0..200 {
                fs.write(VolumeId(0), FileId(1), fbn, stamp(a as u64, fbn, 1));
            }
        }
        sys.run_cp_all();
        let pool = sys.waffinity_pool().unwrap();
        // Each aggregate's infrastructure ran in its own affinity subtree.
        for a in 0..2u32 {
            let msgs: u64 = (0..8)
                .map(|r| pool.messages_in(Affinity::AggrVbnRange(a, r)))
                .sum();
            assert!(msgs > 0, "aggregate {a} infra messages in its own ranges");
        }
        assert_eq!(pool.messages_in(Affinity::Serial), 0);
        sys.verify_all().unwrap();
    }

    #[test]
    fn concurrent_clients_on_different_aggregates() {
        let sys = Arc::new(StorageSystem::new(
            FsConfig::default(),
            geos(2),
            DriveKind::Ssd,
            ExecMode::Pool(2),
        ));
        for a in 0..2 {
            let fs = sys.aggregate(a);
            fs.create_volume(VolumeId(0));
            fs.create_file(VolumeId(0), FileId(1));
        }
        let mut handles = Vec::new();
        for a in 0..2usize {
            let sys = Arc::clone(&sys);
            handles.push(std::thread::spawn(move || {
                for generation in 1..=3u64 {
                    let fs = sys.aggregate(a);
                    for fbn in 0..100 {
                        fs.write(
                            VolumeId(0),
                            FileId(1),
                            fbn,
                            stamp(a as u64, fbn, generation),
                        );
                    }
                    fs.run_cp();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for a in 0..2 {
            assert_eq!(
                sys.aggregate(a).read_persisted(VolumeId(0), FileId(1), 42),
                Some(stamp(a as u64, 42, 3))
            );
        }
        sys.verify_all().unwrap();
    }

    #[test]
    fn system_crash_mid_cp_recovers_every_aggregate() {
        use crate::cp::CrashPoint;
        let sys = StorageSystem::new(
            FsConfig::default(),
            geos(2),
            DriveKind::Ssd,
            ExecMode::Inline,
        );
        for a in 0..2 {
            let fs = sys.aggregate(a);
            fs.create_volume(VolumeId(0));
            fs.create_file(VolumeId(0), FileId(1));
            for fbn in 0..32 {
                fs.write(VolumeId(0), FileId(1), fbn, stamp(a as u64, fbn, 1));
            }
        }
        sys.run_cp_all();
        // Acknowledged-but-uncommitted overwrites on both aggregates;
        // aggregate 0 then crashes in the middle of its next CP.
        for a in 0..2 {
            let fs = sys.aggregate(a);
            for fbn in 0..32 {
                fs.write(VolumeId(0), FileId(1), fbn, stamp(a as u64, fbn, 2));
            }
        }
        sys.aggregate(0).run_cp_crash_at(CrashPoint::AfterClean);
        let rec = sys.crash_and_recover(ExecMode::Inline);
        rec.run_cp_all();
        for a in 0..2 {
            assert_eq!(
                rec.aggregate(a).read_persisted(VolumeId(0), FileId(1), 17),
                Some(stamp(a as u64, 17, 2)),
                "aggregate {a} lost a replayed overwrite"
            );
        }
        assert_eq!(rec.rebuild_offline_all(), 0, "no drives failed here");
        rec.verify_all().unwrap();
    }

    #[test]
    fn single_aggregate_system_matches_filesystem() {
        let sys = StorageSystem::new(
            FsConfig::default(),
            geos(1),
            DriveKind::Ssd,
            ExecMode::Inline,
        );
        assert_eq!(sys.aggregate_count(), 1);
        let fs = sys.aggregate(0);
        fs.create_volume(VolumeId(0));
        fs.create_file(VolumeId(0), FileId(9));
        fs.write(VolumeId(0), FileId(9), 0, 0x42);
        fs.run_cp();
        assert_eq!(fs.read_persisted(VolumeId(0), FileId(9), 0), Some(0x42));
    }
}
