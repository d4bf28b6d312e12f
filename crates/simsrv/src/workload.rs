//! Workload generators for the paper's four evaluation workloads.
//!
//! * **Sequential write** (Fig 4–6, 9): large sequential writes to a few
//!   files; overwrites free *contiguous* VBN runs.
//! * **Random write** (Fig 7): small writes at uniformly random offsets;
//!   overwrites free VBNs *scattered* across the aggregate, touching many
//!   allocation-bitmap blocks per stage — "since allocation metafiles are
//!   indexed by VBN, this randomness causes a higher ratio of metafile
//!   block updates than does sequential write".
//! * **OLTP** (Fig 8): a read/write mix of small ops, latency-sensitive.
//! * **NFS mix** (§V-C): reads, writes, and metadata ops spread over a
//!   large number of files, each dirtying few buffers — the batched-
//!   cleaning scenario.

use rand::Rng;
use rand_chacha::ChaCha12Rng;
use serde::Serialize;

/// One client operation as the simulator sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpShape {
    /// Blocks written (0 for reads / pure metadata ops).
    pub write_blocks: u64,
    /// Blocks read from media (adds read latency; no dirtying).
    pub read_blocks: u64,
    /// Distinct inodes this op dirties (1 for user-file writes; NFS
    /// metadata ops may touch several small files).
    pub inodes_touched: u64,
}

/// The workload shapes of §V.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum WorkloadKind {
    /// Large sequential writes (64 KiB ops = 16 blocks by default).
    SequentialWrite {
        /// Blocks per write op.
        op_blocks: u64,
    },
    /// Small random writes (8 KiB ops = 2 blocks by default).
    RandomWrite {
        /// Blocks per write op.
        op_blocks: u64,
    },
    /// OLTP: `write_fraction` of ops are small writes, the rest are
    /// small reads.
    Oltp {
        /// Blocks per op.
        op_blocks: u64,
        /// Fraction of ops that write, in `[0, 1]`.
        write_fraction: f64,
    },
    /// NFSv3-style mix over many small files (§V-C).
    NfsMix {
        /// Fraction of ops that write.
        write_fraction: f64,
        /// Fraction of ops that are metadata-only (cheap, dirty 1 inode).
        meta_fraction: f64,
        /// Blocks per write op (small).
        op_blocks: u64,
    },
}

impl WorkloadKind {
    /// 64 KiB sequential writes.
    pub fn sequential_write() -> Self {
        WorkloadKind::SequentialWrite { op_blocks: 16 }
    }

    /// 8 KiB random writes.
    pub fn random_write() -> Self {
        WorkloadKind::RandomWrite { op_blocks: 2 }
    }

    /// The internal OLTP benchmark shape (Fig 8): 8 KiB ops, two-thirds
    /// writes — enough cleaning load that a single cleaner thread cannot
    /// keep up (the paper's premise for Figure 8).
    pub fn oltp() -> Self {
        WorkloadKind::Oltp {
            op_blocks: 2,
            write_fraction: 0.67,
        }
    }

    /// The internal NFSv3 mix (§V-C).
    pub fn nfs_mix() -> Self {
        WorkloadKind::NfsMix {
            write_fraction: 0.4,
            meta_fraction: 0.3,
            op_blocks: 2,
        }
    }

    /// Are overwrite frees contiguous in the VBN space?
    pub fn frees_are_sequential(&self) -> bool {
        matches!(self, WorkloadKind::SequentialWrite { .. })
    }
}

/// A seeded workload generator.
#[derive(Debug)]
pub struct Workload {
    kind: WorkloadKind,
    rng: ChaCha12Rng,
}

impl Workload {
    /// Build a generator.
    pub fn new(kind: WorkloadKind, rng: ChaCha12Rng) -> Self {
        Self { kind, rng }
    }

    /// The workload kind.
    pub fn kind(&self) -> WorkloadKind {
        self.kind
    }

    /// Draw the next op.
    pub fn next_op(&mut self) -> OpShape {
        match self.kind {
            WorkloadKind::SequentialWrite { op_blocks }
            | WorkloadKind::RandomWrite { op_blocks } => OpShape {
                write_blocks: op_blocks,
                read_blocks: 0,
                inodes_touched: 1,
            },
            WorkloadKind::Oltp {
                op_blocks,
                write_fraction,
            } => {
                if self.rng.gen_bool(write_fraction) {
                    OpShape {
                        write_blocks: op_blocks,
                        read_blocks: 0,
                        inodes_touched: 1,
                    }
                } else {
                    OpShape {
                        write_blocks: 0,
                        read_blocks: op_blocks,
                        inodes_touched: 0,
                    }
                }
            }
            WorkloadKind::NfsMix {
                write_fraction,
                meta_fraction,
                op_blocks,
            } => {
                let x: f64 = self.rng.gen();
                if x < meta_fraction {
                    // Metadata op: dirties an inode, no data blocks.
                    OpShape {
                        write_blocks: 1,
                        read_blocks: 0,
                        inodes_touched: 1,
                    }
                } else if x < meta_fraction + write_fraction {
                    OpShape {
                        write_blocks: op_blocks,
                        read_blocks: 0,
                        inodes_touched: 1,
                    }
                } else {
                    OpShape {
                        write_blocks: 0,
                        read_blocks: op_blocks,
                        inodes_touched: 0,
                    }
                }
            }
        }
    }
}

/// Expected number of *distinct* metafile blocks touched when committing
/// `frees` freed VBNs, given the workload's locality and an active map of
/// `total_mf_blocks` blocks.
///
/// Sequential overwrites free contiguous runs: `⌈frees / bits⌉` blocks
/// (almost always 1). Random overwrites are uniform over the VBN space:
/// the classic occupancy expectation `B·(1 − (1 − 1/B)^f)`.
pub fn distinct_mf_blocks(frees: u64, sequential: bool, total_mf_blocks: u64) -> u64 {
    if frees == 0 {
        return 0;
    }
    if sequential {
        frees.div_ceil(wafl_metafile::BITS_PER_MF_BLOCK).max(1)
    } else {
        let b = total_mf_blocks.max(1) as f64;
        let f = frees as f64;
        let expected = b * (1.0 - (1.0 - 1.0 / b).powf(f));
        expected.round().max(1.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn gen(kind: WorkloadKind) -> Workload {
        Workload::new(kind, ChaCha12Rng::seed_from_u64(42))
    }

    #[test]
    fn sequential_ops_are_uniform() {
        let mut w = gen(WorkloadKind::sequential_write());
        for _ in 0..10 {
            let op = w.next_op();
            assert_eq!(op.write_blocks, 16);
            assert_eq!(op.read_blocks, 0);
        }
    }

    #[test]
    fn oltp_mixes_reads_and_writes() {
        let mut w = gen(WorkloadKind::oltp());
        let ops: Vec<OpShape> = (0..1000).map(|_| w.next_op()).collect();
        let writes = ops.iter().filter(|o| o.write_blocks > 0).count();
        assert!((570..770).contains(&writes), "≈67% writes, got {writes}");
        assert!(ops.iter().all(|o| o.write_blocks > 0 || o.read_blocks > 0));
    }

    #[test]
    fn nfs_mix_includes_metadata_ops() {
        let mut w = gen(WorkloadKind::nfs_mix());
        let ops: Vec<OpShape> = (0..1000).map(|_| w.next_op()).collect();
        let meta = ops
            .iter()
            .filter(|o| o.write_blocks == 1 && o.inodes_touched == 1)
            .count();
        assert!(meta > 100, "metadata ops present: {meta}");
    }

    #[test]
    fn workload_is_deterministic_per_seed() {
        let mut a = gen(WorkloadKind::oltp());
        let mut b = gen(WorkloadKind::oltp());
        for _ in 0..100 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn sequential_frees_touch_one_block() {
        assert_eq!(distinct_mf_blocks(256, true, 3000), 1);
        assert_eq!(distinct_mf_blocks(40_000, true, 3000), 2);
    }

    #[test]
    fn random_frees_scatter_widely() {
        let d = distinct_mf_blocks(256, false, 3000);
        assert!(
            (230..=256).contains(&d),
            "256 uniform frees over 3000 blocks ≈ 245 distinct, got {d}"
        );
        // Small map saturates.
        let d2 = distinct_mf_blocks(10_000, false, 100);
        assert!((95..=100).contains(&d2));
    }

    #[test]
    fn zero_frees_touch_nothing() {
        assert_eq!(distinct_mf_blocks(0, true, 100), 0);
        assert_eq!(distinct_mf_blocks(0, false, 100), 0);
    }
}
