//! The fixed configuration of every workload, and the workloads' shapes.
//!
//! Nothing here is an option: both sides of any comparison run the same
//! geometry, thread counts and queue depth. The one parameter is `scale`,
//! which divides the data-set sizes so the smoke test can run the same
//! code on a 1/16-size aggregate.

use wafl::{CleanerConfig, ExecMode, FsConfig};
use wafl_blockdev::{AggregateGeometry, GeometryBuilder};

/// Cleaner threads (`FsConfig::cleaner.threads`).
pub const CLEANERS: usize = 2;
/// Waffinity workers running infrastructure messages.
pub const EXEC: ExecMode = ExecMode::Pool(2);
/// Per-RAID-group submit-ring depth of the async engine. Depth 0 (the
/// synchronous default) is excluded: see finding F1 in the README.
pub const IO_QUEUE_DEPTH: usize = 8;
/// Stripes per allocation area.
pub const AA_STRIPES: u64 = 512;
/// RAID groups of `DATA_DRIVES` data + 1 parity drive each.
pub const RAID_GROUPS: u32 = 2;
/// Data drives per RAID group.
pub const DATA_DRIVES: u32 = 4;
/// Blocks per drive at scale 1.
pub const BLOCKS_PER_DRIVE: u64 = 262_144;
/// Volumes the files are spread over.
pub const VOLUMES: u32 = 2;

/// The aggregate geometry at `scale`.
pub fn geometry(scale: u64) -> AggregateGeometry {
    let mut b = GeometryBuilder::new().aa_stripes(AA_STRIPES);
    for _ in 0..RAID_GROUPS {
        b = b.raid_group(DATA_DRIVES, 1, BLOCKS_PER_DRIVE / scale);
    }
    b.build()
}

/// The file-system configuration: `AllocConfig::default()`, two cleaners,
/// the async I/O engine, and a virtual-VBN space per volume as large as
/// the aggregate (so a volume never runs out before the aggregate does).
pub fn fs_config(scale: u64) -> FsConfig {
    FsConfig {
        cleaner: CleanerConfig {
            threads: CLEANERS,
            ..CleanerConfig::default()
        },
        io_queue_depth: IO_QUEUE_DEPTH,
        vvbn_per_volume: u64::from(RAID_GROUPS * DATA_DRIVES) * BLOCKS_PER_DRIVE / scale,
        ..FsConfig::default()
    }
}

/// A named workload. `why` is recorded in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper Fig 4: sequential rewrite of a few large files into empty AAs.
    SeqWrite,
    /// Paper Fig 7: uniform random overwrites of an aged, 75 %-full aggregate.
    RandOverwriteAged,
    /// `SeqWrite`'s op stream with a file backend attached: the device path.
    SeqWriteFile,
    /// Paper Fig 8/9 shape: many small files, 2 reads : 1 write, client
    /// concurrent with the CP driver.
    OltpMix,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::SeqWrite,
        Workload::RandOverwriteAged,
        Workload::SeqWriteFile,
        Workload::OltpMix,
    ];

    /// The workloads `BENCHMARK.json` lists, in its order: the in-memory
    /// ones. `seq_write_file` includes the device under the checkout, which
    /// no bound of 0.10 or less holds on; every traced run reports it in
    /// the per-layer rows `blockdev.file.*` instead.
    pub const LISTED: [Workload; 3] = [
        Workload::SeqWrite,
        Workload::RandOverwriteAged,
        Workload::OltpMix,
    ];

    /// The normative name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SeqWrite => "seq_write",
            Workload::RandOverwriteAged => "rand_overwrite_aged",
            Workload::SeqWriteFile => "seq_write_file",
            Workload::OltpMix => "oltp_mix",
        }
    }

    /// Look a workload up by its normative name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The data-set and batch sizes at `scale`.
    pub fn shape(self, scale: u64) -> Shape {
        let (files, blocks_per_file, batch) = match self {
            Workload::SeqWrite | Workload::SeqWriteFile => (16, 8192 / scale, 16_384 / scale),
            Workload::RandOverwriteAged => (192, 8192 / scale, 16_384 / scale),
            // Files shrink in number, not in size: batched inode cleaning
            // (§V-C) depends on the 32-block files staying small.
            Workload::OltpMix => (8192 / scale, 32, 32_768 / scale),
        };
        Shape {
            files,
            blocks_per_file,
            batch,
        }
    }
}

/// Data-set and batch sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Files, spread round-robin over [`VOLUMES`] volumes.
    pub files: u64,
    /// Blocks per file.
    pub blocks_per_file: u64,
    /// Client writes per NVLog half: the batch workloads write this many
    /// and then run a CP; `oltp_mix` starts a CP when the half holds this
    /// many and blocks the client while it is full.
    pub batch: u64,
}

impl Shape {
    /// Blocks in the data set.
    pub fn blocks(&self) -> u64 {
        self.files * self.blocks_per_file
    }
}
