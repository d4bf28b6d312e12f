//! Simulation configuration and the calibrated cost model.

use crate::workload::WorkloadKind;
use alligator::InfraMode;
use serde::Serialize;
use wafl::TunerConfig;

/// Which era of WAFL parallelization to simulate (§III of the paper).
/// Later eras strictly relax execution constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Era {
    /// Pre-Waffinity (early Data ONTAP): the whole file system is one
    /// domain — every client message *and* all cleaning work run in the
    /// Serial affinity (§III-A).
    SerialWafl,
    /// Classical Waffinity, Data ONTAP 7.2 (2006): user-file messages run
    /// in Stripe affinities, but "inode cleaning ran in the Serial
    /// affinity … the process of assigning VBNs to dirty buffers and
    /// writing the data out prevented the execution of client operations"
    /// (§III-B/C).
    ClassicalSerialCleaning,
    /// Data ONTAP 7.3 (2008): a single dedicated inode-cleaner thread
    /// runs in parallel with Waffinity; metafile access is still
    /// effectively serialized (§III-C).
    ClassicalCleanerThread,
    /// Hierarchical Waffinity + White Alligator, Data ONTAP 8.1 (2011):
    /// parallel cleaner threads and Waffinity-parallel infrastructure
    /// (§III-D, §IV). Cleaner/infra parallelism follow the `cleaners` and
    /// `infra_mode` settings.
    WhiteAlligator,
}

/// How many cleaner threads the simulated system runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum CleanerSetting {
    /// A fixed number of cleaner threads (1 = the serialized baseline).
    Fixed(usize),
    /// Dynamic tuning with the given controller parameters (§V-B).
    Dynamic(TunerConfig),
}

impl CleanerSetting {
    /// The paper's default dynamic configuration.
    pub fn dynamic_default(max: usize) -> Self {
        CleanerSetting::Dynamic(TunerConfig {
            max_threads: max,
            ..TunerConfig::default()
        })
    }

    /// Maximum threads this setting can activate.
    pub fn max_threads(&self) -> usize {
        match self {
            CleanerSetting::Fixed(n) => *n,
            CleanerSetting::Dynamic(c) => c.max_threads,
        }
    }
}

/// Per-unit CPU costs, in nanoseconds. One set of constants is shared by
/// every experiment; workloads differ only in op shape and free locality.
///
/// The values approximate a mid-2010s storage controller: a few µs of
/// protocol + file-system message work per 4 KiB block on the client
/// path, ~2.5 µs of cleaning per block, and metafile processing costs
/// that put the serialized infrastructure within a small factor of one
/// core's cleaning capacity — the regime the paper's Figures 4–7 explore.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CostModel {
    /// Protocol-stack CPU per client op.
    pub protocol_per_op: u64,
    /// Fixed CPU per client Waffinity message.
    pub client_msg_fixed: u64,
    /// CPU per block within a client message (checksums, buffer hashing,
    /// indirect-block walks).
    pub client_msg_per_block: u64,
    /// NVRAM mirror + reply latency (no CPU, pure delay).
    pub reply_latency: u64,
    /// Media read latency added to read ops (no CPU).
    pub read_media_latency: u64,

    /// Cleaner CPU per buffer cleaned (VBN assignment, tetris enqueue,
    /// block-map update — the USE path).
    pub cleaner_per_buffer: u64,
    /// Cleaner CPU per GET (bucket-cache lock + PUT hand-off), at one
    /// active cleaner.
    pub cleaner_bucket_sync: u64,
    /// Additional fraction of `cleaner_bucket_sync` per extra active
    /// cleaner (contention on the one bucket-cache lock; §V-B's "more
    /// threads come with additional lock contention").
    pub cleaner_contention_factor: f64,
    /// Cleaner CPU per cleaning message (dispatch overhead; what §V-C's
    /// batching amortizes).
    pub cleaner_msg_overhead: u64,
    /// Cleaner CPU per inode within a message (attribute handling).
    pub cleaner_inode_overhead: u64,

    /// Infrastructure CPU per bucket refilled (message dispatch + AA
    /// bookkeeping).
    pub infra_refill_fixed: u64,
    /// Infrastructure CPU per VBN scanned while filling buckets.
    pub infra_refill_per_vbn: u64,
    /// Fixed CPU per used-bucket commit message.
    pub infra_commit_fixed: u64,
    /// CPU per VBN committed.
    pub infra_commit_per_vbn: u64,
    /// Fixed CPU per free-stage commit message.
    pub infra_frees_fixed: u64,
    /// CPU per VBN freed.
    pub infra_free_per_vbn: u64,
    /// CPU per distinct metafile block read/updated by a commit — the
    /// constant that makes random frees expensive (Figure 7).
    pub infra_per_mf_block: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            protocol_per_op: 20_000,
            client_msg_fixed: 42_000,
            client_msg_per_block: 5_800,
            reply_latency: 60_000,
            read_media_latency: 250_000,

            cleaner_per_buffer: 2_500,
            cleaner_bucket_sync: 1_500,
            cleaner_contention_factor: 0.02,
            cleaner_msg_overhead: 9_000,
            cleaner_inode_overhead: 1_500,

            infra_refill_fixed: 8_000,
            infra_refill_per_vbn: 600,
            infra_commit_fixed: 8_000,
            infra_commit_per_vbn: 250,
            infra_frees_fixed: 8_000,
            infra_free_per_vbn: 250,
            infra_per_mf_block: 2_400,
        }
    }
}

/// Deterministic fault-injection knobs for the simulated media path,
/// mirroring `wafl_blockdev::FaultSpec` at the discrete-event level.
/// Rates are per-million-operations; draws come from a dedicated
/// counter-based hash (seeded from [`SimConfig::seed`]) so enabling
/// faults never perturbs workload randomness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct FaultConfig {
    /// Probability (ppm) that a read op hits a transient media error and
    /// pays retry round-trips before completing.
    pub read_error_ppm: u32,
    /// Probability (ppm) that a write op's NVRAM-acknowledged media write
    /// hits a transient error and pays retry round-trips.
    pub write_error_ppm: u32,
    /// Probability (ppm) of a latency spike (drive garbage collection,
    /// link retrain) on any op.
    pub latency_spike_ppm: u32,
    /// Extra latency added by one spike, in nanoseconds.
    pub latency_spike_ns: u64,
    /// Bounded retry budget per faulted op; each retry costs one media
    /// round-trip of added latency.
    pub max_retries: u32,
}

impl Default for FaultConfig {
    /// No injected faults; spike size and retry budget match the
    /// blockdev layer's `RetryPolicy` defaults.
    fn default() -> Self {
        Self {
            read_error_ppm: 0,
            write_error_ppm: 0,
            latency_spike_ppm: 0,
            latency_spike_ns: 2_000_000,
            max_retries: 3,
        }
    }
}

impl FaultConfig {
    /// True when no fault band is armed (the common fast path).
    pub fn is_quiet(&self) -> bool {
        self.read_error_ppm == 0 && self.write_error_ppm == 0 && self.latency_spike_ppm == 0
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone, Serialize)]
pub struct SimConfig {
    /// CPU cores in the simulated controller (the paper's platforms have
    /// 20).
    pub cores: u32,
    /// Closed-loop clients.
    pub clients: u32,
    /// Outstanding ops each client keeps in flight (FC queue depth).
    pub outstanding_per_client: u32,
    /// Client think time between ops (0 = saturating load).
    pub think_ns: u64,
    /// Workload shape.
    pub workload: WorkloadKind,
    /// Parallelization era (§III). [`Era::WhiteAlligator`] honors the
    /// `cleaners`/`infra_mode` fields; earlier eras override them.
    pub era: Era,
    /// Cleaner thread setting.
    pub cleaners: CleanerSetting,
    /// Serialized or parallel infrastructure.
    pub infra_mode: InfraMode,
    /// Waffinity Range affinities available to parallel infrastructure.
    pub infra_ranges: u32,
    /// Bucket chunk size in blocks (§IV-C).
    pub chunk: u64,
    /// Data drives contributing one bucket per refill round (§IV-D).
    pub drives: u32,
    /// Max buckets one GET may take from the bucket cache in a single
    /// lock acquisition (`get_many(k)`). The platform default is 1: the
    /// cost model is calibrated with one synchronization per bucket.
    /// Pre-White-Alligator eras force 1.
    pub cache_get_batch: u64,
    /// Free-stage capacity in VBNs (§IV-A).
    pub stage_capacity: u64,
    /// Dirty-buffer pool limit (admission throttle).
    pub dirty_limit: u64,
    /// Cleaning activates when the dirty pool reaches this level and runs
    /// until the pool drains — the CP cadence ("WAFL accumulates and
    /// flushes thousands of operations worth of data", §II-C). Batching
    /// small dirty inodes (§V-C) only pays off because work accumulates
    /// between CPs.
    pub cp_trigger_blocks: u64,
    /// Bucket-cache low watermark (refill trigger).
    pub bucket_low_watermark: u64,
    /// Total buckets in circulation. Buckets cycle cache → cleaner →
    /// used-bucket queue → (infrastructure commit) → refill → cache
    /// (Figure 2); a finite pool means a slow infrastructure starves GET,
    /// which is the backpressure that couples cleaning speed to
    /// infrastructure speed (Figures 6–7).
    pub total_buckets: u64,
    /// Total metafile blocks of the aggregate active map (sets how widely
    /// random frees scatter).
    pub aggregate_mf_blocks: u64,
    /// Whether batched inode cleaning is enabled (§V-C).
    pub batching: bool,
    /// Max inodes folded into one cleaner message when batching.
    pub batch_max_inodes: u64,
    /// Simulated run length.
    pub duration_ns: u64,
    /// Measurements discard this warmup prefix.
    pub warmup_ns: u64,
    /// Cost model.
    pub costs: CostModel,
    /// Injected media faults (defaults to none).
    pub faults: FaultConfig,
    /// RNG seed (workload randomness).
    pub seed: u64,
}

impl SimConfig {
    /// The paper's mid-range platform (§V-A): 20 cores, all-SSD, FC
    /// clients, saturating sequential-write load.
    pub fn paper_platform(workload: WorkloadKind) -> Self {
        Self {
            cores: 20,
            clients: 32,
            outstanding_per_client: 32,
            think_ns: 0,
            workload,
            era: Era::WhiteAlligator,
            cleaners: CleanerSetting::Fixed(4),
            infra_mode: InfraMode::Parallel,
            infra_ranges: 8,
            chunk: 64,
            drives: 12,
            cache_get_batch: 1,
            stage_capacity: 256,
            dirty_limit: 1_024,
            cp_trigger_blocks: 256,
            bucket_low_watermark: 16,
            total_buckets: 36,
            aggregate_mf_blocks: 3_000,
            batching: true,
            batch_max_inodes: 32,
            duration_ns: 2_000_000_000,
            warmup_ns: 400_000_000,
            costs: CostModel::default(),
            faults: FaultConfig::default(),
            seed: 0x0057_A71C,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadKind;

    #[test]
    fn paper_platform_matches_testbed() {
        let c = SimConfig::paper_platform(WorkloadKind::sequential_write());
        assert_eq!(c.cores, 20);
        assert_eq!(c.chunk % 64, 0);
        assert!(c.warmup_ns < c.duration_ns);
    }

    #[test]
    fn cleaner_setting_max_threads() {
        assert_eq!(CleanerSetting::Fixed(3).max_threads(), 3);
        assert_eq!(CleanerSetting::dynamic_default(6).max_threads(), 6);
    }
}
