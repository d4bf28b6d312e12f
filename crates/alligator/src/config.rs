//! Allocator configuration: the experimental dimensions of §V.

use serde::Serialize;

/// Whether infrastructure work is parallelized across Waffinity Range
/// affinities or serialized — the instrumented-kernel switch used for
/// Figures 4, 6, and 7 ("we used an instrumented kernel with serialized
/// cleaner threads and/or infrastructure to be able to isolate the impact
/// of parallelization", §V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum InfraMode {
    /// All infrastructure messages run in the Serial affinity: at most one
    /// executes at a time and it excludes all other file-system work. This
    /// models the pre-White-Alligator single-threaded infrastructure.
    Serial,
    /// Infrastructure messages run in Aggregate-VBN / Volume-VBN Range
    /// affinities (§IV-B2): refills and commits for different metafile
    /// regions proceed in parallel, and in parallel with client work.
    Parallel,
}

/// When refilled buckets re-enter the bucket cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ReinsertPolicy {
    /// The paper's policy: "Only after the buckets from all drives in an
    /// aggregate have been used and refilled with VBNs are they
    /// collectively put back into the bucket cache … This synchronized
    /// insertion process ensures equal progress on each drive" (§IV-D).
    Collective,
    /// Ablation: each bucket re-enters the cache as soon as it is filled.
    /// Simpler and lower latency, but lets fast drives race ahead, which
    /// breaks full-stripe formation (measured by the ablation bench).
    Immediate,
}

/// Refill the cache when it holds fewer than this many buckets. A
/// constant: raising it 2 → 9 moved no end-to-end metric (EXPERIMENTS.md),
/// so the lever is refill latency, not the trigger level.
pub const LOW_WATERMARK: usize = 2;

/// Free-stage capacity: frees staged per cleaner before a commit message
/// is sent to the infrastructure (§IV-A: "When a stage is full, the
/// cleaner thread sends a message to the infrastructure to commit those
/// frees to the metafiles").
pub const STAGE_CAPACITY: usize = 256;

/// White Alligator tuning parameters.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct AllocConfig {
    /// Bucket length in blocks — "the number of VBNs in a bucket is
    /// determined by the chunk size … typically a multiple of 64 blocks"
    /// (§IV-C). A chunk of 1 degenerates to per-VBN allocation, the
    /// baseline the paper contrasts against.
    pub chunk_blocks: usize,
    /// Serialized or parallel infrastructure.
    pub infra_mode: InfraMode,
    /// Collective (equal-progress) or immediate bucket reinsertion.
    pub reinsert: ReinsertPolicy,
}

impl Default for AllocConfig {
    fn default() -> Self {
        Self {
            chunk_blocks: 64,
            infra_mode: InfraMode::Parallel,
            reinsert: ReinsertPolicy::Collective,
        }
    }
}

impl AllocConfig {
    /// The paper's configuration with a given chunk size.
    pub fn with_chunk(chunk_blocks: usize) -> Self {
        Self {
            chunk_blocks,
            ..Self::default()
        }
    }

    /// The serialized-infrastructure baseline of Figs 4/6/7.
    pub fn serial_infra(mut self) -> Self {
        self.infra_mode = InfraMode::Serial;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_config() {
        let c = AllocConfig::default();
        assert_eq!(c.chunk_blocks % 64, 0, "chunk is a multiple of 64");
        assert_eq!(c.infra_mode, InfraMode::Parallel);
        assert_eq!(c.reinsert, ReinsertPolicy::Collective);
    }

    #[test]
    fn builders_compose() {
        let c = AllocConfig::with_chunk(128).serial_infra();
        assert_eq!(c.chunk_blocks, 128);
        assert_eq!(c.infra_mode, InfraMode::Serial);
    }
}
