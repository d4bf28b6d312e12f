//! File-system-level configuration.

use crate::cleaner::CleanerConfig;
use alligator::AllocConfig;
use serde::Serialize;

/// Top-level configuration for a [`Filesystem`](crate::fs::Filesystem).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct FsConfig {
    /// Write-allocator settings (chunk size, infra mode, …).
    pub alloc: AllocConfig,
    /// Cleaner-pool settings (thread count, batching, region split).
    pub cleaner: CleanerConfig,
    /// VVBNs per volume created through
    /// [`Filesystem::create_volume`](crate::fs::Filesystem::create_volume).
    pub vvbn_per_volume: u64,
    /// Per-RAID-group submission-queue depth for the async I/O engine
    /// (`blockdev::aio`). `0` — the default — keeps every write
    /// synchronous and inline, exactly the pre-aio behavior; any
    /// positive depth routes tetris stripes through submission/
    /// completion queues, with CP phase boundaries as the only
    /// durability barriers.
    pub io_queue_depth: usize,
}

impl Default for FsConfig {
    fn default() -> Self {
        Self {
            alloc: AllocConfig::default(),
            cleaner: CleanerConfig::default(),
            vvbn_per_volume: 1 << 20,
            io_queue_depth: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_consistent() {
        let c = FsConfig::default();
        assert!(c.vvbn_per_volume > 0);
        assert!(c.cleaner.threads >= 1);
    }
}
