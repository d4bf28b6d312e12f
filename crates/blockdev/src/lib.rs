//! # wafl-blockdev — simulated storage substrate
//!
//! This crate models the persistent-storage layer beneath the WAFL file
//! system as described in *Scalable Write Allocation in the WAFL File
//! System* (ICPP 2017):
//!
//! * an **aggregate** is a shared pool of storage made of **RAID groups**,
//!   each with one or more **parity drives** (§II-B of the paper);
//! * storage is exposed as an addressable space of fixed-size blocks; a
//!   block in the aggregate is addressed by its **volume block number
//!   (VBN)** (§II-B);
//! * a **stripe** is a set of blocks belonging to the data drives of a RAID
//!   group, one per drive, sharing the same parity block (§IV-D);
//! * an **Allocation Area (AA)** is a contiguous set of stripes (§IV-D);
//! * a **tetris** — built by the `alligator` crate on top of this one —
//!   is a contiguous collection of stripes sent to RAID as a single write
//!   I/O (§IV-E).
//!
//! The crate provides:
//!
//! * [`geometry::AggregateGeometry`] — the VBN ↔ (RAID group, drive, DBN)
//!   mapping and stripe/AA arithmetic;
//! * [`drive`] — per-drive simulated media with content verification and a
//!   service-time model (SSD vs HDD), standing in for the paper's all-SSD
//!   and Flash Pool testbeds;
//! * [`raid`] — parity accounting that distinguishes **full-stripe writes**
//!   (no parity reads, the write allocator's objective 1) from
//!   read-modify-write partial-stripe writes;
//! * [`io`] — the write-I/O engine with counters that the benchmarks use to
//!   check layout quality (full-stripe ratio, per-drive balance).
//!
//! Everything is deterministic and in-memory: block payloads are 128-bit
//! stamps rather than 4 KiB buffers, which lets integration tests verify
//! end-to-end data integrity (crash + replay, CP atomicity) cheaply.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aio;
pub mod drive;
pub mod fault;
pub mod geometry;
pub mod io;
pub mod raid;

pub use aio::{AioEngine, Completion, DiskKind, FileBackend, IoTicket, SyncPolicy};
pub use drive::{Drive, DriveKind, ServiceModel};
pub use fault::{FaultDecision, FaultPlan, FaultSpec, IoError, OpKind, RetryPolicy};
pub use geometry::{
    AaId, AggregateGeometry, BlockLoc, Dbn, DriveId, GeometryBuilder, RaidGroupGeometry,
    RaidGroupId, StripeId, Vbn, BLOCK_SIZE,
};
pub use io::{FaultSnapshot, IoCounters, IoEngine, IoResult, WriteIo, WriteSegment};
pub use raid::{ParityModel, RaidGroup};

/// A 128-bit block payload stamp.
///
/// Real WAFL writes 4 KiB blocks; this simulation reduces each block's
/// payload to a 16-byte stamp (typically a hash of `(file, fbn, cp)`), so
/// integrity can be verified end-to-end without carrying page-sized buffers
/// through the allocator. Stamp `0` means "never written".
pub type BlockStamp = u128;

/// Produce a deterministic block stamp from a `(file, fbn, generation)`
/// triple. Uses the SplitMix64 finalizer on each component so that distinct
/// triples virtually never collide and stamp `0` is never produced for a
/// real write.
#[inline]
pub fn stamp(file: u64, fbn: u64, generation: u64) -> BlockStamp {
    #[inline]
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    let hi = mix(file ^ mix(generation));
    let lo = mix(fbn ^ mix(file.rotate_left(17)) ^ generation.wrapping_mul(0x2545_f491_4f6c_dd1d));
    let s = ((hi as u128) << 64) | lo as u128;
    // Reserve 0 for "unwritten".
    if s == 0 {
        1
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_is_deterministic() {
        assert_eq!(stamp(1, 2, 3), stamp(1, 2, 3));
    }

    #[test]
    fn stamp_distinguishes_components() {
        let base = stamp(1, 2, 3);
        assert_ne!(base, stamp(2, 2, 3));
        assert_ne!(base, stamp(1, 3, 3));
        assert_ne!(base, stamp(1, 2, 4));
    }

    #[test]
    fn stamp_never_zero() {
        for f in 0..50 {
            for b in 0..50 {
                assert_ne!(stamp(f, b, 0), 0);
            }
        }
    }
}
