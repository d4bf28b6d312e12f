//! Deterministic fault injection for the simulated storage substrate.
//!
//! Real WAFL runs on media that fails: drives return transient errors,
//! exhibit latency spikes, tear writes across power loss, and die
//! outright. The write-allocation paper takes RAID reconstruction and
//! NVLog replay for granted (§II-A/§II-B); this module supplies the
//! failure model that lets the reproduction exercise those paths.
//!
//! A [`FaultPlan`] is shared by every drive of an aggregate and decides,
//! per drive I/O, whether to inject a fault. Decisions are derived by
//! hashing `(seed, drive id, per-drive op ordinal, op kind)` through the
//! SplitMix64 finalizer, so a given seed produces the *same* fault
//! sequence per drive regardless of thread interleaving — crucial for
//! reproducing a failure found in a parallel test.
//!
//! Fault kinds (configured in [`FaultSpec`], rates in parts-per-million):
//!
//! * **transient errors** — the op fails; a retry (fresh ordinal) redraws;
//! * **latency spikes** — the op succeeds but costs extra service time;
//! * **torn writes** — a prefix of the run reaches media, then the op
//!   fails (models power loss mid-write);
//! * **whole-drive failure** — after a configured number of ops, one
//!   drive fails every subsequent I/O until rebuilt.
//!
//! [`RetryPolicy`] is the recovery half: bounded retries with exponential
//! backoff, and a consecutive-failure threshold after which the RAID
//! layer takes the drive offline and serves it degraded.

use crate::geometry::{Dbn, DriveId, Vbn};
use serde::Serialize;
use std::fmt;

/// A typed storage I/O error.
///
/// Replaces the panics the substrate used to reserve for programming
/// errors: address-range and capacity violations are now reported to the
/// caller, and injected media faults are first-class values that the
/// retry/degraded-mode machinery can match on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoError {
    /// A VBN outside the aggregate's address space.
    OutOfRange {
        /// The offending VBN.
        vbn: Vbn,
        /// Total VBNs in the aggregate.
        total: u64,
    },
    /// A DBN run extending past the end of a drive.
    Capacity {
        /// The drive addressed.
        drive: DriveId,
        /// First DBN of the run.
        dbn: Dbn,
        /// Length of the run in blocks.
        blocks: u64,
    },
    /// The drive has failed (injected whole-drive failure or taken
    /// offline after repeated errors). Persistent until rebuilt.
    DriveFailed {
        /// The failed drive.
        drive: DriveId,
    },
    /// A transient media error; the same op may succeed on retry.
    Transient {
        /// The drive that errored.
        drive: DriveId,
        /// First DBN of the failed op.
        dbn: Dbn,
    },
    /// Data loss the RAID layer cannot reconstruct (e.g. a second drive
    /// failure in a single-parity group).
    Unrecoverable {
        /// The RAID-group-relative description of what was lost.
        detail: &'static str,
    },
    /// Two segments of one write I/O cover the same block of a drive.
    OverlappingWrite {
        /// The drive written twice.
        drive: DriveId,
        /// First DBN the second segment covers twice.
        dbn: Dbn,
    },
    /// A storage target the backend recognizes but does not implement
    /// yet (e.g. a raw block device behind the `DiskKind` probe).
    NotYetSupported {
        /// What was asked for and why it is rejected.
        detail: &'static str,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::OutOfRange { vbn, total } => {
                write!(f, "VBN {} out of aggregate range (total {})", vbn.0, total)
            }
            IoError::Capacity { drive, dbn, blocks } => write!(
                f,
                "I/O of {} block(s) at DBN {} beyond capacity of drive {}",
                blocks, dbn.0, drive.0
            ),
            IoError::DriveFailed { drive } => write!(f, "drive {} failed", drive.0),
            IoError::Transient { drive, dbn } => {
                write!(
                    f,
                    "transient I/O error on drive {} at DBN {}",
                    drive.0, dbn.0
                )
            }
            IoError::Unrecoverable { detail } => {
                write!(f, "unrecoverable data loss: {detail}")
            }
            IoError::OverlappingWrite { drive, dbn } => write!(
                f,
                "write I/O covers DBN {} of drive {} more than once",
                dbn.0, drive.0
            ),
            IoError::NotYetSupported { detail } => {
                write!(f, "not yet supported: {detail}")
            }
        }
    }
}

impl std::error::Error for IoError {}

/// Configuration for a [`FaultPlan`]. All rates are in parts-per-million
/// of drive ops; the default spec injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct FaultSpec {
    /// Seed for the deterministic fault stream.
    pub seed: u64,
    /// Transient read-error rate (ppm).
    pub read_error_ppm: u32,
    /// Transient write-error rate (ppm).
    pub write_error_ppm: u32,
    /// Torn-write rate (ppm): a prefix persists, then the op errors.
    pub torn_write_ppm: u32,
    /// Latency-spike rate (ppm).
    pub latency_spike_ppm: u32,
    /// Extra service time charged by a latency spike.
    pub latency_spike_ns: u64,
    /// Aggregate-wide id of a drive that fails outright, if any.
    pub fail_drive: Option<u32>,
    /// The failing drive's op ordinal at which it dies (0 = dead on
    /// arrival).
    pub fail_drive_after_ops: u64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self {
            seed: 0,
            read_error_ppm: 0,
            write_error_ppm: 0,
            torn_write_ppm: 0,
            latency_spike_ppm: 0,
            latency_spike_ns: 2_000_000,
            fail_drive: None,
            fail_drive_after_ops: 0,
        }
    }
}

impl FaultSpec {
    /// A spec that only fails one whole drive after `after_ops` ops.
    pub fn drive_failure(drive: u32, after_ops: u64) -> Self {
        Self {
            fail_drive: Some(drive),
            fail_drive_after_ops: after_ops,
            ..Self::default()
        }
    }
}

/// What the plan decided for one drive op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Proceed normally.
    Ok,
    /// Proceed, but charge `extra_ns` more service time.
    Slow {
        /// Additional service time.
        extra_ns: u64,
    },
    /// Fail with a transient error (retryable).
    TransientError,
    /// Persist a prefix of the run, then fail (write ops only).
    TornWrite,
    /// The drive is dead; fail persistently.
    DriveFailed,
}

/// The kind of drive op being decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A media read.
    Read,
    /// A media write.
    Write,
}

/// A seeded, deterministic fault schedule shared by an aggregate's drives.
#[derive(Debug)]
pub struct FaultPlan {
    spec: FaultSpec,
}

/// SplitMix64 finalizer (same mixer the block-stamp generator uses).
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Build a plan from a spec.
    pub fn new(spec: FaultSpec) -> Self {
        Self { spec }
    }

    /// The configuration this plan was built from.
    #[inline]
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Decide the fate of op number `op` (a per-drive ordinal) on `drive`.
    ///
    /// Pure function of `(seed, drive, op, kind)`: the same arguments
    /// always yield the same decision.
    pub fn decide(&self, drive: DriveId, op: u64, kind: OpKind) -> FaultDecision {
        let s = &self.spec;
        if s.fail_drive == Some(drive.0) && op >= s.fail_drive_after_ops {
            return FaultDecision::DriveFailed;
        }
        let kind_salt = match kind {
            OpKind::Read => 0x52,
            OpKind::Write => 0x57,
        };
        let h = mix(s.seed ^ mix(drive.0 as u64 ^ 0xD21F) ^ mix(op ^ kind_salt));
        // Partition one draw into disjoint ppm bands so the rates are
        // additive and a single op triggers at most one fault.
        let draw = (h % 1_000_000) as u32;
        let (err_ppm, torn_ppm) = match kind {
            OpKind::Read => (s.read_error_ppm, 0),
            OpKind::Write => (s.write_error_ppm, s.torn_write_ppm),
        };
        if draw < err_ppm {
            return FaultDecision::TransientError;
        }
        if draw < err_ppm + torn_ppm {
            return FaultDecision::TornWrite;
        }
        if draw < err_ppm + torn_ppm + s.latency_spike_ppm {
            return FaultDecision::Slow {
                extra_ns: s.latency_spike_ns,
            };
        }
        FaultDecision::Ok
    }
}

/// Bounded-retry and drive-offlining policy applied where drive I/O is
/// issued (the RAID layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (so a transient op is tried
    /// `max_retries + 1` times in total).
    pub max_retries: u32,
    /// Backoff charged to service time: `backoff_base_ns << attempt`.
    pub backoff_base_ns: u64,
    /// Consecutive exhausted-retry failures after which the drive is
    /// taken offline and served via reconstruction.
    pub offline_after: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            backoff_base_ns: 50_000,
            offline_after: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let p = FaultPlan::new(FaultSpec {
            seed: 42,
            read_error_ppm: 200_000,
            write_error_ppm: 200_000,
            torn_write_ppm: 100_000,
            latency_spike_ppm: 100_000,
            ..FaultSpec::default()
        });
        for op in 0..500 {
            let a = p.decide(DriveId(3), op, OpKind::Write);
            let b = p.decide(DriveId(3), op, OpKind::Write);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn rates_are_roughly_respected() {
        let p = FaultPlan::new(FaultSpec {
            seed: 7,
            write_error_ppm: 250_000, // 25 %
            ..FaultSpec::default()
        });
        let n = 10_000;
        let errs = (0..n)
            .filter(|&op| p.decide(DriveId(0), op, OpKind::Write) == FaultDecision::TransientError)
            .count();
        let frac = errs as f64 / n as f64;
        assert!((0.2..0.3).contains(&frac), "got {frac}");
    }

    #[test]
    fn reads_and_writes_draw_independent_streams() {
        let p = FaultPlan::new(FaultSpec {
            seed: 9,
            read_error_ppm: 500_000,
            write_error_ppm: 500_000,
            ..FaultSpec::default()
        });
        let differs = (0..200).any(|op| {
            p.decide(DriveId(1), op, OpKind::Read) != p.decide(DriveId(1), op, OpKind::Write)
        });
        assert!(differs, "read and write streams should not be identical");
    }

    #[test]
    fn whole_drive_failure_is_persistent_and_targeted() {
        let p = FaultPlan::new(FaultSpec::drive_failure(2, 10));
        assert_eq!(p.decide(DriveId(2), 9, OpKind::Write), FaultDecision::Ok);
        for op in 10..20 {
            assert_eq!(
                p.decide(DriveId(2), op, OpKind::Read),
                FaultDecision::DriveFailed
            );
        }
        assert_eq!(p.decide(DriveId(1), 500, OpKind::Write), FaultDecision::Ok);
    }

    #[test]
    fn error_display_is_informative() {
        let e = IoError::Transient {
            drive: DriveId(4),
            dbn: Dbn(17),
        };
        assert!(e.to_string().contains("drive 4"));
        let e = IoError::OutOfRange {
            vbn: Vbn(99),
            total: 50,
        };
        assert!(e.to_string().contains("out of aggregate range"));
    }
}
