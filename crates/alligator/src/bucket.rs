//! Buckets: the basic unit of allocation handed to cleaner threads.
//!
//! "A bucket is simply a set of contiguous VBNs on each drive that is
//! defined by a starting VBN and a length, with additional metadata to
//! track which VBNs have already been used" (§IV-C). Buckets exist to
//! amortize three costs: finding free VBNs in the infrastructure,
//! cleaner-thread synchronization (paid per bucket, not per VBN), and they
//! guarantee that one cleaner gets *contiguous* VBNs for consecutive file
//! blocks — "which is not possible when allocating one at a time in a
//! multithreaded environment".
//!
//! The **USE** operation lives here ([`Bucket::use_vbn`]): it consumes the
//! next VBN and records the buffer's payload for the bucket's tetris
//! slot. It takes `&mut self` and touches no shared state — the
//! synchronization-free hot path the architecture is designed around.

use crate::tetris::Tetris;
use std::sync::Arc;
use wafl_blockdev::{AaId, BlockStamp, DriveId, RaidGroupId, Vbn};

/// A bucket of free VBNs on one drive, plus its tetris attachment.
pub struct Bucket {
    /// Owning RAID group.
    rg: RaidGroupId,
    /// Drive index within the RAID group.
    drive_in_rg: u32,
    /// Aggregate-wide drive id.
    drive: DriveId,
    /// Allocation Area the VBNs came from.
    aa: AaId,
    /// The reserved VBNs, ascending (contiguous when the AA is empty).
    vbns: Vec<Vbn>,
    /// Index of the next unused VBN.
    next: usize,
    /// Buffer payloads recorded by USE: `(dbn, stamp)` for the tetris.
    writes: Vec<(u64, BlockStamp)>,
    /// DBN of the first VBN (so USE can compute DBNs without geometry).
    base_dbn: u64,
    /// Base VBN minus base DBN (drive VBN base) for DBN conversion.
    vbn_to_dbn_delta: u64,
    /// The tetris this bucket deposits into.
    tetris: Arc<Tetris>,
    /// Monotone refill generation, for debugging and tests.
    generation: u64,
}

impl Bucket {
    /// Construct a filled bucket. `drive_vbn_base` is the first VBN of the
    /// owning drive (used to derive DBNs for the tetris). Buckets are
    /// normally built by the refill infrastructure; this is public so
    /// out-of-crate harnesses (the cache stress test, the wall-clock
    /// contention bench) can exercise the cache with real buckets.
    ///
    /// # Panics
    /// Panics if `vbns` is empty or not ascending.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        rg: RaidGroupId,
        drive_in_rg: u32,
        drive: DriveId,
        aa: AaId,
        vbns: Vec<Vbn>,
        drive_vbn_base: u64,
        tetris: Arc<Tetris>,
        generation: u64,
    ) -> Self {
        assert!(!vbns.is_empty(), "bucket must hold at least one VBN");
        debug_assert!(
            vbns.windows(2).all(|w| w[0] < w[1]),
            "bucket VBNs must ascend"
        );
        let base_dbn = vbns[0].0 - drive_vbn_base;
        Self {
            rg,
            drive_in_rg,
            drive,
            aa,
            writes: Vec::with_capacity(vbns.len()),
            next: 0,
            base_dbn,
            vbn_to_dbn_delta: drive_vbn_base,
            vbns,
            tetris,
            generation,
        }
    }

    /// **USE** (step 3 of Figure 2): assign the next VBN from the bucket
    /// to a dirty buffer carrying `stamp`, marking it consumed in the
    /// bucket metadata and enqueuing the buffer toward the tetris.
    ///
    /// Returns `None` when the bucket is exhausted; the cleaner should
    /// then PUT this bucket and GET a fresh one.
    #[inline]
    pub fn use_vbn(&mut self, stamp: BlockStamp) -> Option<Vbn> {
        let vbn = *self.vbns.get(self.next)?;
        self.next += 1;
        self.writes.push((vbn.0 - self.vbn_to_dbn_delta, stamp));
        Some(vbn)
    }

    /// VBNs not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.vbns.len() - self.next
    }

    /// Is every VBN consumed?
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        self.next == self.vbns.len()
    }

    /// The consumed VBNs so far (ascending).
    #[inline]
    pub fn consumed(&self) -> &[Vbn] {
        &self.vbns[..self.next]
    }

    /// The unconsumed VBNs (ascending).
    #[inline]
    pub fn unused(&self) -> &[Vbn] {
        &self.vbns[self.next..]
    }

    /// Owning RAID group.
    #[inline]
    pub fn rg(&self) -> RaidGroupId {
        self.rg
    }

    /// Drive index within the RAID group.
    #[inline]
    pub fn drive_in_rg(&self) -> u32 {
        self.drive_in_rg
    }

    /// Aggregate-wide drive id.
    #[inline]
    pub fn drive(&self) -> DriveId {
        self.drive
    }

    /// Source Allocation Area.
    #[inline]
    pub fn aa(&self) -> AaId {
        self.aa
    }

    /// First VBN of the bucket.
    #[inline]
    pub fn start_vbn(&self) -> Vbn {
        self.vbns[0]
    }

    /// Total VBNs the bucket was filled with (the chunk size, §IV-C).
    #[inline]
    pub fn len(&self) -> usize {
        self.vbns.len()
    }

    /// Buckets are never empty (checked at construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Refill generation (diagnostics).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// DBN of the bucket's first block (tetris row).
    #[inline]
    pub fn base_dbn(&self) -> u64 {
        self.base_dbn
    }

    /// Are the VBNs fully contiguous (the §IV-C definition)?
    pub fn is_contiguous(&self) -> bool {
        self.vbns.windows(2).all(|w| w[1].0 == w[0].0 + 1)
    }

    /// Tear the bucket down for PUT: deposit recorded writes into the
    /// tetris (triggering the RAID I/O if this was the last outstanding
    /// bucket) and return the pieces the infrastructure needs for its
    /// metafile commit.
    pub(crate) fn finish(self) -> FinishedBucket {
        let Bucket {
            rg,
            drive_in_rg,
            drive,
            aa,
            vbns,
            next,
            writes,
            tetris,
            generation,
            ..
        } = self;
        tetris.deposit_and_complete(drive_in_rg, writes);
        FinishedBucket {
            rg,
            drive_in_rg,
            drive,
            aa,
            consumed: vbns[..next].to_vec(),
            unused: vbns[next..].to_vec(),
            generation,
        }
    }
}

impl std::fmt::Debug for Bucket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bucket")
            .field("rg", &self.rg)
            .field("drive", &self.drive)
            .field("start", &self.vbns[0].0)
            .field("len", &self.vbns.len())
            .field("next", &self.next)
            .field("gen", &self.generation)
            .finish()
    }
}

/// A bucket after PUT: what the infrastructure's commit step consumes.
#[derive(Debug)]
pub struct FinishedBucket {
    /// Owning RAID group.
    pub rg: RaidGroupId,
    /// Drive index within the RAID group.
    pub drive_in_rg: u32,
    /// Aggregate-wide drive id.
    pub drive: DriveId,
    /// Source Allocation Area.
    pub aa: AaId,
    /// VBNs consumed by USE — to be committed in the metafiles.
    pub consumed: Vec<Vbn>,
    /// VBNs never consumed — to be released back to free.
    pub unused: Vec<Vbn>,
    /// Refill generation.
    pub generation: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::AllocStats;
    use wafl_blockdev::{AioEngine, DriveKind, GeometryBuilder, IoEngine};

    /// A tetris over an engine whose stripes go through the returned
    /// async engine.
    fn tetris(outstanding: usize) -> (Arc<Tetris>, Arc<AioEngine>) {
        let engine = Arc::new(IoEngine::new(
            Arc::new(
                GeometryBuilder::new()
                    .aa_stripes(32)
                    .raid_group(2, 1, 256)
                    .build(),
            ),
            DriveKind::Ssd,
        ));
        let t = Tetris::new(
            RaidGroupId(0),
            outstanding,
            Arc::clone(&engine),
            Arc::new(AllocStats::default()),
        );
        (t, AioEngine::new(engine, 8))
    }

    fn bucket(t: &Arc<Tetris>, start: u64, len: u64, base: u64) -> Bucket {
        Bucket::new(
            RaidGroupId(0),
            0,
            DriveId(0),
            AaId {
                rg: RaidGroupId(0),
                index: 0,
            },
            (start..start + len).map(Vbn).collect(),
            base,
            Arc::clone(t),
            1,
        )
    }

    #[test]
    fn use_consumes_in_order() {
        let (t, _) = tetris(1);
        let mut b = bucket(&t, 10, 4, 0);
        assert_eq!(b.use_vbn(100), Some(Vbn(10)));
        assert_eq!(b.use_vbn(101), Some(Vbn(11)));
        assert_eq!(b.remaining(), 2);
        assert_eq!(b.consumed(), &[Vbn(10), Vbn(11)]);
        assert_eq!(b.unused(), &[Vbn(12), Vbn(13)]);
        assert!(b.is_contiguous());
    }

    #[test]
    fn exhausted_bucket_returns_none() {
        let (t, _) = tetris(1);
        let mut b = bucket(&t, 0, 2, 0);
        b.use_vbn(1);
        b.use_vbn(2);
        assert!(b.is_exhausted());
        assert_eq!(b.use_vbn(3), None);
        assert_eq!(b.use_vbn(3), None, "stays exhausted");
    }

    #[test]
    fn finish_reports_consumed_and_unused() {
        let (t, aio) = tetris(1);
        let mut b = bucket(&t, 5, 4, 0);
        b.use_vbn(0xaa);
        b.use_vbn(0xbb);
        let f = b.finish();
        assert_eq!(f.consumed, vec![Vbn(5), Vbn(6)]);
        assert_eq!(f.unused, vec![Vbn(7), Vbn(8)]);
        assert!(t.is_submitted(), "last bucket of the tetris submits");
        let done = aio.drain();
        assert!(done[0].result.is_ok());
        assert_eq!(aio.io().read_vbn(Vbn(5)).unwrap(), 0xaa);
        assert_eq!(aio.io().read_vbn(Vbn(6)).unwrap(), 0xbb);
    }

    #[test]
    fn dbn_conversion_uses_drive_base() {
        // Drive 1 of the group owns VBNs [256, 512); its DBNs start at 0.
        let (t, aio) = tetris(1);
        let mut b = Bucket::new(
            RaidGroupId(0),
            1,
            DriveId(1),
            AaId {
                rg: RaidGroupId(0),
                index: 0,
            },
            vec![Vbn(256), Vbn(257)],
            256,
            Arc::clone(&t),
            1,
        );
        assert_eq!(b.base_dbn(), 0);
        b.use_vbn(0x42);
        b.finish();
        aio.drain();
        assert_eq!(aio.io().read_vbn(Vbn(256)).unwrap(), 0x42);
    }

    #[test]
    fn noncontiguous_bucket_detected() {
        let (t, _) = tetris(1);
        let b = Bucket::new(
            RaidGroupId(0),
            0,
            DriveId(0),
            AaId {
                rg: RaidGroupId(0),
                index: 0,
            },
            vec![Vbn(0), Vbn(1), Vbn(5)],
            0,
            t,
            1,
        );
        assert!(!b.is_contiguous());
    }

    #[test]
    #[should_panic(expected = "at least one VBN")]
    fn empty_bucket_panics() {
        let (t, _) = tetris(1);
        let _ = Bucket::new(
            RaidGroupId(0),
            0,
            DriveId(0),
            AaId {
                rg: RaidGroupId(0),
                index: 0,
            },
            Vec::new(),
            0,
            t,
            1,
        );
    }
}
