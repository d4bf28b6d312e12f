//! The tetris: per-RAID-group accumulation of cleaned buffers into one
//! write I/O.
//!
//! "A tetris is the unit of write I/O in WAFL. Logically, it is a
//! collection of blocks whose width is equal to the number of drives in
//! the RAID group and whose depth is the desired write I/O size per drive
//! … The tetris structure tracks lists of recently cleaned buffers on a
//! per-drive basis. Locking is not required when enqueuing buffers to the
//! tetris because the cleaner thread that owns a bucket has exclusive
//! access to the corresponding drive in the current tetris at that
//! instant. Each tetris also maintains a reference count of its
//! outstanding buckets that is atomically decremented … When this
//! reference count drops to zero, an I/O is constructed and sent to RAID"
//! (§IV-E).
//!
//! In this implementation the lock-free per-drive enqueue is realized by
//! ownership: each [`Bucket`](crate::bucket::Bucket) accumulates its
//! drive's `(DBN, stamp)` pairs privately (no synchronization at all on
//! the USE path) and deposits the whole list exactly once when the bucket
//! is finished — one short critical section per *bucket*, not per buffer,
//! which is the amortization the paper attributes to buckets (§IV-C).

use crate::stats::AllocStats;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use wafl_blockdev::{BlockStamp, IoEngine, IoError, IoResult, RaidGroupId, WriteIo, WriteSegment};

/// One drive's deposited writes: `(drive_in_rg, [(dbn, stamp)])`.
type DriveDeposit = (u32, Vec<(u64, BlockStamp)>);

/// One in-flight tetris: collects per-drive block lists from its buckets
/// and submits a single RAID write when the last bucket is done.
pub struct Tetris {
    rg: RaidGroupId,
    /// Buckets that have not yet deposited and signaled completion.
    outstanding: AtomicUsize,
    /// Deposited per-drive lists: `(drive_in_rg, Vec<(dbn, stamp)>)`.
    deposits: Mutex<Vec<DriveDeposit>>, // lock-rank: tetris.deposits 41
    io: Arc<IoEngine>,
    stats: Arc<AllocStats>,
    submitted: AtomicBool,
}

impl Tetris {
    /// Create a tetris expecting `outstanding` buckets (normally the RAID
    /// group width).
    pub fn new(
        rg: RaidGroupId,
        outstanding: usize,
        io: Arc<IoEngine>,
        stats: Arc<AllocStats>,
    ) -> Arc<Self> {
        assert!(outstanding > 0, "tetris needs at least one bucket");
        Arc::new(Self {
            rg,
            outstanding: AtomicUsize::new(outstanding),
            deposits: Mutex::new(Vec::with_capacity(outstanding)),
            io,
            stats,
            submitted: AtomicBool::new(false),
        })
    }

    /// Target RAID group.
    #[inline]
    pub fn rg(&self) -> RaidGroupId {
        self.rg
    }

    /// Buckets still outstanding.
    #[inline]
    pub fn outstanding(&self) -> usize {
        // ordering: Acquire — pairs with completion's AcqRel decrement; zero implies all I/O effects are visible.
        self.outstanding.load(Ordering::Acquire)
    }

    /// Has the write I/O been sent?
    #[inline]
    pub fn is_submitted(&self) -> bool {
        // ordering: Acquire — pairs with the AcqRel swap in submit.
        self.submitted.load(Ordering::Acquire)
    }

    /// Deposit a finished bucket's block list and decrement the
    /// outstanding count. When the count reaches zero, the write I/O is
    /// constructed and sent to RAID. Returns the I/O outcome if this call
    /// triggered submission; an `Err` means the write engine exhausted its
    /// retries (e.g. too many failed drives) and the stamps did not reach
    /// stable storage.
    ///
    /// `writes` may be empty (a bucket returned unused at CP end still
    /// participates in the countdown).
    pub fn deposit_and_complete(
        &self,
        drive_in_rg: u32,
        writes: Vec<(u64, BlockStamp)>,
    ) -> Option<Result<IoResult, IoError>> {
        if !writes.is_empty() {
            self.deposits.lock().push((drive_in_rg, writes));
        }
        // ordering: AcqRel — releases this I/O's effects to whoever
        // observes the count drop; pairs-with: tetris.outstanding.
        let prev = self.outstanding.fetch_sub(1, Ordering::AcqRel);
        assert!(prev > 0, "tetris completed more buckets than outstanding");
        if prev == 1 {
            Some(self.submit())
        } else {
            None
        }
    }

    fn submit(&self) -> Result<IoResult, IoError> {
        // ordering: AcqRel — one-shot submit guard; the winner's setup is
        // released to later observers; pairs-with: tetris.submit.
        let was = self.submitted.swap(true, Ordering::AcqRel);
        assert!(!was, "tetris submitted twice");
        let mut deposits = std::mem::take(&mut *self.deposits.lock());
        // Convert each per-drive list into contiguous segments.
        let mut segments = Vec::new();
        for (drive, mut writes) in deposits.drain(..) {
            writes.sort_unstable_by_key(|&(dbn, _)| dbn);
            let mut i = 0;
            while i < writes.len() {
                let start = writes[i].0;
                let mut stamps = vec![writes[i].1];
                let mut j = i + 1;
                while j < writes.len() && writes[j].0 == start + (j - i) as u64 {
                    stamps.push(writes[j].1);
                    j += 1;
                }
                segments.push(WriteSegment {
                    drive_in_rg: drive,
                    start_dbn: start,
                    stamps,
                });
                i = j;
            }
        }
        let io = WriteIo {
            rg: self.rg,
            segments,
        };
        let _sp = obs::trace_span!(obs::EventKind::StripeFire, io.blocks());
        // ordering: statistics counter; staleness is acceptable.
        self.stats.tetris_ios.fetch_add(1, Ordering::Relaxed);
        // Queued or inline is the engine's decision; a queued stripe's
        // errors are accounted at harvest (`Infrastructure::harvest_io`).
        let result = self.io.write(io);
        if result.is_err() {
            // ordering: statistics counter; staleness is acceptable.
            self.stats.io_errors.fetch_add(1, Ordering::Relaxed);
        }
        result
    }
}

impl std::fmt::Debug for Tetris {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tetris")
            .field("rg", &self.rg)
            .field("outstanding", &self.outstanding())
            .field("submitted", &self.is_submitted())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wafl_blockdev::{DriveKind, GeometryBuilder, Vbn};

    fn io() -> Arc<IoEngine> {
        Arc::new(IoEngine::new(
            Arc::new(
                GeometryBuilder::new()
                    .aa_stripes(32)
                    .raid_group(3, 1, 256)
                    .build(),
            ),
            DriveKind::Ssd,
        ))
    }

    #[test]
    fn submits_exactly_when_last_bucket_completes() {
        let engine = io();
        let stats = Arc::new(AllocStats::default());
        let t = Tetris::new(RaidGroupId(0), 3, Arc::clone(&engine), Arc::clone(&stats));
        assert!(t.deposit_and_complete(0, vec![(0, 10), (1, 11)]).is_none());
        assert!(t.deposit_and_complete(1, vec![(0, 20), (1, 21)]).is_none());
        assert!(!t.is_submitted());
        let r = t
            .deposit_and_complete(2, vec![(0, 30), (1, 31)])
            .unwrap()
            .unwrap();
        assert!(t.is_submitted());
        assert_eq!(r.blocks_written, 6);
        assert_eq!(r.parity_reads, 0, "aligned tetris is all full stripes");
        assert_eq!(engine.full_stripe_ratio(), Some(1.0));
        // ordering: test readback.
        assert_eq!(stats.tetris_ios.load(Ordering::Relaxed), 1);
        assert_eq!(engine.read_vbn(Vbn(0)).unwrap(), 10);
        assert_eq!(engine.read_vbn(Vbn(256)).unwrap(), 20); // drive 1 base
        engine.scrub().unwrap();
    }

    #[test]
    fn empty_deposits_still_count_down() {
        let engine = io();
        let stats = Arc::new(AllocStats::default());
        let t = Tetris::new(RaidGroupId(0), 2, engine, stats);
        assert!(t.deposit_and_complete(0, vec![(5, 99)]).is_none());
        let r = t.deposit_and_complete(1, Vec::new()).unwrap().unwrap();
        assert_eq!(r.blocks_written, 1);
        assert!(r.parity_reads > 0, "ragged tail pays parity reads");
    }

    #[test]
    fn noncontiguous_writes_become_multiple_segments() {
        let engine = io();
        let stats = Arc::new(AllocStats::default());
        let t = Tetris::new(RaidGroupId(0), 1, Arc::clone(&engine), stats);
        let r = t
            .deposit_and_complete(0, vec![(0, 1), (1, 2), (7, 3)])
            .unwrap()
            .unwrap();
        assert_eq!(r.blocks_written, 3);
        // 2 drive writes: run [0,2) and run [7,8).
        let d0 = &engine.raid_group(RaidGroupId(0)).data_drives()[0];
        assert_eq!(d0.stats().writes, 2);
    }

    #[test]
    fn concurrent_completion_submits_once() {
        let engine = io();
        let stats = Arc::new(AllocStats::default());
        let t = Tetris::new(RaidGroupId(0), 8, engine, Arc::clone(&stats));
        let mut handles = Vec::new();
        for d in 0..8u32 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                t.deposit_and_complete(d % 3, vec![(d as u64 * 2, d as u128 + 1)])
                    .is_some()
            }));
        }
        let submitters: usize = handles
            .into_iter()
            .map(|h| h.join().unwrap() as usize)
            .sum();
        assert_eq!(submitters, 1, "exactly one completer submits");
        // ordering: test readback.
        assert_eq!(stats.tetris_ios.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn unrecoverable_submission_is_reported_and_counted() {
        let engine = io();
        // Two data drives offline in a single-parity group: the write
        // cannot be completed or reconstructed.
        let rg = engine.raid_group(RaidGroupId(0));
        rg.data_drives()[0].take_offline();
        rg.data_drives()[1].take_offline();
        let stats = Arc::new(AllocStats::default());
        let t = Tetris::new(RaidGroupId(0), 1, engine, Arc::clone(&stats));
        let r = t.deposit_and_complete(0, vec![(0, 7)]).unwrap();
        assert!(r.is_err(), "double drive failure must surface as an error");
        // ordering: test readback.
        assert_eq!(stats.io_errors.load(Ordering::Relaxed), 1);
        assert!(t.is_submitted());
    }

    #[test]
    #[should_panic(expected = "more buckets than outstanding")]
    fn over_completion_panics() {
        let engine = io();
        let stats = Arc::new(AllocStats::default());
        let t = Tetris::new(RaidGroupId(0), 1, engine, stats);
        t.deposit_and_complete(0, Vec::new());
        t.deposit_and_complete(0, Vec::new());
    }
}
