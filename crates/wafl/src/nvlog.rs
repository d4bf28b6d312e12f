//! The nonvolatile RAM operation log.
//!
//! "Instead of delaying the client reply until the data reaches
//! persistent storage as part of the next batch, operations that update
//! file system state are logged in nonvolatile RAM, which allows the
//! system to reply to client writes very quickly … If the system crashes
//! before the superblock is written, the file system state from the most
//! recently completed CP is loaded and all subsequent operations are
//! replayed from the log stored in nonvolatile RAM" (§II-C).
//!
//! The log has two halves, CP-aligned:
//!
//! * `current` — ops logged since the last CP freeze (they will be part
//!   of the *next* CP);
//! * `in_cp` — ops whose effects are being persisted by the in-flight CP;
//!   discarded when the superblock commits, replayed if the system
//!   crashes before that.

use crate::inode::FileId;
use crate::volume::VolumeId;
use parking_lot::Mutex;
use serde::Serialize;
use wafl_blockdev::BlockStamp;

/// A logged client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Op {
    /// Create a file in a volume.
    Create {
        /// Target volume.
        vol: VolumeId,
        /// New file id.
        file: FileId,
    },
    /// Write one block of a file.
    Write {
        /// Target volume.
        vol: VolumeId,
        /// Target file.
        file: FileId,
        /// File block number.
        fbn: u64,
        /// Payload stamp.
        stamp: BlockStamp,
    },
    /// Truncate a file to a block count.
    Truncate {
        /// Target volume.
        vol: VolumeId,
        /// Target file.
        file: FileId,
        /// New size in blocks.
        new_size_fbns: u64,
    },
    /// Delete a file.
    Delete {
        /// Target volume.
        vol: VolumeId,
        /// Target file.
        file: FileId,
    },
}

/// The two-half NVRAM log — see module docs.
///
/// ```
/// use wafl::{FileId, NvLog, Op, VolumeId};
///
/// let log = NvLog::new();
/// let w = |fbn| Op::Write { vol: VolumeId(0), file: FileId(1), fbn, stamp: 1 };
/// log.log(w(0));
/// log.freeze();        // CP start: ops move to the in-flight half
/// log.log(w(1));       // acknowledged during the CP
/// assert_eq!(log.replay_ops().len(), 2, "crash now would replay both");
/// log.commit_cp();     // superblock written: the CP's half is discarded
/// assert_eq!(log.replay_ops(), vec![w(1)]);
/// ```
#[derive(Debug)]
pub struct NvLog {
    inner: Mutex<Halves>,
}

impl Default for NvLog {
    fn default() -> Self {
        Self {
            inner: Mutex::ranked(Halves::default(), "nvlog", 22),
        }
    }
}

#[derive(Debug, Default)]
struct Halves {
    current: Vec<Op>,
    in_cp: Vec<Op>,
}

impl NvLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Log an acknowledged client op.
    pub fn log(&self, op: Op) {
        self.inner.lock().current.push(op);
    }

    /// CP freeze: the current half becomes the in-flight-CP half; new ops
    /// accumulate in a fresh current half.
    ///
    /// # Panics
    /// Panics if a CP is already in flight (the previous `commit_cp` was
    /// never called) — WAFL runs one CP at a time per aggregate.
    pub fn freeze(&self) {
        let mut h = self.inner.lock();
        assert!(
            h.in_cp.is_empty(),
            "NVLog freeze with a CP already in flight"
        );
        h.in_cp = std::mem::take(&mut h.current);
    }

    /// Superblock committed: the in-flight CP's log half is discarded.
    pub fn commit_cp(&self) {
        self.inner.lock().in_cp.clear();
    }

    /// Crash recovery: every op not yet covered by a committed CP, in
    /// arrival order (`in_cp` half first, then `current`).
    pub fn replay_ops(&self) -> Vec<Op> {
        let h = self.inner.lock();
        h.in_cp.iter().chain(h.current.iter()).copied().collect()
    }

    /// Ops in the current (next-CP) half.
    pub fn current_len(&self) -> usize {
        self.inner.lock().current.len()
    }

    /// Ops in the in-flight-CP half.
    pub fn in_cp_len(&self) -> usize {
        self.inner.lock().in_cp.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(fbn: u64) -> Op {
        Op::Write {
            vol: VolumeId(0),
            file: FileId(1),
            fbn,
            stamp: fbn as u128 + 1,
        }
    }

    #[test]
    fn freeze_splits_halves() {
        let log = NvLog::new();
        log.log(w(0));
        log.log(w(1));
        log.freeze();
        log.log(w(2));
        assert_eq!(log.in_cp_len(), 2);
        assert_eq!(log.current_len(), 1);
    }

    #[test]
    fn commit_discards_only_the_cp_half() {
        let log = NvLog::new();
        log.log(w(0));
        log.freeze();
        log.log(w(1));
        log.commit_cp();
        assert_eq!(log.in_cp_len(), 0);
        assert_eq!(log.current_len(), 1);
        assert_eq!(log.replay_ops(), vec![w(1)]);
    }

    #[test]
    fn replay_covers_both_halves_in_order() {
        let log = NvLog::new();
        log.log(w(0));
        log.freeze();
        log.log(w(1));
        log.log(w(2));
        assert_eq!(log.replay_ops(), vec![w(0), w(1), w(2)]);
    }

    #[test]
    #[should_panic(expected = "already in flight")]
    fn double_freeze_panics() {
        let log = NvLog::new();
        log.log(w(0));
        log.freeze();
        log.freeze();
    }

    #[test]
    fn empty_freeze_is_fine() {
        let log = NvLog::new();
        log.freeze();
        log.commit_cp();
        assert!(log.replay_ops().is_empty());
    }
}
