//! Dirty buffers: the in-memory representation of modified file blocks.
//!
//! "A block of a file is represented in memory by a buffer" (§II-B).
//! Payloads are 128-bit stamps (see [`wafl_blockdev::BlockStamp`]); a
//! dirty buffer also remembers the block's *previous* physical and
//! virtual locations, because "an overwrite in WAFL frees the old block"
//! (§III-C) — cleaning stages those frees.

use serde::Serialize;
use wafl_blockdev::{BlockStamp, Vbn};

/// A modified file block awaiting cleaning in the next CP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct DirtyBuffer {
    /// File block number (offset within the file).
    pub fbn: u64,
    /// Payload stamp to persist.
    pub stamp: BlockStamp,
    /// Previous physical location, if the block was allocated before
    /// (`None` for a first write / hole fill).
    pub old_pvbn: Option<Vbn>,
    /// Previous virtual location within the volume.
    pub old_vvbn: Option<u64>,
}

impl DirtyBuffer {
    /// A first-write buffer (no previous location).
    pub fn first_write(fbn: u64, stamp: BlockStamp) -> Self {
        Self {
            fbn,
            stamp,
            old_pvbn: None,
            old_vvbn: None,
        }
    }

    /// An overwrite of a block previously at `(old_vvbn, old_pvbn)`.
    pub fn overwrite(fbn: u64, stamp: BlockStamp, old_vvbn: u64, old_pvbn: Vbn) -> Self {
        Self {
            fbn,
            stamp,
            old_pvbn: Some(old_pvbn),
            old_vvbn: Some(old_vvbn),
        }
    }
}

/// Where a cleaned buffer landed: the result record a cleaner produces
/// and the CP engine applies to the file's block map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CleanedBlock {
    /// File block number.
    pub fbn: u64,
    /// Newly assigned Virtual VBN.
    pub vvbn: u64,
    /// Newly assigned physical VBN.
    pub pvbn: Vbn,
    /// The payload that was written there.
    pub stamp: BlockStamp,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_write_has_no_old_location() {
        let b = DirtyBuffer::first_write(7, 0xabc);
        assert_eq!(b.old_pvbn, None);
        assert_eq!(b.old_vvbn, None);
    }

    #[test]
    fn overwrite_remembers_old_location() {
        let b = DirtyBuffer::overwrite(7, 0xdef, 42, Vbn(1000));
        assert_eq!(b.old_pvbn, Some(Vbn(1000)));
        assert_eq!(b.old_vvbn, Some(42));
    }
}
