//! Virtual-VBN allocation within a FlexVol volume.
//!
//! "A version of this infrastructure is reused to write allocate Virtual
//! VBNs within FlexVol volumes" (§IV-D). The full bucket machinery is in
//! the `alligator` crate; the VVBN space has no RAID geometry (it is a
//! flat offset space), so this type reuses the two properties that
//! matter:
//!
//! * **chunked reservation** ([`VvbnSpace::alloc_chunk`]): a cleaner
//!   grabs a run of VVBNs at a time, amortizing synchronization exactly
//!   like a bucket. The cleaner sizes each run to the buffers its job
//!   still has to clean, capped at the cleaner's `VVBN_CHUNK` (64),
//!   which bounds the cursor hold. An over-sized run would be
//!   reserved and then released VVBN by VVBN, each a contended RMW on
//!   the map's bits and free count, and would scatter the volume's
//!   VVBNs over more metafile blocks;
//! * the backing [`ActiveMap`] tracks *metafile-block dirtying* for VVBN
//!   allocations and frees, which is the volume-side infrastructure load
//!   (the Volume-VBN Range affinities of §IV-B2).

use parking_lot::Mutex;
use std::sync::Arc;
use wafl_metafile::ActiveMap;

/// The VVBN number space of one volume.
///
/// ```
/// use wafl::VvbnSpace;
///
/// let space = VvbnSpace::new(1 << 20);
/// let mut chunk = space.alloc_chunk(64).unwrap();   // bucket-style grab
/// let v = chunk.take().unwrap();
/// space.commit(v);                                  // dirties the metafile
/// space.release_unused(&chunk);                     // unconsumed tail back
/// assert_eq!(space.free_count(), (1 << 20) - 1);
/// ```
pub struct VvbnSpace {
    map: Arc<ActiveMap>,
    /// Next offset to scan for free VVBNs (wraps once).
    cursor: Mutex<u64>,
    total: u64,
}

/// A chunk of reserved VVBNs held by one cleaner.
#[derive(Debug)]
pub struct VvbnChunk {
    vvbns: Vec<u64>,
    next: usize,
}

impl VvbnChunk {
    /// Take the next VVBN from the chunk.
    #[inline]
    pub fn take(&mut self) -> Option<u64> {
        let v = *self.vvbns.get(self.next)?;
        self.next += 1;
        Some(v)
    }

    /// The unconsumed tail (for release at CP end).
    #[inline]
    pub fn unused(&self) -> &[u64] {
        &self.vvbns[self.next..]
    }

    /// The consumed VVBNs.
    #[inline]
    pub fn consumed(&self) -> &[u64] {
        &self.vvbns[..self.next]
    }
}

impl VvbnSpace {
    /// A volume with `total` addressable VVBNs.
    pub fn new(total: u64) -> Self {
        Self {
            map: Arc::new(ActiveMap::new(total)),
            cursor: Mutex::ranked(0, "vvbn.cursor", 24),
            total,
        }
    }

    /// Total VVBNs.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Free VVBNs remaining.
    #[inline]
    pub fn free_count(&self) -> u64 {
        self.map.free_count()
    }

    /// The backing map (metafile dirty tracking lives there).
    #[inline]
    pub fn map(&self) -> &Arc<ActiveMap> {
        &self.map
    }

    /// Reserve up to `chunk` VVBNs. Returns `None` when the volume's VVBN
    /// space is exhausted.
    pub fn alloc_chunk(&self, chunk: usize) -> Option<VvbnChunk> {
        let mut cursor = self.cursor.lock();
        let mut got = self.map.reserve_scan(*cursor, self.total, chunk);
        if got.len() < chunk {
            // Wrap: scan from the start for the remainder.
            let more = self.map.reserve_scan(0, *cursor, chunk - got.len());
            got.extend(more);
        }
        if got.is_empty() {
            return None;
        }
        *cursor = (got.last().unwrap() + 1) % self.total.max(1);
        Some(VvbnChunk {
            vvbns: got,
            next: 0,
        })
    }

    /// Commit a consumed VVBN (dirties the covering metafile block).
    pub fn commit(&self, vvbn: u64) {
        self.map
            .commit_used(vvbn)
            .expect("commit of unreserved VVBN");
    }

    /// Release a chunk's unconsumed VVBNs.
    pub fn release_unused(&self, chunk: &VvbnChunk) {
        for &v in chunk.unused() {
            self.map.release(v).expect("release of unreserved VVBN");
        }
    }

    /// Free a previously committed VVBN (overwrite path).
    pub fn free(&self, vvbn: u64) {
        self.map.free(vvbn).expect("double VVBN free");
    }

    /// Adopt a VVBN as used without dirtying metafiles (crash recovery —
    /// see [`wafl_metafile::AggregateMap::adopt_used`]).
    pub fn adopt(&self, vvbn: u64) {
        self.map.reserve(vvbn).expect("adopted VVBN already used");
    }

    /// Drain dirty metafile blocks (CP flush of the volume's maps).
    pub fn take_dirty_blocks(&self) -> Vec<u64> {
        self.map.take_dirty_blocks()
    }
}

/// A [`VvbnChunk`] that releases its unconsumed VVBNs back to the space
/// on drop — the RAII form cleaners use so a job can never leak
/// reservations, even on early exit. A job's reservations are sized to
/// its buffers, so the drop releases anything only when the job stops
/// short (the aggregate ran out of space).
pub struct VvbnChunkGuard<'a> {
    space: &'a VvbnSpace,
    chunk: VvbnChunk,
}

impl<'a> VvbnChunkGuard<'a> {
    /// Reserve a chunk; `None` when the VVBN space is exhausted.
    pub fn new(space: &'a VvbnSpace, n: usize) -> Option<Self> {
        let chunk = space.alloc_chunk(n)?;
        Some(Self { space, chunk })
    }

    /// Take the next VVBN.
    #[inline]
    pub fn take(&mut self) -> Option<u64> {
        self.chunk.take()
    }

    /// Has every reserved VVBN been taken?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.chunk.unused().is_empty()
    }
}

impl Drop for VvbnChunkGuard<'_> {
    fn drop(&mut self) {
        self.space.release_unused(&self.chunk);
    }
}

impl std::fmt::Debug for VvbnChunkGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VvbnChunkGuard")
            .field("unused", &self.chunk.unused().len())
            .finish()
    }
}

impl std::fmt::Debug for VvbnSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VvbnSpace")
            .field("total", &self.total)
            .field("free", &self.free_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_allocation_is_contiguous_when_fresh() {
        let s = VvbnSpace::new(1000);
        let mut c = s.alloc_chunk(8).unwrap();
        let got: Vec<u64> = std::iter::from_fn(|| c.take()).collect();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        assert_eq!(s.free_count(), 992);
    }

    #[test]
    fn cursor_advances_between_chunks() {
        let s = VvbnSpace::new(100);
        let a = s.alloc_chunk(4).unwrap();
        let b = s.alloc_chunk(4).unwrap();
        assert_eq!(a.unused()[0], 0);
        assert_eq!(b.unused()[0], 4);
    }

    #[test]
    fn wraparound_finds_freed_space() {
        let s = VvbnSpace::new(16);
        let mut c = s.alloc_chunk(16).unwrap();
        let all: Vec<u64> = std::iter::from_fn(|| c.take()).collect();
        for &v in &all {
            s.commit(v);
        }
        assert!(s.alloc_chunk(1).is_none(), "space exhausted");
        s.free(3);
        s.free(4);
        let mut again = s.alloc_chunk(4).unwrap();
        let got: Vec<u64> = std::iter::from_fn(|| again.take()).collect();
        assert_eq!(got, vec![3, 4]);
    }

    #[test]
    fn release_unused_returns_space() {
        let s = VvbnSpace::new(64);
        let mut c = s.alloc_chunk(10).unwrap();
        c.take();
        c.take();
        s.commit(c.consumed()[0]);
        s.commit(c.consumed()[1]);
        s.release_unused(&c);
        assert_eq!(s.free_count(), 62);
    }

    #[test]
    fn commits_and_frees_dirty_metafile_blocks() {
        let s = VvbnSpace::new(1000);
        let mut c = s.alloc_chunk(2).unwrap();
        let v = c.take().unwrap();
        assert_eq!(s.map().dirty_block_count(), 0, "reservation is clean");
        s.commit(v);
        assert_eq!(s.map().dirty_block_count(), 1);
        assert_eq!(s.take_dirty_blocks().len(), 1);
        s.free(v);
        assert_eq!(s.map().dirty_block_count(), 1);
    }

    #[test]
    fn concurrent_chunkers_get_disjoint_vvbns() {
        let s = Arc::new(VvbnSpace::new(4096));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let mut mine = Vec::new();
                while let Some(mut c) = s.alloc_chunk(32) {
                    while let Some(v) = c.take() {
                        mine.push(v);
                    }
                    if mine.len() >= 512 {
                        break;
                    }
                }
                mine
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
