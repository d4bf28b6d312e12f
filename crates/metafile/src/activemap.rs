//! The active map: one bit per block, used/free.
//!
//! Bit semantics: **1 = used (or reserved), 0 = free.**
//!
//! ## Lifecycle of a bit under White Alligator
//!
//! 1. The infrastructure *reserves* free VBNs when filling a bucket
//!    ([`ActiveMap::reserve_scan`]): the bit flips 0→1 atomically so no
//!    other bucket fill can hand out the same VBN, but the covering
//!    metafile block is **not** yet dirtied — the reservation is a purely
//!    in-memory fact.
//! 2. When a used bucket is committed (step 6 of Figure 2),
//!    [`ActiveMap::commit_used`] dirties the covering metafile block: the
//!    allocation now must reach persistent storage with the CP.
//! 3. VBNs that were reserved but never consumed are *released*
//!    ([`ActiveMap::release`]): bit 1→0, nothing dirtied.
//! 4. Overwrites free the old VBN ([`ActiveMap::free`]): bit 1→0 and the
//!    covering metafile block is dirtied.
//!
//! All bit updates are lock-free (`AtomicU64` words with CAS/fetch ops), so
//! the map can be exercised by real concurrent threads in tests; in the
//! production architecture the Waffinity Range affinities already serialize
//! conflicting metafile-block accesses, and the simulator models that
//! serialization explicitly.
//!
//! ## Metafile-block dirty tracking
//!
//! With 4 KiB blocks, one metafile block covers [`BITS_PER_MF_BLOCK`] =
//! 32768 VBNs. [`ActiveMap::take_dirty_blocks`] drains the set of dirty
//! metafile blocks; the CP engine write-allocates and flushes them, and the
//! simulator charges infrastructure CPU per dirty block. Random-write
//! workloads dirty many more metafile blocks than sequential ones for the
//! same number of frees — the paper's explanation for Figure 7.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of allocation bits covered by one 4 KiB metafile block.
pub const BITS_PER_MF_BLOCK: u64 = (wafl_blockdev::BLOCK_SIZE as u64) * 8;

/// Errors from active-map bit transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum AllocError {
    /// Attempted to mark used/reserve a bit that is already 1.
    AlreadyUsed(u64),
    /// Attempted to free/release a bit that is already 0.
    AlreadyFree(u64),
    /// Index beyond the map.
    OutOfRange(u64),
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::AlreadyUsed(i) => write!(f, "block {i} is already used"),
            AllocError::AlreadyFree(i) => write!(f, "block {i} is already free"),
            AllocError::OutOfRange(i) => write!(f, "block {i} is out of range"),
        }
    }
}

impl std::error::Error for AllocError {}

/// The active bitmap over a block-number space (PVBNs for an aggregate,
/// VVBNs for a FlexVol volume).
///
/// ```
/// use wafl_metafile::ActiveMap;
///
/// let map = ActiveMap::new(1 << 16);
/// // Infrastructure fill: reserve a chunk of free blocks (in-memory).
/// let chunk = map.reserve_scan(0, 1 << 16, 64);
/// assert_eq!(chunk.len(), 64);
/// assert_eq!(map.dirty_block_count(), 0, "reservations are not persistent state");
/// // A cleaner consumed one; commit dirties the covering metafile block.
/// map.commit_used(chunk[0]).unwrap();
/// assert_eq!(map.dirty_block_count(), 1);
/// // The rest go back.
/// for &b in &chunk[1..] { map.release(b).unwrap(); }
/// assert_eq!(map.free_count(), (1 << 16) - 1);
/// ```
pub struct ActiveMap {
    words: Vec<AtomicU64>,
    nbits: u64,
    /// Number of 0-bits. Maintained with relaxed atomics; exact whenever
    /// the system is quiesced (asserted by the conservation tests).
    free_count: AtomicU64,
    /// One bit per metafile block: set when the block has an un-flushed
    /// allocation/free update.
    dirty: Vec<AtomicU64>,
    /// Lifetime count of metafile-block dirtyings (a block being dirtied
    /// while already dirty does not re-count). Reporting only.
    dirty_events: AtomicU64,
}

impl ActiveMap {
    /// Create a map of `nbits` blocks, all free.
    pub fn new(nbits: u64) -> Self {
        let nwords = nbits.div_ceil(64) as usize;
        let nmf_blocks = nbits.div_ceil(BITS_PER_MF_BLOCK);
        let ndirty_words = nmf_blocks.div_ceil(64) as usize;
        let map = Self {
            words: (0..nwords).map(|_| AtomicU64::new(0)).collect(),
            nbits,
            free_count: AtomicU64::new(nbits),
            dirty: (0..ndirty_words).map(|_| AtomicU64::new(0)).collect(),
            dirty_events: AtomicU64::new(0),
        };
        // Mark the tail bits of the last word as "used" so scans never
        // yield indices ≥ nbits.
        if !nbits.is_multiple_of(64) {
            let last = nwords - 1;
            let valid = nbits % 64;
            // ordering: construction-time store before the map is shared.
            map.words[last].store(!0u64 << valid, Ordering::Relaxed);
        }
        map
    }

    /// Total bits in the map.
    #[inline]
    pub fn len(&self) -> u64 {
        self.nbits
    }

    /// True if the map covers zero blocks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nbits == 0
    }

    /// Number of metafile blocks backing this map.
    #[inline]
    pub fn metafile_blocks(&self) -> u64 {
        self.nbits.div_ceil(BITS_PER_MF_BLOCK)
    }

    /// Current free-block count (exact when quiesced).
    #[inline]
    pub fn free_count(&self) -> u64 {
        // ordering: advisory gauge; staleness is acceptable.
        self.free_count.load(Ordering::Relaxed)
    }

    /// Lifetime number of metafile-block dirty events.
    #[inline]
    pub fn dirty_events(&self) -> u64 {
        // ordering: statistics counter; staleness is acceptable.
        self.dirty_events.load(Ordering::Relaxed)
    }

    #[inline]
    fn check(&self, idx: u64) -> Result<(), AllocError> {
        if idx < self.nbits {
            Ok(())
        } else {
            Err(AllocError::OutOfRange(idx))
        }
    }

    /// Is the block used (or reserved)?
    #[inline]
    pub fn is_used(&self, idx: u64) -> bool {
        debug_assert!(idx < self.nbits);
        // ordering: Acquire — observes bits together with the state they
        // guard; pairs-with: activemap.bits.
        let w = self.words[(idx / 64) as usize].load(Ordering::Acquire);
        w & (1u64 << (idx % 64)) != 0
    }

    /// Atomically flip a free bit to used. In-memory reservation only: the
    /// metafile block is *not* dirtied (see module docs).
    pub fn reserve(&self, idx: u64) -> Result<(), AllocError> {
        self.check(idx)?;
        let mask = 1u64 << (idx % 64);
        // ordering: AcqRel RMW — the bit flip and the block state it guards
        // must not reorder; pairs-with: activemap.bits.
        let prev = self.words[(idx / 64) as usize].fetch_or(mask, Ordering::AcqRel);
        if prev & mask != 0 {
            return Err(AllocError::AlreadyUsed(idx));
        }
        // ordering: advisory gauge; staleness is acceptable.
        self.free_count.fetch_sub(1, Ordering::Relaxed);
        Ok(())
    }

    /// Undo a reservation that was never consumed: bit 1→0, no dirtying.
    pub fn release(&self, idx: u64) -> Result<(), AllocError> {
        self.check(idx)?;
        let mask = 1u64 << (idx % 64);
        // ordering: AcqRel RMW — the bit flip and the block state it guards
        // must not reorder; pairs-with: activemap.bits.
        let prev = self.words[(idx / 64) as usize].fetch_and(!mask, Ordering::AcqRel);
        if prev & mask == 0 {
            return Err(AllocError::AlreadyFree(idx));
        }
        // ordering: advisory gauge; staleness is acceptable.
        self.free_count.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Move the running free count by `delta` without touching a bit —
    /// fault injection for the consistency checker's free-count drift
    /// findings; every other path keeps the count and the bits in step.
    pub fn skew_free_count(&self, delta: i64) {
        // ordering: advisory gauge; staleness is acceptable.
        self.free_count.fetch_add(delta as u64, Ordering::Relaxed);
    }

    /// Record that a reserved block was consumed by a cleaner thread: the
    /// covering metafile block becomes dirty. The bit itself was already
    /// set at reservation time.
    ///
    /// Returns an error if the bit is unexpectedly 0 (commit without
    /// reserve), which would indicate an allocator bug.
    pub fn commit_used(&self, idx: u64) -> Result<(), AllocError> {
        self.check(idx)?;
        if !self.is_used(idx) {
            return Err(AllocError::AlreadyFree(idx));
        }
        self.mark_dirty(idx);
        Ok(())
    }

    /// Free a previously used block (e.g., the old VBN of an overwritten
    /// block, §II-C): bit 1→0 and the metafile block is dirtied.
    pub fn free(&self, idx: u64) -> Result<(), AllocError> {
        self.release(idx)?;
        self.mark_dirty(idx);
        Ok(())
    }

    #[inline]
    fn mark_dirty(&self, idx: u64) {
        let mf_block = idx / BITS_PER_MF_BLOCK;
        let mask = 1u64 << (mf_block % 64);
        // ordering: AcqRel RMW — the bit flip and the block state it guards
        // must not reorder; pairs-with: activemap.bits.
        let prev = self.dirty[(mf_block / 64) as usize].fetch_or(mask, Ordering::AcqRel);
        if prev & mask == 0 {
            // ordering: statistics counter; staleness is acceptable.
            self.dirty_events.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of currently dirty metafile blocks.
    pub fn dirty_block_count(&self) -> u64 {
        self.dirty
            .iter()
            // ordering: Acquire — observes bits together with the state they
            // guard; pairs-with: activemap.bits.
            .map(|w| w.load(Ordering::Acquire).count_ones() as u64)
            .sum()
    }

    /// Drain and return the indices of all dirty metafile blocks. The CP
    /// engine calls this when flushing allocation metafiles.
    pub fn take_dirty_blocks(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for (wi, w) in self.dirty.iter().enumerate() {
            // ordering: AcqRel — the drain claims the dirty word and sees the
            // writes it summarizes; pairs-with: activemap.bits.
            let mut bits = w.swap(0, Ordering::AcqRel);
            while bits != 0 {
                let b = bits.trailing_zeros() as u64;
                out.push(wi as u64 * 64 + b);
                bits &= bits - 1;
            }
        }
        out
    }

    /// Scan `[start, end)` and atomically reserve up to `max` free blocks,
    /// returning their indices in ascending order. This is the bucket-fill
    /// primitive: "walks the allocation bitmaps to find free VBNs on each
    /// drive from the corresponding regions" (§IV-D).
    ///
    /// The scan is CAS-based and safe against concurrent reservers; each
    /// returned index was atomically transitioned 0→1 by this call.
    /// Returns fewer than `max` (possibly zero) if the range runs dry.
    pub fn reserve_scan(&self, start: u64, end: u64, max: usize) -> Vec<u64> {
        let end = end.min(self.nbits);
        let mut out = Vec::with_capacity(max.min(64));
        if start >= end || max == 0 {
            return out;
        }
        let mut idx = start;
        'outer: while idx < end && out.len() < max {
            let wi = (idx / 64) as usize;
            let word = &self.words[wi];
            let word_base = wi as u64 * 64;
            loop {
                // ordering: Acquire — observes bits together with the state they
                // guard; pairs-with: activemap.bits.
                let cur = word.load(Ordering::Acquire);
                // Bits of this word inside [idx, end) that are free.
                let lo_mask = !0u64 << (idx - word_base);
                let hi_mask = if end - word_base >= 64 {
                    !0u64
                } else {
                    (1u64 << (end - word_base)) - 1
                };
                let candidates = !cur & lo_mask & hi_mask;
                if candidates == 0 {
                    idx = word_base + 64;
                    continue 'outer;
                }
                let bit = candidates.trailing_zeros() as u64;
                let mask = 1u64 << bit;
                if word
                    // ordering: AcqRel success pairs with the other word RMWs; Acquire
                    // failure re-reads a current word; pairs-with: activemap.bits.
                    .compare_exchange_weak(cur, cur | mask, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    // ordering: advisory gauge; staleness is acceptable.
                    self.free_count.fetch_sub(1, Ordering::Relaxed);
                    out.push(word_base + bit);
                    idx = word_base + bit + 1;
                    if out.len() >= max {
                        break 'outer;
                    }
                    if idx >= word_base + 64 {
                        continue 'outer;
                    }
                } // CAS failure: reread the word.
            }
        }
        out
    }

    /// Count free blocks in `[start, end)` (scrub/verification helper; not
    /// atomic with respect to concurrent updates).
    pub fn count_free_in(&self, start: u64, end: u64) -> u64 {
        let end = end.min(self.nbits);
        let mut n = 0u64;
        for idx in start..end {
            if !self.is_used(idx) {
                n += 1;
            }
        }
        n
    }

    /// Exact recount of all free bits (O(words); verification helper).
    pub fn recount_free(&self) -> u64 {
        let mut used: u64 = self
            .words
            .iter()
            // ordering: Acquire — observes bits together with the state they
            // guard; pairs-with: activemap.bits.
            .map(|w| w.load(Ordering::Acquire).count_ones() as u64)
            .sum();
        // Subtract the padding bits that were pre-set in `new`.
        if !self.nbits.is_multiple_of(64) {
            used -= 64 - (self.nbits % 64);
        }
        self.nbits - used
    }
}

impl std::fmt::Debug for ActiveMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveMap")
            .field("nbits", &self.nbits)
            .field("free", &self.free_count())
            .field("dirty_blocks", &self.dirty_block_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn new_map_is_all_free() {
        let m = ActiveMap::new(1000);
        assert_eq!(m.free_count(), 1000);
        assert_eq!(m.recount_free(), 1000);
        assert!(!m.is_used(0));
        assert!(!m.is_used(999));
    }

    #[test]
    fn reserve_release_cycle() {
        let m = ActiveMap::new(128);
        m.reserve(5).unwrap();
        assert!(m.is_used(5));
        assert_eq!(m.free_count(), 127);
        assert_eq!(m.reserve(5), Err(AllocError::AlreadyUsed(5)));
        m.release(5).unwrap();
        assert_eq!(m.free_count(), 128);
        assert_eq!(m.release(5), Err(AllocError::AlreadyFree(5)));
    }

    #[test]
    fn reservation_does_not_dirty_commit_does() {
        let m = ActiveMap::new(128);
        m.reserve(3).unwrap();
        assert_eq!(m.dirty_block_count(), 0);
        m.commit_used(3).unwrap();
        assert_eq!(m.dirty_block_count(), 1);
        assert_eq!(m.take_dirty_blocks(), vec![0]);
        assert_eq!(m.dirty_block_count(), 0);
    }

    #[test]
    fn free_dirties_and_restores() {
        let m = ActiveMap::new(128);
        m.reserve(7).unwrap();
        m.commit_used(7).unwrap();
        m.take_dirty_blocks();
        m.free(7).unwrap();
        assert!(!m.is_used(7));
        assert_eq!(m.dirty_block_count(), 1);
        assert_eq!(m.free_count(), 128);
    }

    #[test]
    fn commit_unreserved_is_an_error() {
        let m = ActiveMap::new(64);
        assert_eq!(m.commit_used(0), Err(AllocError::AlreadyFree(0)));
    }

    #[test]
    fn out_of_range_rejected() {
        let m = ActiveMap::new(64);
        assert_eq!(m.reserve(64), Err(AllocError::OutOfRange(64)));
        assert_eq!(m.free(100), Err(AllocError::OutOfRange(100)));
    }

    #[test]
    fn scan_finds_contiguous_free_run() {
        let m = ActiveMap::new(256);
        let got = m.reserve_scan(10, 200, 8);
        assert_eq!(got, (10..18).collect::<Vec<_>>());
        for &i in &got {
            assert!(m.is_used(i));
        }
    }

    #[test]
    fn scan_skips_used_blocks() {
        let m = ActiveMap::new(256);
        for i in [10u64, 11, 13, 64, 65] {
            m.reserve(i).unwrap();
        }
        let got = m.reserve_scan(10, 70, 5);
        assert_eq!(got, vec![12, 14, 15, 16, 17]);
    }

    #[test]
    fn scan_respects_range_end() {
        let m = ActiveMap::new(256);
        let got = m.reserve_scan(60, 66, 100);
        assert_eq!(got, vec![60, 61, 62, 63, 64, 65]);
    }

    #[test]
    fn scan_on_exhausted_range_returns_empty() {
        let m = ActiveMap::new(128);
        assert_eq!(m.reserve_scan(0, 64, 64).len(), 64);
        assert!(m.reserve_scan(0, 64, 1).is_empty());
    }

    #[test]
    fn tail_bits_never_returned() {
        let m = ActiveMap::new(70); // 6 padding bits in word 1
        let got = m.reserve_scan(0, 70, 100);
        assert_eq!(got.len(), 70);
        assert_eq!(*got.last().unwrap(), 69);
        assert_eq!(m.free_count(), 0);
        assert_eq!(m.recount_free(), 0);
    }

    #[test]
    fn dirty_blocks_reflect_bit_locality() {
        // The Figure 7 effect in miniature: scattered frees dirty many
        // metafile blocks, dense frees dirty one.
        let span = 8 * BITS_PER_MF_BLOCK;
        let dense = ActiveMap::new(span);
        let sparse = ActiveMap::new(span);
        for i in 0..64u64 {
            dense.reserve(i).unwrap();
            dense.free(i).unwrap();
            let j = i * BITS_PER_MF_BLOCK / 8; // spread over all 8 blocks
            sparse.reserve(j).unwrap();
            sparse.free(j).unwrap();
        }
        assert_eq!(dense.dirty_block_count(), 1);
        assert_eq!(sparse.dirty_block_count(), 8);
    }

    #[test]
    fn concurrent_reserve_scan_never_double_allocates() {
        // Invariant 1 of DESIGN.md §8 at the bitmap level.
        let m = Arc::new(ActiveMap::new(4096));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                let mut mine = Vec::new();
                loop {
                    let got = m.reserve_scan(0, 4096, 16);
                    if got.is_empty() {
                        break;
                    }
                    mine.extend(got);
                }
                mine
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4096, "every block allocated exactly once");
        assert_eq!(m.free_count(), 0);
        assert_eq!(m.recount_free(), 0);
    }

    #[test]
    fn free_count_conservation_under_churn() {
        let m = ActiveMap::new(512);
        let got = m.reserve_scan(0, 512, 300);
        for &i in got.iter().take(100) {
            m.commit_used(i).unwrap();
        }
        for &i in got.iter().skip(100).take(100) {
            m.release(i).unwrap();
        }
        for &i in got.iter().take(50) {
            m.free(i).unwrap();
        }
        assert_eq!(m.free_count(), m.recount_free());
        assert_eq!(m.free_count(), 512 - 300 + 100 + 50);
    }

    #[test]
    fn dirty_events_count_unique_dirtyings() {
        let m = ActiveMap::new(BITS_PER_MF_BLOCK * 2);
        m.reserve(0).unwrap();
        m.commit_used(0).unwrap();
        m.reserve(1).unwrap();
        m.commit_used(1).unwrap(); // same metafile block, no new event
        assert_eq!(m.dirty_events(), 1);
        m.reserve(BITS_PER_MF_BLOCK).unwrap();
        m.commit_used(BITS_PER_MF_BLOCK).unwrap();
        assert_eq!(m.dirty_events(), 2);
        m.take_dirty_blocks();
        m.reserve(2).unwrap();
        m.commit_used(2).unwrap(); // block 0 dirtied again after drain
        assert_eq!(m.dirty_events(), 3);
    }
}
