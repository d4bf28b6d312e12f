//! Inodes: per-file metadata and the dirty-buffer front/CP split.
//!
//! "Writing to a file 'dirties' the in-memory inode associated with the
//! file and adds it to a list of dirty inodes to process in the next
//! consistency point" (§II-C). During a CP, "in-memory data that is to be
//! included in a CP is atomically identified at the start of the CP and
//! isolated from further modifications … any attempts to change an
//! inode's properties or a buffer's contents during a CP result in the
//! object being COW'd in memory."
//!
//! [`Inode`] realizes that with a **front** dirty map (accepts client
//! writes at any time) and a **CP snapshot** taken by
//! [`Inode::freeze_for_cp`]: the front map is moved out wholesale at CP
//! start, so writes that arrive during the CP dirty the (new, empty)
//! front map and are persisted by the *next* CP — exactly the paper's
//! semantics, with the copy made eagerly at the snapshot boundary instead
//! of lazily per object.
//!
//! A file's committed pointers live in a [`BlockMap`]: fixed-fan-out
//! pages, WAFL's indirect blocks of a buffer tree (§II-B), so fbn → slot
//! is arithmetic, not a search. It is the one representation of "a file's
//! committed pointers": the inode, the committed image and snapshots all
//! hold it.

use crate::buffer::{CleanedBlock, DirtyBuffer};
use serde::Serialize;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use wafl_blockdev::{BlockStamp, Vbn};

/// File identifier, unique within a volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct FileId(pub u64);

/// A block's on-disk location: `(vvbn, pvbn)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct BlockPtr {
    /// Virtual VBN (offset space of the volume).
    pub vvbn: u64,
    /// Physical VBN (aggregate space).
    pub pvbn: Vbn,
    /// Stamp last persisted there (kept for integrity checks).
    pub stamp: BlockStamp,
}

impl From<&CleanedBlock> for BlockPtr {
    fn from(c: &CleanedBlock) -> Self {
        Self {
            vvbn: c.vvbn,
            pvbn: c.pvbn,
            stamp: c.stamp,
        }
    }
}

/// Pointers per [`BlockMap`] page: one `u64` presence word covers a page.
/// Larger pages were tried and cost memory where files are small: with
/// 256 slots the 8 192 × 32-block files of the `oltp_mix` benchmark each
/// pay a whole page in the inode and another in the committed image
/// (`peak_rss_mb` 132 → 223); with 64 it reads 130.
const PAGE_SLOTS: u64 = 64;

/// What an absent slot holds, so that pages compare by their present
/// slots alone.
const NO_PTR: BlockPtr = BlockPtr {
    vvbn: 0,
    pvbn: Vbn(0),
    stamp: 0,
};

/// The set bits of `word`, lowest first.
fn set_bits(mut word: u64) -> impl Iterator<Item = u64> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = u64::from(word.trailing_zeros());
            word &= word - 1;
            bit
        })
    })
}

/// One indirect block: the pointers of fbns `key * 64 .. (key + 1) * 64`.
/// Invariant: a slot whose `present` bit is clear holds [`NO_PTR`], and a
/// page in a map has at least one bit set.
#[derive(Clone, PartialEq)]
struct Page {
    present: u64,
    slots: [BlockPtr; PAGE_SLOTS as usize],
}

impl Page {
    /// The present slots with their fbns, ascending.
    fn iter(&self, key: u64) -> impl Iterator<Item = (u64, &BlockPtr)> + '_ {
        set_bits(self.present).map(move |s| (key * PAGE_SLOTS + s, &self.slots[s as usize]))
    }

    /// Clear the present slots selected by `mask`, handing each to `each`.
    fn take(&mut self, key: u64, mask: u64, each: &mut impl FnMut(u64, BlockPtr)) {
        for s in set_bits(self.present & mask) {
            let ptr = std::mem::replace(&mut self.slots[s as usize], NO_PTR);
            each(key * PAGE_SLOTS + s, ptr);
        }
        self.present &= !mask;
    }
}

/// A file's committed pointers, fbn → [`BlockPtr`], as pages of
/// [`PAGE_SLOTS`] slots keyed by `fbn / PAGE_SLOTS`. A dense file of
/// 8 192 blocks is 128 keys; a sparse file pays one page per populated
/// run; a page that empties is dropped, so equal contents mean equal
/// maps whatever the order of operations that built them.
#[derive(Clone, Default, PartialEq)]
pub struct BlockMap {
    pages: BTreeMap<u64, Box<Page>>,
    len: usize,
}

impl BlockMap {
    /// Number of mapped blocks.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Does the map hold no block?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The location of `fbn`, if mapped.
    #[inline]
    pub fn get(&self, fbn: u64) -> Option<&BlockPtr> {
        let page = self.pages.get(&(fbn / PAGE_SLOTS))?;
        let slot = fbn % PAGE_SLOTS;
        (page.present >> slot & 1 == 1).then(|| &page.slots[slot as usize])
    }

    /// Map `fbn` to `ptr`, replacing any previous location.
    pub fn insert(&mut self, fbn: u64, ptr: BlockPtr) {
        let page = self.pages.entry(fbn / PAGE_SLOTS).or_insert_with(|| {
            Box::new(Page {
                present: 0,
                slots: [NO_PTR; PAGE_SLOTS as usize],
            })
        });
        let slot = fbn % PAGE_SLOTS;
        self.len += usize::from(page.present >> slot & 1 == 0);
        page.present |= 1 << slot;
        page.slots[slot as usize] = ptr;
    }

    /// Unmap `fbn`, returning its location.
    pub fn remove(&mut self, fbn: u64) -> Option<BlockPtr> {
        let mut removed = None;
        self.take(fbn / PAGE_SLOTS, 1 << (fbn % PAGE_SLOTS), &mut |_, ptr| {
            removed = Some(ptr);
        });
        removed
    }

    /// Unmap every block at or beyond `fbn`, handing each to `each` in
    /// ascending order.
    pub fn drain_from(&mut self, fbn: u64, mut each: impl FnMut(u64, BlockPtr)) {
        // The page `fbn` falls in keeps the slots below it.
        let first = fbn / PAGE_SLOTS;
        self.take(first, u64::MAX << (fbn % PAGE_SLOTS), &mut each);
        for (key, page) in self.pages.split_off(&(first + 1)) {
            self.len -= page.present.count_ones() as usize;
            page.iter(key).for_each(|(f, p)| each(f, *p));
        }
    }

    /// Unmap the slots of page `key` selected by `mask`, dropping the page
    /// if it empties.
    fn take(&mut self, key: u64, mask: u64, each: &mut impl FnMut(u64, BlockPtr)) {
        if let Entry::Occupied(mut e) = self.pages.entry(key) {
            let page = e.get_mut();
            self.len -= (page.present & mask).count_ones() as usize;
            page.take(key, mask, each);
            if page.present == 0 {
                e.remove();
            }
        }
    }

    /// Every mapped block, ascending by fbn.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &BlockPtr)> + '_ {
        self.pages.iter().flat_map(|(&key, page)| page.iter(key))
    }
}

impl std::fmt::Debug for BlockMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// An in-memory inode: attributes, block map, and dirty buffers.
#[derive(Debug, Clone)]
pub struct Inode {
    id: FileId,
    /// Persistent block map: fbn → current on-disk location. Updated only
    /// by CP apply; this is the state the superblock commit snapshots.
    block_map: BlockMap,
    /// Front dirty buffers: modified since the last CP freeze.
    front: BTreeMap<u64, DirtyBuffer>,
    /// What the CP in flight froze, ascending by fbn: acknowledged data
    /// that is in neither `front` nor `block_map` until the CP's results
    /// are applied, kept so that a read during the CP still returns it.
    frozen: Vec<(u64, BlockStamp)>,
    /// Frozen buffers whose cleaned location has not been applied yet;
    /// `frozen` is freed when this reaches zero.
    frozen_unapplied: usize,
    /// Highest fbn ever written + 1 (a simple size proxy).
    size_fbns: u64,
}

impl Inode {
    /// Fresh empty inode.
    pub fn new(id: FileId) -> Self {
        Self {
            id,
            block_map: BlockMap::default(),
            front: BTreeMap::new(),
            frozen: Vec::new(),
            frozen_unapplied: 0,
            size_fbns: 0,
        }
    }

    /// File id.
    #[inline]
    pub fn id(&self) -> FileId {
        self.id
    }

    /// Number of dirty buffers in the front map.
    #[inline]
    pub fn dirty_count(&self) -> usize {
        self.front.len()
    }

    /// Is the inode dirty (needs the next CP)?
    #[inline]
    pub fn is_dirty(&self) -> bool {
        !self.front.is_empty()
    }

    /// Size proxy: one past the highest fbn ever written.
    #[inline]
    pub fn size_fbns(&self) -> u64 {
        self.size_fbns
    }

    /// The persistent block map (CP-committed state).
    #[inline]
    pub fn block_map(&self) -> &BlockMap {
        &self.block_map
    }

    /// Recovery: adopt a committed image's map of this file whole.
    pub(crate) fn restore_block_map(&mut self, map: BlockMap) {
        self.block_map = map;
    }

    /// Record a client write of `stamp` at `fbn`. Captures the block's
    /// previous location for the overwrite-free path. Re-dirtying a block
    /// already dirty in the front map just replaces the payload (the old
    /// location was captured by the first dirtying).
    pub fn write(&mut self, fbn: u64, stamp: BlockStamp) {
        self.size_fbns = self.size_fbns.max(fbn + 1);
        match self.front.entry(fbn) {
            Entry::Occupied(mut e) => e.get_mut().stamp = stamp,
            Entry::Vacant(e) => {
                e.insert(match self.block_map.get(fbn) {
                    Some(ptr) => DirtyBuffer::overwrite(fbn, stamp, ptr.vvbn, ptr.pvbn),
                    None => DirtyBuffer::first_write(fbn, stamp),
                });
            }
        }
    }

    /// Read the current logical contents of `fbn`: the newest
    /// acknowledged version, wherever it is on its way to disk — dirty
    /// front data, then what the CP in flight froze, then the persistent
    /// map. Returns `None` for holes.
    pub fn read(&self, fbn: u64) -> Option<BlockStamp> {
        if let Some(b) = self.front.get(&fbn) {
            return Some(b.stamp);
        }
        if let Ok(i) = self.frozen.binary_search_by_key(&fbn, |e| e.0) {
            return Some(self.frozen[i].1);
        }
        self.block_map.get(fbn).map(|p| p.stamp)
    }

    /// The persisted location of `fbn`, if any (ignores dirty data).
    pub fn lookup(&self, fbn: u64) -> Option<BlockPtr> {
        self.block_map.get(fbn).copied()
    }

    /// Truncate the file to `new_size_fbns` blocks. Returns
    /// `(fbn, vvbn, pvbn)` for each committed block beyond the new size;
    /// the caller frees them through the allocator's stage path (unless a
    /// snapshot still references them). Dirty front buffers beyond the
    /// size are simply dropped (they were never allocated).
    pub fn truncate(&mut self, new_size_fbns: u64) -> Vec<(u64, u64, Vbn)> {
        drop(self.front.split_off(&new_size_fbns));
        let kept = self.frozen.partition_point(|e| e.0 < new_size_fbns);
        self.frozen.truncate(kept);
        self.size_fbns = self.size_fbns.min(new_size_fbns);
        let mut freed = Vec::new();
        self.block_map.drain_from(new_size_fbns, |fbn, ptr| {
            freed.push((fbn, ptr.vvbn, ptr.pvbn))
        });
        freed
    }

    /// CP start: take the front dirty buffers as this CP's workload. New
    /// writes after this call land in a fresh front map (in-memory COW);
    /// reads keep seeing the frozen data until [`Inode::apply_cleaned`]
    /// has installed all of it.
    pub fn freeze_for_cp(&mut self) -> Vec<DirtyBuffer> {
        let buffers: Vec<DirtyBuffer> = std::mem::take(&mut self.front).into_values().collect();
        self.frozen = buffers.iter().map(|b| (b.fbn, b.stamp)).collect();
        self.frozen_unapplied = buffers.len();
        buffers
    }

    /// CP apply: install cleaned locations into the persistent block map.
    ///
    /// If a block was re-dirtied *during* the CP, its front buffer's
    /// old-location fields are retargeted to the location this CP just
    /// assigned: the pre-CP location has been freed by this CP, and it is
    /// the new location that the *next* CP must free — otherwise the old
    /// block would be double-freed and the new one leaked.
    pub fn apply_cleaned(&mut self, cleaned: &[CleanedBlock]) {
        for c in cleaned {
            self.block_map.insert(c.fbn, c.into());
            if let Some(fb) = self.front.get_mut(&c.fbn) {
                fb.old_vvbn = Some(c.vvbn);
                fb.old_pvbn = Some(c.pvbn);
            }
        }
        // A region-split inode is applied one region at a time; the
        // frozen list goes when the last one is in the block map.
        self.frozen_unapplied = self.frozen_unapplied.saturating_sub(cleaned.len());
        if self.frozen_unapplied == 0 {
            self.frozen = Vec::new();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_sees_dirty_data() {
        let mut i = Inode::new(FileId(1));
        i.write(3, 0x33);
        assert_eq!(i.read(3), Some(0x33));
        assert_eq!(i.read(4), None);
        assert!(i.is_dirty());
        assert_eq!(i.size_fbns(), 4);
    }

    #[test]
    fn rewrite_before_cp_keeps_first_old_location() {
        let mut i = Inode::new(FileId(1));
        i.apply_cleaned(&[CleanedBlock {
            fbn: 0,
            vvbn: 5,
            pvbn: Vbn(100),
            stamp: 0xaa,
        }]);
        i.write(0, 0xbb);
        i.write(0, 0xcc); // second write to the same dirty block
        let frozen = i.freeze_for_cp();
        assert_eq!(frozen.len(), 1);
        assert_eq!(frozen[0].stamp, 0xcc);
        assert_eq!(frozen[0].old_pvbn, Some(Vbn(100)), "old loc captured once");
    }

    #[test]
    fn freeze_isolates_cp_from_new_writes() {
        let mut i = Inode::new(FileId(1));
        i.write(0, 0x1);
        i.write(1, 0x2);
        let frozen = i.freeze_for_cp();
        assert_eq!(frozen.len(), 2);
        assert!(!i.is_dirty());
        // A write during the CP dirties the new front map only.
        i.write(0, 0x9);
        assert_eq!(i.dirty_count(), 1);
        assert_eq!(i.read(0), Some(0x9));
    }

    #[test]
    fn write_during_cp_captures_precp_location_not_inflight() {
        let mut i = Inode::new(FileId(1));
        i.apply_cleaned(&[CleanedBlock {
            fbn: 0,
            vvbn: 1,
            pvbn: Vbn(10),
            stamp: 0xaa,
        }]);
        i.write(0, 0xbb);
        let _cp = i.freeze_for_cp();
        // During the CP, a new write sees the *committed* map (the CP's
        // new location is not applied yet) — so the old location it will
        // free is the pre-CP one... but the CP will free Vbn(10) itself.
        // The next CP must free the location the in-flight CP assigns,
        // which becomes visible through apply_cleaned:
        i.apply_cleaned(&[CleanedBlock {
            fbn: 0,
            vvbn: 2,
            pvbn: Vbn(20),
            stamp: 0xbb,
        }]);
        i.write(0, 0xcc);
        let next = i.freeze_for_cp();
        assert_eq!(next[0].old_pvbn, Some(Vbn(20)));
    }

    #[test]
    fn apply_cleaned_updates_map_and_read_path() {
        let mut i = Inode::new(FileId(2));
        i.write(7, 0x77);
        let frozen = i.freeze_for_cp();
        i.apply_cleaned(&[CleanedBlock {
            fbn: 7,
            vvbn: 3,
            pvbn: Vbn(42),
            stamp: frozen[0].stamp,
        }]);
        assert_eq!(i.read(7), Some(0x77));
        assert_eq!(i.lookup(7).unwrap().pvbn, Vbn(42));
    }

    fn cleaned_at(b: &DirtyBuffer, loc: u64) -> CleanedBlock {
        CleanedBlock {
            fbn: b.fbn,
            vvbn: loc,
            pvbn: Vbn(loc),
            stamp: b.stamp,
        }
    }

    #[test]
    fn read_during_a_cp_returns_the_acknowledged_version() {
        let mut i = Inode::new(FileId(1));
        i.write(0, 0xa1);
        i.apply_cleaned(&[CleanedBlock {
            fbn: 0,
            vvbn: 1,
            pvbn: Vbn(10),
            stamp: 0xa1,
        }]);
        i.freeze_for_cp();
        i.write(0, 0xa2);
        i.write(1, 0xb2);
        let frozen = i.freeze_for_cp();
        // The CP holds the only copy of version 2: the block map still
        // says version 1 (fbn 0) or nothing (fbn 1).
        assert_eq!(i.read(0), Some(0xa2));
        assert_eq!(i.read(1), Some(0xb2));
        // A write during the CP wins over the frozen version.
        i.write(1, 0xb3);
        assert_eq!(i.read(1), Some(0xb3));
        i.apply_cleaned(&[cleaned_at(&frozen[0], 20), cleaned_at(&frozen[1], 21)]);
        assert_eq!(i.read(0), Some(0xa2));
        assert_eq!(i.read(1), Some(0xb3));
        assert!(i.frozen.is_empty(), "freed once the CP's results are in");
    }

    #[test]
    fn region_split_apply_keeps_the_unapplied_half_readable() {
        let mut i = Inode::new(FileId(1));
        for fbn in 0..8 {
            i.write(fbn, 0x100 + u128::from(fbn));
        }
        let frozen = i.freeze_for_cp();
        let cleaned: Vec<CleanedBlock> = frozen.iter().map(|b| cleaned_at(b, 50 + b.fbn)).collect();
        // The second region's result lands first.
        i.apply_cleaned(&cleaned[4..]);
        for fbn in 0..8 {
            assert_eq!(i.read(fbn), Some(0x100 + u128::from(fbn)), "fbn {fbn}");
        }
        assert!(!i.frozen.is_empty(), "half the CP is still in flight");
        i.apply_cleaned(&cleaned[..4]);
        assert!(i.frozen.is_empty());
        assert_eq!(i.block_map().len(), 8);
    }

    #[test]
    fn truncate_cuts_the_frozen_list_too() {
        let mut i = Inode::new(FileId(1));
        for fbn in 0..4 {
            i.write(fbn, 0x7);
        }
        i.freeze_for_cp();
        i.truncate(2);
        assert_eq!(i.read(1), Some(0x7));
        assert_eq!(i.read(2), None, "a truncated block is gone, frozen or not");
    }
}
