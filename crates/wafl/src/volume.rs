//! FlexVol volumes: file containers within an aggregate.
//!
//! "WAFL houses and exports multiple file systems called FlexVol volumes
//! from within a shared pool of storage called an aggregate … A block in
//! a FlexVol volume has both a VBN to specify the physical location of
//! the block and a Virtual VBN to specify the block's offset within the
//! volume" (§II-B).

use crate::buffer::DirtyBuffer;
use crate::inode::{FileId, Inode};
use crate::snapshot::{Snapshot, SnapshotSet};
use crate::vvbn::VvbnSpace;
use parking_lot::{Mutex, RwLock};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use wafl_blockdev::BlockStamp;

/// Volume identifier within the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct VolumeId(pub u32);

/// A file's inode behind its own lock. Taken under `cp.image` (the delta
/// commit copies restructured files) and `volume.inodes`; `volume.dirty`
/// is taken under it.
pub type InodeRef = Arc<Mutex<Inode>>;

/// A FlexVol volume: inodes + VVBN space + dirty-inode list.
pub struct Volume {
    id: VolumeId,
    /// Aggregate index in the Waffinity topology housing this volume.
    aggr: u32,
    inodes: RwLock<BTreeMap<FileId, InodeRef>>,
    vvbn: VvbnSpace,
    /// "a list of dirty inodes to process in the next consistency point"
    /// (§II-C). A set: an inode appears once however many blocks dirty.
    ///
    /// Invariant: a file is on the list iff its inode's front map is
    /// non-empty, and both change under that inode's lock — a write adds
    /// the file on the clean→dirty transition, a truncate removes it on
    /// the way back. (The CP freeze empties the list first and the fronts
    /// after, so a file may also sit here clean; the freeze skips it.)
    dirty: Mutex<BTreeSet<FileId>>,
    /// Retained point-in-time images (see [`crate::snapshot`]).
    snapshots: SnapshotSet,
    /// Files created, truncated or deleted since the last committed CP:
    /// the block-map changes no cleaner result describes. The commit
    /// re-copies (or drops) exactly these files in the committed image.
    /// A file is added *after* its change is in place: a commit that takes
    /// the set just before the mark lands copies nothing stale, and the
    /// next commit picks the file up.
    restructured: Mutex<BTreeSet<FileId>>,
}

impl Volume {
    /// Create a volume with a VVBN space of `vvbn_total` blocks.
    pub fn new(id: VolumeId, aggr: u32, vvbn_total: u64) -> Arc<Self> {
        Arc::new(Self {
            id,
            aggr,
            inodes: RwLock::ranked(BTreeMap::new(), "volume.inodes", 15),
            vvbn: VvbnSpace::new(vvbn_total),
            dirty: Mutex::ranked(BTreeSet::new(), "volume.dirty", 17),
            snapshots: SnapshotSet::new(),
            restructured: Mutex::ranked(BTreeSet::new(), "volume.restructured", 18),
        })
    }

    /// Volume id.
    #[inline]
    pub fn id(&self) -> VolumeId {
        self.id
    }

    /// Housing aggregate (Waffinity index).
    #[inline]
    pub fn aggr(&self) -> u32 {
        self.aggr
    }

    /// The volume's VVBN allocator.
    #[inline]
    pub fn vvbn(&self) -> &VvbnSpace {
        &self.vvbn
    }

    /// Create an empty file. Returns `false` if it already exists.
    pub fn create_file(&self, file: FileId) -> bool {
        {
            let mut inodes = self.inodes.write();
            if inodes.contains_key(&file) {
                return false;
            }
            inodes.insert(
                file,
                Arc::new(Mutex::ranked(Inode::new(file), "volume.inode", 16)),
            );
        }
        self.restructured.lock().insert(file);
        true
    }

    /// Does the file exist?
    pub fn has_file(&self, file: FileId) -> bool {
        self.inodes.read().contains_key(&file)
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.inodes.read().len()
    }

    /// Handle to an inode.
    pub fn inode(&self, file: FileId) -> Option<InodeRef> {
        self.inodes.read().get(&file).cloned()
    }

    /// Client write: dirty the block and add the inode to the dirty list.
    ///
    /// # Panics
    /// Panics if the file does not exist (callers route creates first).
    pub fn write(&self, file: FileId, fbn: u64, stamp: BlockStamp) {
        let inode = self
            .inode(file)
            .unwrap_or_else(|| panic!("write to missing file {file:?}"));
        let mut inode = inode.lock();
        let was_clean = !inode.is_dirty();
        inode.write(fbn, stamp);
        if was_clean {
            self.dirty.lock().insert(file);
        }
    }

    /// Client read of current logical contents (dirty data wins).
    pub fn read(&self, file: FileId, fbn: u64) -> Option<BlockStamp> {
        self.inode(file).and_then(|inode| inode.lock().read(fbn))
    }

    /// Truncate a file, freeing its VVBNs beyond the new size in the
    /// volume map. Returns the freed *physical* VBNs for the caller to
    /// stage through the allocator — blocks still referenced by a
    /// snapshot are retained by it and excluded. `None` if the file does
    /// not exist.
    pub fn truncate_file(
        &self,
        file: FileId,
        new_size_fbns: u64,
    ) -> Option<Vec<wafl_blockdev::Vbn>> {
        let inode = self.inode(file)?;
        let freed = {
            let mut inode = inode.lock();
            let was_dirty = inode.is_dirty();
            let freed = inode.truncate(new_size_fbns);
            // The inode may have gone clean (all dirty buffers beyond size).
            if was_dirty && !inode.is_dirty() {
                self.dirty.lock().remove(&file);
            }
            freed
        };
        if !freed.is_empty() {
            self.restructured.lock().insert(file);
        }
        let mut pvbns = Vec::with_capacity(freed.len());
        for (fbn, vvbn, pvbn) in freed {
            if self.snapshots.any_references(file, fbn, pvbn) {
                continue; // the snapshot owns this block now
            }
            self.vvbn.free(vvbn);
            pvbns.push(pvbn);
        }
        Some(pvbns)
    }

    /// Delete a file entirely. Returns its freed physical VBNs, or `None`
    /// if it does not exist.
    pub fn delete_file(&self, file: FileId) -> Option<Vec<wafl_blockdev::Vbn>> {
        let pvbns = self.truncate_file(file, 0)?;
        self.inodes.write().remove(&file);
        self.restructured.lock().insert(file);
        Some(pvbns)
    }

    /// Take the set of files restructured since the previous call (the
    /// superblock commit, or recovery once it has installed the image's
    /// files).
    pub(crate) fn take_restructured(&self) -> BTreeSet<FileId> {
        std::mem::take(&mut *self.restructured.lock())
    }

    /// Number of inodes on the dirty list.
    pub fn dirty_count(&self) -> usize {
        self.dirty.lock().len()
    }

    /// CP freeze: atomically take the dirty-inode list and each inode's
    /// dirty buffers. New writes dirty inodes for the *next* CP.
    ///
    /// Overwrite frees of blocks still referenced by a snapshot are
    /// suppressed here: the old block transfers to the snapshot instead
    /// of returning to the free pool.
    pub fn freeze_for_cp(&self) -> Vec<(FileId, Vec<DirtyBuffer>)> {
        // The list's lock is let go before any inode's is taken: writers
        // nest the two the other way round.
        let ids = { std::mem::take(&mut *self.dirty.lock()) };
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            if let Some(inode) = self.inode(id) {
                let mut buffers = inode.lock().freeze_for_cp();
                if !self.snapshots.is_empty() {
                    for b in &mut buffers {
                        if let Some(old) = b.old_pvbn {
                            if self.snapshots.any_references(id, b.fbn, old) {
                                b.old_pvbn = None;
                                b.old_vvbn = None;
                            }
                        }
                    }
                }
                if !buffers.is_empty() {
                    out.push((id, buffers));
                }
            }
        }
        out
    }

    /// Iterate over all file ids (verification/recovery helper).
    pub fn file_ids(&self) -> Vec<FileId> {
        self.inodes.read().keys().copied().collect()
    }

    /// The volume's snapshot set.
    #[inline]
    pub fn snapshots(&self) -> &SnapshotSet {
        &self.snapshots
    }

    /// Build a snapshot of the *committed* state under `name` (caller
    /// ensures a CP ran just before, so the image is current). Returns
    /// `false` if the name exists.
    pub fn take_snapshot(&self, name: &str, cp_id: u64) -> bool {
        let mut files = BTreeMap::new();
        for f in self.file_ids() {
            let inode = self.inode(f).expect("listed file exists");
            let inode = inode.lock();
            if !inode.block_map().is_empty() {
                files.insert(f, inode.block_map().clone());
            }
        }
        self.snapshots.add(Arc::new(Snapshot {
            name: name.to_string(),
            cp_id,
            files,
        }))
    }

    /// Delete a snapshot, returning the physical/virtual blocks that are
    /// now unreferenced (not in the active maps nor in any remaining
    /// snapshot) for the caller to free. `None` if no such snapshot.
    pub fn delete_snapshot(&self, name: &str) -> Option<Vec<(u64, wafl_blockdev::Vbn)>> {
        let snap = self.snapshots.remove(name)?;
        let mut reclaimed = Vec::new();
        for (file, fbn, ptr) in snap.iter_blocks() {
            // Still live in the active file system?
            let active = self
                .inode(file)
                .and_then(|inode| inode.lock().lookup(fbn))
                .map(|p| p.pvbn == ptr.pvbn)
                .unwrap_or(false);
            if active {
                continue;
            }
            // Still referenced by another snapshot?
            if self.snapshots.any_references(file, fbn, ptr.pvbn) {
                continue;
            }
            reclaimed.push((ptr.vvbn, ptr.pvbn));
        }
        Some(reclaimed)
    }
}

impl std::fmt::Debug for Volume {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Volume")
            .field("id", &self.id)
            .field("files", &self.file_count())
            .field("dirty", &self.dirty_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_write_read() {
        let v = Volume::new(VolumeId(0), 0, 1000);
        assert!(v.create_file(FileId(1)));
        assert!(!v.create_file(FileId(1)), "duplicate create rejected");
        v.write(FileId(1), 5, 0x55);
        assert_eq!(v.read(FileId(1), 5), Some(0x55));
        assert_eq!(v.read(FileId(1), 6), None);
        assert_eq!(v.dirty_count(), 1);
    }

    #[test]
    fn dirty_list_dedupes_inodes() {
        let v = Volume::new(VolumeId(0), 0, 1000);
        v.create_file(FileId(1));
        for fbn in 0..10 {
            v.write(FileId(1), fbn, fbn as u128 + 1);
        }
        assert_eq!(v.dirty_count(), 1);
    }

    #[test]
    fn freeze_takes_dirty_work_and_resets() {
        let v = Volume::new(VolumeId(0), 0, 1000);
        v.create_file(FileId(1));
        v.create_file(FileId(2));
        v.write(FileId(1), 0, 0xa);
        v.write(FileId(2), 0, 0xb);
        v.write(FileId(2), 1, 0xc);
        let frozen = v.freeze_for_cp();
        assert_eq!(frozen.len(), 2);
        let total: usize = frozen.iter().map(|(_, b)| b.len()).sum();
        assert_eq!(total, 3);
        assert_eq!(v.dirty_count(), 0);
        // Writes during the CP re-dirty for the next CP.
        v.write(FileId(1), 9, 0xd);
        assert_eq!(v.dirty_count(), 1);
    }

    #[test]
    #[should_panic(expected = "missing file")]
    fn write_to_missing_file_panics() {
        let v = Volume::new(VolumeId(0), 0, 1000);
        v.write(FileId(9), 0, 1);
    }

    #[test]
    fn concurrent_writers_to_distinct_files() {
        let v = Volume::new(VolumeId(0), 0, 100_000);
        for f in 0..8u64 {
            v.create_file(FileId(f));
        }
        let mut handles = Vec::new();
        for f in 0..8u64 {
            let v = Arc::clone(&v);
            handles.push(std::thread::spawn(move || {
                for fbn in 0..100 {
                    v.write(FileId(f), fbn, wafl_blockdev::stamp(f, fbn, 1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(v.dirty_count(), 8);
        for f in 0..8u64 {
            assert_eq!(v.read(FileId(f), 42), Some(wafl_blockdev::stamp(f, 42, 1)));
        }
    }

    /// The dirty-list invariant under fire: four writers over eight files,
    /// one thread truncating and deleting + re-creating them, one thread
    /// freezing in a loop and applying nothing. Whenever no freeze is in
    /// progress, an inode seen dirty under its lock is on the dirty list;
    /// at the end, no dirty buffer is out of the next freeze's reach.
    #[test]
    fn dirty_list_holds_every_dirty_inode_under_concurrent_restructuring() {
        use std::sync::atomic::{AtomicBool, Ordering};
        const FILES: u64 = 8;
        const WRITES: u64 = 60_000;
        let v = Volume::new(VolumeId(0), 0, 1 << 20);
        // A write to a missing file panics by contract, so a writer holds
        // its file's gate shared and the delete + re-create pair holds it
        // exclusively. Truncates take no gate. A gate is outermost: it is
        // held across the volume call.
        let gates: Vec<_> = (0..FILES)
            .map(|_| RwLock::ranked((), "test.gate", 5))
            .collect();
        for f in 0..FILES {
            v.create_file(FileId(f));
        }
        let rng = |seed: u64| {
            let mut x = seed;
            move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            }
        };
        let done = AtomicBool::new(false);
        let check_listed = |when: &str| {
            for f in (0..FILES).map(FileId) {
                let Some(inode) = v.inode(f) else { continue };
                let inode = inode.lock();
                assert!(
                    !inode.is_dirty() || v.dirty.lock().contains(&f),
                    "{when}: {f:?} has {} dirty buffers and is not on the dirty list",
                    inode.dirty_count()
                );
            }
        };
        std::thread::scope(|s| {
            let writers: Vec<_> = (0..4u64)
                .map(|w| {
                    let (v, gates) = (&v, &gates);
                    s.spawn(move || {
                        let mut next = rng(0x9E37_79B9 + w);
                        for i in 0..WRITES {
                            let r = next();
                            let f = r % FILES;
                            let _exists = gates[f as usize].read();
                            v.write(FileId(f), (r >> 8) % 96, u128::from(i) + 1);
                        }
                    })
                })
                .collect();
            s.spawn(|| {
                let mut next = rng(0xC0FFEE);
                // ordering: a stop flag; the scope's join publishes the rest.
                while !done.load(Ordering::Relaxed) {
                    let r = next();
                    let f = FileId(r % FILES);
                    if r >> 8 & 3 == 0 {
                        let _exclusive = gates[f.0 as usize].write();
                        v.delete_file(f).expect("exists outside this block");
                        assert!(v.create_file(f));
                    } else {
                        v.truncate_file(f, (r >> 16) % 96);
                    }
                }
            });
            s.spawn(|| {
                // ordering: as above.
                while !done.load(Ordering::Relaxed) {
                    v.freeze_for_cp();
                    check_listed("between freezes");
                }
            });
            for w in writers {
                w.join().expect("writer");
            }
            // ordering: as above.
            done.store(true, Ordering::Relaxed);
        });
        check_listed("after joining");
        v.freeze_for_cp();
        for f in (0..FILES).map(FileId) {
            let stranded = v.inode(f).expect("re-created").lock().dirty_count();
            assert_eq!(stranded, 0, "{f:?}: dirty buffers the freeze did not reach");
        }
    }
}
