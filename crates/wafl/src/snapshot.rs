//! Snapshots: retained consistency-point images.
//!
//! "Each CP is a self-consistent point-in-time image of the file system"
//! (§II-C of the paper). A WAFL snapshot *is* such an image kept alive
//! after newer CPs supersede it: because the file system never writes in
//! place, retaining an old image costs only the metadata that roots it —
//! the data blocks are shared with the active file system until they are
//! overwritten.
//!
//! Snapshots interact with write allocation through the *free* path the
//! paper describes (§IV-A): overwriting a block normally frees its old
//! VBN through a stage, but a block still referenced by a snapshot must
//! not be freed — it now belongs to the snapshot. Deleting a snapshot
//! reclaims exactly the blocks no other image references (the province of
//! the paper's free-space-reclamation citation [10]).

use crate::inode::{BlockMap, BlockPtr, FileId};
use std::collections::BTreeMap;
use std::sync::Arc;
use wafl_blockdev::Vbn;

/// A retained point-in-time image of one volume.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// User-visible name (unique per volume).
    pub name: String,
    /// The CP whose image this snapshot retains.
    pub cp_id: u64,
    /// Per-file committed block maps at snapshot time.
    pub files: BTreeMap<FileId, BlockMap>,
}

impl Snapshot {
    /// Does this snapshot reference physical block `pvbn` at
    /// `(file, fbn)`?
    #[inline]
    pub fn references(&self, file: FileId, fbn: u64, pvbn: Vbn) -> bool {
        self.files
            .get(&file)
            .and_then(|m| m.get(fbn))
            .map(|p| p.pvbn == pvbn)
            .unwrap_or(false)
    }

    /// Look up a block's snapshot-time location.
    pub fn lookup(&self, file: FileId, fbn: u64) -> Option<BlockPtr> {
        self.files.get(&file).and_then(|m| m.get(fbn)).copied()
    }

    /// Total blocks referenced by the snapshot.
    pub fn block_count(&self) -> usize {
        self.files.values().map(|m| m.len()).sum()
    }

    /// Iterate over every `(file, fbn, ptr)` the snapshot references.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (FileId, u64, BlockPtr)> + '_ {
        self.files
            .iter()
            .flat_map(|(f, m)| m.iter().map(move |(fbn, p)| (*f, fbn, *p)))
    }
}

/// The snapshot set of one volume.
#[derive(Debug, Default)]
pub struct SnapshotSet {
    snaps: parking_lot::RwLock<Vec<Arc<Snapshot>>>, // lock-rank: snapshot.snaps 23
}

impl SnapshotSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of snapshots.
    pub fn len(&self) -> usize {
        self.snaps.read().len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.snaps.read().is_empty()
    }

    /// Add a snapshot. Returns `false` if the name exists. The set, the
    /// committed image and any recovered instance share the one
    /// allocation: a snapshot never changes once taken.
    pub fn add(&self, snap: Arc<Snapshot>) -> bool {
        let mut s = self.snaps.write();
        if s.iter().any(|x| x.name == snap.name) {
            return false;
        }
        s.push(snap);
        true
    }

    /// Get a snapshot by name.
    pub fn get(&self, name: &str) -> Option<Arc<Snapshot>> {
        self.snaps.read().iter().find(|s| s.name == name).cloned()
    }

    /// Remove a snapshot by name, returning it.
    pub fn remove(&self, name: &str) -> Option<Arc<Snapshot>> {
        let mut s = self.snaps.write();
        let idx = s.iter().position(|x| x.name == name)?;
        Some(s.remove(idx))
    }

    /// All snapshots, oldest first.
    pub fn list(&self) -> Vec<Arc<Snapshot>> {
        self.snaps.read().clone()
    }

    /// Is `pvbn` at `(file, fbn)` referenced by *any* snapshot?
    pub fn any_references(&self, file: FileId, fbn: u64, pvbn: Vbn) -> bool {
        self.snaps
            .read()
            .iter()
            .any(|s| s.references(file, fbn, pvbn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(name: &str, file: u64, fbn: u64, pvbn: u64) -> Arc<Snapshot> {
        let mut files = BTreeMap::new();
        let mut m = BlockMap::default();
        m.insert(
            fbn,
            BlockPtr {
                vvbn: pvbn + 1000,
                pvbn: Vbn(pvbn),
                stamp: 0xAB,
            },
        );
        files.insert(FileId(file), m);
        Arc::new(Snapshot {
            name: name.to_string(),
            cp_id: 1,
            files,
        })
    }

    #[test]
    fn references_matches_exact_triple() {
        let s = snap("a", 1, 5, 100);
        assert!(s.references(FileId(1), 5, Vbn(100)));
        assert!(!s.references(FileId(1), 5, Vbn(101)), "different block");
        assert!(!s.references(FileId(1), 6, Vbn(100)), "different offset");
        assert!(!s.references(FileId(2), 5, Vbn(100)), "different file");
    }

    #[test]
    fn set_add_get_remove() {
        let set = SnapshotSet::new();
        assert!(set.add(snap("daily", 1, 0, 10)));
        assert!(!set.add(snap("daily", 1, 0, 20)), "duplicate name");
        assert!(set.add(snap("weekly", 1, 0, 30)));
        assert_eq!(set.len(), 2);
        assert_eq!(set.get("daily").unwrap().cp_id, 1);
        assert!(set.any_references(FileId(1), 0, Vbn(10)));
        assert!(set.any_references(FileId(1), 0, Vbn(30)));
        assert!(!set.any_references(FileId(1), 0, Vbn(20)));
        let removed = set.remove("daily").unwrap();
        assert_eq!(removed.name, "daily");
        assert!(!set.any_references(FileId(1), 0, Vbn(10)));
        assert!(set.remove("daily").is_none());
    }

    #[test]
    fn iter_and_count() {
        let mut s = Arc::unwrap_or_clone(snap("a", 1, 5, 100));
        s.files.get_mut(&FileId(1)).unwrap().insert(
            6,
            BlockPtr {
                vvbn: 7,
                pvbn: Vbn(101),
                stamp: 1,
            },
        );
        assert_eq!(s.block_count(), 2);
        let blocks: Vec<_> = s.iter_blocks().collect();
        assert_eq!(blocks.len(), 2);
    }
}
