//! Property tests: the paged block map and inode COW semantics against
//! oracles, NVLog replay ordering, and cleaner partitioning totality.

use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use wafl::cleaner::{partition_work, CleanerConfig};
use wafl::inode::{BlockMap, BlockPtr};
use wafl::{DirtyBuffer, FileId, Inode, NvLog, Op, Volume, VolumeId};
use wafl_blockdev::Vbn;

// ---------------------------------------------------------------------
// BlockMap: pages of pointers vs a BTreeMap oracle
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum MapOp {
    Insert(u64),
    Remove(u64),
    DrainFrom(u64),
    /// Carry on with a clone; the original is dropped.
    Clone,
}

/// A dense head, the first page boundary, and a sparse run far away.
fn map_fbn() -> impl Strategy<Value = u64> {
    prop_oneof![
        6 => 0u64..300,
        2 => 63u64..66,
        2 => (1u64 << 40) - 2..(1u64 << 40) + 130,
    ]
}

fn map_ops() -> impl Strategy<Value = Vec<MapOp>> {
    prop::collection::vec(
        prop_oneof![
            8 => map_fbn().prop_map(MapOp::Insert),
            4 => map_fbn().prop_map(MapOp::Remove),
            1 => map_fbn().prop_map(MapOp::DrainFrom),
            1 => Just(MapOp::Clone),
        ],
        1..200,
    )
}

fn ptr_of(fbn: u64, seq: usize) -> BlockPtr {
    BlockPtr {
        vvbn: seq as u64,
        pvbn: Vbn(fbn ^ 0xABCD),
        stamp: wafl_blockdev::stamp(1, fbn, seq as u64),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn block_map_matches_a_btreemap(ops in map_ops(), probes in prop::collection::vec(map_fbn(), 8)) {
        let mut map = BlockMap::default();
        let mut oracle: BTreeMap<u64, BlockPtr> = BTreeMap::new();
        for (seq, op) in ops.into_iter().enumerate() {
            match op {
                MapOp::Insert(fbn) => {
                    map.insert(fbn, ptr_of(fbn, seq));
                    oracle.insert(fbn, ptr_of(fbn, seq));
                }
                MapOp::Remove(fbn) => prop_assert_eq!(map.remove(fbn), oracle.remove(&fbn)),
                MapOp::DrainFrom(fbn) => {
                    let mut drained = Vec::new();
                    map.drain_from(fbn, |f, p| drained.push((f, p)));
                    let want: Vec<(u64, BlockPtr)> = oracle.split_off(&fbn).into_iter().collect();
                    prop_assert_eq!(drained, want);
                }
                MapOp::Clone => map = map.clone(),
            }
            let got: Vec<(u64, BlockPtr)> = map.iter().map(|(f, p)| (f, *p)).collect();
            let want: Vec<(u64, BlockPtr)> = oracle.iter().map(|(f, p)| (*f, *p)).collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(map.len(), oracle.len());
            prop_assert_eq!(map.is_empty(), oracle.is_empty());
            for fbn in &probes {
                prop_assert_eq!(map.get(*fbn), oracle.get(fbn));
            }
        }
        // Equality is over contents: the same blocks inserted once each, in
        // descending order, make an equal map.
        let mut rebuilt = BlockMap::default();
        for (fbn, ptr) in oracle.iter().rev() {
            rebuilt.insert(*fbn, *ptr);
        }
        prop_assert_eq!(&rebuilt, &map);
        // ... and a map emptied block by block keeps no page behind.
        for fbn in oracle.keys() {
            map.remove(*fbn);
        }
        prop_assert_eq!(map, BlockMap::default());
    }
}

// ---------------------------------------------------------------------
// Inode: dirty-front/CP-snapshot model vs a plain-map oracle
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum InodeOp {
    Write { fbn: u8, stamp: u16 },
    FreezeAndApply,
}

fn inode_ops() -> impl Strategy<Value = Vec<InodeOp>> {
    prop::collection::vec(
        prop_oneof![
            4 => (0u8..32, 1u16..u16::MAX).prop_map(|(fbn, stamp)| InodeOp::Write { fbn, stamp }),
            1 => Just(InodeOp::FreezeAndApply),
        ],
        1..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn inode_reads_match_oracle_through_cp_cycles(ops in inode_ops()) {
        let mut inode = Inode::new(FileId(1));
        let mut oracle: HashMap<u64, u128> = HashMap::new();
        let mut next_loc = 0u64;
        for op in ops {
            match op {
                InodeOp::Write { fbn, stamp } => {
                    inode.write(fbn as u64, stamp as u128);
                    oracle.insert(fbn as u64, stamp as u128);
                }
                InodeOp::FreezeAndApply => {
                    // Simulate a CP: freeze, assign locations, apply.
                    let frozen = inode.freeze_for_cp();
                    let cleaned: Vec<wafl::buffer::CleanedBlock> = frozen
                        .iter()
                        .map(|b| {
                            next_loc += 1;
                            wafl::buffer::CleanedBlock {
                                fbn: b.fbn,
                                vvbn: next_loc,
                                pvbn: Vbn(next_loc),
                                stamp: b.stamp,
                            }
                        })
                        .collect();
                    inode.apply_cleaned(&cleaned);
                }
            }
            for (&fbn, &expect) in &oracle {
                prop_assert_eq!(inode.read(fbn), Some(expect));
            }
            for fbn in 0..32u64 {
                if !oracle.contains_key(&fbn) {
                    prop_assert_eq!(inode.read(fbn), None, "hole stays a hole");
                }
            }
        }
    }

    #[test]
    fn frozen_buffers_capture_each_block_once(
        writes in prop::collection::vec((0u8..16, 1u16..u16::MAX), 1..100),
    ) {
        let mut inode = Inode::new(FileId(1));
        for (fbn, stamp) in &writes {
            inode.write(*fbn as u64, *stamp as u128);
        }
        let frozen = inode.freeze_for_cp();
        let mut fbns: Vec<u64> = frozen.iter().map(|b| b.fbn).collect();
        fbns.sort_unstable();
        let before = fbns.len();
        fbns.dedup();
        prop_assert_eq!(fbns.len(), before, "one dirty buffer per block");
        // The frozen stamp is the last write to that block.
        for b in &frozen {
            let last = writes
                .iter()
                .rev()
                .find(|(fbn, _)| *fbn as u64 == b.fbn)
                .unwrap()
                .1;
            prop_assert_eq!(b.stamp, last as u128);
        }
    }

    #[test]
    fn truncate_matches_oracle(
        writes in prop::collection::vec((0u8..32, 1u16..u16::MAX), 1..60),
        cut in 0u64..32,
    ) {
        let mut inode = Inode::new(FileId(1));
        let mut oracle: HashMap<u64, u128> = HashMap::new();
        for (fbn, stamp) in writes {
            inode.write(fbn as u64, stamp as u128);
            oracle.insert(fbn as u64, stamp as u128);
        }
        inode.truncate(cut);
        oracle.retain(|&fbn, _| fbn < cut);
        for fbn in 0..32u64 {
            prop_assert_eq!(inode.read(fbn), oracle.get(&fbn).copied());
        }
    }
}

// ---------------------------------------------------------------------
// NVLog: replay order and half discipline
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn nvlog_replay_preserves_arrival_order(
        fbns in prop::collection::vec(0u64..100, 1..80),
        freeze_at in 0usize..80,
        commit in prop::bool::ANY,
    ) {
        let log = NvLog::new();
        let mut expected = Vec::new();
        for (i, &fbn) in fbns.iter().enumerate() {
            if i == freeze_at {
                log.freeze();
                if commit {
                    log.commit_cp();
                    expected.clear();
                }
            }
            let op = Op::Write {
                vol: VolumeId(0),
                file: FileId(1),
                fbn,
                stamp: fbn as u128 + 1,
            };
            log.log(op);
            expected.push(op);
        }
        prop_assert_eq!(log.replay_ops(), expected);
    }
}

// ---------------------------------------------------------------------
// Cleaner partitioning: totality and bounds
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn partition_work_is_total_and_bounded(
        sizes in prop::collection::vec(1usize..600, 1..40),
        batching in prop::bool::ANY,
        batch_max_inodes in 1usize..16,
        batch_max_buffers in 8usize..256,
        region_size in 8usize..128,
    ) {
        let cfg = CleanerConfig {
            batching,
            batch_max_inodes,
            batch_max_buffers,
            region_split_threshold: 256,
            region_size,
            ..CleanerConfig::default()
        };
        let vol = Volume::new(VolumeId(0), 0, 1 << 20);
        let frozen: Vec<(Arc<Volume>, FileId, Vec<DirtyBuffer>)> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let file = FileId(i as u64);
                vol.create_file(file);
                let buffers = (0..n as u64)
                    .map(|fbn| DirtyBuffer::first_write(fbn, fbn as u128 + 1))
                    .collect();
                (Arc::clone(&vol), file, buffers)
            })
            .collect();
        let total: usize = sizes.iter().sum();
        let items = partition_work(frozen, &cfg);
        // Totality: every buffer appears in exactly one job.
        let got: usize = items
            .iter()
            .flat_map(|i| i.jobs.iter())
            .map(|j| j.buffers.len())
            .sum();
        prop_assert_eq!(got, total);
        for item in &items {
            prop_assert!(!item.jobs.is_empty());
            if item.jobs.len() > 1 {
                prop_assert!(batching, "multi-job items only when batching");
                prop_assert!(item.jobs.len() <= batch_max_inodes);
                let bufs: usize = item.jobs.iter().map(|j| j.buffers.len()).sum();
                // The first job may alone exceed the budget; otherwise the
                // budget holds.
                prop_assert!(
                    bufs <= batch_max_buffers
                        || item.jobs[0].buffers.len() > batch_max_buffers,
                    "batch buffer budget respected"
                );
            }
            for job in &item.jobs {
                // Regions never exceed region_size for split inodes.
                if sizes[job.file.0 as usize] > 256 {
                    prop_assert!(job.buffers.len() <= region_size);
                }
            }
        }
    }
}
