//! # wafl — a WAFL-like copy-on-write file system substrate
//!
//! The paper's subject is the write allocator, but the allocator only
//! exists inside a file system with WAFL's structure (§II-B/C):
//!
//! * all data and metadata live in **files** represented by **inodes**;
//!   a block of a file is represented in memory by a **buffer**;
//! * multiple **FlexVol volumes** live in a shared **aggregate**; a block
//!   in a volume has both a physical **VBN** and a **Virtual VBN**
//!   (VVBN) — its offset within the volume;
//! * WAFL never writes in place: every incoming write requires write
//!   allocation, and overwrites free the old block;
//! * updates are batched into **consistency points (CPs)**: operations
//!   are logged in nonvolatile RAM for fast reply, dirty state is
//!   atomically identified at CP start (with in-memory COW so client
//!   traffic continues), every dirty buffer is *cleaned* — assigned a
//!   free block, written, old block freed — and finally the superblock is
//!   atomically overwritten. On a crash, the previous CP's image plus an
//!   NVRAM log replay reconstructs acknowledged state.
//!
//! This crate implements that substrate on top of `wafl-blockdev`,
//! `wafl-metafile`, `waffinity`, and the `alligator` allocator:
//!
//! * [`fs::Filesystem`] — the top-level object: aggregate + volumes +
//!   NVLog + CP engine; the public API a downstream user programs against;
//! * [`volume::Volume`], [`inode::Inode`], [`buffer::DirtyBuffer`];
//! * [`vvbn::VvbnSpace`] — chunked Virtual-VBN allocation per volume ("a
//!   version of this infrastructure is reused to write allocate Virtual
//!   VBNs within FlexVol volumes", §IV-D);
//! * [`nvlog::NvLog`] — the nonvolatile op log with CP-aligned halves and
//!   crash replay;
//! * [`cleaner::CleanerPool`] — parallel inode cleaning (multiple cleaner
//!   threads over inodes *and* regions of large inodes, §IV-B1), with
//!   batched cleaning of small inodes (§V-C);
//! * [`tuner::DynamicTuner`] — the 50 ms cleaner-thread count controller
//!   with 90 % / 50 % activation thresholds (§V-B);
//! * [`cp`] — the consistency-point state machine ([`cp::run_cp`]);
//! * [`scrub`] — the read-only consistency checker
//!   ([`Filesystem::check`]), split into per-volume and per-(RAID group,
//!   AA) units on the Waffinity pool, and the online scrub built on it
//!   (check → quarantine → repair → re-verify).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod buffer;
pub mod cleaner;
pub mod config;
pub mod cp;
pub mod fs;
pub mod inode;
pub mod nvlog;
pub mod scrub;
pub mod snapshot;
pub mod system;
pub mod tuner;
pub mod volume;
pub mod vvbn;

pub use buffer::DirtyBuffer;
pub use cleaner::{CleanItem, CleanerConfig, CleanerPool};
pub use config::FsConfig;
pub use cp::{CpReport, CrashPoint, DiskImage, MetafileLocs, SuperblockStore};
pub use fs::{ExecMode, Filesystem};
pub use inode::{FileId, Inode};
pub use nvlog::{NvLog, Op};
pub use scrub::{Finding, FindingState, ScrubError, ScrubReport};
pub use snapshot::{Snapshot, SnapshotSet};
pub use system::StorageSystem;
pub use tuner::{DynamicTuner, TunerConfig};
pub use volume::{Volume, VolumeId};
pub use vvbn::VvbnSpace;
