//! Aggregate geometry: the VBN number space and its mapping onto RAID
//! groups, drives, stripes, and Allocation Areas.
//!
//! The paper (§II-B) describes an aggregate as a set of RAID groups, each
//! with one or more parity drives. Blocks are addressed by **VBN**.
//! White Alligator needs three pieces of address arithmetic (§IV-C/D):
//!
//! 1. a **bucket** is "a set of contiguous VBNs on each drive", so the VBN
//!    space must be laid out *drive-major*: every data drive owns one
//!    contiguous VBN range. Consecutive VBNs on the same drive are then
//!    physically consecutive disk blocks (DBNs);
//! 2. a **stripe** is one block per data drive of a RAID group at the same
//!    DBN, sharing a parity block;
//! 3. an **Allocation Area** is a contiguous run of stripes (equivalently,
//!    for each drive, a contiguous run of `aa_stripes` DBNs).
//!
//! Parity drives carry no VBNs: they are not client-addressable.

use crate::fault::IoError;
use serde::Serialize;

/// Fixed simulated block size in bytes (WAFL uses 4 KiB blocks).
pub const BLOCK_SIZE: usize = 4096;

/// A volume block number: the aggregate-wide physical block address.
///
/// `Vbn(0)` is valid; callers that need a sentinel use `Option<Vbn>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct Vbn(pub u64);

/// A disk block number: the block offset within a single drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct Dbn(pub u64);

/// Aggregate-wide drive index (data drives only; parity drives are
/// addressed through their RAID group).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct DriveId(pub u32);

/// RAID group index within the aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct RaidGroupId(pub u32);

/// A stripe within a RAID group: all data blocks at DBN `stripe.0` across
/// the group's data drives plus the parity block(s) at the same DBN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct StripeId {
    /// Owning RAID group.
    pub rg: RaidGroupId,
    /// DBN shared by every block of the stripe.
    pub dbn: Dbn,
}

/// An Allocation Area: a contiguous set of stripes within one RAID group
/// (§IV-D). `index` counts AAs from DBN 0 upward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct AaId {
    /// Owning RAID group.
    pub rg: RaidGroupId,
    /// AA ordinal within the group (AA `i` covers stripes
    /// `[i * aa_stripes, (i + 1) * aa_stripes)`).
    pub index: u32,
}

/// Fully resolved physical location of a VBN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockLoc {
    /// RAID group holding the block.
    pub rg: RaidGroupId,
    /// Data drive holding the block (aggregate-wide id).
    pub drive: DriveId,
    /// Index of the drive *within its RAID group* (0-based among data
    /// drives).
    pub drive_in_rg: u32,
    /// Block offset on the drive.
    pub dbn: Dbn,
}

/// Static geometry of one RAID group.
#[derive(Debug, Clone, Serialize)]
pub struct RaidGroupGeometry {
    /// Group id.
    pub id: RaidGroupId,
    /// Aggregate-wide ids of the group's data drives, in stripe order.
    pub data_drives: Vec<DriveId>,
    /// Number of parity drives (RAID-4/DP style: parity on dedicated
    /// drives, as in NetApp systems).
    pub parity_drives: u32,
    /// Blocks per drive (same for every drive of the group).
    pub blocks_per_drive: u64,
    /// First VBN of the group's first data drive.
    pub vbn_base: u64,
}

impl RaidGroupGeometry {
    /// Number of data drives in the group (the tetris width, §IV-E).
    #[inline]
    pub fn width(&self) -> u32 {
        self.data_drives.len() as u32
    }

    /// Total data blocks in the group.
    #[inline]
    pub fn data_blocks(&self) -> u64 {
        self.blocks_per_drive * self.data_drives.len() as u64
    }

    /// VBN range `[start, end)` owned by data drive `drive_in_rg`.
    #[inline]
    pub fn drive_vbn_range(&self, drive_in_rg: u32) -> std::ops::Range<u64> {
        debug_assert!(drive_in_rg < self.width());
        let start = self.vbn_base + drive_in_rg as u64 * self.blocks_per_drive;
        start..start + self.blocks_per_drive
    }
}

/// Immutable geometry of an aggregate: RAID groups, drives, AA size, and
/// the VBN mapping. Construct with [`GeometryBuilder`].
///
/// VBN layout is *drive-major*: RAID groups are concatenated, and within a
/// group each data drive owns one contiguous VBN range. So for a group
/// with base `B`, `d` data drives and `n` blocks per drive:
///
/// ```text
/// vbn = B + drive_in_rg * n + dbn
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct AggregateGeometry {
    raid_groups: Vec<RaidGroupGeometry>,
    aa_stripes: u64,
    total_vbns: u64,
    total_drives: u32,
}

impl AggregateGeometry {
    /// All RAID groups in the aggregate.
    #[inline]
    pub fn raid_groups(&self) -> &[RaidGroupGeometry] {
        &self.raid_groups
    }

    /// Geometry of one RAID group.
    #[inline]
    pub fn raid_group(&self, rg: RaidGroupId) -> &RaidGroupGeometry {
        &self.raid_groups[rg.0 as usize]
    }

    /// Number of stripes per Allocation Area.
    #[inline]
    pub fn aa_stripes(&self) -> u64 {
        self.aa_stripes
    }

    /// Total number of VBNs (data blocks) in the aggregate.
    #[inline]
    pub fn total_vbns(&self) -> u64 {
        self.total_vbns
    }

    /// Total number of data drives across all RAID groups.
    #[inline]
    pub fn total_data_drives(&self) -> u32 {
        self.total_drives
    }

    /// Number of AAs in a RAID group (the last AA may be short if
    /// `blocks_per_drive` is not a multiple of `aa_stripes`).
    #[inline]
    pub fn aa_count(&self, rg: RaidGroupId) -> u32 {
        let g = self.raid_group(rg);
        g.blocks_per_drive.div_ceil(self.aa_stripes) as u32
    }

    /// DBN range `[start, end)` covered by an AA on each of its drives.
    #[inline]
    pub fn aa_dbn_range(&self, aa: AaId) -> std::ops::Range<u64> {
        let g = self.raid_group(aa.rg);
        let start = aa.index as u64 * self.aa_stripes;
        let end = (start + self.aa_stripes).min(g.blocks_per_drive);
        debug_assert!(start < g.blocks_per_drive, "AA index out of range");
        start..end
    }

    /// The AA containing a given stripe.
    #[inline]
    pub fn aa_of_stripe(&self, s: StripeId) -> AaId {
        AaId {
            rg: s.rg,
            index: (s.dbn.0 / self.aa_stripes) as u32,
        }
    }

    /// Resolve a VBN to its physical location.
    ///
    /// Errors with [`IoError::OutOfRange`] when `vbn` is outside the
    /// aggregate's address space.
    pub fn locate(&self, vbn: Vbn) -> Result<BlockLoc, IoError> {
        let g = self
            .raid_groups
            .iter()
            .find(|g| vbn.0 >= g.vbn_base && vbn.0 < g.vbn_base + g.data_blocks())
            .ok_or(IoError::OutOfRange {
                vbn,
                total: self.total_vbns,
            })?;
        let off = vbn.0 - g.vbn_base;
        let drive_in_rg = (off / g.blocks_per_drive) as u32;
        let dbn = Dbn(off % g.blocks_per_drive);
        Ok(BlockLoc {
            rg: g.id,
            drive: g.data_drives[drive_in_rg as usize],
            drive_in_rg,
            dbn,
        })
    }

    /// Inverse of [`locate`](Self::locate): the VBN at `(rg, drive_in_rg, dbn)`.
    #[inline]
    pub fn vbn_at(&self, rg: RaidGroupId, drive_in_rg: u32, dbn: Dbn) -> Vbn {
        let g = self.raid_group(rg);
        debug_assert!(drive_in_rg < g.width());
        debug_assert!(dbn.0 < g.blocks_per_drive);
        Vbn(g.vbn_base + drive_in_rg as u64 * g.blocks_per_drive + dbn.0)
    }

    /// The stripe containing a VBN.
    ///
    /// # Panics
    /// Panics if `vbn` is out of range (callers pass VBNs already
    /// validated by the allocator; use [`Self::locate`] for fallible
    /// resolution).
    #[inline]
    pub fn stripe_of(&self, vbn: Vbn) -> StripeId {
        let loc = self.locate(vbn).expect("stripe_of: VBN out of range");
        StripeId {
            rg: loc.rg,
            dbn: loc.dbn,
        }
    }

    /// The AA containing a VBN.
    #[inline]
    pub fn aa_of(&self, vbn: Vbn) -> AaId {
        self.aa_of_stripe(self.stripe_of(vbn))
    }

    /// Iterate over every `(RaidGroupId)` in the aggregate.
    pub fn rg_ids(&self) -> impl Iterator<Item = RaidGroupId> + '_ {
        (0..self.raid_groups.len() as u32).map(RaidGroupId)
    }
}

/// Builder for [`AggregateGeometry`].
///
/// ```
/// use wafl_blockdev::GeometryBuilder;
///
/// // Figure 3 of the paper: two RAID groups with 3 and 2 data drives.
/// let geo = GeometryBuilder::new()
///     .aa_stripes(64)
///     .raid_group(3, 1, 4096)
///     .raid_group(2, 1, 4096)
///     .build();
/// assert_eq!(geo.total_data_drives(), 5);
/// assert_eq!(geo.total_vbns(), 5 * 4096);
/// ```
#[derive(Debug, Default)]
pub struct GeometryBuilder {
    groups: Vec<(u32, u32, u64)>, // (data, parity, blocks_per_drive)
    aa_stripes: u64,
}

impl GeometryBuilder {
    /// Start an empty builder (AA size defaults to 512 stripes).
    pub fn new() -> Self {
        Self {
            groups: Vec::new(),
            aa_stripes: 512,
        }
    }

    /// Set the number of stripes per Allocation Area.
    pub fn aa_stripes(mut self, stripes: u64) -> Self {
        assert!(stripes > 0, "AA must contain at least one stripe");
        self.aa_stripes = stripes;
        self
    }

    /// Append a RAID group with `data` data drives, `parity` parity drives,
    /// and `blocks_per_drive` blocks on every drive.
    pub fn raid_group(mut self, data: u32, parity: u32, blocks_per_drive: u64) -> Self {
        assert!(data > 0, "RAID group needs at least one data drive");
        assert!(blocks_per_drive > 0, "drives must be non-empty");
        self.groups.push((data, parity, blocks_per_drive));
        self
    }

    /// Convenience: a single-RAID-group aggregate.
    pub fn single_group(
        data: u32,
        parity: u32,
        blocks_per_drive: u64,
        aa_stripes: u64,
    ) -> AggregateGeometry {
        Self::new()
            .aa_stripes(aa_stripes)
            .raid_group(data, parity, blocks_per_drive)
            .build()
    }

    /// Finalize the geometry.
    ///
    /// # Panics
    /// Panics if no RAID group was added.
    pub fn build(self) -> AggregateGeometry {
        assert!(
            !self.groups.is_empty(),
            "aggregate needs at least one RAID group"
        );
        let mut raid_groups = Vec::with_capacity(self.groups.len());
        let mut vbn_base = 0u64;
        let mut next_drive = 0u32;
        for (i, (data, parity, blocks)) in self.groups.iter().copied().enumerate() {
            let data_drives: Vec<DriveId> = (next_drive..next_drive + data).map(DriveId).collect();
            next_drive += data;
            raid_groups.push(RaidGroupGeometry {
                id: RaidGroupId(i as u32),
                data_drives,
                parity_drives: parity,
                blocks_per_drive: blocks,
                vbn_base,
            });
            vbn_base += data as u64 * blocks;
        }
        AggregateGeometry {
            raid_groups,
            aa_stripes: self.aa_stripes,
            total_vbns: vbn_base,
            total_drives: next_drive,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_fig3_geometry() -> AggregateGeometry {
        // Figure 3: an aggregate with two RAID groups and five data drives.
        GeometryBuilder::new()
            .aa_stripes(64)
            .raid_group(3, 1, 1024)
            .raid_group(2, 1, 1024)
            .build()
    }

    #[test]
    fn vbn_ranges_are_drive_major_and_contiguous() {
        let geo = paper_fig3_geometry();
        let g0 = geo.raid_group(RaidGroupId(0));
        assert_eq!(g0.drive_vbn_range(0), 0..1024);
        assert_eq!(g0.drive_vbn_range(1), 1024..2048);
        assert_eq!(g0.drive_vbn_range(2), 2048..3072);
        let g1 = geo.raid_group(RaidGroupId(1));
        assert_eq!(g1.drive_vbn_range(0), 3072..4096);
        assert_eq!(g1.drive_vbn_range(1), 4096..5120);
    }

    #[test]
    fn locate_roundtrips_with_vbn_at() {
        let geo = paper_fig3_geometry();
        for vbn in (0..geo.total_vbns()).step_by(97) {
            let loc = geo.locate(Vbn(vbn)).unwrap();
            assert_eq!(geo.vbn_at(loc.rg, loc.drive_in_rg, loc.dbn), Vbn(vbn));
        }
    }

    #[test]
    fn consecutive_vbns_on_drive_are_consecutive_dbns() {
        // Bucket contiguity (§IV-C objective 2) depends on this.
        let geo = paper_fig3_geometry();
        for vbn in 0..1023u64 {
            let a = geo.locate(Vbn(vbn)).unwrap();
            let b = geo.locate(Vbn(vbn + 1)).unwrap();
            assert_eq!(a.drive, b.drive);
            assert_eq!(b.dbn.0, a.dbn.0 + 1);
        }
    }

    #[test]
    fn stripe_groups_one_block_per_drive() {
        let geo = paper_fig3_geometry();
        let s = geo.stripe_of(Vbn(100));
        // All drives of RG0 at DBN 100 map to the same stripe.
        for d in 0..3 {
            let v = geo.vbn_at(RaidGroupId(0), d, Dbn(100));
            assert_eq!(geo.stripe_of(v), s);
        }
        // RG1 at the same DBN is a *different* stripe.
        let v1 = geo.vbn_at(RaidGroupId(1), 0, Dbn(100));
        assert_ne!(geo.stripe_of(v1), s);
    }

    #[test]
    fn aa_arithmetic() {
        let geo = paper_fig3_geometry();
        assert_eq!(geo.aa_count(RaidGroupId(0)), 16); // 1024 / 64
        let aa = AaId {
            rg: RaidGroupId(0),
            index: 3,
        };
        assert_eq!(geo.aa_dbn_range(aa), 192..256);
        assert_eq!(geo.aa_of(geo.vbn_at(RaidGroupId(0), 1, Dbn(200))), aa);
    }

    #[test]
    fn short_final_aa() {
        let geo = GeometryBuilder::new()
            .aa_stripes(100)
            .raid_group(2, 1, 250)
            .build();
        assert_eq!(geo.aa_count(RaidGroupId(0)), 3);
        let last = AaId {
            rg: RaidGroupId(0),
            index: 2,
        };
        assert_eq!(geo.aa_dbn_range(last), 200..250);
    }

    #[test]
    fn locate_out_of_range_errors() {
        let geo = paper_fig3_geometry();
        let err = geo.locate(Vbn(geo.total_vbns())).unwrap_err();
        assert_eq!(
            err,
            IoError::OutOfRange {
                vbn: Vbn(geo.total_vbns()),
                total: geo.total_vbns(),
            }
        );
        assert!(err.to_string().contains("out of aggregate range"));
    }

    #[test]
    fn drive_ids_unique_across_groups() {
        let geo = paper_fig3_geometry();
        let mut seen = std::collections::HashSet::new();
        for g in geo.raid_groups() {
            for d in &g.data_drives {
                assert!(seen.insert(*d), "duplicate drive id {d:?}");
            }
        }
        assert_eq!(seen.len(), 5);
    }
}
