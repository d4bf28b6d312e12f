//! Per-Allocation-Area free-block statistics.
//!
//! "The infrastructure selects the Allocation Area in each RAID group that
//! contains the most free blocks and walks the allocation bitmaps to find
//! free VBNs on each drive from the corresponding regions. … By using AAs
//! to find empty regions of disk, WAFL increases the probability of full
//! stripe writes" (§IV-D).
//!
//! [`AaStats`] keeps an atomic free-block counter per AA per RAID group.
//! Counters reflect *reservations* immediately (so a drained AA is not
//! re-selected while its VBNs are still outstanding in buckets) and are
//! restored on release/free.

use std::sync::atomic::{AtomicU64, Ordering};
use wafl_blockdev::{AaId, AggregateGeometry, RaidGroupId};

/// Free-block counts per Allocation Area, per RAID group.
pub struct AaStats {
    /// `per_rg[rg][aa]` = free blocks in that AA (across all its drives).
    per_rg: Vec<Vec<AtomicU64>>,
}

impl AaStats {
    /// Build stats for a geometry, assuming the aggregate starts empty
    /// (every data block free).
    pub fn new_all_free(geo: &AggregateGeometry) -> Self {
        let per_rg = geo
            .raid_groups()
            .iter()
            .map(|g| {
                let aa_count = geo.aa_count(g.id);
                (0..aa_count)
                    .map(|i| {
                        let r = geo.aa_dbn_range(AaId { rg: g.id, index: i });
                        AtomicU64::new((r.end - r.start) * g.width() as u64)
                    })
                    .collect()
            })
            .collect();
        Self { per_rg }
    }

    /// Number of AAs tracked for a group.
    pub fn aa_count(&self, rg: RaidGroupId) -> u32 {
        self.per_rg[rg.0 as usize].len() as u32
    }

    /// Free blocks currently accounted to an AA.
    pub fn free_in(&self, aa: AaId) -> u64 {
        // ordering: statistics counter; staleness is acceptable.
        self.per_rg[aa.rg.0 as usize][aa.index as usize].load(Ordering::Relaxed)
    }

    /// Select the AA of `rg` with the most free blocks — the paper's AA
    /// selection policy. Ties break toward the lowest index (top of the
    /// drive). Returns `None` only if the group has no free blocks at all.
    pub fn select_emptiest(&self, rg: RaidGroupId) -> Option<AaId> {
        let aas = &self.per_rg[rg.0 as usize];
        let (best, free) = aas
            .iter()
            .enumerate()
            // ordering: statistics counter; staleness is acceptable.
            .map(|(i, a)| (i, a.load(Ordering::Relaxed)))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))?;
        (free > 0).then_some(AaId {
            rg,
            index: best as u32,
        })
    }

    /// Account `n` blocks reserved out of `aa`.
    pub fn on_reserve(&self, aa: AaId, n: u64) {
        let c = &self.per_rg[aa.rg.0 as usize][aa.index as usize];
        // ordering: statistics counter; staleness is acceptable.
        let prev = c.fetch_sub(n, Ordering::Relaxed);
        debug_assert!(prev >= n, "AA free count underflow");
    }

    /// Account `n` blocks released (unused reservation) back to `aa`.
    pub fn on_release(&self, aa: AaId, n: u64) {
        // ordering: statistics counter; staleness is acceptable.
        self.per_rg[aa.rg.0 as usize][aa.index as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Verify that every AA counter matches an exact recount from the
    /// active map. Test/scrub helper.
    pub fn verify_against(
        &self,
        geo: &AggregateGeometry,
        map: &crate::ActiveMap,
    ) -> Result<(), String> {
        for g in geo.raid_groups() {
            for index in 0..geo.aa_count(g.id) {
                let aa = AaId { rg: g.id, index };
                let dbns = geo.aa_dbn_range(aa);
                let mut actual = 0u64;
                for d in 0..g.width() {
                    let base = g.drive_vbn_range(d).start;
                    actual += map.count_free_in(base + dbns.start, base + dbns.end);
                }
                let tracked = self.free_in(aa);
                if tracked != actual {
                    return Err(format!(
                        "AA {aa:?}: tracked {tracked} free, actual {actual}"
                    ));
                }
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for AaStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AaStats")
            .field("raid_groups", &self.per_rg.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wafl_blockdev::GeometryBuilder;

    fn geo() -> AggregateGeometry {
        GeometryBuilder::new()
            .aa_stripes(64)
            .raid_group(3, 1, 256) // 4 AAs of 64 stripes
            .raid_group(2, 1, 256)
            .build()
    }

    #[test]
    fn initial_counts_match_geometry() {
        let g = geo();
        let s = AaStats::new_all_free(&g);
        assert_eq!(s.aa_count(RaidGroupId(0)), 4);
        assert_eq!(
            s.free_in(AaId {
                rg: RaidGroupId(0),
                index: 0
            }),
            64 * 3
        );
        assert_eq!(
            s.free_in(AaId {
                rg: RaidGroupId(1),
                index: 3
            }),
            64 * 2
        );
        let rg0: u64 = (0..s.aa_count(RaidGroupId(0)))
            .map(|index| {
                s.free_in(AaId {
                    rg: RaidGroupId(0),
                    index,
                })
            })
            .sum();
        assert_eq!(rg0, 256 * 3);
    }

    #[test]
    fn select_emptiest_prefers_most_free_then_lowest_index() {
        let g = geo();
        let s = AaStats::new_all_free(&g);
        // All equal → index 0.
        assert_eq!(
            s.select_emptiest(RaidGroupId(0)),
            Some(AaId {
                rg: RaidGroupId(0),
                index: 0
            })
        );
        // Drain AA0 a bit → AA1 wins.
        s.on_reserve(
            AaId {
                rg: RaidGroupId(0),
                index: 0,
            },
            10,
        );
        assert_eq!(
            s.select_emptiest(RaidGroupId(0)),
            Some(AaId {
                rg: RaidGroupId(0),
                index: 1
            })
        );
    }

    #[test]
    fn select_none_when_group_full() {
        let g = GeometryBuilder::new()
            .aa_stripes(4)
            .raid_group(1, 1, 8)
            .build();
        let s = AaStats::new_all_free(&g);
        s.on_reserve(
            AaId {
                rg: RaidGroupId(0),
                index: 0,
            },
            4,
        );
        s.on_reserve(
            AaId {
                rg: RaidGroupId(0),
                index: 1,
            },
            4,
        );
        assert_eq!(s.select_emptiest(RaidGroupId(0)), None);
    }

    #[test]
    fn reserve_release_roundtrip() {
        let g = geo();
        let s = AaStats::new_all_free(&g);
        let aa = AaId {
            rg: RaidGroupId(1),
            index: 2,
        };
        s.on_reserve(aa, 30);
        assert_eq!(s.free_in(aa), 128 - 30);
        s.on_release(aa, 30);
        assert_eq!(s.free_in(aa), 128);
    }

    #[test]
    fn a_freed_block_credits_its_aa() {
        let g = geo();
        let s = AaStats::new_all_free(&g);
        // VBN on RG0, drive 1, dbn 100 → AA index 1.
        let vbn = g.vbn_at(RaidGroupId(0), 1, wafl_blockdev::Dbn(100));
        let aa = AaId {
            rg: RaidGroupId(0),
            index: 1,
        };
        s.on_reserve(aa, 5);
        s.on_release(g.aa_of(vbn), 1);
        assert_eq!(s.free_in(aa), 64 * 3 - 4);
    }

    #[test]
    fn verify_against_fresh_map_passes() {
        let g = geo();
        let s = AaStats::new_all_free(&g);
        let m = crate::ActiveMap::new(g.total_vbns());
        s.verify_against(&g, &m).unwrap();
    }
}
