//! The affinity hierarchy of Figure 1.
//!
//! ```text
//!                         Serial
//!                           │
//!                       Aggregate(a)          (one per aggregate)
//!                      ┌────┴─────────┐
//!                  Volume(v)      Aggregate-VBN(a)
//!                 ┌────┴──────┐        │
//!        Volume-Logical(v) Volume-VBN(v)  Range(a,r)   (Aggr-VBN ranges)
//!               │               │
//!          Stripe(v,s)      Range(v,r)    (Vol-VBN ranges)
//! ```
//!
//! Exclusion rule (§III-D): a running affinity excludes exactly its
//! ancestors and descendants. "For example, if the Volume Logical affinity
//! was running, then its Stripe affinities were excluded along with its
//! parent Volume, Aggregate, and Serial affinities. Other affinities, such
//! as Volume VBN, were allowed to run."
//!
//! [`Topology`] fixes the instance counts (aggregates, volumes per
//! aggregate, stripes per volume, ranges per volume/aggregate) and assigns
//! every affinity a dense [`AffinityId`] so schedulers can use flat arrays.

use serde::Serialize;

/// Which Waffinity generation to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Model {
    /// Classical Waffinity (§III-B): only `Serial` and `Stripe` affinities
    /// are legal message targets; everything non-stripe serializes.
    Classical,
    /// Hierarchical Waffinity (§III-D): the full Figure 1 tree.
    Hierarchical,
}

/// A symbolic affinity name. Instance indices are global (volume indices
/// run across the whole system; the topology maps volumes to aggregates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Affinity {
    /// Excludes everything; the root of the hierarchy.
    Serial,
    /// Everything within one aggregate.
    Aggregate(u32),
    /// Aggregate allocation metafiles (indexed by VBN), under `Aggregate`.
    AggrVbn(u32),
    /// One block range of the aggregate allocation metafiles.
    AggrVbnRange(u32, u32),
    /// Everything within one FlexVol volume, under its `Aggregate`.
    Volume(u32),
    /// Client-facing (logical) side of a volume, under `Volume`.
    VolumeLogical(u32),
    /// One user-file stripe of a volume, under `VolumeLogical`.
    Stripe(u32, u32),
    /// Volume allocation metafiles (indexed by VVBN), under `Volume`.
    VolumeVbn(u32),
    /// One block range of a volume's allocation metafiles.
    VolVbnRange(u32, u32),
}

/// Dense affinity index assigned by a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct AffinityId(pub u32);

/// Instance counts and id assignment for one system's affinity tree.
///
/// ```
/// use waffinity::{Affinity, Model, Topology};
///
/// let t = Topology::symmetric(Model::Hierarchical, 1, 2, 4, 4);
/// let vl = t.id(Affinity::VolumeLogical(0));
/// // §III-D's worked example: Volume-Logical excludes its stripes and
/// // ancestors, but Volume-VBN work proceeds in parallel.
/// assert!(t.conflicts(vl, t.id(Affinity::Stripe(0, 2))));
/// assert!(t.conflicts(vl, t.id(Affinity::Serial)));
/// assert!(!t.conflicts(vl, t.id(Affinity::VolumeVbn(0))));
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct Topology {
    model: Model,
    aggregates: u32,
    /// `volume_aggr[v]` = the aggregate housing volume `v`.
    volume_aggr: Vec<u32>,
    stripes_per_volume: u32,
    ranges_per_volume: u32,
    ranges_per_aggregate: u32,
    /// Parent of each affinity id (`u32::MAX` for Serial).
    parent: Vec<u32>,
    /// Name of each id, for display and reverse lookup.
    names: Vec<Affinity>,
    /// Depth of each id (Serial = 0).
    depth: Vec<u8>,
}

impl Topology {
    /// Build a topology. `volume_aggr[v]` assigns each volume to an
    /// aggregate.
    ///
    /// # Panics
    /// Panics if a volume references a nonexistent aggregate or any count
    /// is zero where one is required.
    pub fn new(
        model: Model,
        aggregates: u32,
        volume_aggr: Vec<u32>,
        stripes_per_volume: u32,
        ranges_per_volume: u32,
        ranges_per_aggregate: u32,
    ) -> Self {
        assert!(aggregates > 0, "need at least one aggregate");
        assert!(stripes_per_volume > 0, "need at least one stripe affinity");
        assert!(ranges_per_volume > 0 && ranges_per_aggregate > 0);
        for &a in &volume_aggr {
            assert!(a < aggregates, "volume assigned to missing aggregate");
        }
        let mut t = Self {
            model,
            aggregates,
            volume_aggr,
            stripes_per_volume,
            ranges_per_volume,
            ranges_per_aggregate,
            parent: Vec::new(),
            names: Vec::new(),
            depth: Vec::new(),
        };
        t.build_tree();
        t
    }

    /// A small symmetric topology: `aggregates` aggregates with
    /// `vols_per_aggr` volumes each.
    pub fn symmetric(
        model: Model,
        aggregates: u32,
        vols_per_aggr: u32,
        stripes_per_volume: u32,
        ranges: u32,
    ) -> Self {
        let volume_aggr = (0..aggregates)
            .flat_map(|a| std::iter::repeat_n(a, vols_per_aggr as usize))
            .collect();
        Self::new(
            model,
            aggregates,
            volume_aggr,
            stripes_per_volume,
            ranges,
            ranges,
        )
    }

    fn build_tree(&mut self) {
        // Emission order fixes the id space:
        //   Serial,
        //   per aggregate: Aggregate, AggrVbn, AggrVbnRange*,
        //   per volume: Volume, VolumeLogical, Stripe*, VolumeVbn, VolVbnRange*.
        let push = |names: &mut Vec<Affinity>,
                    parent: &mut Vec<u32>,
                    depth: &mut Vec<u8>,
                    name: Affinity,
                    par: u32|
         -> u32 {
            let id = names.len() as u32;
            names.push(name);
            parent.push(par);
            depth.push(if par == u32::MAX {
                0
            } else {
                depth[par as usize] + 1
            });
            id
        };
        let (mut names, mut parent, mut depth) = (Vec::new(), Vec::new(), Vec::new());
        let serial = push(
            &mut names,
            &mut parent,
            &mut depth,
            Affinity::Serial,
            u32::MAX,
        );
        let mut aggr_ids = Vec::with_capacity(self.aggregates as usize);
        for a in 0..self.aggregates {
            let ag = push(
                &mut names,
                &mut parent,
                &mut depth,
                Affinity::Aggregate(a),
                serial,
            );
            aggr_ids.push(ag);
            let avbn = push(
                &mut names,
                &mut parent,
                &mut depth,
                Affinity::AggrVbn(a),
                ag,
            );
            for r in 0..self.ranges_per_aggregate {
                push(
                    &mut names,
                    &mut parent,
                    &mut depth,
                    Affinity::AggrVbnRange(a, r),
                    avbn,
                );
            }
        }
        for (v, &a) in self.volume_aggr.clone().iter().enumerate() {
            let v = v as u32;
            let vol = push(
                &mut names,
                &mut parent,
                &mut depth,
                Affinity::Volume(v),
                aggr_ids[a as usize],
            );
            let vl = push(
                &mut names,
                &mut parent,
                &mut depth,
                Affinity::VolumeLogical(v),
                vol,
            );
            for s in 0..self.stripes_per_volume {
                push(
                    &mut names,
                    &mut parent,
                    &mut depth,
                    Affinity::Stripe(v, s),
                    vl,
                );
            }
            let vvbn = push(
                &mut names,
                &mut parent,
                &mut depth,
                Affinity::VolumeVbn(v),
                vol,
            );
            for r in 0..self.ranges_per_volume {
                push(
                    &mut names,
                    &mut parent,
                    &mut depth,
                    Affinity::VolVbnRange(v, r),
                    vvbn,
                );
            }
        }
        self.names = names;
        self.parent = parent;
        self.depth = depth;
    }

    /// The Waffinity generation being modeled.
    #[inline]
    pub fn model(&self) -> Model {
        self.model
    }

    /// Total number of affinity nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the tree is empty (never: Serial always exists).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Number of volumes.
    #[inline]
    pub fn volumes(&self) -> u32 {
        self.volume_aggr.len() as u32
    }

    /// Number of aggregates.
    #[inline]
    pub fn aggregates(&self) -> u32 {
        self.aggregates
    }

    /// Stripe affinities per volume.
    #[inline]
    pub fn stripes_per_volume(&self) -> u32 {
        self.stripes_per_volume
    }

    /// Range affinities per volume (Vol-VBN side).
    #[inline]
    pub fn ranges_per_volume(&self) -> u32 {
        self.ranges_per_volume
    }

    /// Range affinities per aggregate (Aggr-VBN side).
    #[inline]
    pub fn ranges_per_aggregate(&self) -> u32 {
        self.ranges_per_aggregate
    }

    /// The aggregate housing a volume.
    #[inline]
    pub fn aggr_of_volume(&self, v: u32) -> u32 {
        self.volume_aggr[v as usize]
    }

    /// Resolve a symbolic affinity to its dense id.
    ///
    /// In the [`Model::Classical`] topology only `Serial` and `Stripe` are
    /// legal message targets; resolving any other name panics, mirroring
    /// the fact that such work "ran in a Serial affinity" (§III-B) — the
    /// caller should map it to `Serial` explicitly (see
    /// [`Topology::classical_target`]).
    pub fn id(&self, a: Affinity) -> AffinityId {
        if self.model == Model::Classical {
            assert!(
                matches!(a, Affinity::Serial | Affinity::Stripe(..)),
                "Classical Waffinity has only Serial and Stripe affinities; got {a:?}"
            );
        }
        // Ids are assigned in a fixed arithmetic layout; compute directly.
        let per_aggr = 2 + self.ranges_per_aggregate; // Aggregate, AggrVbn, ranges
        let per_vol = 3 + self.stripes_per_volume + self.ranges_per_volume;
        let vol_base = 1 + self.aggregates * per_aggr;
        let id = match a {
            Affinity::Serial => 0,
            Affinity::Aggregate(x) => 1 + x * per_aggr,
            Affinity::AggrVbn(x) => 1 + x * per_aggr + 1,
            Affinity::AggrVbnRange(x, r) => {
                assert!(r < self.ranges_per_aggregate);
                1 + x * per_aggr + 2 + r
            }
            Affinity::Volume(v) => vol_base + v * per_vol,
            Affinity::VolumeLogical(v) => vol_base + v * per_vol + 1,
            Affinity::Stripe(v, s) => {
                assert!(s < self.stripes_per_volume);
                vol_base + v * per_vol + 2 + s
            }
            Affinity::VolumeVbn(v) => vol_base + v * per_vol + 2 + self.stripes_per_volume,
            Affinity::VolVbnRange(v, r) => {
                assert!(r < self.ranges_per_volume);
                vol_base + v * per_vol + 3 + self.stripes_per_volume + r
            }
        };
        debug_assert_eq!(self.names[id as usize], a, "id layout mismatch");
        AffinityId(id)
    }

    /// Map a desired affinity to its Classical-Waffinity execution target:
    /// Stripe affinities stay; everything else runs in Serial (§III-B).
    pub fn classical_target(&self, a: Affinity) -> Affinity {
        match a {
            Affinity::Stripe(..) => a,
            _ => Affinity::Serial,
        }
    }

    /// Reverse lookup: the symbolic name of a dense id.
    #[inline]
    pub fn name(&self, id: AffinityId) -> Affinity {
        self.names[id.0 as usize]
    }

    /// Parent of an affinity (`None` for Serial).
    #[inline]
    pub fn parent(&self, id: AffinityId) -> Option<AffinityId> {
        let p = self.parent[id.0 as usize];
        (p != u32::MAX).then_some(AffinityId(p))
    }

    /// Depth in the tree (Serial = 0).
    #[inline]
    pub fn depth(&self, id: AffinityId) -> u8 {
        self.depth[id.0 as usize]
    }

    /// Is `a` an ancestor of `b` (or equal)?
    pub fn is_ancestor_or_self(&self, a: AffinityId, b: AffinityId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.parent(cur) {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// Do two affinities exclude each other? True iff one is an ancestor
    /// of the other (or they are the same affinity) — the §III-D rule.
    pub fn conflicts(&self, a: AffinityId, b: AffinityId) -> bool {
        self.is_ancestor_or_self(a, b) || self.is_ancestor_or_self(b, a)
    }

    /// Iterate over `id` and all its ancestors up to Serial.
    pub fn ancestors_inclusive(&self, id: AffinityId) -> AncestorIter<'_> {
        AncestorIter {
            topo: self,
            cur: Some(id),
        }
    }

    /// The Stripe affinity for a file region, using the rotation described
    /// in §III-B (file stripes "rotated over a set of Stripe affinities").
    #[inline]
    pub fn stripe_for(&self, volume: u32, file_id: u64, stripe_index: u64) -> Affinity {
        let mix = file_id
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(stripe_index);
        Affinity::Stripe(volume, (mix % self.stripes_per_volume as u64) as u32)
    }

    /// The Vol-VBN Range affinity covering a metafile block of a volume.
    #[inline]
    pub fn vol_range_for(&self, volume: u32, metafile_block: u64) -> Affinity {
        Affinity::VolVbnRange(
            volume,
            (metafile_block % self.ranges_per_volume as u64) as u32,
        )
    }

    /// The Aggr-VBN Range affinity covering a metafile block of an
    /// aggregate.
    #[inline]
    pub fn aggr_range_for(&self, aggr: u32, metafile_block: u64) -> Affinity {
        Affinity::AggrVbnRange(
            aggr,
            (metafile_block % self.ranges_per_aggregate as u64) as u32,
        )
    }
}

/// Iterator over an affinity and its ancestors (see
/// [`Topology::ancestors_inclusive`]).
pub struct AncestorIter<'a> {
    topo: &'a Topology,
    cur: Option<AffinityId>,
}

impl Iterator for AncestorIter<'_> {
    type Item = AffinityId;
    fn next(&mut self) -> Option<AffinityId> {
        let cur = self.cur?;
        self.cur = self.topo.parent(cur);
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::symmetric(Model::Hierarchical, 2, 2, 4, 3)
    }

    #[test]
    fn id_layout_roundtrips() {
        let t = topo();
        for i in 0..t.len() as u32 {
            let name = t.name(AffinityId(i));
            assert_eq!(t.id(name), AffinityId(i));
        }
    }

    #[test]
    fn figure1_example_volume_logical_exclusions() {
        // §III-D: "if the Volume Logical affinity was running, then its
        // Stripe affinities were excluded along with its parent Volume,
        // Aggregate, and Serial affinities. Other affinities, such as
        // Volume VBN, were allowed to run."
        let t = topo();
        let vl = t.id(Affinity::VolumeLogical(0));
        assert!(t.conflicts(vl, t.id(Affinity::Stripe(0, 2))));
        assert!(t.conflicts(vl, t.id(Affinity::Volume(0))));
        assert!(t.conflicts(vl, t.id(Affinity::Aggregate(0))));
        assert!(t.conflicts(vl, t.id(Affinity::Serial)));
        assert!(!t.conflicts(vl, t.id(Affinity::VolumeVbn(0))));
        assert!(!t.conflicts(vl, t.id(Affinity::VolVbnRange(0, 1))));
        assert!(!t.conflicts(vl, t.id(Affinity::AggrVbn(0))));
        assert!(!t.conflicts(vl, t.id(Affinity::VolumeLogical(1))));
    }

    #[test]
    fn serial_excludes_everything() {
        let t = topo();
        let s = t.id(Affinity::Serial);
        for i in 0..t.len() as u32 {
            assert!(t.conflicts(s, AffinityId(i)));
        }
    }

    #[test]
    fn disjoint_instances_never_conflict() {
        // "any two operations in different aggregates, FlexVol volumes, or
        // regions of blocks in a file" run in parallel (§III-D).
        let t = topo();
        let cases = [
            (Affinity::Aggregate(0), Affinity::Aggregate(1)),
            (Affinity::Volume(0), Affinity::Volume(1)),
            (Affinity::Stripe(0, 0), Affinity::Stripe(0, 1)),
            (Affinity::VolVbnRange(0, 0), Affinity::VolVbnRange(0, 2)),
            (Affinity::AggrVbnRange(0, 1), Affinity::AggrVbnRange(1, 1)),
            (Affinity::Volume(0), Affinity::AggrVbn(0)),
        ];
        for (a, b) in cases {
            assert!(
                !t.conflicts(t.id(a), t.id(b)),
                "{a:?} should not exclude {b:?}"
            );
        }
    }

    #[test]
    fn volume_conflicts_with_its_aggregate_chain_only() {
        let t = topo();
        let v2 = t.id(Affinity::Volume(2)); // housed in aggregate 1
        assert!(t.conflicts(v2, t.id(Affinity::Aggregate(1))));
        assert!(!t.conflicts(v2, t.id(Affinity::Aggregate(0))));
        assert!(t.conflicts(v2, t.id(Affinity::Stripe(2, 3))));
        assert!(!t.conflicts(v2, t.id(Affinity::Stripe(1, 0))));
    }

    #[test]
    fn conflict_matrix_is_symmetric_and_matches_ancestor_rule() {
        let t = Topology::symmetric(Model::Hierarchical, 1, 2, 2, 2);
        let n = t.len() as u32;
        for a in 0..n {
            for b in 0..n {
                let (a, b) = (AffinityId(a), AffinityId(b));
                assert_eq!(t.conflicts(a, b), t.conflicts(b, a));
                let expected = t.is_ancestor_or_self(a, b) || t.is_ancestor_or_self(b, a);
                assert_eq!(t.conflicts(a, b), expected);
            }
        }
    }

    #[test]
    fn depths_match_figure1() {
        let t = topo();
        assert_eq!(t.depth(t.id(Affinity::Serial)), 0);
        assert_eq!(t.depth(t.id(Affinity::Aggregate(1))), 1);
        assert_eq!(t.depth(t.id(Affinity::Volume(3))), 2);
        assert_eq!(t.depth(t.id(Affinity::VolumeLogical(0))), 3);
        assert_eq!(t.depth(t.id(Affinity::Stripe(0, 0))), 4);
        assert_eq!(t.depth(t.id(Affinity::AggrVbn(0))), 2);
        assert_eq!(t.depth(t.id(Affinity::AggrVbnRange(0, 0))), 3);
        assert_eq!(t.depth(t.id(Affinity::VolVbnRange(0, 0))), 4);
    }

    #[test]
    fn classical_maps_non_stripe_work_to_serial() {
        let t = Topology::symmetric(Model::Classical, 1, 1, 8, 1);
        assert_eq!(t.classical_target(Affinity::VolumeVbn(0)), Affinity::Serial);
        assert_eq!(
            t.classical_target(Affinity::Stripe(0, 3)),
            Affinity::Stripe(0, 3)
        );
        // Stripe and Serial ids resolve fine in classical mode.
        t.id(Affinity::Serial);
        t.id(Affinity::Stripe(0, 7));
    }

    #[test]
    #[should_panic(expected = "Classical Waffinity")]
    fn classical_rejects_hierarchical_targets() {
        let t = Topology::symmetric(Model::Classical, 1, 1, 8, 1);
        t.id(Affinity::VolumeVbn(0));
    }

    #[test]
    fn stripe_rotation_is_deterministic_and_in_range() {
        let t = topo();
        for f in 0..20u64 {
            for s in 0..20u64 {
                let a = t.stripe_for(1, f, s);
                assert_eq!(a, t.stripe_for(1, f, s));
                match a {
                    Affinity::Stripe(v, idx) => {
                        assert_eq!(v, 1);
                        assert!(idx < 4);
                    }
                    _ => panic!("expected stripe"),
                }
            }
        }
    }

    #[test]
    fn range_mapping_partitions_metafile_blocks() {
        let t = topo();
        // Different metafile blocks map across the range space; the same
        // block always maps to the same range.
        let a = t.vol_range_for(0, 7);
        assert_eq!(a, t.vol_range_for(0, 7));
        let ids: std::collections::HashSet<_> =
            (0..30u64).map(|b| t.aggr_range_for(1, b)).collect();
        assert_eq!(ids.len(), 3, "blocks spread over all 3 ranges");
    }

    #[test]
    fn ancestors_iterate_to_serial() {
        let t = topo();
        let chain: Vec<_> = t
            .ancestors_inclusive(t.id(Affinity::Stripe(3, 1)))
            .map(|i| t.name(i))
            .collect();
        assert_eq!(
            chain,
            vec![
                Affinity::Stripe(3, 1),
                Affinity::VolumeLogical(3),
                Affinity::Volume(3),
                Affinity::Aggregate(1),
                Affinity::Serial
            ]
        );
    }
}
