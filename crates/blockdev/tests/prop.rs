//! Property tests: geometry arithmetic and RAID parity under random
//! inputs, and the RAID write against the per-block oracle it replaced.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wafl_blockdev::drive::DriveStats;
use wafl_blockdev::{
    BlockStamp, Dbn, DriveKind, FaultPlan, FaultSpec, GeometryBuilder, IoEngine, IoError,
    RaidGroup, RaidGroupId, RetryPolicy, Vbn, WriteIo, WriteSegment,
};

/// Add to one of the oracle's counters.
fn bump(counter: &AtomicU64, n: u64) {
    // ordering: test bookkeeping.
    counter.fetch_add(n, Ordering::Relaxed);
}

/// The oracle: `RaidGroup::write` as it was before the write became one
/// pass per drive. Every block goes through a per-drive map and a map of
/// stripes, every untouched block of a partial stripe is read on its own
/// in stripe order, and each drive's map is written as maximal runs.
fn oracle_write(
    g: &RaidGroup,
    per_drive: &[BTreeMap<u64, BlockStamp>],
) -> Result<(u64, u64), IoError> {
    let data = g.data_drives();
    let counters = g.counters();
    let ensure_reconstructable = |failed: usize| {
        let others_ok = data
            .iter()
            .enumerate()
            .all(|(i, d)| i == failed || !d.is_offline());
        let parity_ok = g.parity_drives().first().is_some_and(|p| !p.is_offline());
        if others_ok && parity_ok {
            Ok(())
        } else {
            Err(IoError::Unrecoverable {
                detail: "multiple drive failures in a single-parity group",
            })
        }
    };
    let write_runs = |drive, m: &BTreeMap<u64, BlockStamp>| -> Result<u64, IoError> {
        let mut ns = 0u64;
        let mut iter = m.iter().peekable();
        while let Some((&start, &first)) = iter.next() {
            let mut run = vec![first];
            while let Some((_, &s)) = iter.next_if(|(&d, _)| d == start + run.len() as u64) {
                run.push(s);
            }
            ns += g.write_with_retries(drive, Dbn(start), &run)?;
        }
        Ok(ns)
    };

    let mut stripes: BTreeMap<u64, usize> = BTreeMap::new();
    for m in per_drive {
        for &dbn in m.keys() {
            *stripes.entry(dbn).or_insert(0) += 1;
        }
    }
    let mut parity_reads = 0u64;
    let mut parity_updates: BTreeMap<u64, BlockStamp> = BTreeMap::new();
    for (&dbn, &covered) in &stripes {
        let mut parity = 0u128;
        if covered == data.len() {
            bump(&counters.full_stripe_writes, 1);
            for m in per_drive {
                parity ^= m[&dbn];
            }
        } else {
            bump(&counters.partial_stripe_writes, 1);
            for (i, m) in per_drive.iter().enumerate() {
                match m.get(&dbn) {
                    Some(&s) => parity ^= s,
                    None => {
                        let old = match g.read_with_retries(&data[i], Dbn(dbn)) {
                            Ok((old, _)) => old,
                            Err(_) => {
                                ensure_reconstructable(i)?;
                                bump(&counters.reconstructed_reads, 1);
                                g.reconstruct(i as u32, Dbn(dbn))
                            }
                        };
                        parity ^= old;
                        parity_reads += 1;
                    }
                }
            }
        }
        parity_updates.insert(dbn, parity);
    }
    bump(&counters.parity_read_blocks, parity_reads);

    let mut max_ns = 0u64;
    for (i, m) in per_drive.iter().enumerate() {
        if m.is_empty() {
            continue;
        }
        match write_runs(&*data[i], m) {
            Ok(ns) => max_ns = max_ns.max(ns),
            Err(IoError::Capacity { .. }) => {
                return Err(IoError::Capacity {
                    drive: data[i].id(),
                    dbn: Dbn(*m.keys().next().unwrap()),
                    blocks: m.len() as u64,
                })
            }
            Err(_) => {
                data[i].take_offline();
                ensure_reconstructable(i)?;
                bump(&counters.degraded_writes, m.len() as u64);
                bump(&counters.degraded_stripes, m.len() as u64);
            }
        }
    }
    for p in g.parity_drives() {
        match write_runs(&**p, &parity_updates) {
            Ok(ns) => max_ns = max_ns.max(ns),
            Err(e @ IoError::Capacity { .. }) => return Err(e),
            Err(_) => {
                p.take_offline();
                if !g.offline_data_drives().is_empty() {
                    return Err(IoError::Unrecoverable {
                        detail: "parity and data drive failed in one group",
                    });
                }
                bump(&counters.degraded_writes, parity_updates.len() as u64);
            }
        }
    }
    Ok((max_ns, parity_reads))
}

/// Everything a RAID write can change, read back from one group: each
/// drive's media, statistics, health and failure streak, then the
/// group's counters.
#[derive(Debug, PartialEq)]
struct GroupState {
    drives: Vec<(Vec<BlockStamp>, DriveStats, bool, u32)>,
    counters: [u64; 9],
}

fn group_state(g: &RaidGroup) -> GroupState {
    let blocks = g.geometry().blocks_per_drive;
    let drives = g
        .data_drives()
        .iter()
        .chain(g.parity_drives())
        .map(|d| {
            let media = (0..blocks).map(|b| d.peek(Dbn(b))).collect();
            (media, d.stats(), d.is_offline(), d.consecutive_failures())
        })
        .collect();
    let c = g.counters();
    let counters = [
        &c.full_stripe_writes,
        &c.partial_stripe_writes,
        &c.parity_read_blocks,
        &c.reconstructed_reads,
        &c.degraded_stripes,
        &c.degraded_writes,
        &c.io_retries,
        &c.io_errors,
        &c.blocks_rebuilt,
    ]
    // ordering: test readback.
    .map(|a| a.load(Ordering::Relaxed));
    GroupState { drives, counters }
}

/// Blocks per drive in the oracle geometry.
const ORACLE_BLOCKS: u64 = 48;

/// Segments of one write I/O: `(drive, start, len, salt)`, plus an
/// optional band `(start, len)` written on every drive (full stripes).
type IoShape = (Vec<(u32, u64, u64, u64)>, Option<(u64, u64)>);

/// Build the I/O in the generated segment order, dropping any segment
/// that overlaps one already kept on its drive.
fn build_io(width: u32, (segs, band): &IoShape, round: u64) -> WriteIo {
    let mut out: Vec<WriteSegment> = Vec::new();
    let band = band
        .iter()
        .flat_map(|&(start, len)| (0..width).map(move |d| (d, start, len, 0)));
    for (drive, start, len, salt) in segs.iter().copied().chain(band) {
        let drive = drive % width;
        let len = len.min(ORACLE_BLOCKS - start);
        let overlaps = out.iter().any(|s| {
            s.drive_in_rg == drive
                && start < s.start_dbn + s.stamps.len() as u64
                && s.start_dbn < start + len
        });
        if !overlaps {
            out.push(WriteSegment {
                drive_in_rg: drive,
                start_dbn: start,
                stamps: (0..len)
                    .map(|i| wafl_blockdev::stamp(u64::from(drive), start + i, round ^ salt))
                    .collect(),
            });
        }
    }
    WriteIo {
        rg: RaidGroupId(0),
        segments: out,
    }
}

/// The oracle's input: one DBN → stamp map per data drive.
fn maps_of(width: u32, io: &WriteIo) -> Vec<BTreeMap<u64, BlockStamp>> {
    let mut maps = vec![BTreeMap::new(); width as usize];
    for seg in &io.segments {
        for (i, &s) in seg.stamps.iter().enumerate() {
            maps[seg.drive_in_rg as usize].insert(seg.start_dbn + i as u64, s);
        }
    }
    maps
}

/// `Some(value)` half the time.
fn maybe<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
    (prop::bool::ANY, s).prop_map(|(some, v)| some.then_some(v))
}

fn io_shapes() -> impl Strategy<Value = Vec<IoShape>> {
    let seg = (0u32..8, 0u64..ORACLE_BLOCKS, 1u64..7, 0u64..u64::MAX);
    let band = maybe((0u64..ORACLE_BLOCKS, 1u64..9));
    prop::collection::vec((prop::collection::vec(seg, 0..7), band), 1..8)
}

fn fault_specs() -> impl Strategy<Value = Option<(FaultSpec, Option<(usize, u64)>)>> {
    let rates = (
        0u64..u64::MAX,
        0u32..300_000,
        0u32..300_000,
        0u32..150_000,
        0u32..300_000,
    );
    let fail = maybe((0usize..8, 0u64..40));
    maybe(
        (rates, fail).prop_map(|((seed, re, we, torn, spike), fail)| {
            let spec = FaultSpec {
                seed,
                read_error_ppm: re,
                write_error_ppm: we,
                torn_write_ppm: torn,
                latency_spike_ppm: spike,
                ..FaultSpec::default()
            };
            (spec, fail)
        }),
    )
}

fn geometries() -> impl Strategy<Value = (u32, u32, u64, u64)> {
    // (groups, data drives per group, blocks per drive, aa stripes)
    (1u32..4, 1u32..6, 16u64..512, 4u64..128)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn locate_vbn_roundtrip_for_random_geometries(
        (groups, width, blocks, aa) in geometries(),
        probes in prop::collection::vec(0u64..u64::MAX, 1..50),
    ) {
        let mut b = GeometryBuilder::new().aa_stripes(aa);
        for _ in 0..groups {
            b = b.raid_group(width, 1, blocks);
        }
        let geo = b.build();
        prop_assert_eq!(geo.total_vbns(), groups as u64 * width as u64 * blocks);
        for p in probes {
            let vbn = Vbn(p % geo.total_vbns());
            let loc = geo.locate(vbn).unwrap();
            prop_assert_eq!(geo.vbn_at(loc.rg, loc.drive_in_rg, loc.dbn), vbn);
            prop_assert!(loc.dbn.0 < blocks);
            prop_assert!(loc.drive_in_rg < width);
            // AA containment.
            let aa_id = geo.aa_of(vbn);
            let r = geo.aa_dbn_range(aa_id);
            prop_assert!(r.contains(&loc.dbn.0));
        }
    }

    #[test]
    fn vbns_partition_across_drives(
        (groups, width, blocks, aa) in geometries(),
    ) {
        let mut b = GeometryBuilder::new().aa_stripes(aa);
        for _ in 0..groups {
            b = b.raid_group(width, 1, blocks);
        }
        let geo = b.build();
        // Walk all VBNs (bounded by strategy ranges) and count per drive.
        let mut counts = std::collections::HashMap::new();
        for v in 0..geo.total_vbns() {
            let loc = geo.locate(Vbn(v)).unwrap();
            *counts.entry(loc.drive).or_insert(0u64) += 1;
        }
        prop_assert_eq!(counts.len() as u64, groups as u64 * width as u64);
        prop_assert!(counts.values().all(|&c| c == blocks));
    }

    #[test]
    fn parity_holds_after_arbitrary_write_sequences(
        writes in prop::collection::vec(
            (0u32..3, 0u64..64, 1u64..8, 1u128..u128::MAX), 1..40),
    ) {
        let geo = Arc::new(
            GeometryBuilder::new()
                .aa_stripes(16)
                .raid_group(3, 1, 128)
                .build(),
        );
        let engine = IoEngine::new(geo, DriveKind::Ssd);
        for (drive, start, len, stamp) in writes {
            let drive = drive % 3;
            let start = start % 120;
            let len = len.min(128 - start);
            let io = WriteIo {
                rg: RaidGroupId(0),
                segments: vec![WriteSegment {
                    drive_in_rg: drive,
                    start_dbn: start,
                    stamps: (0..len).map(|i| stamp ^ i as u128).collect(),
                }],
            };
            engine.submit_write(&io).unwrap();
        }
        engine.scrub().unwrap();
    }

    #[test]
    fn reconstruction_equals_original_after_random_writes(
        writes in prop::collection::vec((0u32..4, 0u64..100, 1u128..u128::MAX), 5..30),
        failed in 0u32..4,
        probe in 0u64..100,
    ) {
        let geo = Arc::new(
            GeometryBuilder::new()
                .aa_stripes(32)
                .raid_group(4, 1, 100)
                .build(),
        );
        let engine = IoEngine::new(Arc::clone(&geo), DriveKind::Ssd);
        for (drive, dbn, stamp) in writes {
            let io = WriteIo {
                rg: RaidGroupId(0),
                segments: vec![WriteSegment {
                    drive_in_rg: drive % 4,
                    start_dbn: dbn,
                    stamps: vec![stamp],
                }],
            };
            engine.submit_write(&io).unwrap();
        }
        let rg = engine.raid_group(RaidGroupId(0));
        let original = rg.data_drives()[failed as usize]
            .read_block(wafl_blockdev::Dbn(probe))
            .unwrap()
            .0;
        prop_assert_eq!(rg.reconstruct(failed, wafl_blockdev::Dbn(probe)), original);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The one-pass RAID write leaves media, parity, drive statistics and
    /// health, and the group's counters exactly as the per-block oracle
    /// does, and returns the same value or error — healthy, under a
    /// seeded fault plan, and with one drive (data or parity) offline.
    #[test]
    fn one_pass_write_matches_the_per_block_oracle(
        (width, hdd, offline_after) in (1u32..5, prop::bool::ANY, 1u32..4),
        shapes in io_shapes(),
        faults in fault_specs(),
        offline in maybe(0usize..5),
    ) {
        let geo = GeometryBuilder::new()
            .aa_stripes(16)
            .raid_group(width, 1, ORACLE_BLOCKS)
            .build();
        let kind = if hdd { DriveKind::Hdd } else { DriveKind::Ssd };
        let policy = RetryPolicy { offline_after, ..RetryPolicy::default() };
        let [oracle, group] = [0, 1].map(|_| {
            let mut g = RaidGroup::new(geo.raid_group(RaidGroupId(0)).clone(), kind);
            g.set_retry_policy(policy);
            let drives: Vec<_> = g.data_drives().iter().chain(g.parity_drives()).cloned().collect();
            if let Some((spec, fail)) = faults {
                let spec = FaultSpec {
                    fail_drive: fail.map(|(d, _)| drives[d % drives.len()].id().0),
                    fail_drive_after_ops: fail.map_or(0, |(_, after)| after),
                    ..spec
                };
                let plan = Arc::new(FaultPlan::new(spec));
                for d in &drives {
                    d.set_fault_plan(Arc::clone(&plan));
                }
            }
            if let Some(d) = offline {
                drives[d % drives.len()].take_offline();
            }
            g
        });
        for (round, shape) in shapes.iter().enumerate() {
            let io = build_io(width, shape, round as u64);
            let want = oracle_write(&oracle, &maps_of(width, &io));
            let got = group.write_segments(&io.segments);
            prop_assert!(got == want, "write {round}: {got:?} != oracle {want:?} for {io:?}");
            let (got, want) = (group_state(&group), group_state(&oracle));
            prop_assert!(got == want, "after write {round}: {got:?} != oracle {want:?}");
        }
    }
}
