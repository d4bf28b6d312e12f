//! The metric names the harness emits, with their units.
//!
//! `BENCHMARK.json` is the normative list (it also holds each metric's
//! direction and bound); `tests/smoke.rs` compares it with these tables
//! both ways, so neither can drift. The README glossary defines every
//! name and says which end-to-end metric each layer row should move.

use serde::Value;
use std::collections::BTreeMap;

/// End-to-end metrics: what a user of the system sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("buffers_per_s", "buffers/s"),
    ("cp_ms_p50", "ms"),
    ("ack_ns_p50", "ns"),
    ("cpu_s_per_mbuf", "cpu-s/Mbuf"),
    ("dev_blocks_per_buf", "ratio"),
    ("stripe_fill_ratio", "ratio"),
    ("fresh_read_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("recover_ms", "ms"),
];

/// Per-layer metrics; the prefix is the layer's module name.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wafl.fs.write_ns", "ns"),
    ("wafl.fs.read_ns", "ns"),
    ("wafl.fs.ack_ns_p99", "ns"),
    ("wafl.fs.ack_ns_p999", "ns"),
    ("wafl.fs.stale_read_ratio", "ratio"),
    ("wafl.nvlog.log_probe_ns", "ns"),
    ("wafl.nvlog.stall_frac", "ratio"),
    ("wafl.nvlog.stalls", "count"),
    ("wafl.cp.freeze_ns_per_buf", "ns"),
    ("wafl.cp.clean_ns_per_buf", "ns"),
    ("wafl.cp.apply_ns_per_buf", "ns"),
    ("wafl.cp.metafile_ns_per_buf", "ns"),
    ("wafl.cp.barrier_ns_per_buf", "ns"),
    ("wafl.cp.commit_ns_per_buf", "ns"),
    ("wafl.cp.coverage", "ratio"),
    ("wafl.cp.total_ms_p95", "ms"),
    ("wafl.cp.bufs_per_cp", "count"),
    ("wafl.cp.fixpoint_rounds_per_cp", "count"),
    ("wafl.cp.mf_blocks_per_kbuf", "count"),
    ("wafl.cleaner.busy_ns_per_buf", "ns"),
    ("wafl.cleaner.util", "ratio"),
    ("wafl.cleaner.msgs_per_cp", "count"),
    ("wafl.cleaner.bufs_per_msg", "count"),
    ("alligator.cache.get_probe_ns", "ns"),
    ("alligator.cache.bufs_per_get", "count"),
    ("alligator.cache.stall_ratio", "ratio"),
    ("alligator.cache.steal_ratio", "ratio"),
    ("alligator.cache.get_wait_ns_per_buf", "ns"),
    ("alligator.bucket.use_probe_ns", "ns"),
    ("alligator.allocator.put_probe_ns", "ns"),
    ("alligator.allocator.commit_wait_ns_per_put", "ns"),
    ("alligator.allocator.commit_ns_per_put", "ns"),
    ("alligator.allocator.commit_queue_peak", "count"),
    ("alligator.infra.refill_probe_ns_empty", "ns"),
    ("alligator.infra.refill_probe_ns_aged", "ns"),
    ("alligator.infra.refills_per_kbuf", "count"),
    ("alligator.infra.aa_switches_per_kbuf", "count"),
    ("alligator.infra.released_ratio", "ratio"),
    ("alligator.stage.free_probe_ns", "ns"),
    ("alligator.stage.frees_per_buf", "ratio"),
    ("alligator.stage.commits_per_kbuf", "count"),
    ("alligator.tetris.deposit_probe_ns", "ns"),
    ("alligator.tetris.blocks_per_io", "count"),
    ("metafile.activemap.scan_probe_ns_empty", "ns"),
    ("metafile.activemap.scan_probe_ns_aged", "ns"),
    ("metafile.aggmap.select_aa_probe_ns", "ns"),
    ("metafile.loose.add_probe_ns", "ns"),
    ("waffinity.pool.roundtrip_probe_ns", "ns"),
    ("waffinity.pool.msgs_per_kbuf", "count"),
    ("blockdev.raid.full_write_probe_ns", "ns"),
    ("blockdev.raid.partial_write_probe_ns", "ns"),
    ("blockdev.raid.full_stripe_ratio", "ratio"),
    ("blockdev.raid.parity_reads_per_buf", "ratio"),
    ("blockdev.io.submit_probe_ns", "ns"),
    ("blockdev.aio.submit_probe_ns", "ns"),
    ("blockdev.aio.drain_probe_us", "us"),
    ("blockdev.aio.s2c_us", "us"),
    ("blockdev.aio.depth_peak", "count"),
    ("blockdev.file.write_probe_ns_per_block", "ns"),
    ("blockdev.file.sync_probe_us", "us"),
    ("blockdev.file.load_probe_ns_per_block", "ns"),
    ("blockdev.file.buffers_per_s", "buffers/s"),
    ("blockdev.file.cp_ms_p50", "ms"),
    ("blockdev.file.cpu_s_per_mbuf", "cpu-s/Mbuf"),
    ("blockdev.file.recover_ms", "ms"),
    ("obs.hist_record_probe_ns", "ns"),
    ("obs.counter_inc_probe_ns", "ns"),
    ("traced_ops_per_s", "ops/s"),
    ("trace_recording_frac", "ratio"),
    ("ledger_coverage", "ratio"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// `a / b`, or 0 when nothing was counted (a ratio over no events).
pub fn per(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Render `values` as the `metrics` object of a result, in `table` order.
///
/// # Panics
/// Panics when `values` and `table` do not hold exactly the same names, or
/// a value is not finite: every run emits every metric of its table.
pub fn to_value(table: &[(&'static str, &'static str)], values: &Values) -> Value {
    assert_eq!(
        values.len(),
        table.len(),
        "measured names {:?} differ from the table",
        values.keys().collect::<Vec<_>>()
    );
    Value::Map(
        table
            .iter()
            .map(|(name, unit)| {
                let v = *values
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                assert!(v.is_finite(), "metric {name} is not finite: {v}");
                (
                    name.to_string(),
                    Value::Map(vec![
                        ("value".into(), Value::Float(v)),
                        ("unit".into(), Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The value at rank `p` (0..=1) of `sorted`, or 0 when it is empty.
pub fn percentile<T: Copy + Into<f64>>(sorted: &[T], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let i = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[i].into()
}

/// Median of `sorted` integer-nanosecond samples: the mean of the samples
/// ranked within one percent of the middle. The clock counts whole
/// nanoseconds, so the plain median of a sub-microsecond latency is one
/// of a handful of integers; averaging the middle band keeps the digits
/// the samples carry.
pub fn median_band(sorted: &[u32]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let (lo, hi) = (n * 49 / 100, (n * 51).div_ceil(100).max(n * 49 / 100 + 1));
    let band = &sorted[lo..hi.min(n)];
    band.iter().map(|&v| f64::from(v)).sum::<f64>() / band.len() as f64
}
