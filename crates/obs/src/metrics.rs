//! Instruments: a monotonic [`Counter`], a log-bucketed
//! [`LogHistogram`], and a [`Registry`] that hands out named counters.
//! The allocator's counters live in `alligator::stats`, the I/O
//! engines' in `blockdev` (DESIGN.md §11 lists each family's home).
//!
//! Both instruments are cheap shared atomics. The registry is a
//! mutex-protected name table touched only at get-or-create time, never
//! on the hot path; it is owned by whoever creates it, never process-wide.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonic event counter.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // ordering: statistics counter; atomicity only, no ordering needed.
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ordering: statistics read; staleness acceptable.
        self.v.load(Ordering::Relaxed)
    }
}

/// Sub-bucket resolution: 2^6 = 64 sub-buckets per power of two, so any
/// reported quantile is within `1/64` (~1.6%) above the true sample.
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS; // 64
/// Values below `SUB` get one exact bucket each; above, 64 sub-buckets
/// per binade for exponents 6..=63.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB; // 3776

/// Log-bucketed histogram over `u64` samples: O(1) record, O(buckets)
/// quantile, bounded relative error `<= 1/64`, exact `count`/`sum`/`max`.
///
/// Quantiles are ceil nearest-rank — the p-th percentile is the
/// `ceil(p·n)`-th smallest sample (1-based), so p99 of 100 samples is the
/// 99th value and p100 is the max — the semantics a sorted `Vec` gives
/// (the tests keep that implementation as the reference), in constant
/// memory.
#[derive(Debug)]
pub struct LogHistogram {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index for `v`: exact below 64, else 64 sub-buckets per
    /// power of two keyed by the 6 bits under the leading one.
    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            v as usize
        } else {
            let exp = 63 - v.leading_zeros(); // 6..=63
            let sub = ((v >> (exp - SUB_BITS)) & (SUB as u64 - 1)) as usize;
            SUB + (exp - SUB_BITS) as usize * SUB + sub
        }
    }

    /// Largest value that maps to bucket `idx` — what quantiles report,
    /// so they never understate a latency.
    fn upper_bound(idx: usize) -> u64 {
        if idx < SUB {
            idx as u64
        } else {
            let exp = SUB_BITS + ((idx - SUB) / SUB) as u32;
            let sub = ((idx - SUB) % SUB) as u64;
            let lower = (SUB as u64 + sub) << (exp - SUB_BITS);
            // Parenthesized so the top binade (lower + 2^57 == 2^64)
            // never overflows before the -1 lands.
            lower + ((1u64 << (exp - SUB_BITS)) - 1)
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        // ordering: statistics counters; atomicity only. A concurrent
        // reader may see count/sum/bucket briefly out of step — quantile
        // queries are statistical, not transactional.
        self.counts[Self::index(v)].fetch_add(1, Ordering::Relaxed);
        // ordering: as above.
        self.count.fetch_add(1, Ordering::Relaxed);
        // ordering: as above.
        self.sum.fetch_add(v, Ordering::Relaxed);
        // ordering: monotonic max ratchet; atomicity only.
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        // ordering: statistics read; staleness acceptable.
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u64 {
        // ordering: statistics read; staleness acceptable.
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact maximum sample (0 if empty).
    pub fn max(&self) -> u64 {
        // ordering: statistics read; staleness acceptable.
        self.max.load(Ordering::Relaxed)
    }

    /// Exact integer mean (0 if empty).
    pub fn mean(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    /// Ceil nearest-rank quantile, `p` in (0, 1]: the value at rank
    /// `ceil(p * count)` (clamped to [1, count]), as a sorted `Vec`
    /// computes it — except the returned value is the sample's
    /// bucket upper bound (clamped to the exact max), so it sits within
    /// `+1/64` of the true order statistic and never below it.
    pub fn percentile(&self, p: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((p * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (idx, c) in self.counts.iter().enumerate() {
            // ordering: statistics read; staleness acceptable.
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::upper_bound(idx).min(self.max());
            }
        }
        self.max()
    }
}

/// The counter table. Cloneable handles (`Arc`) come out of the
/// get-or-create accessor; one name always yields the same counter.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>, // lock-rank: obs.counters 85
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut t = self.counters.lock().unwrap();
        Arc::clone(t.entry(name.to_string()).or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_and_upper_bound_are_consistent() {
        // Every sample must land in a bucket whose upper bound is >= it
        // and within 1/64 relative error above it.
        let probes: Vec<u64> = (0..200)
            .chain([
                255,
                256,
                257,
                1 << 20,
                (1 << 20) + 12345,
                u64::MAX / 2,
                u64::MAX,
            ])
            .collect();
        for &v in &probes {
            let idx = LogHistogram::index(v);
            assert!(idx < BUCKETS, "index {idx} out of range for {v}");
            let ub = LogHistogram::upper_bound(idx);
            assert!(ub >= v, "upper bound {ub} below sample {v}");
            // Relative error bound: ub - v <= v / 64 (exact below 64).
            if v >= SUB as u64 {
                assert!(ub - v <= v >> SUB_BITS, "error too large for {v}: ub {ub}");
            } else {
                assert_eq!(ub, v, "small values are exact");
            }
        }
        // Bucket indexing is monotone.
        let mut last = 0;
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1000, 1 << 30, u64::MAX] {
            let idx = LogHistogram::index(v);
            assert!(idx >= last);
            last = idx;
        }
    }

    #[test]
    fn percentiles_match_ceil_nearest_rank_within_bucket_error() {
        let h = LogHistogram::new();
        for v in 1..=100u64 {
            h.record(v * 1000);
        }
        // Exact order statistics: p50 -> 50_000, p95 -> 95_000. p99 of
        // 100 samples is the 99th value: the rank is rounded up before
        // quantizing (floor nearest-rank returned the 98th, a full
        // sample below — outside the 1/64 bucket width).
        for (p, exact) in [(0.50, 50_000u64), (0.95, 95_000), (0.99, 99_000)] {
            let got = h.percentile(p);
            assert!(got >= exact, "p{p}: {got} < exact {exact}");
            assert!(
                got <= exact + (exact >> SUB_BITS),
                "p{p}: {got} exceeds error bound over {exact}"
            );
        }
        assert_eq!(h.max(), 100_000);
        assert_eq!(h.mean(), 50_500);
        assert_eq!(h.percentile(1.0), 100_000, "p100 is clamped to exact max");
    }

    #[test]
    fn small_sample_percentiles_are_exact_and_round_up() {
        // Nearest-rank on n=10: p99 → ceil(9.9) = 10th value = max;
        // p50 → ceil(5.0) = 5th value.
        let h = LogHistogram::new();
        for v in 1..=10u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.5), 5);
        assert_eq!(h.percentile(0.99), 10);
        assert_eq!(h.max(), 10);
        // Single sample: every percentile is that sample.
        let one = LogHistogram::new();
        one.record(42);
        assert_eq!(
            (one.percentile(0.5), one.percentile(0.99), one.max()),
            (42, 42, 42)
        );
    }

    #[test]
    fn empty_histogram_yields_zeros() {
        let h = LogHistogram::new();
        assert_eq!(
            (
                h.count(),
                h.mean(),
                h.percentile(0.5),
                h.percentile(0.999),
                h.max()
            ),
            (0, 0, 0, 0, 0)
        );
    }

    /// Assert a percentile against the exact order statistic: at or
    /// above it, within the histogram's `+1/64` relative error.
    fn assert_pct(got: u64, exact: u64, label: &str) {
        assert!(
            got >= exact && got <= exact + exact / 64 + 1,
            "{label}: got {got}, exact order statistic {exact}"
        );
    }

    #[test]
    fn insertion_order_is_irrelevant_and_later_samples_merge() {
        let h = LogHistogram::new();
        // Record descending — insertion order must not matter.
        for i in (1..=50u64).rev() {
            h.record(i * 1000);
        }
        let first = (h.percentile(0.5), h.percentile(0.99), h.max());
        assert_eq!(
            (h.percentile(0.5), h.percentile(0.99), h.max()),
            first,
            "a second query re-summarizes identically"
        );
        // Out-of-order samples appended after a query: the summary must
        // match a histogram fed everything at once.
        for i in (51..=100u64).rev() {
            h.record(i * 1000);
        }
        assert_eq!(h.count(), 100);
        assert_pct(h.percentile(0.50), 50_000, "p50");
        assert_pct(h.percentile(0.99), 99_000, "p99");
        assert_eq!(h.max(), 100_000);
    }

    /// A sorted-`Vec` recorder, kept as the reference for ceil
    /// nearest-rank semantics.
    struct SortedVecReference {
        samples: Vec<u64>,
    }

    impl SortedVecReference {
        fn pct(&mut self, p: f64) -> u64 {
            self.samples.sort_unstable();
            let n = self.samples.len();
            let rank = (p * n as f64).ceil() as usize;
            self.samples[rank.clamp(1, n) - 1]
        }
    }

    #[test]
    fn histogram_matches_sorted_vec_reference() {
        // Deterministic pseudo-random latencies spanning several binades
        // (sub-µs to tens of ms), the realistic range for simulated ops.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut samples = Vec::with_capacity(10_000);
        for _ in 0..10_000 {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            samples.push(200 + state.wrapping_mul(0x9e37_79b9_7f4a_7c15) % 50_000_000);
        }
        let mut reference = SortedVecReference {
            samples: samples.clone(),
        };
        let h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        for (p, label) in [(0.50, "p50"), (0.95, "p95"), (0.99, "p99"), (0.999, "p999")] {
            assert_pct(h.percentile(p), reference.pct(p), label);
        }
        assert_eq!(h.count(), samples.len() as u64);
        assert_eq!(h.max(), *samples.iter().max().unwrap());
        let exact_mean =
            (samples.iter().map(|&s| s as u128).sum::<u128>() / samples.len() as u128) as u64;
        assert_eq!(h.mean(), exact_mean, "mean stays exact");
    }

    #[test]
    fn registry_instruments_round_trip() {
        let reg = Registry::new();
        reg.counter("puts").add(3);
        reg.counter("puts").inc();
        assert_eq!(reg.counter("puts").get(), 4);
    }

    #[test]
    fn p999_distinguishes_the_tail_p99_misses() {
        // 10 000 samples at 1 000 ns with the last 50 at 1 000 000:
        // p99 sits in the bulk, p99.9 must land in the slow tail.
        let h = LogHistogram::new();
        for _ in 0..9_950u64 {
            h.record(1_000);
        }
        for _ in 0..50u64 {
            h.record(1_000_000);
        }
        assert!(h.percentile(0.99) <= 1_000 + (1_000 >> SUB_BITS));
        assert_eq!(h.percentile(0.999), 1_000_000);
    }
}
