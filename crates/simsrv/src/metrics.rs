//! Measurement: latency distributions, throughput, core-usage accounting,
//! and knee-of-curve detection.

use serde::Serialize;

/// Summary of a latency distribution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct LatencyStats {
    /// Samples measured.
    pub count: u64,
    /// Mean latency (ns).
    pub mean_ns: u64,
    /// Median (ns).
    pub p50_ns: u64,
    /// 95th percentile (ns).
    pub p95_ns: u64,
    /// 99th percentile (ns).
    pub p99_ns: u64,
    /// 99.9th percentile (ns) — the tail the serving SLOs gate on.
    pub p999_ns: u64,
    /// Maximum (ns).
    pub max_ns: u64,
}

impl From<&obs::LogHistogram> for LatencyStats {
    /// Summarize a histogram of latencies (ns); an empty one yields zeros.
    fn from(h: &obs::LogHistogram) -> Self {
        LatencyStats {
            count: h.count(),
            mean_ns: h.mean(),
            p50_ns: h.percentile(0.50),
            p95_ns: h.percentile(0.95),
            p99_ns: h.percentile(0.99),
            p999_ns: h.percentile(0.999),
            max_ns: h.max(),
        }
    }
}

/// One point on a throughput/latency curve (Figs 8–9).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct LoadPoint {
    /// Offered load identifier (e.g., client count).
    pub load: u64,
    /// Achieved throughput, ops/s.
    pub throughput_ops: f64,
    /// Mean latency at that load (ns).
    pub latency_ns: u64,
}

/// Find the "knee" of a latency curve using the half-latency rule of
/// N. Patel (the paper's reference \[11\]): the highest-throughput point
/// whose latency is still at most **twice the baseline** (lowest-load)
/// latency — beyond it, load increases buy disproportionate latency.
///
/// Returns `None` for an empty curve.
pub fn knee_point(points: &[LoadPoint]) -> Option<LoadPoint> {
    let base = points.iter().map(|p| p.latency_ns).min()?;
    points
        .iter()
        .filter(|p| p.latency_ns <= base.saturating_mul(2))
        .max_by(|a, b| {
            a.throughput_ops
                .partial_cmp(&b.throughput_ops)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .copied()
}

/// Busy-time accounting per simulated component; `cores(x)` = average
/// cores consumed by that component over the measured interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CoreUsage {
    /// Protocol-stack busy ns.
    pub protocol_ns: u64,
    /// Client Waffinity message busy ns.
    pub client_msg_ns: u64,
    /// Cleaner-thread busy ns.
    pub cleaner_ns: u64,
    /// Write-allocation infrastructure busy ns.
    pub infra_ns: u64,
}

impl CoreUsage {
    /// Average cores used by cleaners.
    pub fn cleaner_cores(&self, elapsed_ns: u64) -> f64 {
        self.cleaner_ns as f64 / elapsed_ns.max(1) as f64
    }

    /// Average cores used by the infrastructure.
    pub fn infra_cores(&self, elapsed_ns: u64) -> f64 {
        self.infra_ns as f64 / elapsed_ns.max(1) as f64
    }

    /// Average cores used by write-allocation work (cleaners + infra) —
    /// the quantity Figures 4–7 plot.
    pub fn write_alloc_cores(&self, elapsed_ns: u64) -> f64 {
        (self.cleaner_ns + self.infra_ns) as f64 / elapsed_ns.max(1) as f64
    }

    /// Average total cores used.
    pub fn total_cores(&self, elapsed_ns: u64) -> f64 {
        (self.protocol_ns + self.client_msg_ns + self.cleaner_ns + self.infra_ns) as f64
            / elapsed_ns.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_summarize_a_histogram() {
        let h = obs::LogHistogram::new();
        assert_eq!(LatencyStats::from(&h), LatencyStats::default());
        for i in 1..=10u64 {
            h.record(i);
        }
        assert_eq!(
            LatencyStats::from(&h),
            LatencyStats {
                count: 10,
                mean_ns: 5,
                p50_ns: 5,
                p95_ns: 10,
                p99_ns: 10,
                p999_ns: 10,
                max_ns: 10,
            }
        );
    }

    #[test]
    fn knee_follows_half_latency_rule() {
        // Latency doubles between load 40 and 50 → knee at 40.
        let curve: Vec<LoadPoint> = vec![
            (10, 1000.0, 100),
            (20, 2000.0, 110),
            (30, 3000.0, 130),
            (40, 3800.0, 180),
            (50, 4000.0, 400),
            (60, 4050.0, 900),
        ]
        .into_iter()
        .map(|(load, throughput_ops, latency_ns)| LoadPoint {
            load,
            throughput_ops,
            latency_ns,
        })
        .collect();
        let knee = knee_point(&curve).unwrap();
        assert_eq!(knee.load, 40);
    }

    #[test]
    fn knee_of_flat_curve_is_max_throughput() {
        let curve: Vec<LoadPoint> = (1..=5)
            .map(|i| LoadPoint {
                load: i,
                throughput_ops: i as f64 * 100.0,
                latency_ns: 100 + i,
            })
            .collect();
        assert_eq!(knee_point(&curve).unwrap().load, 5);
    }

    #[test]
    fn knee_empty_is_none() {
        assert!(knee_point(&[]).is_none());
    }

    #[test]
    fn core_usage_math() {
        let u = CoreUsage {
            protocol_ns: 10,
            client_msg_ns: 30,
            cleaner_ns: 40,
            infra_ns: 20,
        };
        assert!((u.total_cores(100) - 1.0).abs() < 1e-9);
        assert!((u.write_alloc_cores(100) - 0.6).abs() < 1e-9);
        assert!((u.cleaner_cores(10) - 4.0).abs() < 1e-9);
    }
}
