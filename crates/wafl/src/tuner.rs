//! Dynamic tuning of the cleaner-thread count.
//!
//! "Because no single number of threads is best in all cases, WAFL
//! dynamically tunes the number of cleaner threads in use based on the
//! observed workload patterns. Additional threads are activated when
//! cleaner thread utilization exceeds some threshold and are deactivated
//! below another (e.g., 90% and 50%) … Dynamic optimization occurs every
//! 50ms in order to quickly respond to changes in workload" (§V-B).
//!
//! [`DynamicTuner`] is the pure controller: feed it the measured
//! utilization of the currently active cleaners each interval and it
//! answers with the new target thread count. Both the real
//! [`CleanerPool`](crate::cleaner::CleanerPool) and the discrete-event
//! simulator drive the same controller.

use serde::Serialize;

/// Controller parameters (§V-B defaults).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TunerConfig {
    /// Minimum active cleaners (at least one, or cleaning stalls).
    pub min_threads: usize,
    /// Maximum active cleaners.
    pub max_threads: usize,
    /// Activate another thread when utilization exceeds this.
    pub activate_above: f64,
    /// Deactivate a thread when utilization falls below this.
    pub deactivate_below: f64,
    /// Decision interval in nanoseconds (50 ms in the paper).
    pub interval_ns: u64,
}

impl Default for TunerConfig {
    fn default() -> Self {
        Self {
            min_threads: 1,
            max_threads: 8,
            activate_above: 0.90,
            deactivate_below: 0.50,
            interval_ns: 50_000_000,
        }
    }
}

/// The dynamic cleaner-thread controller.
///
/// ```
/// use wafl::{DynamicTuner, TunerConfig};
///
/// let mut tuner = DynamicTuner::new(TunerConfig::default(), 1);
/// // Saturated cleaners (>90% busy) add a thread per 50 ms interval…
/// assert_eq!(tuner.decide(0.97), 2);
/// assert_eq!(tuner.decide(0.95), 3);
/// // …and idle ones (<50%) shed threads.
/// assert_eq!(tuner.decide(0.30), 2);
/// // In the hysteresis band nothing changes.
/// assert_eq!(tuner.decide(0.70), 2);
/// ```
#[derive(Debug, Clone)]
pub struct DynamicTuner {
    cfg: TunerConfig,
    active: usize,
    /// Decisions made (reporting).
    activations: u64,
    deactivations: u64,
}

impl DynamicTuner {
    /// Start with `initial` active threads (clamped to the configured
    /// range).
    pub fn new(cfg: TunerConfig, initial: usize) -> Self {
        assert!(cfg.min_threads >= 1);
        assert!(cfg.max_threads >= cfg.min_threads);
        assert!(cfg.deactivate_below < cfg.activate_above);
        Self {
            active: initial.clamp(cfg.min_threads, cfg.max_threads),
            cfg,
            activations: 0,
            deactivations: 0,
        }
    }

    /// Controller parameters.
    #[inline]
    pub fn config(&self) -> &TunerConfig {
        &self.cfg
    }

    /// Current target thread count.
    #[inline]
    pub fn active(&self) -> usize {
        self.active
    }

    /// Lifetime activation decisions.
    #[inline]
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Lifetime deactivation decisions.
    #[inline]
    pub fn deactivations(&self) -> u64 {
        self.deactivations
    }

    /// One 50 ms decision: `utilization` is the mean busy fraction of the
    /// currently active cleaner threads over the last interval, in
    /// `[0, 1]`. Returns the (possibly changed) target count.
    pub fn decide(&mut self, utilization: f64) -> usize {
        debug_assert!((0.0..=1.0 + 1e-9).contains(&utilization));
        if utilization > self.cfg.activate_above && self.active < self.cfg.max_threads {
            self.active += 1;
            self.activations += 1;
        } else if utilization < self.cfg.deactivate_below && self.active > self.cfg.min_threads {
            self.active -= 1;
            self.deactivations += 1;
        }
        self.active
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuner(initial: usize) -> DynamicTuner {
        DynamicTuner::new(TunerConfig::default(), initial)
    }

    #[test]
    fn saturated_cleaners_scale_up_one_per_interval() {
        let mut t = tuner(1);
        assert_eq!(t.decide(0.99), 2);
        assert_eq!(t.decide(0.99), 3);
        assert_eq!(t.activations(), 2);
    }

    #[test]
    fn idle_cleaners_scale_down() {
        let mut t = tuner(4);
        assert_eq!(t.decide(0.2), 3);
        assert_eq!(t.decide(0.2), 2);
        assert_eq!(t.decide(0.2), 1);
        assert_eq!(t.decide(0.2), 1, "min bound holds");
    }

    #[test]
    fn hysteresis_band_keeps_count_stable() {
        let mut t = tuner(3);
        for _ in 0..10 {
            assert_eq!(t.decide(0.7), 3, "between 50% and 90% → no change");
        }
        assert_eq!(t.activations() + t.deactivations(), 0);
    }

    #[test]
    fn max_bound_holds() {
        let cfg = TunerConfig {
            max_threads: 2,
            ..Default::default()
        };
        let mut t = DynamicTuner::new(cfg, 2);
        assert_eq!(t.decide(1.0), 2);
    }

    #[test]
    fn initial_clamped_to_range() {
        let cfg = TunerConfig {
            min_threads: 2,
            max_threads: 4,
            ..Default::default()
        };
        assert_eq!(DynamicTuner::new(cfg, 0).active(), 2);
        assert_eq!(DynamicTuner::new(cfg, 99).active(), 4);
    }

    #[test]
    fn oscillating_load_tracks_demand() {
        // Fig 9's narrative: high load → more threads; off-peak → fewer.
        let mut t = tuner(1);
        for _ in 0..4 {
            t.decide(0.95);
        }
        assert_eq!(t.active(), 5);
        for _ in 0..3 {
            t.decide(0.3);
        }
        assert_eq!(t.active(), 2);
    }

    #[test]
    #[should_panic]
    fn inverted_thresholds_rejected() {
        let cfg = TunerConfig {
            activate_above: 0.4,
            deactivate_below: 0.6,
            ..Default::default()
        };
        DynamicTuner::new(cfg, 1);
    }
}
