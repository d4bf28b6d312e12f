//! Continuous time-series sampler over a [`Registry`]: every tick it
//! snapshots all registered counters/gauges/histograms into a
//! fixed-size timestamped **delta ring**, supporting rate/derivative
//! queries, a Prometheus-text exporter, a JSON time-series export
//! (schema [`TELEMETRY_SCHEMA`]), and SLO error-budget tracking.
//!
//! # Delta ring
//!
//! Each [`Tick`] stores per-counter *increments* since the previous
//! tick (not absolutes). When the ring is full, the oldest tick's
//! deltas are folded into a per-series **eviction base**, preserving
//! the conservation invariant the proptest in `tests/` pins down:
//!
//! ```text
//! base(name) + Σ ring deltas(name) == last sampled absolute(name)
//! ```
//!
//! so no increment is ever lost or double-counted across snapshot or
//! eviction boundaries.
//!
//! # SLO tracking
//!
//! An [`SloObjective`] names a histogram, a latency objective (ns), and
//! an error budget (allowed bad fraction — `0.01` for a p99
//! objective). Each tick records how many new samples met the
//! objective (via [`LogHistogram::count_le`](crate::metrics::LogHistogram::count_le));
//! burn rate over a window
//! is `bad_fraction / budget` — `1.0` burns the budget exactly,
//! `> 1.0` is an alerting condition.
//!
//! The sampler runs either embedded (call [`Sampler::sample`] from a
//! test or an existing loop) or on a background thread
//! ([`SamplerThread::spawn`]), which also services deferred
//! [`blackbox`](crate::blackbox) triggers between ticks.

use crate::metrics::Registry;
use serde::Value;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Schema tag of [`Sampler::to_json`] documents.
pub const TELEMETRY_SCHEMA: &str = "wafl.telemetry.v1";

/// Which registry a telemetry component reads.
#[derive(Debug, Clone)]
pub enum RegistrySource {
    /// The process-wide [`Registry::global`].
    Global,
    /// A shared instance (tests, embedded pools).
    Shared(Arc<Registry>),
}

impl RegistrySource {
    /// Resolve to the registry.
    pub fn registry(&self) -> &Registry {
        match self {
            RegistrySource::Global => Registry::global(),
            RegistrySource::Shared(r) => r,
        }
    }
}

/// A p-latency service-level objective over one histogram.
#[derive(Debug, Clone)]
pub struct SloObjective {
    /// Histogram name in the sampled registry.
    pub histogram: String,
    /// Latency objective in ns: samples at or under it are "good".
    pub objective_ns: u64,
    /// Error budget as the allowed bad fraction — `0.01` for a p99
    /// objective ("99% of samples under `objective_ns`").
    pub budget: f64,
}

/// Sampler configuration.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Tick interval for the background thread (the default 100 ms is
    /// what the `exp_telemetry` overhead budget is measured at).
    pub interval: Duration,
    /// Ring capacity in ticks; older ticks fold into the eviction base.
    pub capacity: usize,
    /// Latency objectives tracked by the SLO machinery.
    pub objectives: Vec<SloObjective>,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(100),
            capacity: 600,
            objectives: Vec::new(),
        }
    }
}

/// Per-histogram delta for one tick, plus cumulative quantiles at tick
/// time (quantiles are not windowable without per-bucket history; the
/// cumulative curve over time is what the time series plots).
#[derive(Debug, Clone, Copy, Default)]
pub struct HistTick {
    /// New samples this tick.
    pub dcount: u64,
    /// Sum of new samples this tick.
    pub dsum: u64,
    /// New samples at or under the SLO objective (== `dcount` for
    /// histograms without an objective).
    pub dgood: u64,
    /// Cumulative p50 at tick time.
    pub p50: u64,
    /// Cumulative p99 at tick time.
    pub p99: u64,
    /// Cumulative p99.9 at tick time.
    pub p999: u64,
    /// Cumulative max at tick time.
    pub max: u64,
}

/// One sampler tick: timestamp plus per-instrument deltas.
#[derive(Debug, Clone, Default)]
pub struct Tick {
    /// Monotonic tick number (never reset, survives eviction).
    pub seq: u64,
    /// ns since the sampler was created.
    pub at_ns: u64,
    /// ns since the previous tick (== `at_ns` for the first).
    pub dt_ns: u64,
    /// Counter increments since the previous tick.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels at tick time (gauges are sampled, not differenced).
    pub gauges: BTreeMap<String, u64>,
    /// Histogram deltas + cumulative quantiles.
    pub hists: BTreeMap<String, HistTick>,
}

/// Absolute histogram state at the last tick, for differencing.
#[derive(Debug, Clone, Copy, Default)]
struct HistAbs {
    count: u64,
    sum: u64,
    good: u64,
}

#[derive(Debug, Default)]
struct Inner {
    seq: u64,
    last_at_ns: u64,
    /// Last sampled absolutes.
    last_counters: BTreeMap<String, u64>,
    last_hists: BTreeMap<String, HistAbs>,
    /// Deltas evicted from the ring, folded per series.
    base_counters: BTreeMap<String, u64>,
    base_hists: BTreeMap<String, HistAbs>,
    ring: VecDeque<Tick>,
    evictions: u64,
}

/// The time-series sampler (see module docs).
#[derive(Debug)]
pub struct Sampler {
    source: RegistrySource,
    cfg: SamplerConfig,
    started: Instant,
    inner: Mutex<Inner>, // lock-rank: obs.sampler 80
}

impl Sampler {
    /// Sampler over `source` with `cfg`.
    pub fn new(source: RegistrySource, cfg: SamplerConfig) -> Self {
        Sampler {
            source,
            cfg,
            started: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Sampler over the global registry with default config.
    pub fn global() -> Self {
        Self::new(RegistrySource::Global, SamplerConfig::default())
    }

    /// The configuration this sampler runs with.
    pub fn config(&self) -> &SamplerConfig {
        &self.cfg
    }

    /// The sampled registry.
    pub fn registry(&self) -> &Registry {
        self.source.registry()
    }

    fn objective_for(&self, hist: &str) -> Option<&SloObjective> {
        self.cfg.objectives.iter().find(|o| o.histogram == hist)
    }

    /// Take one sample: snapshot every instrument, push the delta tick,
    /// evict into the base if the ring is full. Returns the new tick's
    /// sequence number. The background thread calls this every
    /// `interval`; tests call it directly for determinism.
    pub fn sample(&self) -> u64 {
        let reg = self.source.registry();
        // Self-accounting first, so the tick being built observes its
        // own increment (conservation stays exact).
        reg.counter("telemetry_ticks").inc();

        let mut inner = self.inner.lock().unwrap();
        let at_ns = self.started.elapsed().as_nanos() as u64;
        let dt_ns = at_ns.saturating_sub(inner.last_at_ns).max(1);
        let seq = inner.seq;
        inner.seq += 1;
        inner.last_at_ns = at_ns;

        let mut tick = Tick {
            seq,
            at_ns,
            dt_ns,
            ..Default::default()
        };

        for (name, v) in reg.counter_values() {
            let last = inner.last_counters.insert(name.clone(), v).unwrap_or(0);
            // Counters are monotonic; an importing `set()` that goes
            // backwards contributes zero rather than wrapping.
            tick.counters.insert(name, v.saturating_sub(last));
        }
        for (name, v, _hi) in reg.gauge_values() {
            tick.gauges.insert(name, v);
        }
        for (name, h) in reg.histogram_handles() {
            let good_abs = match self.objective_for(&name) {
                Some(o) => h.count_le(o.objective_ns),
                None => h.count(),
            };
            let abs = HistAbs {
                count: h.count(),
                sum: h.sum(),
                good: good_abs,
            };
            let last = inner
                .last_hists
                .insert(name.clone(), abs)
                .unwrap_or_default();
            let ht = HistTick {
                dcount: abs.count.saturating_sub(last.count),
                dsum: abs.sum.saturating_sub(last.sum),
                dgood: abs.good.saturating_sub(last.good),
                p50: h.percentile(0.50),
                p99: h.percentile(0.99),
                p999: h.percentile(0.999),
                max: h.max(),
            };
            // Per-tick SLO breach accounting: a tick whose new samples
            // overspend the budget fraction counts one breach.
            if let Some(o) = self.objective_for(&name) {
                let bad = ht.dcount - ht.dgood.min(ht.dcount);
                if ht.dcount > 0 && bad as f64 / ht.dcount as f64 > o.budget {
                    reg.counter("telemetry_slo_breaches").inc();
                }
            }
            tick.hists.insert(name, ht);
        }

        inner.ring.push_back(tick);
        while inner.ring.len() > self.cfg.capacity.max(1) {
            let old = inner.ring.pop_front().expect("ring non-empty");
            for (name, d) in old.counters {
                *inner.base_counters.entry(name).or_default() += d;
            }
            for (name, ht) in old.hists {
                let b = inner.base_hists.entry(name).or_default();
                b.count += ht.dcount;
                b.sum += ht.dsum;
                b.good += ht.dgood;
            }
            inner.evictions += 1;
            reg.counter("telemetry_evictions").inc();
        }
        seq
    }

    /// Ticks currently retained, oldest first.
    pub fn ticks(&self) -> Vec<Tick> {
        self.inner.lock().unwrap().ring.iter().cloned().collect()
    }

    /// Ticks evicted into the base so far.
    pub fn evictions(&self) -> u64 {
        self.inner.lock().unwrap().evictions
    }

    /// Reconstructed total for counter `name`: eviction base plus the
    /// retained deltas. Always equals the last sampled absolute (the
    /// conservation invariant).
    pub fn total(&self, name: &str) -> u64 {
        let inner = self.inner.lock().unwrap();
        inner.base_counters.get(name).copied().unwrap_or(0)
            + inner
                .ring
                .iter()
                .filter_map(|t| t.counters.get(name))
                .sum::<u64>()
    }

    /// The absolute value of counter `name` at the most recent tick.
    pub fn last_value(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .unwrap()
            .last_counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Rate (per second) of counter `name` over the trailing `window`:
    /// the derivative query the delta ring exists for. Uses the newest
    /// ticks whose summed `dt` covers the window (all of them if the
    /// ring is shorter).
    pub fn rate_per_sec(&self, name: &str, window: Duration) -> f64 {
        let want_ns = window.as_nanos() as u64;
        let inner = self.inner.lock().unwrap();
        let mut d = 0u64;
        let mut span = 0u64;
        for t in inner.ring.iter().rev() {
            d += t.counters.get(name).copied().unwrap_or(0);
            span += t.dt_ns;
            if span >= want_ns {
                break;
            }
        }
        if span == 0 {
            return 0.0;
        }
        d as f64 * 1e9 / span as f64
    }

    /// Error-budget burn rate for `hist`'s objective over the trailing
    /// `window`: `bad_fraction / budget`. `1.0` consumes the budget
    /// exactly; `> 1.0` overspends it. `None` if no objective is
    /// configured for `hist`; `Some(0.0)` when the window saw no
    /// samples.
    pub fn burn_rate(&self, hist: &str, window: Duration) -> Option<f64> {
        let o = self.objective_for(hist)?;
        let want_ns = window.as_nanos() as u64;
        let inner = self.inner.lock().unwrap();
        let mut total = 0u64;
        let mut good = 0u64;
        let mut span = 0u64;
        for t in inner.ring.iter().rev() {
            if let Some(ht) = t.hists.get(hist) {
                total += ht.dcount;
                good += ht.dgood;
            }
            span += t.dt_ns;
            if span >= want_ns {
                break;
            }
        }
        if total == 0 {
            return Some(0.0);
        }
        let bad_fraction = (total - good.min(total)) as f64 / total as f64;
        Some(bad_fraction / o.budget.max(f64::MIN_POSITIVE))
    }

    /// Prometheus text exposition of the registry's current state:
    /// counters and gauges as-is, histograms as summaries with
    /// `quantile` labels (0.5/0.95/0.99/0.999) plus `_sum`/`_count`.
    pub fn prometheus_text(&self) -> String {
        let reg = self.source.registry();
        let mut out = String::new();
        for (name, v) in reg.counter_values() {
            let n = promname(&name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, v, hi) in reg.gauge_values() {
            let n = promname(&name);
            out.push_str(&format!(
                "# TYPE {n} gauge\n{n} {v}\n# TYPE {n}_high gauge\n{n}_high {hi}\n"
            ));
        }
        for (name, h) in reg.histogram_handles() {
            let n = promname(&name);
            out.push_str(&format!("# TYPE {n} summary\n"));
            for (q, p) in [
                (0.5, "0.5"),
                (0.95, "0.95"),
                (0.99, "0.99"),
                (0.999, "0.999"),
            ] {
                out.push_str(&format!("{n}{{quantile=\"{p}\"}} {}\n", h.percentile(q)));
            }
            out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum(), h.count()));
        }
        out
    }

    /// JSON time-series export, schema [`TELEMETRY_SCHEMA`]: the
    /// retained ticks with their deltas, the eviction bases, and the
    /// reconstructed totals (so a consumer can verify conservation).
    pub fn to_json(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let ticks: Vec<Value> = inner
            .ring
            .iter()
            .map(|t| {
                let counters = Value::Map(
                    t.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::UInt(*v as u128)))
                        .collect(),
                );
                let gauges = Value::Map(
                    t.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::UInt(*v as u128)))
                        .collect(),
                );
                let hists = Value::Map(
                    t.hists
                        .iter()
                        .map(|(k, h)| {
                            (
                                k.clone(),
                                Value::Map(vec![
                                    ("dcount".into(), Value::UInt(h.dcount as u128)),
                                    ("dsum".into(), Value::UInt(h.dsum as u128)),
                                    ("dgood".into(), Value::UInt(h.dgood as u128)),
                                    ("p50".into(), Value::UInt(h.p50 as u128)),
                                    ("p99".into(), Value::UInt(h.p99 as u128)),
                                    ("p999".into(), Value::UInt(h.p999 as u128)),
                                    ("max".into(), Value::UInt(h.max as u128)),
                                ]),
                            )
                        })
                        .collect(),
                );
                Value::Map(vec![
                    ("seq".into(), Value::UInt(t.seq as u128)),
                    ("at_ns".into(), Value::UInt(t.at_ns as u128)),
                    ("dt_ns".into(), Value::UInt(t.dt_ns as u128)),
                    ("counters".into(), counters),
                    ("gauges".into(), gauges),
                    ("hists".into(), hists),
                ])
            })
            .collect();
        let bases = Value::Map(
            inner
                .base_counters
                .iter()
                .map(|(k, v)| (k.clone(), Value::UInt(*v as u128)))
                .collect(),
        );
        let totals = Value::Map(
            inner
                .last_counters
                .iter()
                .map(|(k, v)| (k.clone(), Value::UInt(*v as u128)))
                .collect(),
        );
        let objectives: Vec<Value> = self
            .cfg
            .objectives
            .iter()
            .map(|o| {
                Value::Map(vec![
                    ("histogram".into(), Value::Str(o.histogram.clone())),
                    ("objective_ns".into(), Value::UInt(o.objective_ns as u128)),
                    ("budget".into(), Value::Float(o.budget)),
                ])
            })
            .collect();
        let doc = Value::Map(vec![
            ("schema".into(), Value::Str(TELEMETRY_SCHEMA.into())),
            (
                "interval_ns".into(),
                Value::UInt(self.cfg.interval.as_nanos()),
            ),
            ("capacity".into(), Value::UInt(self.cfg.capacity as u128)),
            ("evictions".into(), Value::UInt(inner.evictions as u128)),
            ("objectives".into(), Value::Seq(objectives)),
            ("base_counters".into(), bases),
            ("totals".into(), totals),
            ("ticks".into(), Value::Seq(ticks)),
        ]);
        serde_json::to_string(&doc).expect("telemetry document serializes")
    }
}

/// Prometheus metric-name sanitizer: `[a-zA-Z0-9_:]` pass through,
/// anything else becomes `_`; a leading digit gets a `_` prefix.
fn promname(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Background sampler thread: ticks [`Sampler::sample`] every
/// `interval` and services deferred blackbox triggers between ticks.
/// Stop with [`SamplerThread::stop`] (also runs on drop).
#[derive(Debug)]
pub struct SamplerThread {
    stop: Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl SamplerThread {
    /// Spawn the thread. If `blackbox` is given, pending triggers are
    /// serviced (post-mortem bundles written) right after each tick.
    pub fn spawn(sampler: Arc<Sampler>, blackbox: Option<Arc<crate::blackbox::Blackbox>>) -> Self {
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let interval = sampler.cfg.interval;
        let handle = std::thread::Builder::new()
            .name("obs-sampler".into())
            .spawn(move || {
                // ordering: advisory stop flag; staleness acceptable.
                while !flag.load(std::sync::atomic::Ordering::Relaxed) {
                    std::thread::park_timeout(interval);
                    // ordering: as above (re-check after the sleep so
                    // stop() never waits a full interval).
                    if flag.load(std::sync::atomic::Ordering::Relaxed) {
                        break;
                    }
                    sampler.sample();
                    if let Some(bb) = &blackbox {
                        // A failed dump must not kill the sampler loop;
                        // the fire stays pending and is retried next
                        // tick.
                        let _ = bb.service();
                    }
                }
            })
            .expect("sampler thread spawns");
        SamplerThread {
            stop,
            handle: Some(handle),
        }
    }

    /// Signal the thread and join it.
    pub fn stop(&mut self) {
        // ordering: advisory stop flag; the join below synchronizes.
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

impl Drop for SamplerThread {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared() -> (Arc<Registry>, Sampler) {
        let reg = Arc::new(Registry::new());
        let sampler = Sampler::new(
            RegistrySource::Shared(Arc::clone(&reg)),
            SamplerConfig {
                capacity: 4,
                objectives: vec![SloObjective {
                    histogram: "lat".into(),
                    objective_ns: 1_000,
                    budget: 0.01,
                }],
                ..SamplerConfig::default()
            },
        );
        (reg, sampler)
    }

    #[test]
    fn deltas_conserve_counter_totals_across_eviction() {
        let (reg, sampler) = shared();
        let c = reg.counter("work");
        for round in 0..10u64 {
            c.add(round * 3 + 1);
            sampler.sample();
        }
        // Capacity 4 << 10 ticks: eviction definitely happened.
        assert!(sampler.evictions() > 0);
        assert_eq!(sampler.total("work"), c.get());
        assert_eq!(sampler.last_value("work"), c.get());
        // The sampler's own tick counter obeys the same invariant.
        assert_eq!(
            sampler.total("telemetry_ticks"),
            reg.counter("telemetry_ticks").get()
        );
        // Every eviction is published on the sampled registry.
        assert_eq!(
            reg.counter("telemetry_evictions").get(),
            sampler.evictions()
        );
    }

    #[test]
    fn rate_query_reads_the_trailing_window() {
        let (reg, sampler) = shared();
        let c = reg.counter("ops");
        for _ in 0..4 {
            c.add(100);
            sampler.sample();
        }
        // Rate over a huge window = all retained deltas / their span.
        let r = sampler.rate_per_sec("ops", Duration::from_secs(3600));
        assert!(r > 0.0, "rate {r}");
        let ticks = sampler.ticks();
        let d: u64 = ticks.iter().filter_map(|t| t.counters.get("ops")).sum();
        assert_eq!(d, 400, "4 ticks fit the capacity-4 ring, nothing evicted");
    }

    #[test]
    fn gauges_sample_levels_not_deltas() {
        let (reg, sampler) = shared();
        reg.gauge("depth").set(5);
        sampler.sample();
        reg.gauge("depth").set(2);
        sampler.sample();
        let ticks = sampler.ticks();
        assert_eq!(ticks[0].gauges["depth"], 5);
        assert_eq!(ticks[1].gauges["depth"], 2);
    }

    #[test]
    fn slo_burn_rate_tracks_objective_misses() {
        let (reg, sampler) = shared();
        let h = reg.histogram("lat");
        // 98 good, 2 bad out of 100: bad fraction 2% against a 1%
        // budget → burn rate 2.0, and the per-tick breach counter fires.
        for _ in 0..98 {
            h.record(500);
        }
        for _ in 0..2 {
            h.record(50_000);
        }
        sampler.sample();
        let burn = sampler
            .burn_rate("lat", Duration::from_secs(3600))
            .expect("objective configured");
        assert!((burn - 2.0).abs() < 0.05, "burn {burn}");
        assert_eq!(reg.counter("telemetry_slo_breaches").get(), 1);
        // No objective → no burn rate.
        assert!(sampler.burn_rate("other", Duration::from_secs(1)).is_none());
        // All-good follow-up tick burns nothing new.
        for _ in 0..100 {
            h.record(1);
        }
        sampler.sample();
        assert_eq!(reg.counter("telemetry_slo_breaches").get(), 1);
    }

    #[test]
    fn prometheus_text_has_types_and_quantiles() {
        let (reg, sampler) = shared();
        reg.counter("gets").add(7);
        reg.gauge("q.depth").set(3);
        reg.histogram("lat").record(50);
        let text = sampler.prometheus_text();
        assert!(text.contains("# TYPE gets counter\ngets 7\n"), "{text}");
        assert!(text.contains("# TYPE q_depth gauge\nq_depth 3\n"), "{text}");
        assert!(text.contains("lat{quantile=\"0.999\"} 50"), "{text}");
        assert!(text.contains("lat_count 1"), "{text}");
    }

    #[test]
    fn json_export_is_schema_tagged_and_parses() {
        let (reg, sampler) = shared();
        reg.counter("x").add(2);
        reg.histogram("lat").record(10);
        sampler.sample();
        reg.counter("x").add(3);
        sampler.sample();
        let json = sampler.to_json();
        let doc: Value = serde_json::from_str(&json).expect("telemetry JSON parses");
        let Value::Map(top) = doc else {
            panic!("top level must be an object")
        };
        let get = |key: &str| -> Value {
            top.iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("missing {key}"))
                .1
                .clone()
        };
        assert_eq!(get("schema"), Value::Str(TELEMETRY_SCHEMA.into()));
        let Value::Seq(ticks) = get("ticks") else {
            panic!("ticks must be an array")
        };
        assert_eq!(ticks.len(), 2);
        let Value::Map(totals) = get("totals") else {
            panic!("totals must be an object")
        };
        assert!(totals.iter().any(|(k, v)| k == "x" && *v == Value::UInt(5)));
    }

    #[test]
    fn background_thread_ticks_and_stops() {
        let reg = Arc::new(Registry::new());
        let sampler = Arc::new(Sampler::new(
            RegistrySource::Shared(Arc::clone(&reg)),
            SamplerConfig {
                interval: Duration::from_millis(1),
                ..SamplerConfig::default()
            },
        ));
        let mut th = SamplerThread::spawn(Arc::clone(&sampler), None);
        let deadline = Instant::now() + Duration::from_secs(5);
        while reg.counter("telemetry_ticks").get() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        th.stop();
        let ticked = reg.counter("telemetry_ticks").get();
        assert!(ticked >= 3, "sampler thread only ticked {ticked} times");
        // After stop, no further ticks.
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(reg.counter("telemetry_ticks").get(), ticked);
    }
}
