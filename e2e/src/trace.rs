//! Harness-side spans and counter snapshots.
//!
//! Spans are recorded from the harness's own code, around its calls into
//! `wafl::Filesystem`; nothing inside the program is instrumented. They
//! are kept in memory and written out when the run ends. A span carries a
//! name, start, end, the span that caused it and the cycle it belongs to;
//! its self time is its duration minus its children's.

use alligator::StatsSnapshot;
use serde::Value;
use std::time::Instant;
use wafl::cp::CP_PHASE_NAMES;
use wafl::{CpReport, Filesystem};
use wafl_blockdev::io::IoSnapshot;

/// Index of a span in its [`Tracer`], tagged with the recording thread.
pub type SpanId = u64;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id.
    pub id: SpanId,
    /// The span that caused this one (`None` for the root).
    pub parent: Option<SpanId>,
    /// `window`, `cycle`, `client_batch`, `stall`, `wait`, `run_cp`, a CP
    /// phase name, `verify` or `remount`.
    pub name: &'static str,
    /// Cycle the span belongs to.
    pub cycle: u64,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

/// Monotone counters of every layer, read from public snapshot getters at
/// a cycle boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snap {
    /// When, nanoseconds since the tracer's epoch.
    pub t_ns: u64,
    /// Process user + system CPU seconds.
    pub cpu_s: f64,
    /// `Allocator::stats()`.
    pub alloc: StatsSnapshot,
    /// `IoEngine::counters()`.
    pub io: IoSnapshot,
    /// Σ `ParityModel::full_stripe_writes` over RAID groups.
    pub full_stripes: u64,
    /// Σ `ParityModel::partial_stripe_writes` over RAID groups.
    pub partial_stripes: u64,
    /// `AioEngine::submitted`.
    pub aio_submitted: u64,
    /// `AioEngine::completed`.
    pub aio_completed: u64,
    /// `AioEngine::submit_to_complete_ns_total`.
    pub aio_s2c_ns: u64,
    /// `AioEngine::queue_depth_peak` (a high-water mark, not a counter).
    pub aio_depth_peak: u64,
    /// `CleanerPool::busy_ns`.
    pub cleaner_busy_ns: u64,
    /// `CleanerPool::items_done`.
    pub cleaner_items: u64,
    /// `WaffinityPool::total_messages`.
    pub waff_msgs: u64,
}

impl Snap {
    /// Read every counter of `fs` now.
    pub fn take(fs: &Filesystem, epoch: Instant) -> Snap {
        use std::sync::atomic::Ordering::Relaxed;
        let (mut full, mut partial) = (0, 0);
        for g in fs.io().raid_groups() {
            full += g.counters().full_stripe_writes.load(Relaxed);
            partial += g.counters().partial_stripe_writes.load(Relaxed);
        }
        let aio = fs.aio();
        Snap {
            t_ns: epoch.elapsed().as_nanos() as u64,
            cpu_s: crate::host::cpu_seconds(),
            alloc: fs.allocator().stats(),
            io: fs.io().counters().snapshot(),
            full_stripes: full,
            partial_stripes: partial,
            aio_submitted: aio.map_or(0, |a| a.submitted()),
            aio_completed: aio.map_or(0, |a| a.completed()),
            aio_s2c_ns: aio.map_or(0, |a| a.submit_to_complete_ns_total()),
            aio_depth_peak: aio.map_or(0, |a| a.queue_depth_peak()),
            cleaner_busy_ns: fs.cleaner_pool().busy_ns(),
            cleaner_items: fs.cleaner_pool().items_done(),
            waff_msgs: fs.waffinity_pool().map_or(0, |p| p.total_messages()),
        }
    }

    fn to_value(self, cycle: u64) -> Value {
        let mut m: Vec<(String, Value)> = vec![
            ("cycle".into(), Value::UInt(cycle.into())),
            ("t_ns".into(), Value::UInt(self.t_ns.into())),
            ("cpu_s".into(), Value::Float(self.cpu_s)),
        ];
        let mut put = |k: &str, v: u64| m.push((k.to_string(), Value::UInt(v.into())));
        for (k, v) in self.alloc.named() {
            put(&format!("alloc.{k}"), v);
        }
        put("io.write_ios", self.io.write_ios);
        put("io.blocks_written", self.io.blocks_written);
        put("io.parity_reads", self.io.parity_reads);
        put("raid.full_stripe_writes", self.full_stripes);
        put("raid.partial_stripe_writes", self.partial_stripes);
        put("aio.submitted", self.aio_submitted);
        put("aio.completed", self.aio_completed);
        put("aio.submit_to_complete_ns_total", self.aio_s2c_ns);
        put("aio.queue_depth_peak", self.aio_depth_peak);
        put("cleaner.busy_ns", self.cleaner_busy_ns);
        put("cleaner.items_done", self.cleaner_items);
        put("waffinity.total_messages", self.waff_msgs);
        Value::Map(m)
    }
}

/// One thread's span and counter log. While disabled it records nothing,
/// so the untraced run pays one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    /// High bits of the ids this tracer hands out (one per thread).
    tag: u64,
    spans: Vec<Span>,
    counters: Vec<(u64, Snap)>,
    /// Time spent recording, as reported through [`Tracer::recorded`].
    recording_ns: u64,
}

impl Tracer {
    /// A tracer for thread number `thread`, sharing `epoch` with the
    /// run's other tracers. It starts disabled, holding only its root
    /// span, `window`.
    pub fn new(epoch: Instant, thread: u64) -> Tracer {
        let tag = thread << 32;
        Tracer {
            enabled: false,
            epoch,
            tag,
            spans: vec![Span {
                id: tag,
                parent: None,
                name: "window",
                cycle: 0,
                start_ns: 0,
                end_ns: 0,
            }],
            counters: Vec::new(),
            recording_ns: 0,
        }
    }

    /// Is this tracer recording?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start or stop recording (warm-up and the reference window are not
    /// recorded).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// The root span every top-level span hangs from.
    pub fn root(&self) -> SpanId {
        self.tag
    }

    /// Give the root span the measured window's interval.
    pub fn set_window(&mut self, start_ns: u64, end_ns: u64) {
        self.spans[0].start_ns = start_ns;
        self.spans[0].end_ns = end_ns;
    }

    /// The shared time origin.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished interval and return its id (the root's id while
    /// not recording).
    pub fn span(
        &mut self,
        name: &'static str,
        parent: SpanId,
        cycle: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.enabled {
            return self.tag;
        }
        let id = self.tag | self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent: Some(parent),
            name,
            cycle,
            start_ns,
            end_ns,
        });
        id
    }

    /// Record a `run_cp` span with the phases of the returned report as
    /// child intervals, laid back to back from the call's start (the
    /// report holds durations, and the phases run in that order).
    pub fn cp(&mut self, parent: SpanId, cycle: u64, start_ns: u64, end_ns: u64, r: &CpReport) {
        if !self.enabled {
            return;
        }
        let cp = self.span("run_cp", parent, cycle, start_ns, end_ns);
        let mut at = start_ns;
        for (name, ns) in CP_PHASE_NAMES.iter().zip(r.phase_ns()) {
            self.span(name, cp, cycle, at, at + ns);
            at += ns;
        }
    }

    /// Record a counter snapshot at a cycle boundary.
    pub fn counters(&mut self, cycle: u64, fs: &Filesystem) {
        if self.enabled {
            self.counters.push((cycle, Snap::take(fs, self.epoch)));
        }
    }

    /// Account the time since `since_ns` as spent recording: the caller
    /// brackets each block of span and counter calls with it, and the sum
    /// over the window is the tracing overhead.
    pub fn recorded(&mut self, since_ns: u64) {
        self.recording_ns += self.now() - since_ns;
    }

    /// Nanoseconds spent recording so far.
    pub fn recording_ns(&self) -> u64 {
        self.recording_ns
    }

    /// Fold another thread's log into this one.
    pub fn merge(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        self.counters.extend(other.counters);
        self.recording_ns += other.recording_ns;
    }

    /// The log as a JSON document: spans with their self time, then the
    /// counter snapshots.
    pub fn to_json(&self, workload: &str) -> String {
        let mut child_ns = std::collections::HashMap::<SpanId, u64>::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let dur = s.end_ns - s.start_ns;
                let children = child_ns.get(&s.id).copied().unwrap_or(0);
                Value::Map(vec![
                    ("id".into(), Value::UInt(s.id.into())),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(p.into())),
                    ),
                    ("name".into(), Value::Str(s.name.into())),
                    ("cycle".into(), Value::UInt(s.cycle.into())),
                    ("start_ns".into(), Value::UInt(s.start_ns.into())),
                    ("end_ns".into(), Value::UInt(s.end_ns.into())),
                    (
                        "self_ns".into(),
                        Value::UInt(dur.saturating_sub(children).into()),
                    ),
                ])
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(cycle, snap)| snap.to_value(*cycle))
            .collect();
        let doc = Value::Map(vec![
            ("schema".into(), Value::Str("wafl.e2e.trace.v1".into())),
            ("workload".into(), Value::Str(workload.into())),
            ("spans".into(), Value::Seq(spans)),
            ("counters".into(), Value::Seq(counters)),
        ]);
        serde_json::to_string(&doc).expect("a Value tree always serializes")
    }
}
