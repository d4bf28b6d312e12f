//! Thread-local trace recording: each thread lazily registers one
//! [`EventRing`](crate::ring::EventRing) in a process-wide table; spans
//! and instants go to the current thread's ring with nanosecond
//! timestamps relative to a process epoch.
//!
//! Two compilations of this module exist:
//!
//! * `--features trace`: the real implementation below.
//! * default: every function is an empty `#[inline(always)]` no-op and
//!   [`Span`] is a zero-sized type — the `trace_span!`/`trace_instant!`
//!   macros cost literally nothing (the optimizer deletes the calls).
//!
//! Because the cfg lives *here* (the `log`-crate pattern), downstream
//! crates need no feature forwarding: enabling `obs/trace` anywhere in
//! a build flips every consumer at once (resolver-2 unification).
//!
//! Inside a trace-enabled build there is additionally a **runtime**
//! recording switch ([`set_recording`]) so a single binary can measure
//! its own tracing overhead (see `exp_put_convoy`).

use crate::event::Event;

/// True iff this build compiled the tracing fast path in.
pub const ENABLED: bool = cfg!(feature = "trace");

/// One thread's exported trace: identity plus an exact ring snapshot.
#[derive(Debug, Clone)]
pub struct ThreadTrace {
    /// Small dense id assigned at first event (stable for the process).
    pub tid: u64,
    /// OS thread name at registration ("?" if unnamed).
    pub name: String,
    /// Readable events, oldest first.
    pub events: Vec<Event>,
    /// Events lost to ring overwrite.
    pub dropped: u64,
    /// Total events the thread ever recorded.
    pub head: u64,
}

#[cfg(feature = "trace")]
mod imp {
    use super::ThreadTrace;
    use crate::event::EventKind;
    use crate::ring::EventRing;
    use std::cell::OnceCell;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};
    use std::time::Instant;

    /// Per-thread ring capacity. 4096 slots × 5 words ≈ 160 KiB/thread;
    /// at the sim's event rates this holds the last few hundred
    /// milliseconds of activity (older events are counted, not kept).
    const RING_CAP: usize = 4096;

    /// Runtime switch (within a trace-enabled build). Defaults to on —
    /// tracing is "always-on"; benches flip it to measure overhead.
    static RECORDING: AtomicBool = AtomicBool::new(true);

    static NEXT_TID: AtomicU64 = AtomicU64::new(0);

    #[derive(Clone)]
    struct ThreadEntry {
        tid: u64,
        name: String,
        ring: Arc<EventRing>,
    }

    fn threads() -> &'static Mutex<Vec<ThreadEntry>> {
        // A leaf: obs takes no other lock and runs no caller code under it.
        static THREADS: OnceLock<Mutex<Vec<ThreadEntry>>> = OnceLock::new();
        THREADS.get_or_init(|| Mutex::new(Vec::new()))
    }

    fn epoch() -> Instant {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        *EPOCH.get_or_init(Instant::now)
    }

    /// Nanoseconds since the process trace epoch (first use).
    pub fn now_ns() -> u64 {
        epoch().elapsed().as_nanos() as u64
    }

    /// Flip the runtime recording switch.
    pub fn set_recording(on: bool) {
        // ordering: independent on/off flag; no data is published
        // through it (each ring has its own lock).
        RECORDING.store(on, Ordering::Relaxed);
    }

    /// Is recording currently on?
    pub fn recording() -> bool {
        // ordering: advisory flag read; staleness acceptable.
        RECORDING.load(Ordering::Relaxed)
    }

    thread_local! {
        static RING: OnceCell<Arc<EventRing>> = const { OnceCell::new() };
    }

    fn register_current_thread() -> Arc<EventRing> {
        let ring = Arc::new(EventRing::with_capacity(RING_CAP));
        let entry = ThreadEntry {
            // ordering: unique-id allocation; atomicity only.
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            name: std::thread::current().name().unwrap_or("?").to_string(),
            ring: Arc::clone(&ring),
        };
        threads().lock().unwrap().push(entry);
        ring
    }

    fn record(kind: EventKind, ts_ns: u64, dur_ns: u64, arg: u64) {
        RING.with(|cell| {
            cell.get_or_init(register_current_thread)
                .record(kind, ts_ns, dur_ns, arg);
        });
    }

    /// Record an instantaneous event on the current thread.
    #[inline]
    pub fn instant(kind: EventKind, arg: u64) {
        if recording() {
            record(kind, now_ns(), 0, arg);
        }
    }

    /// RAII span: records one complete event (start..drop) when dropped.
    /// `armed` is latched at creation so a mid-span recording toggle
    /// never emits a span with a bogus zero start.
    #[derive(Debug)]
    #[must_use = "a span records on drop; binding it to _ discards the measurement immediately"]
    pub struct Span {
        kind: EventKind,
        start_ns: u64,
        arg: u64,
        armed: bool,
    }

    impl Span {
        /// Set the span's argument word (often only known at the end,
        /// e.g. buckets built by a refill round).
        pub fn set_arg(&mut self, arg: u64) {
            self.arg = arg;
        }
    }

    impl Drop for Span {
        fn drop(&mut self) {
            if self.armed && recording() {
                let end = now_ns();
                record(
                    self.kind,
                    self.start_ns,
                    end.saturating_sub(self.start_ns),
                    self.arg,
                );
            }
        }
    }

    /// Open a span of `kind` starting now.
    #[inline]
    pub fn span(kind: EventKind) -> Span {
        span_arg(kind, 0)
    }

    /// Open a span with an initial argument word.
    #[inline]
    pub fn span_arg(kind: EventKind, arg: u64) -> Span {
        let armed = recording();
        Span {
            kind,
            start_ns: if armed { now_ns() } else { 0 },
            arg,
            armed,
        }
    }

    /// Snapshot every registered thread's ring (rings of exited threads
    /// are retained so their events still export).
    pub fn snapshot_all() -> Vec<ThreadTrace> {
        // Copy the table out first so no ring lock is taken under it.
        let entries = threads().lock().unwrap().clone();
        entries
            .into_iter()
            .map(|e| {
                let snap = e.ring.snapshot();
                ThreadTrace {
                    tid: e.tid,
                    name: e.name,
                    events: snap.events,
                    dropped: snap.dropped,
                    head: snap.head,
                }
            })
            .collect()
    }
}

#[cfg(not(feature = "trace"))]
mod imp {
    use super::ThreadTrace;
    use crate::event::EventKind;

    /// No-op stand-in; see the trace-enabled twin.
    pub fn now_ns() -> u64 {
        0
    }

    /// No-op: recording cannot be enabled without the `trace` feature.
    pub fn set_recording(_on: bool) {}

    /// Always false without the `trace` feature.
    pub fn recording() -> bool {
        false
    }

    /// Zero-sized no-op span.
    #[derive(Debug)]
    #[must_use = "a span records on drop; binding it to _ discards the measurement immediately"]
    pub struct Span;

    impl Span {
        /// No-op.
        #[inline(always)]
        pub fn set_arg(&mut self, _arg: u64) {}
    }

    /// No-op.
    #[inline(always)]
    pub fn instant(_kind: EventKind, _arg: u64) {}

    /// No-op.
    #[inline(always)]
    pub fn span(_kind: EventKind) -> Span {
        Span
    }

    /// No-op.
    #[inline(always)]
    pub fn span_arg(_kind: EventKind, _arg: u64) -> Span {
        Span
    }

    /// Always empty without the `trace` feature.
    pub fn snapshot_all() -> Vec<ThreadTrace> {
        Vec::new()
    }
}

pub use imp::{instant, now_ns, recording, set_recording, snapshot_all, span, span_arg, Span};

#[cfg(all(test, feature = "trace"))]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use std::sync::Mutex;

    /// The recording switch is process-global; serialize these tests so
    /// a mid-test `set_recording(false)` can't starve a neighbor. Held
    /// across a whole test, it is taken before any other obs lock.
    static SWITCH_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn spans_and_instants_land_on_the_current_thread_in_order() {
        let _g = SWITCH_LOCK.lock().unwrap();
        // Run in a named thread so the registry entry is identifiable
        // (other tests in this process also register rings).
        std::thread::Builder::new()
            .name("obs-trace-test".into())
            .spawn(|| {
                {
                    let mut sp = span(EventKind::Refill);
                    sp.set_arg(42);
                    instant(EventKind::InsertAll, 7);
                } // span records here, after the instant
                let all = snapshot_all();
                let me = all
                    .iter()
                    .find(|t| t.name == "obs-trace-test")
                    .expect("thread registered");
                assert_eq!(me.dropped, 0);
                assert_eq!(me.events.len(), 2);
                assert_eq!(me.events[0].kind, EventKind::InsertAll);
                assert_eq!(me.events[0].arg, 7);
                assert_eq!(me.events[0].dur_ns, 0, "instants have no duration");
                assert_eq!(me.events[1].kind, EventKind::Refill);
                assert_eq!(me.events[1].arg, 42);
                // The span *started* before the instant but records at
                // drop; its start timestamp precedes (or ties) the
                // instant's.
                assert!(me.events[1].ts_ns <= me.events[0].ts_ns);
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn timestamps_are_monotonic_per_thread() {
        let _g = SWITCH_LOCK.lock().unwrap();
        std::thread::Builder::new()
            .name("obs-mono-test".into())
            .spawn(|| {
                for i in 0..100u64 {
                    instant(EventKind::Custom, i);
                }
                let all = snapshot_all();
                let me = all.iter().find(|t| t.name == "obs-mono-test").unwrap();
                assert_eq!(me.events.len(), 100);
                for w in me.events.windows(2) {
                    assert!(
                        w[0].ts_ns <= w[1].ts_ns,
                        "timestamps must be monotonic per thread: {} then {}",
                        w[0].ts_ns,
                        w[1].ts_ns
                    );
                    assert!(w[0].seq < w[1].seq);
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn recording_switch_gates_new_events() {
        let _g = SWITCH_LOCK.lock().unwrap();
        std::thread::Builder::new()
            .name("obs-switch-test".into())
            .spawn(|| {
                instant(EventKind::Custom, 1);
                set_recording(false);
                instant(EventKind::Custom, 2);
                let sp = span(EventKind::Get);
                drop(sp);
                set_recording(true);
                instant(EventKind::Custom, 3);
                let all = snapshot_all();
                let me = all.iter().find(|t| t.name == "obs-switch-test").unwrap();
                let args: Vec<u64> = me.events.iter().map(|e| e.arg).collect();
                assert_eq!(args, vec![1, 3], "events while off must not record");
            })
            .unwrap()
            .join()
            .unwrap();
    }
}
