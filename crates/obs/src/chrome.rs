//! Chrome trace-event JSON exporter: turns [`ThreadTrace`] snapshots
//! into the `{"traceEvents": [...]}` format `chrome://tracing` and
//! Perfetto load directly.
//!
//! Mapping:
//! * each thread emits an `"M"` (metadata) `thread_name` event, so the
//!   timeline rows carry the OS thread names (`cleaner-3`, …);
//! * spans become complete `"X"` events (single record at span end —
//!   never dangling begin/end pairs, which an overwrite-oldest ring
//!   could otherwise produce);
//! * instants become `"i"` events with thread scope (`"s":"t"`);
//! * timestamps are microseconds (the format's unit) as floats, so
//!   nanosecond precision survives.
//!
//! Values are built as vendored `serde::Value` trees and serialized
//! with the vendored `serde_json`, keeping the exporter dependency-free.

use crate::trace::ThreadTrace;
use serde::Value;

/// Process id used for all events (single-process tool).
const PID: u64 = 1;

fn map(pairs: Vec<(&str, Value)>) -> Value {
    Value::Map(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn common(name: &str, ph: &str, tid: u64) -> Vec<(&'static str, Value)> {
    vec![
        ("name", Value::Str(name.to_string())),
        ("ph", Value::Str(ph.to_string())),
        ("pid", Value::UInt(PID as u128)),
        ("tid", Value::UInt(tid as u128)),
    ]
}

/// Microseconds (the trace format's time unit) from nanoseconds,
/// keeping sub-microsecond precision as the fractional part.
fn us(ns: u64) -> Value {
    Value::Float(ns as f64 / 1000.0)
}

/// Render `traces` as a Chrome trace-event JSON document. At most
/// `max_events_per_thread` of each thread's *newest* events are
/// exported (0 = unlimited) so committed artifacts stay bounded; the
/// per-thread `thread_name` metadata event carries `dropped` (ring
/// overwrites) and `trimmed` (export-cap cuts) counts, and any thread
/// that lost events additionally gets a visible `events_lost` instant
/// at the start of its track — metadata args only show up if the
/// viewer opens them, so a truncated trace must flag itself *on the
/// timeline*.
pub fn chrome_trace_json(traces: &[ThreadTrace], max_events_per_thread: usize) -> String {
    let mut events: Vec<Value> = Vec::new();
    for t in traces {
        let skip = if max_events_per_thread > 0 && t.events.len() > max_events_per_thread {
            t.events.len() - max_events_per_thread
        } else {
            0
        };
        let mut meta = common("thread_name", "M", t.tid);
        meta.push((
            "args",
            map(vec![
                ("name", Value::Str(t.name.clone())),
                ("dropped", Value::UInt(t.dropped as u128)),
                ("trimmed", Value::UInt(skip as u128)),
            ]),
        ));
        events.push(map(meta));

        if t.dropped > 0 || skip > 0 {
            // Pin the marker at the oldest exported timestamp: the lost
            // window ends exactly where the visible one begins.
            let first_ts = t.events.get(skip).map_or(0, |e| e.ts_ns);
            let mut lost = common("events_lost", "i", t.tid);
            lost.push(("ts", us(first_ts)));
            lost.push(("s", Value::Str("t".to_string())));
            lost.push((
                "args",
                map(vec![
                    ("dropped", Value::UInt(t.dropped as u128)),
                    ("trimmed", Value::UInt(skip as u128)),
                ]),
            ));
            events.push(map(lost));
        }

        for ev in t.events.iter().skip(skip) {
            let args = map(vec![
                ("arg", Value::UInt(ev.arg as u128)),
                ("seq", Value::UInt(ev.seq as u128)),
            ]);
            let mut rec = common(ev.kind.name(), if ev.dur_ns > 0 { "X" } else { "i" }, t.tid);
            rec.push(("ts", us(ev.ts_ns)));
            if ev.dur_ns > 0 {
                rec.push(("dur", us(ev.dur_ns)));
            } else {
                // Instant scope: thread-local (a tick on that row only).
                rec.push(("s", Value::Str("t".to_string())));
            }
            rec.push(("args", args));
            events.push(map(rec));
        }
    }
    let doc = map(vec![("traceEvents", Value::Seq(events))]);
    serde_json::to_string(&doc).expect("chrome trace document serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind};

    fn sample_traces() -> Vec<ThreadTrace> {
        vec![ThreadTrace {
            tid: 0,
            name: "cleaner-0".into(),
            events: vec![
                Event {
                    kind: EventKind::Get,
                    ts_ns: 1500,
                    dur_ns: 250,
                    arg: 4,
                    seq: 0,
                },
                Event {
                    kind: EventKind::Put,
                    ts_ns: 2750,
                    dur_ns: 0,
                    arg: 16,
                    seq: 1,
                },
            ],
            dropped: 3,
            head: 5,
        }]
    }

    /// Round-trip through the vendored serde_json parser: the exporter
    /// must emit schema-valid JSON with the fields Perfetto keys on.
    #[test]
    fn exporter_emits_schema_valid_json() {
        let json = chrome_trace_json(&sample_traces(), 0);
        let doc = serde_json::from_str(&json).expect("exporter output parses");
        assert_eq!(doc.as_map().map(|m| m.len()), Some(1));
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_seq)
            .expect("traceEvents must be an array");
        assert_eq!(
            events.len(),
            4,
            "metadata + events_lost (3 ring drops) + two events"
        );

        let get = |m: &Value, key: &str| -> Value {
            m.get(key)
                .unwrap_or_else(|| panic!("missing field {key}"))
                .clone()
        };
        // Metadata event names the thread row.
        assert_eq!(get(&events[0], "ph"), Value::Str("M".into()));
        assert_eq!(
            get(&get(&events[0], "args"), "name"),
            Value::Str("cleaner-0".into())
        );
        assert_eq!(get(&get(&events[0], "args"), "dropped"), Value::UInt(3));
        // The 3 ring drops surface as a visible instant pinned where the
        // exported window begins.
        assert_eq!(get(&events[1], "name"), Value::Str("events_lost".into()));
        assert_eq!(get(&events[1], "ph"), Value::Str("i".into()));
        assert_eq!(get(&events[1], "ts"), Value::Float(1.5));
        assert_eq!(get(&get(&events[1], "args"), "dropped"), Value::UInt(3));
        assert_eq!(get(&get(&events[1], "args"), "trimmed"), Value::UInt(0));
        // Span: complete event with µs timestamp/duration.
        assert_eq!(get(&events[2], "ph"), Value::Str("X".into()));
        assert_eq!(get(&events[2], "name"), Value::Str("get".into()));
        assert_eq!(get(&events[2], "ts"), Value::Float(1.5));
        assert_eq!(get(&events[2], "dur"), Value::Float(0.25));
        // Instant: thread-scoped.
        assert_eq!(get(&events[3], "ph"), Value::Str("i".into()));
        assert_eq!(get(&events[3], "s"), Value::Str("t".into()));
        assert_eq!(get(&get(&events[3], "args"), "arg"), Value::UInt(16));
    }

    #[test]
    fn lossless_traces_carry_no_loss_marker() {
        let mut traces = sample_traces();
        traces[0].dropped = 0;
        let json = chrome_trace_json(&traces, 0);
        assert!(
            !json.contains("events_lost"),
            "a complete trace must not claim losses"
        );
    }

    #[test]
    fn export_cap_keeps_newest_events_and_reports_trim() {
        let mut traces = sample_traces();
        traces[0].events = (0..10)
            .map(|i| Event {
                kind: EventKind::Custom,
                ts_ns: i * 100,
                dur_ns: 0,
                arg: i,
                seq: i,
            })
            .collect();
        let json = chrome_trace_json(&traces, 4);
        let doc = serde_json::from_str(&json).unwrap();
        let events = doc.get("traceEvents").and_then(Value::as_seq).unwrap();
        // 1 metadata + 1 events_lost marker + the 4 newest events.
        assert_eq!(events.len(), 6);
        let trimmed = events[0].get("args").and_then(|a| a.get("trimmed"));
        assert_eq!(trimmed, Some(&Value::UInt(6)));
        // events[1] is the loss marker; the first real event follows it.
        let seq = events[2].get("args").and_then(|a| a.get("seq"));
        assert_eq!(
            seq,
            Some(&Value::UInt(6)),
            "oldest surviving event is seq 6"
        );
    }
}
