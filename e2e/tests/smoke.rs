//! Every workload, on a 1/16-size geometry with a 200 ms window, emits
//! exactly the metrics `BENCHMARK.json` lists, each once and finite, and
//! passes its own correctness gate.

use e2e::config::Workload;
use e2e::metrics::{self, END_TO_END, PER_LAYER};
use e2e::record::BENCHMARK_JSON;
use e2e::run::{run, RunArgs};
use serde::Value;
use std::time::Duration;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing field `{key}`"))
}

/// `(name, unit)` of every entry of one list of `BENCHMARK.json`.
fn listed(doc: &Value, list: &str) -> Vec<(String, String)> {
    field(doc, list)
        .as_seq()
        .expect("a list")
        .iter()
        .map(|m| {
            let text = |k| field(m, k).as_str().expect("a string").to_string();
            (text("name"), text("unit"))
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn args(workload: Workload, trace: bool, tag: &str) -> RunArgs {
    RunArgs {
        workload,
        seed: 7,
        seconds: 0.2,
        trace,
        scale: 16,
        // One directory per test: tests run in parallel and must not
        // share media files.
        out_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}")),
        probe_budget: Duration::from_millis(5),
    }
}

/// Run `workload` untraced and check what it emits against `END_TO_END`.
fn check(workload: Workload) {
    let a = args(workload, false, workload.name());
    let result = run(&a).expect("the harness runs");
    let _ = std::fs::remove_dir_all(&a.out_dir);
    assert_eq!(
        result.failed,
        0,
        "{}: {:?}",
        workload.name(),
        result.failures
    );
    assert!(result.attempted > 0);
    // `to_value` panics unless every name of the table was measured once,
    // nothing else was, and every value is finite.
    metrics::to_value(END_TO_END, &result.metrics);
    for (name, v) in &result.metrics {
        assert!(*v > 0.0, "{}: end-to-end {name} is {v}", workload.name());
    }
}

#[test]
fn benchmark_json_and_the_harness_list_the_same_metrics() {
    let doc: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    assert_eq!(listed(&doc, "end_to_end"), owned(END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<String> = field(&doc, "workloads")
        .as_seq()
        .expect("a list")
        .iter()
        .map(|w| field(w, "name").as_str().expect("a string").to_string())
        .collect();
    let ours: Vec<&str> = Workload::LISTED.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn seq_write_emits_every_end_to_end_metric() {
    check(Workload::SeqWrite);
}

#[test]
fn rand_overwrite_aged_emits_every_end_to_end_metric() {
    check(Workload::RandOverwriteAged);
}

#[test]
fn seq_write_file_emits_every_end_to_end_metric() {
    check(Workload::SeqWriteFile);
}

#[test]
fn oltp_mix_emits_every_end_to_end_metric() {
    check(Workload::OltpMix);
}

#[test]
fn traced_runs_emit_every_per_layer_metric_and_a_span_file() {
    for w in [Workload::SeqWrite, Workload::OltpMix] {
        let a = args(w, true, &format!("{}-spans", w.name()));
        let result = run(&a).expect("the harness runs");
        metrics::to_value(PER_LAYER, &result.metrics);
        assert_eq!(result.failed, 0, "{:?}", result.failures);
        let path = a.out_dir.join(format!("trace-{}.json", w.name()));
        let doc: Value =
            serde_json::from_str(&std::fs::read_to_string(&path).expect("span file written"))
                .expect("span file parses");
        let _ = std::fs::remove_dir_all(&a.out_dir);
        let spans = field(&doc, "spans").as_seq().expect("a list");
        // The cycle spans tile the measured window.
        let ns = |s: &Value, k| match field(s, k) {
            Value::UInt(u) => *u as f64,
            other => panic!("{k} is {other:?}"),
        };
        let named = |name: &'static str| {
            spans
                .iter()
                .filter(move |s| field(s, "name").as_str() == Some(name))
        };
        let window: f64 = named("window")
            .map(|s| ns(s, "end_ns") - ns(s, "start_ns"))
            .fold(0.0, f64::max);
        let cycles: f64 = named("cycle")
            .map(|s| ns(s, "end_ns") - ns(s, "start_ns"))
            .sum();
        assert!(window > 0.0);
        assert!(
            cycles >= 0.95 * window,
            "{}: cycles cover {cycles} of {window} ns",
            w.name()
        );
        assert!(result.metrics["wafl.cp.coverage"] >= 0.95);
    }
}
