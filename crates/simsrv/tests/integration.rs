//! Simulator integration tests: determinism, config serialization, and
//! cross-scenario sanity.

use serde::{Serialize, Value};
use wafl_simsrv::config::Era;
use wafl_simsrv::scenario::{chunk_sweep, load_sweep};
use wafl_simsrv::{knee_point, CleanerSetting, SimConfig, Simulator, WorkloadKind};

fn quick(w: WorkloadKind) -> SimConfig {
    let mut c = SimConfig::paper_platform(w);
    c.duration_ns = 200_000_000;
    c.warmup_ns = 50_000_000;
    c
}

#[test]
fn identical_configs_produce_identical_results() {
    let cfg = quick(WorkloadKind::oltp());
    let a = Simulator::new(cfg.clone()).run();
    let b = Simulator::new(cfg).run();
    assert_eq!(a.ops_completed, b.ops_completed);
    assert_eq!(a.blocks_written, b.blocks_written);
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.usage, b.usage);
    assert_eq!(a.refills, b.refills);
}

#[test]
fn different_seeds_differ_only_stochastically() {
    let mut a_cfg = quick(WorkloadKind::oltp());
    a_cfg.seed = 1;
    let mut b_cfg = quick(WorkloadKind::oltp());
    b_cfg.seed = 2;
    let a = Simulator::new(a_cfg).run();
    let b = Simulator::new(b_cfg).run();
    // Same config, different RNG: results close but (almost surely) not
    // byte-identical.
    let ratio = a.throughput_ops / b.throughput_ops;
    assert!(
        (0.9..1.1).contains(&ratio),
        "seeds shift results mildly: {ratio}"
    );
}

#[test]
fn config_round_trips_through_serde() {
    let cfg = quick(WorkloadKind::random_write());
    let json = serde_json::to_string(&cfg).unwrap();
    let doc = serde_json::from_str(&json).unwrap();
    assert_eq!(doc, cfg.to_value(), "the JSON carries every field");
}

#[test]
fn result_serializes_for_experiment_records() {
    let r = Simulator::new(quick(WorkloadKind::sequential_write())).run();
    let json = serde_json::to_string(&r).unwrap();
    let doc = serde_json::from_str(&json).unwrap();
    assert_eq!(doc, r.to_value(), "the JSON carries every field");
    assert_eq!(
        doc.get("ops_completed"),
        Some(&Value::UInt(r.ops_completed.into()))
    );
    assert_eq!(
        doc.get("throughput_ops"),
        Some(&Value::Float(r.throughput_ops))
    );
}

#[test]
fn zero_write_workload_never_engages_write_allocation() {
    let mut cfg = quick(WorkloadKind::Oltp {
        op_blocks: 4,
        write_fraction: 0.0,
    });
    cfg.clients = 8;
    let r = Simulator::new(cfg).run();
    assert_eq!(r.usage.cleaner_ns, 0);
    assert_eq!(r.blocks_written, 0);
    assert!(r.ops_completed > 0, "reads still flow");
    assert_eq!(r.refills, 0, "no bucket demand");
}

#[test]
fn think_time_reduces_throughput_not_correctness() {
    let mut busy = quick(WorkloadKind::oltp());
    busy.think_ns = 0;
    let mut idle = quick(WorkloadKind::oltp());
    idle.think_ns = 10_000_000; // 10 ms think per op
    let rb = Simulator::new(busy).run();
    let ri = Simulator::new(idle).run();
    assert!(ri.throughput_ops < rb.throughput_ops);
    assert!(
        ri.latency.mean_ns < rb.latency.mean_ns,
        "off-peak load has lower latency: {} vs {}",
        ri.latency.mean_ns,
        rb.latency.mean_ns
    );
}

#[test]
fn knee_detection_on_a_real_sweep() {
    let cfg = quick(WorkloadKind::oltp());
    let curve = load_sweep(&cfg, &[2, 4, 8, 16, 32, 64]);
    let knee = knee_point(&curve).expect("curve non-empty");
    // The knee is an actual point of the sweep and not the most extreme
    // latency.
    assert!(curve.iter().any(|p| p.load == knee.load));
    let max_lat = curve.iter().map(|p| p.latency_ns).max().unwrap();
    assert!(knee.latency_ns <= max_lat);
}

#[test]
fn single_core_platform_still_functions() {
    let mut cfg = quick(WorkloadKind::sequential_write());
    cfg.cores = 1;
    cfg.clients = 4;
    cfg.cleaners = CleanerSetting::Fixed(1);
    let r = Simulator::new(cfg).run();
    assert!(r.ops_completed > 0);
    assert!(r.total_cores() <= 1.0 + 1e-9);
}

#[test]
fn chunk_one_still_completes_work() {
    // Per-VBN allocation is slow but must remain functionally correct.
    let rows = chunk_sweep(&quick(WorkloadKind::sequential_write()), &[1]);
    assert!(rows[0].1.ops_completed > 0);
    assert!(rows[0].1.refills > 0);
}

#[test]
fn all_eras_complete_all_workloads() {
    for era in [
        Era::SerialWafl,
        Era::ClassicalSerialCleaning,
        Era::ClassicalCleanerThread,
        Era::WhiteAlligator,
    ] {
        for w in [
            WorkloadKind::sequential_write(),
            WorkloadKind::random_write(),
            WorkloadKind::oltp(),
            WorkloadKind::nfs_mix(),
        ] {
            let mut cfg = quick(w);
            cfg.era = era;
            cfg.duration_ns = 100_000_000;
            cfg.warmup_ns = 20_000_000;
            let r = Simulator::new(cfg).run();
            assert!(
                r.ops_completed > 0,
                "era {era:?} workload {w:?} made progress"
            );
        }
    }
}

#[test]
fn dynamic_tuner_stays_within_bounds() {
    let mut cfg = quick(WorkloadKind::sequential_write());
    cfg.cleaners = CleanerSetting::dynamic_default(3);
    let r = Simulator::new(cfg).run();
    assert!(r.avg_active_cleaners >= 1.0 - 1e-9);
    assert!(r.avg_active_cleaners <= 3.0 + 1e-9);
}
