//! # wafl-bench — the benchmark harness
//!
//! One binary per paper artifact (run with `cargo run --release -p
//! wafl-bench --bin <name>`):
//!
//! | binary | paper artifact |
//! |--------|----------------|
//! | `fig4` | Fig 4 — sequential write, 4 parallelization permutations |
//! | `fig5` | Fig 5 — throughput vs number of cleaner threads |
//! | `fig6` | Fig 6 — infrastructure serial vs parallel core usage |
//! | `fig7` | Fig 7 — random write, 4 parallelization permutations |
//! | `fig8` | Fig 8 — OLTP peak throughput and knee latency vs cleaners |
//! | `fig9` | Fig 9 — throughput vs latency curves, static vs dynamic |
//! | `table_batching` | §V-C — batched inode cleaning on/off |
//! | `ablation_reinsert` | collective vs immediate bucket reinsertion (real allocator) |
//! | `ablation_chunk` | bucket chunk-size sweep |
//! | `probe` | raw calibration dump (not a paper artifact) |
//!
//! Mechanism-level costs (bucket GET/USE/PUT, bitmap scans, the Waffinity
//! round trip, loose accounting, tetris deposit, CP phases) are
//! `*_probe_ns` rows of the end-to-end ledger (`e2e --probes`), not
//! targets of this crate.
//!
//! Each `fig*` binary prints a paper-vs-measured table and writes the
//! same rows as JSON under `results/` (next to the workspace root, or
//! `$WAFL_RESULTS_DIR`). Set `WAFL_BENCH_QUICK=1` to run shorter
//! simulations (CI-friendly; noisier numbers).

#![warn(missing_docs)]

use wafl_simsrv::{FigureTable, SimConfig, WorkloadKind};

/// Simulation length knobs honoring `WAFL_BENCH_QUICK`.
pub fn configure_duration(cfg: &mut SimConfig) {
    if std::env::var_os("WAFL_BENCH_QUICK").is_some() {
        cfg.duration_ns = 250_000_000;
        cfg.warmup_ns = 50_000_000;
    } else {
        cfg.duration_ns = 1_000_000_000;
        cfg.warmup_ns = 200_000_000;
    }
}

/// The standard 20-core platform config for a workload, with durations
/// applied.
pub fn platform(workload: WorkloadKind) -> SimConfig {
    let mut cfg = SimConfig::paper_platform(workload);
    configure_duration(&mut cfg);
    cfg
}

/// Print a table and persist its JSON under the results directory.
pub fn emit(table: &FigureTable) {
    println!("{}", table.render());
    let dir = std::env::var("WAFL_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = format!("{dir}/{}.json", table.id);
        if let Err(e) = std::fs::write(&path, table.to_json()) {
            eprintln!("warning: could not write {path}: {e}");
        } else {
            println!("[saved {path}]");
        }
    }
}

/// Percentage gain of `x` over `base`.
pub fn gain_pct(x: f64, base: f64) -> f64 {
    (x / base - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_env_shortens_runs() {
        std::env::set_var("WAFL_BENCH_QUICK", "1");
        let cfg = platform(WorkloadKind::sequential_write());
        assert!(cfg.duration_ns <= 250_000_000);
        std::env::remove_var("WAFL_BENCH_QUICK");
    }

    #[test]
    fn gain_math() {
        assert!((gain_pct(3.74, 1.0) - 274.0).abs() < 1e-9);
    }
}
