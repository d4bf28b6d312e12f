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
//!
//! The real-path experiments `exp_{io_engine,put_convoy,scrub}`
//! print their table and keep one record each, `BENCH_<name>.json` at
//! the repo root ([`save_record`]); `<bin> --validate <path>` re-checks a
//! written record ([`validate_arg`]).

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

/// Directory receiving the `BENCH_*.json` records: `WAFL_BENCH_ROOT` if
/// set (the CI smoke run points it at a temp dir), else the repo root.
fn bench_root() -> std::path::PathBuf {
    match std::env::var_os("WAFL_BENCH_ROOT") {
        Some(d) => d.into(),
        None => std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."),
    }
}

/// `<bin> --validate <path>`: when that is the command line, re-parse the
/// record at `path`, check it with the bin's own `validate`, print
/// `summary` or the first violation, and exit — 0 valid, 1 unreadable or
/// invalid, 2 missing path. Returns when `--validate` was not given.
pub fn validate_arg<D: serde::Deserialize>(
    bin: &str,
    schema: &str,
    validate: fn(&D) -> Result<(), String>,
    summary: fn(&D) -> String,
) {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) != Some("--validate") {
        return;
    }
    let Some(path) = args.get(2) else {
        eprintln!("usage: {bin} --validate <path>");
        std::process::exit(2);
    };
    let checked = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))
        .and_then(|raw| {
            serde_json::from_str::<D>(&raw)
                .map_err(|e| format!("{path} does not parse as {schema}: {e}"))
        })
        .and_then(|doc| match validate(&doc) {
            Ok(()) => Ok(doc),
            Err(msg) => Err(format!("{path} invalid: {msg}")),
        });
    match checked {
        Ok(doc) => {
            println!("{path}: valid {schema} ({})", summary(&doc));
            std::process::exit(0);
        }
        Err(msg) => {
            eprintln!("{bin}: {msg}");
            std::process::exit(1);
        }
    }
}

/// Check a freshly produced record with the bin's `validate` (exit 1 on
/// a violation) and write it to `<bench_root()>/<file>`.
pub fn save_record<D: serde::Serialize>(
    bin: &str,
    file: &str,
    doc: &D,
    validate: fn(&D) -> Result<(), String>,
) {
    if let Err(msg) = validate(doc) {
        eprintln!("{bin}: produced record fails validation: {msg}");
        std::process::exit(1);
    }
    let root = bench_root();
    let _ = std::fs::create_dir_all(&root);
    let path = root.join(file);
    let json = serde_json::to_string_pretty(doc).expect("doc serializes");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("[saved {}]", path.display());
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
