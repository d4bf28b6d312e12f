//! `ward` CLI — see crate docs and DESIGN.md §15.
//!
//! ```text
//! cargo run -p ward                 scan + write the report
//! cargo run -p ward -- --check      the same, as the CI gate
//! cargo run -p ward -- --self-test  detection-power fixtures
//! cargo run -p ward -- --validate <report.json>
//! cargo run -p ward -- --graph     print the observed lock-order edges
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use ward::report::{parse_baseline, render_report, validate_report};
use ward::{apply_baseline, scan_workspace, selftest, workspace_root};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut self_test = false;
    let mut graph = false;
    let mut validate: Option<PathBuf> = None;
    let mut json_out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            // A plain run is already the gate; CI spells it `--check`.
            "--check" => {}
            "--self-test" => self_test = true,
            "--graph" => graph = true,
            "--validate" => match it.next() {
                Some(p) => validate = Some(PathBuf::from(p)),
                None => {
                    eprintln!("ward: --validate needs a path");
                    return ExitCode::from(2);
                }
            },
            "--json" => match it.next() {
                Some(p) => json_out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("ward: --json needs a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("ward: unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }

    let root = workspace_root();

    if let Some(path) = validate {
        return match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|t| validate_report(&t))
        {
            Ok(()) => {
                println!(
                    "ward: {} validates against {}",
                    path.display(),
                    ward::report::SCHEMA
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("ward: {} is invalid: {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }

    if self_test {
        let fixtures = root.join("crates/ward/fixtures");
        let results = selftest::run(&fixtures);
        let mut failures = 0;
        for r in &results {
            if r.ok {
                println!("ward self-test: {:<24} OK ({})", r.name, r.detail);
            } else {
                failures += 1;
                eprintln!("ward self-test: {:<24} FAIL — {}", r.name, r.detail);
            }
        }
        println!(
            "ward self-test: {} — {}/{} checks detect their fixture violation",
            if failures == 0 { "OK" } else { "FAIL" },
            results.len() - failures,
            results.len()
        );
        return if failures == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let scan = scan_workspace(&root);

    if graph {
        println!("# lock-order graph: held -> acquired (file:line, fn)");
        for e in &scan.edges {
            println!(
                "{} -> {}    {}:{} (fn {})",
                e.held, e.acquired, e.file, e.line, e.func
            );
        }
    }

    // Baseline.
    let baseline_path = root.join("crates/ward/baseline.txt");
    let baseline = std::fs::read_to_string(&baseline_path)
        .map(|t| parse_baseline(&t))
        .unwrap_or_default();
    let (mut findings, suppressed, stale) = apply_baseline(scan.findings, &baseline);
    for id in &stale {
        findings.push(ward::report::Finding::new(
            "baseline",
            "crates/ward/baseline.txt",
            0,
            format!("baseline entry {id} matches no current finding — remove it"),
            format!("stale:{id}"),
        ));
    }

    // Machine-readable report.
    let report = render_report(&findings, &suppressed, &scan.stats);
    let report_path = json_out.unwrap_or_else(|| root.join("results/ward.json"));
    if let Some(parent) = report_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if std::fs::write(&report_path, &report).is_err() {
        eprintln!("ward: cannot write {}", report_path.display());
        return ExitCode::FAILURE;
    }

    for f in &findings {
        eprintln!(
            "ward: [{}] {}:{}: {} ({})",
            f.check,
            f.file,
            f.line,
            f.message,
            f.id()
        );
    }
    println!(
        "ward: {} — {} files, {} ordering sites, {} ranked locks, \
         {} lock edges, {} pair labels; {} finding(s), {} suppressed",
        if findings.is_empty() { "OK" } else { "FAIL" },
        scan.stats.files,
        scan.stats.ordering_sites,
        scan.stats.lock_decls,
        scan.stats.lock_edges,
        scan.stats.pair_labels,
        findings.len(),
        suppressed.len(),
    );
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
