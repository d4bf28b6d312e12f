//! `ward` — the workspace concurrency analyzer.
//!
//! A dependency-free static-analysis pass over the whole Rust tree
//! (token-level lexer, no `syn`), run from CI as
//! `cargo run -p ward -- --check`. It makes two checks:
//!
//! 1. **Release/Acquire pairing** ([`ordering`]): every
//!    `Ordering::Release`/`AcqRel` publish names its acquire partner via
//!    `pairs-with: <label>`; a deleted or weakened partner fails the
//!    build instead of silently dropping a happens-before edge. This is
//!    a cross-site check: labels are matched workspace-wide.
//! 2. **Ordering justifications** ([`ordering`]): every `Ordering::*`
//!    site carries an attached `// ordering:` comment.
//!
//! What the toolchain checks itself is not re-checked here: `unsafe` is
//! denied workspace-wide by rustc and every unsafe block needs a
//! `// SAFETY:` comment by clippy (`[workspace.lints]`), and completion
//! tickets are unforgeable by module privacy. Lock order is checked at
//! runtime by the vendored lock types, under debug assertions.
//!
//! Findings carry stable content-derived IDs; `baseline.txt` suppresses
//! known accepted findings; `results/ward.json` is the machine-readable
//! report (`wafl.ward.v1`). See DESIGN.md §15 for the annotation
//! contract.

#![warn(missing_docs)]

pub mod ordering;
pub mod report;
pub mod scrub;
pub mod selftest;

use crate::report::{Finding, ScanStats};
use crate::scrub::Scrubbed;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Path components excluded from every scan.
const EXCLUDE: [&str; 4] = ["vendor", "target", ".git", "fixtures"];

/// Everything one full scan produces.
pub struct Scan {
    /// All findings (unsuppressed; baseline application happens later).
    pub findings: Vec<Finding>,
    /// Scan statistics for the report.
    pub stats: ScanStats,
}

/// Locate the workspace root: `$CARGO_MANIFEST_DIR/../..` when run via
/// cargo, else walk up from the current directory to a `[workspace]`
/// manifest.
pub fn workspace_root() -> PathBuf {
    if let Ok(md) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = Path::new(&md);
        if let Some(root) = p.ancestors().nth(2) {
            if root.join("Cargo.toml").exists() {
                return root.to_path_buf();
            }
        }
    }
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.exists() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return dir;
                }
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

/// Every Rust file under `root`, sorted, minus excluded trees.
pub fn rust_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(rd) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in rd.flatten() {
            let p = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if p.is_dir() {
                if !EXCLUDE.contains(&name.as_str()) {
                    stack.push(p);
                }
            } else if name.ends_with(".rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// Run the full analyzer over the workspace at `root`.
pub fn scan_workspace(root: &Path) -> Scan {
    let files = rust_files(root);
    let mut findings = Vec::new();
    let mut stats = ScanStats {
        files: files.len(),
        ..Default::default()
    };
    let mut sources: Vec<(String, Scrubbed)> = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        // The analyzer's own sources and fixtures talk about the
        // annotation tokens constantly (doc comments, test strings) —
        // scanning them would be all self-noise.
        if rel.starts_with("crates/ward/") {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        sources.push((rel, Scrubbed::new(&text)));
    }

    let mut labels: BTreeMap<String, ordering::LabelSides> = BTreeMap::new();
    for (rel, src) in &sources {
        stats.ordering_sites += ordering::check_justifications(rel, src, &mut findings);
        ordering::check_pairing_file(rel, src, &mut findings, &mut labels);
    }
    stats.pair_labels = labels.len();
    ordering::check_pairing_global(&labels, &mut findings);

    Scan { findings, stats }
}

/// Split findings into `(unsuppressed, suppressed, stale_baseline_ids)`
/// given baseline IDs.
pub fn apply_baseline(
    findings: Vec<Finding>,
    baseline: &[String],
) -> (Vec<Finding>, Vec<(String, Finding)>, Vec<String>) {
    let mut unsuppressed = Vec::new();
    let mut suppressed = Vec::new();
    let mut used: Vec<&String> = Vec::new();
    for f in findings {
        let id = f.id();
        if let Some(b) = baseline.iter().find(|b| **b == id) {
            used.push(b);
            suppressed.push((id, f));
        } else {
            unsuppressed.push(f);
        }
    }
    let stale = baseline
        .iter()
        .filter(|b| !used.contains(b))
        .cloned()
        .collect();
    (unsuppressed, suppressed, stale)
}
