//! The live tree must scan clean: `cargo test -p ward` fails the same
//! way `cargo run -p ward -- --check` would, so the gate binds even for
//! contributors who only run the test suite. Also pins coverage floors
//! so a scoping bug that silently skips most of the tree reads as a
//! failure, not as a suspiciously green scan.

use ward::report::parse_baseline;
use ward::{apply_baseline, scan_workspace, workspace_root};

#[test]
fn workspace_scan_is_clean_after_baseline() {
    let root = workspace_root();
    assert!(
        root.join("crates/ward/Cargo.toml").exists(),
        "workspace root misresolved: {}",
        root.display()
    );
    let scan = scan_workspace(&root);
    let baseline = std::fs::read_to_string(root.join("crates/ward/baseline.txt"))
        .map(|t| parse_baseline(&t))
        .unwrap_or_default();
    let (unsuppressed, _suppressed, stale) = apply_baseline(scan.findings, &baseline);
    let rendered: Vec<String> = unsuppressed
        .iter()
        .map(|f| {
            format!(
                "[{}] {}:{}: {} ({})",
                f.check,
                f.file,
                f.line,
                f.message,
                f.id()
            )
        })
        .collect();
    assert!(
        rendered.is_empty(),
        "the tree has unsuppressed ward findings:\n{}",
        rendered.join("\n")
    );
    assert!(stale.is_empty(), "stale baseline entries: {stale:?}");
}

#[test]
fn scan_coverage_floors_hold() {
    let scan = scan_workspace(&workspace_root());
    let s = &scan.stats;
    assert!(s.files >= 50, "only {} files scanned", s.files);
    assert!(
        s.ordering_sites >= 200,
        "only {} ordering sites",
        s.ordering_sites
    );
    assert!(s.lock_decls >= 20, "only {} ranked locks", s.lock_decls);
    assert!(s.lock_edges >= 1, "no nested-acquisition edges observed");
    assert!(s.pair_labels >= 14, "only {} pair labels", s.pair_labels);
}
