//! Detection-power integration tests: the analyzer must catch every
//! seeded fixture violation, and — the acceptance criterion for the
//! whole gate — *mutating a clean source* (weakening or deleting a
//! pairs-with partner) must flip the verdict from silent to failing. A checker that stays green under its target mutations is
//! laundering confidence, not providing it.

use std::collections::BTreeMap;
use std::path::Path;
use ward::report::Finding;
use ward::scrub::Scrubbed;
use ward::{ordering, selftest};

fn fixtures() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures"))
}

/// Every `--self-test` case passes: each of the two seeded violations
/// is detected and the clean corpus stays silent.
#[test]
fn selftest_suite_is_all_green() {
    let results = selftest::run(fixtures());
    assert!(results.len() >= 3, "suite shrank: {} cases", results.len());
    let failures: Vec<String> = results
        .iter()
        .filter(|c| !c.ok)
        .map(|c| format!("{}: {}", c.name, c.detail))
        .collect();
    assert!(failures.is_empty(), "self-test failures: {failures:?}");
}

/// Run the pairing battery (per-file + global) over one in-memory source.
fn pairing_findings(text: &str) -> Vec<Finding> {
    let src = Scrubbed::new(text);
    let mut findings = Vec::new();
    let mut labels = BTreeMap::new();
    ordering::check_pairing_file("mutant.rs", &src, &mut findings, &mut labels);
    ordering::check_pairing_global(&labels, &mut findings);
    findings
}

/// A minimal, fully annotated Release/Acquire hand-off. The base form
/// must be silent; the mutations below must each produce a `pairing`
/// finding.
const PAIRED: &str = r#"
struct S {
    flag: AtomicBool,
}
impl S {
    fn publish(&self) {
        // ordering: Release publishes readiness; pairs-with: demo.flag.
        self.flag.store(true, Ordering::Release);
    }
    fn observe(&self) -> bool {
        // ordering: Acquire side of the readiness hand-off;
        // pairs-with: demo.flag.
        self.flag.load(Ordering::Acquire)
    }
}
"#;

#[test]
fn intact_pair_is_silent() {
    let findings = pairing_findings(PAIRED);
    assert!(findings.is_empty(), "clean pair flagged: {findings:?}");
}

/// Weakening the acquire partner to `Relaxed` — the exact regression
/// the check exists for (a happens-before edge silently dropped) —
/// must fail the scan even though the release side is untouched.
#[test]
fn weakened_acquire_partner_is_detected() {
    let mutant = PAIRED.replace("Ordering::Acquire", "Ordering::Relaxed");
    assert_ne!(mutant, PAIRED, "mutation did not apply");
    let findings = pairing_findings(&mutant);
    assert!(
        findings.iter().any(|f| f.check == "pairing"),
        "weakened acquire partner went undetected: {findings:?}"
    );
}

/// Deleting the acquire site outright must dangle the label.
#[test]
fn deleted_acquire_partner_is_detected() {
    let cut = PAIRED.find("fn observe").expect("observe in fixture");
    let mutant = format!("{}}}\n", &PAIRED[..cut]);
    let findings = pairing_findings(&mutant);
    assert!(
        findings.iter().any(|f| f.check == "pairing"),
        "deleted acquire partner went undetected: {findings:?}"
    );
}

/// Weakening the *release* side while its tag still claims a pair must
/// also fail (tag on a non-publishing site).
#[test]
fn weakened_release_side_is_detected() {
    let mutant = PAIRED.replace("Ordering::Release", "Ordering::Relaxed");
    assert_ne!(mutant, PAIRED, "mutation did not apply");
    let findings = pairing_findings(&mutant);
    assert!(
        findings.iter().any(|f| f.check == "pairing"),
        "weakened release side went undetected: {findings:?}"
    );
}

/// Finding IDs are content-derived: re-running the same battery yields
/// the same IDs (baseline stability), and the ID does not move when the
/// site's line number does.
#[test]
fn finding_ids_are_stable_across_line_shifts() {
    let mutant = PAIRED.replace("Ordering::Acquire", "Ordering::Relaxed");
    let a = pairing_findings(&mutant);
    assert!(!a.is_empty(), "mutant produced no finding");
    let shifted = format!("\n\n\n{mutant}");
    let b = pairing_findings(&shifted);
    let ids = |v: &[Finding]| v.iter().map(|f| f.id()).collect::<Vec<_>>();
    assert_eq!(ids(&a), ids(&b), "IDs moved with line numbers");
    assert_ne!(a[0].line, b[0].line, "shift fixture did not shift lines");
}
