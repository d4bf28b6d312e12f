//! Detection-power self-test: every check must still fire on its seeded
//! fixture violation, and the clean fixture must produce zero findings.
//! A gate that cannot catch its target bug class is worse than no gate,
//! because it launders confidence.

use crate::ordering;
use crate::report::Finding;
use crate::scrub::Scrubbed;
use std::collections::BTreeMap;
use std::path::Path;

/// One self-test case outcome.
pub struct CaseResult {
    /// Case name (fixture stem).
    pub name: &'static str,
    /// Pass/fail.
    pub ok: bool,
    /// What went wrong, if anything.
    pub detail: String,
}

fn load(fixtures: &Path, name: &str) -> Result<Scrubbed, String> {
    let p = fixtures.join(name);
    std::fs::read_to_string(&p)
        .map(|t| Scrubbed::new(&t))
        .map_err(|e| format!("cannot read {}: {e}", p.display()))
}

fn case(
    name: &'static str,
    expect_check: &str,
    min: usize,
    res: Result<Vec<Finding>, String>,
) -> CaseResult {
    match res {
        Ok(findings) => {
            let hits = findings.iter().filter(|f| f.check == expect_check).count();
            if hits >= min {
                CaseResult {
                    name,
                    ok: true,
                    detail: format!("{hits} finding(s)"),
                }
            } else {
                CaseResult {
                    name,
                    ok: false,
                    detail: format!(
                        "expected ≥{min} `{expect_check}` finding(s), got {hits}: {findings:?}"
                    ),
                }
            }
        }
        Err(e) => CaseResult {
            name,
            ok: false,
            detail: e,
        },
    }
}

/// Run the whole detection-power suite against `fixtures` (the
/// `crates/ward/fixtures` directory). Returns per-case results.
pub fn run(fixtures: &Path) -> Vec<CaseResult> {
    let mut out = Vec::new();

    // 1. Unjustified ordering.
    out.push(case(
        "unjustified_ordering",
        "ordering",
        1,
        load(fixtures, "unjustified_ordering.rs").map(|src| {
            let mut f = Vec::new();
            ordering::check_justifications("fixture.rs", &src, &mut f);
            f
        }),
    ));

    // 2. Dangling pairs-with: a Release publish whose acquire partner
    // was weakened to Relaxed.
    out.push(case(
        "dangling_pairs_with",
        "pairing",
        2, // the weakened tag AND the dangling label
        load(fixtures, "dangling_pairs_with.rs").map(|src| {
            let mut f = Vec::new();
            let mut labels = BTreeMap::new();
            ordering::check_pairing_file("fixture.rs", &src, &mut f, &mut labels);
            ordering::check_pairing_global(&labels, &mut f);
            f
        }),
    ));

    // Clean fixture: the full per-file battery must stay silent.
    let clean = (|| {
        let src = load(fixtures, "clean.rs")?;
        let mut f = Vec::new();
        let mut labels = BTreeMap::new();
        ordering::check_justifications("fixture.rs", &src, &mut f);
        ordering::check_pairing_file("fixture.rs", &src, &mut f, &mut labels);
        ordering::check_pairing_global(&labels, &mut f);
        Ok::<_, String>(f)
    })();
    out.push(match clean {
        Ok(f) if f.is_empty() => CaseResult {
            name: "clean_fixture",
            ok: true,
            detail: "0 findings".into(),
        },
        Ok(f) => CaseResult {
            name: "clean_fixture",
            ok: false,
            detail: format!("clean fixture produced findings: {f:?}"),
        },
        Err(e) => CaseResult {
            name: "clean_fixture",
            ok: false,
            detail: e,
        },
    });

    out
}
