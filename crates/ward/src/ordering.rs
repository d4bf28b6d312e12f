//! Memory-ordering checks: the per-site justification gate (ported from
//! the Python lint) and the new workspace-wide Release/Acquire *pairing*
//! verification.
//!
//! Pairing contract (DESIGN.md §15): every atomic operation that
//! publishes with `Ordering::Release` or `Ordering::AcqRel` must carry a
//! `pairs-with: <label>` token in its attached `// ordering:` comment,
//! and somewhere in the workspace an acquire-side operation must carry
//! the same label. Labels are global; a label with endpoints on only one
//! side means a partner was deleted or weakened — exactly the silent
//! happens-before loss this check turns into a build failure.

use crate::report::Finding;
use crate::scrub::{
    attached_comment, find_word, ident_before, matching, statement_has_tag, Scrubbed,
};
use std::collections::BTreeMap;

const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Atomic-access methods whose argument list carries `Ordering` tokens.
const METHODS: [&str; 15] = [
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
    "fence",
];

/// One atomic operation site.
#[derive(Debug, Clone)]
pub struct AtomicSite {
    /// 1-based line of the method identifier.
    pub line: usize,
    /// Method name (`store`, `fetch_add`, `fence`, …).
    pub method: String,
    /// Receiver field identifier, if recoverable (`self.head.store` → `head`).
    pub receiver: String,
    /// Orderings named in the call's argument list.
    pub orderings: Vec<String>,
    /// `pairs-with:` labels attached to the statement.
    pub labels: Vec<String>,
    /// Publishes (release side): a store/rmw/fence at Release or AcqRel,
    /// or any SeqCst non-load.
    pub rel_side: bool,
    /// Observes (acquire side): a load/rmw/fence at Acquire or AcqRel,
    /// or any SeqCst access.
    pub acq_side: bool,
    /// True when the release side comes from Release/AcqRel specifically
    /// (the tag requirement; SeqCst sites may pair but need not).
    pub must_tag: bool,
}

/// Check 1 (ported): every `Ordering::*` use carries an `// ordering:`
/// justification, attached by the statement rule.
pub fn check_justifications(rel: &str, src: &Scrubbed, findings: &mut Vec<Finding>) -> usize {
    let lines = src.lines();
    let mut sites = 0;
    let mut flagged_lines = Vec::new();
    for ord in ORDERINGS {
        for pos in find_word(&src.code, ord) {
            // Require the `Ordering::` qualifier so an enum def or a
            // stray ident doesn't count.
            let pre = &src.code[..pos];
            if !pre.trim_end().ends_with("Ordering::") {
                continue;
            }
            sites += 1;
            let ln = src.line_of(pos);
            if flagged_lines.contains(&ln) {
                continue;
            }
            if !statement_has_tag(&lines, ln - 1, "ordering:") {
                flagged_lines.push(ln);
                findings.push(Finding::new(
                    "ordering",
                    rel,
                    ln,
                    format!(
                        "Ordering::{ord} without an `// ordering:` justification: {}",
                        lines[ln - 1].trim()
                    ),
                    format!("{ord}:{}", lines[ln - 1].trim()),
                ));
            }
        }
    }
    sites
}

/// Extract every atomic-operation call site in a file, with its
/// orderings, side classification, and attached `pairs-with:` labels.
pub fn atomic_sites(src: &Scrubbed) -> Vec<AtomicSite> {
    let lines = src.lines();
    let mut out = Vec::new();
    for method in METHODS {
        for pos in find_word(&src.code, method) {
            let after = pos + method.len();
            let b = src.code.as_bytes();
            let mut j = after;
            while j < b.len() && b[j].is_ascii_whitespace() {
                j += 1;
            }
            // `fetch_update` and friends may be generic-turbofished; we
            // only handle the plain-call shape (the tree has no other).
            if b.get(j) != Some(&b'(') {
                continue;
            }
            let is_fence = method == "fence";
            let mut receiver = String::new();
            if !is_fence {
                // Must be a method call: `.method(`. Walk back over `.`.
                let Some((dot_end, _)) = prev_nonspace(&src.code, pos) else {
                    continue;
                };
                if src.code.as_bytes()[dot_end] != b'.' {
                    continue; // a free fn named `load` etc. — not atomic
                }
                if let Some((_, id)) = ident_before(&src.code, dot_end) {
                    receiver = id;
                } else if src.code.as_bytes().get(dot_end.wrapping_sub(1)) == Some(&b')') {
                    // `self.threads().lock()`-style chains: name the call.
                    if let Some(open) = open_of(&src.code, dot_end - 1) {
                        if let Some((_, id)) = ident_before(&src.code, open) {
                            receiver = id;
                        }
                    }
                }
            }
            let Some(close) = matching(&src.code, j) else {
                continue;
            };
            let args = &src.code[j..close];
            let mut orderings: Vec<String> = Vec::new();
            for ord in ORDERINGS {
                if args
                    .match_indices(ord)
                    .any(|(p, _)| args[..p].trim_end().ends_with("Ordering::"))
                {
                    orderings.push(ord.to_string());
                }
            }
            if orderings.is_empty() {
                continue; // not an atomic call (Vec::swap, io load, …)
            }
            let ln = src.line_of(pos);
            let labels = pair_labels(&attached_comment(&lines, ln - 1, "pairs-with:"));
            let has = |o: &str| orderings.iter().any(|x| x == o);
            let is_load = method == "load";
            let is_store = method == "store";
            let seq = has("SeqCst");
            let rel_side = !is_load && (has("Release") || has("AcqRel") || seq);
            let acq_side = !is_store && (has("Acquire") || has("AcqRel") || seq);
            let must_tag = !is_load && (has("Release") || has("AcqRel"));
            out.push(AtomicSite {
                line: ln,
                method: method.to_string(),
                receiver,
                orderings,
                labels,
                rel_side,
                acq_side,
                must_tag,
            });
        }
    }
    out.sort_by_key(|s| s.line);
    out
}

fn prev_nonspace(code: &str, pos: usize) -> Option<(usize, u8)> {
    let b = code.as_bytes();
    let mut j = pos;
    while j > 0 {
        j -= 1;
        if !b[j].is_ascii_whitespace() {
            return Some((j, b[j]));
        }
    }
    None
}

/// Opening `(` of the group whose `)` sits at `close`.
fn open_of(code: &str, close: usize) -> Option<usize> {
    let b = code.as_bytes();
    let mut depth = 0i64;
    let mut j = close + 1;
    while j > 0 {
        j -= 1;
        match b[j] {
            b')' => depth += 1,
            b'(' => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// Parse `pairs-with: a, b` labels out of attached comment segments.
/// Labels are `[A-Za-z0-9_.-]+` (trailing punctuation trimmed).
pub fn pair_labels(segments: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    for seg in segments {
        let mut rest = seg.as_str();
        while let Some(p) = rest.find("pairs-with:") {
            rest = &rest[p + "pairs-with:".len()..];
            loop {
                let trimmed = rest.trim_start();
                let end = trimmed
                    .find(|c: char| !(c.is_ascii_alphanumeric() || "_.-".contains(c)))
                    .unwrap_or(trimmed.len());
                if end == 0 {
                    break;
                }
                let label = trimmed[..end].trim_end_matches(['.', '-']);
                if !label.is_empty() {
                    out.push(label.to_string());
                }
                rest = &trimmed[end..];
                // A comma continues the label list; anything else ends it.
                if let Some(stripped) = rest.trim_start().strip_prefix(',') {
                    rest = stripped;
                } else {
                    break;
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Per-file half of the pairing check: release-side sites must be
/// tagged; tags must sit on synchronizing sites. Returns this file's
/// label → (rel, acq) contributions for the global join.
pub fn check_pairing_file(
    rel_path: &str,
    src: &Scrubbed,
    findings: &mut Vec<Finding>,
    labels: &mut BTreeMap<String, LabelSides>,
) {
    let lines = src.lines();
    for site in atomic_sites(src) {
        if site.must_tag && site.labels.is_empty() {
            findings.push(Finding::new(
                "pairing",
                rel_path,
                site.line,
                format!(
                    "{} at Ordering::{} has no `pairs-with:` label naming its \
                     acquire partner (add it to the `// ordering:` comment)",
                    site.method,
                    site.orderings.join("/"),
                ),
                format!("untagged:{}:{}", site.receiver, site.method),
            ));
        }
        if !site.labels.is_empty() && !site.rel_side && !site.acq_side {
            findings.push(Finding::new(
                "pairing",
                rel_path,
                site.line,
                format!(
                    "`pairs-with: {}` is attached to a non-synchronizing {} \
                     (orderings: {}) — the partner edge this names does not exist",
                    site.labels.join(", "),
                    site.method,
                    site.orderings.join("/"),
                ),
                format!("weak-tag:{}:{}", site.receiver, site.method),
            ));
        }
        for label in &site.labels {
            let e = labels.entry(label.clone()).or_default();
            if site.rel_side {
                e.rel.push((rel_path.to_string(), site.line));
            }
            if site.acq_side {
                e.acq.push((rel_path.to_string(), site.line));
            }
        }
    }
    // Orphan tags: a `pairs-with:` comment line that no atomic site
    // claims (e.g. the code it annotated was deleted).
    let tagged_lines: Vec<usize> = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.contains("pairs-with:"))
        .map(|(i, _)| i + 1)
        .collect();
    let claimed: Vec<usize> = atomic_sites(src)
        .iter()
        .filter(|s| !s.labels.is_empty())
        .flat_map(|s| claim_range(&lines, s.line))
        .collect();
    for ln in tagged_lines {
        if !claimed.contains(&ln) {
            findings.push(Finding::new(
                "pairing",
                rel_path,
                ln,
                "`pairs-with:` comment is not attached to any atomic operation \
                 (stale annotation?)",
                format!("orphan:{}", lines[ln - 1].trim()),
            ));
        }
    }
}

/// Lines whose `pairs-with:` comments a site on `line` could claim: the
/// attachment region (site line and up to SCAN_LIMIT lines above).
fn claim_range(lines: &[&str], line: usize) -> Vec<usize> {
    let lo = line.saturating_sub(21).max(1);
    (lo..=line.min(lines.len())).collect()
}

/// Endpoints contributed to one label.
#[derive(Debug, Default, Clone)]
pub struct LabelSides {
    /// Release-side (publishing) sites.
    pub rel: Vec<(String, usize)>,
    /// Acquire-side (observing) sites.
    pub acq: Vec<(String, usize)>,
}

/// Global half of the pairing check: every label needs both sides.
pub fn check_pairing_global(labels: &BTreeMap<String, LabelSides>, findings: &mut Vec<Finding>) {
    for (label, sides) in labels {
        if sides.rel.is_empty() {
            let (f, l) = sides.acq.first().cloned().unwrap_or_default();
            findings.push(Finding::new(
                "pairing",
                f,
                l,
                format!(
                    "label `{label}` has acquire-side sites but no release-side \
                     partner — the publishing store was deleted or weakened"
                ),
                format!("dangling-rel:{label}"),
            ));
        }
        if sides.acq.is_empty() {
            let (f, l) = sides.rel.first().cloned().unwrap_or_default();
            findings.push(Finding::new(
                "pairing",
                f,
                l,
                format!(
                    "label `{label}` has release-side sites but no acquire-side \
                     partner — the observing load was deleted or weakened"
                ),
                format!("dangling-acq:{label}"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(textual: &str) -> (Vec<Finding>, BTreeMap<String, LabelSides>) {
        let src = Scrubbed::new(textual);
        let mut findings = Vec::new();
        let mut labels = BTreeMap::new();
        check_pairing_file("t.rs", &src, &mut findings, &mut labels);
        (findings, labels)
    }

    #[test]
    fn tagged_pair_is_clean() {
        let (f, labels) = scan(
            "fn a(x: &AtomicBool) {\n\
             // ordering: Release publish; pairs-with: t.flag.\n\
             x.store(true, Ordering::Release);\n\
             // ordering: Acquire observe; pairs-with: t.flag.\n\
             let _ = x.load(Ordering::Acquire);\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
        let mut out = Vec::new();
        check_pairing_global(&labels, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn untagged_release_store_is_flagged() {
        let (f, _) = scan(
            "fn a(x: &AtomicBool) {\n\
             // ordering: Release publish.\n\
             x.store(true, Ordering::Release);\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("pairs-with"));
    }

    #[test]
    fn dangling_label_is_flagged() {
        let (f, labels) = scan(
            "fn a(x: &AtomicBool) {\n\
             // ordering: Release publish; pairs-with: t.flag.\n\
             x.store(true, Ordering::Release);\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
        let mut out = Vec::new();
        check_pairing_global(&labels, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("acquire-side"));
    }

    #[test]
    fn weakened_partner_breaks_the_label() {
        // The load was weakened to Relaxed: its tag no longer counts as
        // an acquire endpoint AND the tag itself is flagged.
        let (f, labels) = scan(
            "fn a(x: &AtomicBool) {\n\
             // ordering: Release publish; pairs-with: t.flag.\n\
             x.store(true, Ordering::Release);\n\
             // ordering: was Acquire; pairs-with: t.flag.\n\
             let _ = x.load(Ordering::Relaxed);\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        let mut out = Vec::new();
        check_pairing_global(&labels, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn label_lists_parse() {
        assert_eq!(
            pair_labels(&["// ordering: x; pairs-with: a.b, c-d.".to_string()]),
            vec!["a.b".to_string(), "c-d".to_string()]
        );
    }

    #[test]
    fn seqcst_site_may_close_a_pair_without_tagging_requirement() {
        let (f, labels) = scan(
            "fn a(x: &AtomicU64) {\n\
             // ordering: SeqCst epoch protocol; pairs-with: t.epoch.\n\
             x.fetch_add(1, Ordering::SeqCst);\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
        let mut out = Vec::new();
        check_pairing_global(&labels, &mut out);
        assert!(out.is_empty(), "{out:?}"); // SeqCst RMW is both sides
    }

    #[test]
    fn justification_check_fires() {
        let src = Scrubbed::new("fn f(x: &AtomicU64) {\n    x.store(1, Ordering::Relaxed);\n}\n");
        let mut f = Vec::new();
        let n = check_justifications("t.rs", &src, &mut f);
        assert_eq!(n, 1);
        assert_eq!(f.len(), 1);
    }
}
