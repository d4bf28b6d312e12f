//! Memory-ordering annotations over the whole tree (DESIGN.md §15):
//! every `Ordering::*` site has an attached `// ordering:` comment, every
//! `Release`/`AcqRel` publish names its edge with `pairs-with: <label>`,
//! and every label has a release-side and an acquire-side end, so
//! deleting or weakening one end of an edge fails this test.
//!
//! The scan is lexical: a scrubber blanks comments and literal contents
//! (nested block comments, raw and byte strings, chars vs. lifetimes).
//! A finding reads `file:line: message`; [`ALLOWED`] lists the ones the
//! tree may keep. `--nocapture` prints the counts the scan covered.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// This file: its fixture strings hold the very tags it checks for.
const SELF: &str = "tests/ordering_annotations.rs";

/// Directory names the tree walk never enters.
const EXCLUDE: [&str; 3] = ["vendor", "target", ".git"];

/// Findings the tree may keep: file, trimmed line text, and why.
const ALLOWED: &[Allowed] = &[(
    "e2e/src/trace.rs",
    "use std::sync::atomic::Ordering::Relaxed;",
    "inside `Snap::take`, which reads statistics counters only. The \
     benchmark's directory may not be edited by a change measured with it: \
     annotate the line in a benchmark-only change and drop this entry",
)];

const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Atomic-access methods whose argument list carries `Ordering` tokens.
const METHODS: &str = "load store swap fetch_add fetch_sub fetch_and fetch_or fetch_xor \
                       fetch_nand fetch_max fetch_min fetch_update compare_exchange \
                       compare_exchange_weak fence";

/// How far above a statement the comment-attachment scan may climb.
const SCAN_LIMIT: usize = 20;

/// One source file: its lines as written, and `code`, the same bytes with
/// comments and literal contents replaced by spaces (string delimiters
/// stay), so byte offsets and line numbers map one to one.
struct Source<'a> {
    lines: Vec<&'a str>,
    code: String,
    /// Byte offset of the start of each line (index 0 = line 1).
    line_starts: Vec<usize>,
}

#[derive(Copy, Clone)]
enum St {
    Normal,
    BlockComment(u32),
    Str,
    /// A raw string closed by a quote and this many hash marks.
    RawStr(usize),
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

impl<'a> Source<'a> {
    fn new(text: &'a str) -> Self {
        let b = text.as_bytes();
        let mut out = b.to_vec();
        let mut st = St::Normal;
        let hashes = |k: usize| b[k..].iter().take_while(|&&x| x == b'#').count();
        let mut i = 0;
        while i < b.len() {
            let c = b[i];
            let next = b.get(i + 1).copied();
            match st {
                St::Normal => match c {
                    b'/' if next == Some(b'/') => {
                        let len = b[i..].iter().take_while(|&&x| x != b'\n').count();
                        out[i..i + len].fill(b' ');
                        i += len - 1;
                    }
                    b'/' if next == Some(b'*') => {
                        st = St::BlockComment(1);
                        out[i..i + 2].fill(b' ');
                        i += 1;
                    }
                    b'"' => st = St::Str,
                    b'r' | b'b' if i == 0 || !is_ident(b[i - 1]) => {
                        // A raw or byte string prefix: r"…", r#"…"#, b"…", br#"…"#.
                        let mut j = i + 1;
                        if c == b'b' && next == Some(b'r') {
                            j += 1;
                        }
                        let n = hashes(j);
                        j += n;
                        if b.get(j) == Some(&b'"') && (c != b'b' || j > i + 1) {
                            st = St::RawStr(n);
                            i = j; // leave the prefix and opening quote visible
                        } else if c == b'b' && next == Some(b'"') {
                            st = St::Str;
                            i += 1;
                        }
                    }
                    // `'x'` and `'\…'` are char literals; `'ident` with no
                    // closing quote is a lifetime and stays.
                    b'\'' if next == Some(b'\\') && i + 3 < b.len() => {
                        let len = b[i + 3..].iter().position(|&x| x == b'\'').unwrap_or(0);
                        out[i + 1..i + 3 + len].fill(b' ');
                        i += 3 + len;
                    }
                    b'\'' if b.get(i + 2) == Some(&b'\'') && next != Some(b'\'') => {
                        out[i + 1] = b' ';
                        i += 2;
                    }
                    _ => {}
                },
                St::BlockComment(d)
                    if matches!([c, next.unwrap_or(0)], [b'*', b'/'] | [b'/', b'*']) =>
                {
                    out[i..i + 2].fill(b' ');
                    i += 1;
                    st = match (c, d) {
                        (b'/', _) => St::BlockComment(d + 1),
                        (_, 1) => St::Normal,
                        _ => St::BlockComment(d - 1),
                    };
                }
                St::Str if c == b'\\' && next.is_some() => {
                    out[i] = b' ';
                    if next != Some(b'\n') {
                        out[i + 1] = b' ';
                    }
                    i += 1;
                }
                St::Str if c == b'"' => st = St::Normal,
                St::RawStr(n) if c == b'"' && hashes(i + 1) >= n => {
                    i += n; // keep the quote and hashes visible
                    st = St::Normal;
                }
                _ if c != b'\n' => out[i] = b' ',
                _ => {}
            }
            i += 1;
        }
        let newlines = b.iter().enumerate().filter(|(_, &c)| c == b'\n');
        Source {
            lines: text.lines().collect(),
            code: String::from_utf8_lossy(&out).into_owned(),
            line_starts: std::iter::once(0)
                .chain(newlines.map(|(k, _)| k + 1))
                .collect(),
        }
    }

    /// 1-based line of byte offset `pos`.
    fn line_of(&self, pos: usize) -> usize {
        self.line_starts.partition_point(|&s| s <= pos)
    }

    /// Every whole-token occurrence of identifier `word` in the code.
    fn find_word(&self, word: &str) -> Vec<usize> {
        let b = self.code.as_bytes();
        let bounded = |at: usize, post: usize| {
            (at == 0 || !is_ident(b[at - 1])) && (post >= b.len() || !is_ident(b[post]))
        };
        let hits = self.code.match_indices(word).map(|(at, _)| at);
        hits.filter(|&at| bounded(at, at + word.len())).collect()
    }

    /// The trimmed text of 1-based line `line`.
    fn text(&self, line: usize) -> &str {
        self.lines[line - 1].trim()
    }
}

/// Byte offset of the `)` closing the `(` at `open`.
fn matching(code: &str, open: usize) -> Option<usize> {
    let mut depth = 0i64;
    let mut bytes = code.bytes().enumerate().skip(open);
    let close = bytes.find(|&(_, ch)| {
        depth += i64::from(ch == b'(') - i64::from(ch == b')');
        depth == 0
    });
    close.map(|(k, _)| k)
}

/// The comment segments attached to the statement on line `idx`
/// (0-based) that contain `tag`, top-down. A comment attaches if it is
/// on the line itself, on a continuation line of the same statement, or
/// in the contiguous comment block right above the statement.
fn attached(lines: &[&str], idx: usize, tag: &str) -> Vec<String> {
    let comment = |line: &str| line.find("//").map(|i| line[i..].to_string());
    let mut above = Vec::new();
    for j in (idx.saturating_sub(SCAN_LIMIT)..idx).rev() {
        let prev = lines[j];
        if prev.trim_start().starts_with("//") {
            if prev.contains(tag) {
                above.push(prev.trim_start().to_string());
            }
            continue; // a comment block: keep climbing
        }
        if prev.trim().is_empty() {
            break; // a blank line: the statement started below it
        }
        above.extend(comment(prev).filter(|c| c.contains(tag)));
        let code = prev.split("//").next().unwrap_or("").trim_end();
        if code.ends_with([';', '{', '}']) {
            break; // the previous statement
        }
        // A continuation line (ends with ',', '(', an operator, …).
    }
    above.reverse();
    above.extend(comment(lines[idx]).filter(|c| c.contains(tag)));
    above
}

/// The labels named by `pairs-with: a, b` in `segments`: sorted, deduplicated.
fn pair_labels(segments: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    for mut rest in segments.iter().flat_map(|s| s.split("pairs-with:").skip(1)) {
        loop {
            let t = rest.trim_start();
            let end = t
                .find(|c: char| !(c.is_ascii_alphanumeric() || "_.-".contains(c)))
                .unwrap_or(t.len());
            let label = t[..end].trim_end_matches(['.', '-']);
            if !label.is_empty() {
                out.push(label.to_string());
            }
            // A comma continues the list; anything else ends it.
            match t[end..].trim_start().strip_prefix(',') {
                Some(more) if end > 0 => rest = more,
                _ => break,
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// One atomic operation.
struct Site {
    line: usize,
    method: &'static str,
    orderings: Vec<&'static str>,
    labels: Vec<String>,
    /// Publishes: a non-load at Release, AcqRel or SeqCst.
    rel_side: bool,
    /// Observes: a non-store at Acquire, AcqRel or SeqCst.
    acq_side: bool,
    /// A non-load at Release or AcqRel must name its edge (SeqCst may).
    must_tag: bool,
}

/// Every atomic call in `src` (`.method(` or `fence(` with `Ordering::`
/// arguments), in line order.
fn atomic_sites(src: &Source) -> Vec<Site> {
    let b = src.code.as_bytes();
    let mut out = Vec::new();
    for method in METHODS.split_whitespace() {
        for pos in src.find_word(method) {
            let j = b.len() - b[pos + method.len()..].trim_ascii_start().len();
            // Not a fence: must be a method call, `.method(`.
            let dot = b[..pos].trim_ascii_end().last() == Some(&b'.');
            if b.get(j) != Some(&b'(') || (method != "fence" && !dot) {
                continue;
            }
            let Some(close) = matching(&src.code, j) else {
                continue;
            };
            let args = &src.code[j..close];
            let named = |ord: &&str| {
                let mut at = args.match_indices(ord);
                at.any(|(p, _)| args[..p].trim_end().ends_with("Ordering::"))
            };
            let orderings: Vec<&str> = ORDERINGS.into_iter().filter(named).collect();
            if orderings.is_empty() {
                continue; // not atomic: `Vec::swap`, an I/O `load`, …
            }
            let has = |o| orderings.contains(&o);
            let rel = has("Release") || has("AcqRel");
            let acq = has("Acquire") || has("AcqRel");
            let seq = has("SeqCst");
            let line = src.line_of(pos);
            out.push(Site {
                line,
                method,
                labels: pair_labels(&attached(&src.lines, line - 1, "pairs-with:")),
                rel_side: method != "load" && (rel || seq),
                acq_side: method != "store" && (acq || seq),
                must_tag: method != "load" && rel,
                orderings,
            });
        }
    }
    out.sort_by_key(|s| s.line);
    out
}

/// A place in the tree: file, line, and the line's trimmed text.
#[derive(Clone, Default)]
struct At {
    file: String,
    line: usize,
    text: String,
}

#[derive(Default)]
struct Sides {
    rel: Vec<At>,
    acq: Vec<At>,
}

/// A finding: where it is, and how it reads (`file:line: message`).
struct Finding {
    at: At,
    shown: String,
}

/// The checks over a set of files: per-file findings as each is added,
/// the cross-file label join in [`Checker::finish`].
#[derive(Default)]
struct Checker {
    findings: Vec<Finding>,
    labels: BTreeMap<String, Sides>,
    files: usize,
    sites: usize,
}

impl Checker {
    fn push(&mut self, at: At, message: String) {
        let shown = format!("{}:{}: {message}", at.file, at.line);
        self.findings.push(Finding { at, shown });
    }

    fn add_file(&mut self, file: &str, text: &str) {
        let src = Source::new(text);
        let at = |line| At {
            file: file.to_string(),
            line,
            text: src.text(line).to_string(),
        };
        self.files += 1;

        // Every `Ordering::*` use has an attached `// ordering:` comment.
        let mut flagged = Vec::new();
        for ord in ORDERINGS {
            for pos in src.find_word(ord) {
                if !src.code[..pos].trim_end().ends_with("Ordering::") {
                    continue; // an enum definition or a stray identifier
                }
                self.sites += 1;
                let line = src.line_of(pos);
                let justified = !attached(&src.lines, line - 1, "ordering:").is_empty();
                if justified || flagged.contains(&line) {
                    continue;
                }
                flagged.push(line);
                let why = format!("Ordering::{ord} without an `// ordering:` justification");
                self.push(at(line), why);
            }
        }

        // Publishes are tagged, tags sit on synchronising sites, and every
        // tag is claimed by some site.
        let mut claimed = Vec::new();
        for s in atomic_sites(&src) {
            let (method, ords) = (s.method, s.orderings.join("/"));
            if s.must_tag && s.labels.is_empty() {
                let why = format!("{method} at Ordering::{ords} names no `pairs-with:` partner");
                self.push(at(s.line), why);
            }
            if s.labels.is_empty() {
                continue;
            }
            if !s.rel_side && !s.acq_side {
                let labels = s.labels.join(", ");
                let why =
                    format!("`pairs-with: {labels}` on a non-synchronizing {method} ({ords})");
                self.push(at(s.line), why);
            }
            for label in &s.labels {
                let e = self.labels.entry(label.clone()).or_default();
                if s.rel_side {
                    e.rel.push(at(s.line));
                }
                if s.acq_side {
                    e.acq.push(at(s.line));
                }
            }
            // A site claims the tags on its line and up to SCAN_LIMIT + 1 above.
            claimed.extend(s.line.saturating_sub(SCAN_LIMIT + 1).max(1)..=s.line);
        }
        for (i, line) in src.lines.iter().enumerate() {
            if line.contains("pairs-with:") && !claimed.contains(&(i + 1)) {
                let why = "`pairs-with:` comment is not attached to any atomic operation";
                self.push(at(i + 1), why.into());
            }
        }
    }

    /// Every label needs both ends; a missing one is reported at the
    /// first end the label has.
    fn finish(mut self) -> Self {
        let mut dangling = Vec::new();
        for (label, s) in &self.labels {
            for (missing, other, ends) in [
                ("release-side partner: the publishing store", &s.rel, &s.acq),
                ("acquire-side partner: the observing load", &s.acq, &s.rel),
            ] {
                if other.is_empty() {
                    let why = format!("label `{label}` has no {missing} was deleted or weakened");
                    dangling.push((ends.first().cloned().unwrap_or_default(), why));
                }
            }
        }
        for (at, why) in dangling {
            self.push(at, why);
        }
        self
    }
}

/// An allowlist entry: file, trimmed line text, reason.
type Allowed<'a> = (&'a str, &'a str, &'a str);

/// What keeps a scan from passing: each finding `allowed` does not
/// accept, and each entry of `allowed` that accepts no finding.
fn unaccepted(findings: &[Finding], allowed: &[Allowed]) -> Vec<String> {
    let hit = |f: &Finding, a: &Allowed| f.at.file == a.0 && f.at.text == a.1;
    let mut out = Vec::new();
    for f in findings {
        if !allowed.iter().any(|a| hit(f, a)) {
            out.push(f.shown.clone());
        }
    }
    for a @ (file, text, _) in allowed {
        if !findings.iter().any(|f| hit(f, a)) {
            out.push(format!(
                "{file}: allowlist entry `{text}` matches no finding"
            ));
        }
    }
    out
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            if !EXCLUDE.contains(&entry.file_name().to_string_lossy().as_ref()) {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_ordering_site_is_justified_and_every_label_paired() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(root, &mut files);
    files.sort();
    let mut checker = Checker::default();
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path).to_string_lossy();
        if rel != SELF {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{rel}: {e}"));
            checker.add_file(&rel, &text);
        }
    }
    let c = checker.finish();
    let (files, sites, labels) = (c.files, c.sites, c.labels.len());
    eprintln!("ordering annotations: {files} files, {sites} ordering sites, {labels} pair labels");
    let problems = unaccepted(&c.findings, ALLOWED).join("\n");
    assert!(problems.is_empty(), "findings:\n{problems}");
    // A scoping bug that skips most of the tree must fail, not pass quietly.
    assert!(files >= 50, "only {files} files scanned");
    assert!(sites >= 200, "only {sites} ordering sites");
    assert!(labels >= 14, "only {labels} pair labels");
}

// Detection power: each check fires on its seeded violation, naming the
// line, and an intact source stays silent.

/// Checks `text` as the one file `t.rs`; its findings must begin with
/// `want`, one for one and in order.
fn assert_finds(text: &str, want: &[&str]) {
    let mut c = Checker::default();
    c.add_file("t.rs", text);
    let got: Vec<String> = c.finish().findings.into_iter().map(|f| f.shown).collect();
    let ok = got.len() == want.len() && got.iter().zip(want).all(|(g, w)| g.starts_with(w));
    assert!(ok, "want {want:?}\n got {got:?}");
}

/// Ward's `clean.rs` fixture, a fully annotated Release/Acquire
/// hand-off: the store is line 11, the load line 17.
const PAIRED: &str = r#"
struct Seed {
    flag: std::sync::atomic::AtomicBool,
}

impl Seed {
    fn publish(&self) {
        use std::sync::atomic::Ordering;
        // ordering: Release publish of the ready flag; the consumer's
        // Acquire load below completes the edge. pairs-with: demo.flag.
        self.flag.store(true, Ordering::Release);
    }

    fn observe(&self) -> bool {
        use std::sync::atomic::Ordering;
        // ordering: Acquire observe; pairs-with: demo.flag.
        self.flag.load(Ordering::Acquire)
    }
}
"#;

#[test]
fn scrub_blanks_comments_and_strings() {
    let text = "let x = \"unsafe // not\"; // unsafe\n/* a /* b */ unsafe */ fn f() {}";
    let s = Source::new(text);
    assert!(!s.code.contains("unsafe") && s.code.contains("let x = \""));
    assert!(s.code.contains("fn f") && s.code.len() == text.len());
}

#[test]
fn scrub_handles_raw_strings_and_chars() {
    let s = Source::new("let r = r#\"Ordering::Release\"#; let c = '}'; let l: &'a u8 = x;");
    assert!(!s.code.contains("Ordering") && !s.code.contains('}'));
    assert!(s.code.contains("&'a u8"));
    let s = Source::new("let b = br#\"x\"#; let c = b\"Ordering::SeqCst\"; let d = '\\'';");
    let code = &s.code;
    assert!(!code.contains("Ordering") && code.contains("br#\" \"#;") && code.ends_with("'  ';"));
}

#[test]
fn matching_brackets() {
    assert_eq!(matching("f(a, (b), c) d", 1), Some(11));
}

#[test]
fn label_lists_parse() {
    let labels = pair_labels(&["// ordering: x; pairs-with: a.b, c-d.".to_string()]);
    assert_eq!(labels, ["a.b", "c-d"]);
}

#[test]
fn intact_pair_is_silent() {
    assert_finds(PAIRED, &[]);
}

#[test]
fn seqcst_site_may_close_a_pair_without_tagging_requirement() {
    // A SeqCst RMW is both sides at once.
    let text = "fn a(x: &AtomicU64) {\n// ordering: SeqCst epoch; pairs-with: t.epoch.\n\
                x.fetch_add(1, Ordering::SeqCst);\n}\n";
    assert_finds(text, &[]);
}

/// Ward's `unjustified_ordering.rs` fixture.
#[test]
fn unjustified_ordering_is_detected() {
    let text = "// Fixture: no justification.\nfn seed(flag: &std::sync::atomic::AtomicBool) {\n\
                use std::sync::atomic::Ordering;\n    flag.store(true, Ordering::Relaxed);\n}\n";
    let want = "t.rs:4: Ordering::Relaxed without an `// ordering:`";
    assert_finds(text, &[want]);
}

#[test]
fn untagged_release_store_is_detected() {
    let text = "fn a(x: &AtomicBool) {\n// ordering: Release publish.\n\
                x.store(true, Ordering::Release);\n}\n";
    let want = "t.rs:3: store at Ordering::Release names no `pairs-with:` partner";
    assert_finds(text, &[want]);
}

#[test]
fn label_with_one_side_is_detected() {
    let text = "fn a(x: &AtomicBool) {\n// ordering: Release; pairs-with: t.flag.\n\
                x.store(true, Ordering::Release);\n}\n";
    assert_finds(text, &["t.rs:3: label `t.flag` has no acquire-side"]);
}

/// Ward's `dangling_pairs_with.rs` fixture: the weakened tag site and
/// the label it dangles are two findings.
#[test]
fn dangling_pairs_with_is_detected() {
    let text =
        "fn seed(flag: &std::sync::atomic::AtomicBool) {\n    use std::sync::atomic::Ordering;\n\
                // ordering: Release publish; pairs-with: fixture.ready.\n\
                flag.store(true, Ordering::Release);\n\
                // ordering: was Acquire, weakened in a refactor; pairs-with: fixture.ready.\n\
                let _ = flag.load(Ordering::Relaxed);\n}\n";
    let weak = "t.rs:6: `pairs-with: fixture.ready` on a non-synchronizing load";
    let dangling = "t.rs:4: label `fixture.ready` has no acquire-side";
    assert_finds(text, &[weak, dangling]);
}

#[test]
fn weakened_acquire_partner_is_detected() {
    let weak = "t.rs:17: `pairs-with: demo.flag` on a non-synchronizing load";
    let dangling = "t.rs:11: label `demo.flag` has no acquire-side";
    let mutant = PAIRED.replace("Ordering::Acquire", "Ordering::Relaxed");
    assert_finds(&mutant, &[weak, dangling]);
}

#[test]
fn weakened_release_side_is_detected() {
    let weak = "t.rs:11: `pairs-with: demo.flag` on a non-synchronizing store";
    let dangling = "t.rs:17: label `demo.flag` has no release-side";
    let mutant = PAIRED.replace("Ordering::Release", "Ordering::Relaxed");
    assert_finds(&mutant, &[weak, dangling]);
}

#[test]
fn deleted_acquire_partner_is_detected() {
    let cut = PAIRED.find("    fn observe").expect("observe in fixture");
    let dangling = "t.rs:11: label `demo.flag` has no acquire-side";
    assert_finds(&format!("{}}}\n", &PAIRED[..cut]), &[dangling]);
}

#[test]
fn orphan_pairs_with_comment_is_detected() {
    // A tag counts as claimed by any labelled site up to 21 lines below
    // it, so the stray one goes after the last site.
    let text =
        format!("{PAIRED}fn stray() {{\n    // pairs-with: demo.flag.\n    let x = 1;\n}}\n");
    assert_finds(&text, &["t.rs:21: `pairs-with:` comment is not attached"]);
}

#[test]
fn stale_allowlist_entry_is_detected() {
    let entry: [Allowed; 1] = [("t.rs", "x.store(1, Ordering::Relaxed);", "a test")];
    let mut c = Checker::default();
    c.add_file(
        "t.rs",
        "fn f(x: &AtomicU64) {\n    x.store(1, Ordering::Relaxed);\n}\n",
    );
    let c = c.finish();
    assert_eq!((c.findings.len(), c.sites), (1, 1));
    assert!(
        unaccepted(&c.findings, &entry).is_empty(),
        "the entry accepts the finding"
    );
    let want = "t.rs: allowlist entry `x.store(1, Ordering::Relaxed);` matches no finding";
    assert_eq!(unaccepted(&[], &entry), [want]);
}
