//! Lock-order graph: every `Mutex`/`RwLock` declaration carries a
//! `// lock-rank: <name> <n> [via <alias>,…]` annotation; ward extracts
//! nested-acquisition edges per function and fails on any rank
//! inversion, unranked declaration, or duplicate rank name. A lock that
//! exists only as a map's value type is declared on a `type` alias for
//! its handle, carrying the same annotation (`volume.inode`).
//!
//! The rule: while a guard of rank *r* is live, only locks of rank
//! strictly greater than *r* may be acquired. Acquiring another instance
//! of the *same* named lock (one RAID group's per-drive `drive.content`
//! mutexes) is allowed at equal rank.
//!
//! The analysis is intra-procedural and lexical: a guard bound with
//! `let g = …lock()` lives to the end of its block (or an explicit
//! `drop(g)`); an unbound `…lock()` temporary dies at its statement's
//! `;`. Cross-function holds are outside the graph.

use crate::report::Finding;
use crate::scrub::{
    attached_comment, find_word, ident_after, ident_before, is_ident, matching, Scrubbed,
};

/// One ranked lock declaration.
#[derive(Debug, Clone)]
pub struct LockDecl {
    /// Global rank name (`cache.queue`).
    pub name: String,
    /// Rank number; smaller acquires first.
    pub rank: u32,
    /// Field/static identifier at the declaration.
    pub field: String,
    /// Extra acquisition identifiers that resolve to this lock
    /// (wrapper methods like `lock_shard`, or the usual name of a handle).
    pub aliases: Vec<String>,
    /// An `RwLock`: `.read()`/`.write()` acquire it. On a `Mutex` those
    /// are calls on the guarded value.
    pub rwlock: bool,
    /// Repo-relative declaring file.
    pub file: String,
    /// 1-based declaration line.
    pub line: usize,
}

/// A nested-acquisition edge: `held` was live when `acquired` was taken.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    /// Rank name of the lock already held.
    pub held: String,
    /// Rank name of the lock acquired under it.
    pub acquired: String,
    /// Where the nested acquisition happens.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Enclosing function name.
    pub func: String,
}

/// Find `Mutex<`/`RwLock<` declarations in a file and their
/// `lock-rank:` annotations. Returns decls; pushes findings for
/// unranked or malformed declarations.
pub fn collect_decls(rel: &str, src: &Scrubbed, findings: &mut Vec<Finding>) -> Vec<LockDecl> {
    let lines = src.lines();
    let mut out = Vec::new();
    for ty in ["Mutex", "RwLock"] {
        for pos in find_word(&src.code, ty) {
            let after = pos + ty.len();
            if src.code.as_bytes().get(after) != Some(&b'<') {
                continue; // `Mutex::new`, `impl<T> Mutex<T>` handled below
            }
            let ln = src.line_of(pos);
            let code_line = line_code(src, ln);
            let t = code_line.trim_start();
            // A ranked `type` alias declares the lock behind a handle.
            if let Some(alias) = t
                .strip_prefix("pub type ")
                .or_else(|| t.strip_prefix("type "))
            {
                let ranked = attached_comment(&lines, ln - 1, "lock-rank:");
                if let Some((name, rank, aliases)) = ranked.iter().rev().find_map(|s| parse_rank(s))
                {
                    let field: String = alias.chars().take_while(|c| is_ident(*c as u8)).collect();
                    if !out.iter().any(|d: &LockDecl| d.line == ln) {
                        out.push(LockDecl {
                            name,
                            rank,
                            field,
                            aliases,
                            rwlock: outermost_is_rwlock(code_line),
                            file: rel.to_string(),
                            line: ln,
                        });
                    }
                }
                continue;
            }
            // Skip type definitions, impls, and function signatures — a
            // rank belongs to a *lock instance* (field or static), not
            // to the `Mutex` type itself or a type that merely mentions
            // it in a signature.
            if t.starts_with("struct ")
                || t.starts_with("pub struct ")
                || t.starts_with("impl")
                || t.starts_with("unsafe impl")
                || t.contains("fn ")
            {
                continue;
            }
            // Field or static: `name: …Mutex<…>` / `static NAME: Mutex<…>`.
            let Some(colon) = code_line[..pos - line_start(src, ln)].rfind(':') else {
                continue;
            };
            let abs_colon = line_start(src, ln) + colon;
            // `::` is a path separator, not a field declaration…
            if src.code.as_bytes().get(abs_colon.wrapping_sub(1)) == Some(&b':')
                || src.code.as_bytes().get(abs_colon + 1) == Some(&b':')
            {
                // …unless an earlier single `:` on the line declares the
                // field (e.g. `q: parking_lot::Mutex<…>`).
                let Some(field_colon) = first_decl_colon(code_line) else {
                    continue;
                };
                let abs = line_start(src, ln) + field_colon;
                push_decl(rel, src, &lines, ln, abs, findings, &mut out);
                continue;
            }
            push_decl(rel, src, &lines, ln, abs_colon, findings, &mut out);
        }
    }
    out
}

/// First `:` on the line that is not part of a `::`.
fn first_decl_colon(line: &str) -> Option<usize> {
    let b = line.as_bytes();
    let mut i = 0;
    while i < b.len() {
        if b[i] == b':' {
            if b.get(i + 1) == Some(&b':') {
                i += 2;
                continue;
            }
            return Some(i);
        }
        i += 1;
    }
    None
}

fn push_decl(
    rel: &str,
    src: &Scrubbed,
    lines: &[&str],
    ln: usize,
    abs_colon: usize,
    findings: &mut Vec<Finding>,
    out: &mut Vec<LockDecl>,
) {
    let Some((_, field)) = ident_before(&src.code, abs_colon) else {
        return;
    };
    if out.iter().any(|d: &LockDecl| d.line == ln)
        || findings
            .iter()
            .any(|f| f.check == "lock-rank" && f.file == rel && f.line == ln)
    {
        return; // one decl per line (nested `Mutex<…RwLock<…>>` counts once)
    }
    let attached = attached_comment(lines, ln - 1, "lock-rank:");
    // Nearest segment wins: struct fields end with `,`, which the
    // attachment rule treats as a continuation, so the upward scan can
    // climb past a sibling field and see *its* rank comment too.
    let Some(parsed) = attached.iter().rev().find_map(|s| parse_rank(s)) else {
        findings.push(Finding::new(
            "lock-rank",
            rel,
            ln,
            format!(
                "lock declaration `{field}` has no `// lock-rank: <name> <n>` \
                 annotation — every lock must state its place in the global \
                 acquisition order"
            ),
            format!("unranked:{field}"),
        ));
        return;
    };
    let (name, rank, aliases) = parsed;
    out.push(LockDecl {
        name,
        rank,
        field: field.clone(),
        aliases,
        rwlock: outermost_is_rwlock(line_code(src, ln)),
        file: rel.to_string(),
        line: ln,
    });
}

/// The outermost lock type on a declaration line is the one its rank names.
fn outermost_is_rwlock(decl: &str) -> bool {
    match (decl.find("RwLock<"), decl.find("Mutex<")) {
        (Some(rw), Some(mx)) => rw < mx,
        (rw, _) => rw.is_some(),
    }
}

/// Parse `lock-rank: <name> <n> [via a,b]` from a comment segment.
fn parse_rank(seg: &str) -> Option<(String, u32, Vec<String>)> {
    let rest = &seg[seg.find("lock-rank:")? + "lock-rank:".len()..];
    let mut it = rest.split_whitespace();
    let name = it.next()?.trim_end_matches(['.', ',']).to_string();
    let rank: u32 = it.next()?.trim_end_matches(['.', ',']).parse().ok()?;
    let mut aliases = Vec::new();
    if it.next() == Some("via") {
        for a in it.flat_map(|t| t.split(',')) {
            let a = a.trim().trim_end_matches('.');
            if !a.is_empty() {
                aliases.push(a.to_string());
            }
        }
    }
    Some((name, rank, aliases))
}

/// Registry of declared locks across the workspace.
#[derive(Debug, Default)]
pub struct LockRegistry {
    /// All declarations.
    pub decls: Vec<LockDecl>,
}

impl LockRegistry {
    /// Add a file's declarations, flagging duplicate rank names.
    pub fn add(&mut self, decls: Vec<LockDecl>, findings: &mut Vec<Finding>) {
        for d in decls {
            if let Some(prev) = self.decls.iter().find(|p| p.name == d.name) {
                findings.push(Finding::new(
                    "lock-rank",
                    d.file.clone(),
                    d.line,
                    format!(
                        "rank name `{}` already declared at {}:{} — rank names \
                         are global and must be unique",
                        d.name, prev.file, prev.line
                    ),
                    format!("dup:{}", d.name),
                ));
                continue;
            }
            self.decls.push(d);
        }
    }

    /// Resolve an acquisition receiver identifier within `file`:
    /// same-file field/alias match wins, then a unique global match.
    pub fn resolve(&self, file: &str, ident: &str) -> Option<&LockDecl> {
        let hit = |d: &&LockDecl| d.field == ident || d.aliases.iter().any(|a| a == ident);
        if let Some(d) = self.decls.iter().filter(|d| d.file == file).find(hit) {
            return Some(d);
        }
        let mut global = self.decls.iter().filter(hit);
        let first = global.next()?;
        if global.next().is_some() {
            return None; // ambiguous across files: don't guess
        }
        Some(first)
    }
}

fn line_start(src: &Scrubbed, ln: usize) -> usize {
    // Reconstruct from line_of by scanning — cheap enough at our sizes.
    let mut start = 0;
    for (i, l) in src.code.lines().enumerate() {
        if i + 1 == ln {
            return start;
        }
        start += l.len() + 1;
    }
    start
}

fn line_code(src: &Scrubbed, ln: usize) -> &str {
    src.code.lines().nth(ln - 1).unwrap_or("")
}

/// A live guard during the function walk.
struct Guard {
    lock: String,
    rank: u32,
    var: Option<String>,
    depth: u32,
    /// Temporaries die at the next `;` at or below their depth.
    temp: bool,
}

/// Walk every function in `src`, extract nested-acquisition edges, and
/// flag rank inversions against the registry.
pub fn check_file_edges(
    rel: &str,
    src: &Scrubbed,
    reg: &LockRegistry,
    findings: &mut Vec<Finding>,
) -> Vec<LockEdge> {
    let mut edges = Vec::new();
    let code = &src.code;
    let b = code.as_bytes();
    for fpos in find_word(code, "fn") {
        let Some((_, fname)) = ident_after(code, fpos + 2) else {
            continue;
        };
        // Body = first `{` after the parameter list closes.
        let Some(paren) = code[fpos..].find('(').map(|i| fpos + i) else {
            continue;
        };
        let Some(paren_close) = matching(code, paren) else {
            continue;
        };
        let Some(body_open) = code[paren_close..].find('{').map(|i| paren_close + i) else {
            continue;
        };
        // A `;` before the `{` means a trait-method declaration.
        if code[paren_close..body_open].contains(';') {
            continue;
        }
        let Some(body_close) = matching(code, body_open) else {
            continue;
        };
        walk_body(
            rel, src, reg, &fname, b, body_open, body_close, findings, &mut edges,
        );
    }
    edges
}

#[allow(clippy::too_many_arguments)]
fn walk_body(
    rel: &str,
    src: &Scrubbed,
    reg: &LockRegistry,
    fname: &str,
    b: &[u8],
    open: usize,
    close: usize,
    findings: &mut Vec<Finding>,
    edges: &mut Vec<LockEdge>,
) {
    let code = std::str::from_utf8(b).unwrap_or_default();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth: u32 = 0;
    let mut i = open;
    while i <= close {
        match b[i] {
            b'{' => depth += 1,
            b'}' => {
                guards.retain(|g| g.depth < depth);
                depth = depth.saturating_sub(1);
            }
            b';' => guards.retain(|g| !(g.temp && g.depth >= depth)),
            c if is_ident(c) => {
                let start = i;
                while i < close && i + 1 < b.len() && is_ident(b[i + 1]) {
                    i += 1;
                }
                let word = &code[start..=i];
                let next = next_nonspace(b, i + 1);
                if word == "drop" && next == Some(b'(') {
                    if let Some((_, victim)) =
                        ident_after(code, code[i..].find('(').map(|p| i + p + 1).unwrap_or(i))
                    {
                        guards.retain(|g| g.var.as_deref() != Some(victim.as_str()));
                    }
                } else if is_acquisition(word) && next == Some(b'(') {
                    let decl = resolve_acquisition(code, start, word, rel, reg);
                    if let Some(decl) = decl {
                        let ln = src.line_of(start);
                        for g in &guards {
                            if g.lock == decl.name {
                                continue; // another instance of the same named lock
                            }
                            edges.push(LockEdge {
                                held: g.lock.clone(),
                                acquired: decl.name.clone(),
                                file: rel.to_string(),
                                line: ln,
                                func: fname.to_string(),
                            });
                            if decl.rank <= g.rank {
                                findings.push(Finding::new(
                                    "lock-rank",
                                    rel,
                                    ln,
                                    format!(
                                        "fn {fname}: acquires `{}` (rank {}) while \
                                         holding `{}` (rank {}) — rank order says \
                                         {} must be taken first; this edge inverts \
                                         the global acquisition order",
                                        decl.name, decl.rank, g.lock, g.rank, decl.name
                                    ),
                                    format!("inversion:{fname}:{}<{}", decl.name, g.lock),
                                ));
                            }
                        }
                        let (var, temp) = binding_of(code, start);
                        guards.push(Guard {
                            lock: decl.name.clone(),
                            rank: decl.rank,
                            var,
                            depth,
                            temp,
                        });
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

fn next_nonspace(b: &[u8], mut i: usize) -> Option<u8> {
    while i < b.len() && b[i].is_ascii_whitespace() {
        i += 1;
    }
    b.get(i).copied()
}

fn is_acquisition(word: &str) -> bool {
    matches!(word, "lock" | "try_lock" | "read" | "write") || word.starts_with("lock_")
}

/// Resolve the lock a call acquires: for `.lock()`/`.read()`/`.write()`
/// the receiver field identifier; for `lock_*` wrappers the wrapper name
/// itself (declared as a `via` alias).
fn resolve_acquisition<'r>(
    code: &str,
    start: usize,
    word: &str,
    file: &str,
    reg: &'r LockRegistry,
) -> Option<&'r LockDecl> {
    if word.starts_with("lock_") {
        return reg.resolve(file, word);
    }
    // Must be a method call `.word(`; free `read(`/`write(` are I/O.
    let b = code.as_bytes();
    let mut j = start;
    while j > 0 && b[j - 1].is_ascii_whitespace() {
        j -= 1;
    }
    if j == 0 || b[j - 1] != b'.' {
        return None;
    }
    let (_, recv) = ident_before(code, j - 1)?;
    let decl = reg.resolve(file, &recv)?;
    // `.read()`/`.write()` only count against RwLocks; a `.lock()` on a
    // resolved decl always counts.
    (decl.rwlock || !matches!(word, "read" | "write")).then_some(decl)
}

/// How the acquisition's guard is bound: `(Some(name), false)` for
/// `let name = …`, `(None, true)` for a temporary.
fn binding_of(code: &str, site: usize) -> (Option<String>, bool) {
    let b = code.as_bytes();
    // Scan back to the statement opener.
    let mut j = site;
    while j > 0 && !matches!(b[j - 1], b';' | b'{' | b'}') {
        j -= 1;
    }
    let stmt = &code[j..site];
    if let Some(p) = stmt.rfind("let ") {
        let after = &stmt[p + 4..];
        let after = after.trim_start().trim_start_matches("mut ").trim_start();
        let end = after
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(after.len());
        let name = &after[..end];
        if name == "_" || name.is_empty() {
            return (None, true);
        }
        return (Some(name.to_string()), false);
    }
    (None, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(textual: &str) -> (Vec<Finding>, Vec<LockEdge>) {
        let src = Scrubbed::new(textual);
        let mut findings = Vec::new();
        let decls = collect_decls("t.rs", &src, &mut findings);
        let mut reg = LockRegistry::default();
        reg.add(decls, &mut findings);
        let edges = check_file_edges("t.rs", &src, &reg, &mut findings);
        (findings, edges)
    }

    const DECLS: &str = "struct S {\n\
        // lock-rank: t.outer 10\n\
        outer: Mutex<u32>,\n\
        // lock-rank: t.inner 20\n\
        inner: Mutex<u32>,\n\
        }\n";

    #[test]
    fn correct_nesting_produces_edge_no_finding() {
        let text = format!(
            "{DECLS}impl S {{\nfn ok(&self) {{\n\
             let g = self.outer.lock();\n\
             let h = self.inner.lock();\n\
             drop(h); drop(g);\n}}\n}}\n"
        );
        let (f, e) = run(&text);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].held, "t.outer");
        assert_eq!(e[0].acquired, "t.inner");
    }

    #[test]
    fn inversion_is_flagged() {
        let text = format!(
            "{DECLS}impl S {{\nfn bad(&self) {{\n\
             let g = self.inner.lock();\n\
             let h = self.outer.lock();\n\
             drop(h); drop(g);\n}}\n}}\n"
        );
        let (f, _) = run(&text);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("inverts"));
    }

    #[test]
    fn unranked_decl_is_flagged() {
        let (f, _) = run("struct S {\n    naked: Mutex<u32>,\n}\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("lock-rank"));
    }

    #[test]
    fn temporaries_die_at_statement_end() {
        let text = format!(
            "{DECLS}impl S {{\nfn ok(&self) {{\n\
             self.inner.lock().checked_add(1);\n\
             let g = self.outer.lock();\n\
             drop(g);\n}}\n}}\n"
        );
        let (f, e) = run(&text);
        assert!(f.is_empty(), "{f:?}");
        assert!(e.is_empty(), "{e:?}");
    }

    #[test]
    fn scope_exit_releases_guards() {
        let text = format!(
            "{DECLS}impl S {{\nfn ok(&self) {{\n\
             {{ let g = self.inner.lock(); drop(g); }}\n\
             let h = self.outer.lock();\n\
             drop(h);\n}}\n}}\n"
        );
        let (f, _) = run(&text);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn wrapper_alias_resolves() {
        let text = "struct C {\n\
             // lock-rank: t.publish 10 via lock_publish\n\
             publish: Mutex<()>,\n\
             // lock-rank: t.shard 20 via lock_shard\n\
             q: Mutex<u32>,\n\
             }\n\
             impl C {\n\
             fn insert(&self) {\n\
             let p = self.lock_publish();\n\
             let s = self.lock_shard(0);\n\
             drop(s); drop(p);\n}\n}\n";
        let (f, e) = run(text);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].acquired, "t.shard");
    }

    #[test]
    fn same_lock_reacquisition_is_not_an_inversion() {
        let text = "struct C {\n\
             // lock-rank: t.shard 20 via lock_shard\n\
             q: Mutex<u32>,\n\
             }\n\
             impl C {\n\
             fn insert_all(&self) {\n\
             let mut guards = Vec::new();\n\
             for (s, _) in self.shards.iter().enumerate() {\n\
             guards.push(self.lock_shard(s));\n\
             }\n}\n}\n";
        let (f, e) = run(text);
        assert!(f.is_empty(), "{f:?}");
        assert!(e.is_empty());
    }
}
