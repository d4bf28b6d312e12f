//! Findings, stable IDs, the machine-readable report, the suppression
//! baseline, and a minimal JSON reader for `--validate` — all
//! dependency-free (ward must build when nothing else does).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One analyzer finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Check slug (`pairing`, `ordering`, `baseline`).
    pub check: &'static str,
    /// Repo-relative path.
    pub file: String,
    /// 1-based line (0 = whole-file/cross-file finding).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// Content key the stable ID is derived from — deliberately
    /// line-number-free so IDs survive unrelated edits above the site.
    pub key: String,
}

impl Finding {
    /// New finding; `key` should name the construct, not its position.
    pub fn new(
        check: &'static str,
        file: impl Into<String>,
        line: usize,
        message: impl Into<String>,
        key: impl Into<String>,
    ) -> Self {
        Finding {
            check,
            file: file.into(),
            line,
            message: message.into(),
            key: key.into(),
        }
    }

    /// Stable finding ID: check + file + content key, FNV-1a hashed.
    pub fn id(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self
            .check
            .bytes()
            .chain(self.file.bytes())
            .chain([0u8])
            .chain(self.key.bytes())
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("W-{}-{:016x}", self.check.to_uppercase(), h)
    }
}

/// Scan-wide statistics surfaced in the report.
#[derive(Debug, Default, Clone)]
pub struct ScanStats {
    /// Files scanned.
    pub files: usize,
    /// `Ordering::*` sites seen.
    pub ordering_sites: usize,
    /// Distinct `pairs-with` labels.
    pub pair_labels: usize,
}

/// Report schema identifier (bump on breaking shape changes).
pub const SCHEMA: &str = "wafl.ward.v1";

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render the `results/ward.json` report. `suppressed` lists baseline
/// IDs that matched a finding this run; findings passed here are the
/// *unsuppressed* remainder. Deterministic: everything is sorted.
pub fn render_report(
    findings: &[Finding],
    suppressed: &[(String, Finding)],
    stats: &ScanStats,
) -> String {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for f in findings {
        *counts.entry(f.check).or_default() += 1;
    }
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(out, "  \"files_scanned\": {},", stats.files);
    let _ = writeln!(out, "  \"ordering_sites\": {},", stats.ordering_sites);
    let _ = writeln!(out, "  \"pair_labels\": {},", stats.pair_labels);
    out.push_str("  \"counts\": {");
    let mut first = true;
    for (k, v) in &counts {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\n    \"{}\": {}", esc(k), v);
    }
    out.push_str(if counts.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });
    out.push_str("  \"findings\": [");
    let mut sorted: Vec<&Finding> = findings.iter().collect();
    sorted.sort_by(|a, b| (&a.file, a.line, a.check).cmp(&(&b.file, b.line, b.check)));
    for (i, f) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"id\": \"{}\", \"check\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            esc(&f.id()),
            esc(f.check),
            esc(&f.file),
            f.line,
            esc(&f.message)
        );
    }
    out.push_str(if sorted.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    out.push_str("  \"suppressed\": [");
    let mut sup: Vec<&(String, Finding)> = suppressed.iter().collect();
    sup.sort_by(|a, b| a.0.cmp(&b.0));
    for (i, (id, f)) in sup.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"id\": \"{}\", \"check\": \"{}\", \"file\": \"{}\"}}",
            esc(id),
            esc(f.check),
            esc(&f.file)
        );
    }
    out.push_str(if sup.is_empty() { "]\n" } else { "\n  ]\n" });
    out.push_str("}\n");
    out
}

/// Parse the suppression baseline: one finding ID per line, `#` starts a
/// comment (a reason is expected but not enforced). Returns IDs in file
/// order.
pub fn parse_baseline(text: &str) -> Vec<String> {
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(|l| l.to_string())
        .collect()
}

// ---------------------------------------------------------------------------
// Minimal JSON reader — just enough to validate a ward report's shape
// without pulling in a parser crate.
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true`/`false`
    Bool(bool),
    /// Any number (kept as f64; ward only writes integers).
    Num(f64),
    /// String
    Str(String),
    /// Array
    Arr(Vec<Json>),
    /// Object (insertion order kept)
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Number view.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parse a JSON document (strict enough for validation purposes).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let b = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut kv = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(kv));
            }
            loop {
                skip_ws(b, pos);
                let Json::Str(k) = parse_value(b, pos)? else {
                    return Err(format!("object key is not a string at {pos}"));
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at {pos}"));
                }
                *pos += 1;
                let v = parse_value(b, pos)?;
                kv.push((k, v));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(kv));
                    }
                    _ => return Err(format!("expected ',' or '}}' at {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(arr));
            }
            loop {
                arr.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(arr));
                    }
                    _ => return Err(format!("expected ',' or ']' at {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            while let Some(&c) = b.get(*pos) {
                *pos += 1;
                match c {
                    b'"' => return Ok(Json::Str(s)),
                    b'\\' => {
                        let e = *b.get(*pos).ok_or("eof in escape")?;
                        *pos += 1;
                        match e {
                            b'n' => s.push('\n'),
                            b't' => s.push('\t'),
                            b'r' => s.push('\r'),
                            b'u' => {
                                let hex =
                                    std::str::from_utf8(b.get(*pos..*pos + 4).ok_or("eof in \\u")?)
                                        .map_err(|e| e.to_string())?;
                                let n = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                                s.push(char::from_u32(n).unwrap_or('\u{fffd}'));
                                *pos += 4;
                            }
                            c => s.push(c as char),
                        }
                    }
                    c => s.push(c as char),
                }
            }
            Err("unterminated string".into())
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            *pos += 1;
            while let Some(&c) = b.get(*pos) {
                if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
                    *pos += 1;
                } else {
                    break;
                }
            }
            std::str::from_utf8(&b[start..*pos])
                .ok()
                .and_then(|s| s.parse().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("bad number at {start}"))
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        _ => Err(format!("unexpected byte at {pos}")),
    }
}

/// Validate a ward report document against the `wafl.ward.v1` shape.
pub fn validate_report(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing \"schema\"")?;
    if schema != SCHEMA {
        return Err(format!("schema is {schema:?}, expected {SCHEMA:?}"));
    }
    for key in ["files_scanned", "ordering_sites", "pair_labels"] {
        doc.get(key)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("missing numeric \"{key}\""))?;
    }
    doc.get("counts").ok_or("missing \"counts\"")?;
    let findings = doc
        .get("findings")
        .and_then(Json::as_arr)
        .ok_or("missing \"findings\" array")?;
    for f in findings {
        for key in ["id", "check", "file", "message"] {
            f.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("finding missing string \"{key}\""))?;
        }
        f.get("line")
            .and_then(Json::as_num)
            .ok_or("finding missing numeric \"line\"")?;
        let id = f.get("id").and_then(Json::as_str).unwrap_or("");
        if !id.starts_with("W-") {
            return Err(format!("finding id {id:?} lacks the W- prefix"));
        }
    }
    doc.get("suppressed")
        .and_then(Json::as_arr)
        .ok_or("missing \"suppressed\" array")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stable_and_line_free() {
        let a = Finding::new("pairing", "a.rs", 10, "msg", "label:foo");
        let b = Finding::new("pairing", "a.rs", 99, "other msg", "label:foo");
        assert_eq!(a.id(), b.id());
        let c = Finding::new("pairing", "a.rs", 10, "msg", "label:bar");
        assert_ne!(a.id(), c.id());
    }

    #[test]
    fn report_roundtrips_through_validator() {
        let f = vec![Finding::new("pairing", "x.rs", 3, "boom \"q\"", "k")];
        let s = render_report(&f, &[], &ScanStats::default());
        validate_report(&s).unwrap();
        let empty = render_report(&[], &[], &ScanStats::default());
        validate_report(&empty).unwrap();
    }

    #[test]
    fn baseline_parses_comments() {
        let ids = parse_baseline("# header\nW-X-1 # reason\n\nW-Y-2\n");
        assert_eq!(ids, vec!["W-X-1", "W-Y-2"]);
    }

    #[test]
    fn validator_rejects_wrong_schema() {
        let bad = "{\"schema\": \"other\", \"findings\": [], \"suppressed\": []}";
        assert!(validate_report(bad).is_err());
    }
}
