//! Source scrubbing: a small Rust lexer that blanks comments and
//! string/char-literal *contents* while preserving byte offsets, so every
//! downstream check can scan for tokens without tripping over `"unsafe"`
//! inside a string or `Ordering::Release` inside a doc comment.
//!
//! Unlike the regex lint this replaces, the scrubber understands nested
//! block comments, raw strings (`r#"…"#`), byte strings, char literals,
//! and lifetimes, and it keeps the scrubbed buffer the same length as
//! the original, so positions and line numbers map one-to-one.

/// A source file with both the original text and the scrubbed view.
pub struct Scrubbed {
    /// Original text, untouched (comments readable — the annotation
    /// checks need them).
    pub text: String,
    /// Same length as `text`: comments and literal contents replaced by
    /// spaces (string *delimiters* are kept so statement shapes survive).
    pub code: String,
    /// Byte offset of the start of each line (index 0 = line 1).
    line_starts: Vec<usize>,
}

#[derive(Copy, Clone, PartialEq)]
enum St {
    Normal,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

impl Scrubbed {
    /// Lex `text` into a scrubbed view.
    pub fn new(text: &str) -> Self {
        let b = text.as_bytes();
        let mut out = b.to_vec();
        let mut st = St::Normal;
        let mut i = 0;
        while i < b.len() {
            let c = b[i];
            match st {
                St::Normal => match c {
                    b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                        st = St::LineComment;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 1;
                    }
                    b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                        st = St::BlockComment(1);
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 1;
                    }
                    b'"' => st = St::Str,
                    b'r' | b'b' if !prev_is_ident(b, i) => {
                        // Possible raw/byte string prefix: r"…", r#"…"#,
                        // b"…", br#"…"#.
                        let mut j = i + 1;
                        if c == b'b' && j < b.len() && b[j] == b'r' {
                            j += 1;
                        }
                        let mut hashes = 0u32;
                        while j < b.len() && b[j] == b'#' {
                            hashes += 1;
                            j += 1;
                        }
                        if j < b.len() && b[j] == b'"' && (c != b'b' || j > i + 1 || hashes > 0) {
                            st = St::RawStr(hashes);
                            i = j; // leave prefix + opening quote visible
                        } else if c == b'b' && i + 1 < b.len() && b[i + 1] == b'"' {
                            st = St::Str;
                            i += 1;
                        }
                    }
                    b'\'' => {
                        // Char literal or lifetime. `'\…'` and `'x'` are
                        // literals; `'ident` (no closing quote) is a
                        // lifetime and is left alone.
                        if i + 1 < b.len() && b[i + 1] == b'\\' {
                            st = St::Char;
                        } else if i + 2 < b.len() && b[i + 2] == b'\'' && b[i + 1] != b'\'' {
                            out[i + 1] = b' ';
                            i += 2; // skip over `x'`
                        }
                    }
                    _ => {}
                },
                St::LineComment => {
                    if c == b'\n' {
                        st = St::Normal;
                    } else {
                        out[i] = b' ';
                    }
                }
                St::BlockComment(d) => {
                    if c == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 1;
                        st = if d == 1 {
                            St::Normal
                        } else {
                            St::BlockComment(d - 1)
                        };
                    } else if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 1;
                        st = St::BlockComment(d + 1);
                    } else if c != b'\n' {
                        out[i] = b' ';
                    }
                }
                St::Str => {
                    if c == b'\\' && i + 1 < b.len() {
                        out[i] = b' ';
                        if b[i + 1] != b'\n' {
                            out[i + 1] = b' ';
                        }
                        i += 1;
                    } else if c == b'"' {
                        st = St::Normal;
                    } else if c != b'\n' {
                        out[i] = b' ';
                    }
                }
                St::RawStr(hashes) => {
                    if c == b'"' {
                        // Close iff followed by `hashes` hash marks.
                        let mut j = i + 1;
                        let mut h = 0u32;
                        while j < b.len() && b[j] == b'#' && h < hashes {
                            h += 1;
                            j += 1;
                        }
                        if h == hashes {
                            i = j - 1; // keep quote + hashes visible
                            st = St::Normal;
                        } else if c != b'\n' {
                            out[i] = b' ';
                        }
                    } else if c != b'\n' {
                        out[i] = b' ';
                    }
                }
                St::Char => {
                    if c == b'\\' && i + 1 < b.len() {
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 1;
                    } else if c == b'\'' {
                        st = St::Normal;
                    } else {
                        out[i] = b' ';
                    }
                }
            }
            i += 1;
        }
        let mut line_starts = vec![0usize];
        for (k, &ch) in b.iter().enumerate() {
            if ch == b'\n' {
                line_starts.push(k + 1);
            }
        }
        Scrubbed {
            text: text.to_string(),
            code: String::from_utf8_lossy(&out).into_owned(),
            line_starts,
        }
    }

    /// 1-based line number of byte offset `pos`.
    pub fn line_of(&self, pos: usize) -> usize {
        match self.line_starts.binary_search(&pos) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// Original lines (without trailing newlines).
    pub fn lines(&self) -> Vec<&str> {
        self.text.lines().collect()
    }
}

fn prev_is_ident(b: &[u8], i: usize) -> bool {
    i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_')
}

/// Is `c` an identifier byte?
pub fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Every occurrence of identifier `word` in `code` (whole-token matches).
pub fn find_word(code: &str, word: &str) -> Vec<usize> {
    let b = code.as_bytes();
    let w = word.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(off) = code[from..].find(word) {
        let at = from + off;
        let pre_ok = at == 0 || !is_ident(b[at - 1]);
        let post = at + w.len();
        let post_ok = post >= b.len() || !is_ident(b[post]);
        if pre_ok && post_ok {
            out.push(at);
        }
        from = at + w.len().max(1);
    }
    out
}

/// The identifier ending just before byte `end` (exclusive), if any.
pub fn ident_before(code: &str, end: usize) -> Option<(usize, String)> {
    let b = code.as_bytes();
    let mut j = end;
    while j > 0 && b[j - 1].is_ascii_whitespace() {
        j -= 1;
    }
    let stop = j;
    while j > 0 && is_ident(b[j - 1]) {
        j -= 1;
    }
    if j == stop {
        return None;
    }
    Some((j, code[j..stop].to_string()))
}

/// The identifier starting at or after byte `from`, skipping whitespace.
pub fn ident_after(code: &str, from: usize) -> Option<(usize, String)> {
    let b = code.as_bytes();
    let mut j = from;
    while j < b.len() && b[j].is_ascii_whitespace() {
        j += 1;
    }
    let start = j;
    while j < b.len() && is_ident(b[j]) {
        j += 1;
    }
    if j == start {
        return None;
    }
    Some((start, code[start..j].to_string()))
}

/// Byte offset of the delimiter matching the opener at `open` (one of
/// `(`, `[`, `{`), scanning the scrubbed view.
pub fn matching(code: &str, open: usize) -> Option<usize> {
    let b = code.as_bytes();
    let (o, c) = match b.get(open)? {
        b'(' => (b'(', b')'),
        b'[' => (b'[', b']'),
        b'{' => (b'{', b'}'),
        _ => return None,
    };
    let mut depth = 0i64;
    for (k, &ch) in b.iter().enumerate().skip(open) {
        if ch == o {
            depth += 1;
        } else if ch == c {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Comment attachment: the rule the Python lint established, kept
// compatible so every existing `// ordering:` / `// SAFETY:` comment in
// the tree still attaches to its statement.
// ---------------------------------------------------------------------------

/// How far upward the statement scan may walk before giving up.
const SCAN_LIMIT: usize = 20;

fn comment_part(line: &str) -> Option<&str> {
    line.find("//").map(|i| &line[i..])
}

fn is_comment_line(line: &str) -> bool {
    line.trim_start().starts_with("//")
}

fn code_part(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Does the statement containing line `idx` (0-based) carry `tag` in an
/// attached comment? Attachment: the tag counts on the line itself, on a
/// continuation line of the same statement, or in the contiguous comment
/// block immediately above the statement.
pub fn statement_has_tag(lines: &[&str], idx: usize, tag: &str) -> bool {
    !attached_comment(lines, idx, tag).is_empty()
}

/// The attached comment text for line `idx` filtered to segments
/// containing `tag` (pass `""` to collect the whole attached block).
/// Returned segments are ordered top-down.
pub fn attached_comment(lines: &[&str], idx: usize, tag: &str) -> Vec<String> {
    let mut hits = Vec::new();
    if let Some(c) = comment_part(lines[idx]) {
        if c.contains(tag) {
            hits.push(c.to_string());
        }
    }
    let mut above = Vec::new();
    for off in 1..=SCAN_LIMIT {
        let Some(j) = idx.checked_sub(off) else { break };
        let prev = lines[j];
        if is_comment_line(prev) {
            if prev.contains(tag) {
                above.push(prev.trim_start().to_string());
            }
            continue; // comment block: keep climbing
        }
        let stripped = prev.trim();
        if stripped.is_empty() {
            break; // blank line: left the statement
        }
        if let Some(c) = comment_part(prev) {
            if c.contains(tag) {
                above.push(c.to_string());
            }
        }
        let code = code_part(prev).trim_end();
        if code.ends_with(';') || code.ends_with('{') || code.ends_with('}') {
            break; // previous statement: stop
        }
        // Continuation line (ends with ',', '(', operator, …): keep going.
    }
    above.reverse();
    above.append(&mut hits);
    above
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_blanks_comments_and_strings() {
        let s = Scrubbed::new("let x = \"unsafe // not\"; // unsafe\nlet y = 1;");
        assert!(!s.code.contains("unsafe"));
        assert!(s.code.contains("let x = \""));
        assert_eq!(s.code.len(), s.text.len());
    }

    #[test]
    fn scrub_handles_raw_strings_and_chars() {
        let s = Scrubbed::new("let r = r#\"Ordering::Release\"#; let c = '}'; let l: &'a u8 = x;");
        assert!(!s.code.contains("Ordering"));
        assert!(!s.code.contains('}'));
        assert!(s.code.contains("&'a u8"));
    }

    #[test]
    fn scrub_handles_nested_block_comments() {
        let s = Scrubbed::new("/* a /* b */ still comment */ fn f() {}");
        assert!(!s.code.contains("still"));
        assert!(s.code.contains("fn f"));
    }

    #[test]
    fn matching_brackets() {
        let code = "f(a, (b), c) d";
        assert_eq!(matching(code, 1), Some(11));
    }
}
