//! A minimal Rust lexer for lexical linting.
//!
//! The linter does not need full parsing: every rule is a token-pattern
//! check scoped to configured paths. What it *does* need, to avoid false
//! positives, is to distinguish code from comments and string/char
//! literals, and to know which lines belong to `#[cfg(test)]` / `#[test]`
//! regions (rules only govern production code).
//!
//! [`scrub`] produces a copy of the source in which the *contents* of
//! comments and string/char literals are replaced by spaces, preserving
//! line structure exactly, so byte offsets and line numbers in the
//! scrubbed text match the original. Line comments are captured verbatim
//! on the side because `// lint: allow(<rule>) <reason>` annotations live
//! there.

/// Result of scrubbing one source file.
#[derive(Debug)]
pub(crate) struct Scrubbed {
    /// Source with comment and literal contents blanked; identical line
    /// structure to the input.
    pub code: String,
    /// For each line (0-based), the text of any `//` comment on it.
    pub line_comments: Vec<String>,
    /// For each line (0-based), whether it lies inside a test region.
    pub test_mask: Vec<bool>,
}

/// Blank out comments and string/char literal contents, keeping line
/// structure. Handles nested block comments, escapes, raw strings
/// (`r"…"`, `r#"…"#`, and their `b`-prefixed forms) and the char-literal
/// vs. lifetime ambiguity.
pub(crate) fn scrub(src: &str) -> Scrubbed {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut out = String::with_capacity(src.len());
    let mut comments: Vec<String> = vec![String::new()];
    let mut line = 0usize;

    let mut i = 0usize;
    // Push `c` to the output, tracking lines.
    macro_rules! emit {
        ($c:expr) => {{
            let c: char = $c;
            out.push(c);
            if c == '\n' {
                line += 1;
                comments.push(String::new());
            }
        }};
    }
    // Blank one source char: newlines survive, everything else is a space.
    macro_rules! blank {
        ($c:expr) => {{
            let c: char = $c;
            emit!(if c == '\n' { '\n' } else { ' ' });
        }};
    }

    while i < n {
        let c = chars[i];
        // Line comment: capture its text (annotations live here).
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            let mut text = String::new();
            while i < n && chars[i] != '\n' {
                text.push(chars[i]);
                blank!(chars[i]);
                i += 1;
            }
            comments[line].push_str(&text);
            continue;
        }
        // Block comment, possibly nested.
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let mut depth = 1usize;
            blank!(chars[i]);
            blank!(chars[i + 1]);
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    blank!(chars[i]);
                    blank!(chars[i + 1]);
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    blank!(chars[i]);
                    blank!(chars[i + 1]);
                    i += 2;
                } else {
                    blank!(chars[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Raw string (r"…", r#"…"#, br#"…"#): count hashes, scan to the
        // matching close. The `r`/`b` must not continue an identifier.
        if (c == 'r' || c == 'b') && !prev_is_ident(&chars, i) {
            let mut j = i;
            if c == 'b' && j + 1 < n && chars[j + 1] == 'r' {
                j += 1;
            }
            if chars[j] == 'r' {
                let mut k = j + 1;
                let mut hashes = 0usize;
                while k < n && chars[k] == '#' {
                    hashes += 1;
                    k += 1;
                }
                if k < n && chars[k] == '"' {
                    // Emit the prefix as-is (it is code), blank the body.
                    while i <= k {
                        blank!(chars[i]);
                        i += 1;
                    }
                    'raw: while i < n {
                        if chars[i] == '"' {
                            let mut h = 0usize;
                            while h < hashes && i + 1 + h < n && chars[i + 1 + h] == '#' {
                                h += 1;
                            }
                            if h == hashes {
                                for _ in 0..=hashes {
                                    blank!(chars[i]);
                                    i += 1;
                                }
                                break 'raw;
                            }
                        }
                        blank!(chars[i]);
                        i += 1;
                    }
                    continue;
                }
            }
        }
        // Ordinary (or byte) string literal.
        if c == '"' || (c == 'b' && i + 1 < n && chars[i + 1] == '"' && !prev_is_ident(&chars, i)) {
            if c == 'b' {
                blank!(chars[i]);
                i += 1;
            }
            blank!(chars[i]);
            i += 1;
            while i < n {
                if chars[i] == '\\' && i + 1 < n {
                    blank!(chars[i]);
                    blank!(chars[i + 1]);
                    i += 2;
                    continue;
                }
                let done = chars[i] == '"';
                blank!(chars[i]);
                i += 1;
                if done {
                    break;
                }
            }
            continue;
        }
        // Char literal vs lifetime: 'x' / '\n' are literals; 'a (no
        // closing quote) is a lifetime and stays in the code.
        if c == '\'' {
            let is_char_lit = if i + 1 < n && chars[i + 1] == '\\' {
                true
            } else {
                i + 2 < n && chars[i + 1] != '\'' && chars[i + 2] == '\''
            };
            if is_char_lit {
                blank!(chars[i]);
                i += 1;
                if i < n && chars[i] == '\\' {
                    blank!(chars[i]);
                    i += 1;
                    // Escape payload up to the closing quote.
                    while i < n && chars[i] != '\'' {
                        blank!(chars[i]);
                        i += 1;
                    }
                } else if i < n {
                    blank!(chars[i]);
                    i += 1;
                }
                if i < n && chars[i] == '\'' {
                    blank!(chars[i]);
                    i += 1;
                }
                continue;
            }
        }
        emit!(c);
        i += 1;
    }

    let num_lines = out.lines().count().max(1);
    comments.resize(num_lines, String::new());
    let test_mask = compute_test_mask(&out, num_lines);
    Scrubbed {
        code: out,
        line_comments: comments,
        test_mask,
    }
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// Mark every line belonging to a `#[cfg(test)]` or `#[test]` item: from
/// the attribute to the close of the brace block that follows it (or the
/// terminating `;` for braceless items like `#[cfg(test)] mod tests;`).
fn compute_test_mask(scrubbed: &str, num_lines: usize) -> Vec<bool> {
    let mut mask = vec![false; num_lines];
    let lines: Vec<&str> = scrubbed.lines().collect();
    let mut l = 0usize;
    while l < lines.len() {
        let t = lines[l].trim_start();
        if t.starts_with("#[cfg(test)]")
            || t.starts_with("#[test]")
            || t.starts_with("#[cfg(all(test")
        {
            // Scan forward for the opening brace of the annotated item.
            let mut depth = 0i64;
            let mut opened = false;
            let mut end = l;
            'scan: for (off, cur) in lines[l..].iter().enumerate() {
                for ch in cur.chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => {
                            depth -= 1;
                            if opened && depth == 0 {
                                end = l + off;
                                break 'scan;
                            }
                        }
                        ';' if !opened && depth == 0 => {
                            end = l + off;
                            break 'scan;
                        }
                        _ => {}
                    }
                }
                end = l + off;
            }
            for m in mask.iter_mut().take((end + 1).min(num_lines)).skip(l) {
                *m = true;
            }
            l = end + 1;
        } else {
            l += 1;
        }
    }
    mask
}

/// Find word-bounded occurrences of `needle` in `hay`: the match may not
/// be preceded or followed by an identifier character (when the needle's
/// own endpoint is an identifier character).
pub(crate) fn find_word(hay: &str, needle: &str) -> Vec<usize> {
    let hb = hay.as_bytes();
    let first_ident = needle
        .chars()
        .next()
        .is_some_and(|c| c.is_alphanumeric() || c == '_');
    let last_ident = needle
        .chars()
        .last()
        .is_some_and(|c| c.is_alphanumeric() || c == '_');
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = hay[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let pre_ok = !first_ident
            || start == 0
            || !(hb[start - 1].is_ascii_alphanumeric() || hb[start - 1] == b'_');
        let post_ok =
            !last_ident || end >= hb.len() || !(hb[end].is_ascii_alphanumeric() || hb[end] == b'_');
        if pre_ok && post_ok {
            out.push(start);
        }
        from = start + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_blanked() {
        let s = scrub("let x = \"Instant::now\"; // HashMap here\nlet y = 1;");
        assert!(!s.code.contains("Instant::now"));
        assert!(!s.code.contains("HashMap"));
        assert!(s.line_comments[0].contains("HashMap"));
        assert_eq!(s.code.lines().count(), 2);
    }

    #[test]
    fn nested_block_comment() {
        let s = scrub("a /* x /* y */ z */ b\nc");
        assert!(s.code.contains('a') && s.code.contains('b') && s.code.contains('c'));
        assert!(!s.code.contains('y') && !s.code.contains('z'));
    }

    #[test]
    fn raw_string_blanked() {
        let s = scrub("let p = r#\"thread_rng() \"quoted\" \"#; let q = 2;");
        assert!(!s.code.contains("thread_rng"));
        assert!(s.code.contains("let q = 2;"));
    }

    #[test]
    fn lifetimes_survive_char_literals_blanked() {
        let s = scrub("fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }");
        assert!(s.code.contains("<'a>"), "{}", s.code);
        assert!(s.code.contains("&'a str"));
        assert!(!s.code.contains('x') || !s.code.contains("'x'"));
    }

    #[test]
    fn test_mask_covers_cfg_test_mod() {
        let src =
            "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        let s = scrub(src);
        assert!(!s.test_mask[0]);
        assert!(s.test_mask[1] && s.test_mask[2] && s.test_mask[3] && s.test_mask[4]);
        assert!(!s.test_mask[5]);
    }

    #[test]
    fn word_boundaries_respected() {
        assert_eq!(
            find_word("try_percentile_sorted(x)", "percentile_sorted").len(),
            0
        );
        assert_eq!(
            find_word("percentile_sorted(x)", "percentile_sorted").len(),
            1
        );
        assert_eq!(find_word("a HashMapX b", "HashMap").len(), 0);
        assert_eq!(find_word("HashMap::new()", "HashMap").len(), 1);
    }
}
