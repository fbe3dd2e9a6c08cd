//! Pass 2: a lightweight intra-workspace function call graph.
//!
//! Built purely from the lexer's scrubbed output — no type information.
//! Pass 1 finds every `fn name(…) { … }` definition (brace-matched body
//! extents on scrubbed code, so braces inside strings and comments cannot
//! confuse it) and the call-shaped tokens inside each body. Pass 2
//! resolves calls by name and walks reachability from the entry points
//! declared in `lint.toml`.
//!
//! Name resolution is deliberately conservative: an edge `f → g` is added
//! only when exactly one function named `g` is defined in the scanned
//! file set (workspace-unique) and `g` is not one of the ubiquitous trait
//! method names (`new`, `fmt`, …). Missing an edge makes the transitive
//! `panicking` check under-approximate — never a false positive; the
//! file-scoped pass remains the backstop for the hot-path files
//! themselves.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::{find_word, Scrubbed};

/// One `fn` definition found in the scanned file set.
#[derive(Debug)]
pub(crate) struct FnDef {
    /// Function name (unqualified).
    pub name: String,
    /// Index into the scanned file list.
    pub file: usize,
    /// 0-based line range of the definition including its body.
    pub lines: (usize, usize),
    /// Names of call-shaped tokens inside the body, deduplicated.
    pub calls: BTreeSet<String>,
}

/// The workspace call graph: definitions plus name-resolved edges.
#[derive(Debug, Default)]
pub(crate) struct CallGraph {
    /// All definitions in scan order (files in input order, top to
    /// bottom within a file) — the graph's deterministic spine.
    pub defs: Vec<FnDef>,
    /// `defs` indices reachable from each entry point name, with the
    /// entry that first reached them (BFS order ties broken by index).
    pub reached: BTreeMap<usize, String>,
}

/// Trait-method and prelude names too common to resolve by name alone;
/// an edge to any of these would be guesswork.
const UBIQUITOUS: &[&str] = &[
    "new", "default", "clone", "fmt", "from", "into", "next", "len", "is_empty", "get", "push",
    "insert", "drop", "main", "eq", "cmp", "hash", "iter", "parse", "write", "read",
    // Iterator/slice adapters: `.chain(…)` etc. would otherwise resolve
    // to any workspace-unique free function sharing the name.
    "chain", "map", "filter", "fold", "zip", "rev", "take", "skip", "sum", "count", "find",
    "position", "contains", "extend", "split", "min", "max",
];

/// Rust keywords that look like calls when followed by `(`.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "as", "in", "let", "mut", "move", "ref",
    "else", "impl", "where", "dyn", "box", "await", "yield",
];

impl CallGraph {
    /// Build the graph over `scrubbed` (parallel to the scanned file
    /// list) and mark everything reachable from `entry_points`.
    pub(crate) fn build(scrubbed: &[&Scrubbed], entry_points: &[String]) -> CallGraph {
        let mut defs = Vec::new();
        for (fi, scr) in scrubbed.iter().enumerate() {
            scan_defs(fi, &scr.code, &mut defs);
        }

        // Name → def indices; edges only through workspace-unique names.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, d) in defs.iter().enumerate() {
            by_name.entry(d.name.as_str()).or_default().push(i);
        }
        let resolve = |name: &str| -> Option<usize> {
            if UBIQUITOUS.contains(&name) {
                return None;
            }
            match by_name.get(name) {
                Some(ids) if ids.len() == 1 => Some(ids[0]),
                _ => None,
            }
        };

        let mut reached: BTreeMap<usize, String> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for entry in entry_points {
            if let Some(ids) = by_name.get(entry.as_str()) {
                // Entry points may be defined more than once (e.g. an
                // inherent method per engine); every definition roots.
                for &i in ids {
                    reached.entry(i).or_insert_with(|| {
                        queue.push_back(i);
                        entry.clone()
                    });
                }
            }
        }
        while let Some(i) = queue.pop_front() {
            let entry = reached[&i].clone();
            let callees: Vec<usize> = defs[i].calls.iter().filter_map(|c| resolve(c)).collect();
            for j in callees {
                reached.entry(j).or_insert_with(|| {
                    queue.push_back(j);
                    entry.clone()
                });
            }
        }
        CallGraph { defs, reached }
    }
}

/// Pass 2 of the `panicking` rule: flag panic needles inside functions
/// *reachable* from the declared engine entry points, in files the
/// file-scoped pass does not already govern. Inline allows and
/// `allow-files` apply exactly as in the file-scoped pass; suppressing
/// allows are recorded in `used`.
pub(crate) fn transitive_panicking(
    files: &[(String, String)],
    scrubbed: &[Scrubbed],
    cfg: &crate::config::Config,
    used: &mut crate::rules::UsedAllows,
) -> Vec<crate::rules::Diagnostic> {
    let Some(rule) = cfg.rules.get("panicking") else {
        return Vec::new();
    };
    if rule.entry_points.is_empty() {
        return Vec::new();
    }
    let refs: Vec<&Scrubbed> = scrubbed.iter().collect();
    let graph = CallGraph::build(&refs, &rule.entry_points);

    let code_lines: Vec<Vec<&str>> = scrubbed.iter().map(|s| s.code.lines().collect()).collect();
    let raw_lines: Vec<Vec<&str>> = files.iter().map(|(_, s)| s.lines().collect()).collect();

    let mut out = Vec::new();
    // Nested fns overlap their parent's line range; visit each line once.
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (&di, entry) in &graph.reached {
        let def = &graph.defs[di];
        let (rel, _) = &files[def.file];
        // The file-scoped pass already governs in-path files, and
        // allow-files opt a whole file out of the rule either way.
        if rule.in_paths(rel) || rule.is_allow_filed(rel) {
            continue;
        }
        let scr = &scrubbed[def.file];
        for idx in def.lines.0..=def.lines.1 {
            if !seen.insert((def.file, idx)) {
                continue;
            }
            if scr.test_mask.get(idx).copied().unwrap_or(false) {
                continue;
            }
            let Some(line) = code_lines[def.file].get(idx) else {
                continue;
            };
            for &needle in crate::rules::PANIC_NEEDLES {
                if find_word(line, needle).is_empty() {
                    continue;
                }
                if let Some(ann) = crate::rules::allowed(scr, idx, "panicking") {
                    used.insert((rel.clone(), ann, "panicking"));
                    continue;
                }
                out.push(crate::rules::Diagnostic {
                    file: rel.clone(),
                    line: idx + 1,
                    rule: "panicking",
                    message: format!(
                        "`{needle}` in `{}`, which is reachable from engine entry \
                         point `{entry}`",
                        def.name
                    ),
                    snippet: raw_lines[def.file]
                        .get(idx)
                        .map_or(String::new(), |l| l.trim().to_string()),
                });
            }
        }
    }
    out
}

/// Find every `fn name(…)` with a brace-matched body in one scrubbed
/// file and append a [`FnDef`] per hit.
fn scan_defs(file: usize, code: &str, out: &mut Vec<FnDef>) {
    let bytes = code.as_bytes();
    // Byte offset → 0-based line, via sorted line-start offsets.
    let mut line_starts = vec![0usize];
    for (i, b) in bytes.iter().enumerate() {
        if *b == b'\n' {
            line_starts.push(i + 1);
        }
    }
    let line_of = |off: usize| line_starts.partition_point(|s| *s <= off) - 1;

    for pos in crate::lexer::find_word(code, "fn") {
        // The identifier after `fn` (skip whitespace); `fn(` pointer
        // types have none and are skipped.
        let mut i = pos + 2;
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        let name_start = i;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        if i == name_start {
            continue;
        }
        let name = &code[name_start..i];

        // Scan to the body `{` at bracket depth 0; a `;` first means a
        // bodyless trait-method signature. Angle brackets are not
        // counted (they double as comparison/arrow tokens); generics
        // cannot contain `{` or `;` anyway.
        let mut depth = 0i64;
        let mut body_open = None;
        for (off, b) in bytes[i..].iter().enumerate() {
            match b {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                b'{' if depth <= 0 => {
                    body_open = Some(i + off);
                    break;
                }
                b';' if depth <= 0 => break,
                _ => {}
            }
        }
        let Some(open) = body_open else { continue };

        // Brace-match to the body end (scrubbed code: literal braces are
        // already blanked).
        let mut braces = 0i64;
        let mut close = open;
        for (off, b) in bytes[open..].iter().enumerate() {
            match b {
                b'{' => braces += 1,
                b'}' => {
                    braces -= 1;
                    if braces == 0 {
                        close = open + off;
                        break;
                    }
                }
                _ => {}
            }
        }

        out.push(FnDef {
            name: name.to_string(),
            file,
            lines: (line_of(pos), line_of(close)),
            calls: scan_calls(&code[open..=close.max(open)]),
        });
    }
}

/// Call-shaped tokens in a body: `ident(` — excluding keywords, macro
/// invocations (`ident!`), and nested `fn` headers.
fn scan_calls(body: &str) -> BTreeSet<String> {
    let bytes = body.as_bytes();
    let mut out = BTreeSet::new();
    let mut i = 0usize;
    let mut prev_word: Option<&str> = None;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_alphabetic() || b == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let word = &body[start..i];
            let mut j = i;
            while j < bytes.len() && (bytes[j] == b' ' || bytes[j] == b'\t') {
                j += 1;
            }
            let followed_by_paren = j < bytes.len() && bytes[j] == b'(';
            let is_macro = j < bytes.len() && bytes[j] == b'!';
            if followed_by_paren
                && !is_macro
                && !KEYWORDS.contains(&word)
                && prev_word != Some("fn")
            {
                out.insert(word.to_string());
            }
            prev_word = Some(word);
        } else {
            if !b.is_ascii_whitespace() {
                prev_word = None;
            }
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scrub;

    fn graph(sources: &[&str], entries: &[&str]) -> (Vec<Scrubbed>, CallGraph) {
        let scrubbed: Vec<Scrubbed> = sources.iter().map(|s| scrub(s)).collect();
        let refs: Vec<&Scrubbed> = scrubbed.iter().collect();
        let entries: Vec<String> = entries.iter().map(|s| s.to_string()).collect();
        let g = CallGraph::build(&refs, &entries);
        (scrubbed, g)
    }

    #[test]
    fn defs_and_bodies_found() {
        let (_, g) = graph(
            &["fn alpha() {\n    beta();\n}\nfn beta() {\n    let x = 1;\n}\n"],
            &[],
        );
        assert_eq!(g.defs.len(), 2);
        assert_eq!(g.defs[0].name, "alpha");
        assert_eq!(g.defs[0].lines, (0, 2));
        assert!(g.defs[0].calls.contains("beta"));
        assert_eq!(g.defs[1].lines, (3, 5));
    }

    #[test]
    fn reachability_crosses_files() {
        let (_, g) = graph(
            &[
                "pub fn entry() { helper(); }\n",
                "pub fn helper() { leaf() }\nfn leaf() {}\nfn orphan() {}\n",
            ],
            &["entry"],
        );
        let names: Vec<&str> = g.reached.keys().map(|i| g.defs[*i].name.as_str()).collect();
        assert_eq!(names, vec!["entry", "helper", "leaf"]);
        for entry in g.reached.values() {
            assert_eq!(entry, "entry");
        }
    }

    #[test]
    fn ambiguous_and_ubiquitous_names_do_not_resolve() {
        let (_, g) = graph(
            &[
                "fn entry() { dup(); thing.new(); }\n",
                "fn dup() {}\n",
                "fn dup() {}\nfn new() { hidden(); }\nfn hidden() {}\n",
            ],
            &["entry"],
        );
        let names: Vec<&str> = g.reached.keys().map(|i| g.defs[*i].name.as_str()).collect();
        assert_eq!(names, vec!["entry"], "dup is ambiguous, new is ubiquitous");
    }

    #[test]
    fn macros_keywords_and_signatures_are_not_calls() {
        let (_, g) = graph(
            &["fn entry() {\n    if cond() { println!(\"x\") }\n    return;\n}\ntrait T { fn sig(&self); }\nfn cond() -> bool { true }\n"],
            &["entry"],
        );
        assert_eq!(g.defs.len(), 2, "trait signature has no body");
        assert!(g.defs[0].calls.contains("cond"));
        assert!(!g.defs[0].calls.contains("println"));
        assert!(!g.defs[0].calls.contains("if"));
    }
}
