//! L8 `unused-pub`: a `pub` item that no other crate names.
//!
//! An *item* is a `pub fn` / `pub const` / `pub static` line (methods
//! included) in a crate's library `src/`, outside test regions — the same
//! pub-line test `--stats` counts with. It is *used* when its name appears
//! in a reader outside that library: another crate's `src/`, any `tests/`,
//! `examples/`, `src/bin/*` or `src/main.rs` (binaries are separate
//! crates), or a code block in a doc comment anywhere (doctests compile as
//! outside crates). A name defined more than once in the scanned files
//! counts as used, as it would be ambiguous in the call graph.
//!
//! An unused item is reported as "make it `pub(crate)`"; one its own crate
//! names nowhere outside test code is reported as dead. Like transitive L3
//! the rule may miss a dead item but never reports a live one. Types,
//! traits and enums are out of scope: a type stays live through another
//! item's signature, which a token scan cannot see.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{scrub, Scrubbed};
use crate::rules::Diagnostic;

/// Report every `pub` item in an `[unused-pub]`-scoped library that no
/// reader outside its library names. `files` is the whole reader set;
/// files outside the rule's scope are read but never reported.
pub(crate) fn unused_pub(files: &[(String, String)], cfg: &crate::Config) -> Vec<Diagnostic> {
    let Some(rule) = cfg.rules.get("unused-pub") else {
        return Vec::new();
    };
    let scrubbed: Vec<Scrubbed> = files.iter().map(|(_, s)| scrub(s)).collect();
    // Token → the libraries whose `src/` holds it; "" stands for readers
    // outside every library (binaries, tests, examples, doc examples).
    let mut holders: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    // (library, token) → occurrences on its non-test lines.
    let mut live: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    let mut defined: BTreeMap<&str, usize> = BTreeMap::new();
    for ((rel, _), scr) in files.iter().zip(&scrubbed) {
        let lib = library(rel);
        for (line, is_test) in scr.code.lines().zip(&scr.test_mask) {
            if let Some(name) = defined_name(line) {
                *defined.entry(name).or_default() += 1;
            }
            for tok in tokens(line) {
                holders.entry(tok).or_default().insert(lib.unwrap_or(""));
                if let (Some(lib), false) = (lib, is_test) {
                    *live.entry((lib, tok)).or_default() += 1;
                }
            }
        }
        for tok in doc_example_tokens(&scr.line_comments) {
            holders.entry(tok).or_default().insert("");
        }
    }

    let mut out = Vec::new();
    for ((rel, source), scr) in files.iter().zip(&scrubbed) {
        let Some(lib) = library(rel).filter(|_| rule.applies_to(rel)) else {
            continue;
        };
        for (idx, line) in scr.code.lines().enumerate() {
            if scr.test_mask.get(idx).copied().unwrap_or(false) {
                continue;
            }
            let Some((kw, name)) = pub_item(line) else {
                continue;
            };
            let outside = holders
                .get(name)
                .is_some_and(|h| h.iter().any(|l| *l != lib));
            if outside || defined.get(name).is_some_and(|n| *n > 1) {
                continue;
            }
            let message = if live.get(&(lib, name)).is_some_and(|n| *n > 1) {
                format!("`pub {kw} {name}` is named nowhere outside crate `{lib}`: make it `pub(crate)`")
            } else {
                format!("`pub {kw} {name}` is named nowhere outside its own tests: dead, delete it")
            };
            let snippet = source.lines().nth(idx).unwrap_or_default().trim();
            out.push(Diagnostic {
                file: rel.clone(),
                line: idx + 1,
                rule: "unused-pub",
                message,
                snippet: snippet.to_string(),
            });
        }
    }
    out
}

/// The library crate a workspace-relative path belongs to, or `None` for a
/// reader outside every library (tests, examples, binaries). The root
/// package's crate is `parflow`.
fn library(rel: &str) -> Option<&str> {
    let (krate, rest) = match rel.strip_prefix("crates/") {
        Some(r) => r.split_once('/')?,
        None => ("parflow", rel),
    };
    let lib = rest.starts_with("src/") && !rest.starts_with("src/bin/") && rest != "src/main.rs";
    lib.then_some(krate)
}

/// `(keyword, name)` of a `pub fn` / `pub const` / `pub static` line; a
/// line counts as `pub` exactly when `--stats` counts it.
fn pub_item(line: &str) -> Option<(&str, &str)> {
    crate::pub_keyword(line)?;
    item_name(line.split_whitespace().skip(1))
}

/// The name any `fn` / `const` / `static` line defines, whatever its
/// visibility.
fn defined_name(line: &str) -> Option<&str> {
    let mut words = line.split_whitespace().peekable();
    words.next_if(|w| *w == "pub" || w.starts_with("pub("));
    item_name(words).map(|(_, name)| name)
}

/// Skip the qualifiers (`const fn`, `unsafe`, `async`, `extern "C"`, whose
/// ABI string the lexer blanked) and read the defined name.
fn item_name<'a>(words: impl Iterator<Item = &'a str>) -> Option<(&'a str, &'a str)> {
    let mut words = words.peekable();
    loop {
        let kw = words.next()?;
        let qualifier = matches!(kw, "unsafe" | "async" | "extern")
            || (kw == "const" && words.peek().is_some_and(|w| matches!(*w, "fn" | "unsafe")));
        if qualifier {
            continue;
        }
        if !matches!(kw, "fn" | "const" | "static") {
            return None;
        }
        if kw == "static" {
            words.next_if_eq(&"mut");
        }
        let word = words.next()?;
        let end = word
            .find(|c: char| !(c.is_alphanumeric() || c == '_'))
            .unwrap_or(word.len());
        return (end > 0).then(|| (kw, &word[..end]));
    }
}

/// Identifier-shaped tokens of a line.
fn tokens(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|t| t.starts_with(|c: char| c.is_alphabetic() || c == '_'))
}

/// Tokens inside fenced code blocks of `///` and `//!` doc comments.
fn doc_example_tokens(comments: &[String]) -> Vec<&str> {
    let mut out = Vec::new();
    let mut fenced = false;
    for comment in comments {
        let comment = comment.trim_start();
        let Some(doc) = comment
            .strip_prefix("///")
            .or_else(|| comment.strip_prefix("//!"))
        else {
            continue;
        };
        if doc.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if fenced {
            out.extend(tokens(doc));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_lines_and_names() {
        assert_eq!(pub_item("pub fn run<T>(x: T) {"), Some(("fn", "run")));
        assert_eq!(
            pub_item("    pub const fn new() -> Self {"),
            Some(("fn", "new"))
        );
        assert_eq!(
            pub_item("pub const PAPER_M: usize = 16;"),
            Some(("const", "PAPER_M"))
        );
        assert_eq!(pub_item("pub static mut X: u8 = 0;"), Some(("static", "X")));
        assert_eq!(
            pub_item("pub unsafe extern      fn raw() {"),
            Some(("fn", "raw"))
        );
        assert_eq!(pub_item("pub(crate) fn hidden() {"), None);
        assert_eq!(pub_item("pub struct A;"), None);
        assert_eq!(pub_item("pub field: u32,"), None);
        assert_eq!(defined_name("pub(crate) fn hidden() {"), Some("hidden"));
        assert_eq!(defined_name("    const LIMIT: u32 = 3;"), Some("LIMIT"));
        assert_eq!(defined_name("let x = 1;"), None);
    }

    #[test]
    fn libraries_and_readers() {
        assert_eq!(library("crates/core/src/stream.rs"), Some("core"));
        assert_eq!(library("src/cli.rs"), Some("parflow"));
        for reader in [
            "src/bin/parflow.rs",
            "crates/lint/src/main.rs",
            "crates/bench/src/bin/repro.rs",
            "crates/core/tests/x.rs",
            "tests/golden.rs",
            "examples/gantt.rs",
        ] {
            assert_eq!(library(reader), None, "{reader}");
        }
    }

    #[test]
    fn doc_examples_are_fenced_doc_comments_only() {
        let comments = [
            "/// ```",
            "/// use a::shown;",
            "/// ```",
            "/// outside",
            "// ```",
        ];
        let comments: Vec<String> = comments.iter().map(|s| s.to_string()).collect();
        assert_eq!(doc_example_tokens(&comments), vec!["use", "a", "shown"]);
    }
}
