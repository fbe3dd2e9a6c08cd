//! # parflow-lint
//!
//! Project-specific static analysis for the parflow workspace. The rules
//! protect the invariants every golden, differential and RNG-stream claim
//! in this repo rests on:
//!
//! * **L1 `nondeterminism`** — no wall clocks, OS entropy, or hash-order
//!   containers in engine/golden paths;
//! * **L2 `truncating-cast`** — no silently-truncating `as` casts on
//!   counter/accumulator widths (the PR 3 `failed_steals` u32-saturation
//!   family);
//! * **L3 `panicking`** — no `unwrap`/`expect`/panicking percentile calls
//!   in engine hot paths and worker loops, *including* helpers reachable
//!   from the declared engine entry points through the workspace call
//!   graph (see [`callgraph`]);
//! * **L4 `rng`** — only declared files may construct or advance a seeded
//!   RNG stream;
//! * **L5 `counter-overflow`** — telemetry counters accumulate with
//!   saturating/checked arithmetic, never bare `+=`;
//! * **L6 `float-determinism`** — no order-dependent float accumulation
//!   in golden-compared paths;
//! * **`unused-allow`** — inline allows that no longer suppress anything
//!   fail the lint.
//!
//! The linter runs in two passes: pass 1 lexes every collected file and
//! applies the file-scoped rules; pass 2 builds a lightweight function
//! call graph from the same lexer output and applies the reachability
//! form of L3, then audits the inline allows.
//!
//! Scope and file-level exemptions live in the workspace-root `lint.toml`;
//! individual sites are excused with `// lint: allow(<rule>) <reason>`.
//! The linter is dependency-free (hand-rolled lexer and TOML-subset
//! reader) because the workspace builds in network-isolated containers
//! where `syn`/`toml` are unavailable; the lexical pass is conservative
//! and never requires type information. See `docs/STATIC_ANALYSIS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod config;
pub mod lexer;
pub mod rules;

pub use config::{Config, ConfigError, RuleCfg};
pub use rules::{Diagnostic, RULES};

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Lint a set of in-memory files as one workspace: file-scoped rules on
/// each file, then the call-graph reachability pass and the unused-allow
/// audit across the whole set. Diagnostics come back sorted by
/// (file, line, rule) — the linter's own output order is deterministic by
/// construction.
pub fn lint_files(files: &[(String, String)], cfg: &Config) -> Vec<Diagnostic> {
    let scrubbed: Vec<lexer::Scrubbed> = files.iter().map(|(_, s)| lexer::scrub(s)).collect();
    let mut used = rules::UsedAllows::default();
    let mut out = Vec::new();
    for ((rel, source), scr) in files.iter().zip(&scrubbed) {
        out.extend(rules::lint_file(rel, source, scr, cfg, &mut used));
    }
    out.extend(callgraph::transitive_panicking(
        files, &scrubbed, cfg, &mut used,
    ));
    out.extend(rules::unused_allows(files, &scrubbed, cfg, &used));
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    out.dedup();
    out
}

/// Lint one in-memory file (used by the fixture self-tests). Single-file
/// shorthand for [`lint_files`]; the call-graph pass sees only this file.
pub fn lint_source(rel_path: &str, source: &str, cfg: &Config) -> Vec<Diagnostic> {
    lint_files(&[(rel_path.to_string(), source.to_string())], cfg)
}

/// Walk the workspace under `root` and lint every `.rs` file any rule
/// scopes (the union of all scopes is also the call-graph universe).
pub fn lint_workspace(root: &Path, cfg: &Config) -> std::io::Result<Vec<Diagnostic>> {
    // Union of every rule's scope, deduplicated and ordered.
    let mut names: BTreeSet<String> = BTreeSet::new();
    for rule in cfg.rules.values() {
        for p in &rule.paths {
            let abs = root.join(p);
            if abs.is_file() {
                names.insert(p.clone());
            } else if abs.is_dir() {
                collect_rs(&abs, root, &mut names)?;
            }
            // Nonexistent scope entries are tolerated: scopes describe
            // intent and files move between PRs.
        }
    }
    let mut files = Vec::with_capacity(names.len());
    for rel in names {
        let source = std::fs::read_to_string(root.join(&rel))?;
        files.push((rel, source));
    }
    Ok(lint_files(&files, cfg))
}

fn collect_rs(dir: &Path, root: &Path, out: &mut BTreeSet<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.insert(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

/// The `--stats` table, in markdown: per workspace crate (the root package
/// is `parflow`), all Rust lines, the lines of code under `src/` outside
/// test regions (blank and comment-only lines do not count, so neither
/// padding nor deleting comments moves the number), and the `pub` items
/// among those; then two total rows.
pub fn stats_table(root: &Path) -> std::io::Result<String> {
    let mut files = BTreeSet::new();
    for dir in ["src", "tests", "examples", "crates"].map(|d| root.join(d)) {
        if dir.is_dir() {
            collect_rs(&dir, root, &mut files)?;
        }
    }
    let add = |a: [usize; 3], b: [usize; 3]| [0, 1, 2].map(|i| a[i] + b[i]);
    let mut rows: BTreeMap<&str, [usize; 3]> = BTreeMap::new();
    for rel in &files {
        let name = match rel.strip_prefix("crates/") {
            Some(rest) => rest.split('/').next().unwrap_or(rest),
            None => "parflow",
        };
        let in_src = rel.starts_with("src/") || rel.contains("/src/");
        let size = file_size(&std::fs::read_to_string(root.join(rel))?, in_src);
        let row = rows.entry(name).or_default();
        *row = add(*row, size);
    }
    let total = |skip: &str| {
        let kept = rows.iter().filter(|(name, _)| **name != skip);
        kept.fold([0; 3], |t, (_, s)| add(t, *s))
    };
    let totals = [("total", total("")), ("total without perf", total("perf"))];
    let mut out = String::from(
        "| crate | Rust lines | non-test code lines | pub items |\n|---|---:|---:|---:|\n",
    );
    for (name, [all, non_test, pubs]) in rows.into_iter().chain(totals) {
        out.push_str(&format!("| {name} | {all} | {non_test} | {pubs} |\n"));
    }
    Ok(out)
}

/// `[all lines, non-test code lines, pub items]` of one file. Only a file
/// under `src/` has non-test lines; a `pub` item is a line that opens with
/// `pub` and an item keyword, so `pub(crate)` items and `pub` fields do not
/// count.
fn file_size(source: &str, in_src: bool) -> [usize; 3] {
    const ITEM: &[&str] = &[
        "fn", "struct", "enum", "union", "trait", "type", "const", "static", "mod", "use",
        "unsafe", "async", "extern",
    ];
    let mut size = [source.lines().count(), 0, 0];
    if in_src {
        let scrubbed = lexer::scrub(source);
        let live = scrubbed.code.lines().zip(&scrubbed.test_mask);
        for (line, _) in live.filter(|(l, is_test)| !**is_test && !l.trim().is_empty()) {
            let mut words = line.split_whitespace();
            let is_pub =
                words.next() == Some("pub") && words.next().is_some_and(|w| ITEM.contains(&w));
            size[1] += 1;
            size[2] += usize::from(is_pub);
        }
    }
    size
}

/// Locate the workspace root: the nearest ancestor of `start` containing
/// a `lint.toml`.
pub fn find_root(start: &Path) -> Option<std::path::PathBuf> {
    let mut cur = Some(start);
    while let Some(dir) = cur {
        if dir.join("lint.toml").is_file() {
            return Some(dir.to_path_buf());
        }
        cur = dir.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_size_counts_lines_test_regions_and_pub_items() {
        let src = "\
//! doc
pub struct A {
    pub field: u32,
}
pub(crate) fn hidden() {}
pub const fn shown() {}
// pub fn in_a_comment() {}
#[cfg(test)]
mod tests {
    pub fn in_tests() {}
}
";
        // 11 lines; 4 are in the test region and 2 are comments, which
        // leaves 5 lines of code; `A` and `shown` are the public items (not
        // the field, the pub(crate) fn, the comment, or the test helper).
        assert_eq!(file_size(src, true), [11, 5, 2]);
        assert_eq!(file_size(src, false), [11, 0, 0]);
    }

    #[test]
    fn stats_table_has_a_row_per_crate_and_consistent_totals() {
        let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("root");
        let table = stats_table(&root).expect("walk");
        let cell = |name: &str, col: usize| -> usize {
            let row = table
                .lines()
                .find(|l| l.starts_with(&format!("| {name} |")));
            let row = row.unwrap_or_else(|| panic!("no row {name} in\n{table}"));
            let text = row.split('|').nth(col + 1).expect("column");
            text.trim().parse().expect("number")
        };
        for col in 1..=3 {
            assert!(cell("lint", col) > 0 && cell("parflow", col) > 0);
            assert_eq!(
                cell("total", col) - cell("perf", col),
                cell("total without perf", col)
            );
        }
        assert!(cell("lint", 1) >= cell("lint", 2));
    }
}
