//! `parflow-lint` — run the workspace lint and exit nonzero on findings.
//!
//! ```text
//! parflow-lint [--root DIR] [--config FILE] [--json PATH] [--quiet]
//! parflow-lint [--root DIR] --stats
//! ```
//!
//! With no flags the workspace root is the nearest ancestor directory
//! containing `lint.toml`. Every diagnostic prints as
//! `path:line: [rule] message`; `--json PATH` additionally writes the
//! diagnostics as a JSON array (for CI annotation uploads) whether or
//! not any were found. Exit status is 1 when any violation is found, 2
//! on usage/configuration errors.
//!
//! `--stats` lints nothing: it prints the workspace's tracked size numbers
//! as one markdown table — per crate, all Rust lines, the lines of code
//! outside test regions under `src/`, and the `pub` items among those. The
//! table is committed as `docs/STATS.md` and CI diffs it, so a PR that
//! grows a crate shows it.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: parflow-lint [--root DIR] [--config FILE] [--json PATH] [--quiet] | [--root DIR] --stats";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut config: Option<PathBuf> = None;
    let mut json: Option<PathBuf> = None;
    let mut quiet = false;
    let mut stats = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage("--root needs a directory"),
            },
            "--config" => match args.next() {
                Some(v) => config = Some(PathBuf::from(v)),
                None => return usage("--config needs a file"),
            },
            "--json" => match args.next() {
                Some(v) => json = Some(PathBuf::from(v)),
                None => return usage("--json needs an output path"),
            },
            "--quiet" | "-q" => quiet = true,
            "--stats" => stats = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown flag `{other}`")),
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => return fail(&format!("cannot read cwd: {e}")),
            };
            match parflow_lint::find_root(&cwd) {
                Some(r) => r,
                None => return fail("no lint.toml found in this or any parent directory"),
            }
        }
    };
    if stats {
        return match parflow_lint::stats_table(&root) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => fail(&format!("walk failed: {e}")),
        };
    }
    let config_path = config.unwrap_or_else(|| root.join("lint.toml"));
    let text = match std::fs::read_to_string(&config_path) {
        Ok(t) => t,
        Err(e) => return fail(&format!("cannot read {}: {e}", config_path.display())),
    };
    let cfg = match parflow_lint::Config::parse(&text) {
        Ok(c) => c,
        Err(e) => return fail(&e.to_string()),
    };
    let diags = match parflow_lint::lint_workspace(&root, &cfg) {
        Ok(d) => d,
        Err(e) => return fail(&format!("walk failed: {e}")),
    };
    if let Some(path) = json {
        if let Err(e) = std::fs::write(&path, render_json(&diags)) {
            return fail(&format!("cannot write {}: {e}", path.display()));
        }
    }
    if diags.is_empty() {
        if !quiet {
            println!("parflow-lint: clean ({} rules)", cfg.rules.len());
        }
        return ExitCode::SUCCESS;
    }
    for d in &diags {
        println!("{d}");
    }
    println!("parflow-lint: {} violation(s)", diags.len());
    ExitCode::FAILURE
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("parflow-lint: {msg}\n{USAGE}");
    ExitCode::from(2)
}

/// Render diagnostics as a JSON array (hand-rolled against a fixed schema).
fn render_json(diags: &[parflow_lint::Diagnostic]) -> String {
    let mut out = String::from("[\n");
    for (i, d) in diags.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}, \"snippet\": {}}}{}\n",
            json_str(&d.file),
            d.line,
            json_str(d.rule),
            json_str(&d.message),
            json_str(&d.snippet),
            if i + 1 < diags.len() { "," } else { "" },
        ));
    }
    out.push_str("]\n");
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("parflow-lint: {msg}");
    ExitCode::from(2)
}
