//! Fixture self-tests: one known-bad file per rule under
//! `tests/fixtures/`, with the exact expected diagnostics pinned. Each
//! fixture also embeds a negative case (an annotated line, a string
//! literal, a test region, or a lookalike identifier) that must NOT be
//! reported, so these tests pin both directions of every rule.
//!
//! The final test runs the real workspace lint with the real `lint.toml`,
//! making `cargo test` itself fail if a violation lands without a reasoned
//! allow — the linter is self-enforcing, not CI-only.

use parflow_lint::{lint_files, lint_source, Config};
use std::path::Path;

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(p).expect("fixture readable")
}

/// Scope a single rule onto the fixture path and lint it.
fn run(rule: &str, name: &str) -> Vec<(usize, String)> {
    let cfg = Config::parse(&format!("[{rule}]\npaths = [\"{name}\"]\n")).expect("config");
    lint_source(name, &fixture(name), &cfg)
        .into_iter()
        .map(|d| {
            assert_eq!(d.rule, rule);
            assert_eq!(d.file, name);
            (d.line, d.message)
        })
        .collect()
}

/// Assert the exact (line, message-needle) sequence of diagnostics.
fn expect(diags: &[(usize, String)], want: &[(usize, &str)]) {
    let got: Vec<(usize, &String)> = diags.iter().map(|(l, m)| (*l, m)).collect();
    assert_eq!(
        got.len(),
        want.len(),
        "diagnostic count mismatch:\n got: {got:#?}\nwant: {want:#?}"
    );
    for ((gl, gm), (wl, wn)) in got.iter().zip(want) {
        assert_eq!(
            gl, wl,
            "line mismatch: got {gm:?} at {gl}, wanted `{wn}` at {wl}"
        );
        assert!(
            gm.contains(wn),
            "message at line {gl} should mention `{wn}`, got {gm:?}"
        );
    }
}

#[test]
fn nondeterminism_fixture_exact_diagnostics() {
    let d = run("nondeterminism", "bad_nondeterminism.rs");
    expect(
        &d,
        &[
            (4, "HashMap"),
            (5, "HashSet"),
            (8, "Instant::now"),
            (9, "SystemTime::now"),
            (10, "thread_rng"),
            (11, "HashMap"),
            (12, "HashSet"),
            // line 13 carries `lint: allow(nondeterminism) <reason>` — excused;
            // the `#[cfg(test)]` region at the bottom is masked entirely.
        ],
    );
}

#[test]
fn truncating_cast_fixture_exact_diagnostics() {
    let d = run("truncating-cast", "bad_truncating_cast.rs");
    expect(
        &d,
        &[
            (5, "`as u32`"),
            (6, "`as u16`"),
            (7, "u128 -> u64"),
            // line 8: cast text inside a string literal — scrubbed, not reported;
            // line 9: annotated with a reasoned allow — excused.
        ],
    );
}

#[test]
fn panicking_fixture_exact_diagnostics() {
    let d = run("panicking", "bad_panicking.rs");
    expect(
        &d,
        &[
            (5, ".unwrap()"),
            (6, ".expect("),
            (8, "panic!("),
            (10, "percentile_sorted("),
            // line 11: reasoned allow; line 12: `try_percentile_sorted` is a
            // different word (underscore boundary) — not reported; line 13:
            // `.unwrap_or(` is not `.unwrap()` — not reported.
        ],
    );
}

#[test]
fn batched_hot_loop_fixture_exact_diagnostics() {
    // A self-contained known-bad engine hot loop. `crates/core/src` is
    // L3-scoped in the real lint.toml; this fixture pins what the rule
    // catches if a panicking call lands in such a loop without a reasoned
    // allow.
    let d = run("panicking", "bad_batched_hot_loop.rs");
    expect(
        &d,
        &[
            (7, ".unwrap()"),
            (8, ".expect("),
            (10, "panic!("),
            // line 12: reasoned allow naming the invariant — excused;
            // line 13: `unwrap_or_idle` is a different word — not reported.
        ],
    );
}

#[test]
fn sweep_cell_fixture_nondeterminism_diagnostics() {
    // `crates/bench/src/sweep` is L1-scoped in the real lint.toml; the
    // sweep store must aggregate through ordered containers only, or the
    // byte-identity guarantees across thread counts / resume fall apart.
    let d = run("nondeterminism", "bad_sweep_cell.rs");
    expect(
        &d,
        &[
            (4, "HashMap"),
            (7, "HashMap"),
            // the `#[cfg(test)]` region at the bottom is masked entirely.
        ],
    );
}

#[test]
fn sweep_cell_fixture_panicking_diagnostics() {
    // `crates/bench/src/sweep` is L3-scoped in the real lint.toml: empty
    // and NaN cells are normal sweep outcomes, so cell epilogues must
    // degrade (try_percentile_sorted / Option) rather than panic.
    let d = run("panicking", "bad_sweep_cell.rs");
    expect(
        &d,
        &[
            (10, "percentile_sorted("),
            (11, ".unwrap()"),
            (12, ".expect("),
            // line 14: reasoned allow on line 13 — excused; line 15:
            // `try_percentile_sorted` / `.unwrap_or(` are different
            // words — not reported.
        ],
    );
}

#[test]
fn rng_fixture_exact_diagnostics() {
    let d = run("rng", "bad_rng.rs");
    expect(
        &d,
        &[
            (8, "SmallRng::"),
            (8, "seed_from_u64"),
            (9, "SmallRng::"),
            (9, "from_entropy"),
            (10, "StdRng::"),
            (10, "from_seed"),
            // line 4 `use ...::SmallRng;` has no `::` call — not reported;
            // line 11: reasoned allow.
        ],
    );
}

#[test]
fn counter_overflow_fixture_exact_diagnostics() {
    let d = run("counter-overflow", "bad_counter_overflow.rs");
    expect(
        &d,
        &[
            (9, "saturating_add"),
            (10, "saturating_add"),
            // line 12: reasoned allow on line 11 — excused; line 13 uses
            // the saturating form; line 14 hides `+=` in a string; the
            // `#[cfg(test)]` region is masked entirely.
        ],
    );
}

#[test]
fn float_determinism_fixture_exact_diagnostics() {
    let d = run("float-determinism", "bad_float_determinism.rs");
    expect(
        &d,
        &[
            (5, "sum::<f64>"),
            (6, "sum::<f32>"),
            (7, "product::<f64>"),
            // line 9: reasoned allow on line 8 — excused; line 10 sums
            // integers (exact, order-independent) — not reported.
        ],
    );
}

#[test]
fn transitive_panic_fixtures_exact_diagnostics() {
    // No `paths` scope at all: every diagnostic below comes from the
    // call-graph reachability pass rooted at `run_worksteal`, which
    // lives in a different file than the panicking helpers.
    let cfg = Config::parse(
        "[panicking]\nentry-points = [\"run_worksteal\"]\n\
         [unused-allow]\npaths = [\"bad_transitive_panic_helpers.rs\"]\n",
    )
    .expect("config");
    let files = vec![
        (
            "bad_transitive_panic_entry.rs".to_string(),
            fixture("bad_transitive_panic_entry.rs"),
        ),
        (
            "bad_transitive_panic_helpers.rs".to_string(),
            fixture("bad_transitive_panic_helpers.rs"),
        ),
    ];
    let d = lint_files(&files, &cfg);
    let got: Vec<(&str, usize, &str)> = d
        .iter()
        .map(|x| (x.file.as_str(), x.line, x.rule))
        .collect();
    assert_eq!(
        got,
        vec![
            ("bad_transitive_panic_helpers.rs", 8, "panicking"),
            ("bad_transitive_panic_helpers.rs", 12, "panicking"),
            // `excused` (line 17) carries a reasoned allow — suppressed
            // AND counted as used, so unused-allow stays quiet about it;
            // `orphan_helper` (line 21) is unreachable — not reported.
        ],
        "diagnostics: {d:#?}"
    );
    for diag in &d {
        assert!(
            diag.message
                .contains("reachable from engine entry point `run_worksteal`"),
            "{diag}"
        );
        assert!(
            diag.message.contains("`step_round`") || diag.message.contains("`pick`"),
            "message must name the containing function: {diag}"
        );
    }
}

#[test]
fn unused_allow_fixture_exact_diagnostics() {
    // Scope `panicking` onto the file too, so the allow on line 11 is
    // genuinely used (it suppresses the unwrap on line 12) while the
    // allows on lines 5/7/9 suppress nothing.
    let cfg = Config::parse(
        "[panicking]\npaths = [\"bad_unused_allow.rs\"]\n\
         [unused-allow]\npaths = [\"bad_unused_allow.rs\"]\n",
    )
    .expect("config");
    let name = "bad_unused_allow.rs";
    let d = lint_files(&[(name.to_string(), fixture(name))], &cfg);
    let got: Vec<(usize, &str)> = d.iter().map(|x| (x.line, x.rule)).collect();
    assert_eq!(
        got,
        vec![
            (5, "unused-allow"), // suppresses nothing
            (7, "unused-allow"), // names an unknown rule
            (9, "unused-allow"), // reasonless — suppresses nothing
            (10, "panicking"),   // ...so the unwrap after it still fires
        ],
        "diagnostics: {d:#?}"
    );
    assert!(d[0].message.contains("stale"), "{}", d[0]);
    assert!(d[1].message.contains("unknown rule"), "{}", d[1]);
    assert!(d[2].message.contains("no ` <reason>`"), "{}", d[2]);
}

#[test]
fn reasonless_allow_does_not_excuse_fixture_lines() {
    let cfg = Config::parse("[panicking]\npaths = [\"f.rs\"]\n").expect("config");
    let src = "// lint: allow(panicking)\nlet x = o.unwrap();\n";
    let d = lint_source("f.rs", src, &cfg);
    assert_eq!(d.len(), 1, "a reasonless allow must not excuse the line");
}

/// The workspace itself must lint clean with the checked-in `lint.toml` —
/// run the real thing so `cargo test` enforces it without CI.
#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let toml = std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml readable");
    let cfg = Config::parse(&toml).expect("lint.toml parses");
    let diags = parflow_lint::lint_workspace(&root, &cfg).expect("workspace walk");
    assert!(
        diags.is_empty(),
        "workspace has unexcused lint violations:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
