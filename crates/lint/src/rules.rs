//! The project rules.
//!
//! Each rule is a lexical token-pattern check over scrubbed source (see
//! `lexer.rs`), scoped by `lint.toml` paths and overridable per
//! line with `// lint: allow(<rule>) <reason>` on the flagged line or the
//! line above (the reason is mandatory). Test code (`#[cfg(test)]` /
//! `#[test]` regions) is never linted: the rules protect production
//! invariants, and tests legitimately unwrap.
//!
//! | rule | invariant protected |
//! |---|---|
//! | `nondeterminism` (L1) | engine/golden paths take no input from wall clocks, OS entropy, or hash iteration order |
//! | `truncating-cast` (L2) | counters and accumulators never silently truncate (`u64 → u32` class; the PR 3 `failed_steals` saturation family) |
//! | `panicking` (L3) | engine hot paths and worker loops never panic — including helpers merely *reachable* from the declared engine entry points (see `callgraph.rs`) |
//! | `rng` (L4) | only declared files may construct or advance a seeded RNG stream |
//! | `counter-overflow` (L5) | telemetry counters use saturating/checked arithmetic, never bare `+=` (endless streaming runs overflow wrapping counters) |
//! | `float-determinism` (L6) | no order-dependent `f64`/`f32` iterator accumulation in golden-compared paths without a pinned iteration order |
//! | `unused-allow` | every `// lint: allow(...)` annotation still suppresses something; stale ones are configuration debt and fail the lint |
//! | `unused-pub` (L8) | a `pub` fn, const or static is named by a reader outside its library (see `unused_pub.rs`; not a line rule) |
//!
//! See `docs/STATIC_ANALYSIS.md` for the full rule-to-invariant map.

use std::collections::BTreeSet;

use crate::lexer::{find_word, Scrubbed};

/// `(file, 0-based annotation line, rule)` triples whose inline allow
/// actually suppressed a diagnostic in this run. The `unused-allow` pass
/// flags every annotation that is *not* in this set.
pub(crate) type UsedAllows = BTreeSet<(String, usize, &'static str)>;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule slug (`nondeterminism`, `truncating-cast`, `panicking`, `rng`).
    pub rule: &'static str,
    /// Human-readable message.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.file, self.line, self.rule, self.message, self.snippet
        )
    }
}

/// Rule slugs in reporting order.
pub(crate) const RULES: &[&str] = &[
    "nondeterminism",
    "truncating-cast",
    "panicking",
    "rng",
    "counter-overflow",
    "float-determinism",
    "unused-allow",
];

/// Integer types an `as` cast can silently truncate 64-bit counters into.
/// `JobId`/`NodeId` are the workspace's u32 aliases — casting an index
/// into them truncates just as silently as a literal `as u32`.
const NARROW_INTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "JobId", "NodeId"];

/// L1: nondeterminism sources in determinism-scoped paths.
const NONDET_NEEDLES: &[(&str, &str)] = &[
    ("Instant::now", "wall-clock read"),
    ("SystemTime::now", "wall-clock read"),
    ("thread_rng", "OS-entropy RNG"),
    (
        "HashMap",
        "hash-order container (iteration order is nondeterministic)",
    ),
    (
        "HashSet",
        "hash-order container (iteration order is nondeterministic)",
    ),
    (
        "RandomState",
        "hash-order container (iteration order is nondeterministic)",
    ),
];

/// L3: panicking calls in hot paths.
pub(crate) const PANIC_NEEDLES: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
    "percentile_sorted(",
];

/// L4: RNG construction / seeding entry points.
const RNG_NEEDLES: &[&str] = &[
    "SmallRng::",
    "StdRng::",
    "from_entropy",
    "seed_from_u64",
    "from_seed",
    "from_rng",
];

/// L6: order-dependent float accumulation over iterators.
const FLOAT_NEEDLES: &[&str] = &[
    "sum::<f64>",
    "sum::<f32>",
    "product::<f64>",
    "product::<f32>",
];

/// Is line `idx` (0-based) excused from `rule` by an inline annotation on
/// the same or previous line? The annotation must carry a reason. Returns
/// the 0-based line of the annotation that grants the exemption, so the
/// caller can mark it used.
pub(crate) fn allowed(scr: &Scrubbed, idx: usize, rule: &str) -> Option<usize> {
    let probe = |i: usize| -> bool {
        scr.line_comments
            .get(i)
            .is_some_and(|c| annotation_allows(c, rule))
    };
    if probe(idx) {
        Some(idx)
    } else if idx > 0 && probe(idx - 1) {
        Some(idx - 1)
    } else {
        None
    }
}

/// Does comment text contain `lint: allow(<rule>) <reason>`?
fn annotation_allows(comment: &str, rule: &str) -> bool {
    let Some(pos) = comment.find("lint: allow(") else {
        return false;
    };
    let rest = &comment[pos + "lint: allow(".len()..];
    let Some(close) = rest.find(')') else {
        return false;
    };
    rest[..close].trim() == rule && !rest[close + 1..].trim().is_empty()
}

/// Run every file-scoped rule that `cfg` scopes onto `rel_path` over one
/// file. Inline allows that actually suppress a finding are recorded in
/// `used` for the later `unused-allow` pass.
pub(crate) fn lint_file(
    rel_path: &str,
    source: &str,
    scr: &Scrubbed,
    cfg: &crate::config::Config,
    used: &mut UsedAllows,
) -> Vec<Diagnostic> {
    let raw_lines: Vec<&str> = source.lines().collect();
    let code_lines: Vec<&str> = scr.code.lines().collect();
    let mut out = Vec::new();

    let active = |rule: &str| cfg.rules.get(rule).is_some_and(|r| r.applies_to(rel_path));

    for (idx, line) in code_lines.iter().enumerate() {
        if scr.test_mask.get(idx).copied().unwrap_or(false) {
            continue;
        }
        // Collect this line's findings per rule *first*, then consult the
        // inline allow — that is how we know whether an annotation earned
        // its keep (the `unused-allow` rule needs exactly this fact).
        let mut findings: Vec<(&'static str, String)> = Vec::new();
        if active("nondeterminism") {
            for &(needle, why) in NONDET_NEEDLES {
                if !find_word(line, needle).is_empty() {
                    findings.push((
                        "nondeterminism",
                        format!("`{needle}` in a determinism-scoped path: {why}"),
                    ));
                }
            }
        }
        if active("truncating-cast") {
            for target in narrowing_casts(line) {
                findings.push((
                    "truncating-cast",
                    format!(
                        "`as {target}` can silently truncate a 64-bit counter; \
                         widen, use `try_into`, or annotate why the value is bounded"
                    ),
                ));
            }
            if (line.contains(".as_nanos()") || line.contains(".as_micros()"))
                && !find_word(line, "u64").is_empty()
                && line.contains(" as ")
            {
                findings.push((
                    "truncating-cast",
                    "`u128 -> u64` truncation of a Duration reading; \
                     annotate the horizon that makes it safe"
                        .to_string(),
                ));
            }
        }
        if active("panicking") {
            for &needle in PANIC_NEEDLES {
                if !find_word(line, needle).is_empty() {
                    findings.push((
                        "panicking",
                        format!("`{needle}` in an engine hot path / worker loop"),
                    ));
                }
            }
        }
        if active("rng") {
            for &needle in RNG_NEEDLES {
                if !find_word(line, needle).is_empty() {
                    findings.push((
                        "rng",
                        format!(
                            "`{needle}` constructs/advances an RNG stream outside \
                             the declared RNG-owning files"
                        ),
                    ));
                }
            }
        }
        if active("counter-overflow") && line.contains("+=") {
            findings.push((
                "counter-overflow",
                "bare `+=` on a telemetry counter wraps on overflow in endless \
                 streaming runs; use `saturating_add`/`checked_add`"
                    .to_string(),
            ));
        }
        if active("float-determinism") {
            for &needle in FLOAT_NEEDLES {
                if line.contains(needle) {
                    findings.push((
                        "float-determinism",
                        format!(
                            "`{needle}` accumulates floats in iteration order; in a \
                             golden-compared path the order must be pinned — sum over \
                             an index-ordered slice and annotate why the order is fixed"
                        ),
                    ));
                }
            }
        }

        for (rule, message) in findings {
            if let Some(ann) = allowed(scr, idx, rule) {
                used.insert((rel_path.to_string(), ann, rule));
                continue;
            }
            out.push(Diagnostic {
                file: rel_path.to_string(),
                line: idx + 1,
                rule,
                message,
                snippet: raw_lines
                    .get(idx)
                    .map_or(String::new(), |l| l.trim().to_string()),
            });
        }
    }
    out
}

/// The `unused-allow` pass: every inline `lint: allow(<rule>)` annotation
/// in scope must have suppressed at least one finding this run (recorded
/// in `used`). Stale annotations are debt: they read as if a dangerous
/// site were present and excused, when actually nothing is there.
pub(crate) fn unused_allows(
    files: &[(String, String)],
    scrubbed: &[Scrubbed],
    cfg: &crate::config::Config,
    used: &UsedAllows,
) -> Vec<Diagnostic> {
    let Some(rule_cfg) = cfg.rules.get("unused-allow") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for ((rel, source), scr) in files.iter().zip(scrubbed) {
        if !rule_cfg.applies_to(rel) {
            continue;
        }
        let raw_lines: Vec<&str> = source.lines().collect();
        for (idx, comment) in scr.line_comments.iter().enumerate() {
            if scr.test_mask.get(idx).copied().unwrap_or(false) {
                continue;
            }
            for (named, has_reason) in annotations_in(comment) {
                let message = if !RULES.contains(&named.as_str()) {
                    format!("allow names unknown rule `{named}`")
                } else if !has_reason {
                    format!(
                        "allow(`{named}`) has no ` <reason>` suffix, so it suppresses \
                         nothing — add the reason or delete the annotation"
                    )
                } else if used
                    .iter()
                    .any(|(f, l, r)| f == rel && *l == idx && *r == named)
                {
                    continue;
                } else {
                    format!(
                        "stale allow: `{named}` suppresses no diagnostic on this or \
                         the next line — delete it"
                    )
                };
                out.push(Diagnostic {
                    file: rel.clone(),
                    line: idx + 1,
                    rule: "unused-allow",
                    message,
                    snippet: raw_lines
                        .get(idx)
                        .map_or(String::new(), |l| l.trim().to_string()),
                });
            }
        }
    }
    out
}

/// Every `lint: allow(<rule>)` annotation in one comment, with whether it
/// carries a reason.
fn annotations_in(comment: &str) -> Vec<(String, bool)> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("lint: allow(") {
        rest = &rest[pos + "lint: allow(".len()..];
        let Some(close) = rest.find(')') else { break };
        let rule = rest[..close].trim().to_string();
        rest = &rest[close + 1..];
        // The reason runs to the next annotation (if any) or line end.
        let reason_end = rest.find("lint: allow(").unwrap_or(rest.len());
        let has_reason = !rest[..reason_end].trim().is_empty();
        if !rule.is_empty() {
            out.push((rule, has_reason));
        }
    }
    out
}

/// Narrow integer targets of `as` casts on a scrubbed line.
fn narrowing_casts(line: &str) -> Vec<&'static str> {
    let mut out = Vec::new();
    for pos in find_word(line, "as") {
        let rest = &line[pos + 2..];
        let next: String = rest
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if let Some(t) = NARROW_INTS.iter().find(|t| **t == next) {
            out.push(*t);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::lexer::scrub;

    fn cfg_for(rule: &str, path: &str) -> Config {
        Config::parse(&format!("[{rule}]\npaths = [\"{path}\"]\n")).unwrap()
    }

    fn run(rule: &str, src: &str) -> Vec<Diagnostic> {
        let cfg = cfg_for(rule, "x.rs");
        lint_file("x.rs", src, &scrub(src), &cfg, &mut UsedAllows::default())
    }

    #[test]
    fn narrowing_cast_detected_and_allowed() {
        let d = run("truncating-cast", "let a = b as u32;\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "truncating-cast");
        let ok = run(
            "truncating-cast",
            "// lint: allow(truncating-cast) bounded by job-id width\nlet a = b as u32;\n",
        );
        assert!(ok.is_empty());
        assert!(run("truncating-cast", "let a = b as u64;\n").is_empty());
        assert!(run("truncating-cast", "let a = b as usize;\n").is_empty());
    }

    #[test]
    fn annotation_requires_reason() {
        let d = run(
            "truncating-cast",
            "// lint: allow(truncating-cast)\nlet a = b as u32;\n",
        );
        assert_eq!(d.len(), 1, "reasonless allow must not excuse the line");
    }

    #[test]
    fn string_contents_do_not_trip_rules() {
        assert!(run("nondeterminism", "let s = \"Instant::now\";\n").is_empty());
        assert_eq!(run("nondeterminism", "let t = Instant::now();\n").len(), 1);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { x.unwrap(); }\n}\n";
        assert!(run("panicking", src).is_empty());
    }

    #[test]
    fn duration_u128_truncation_flagged() {
        let d = run(
            "truncating-cast",
            "let ns = t.elapsed().as_nanos() as u64;\n",
        );
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn try_percentile_is_fine_percentile_is_not() {
        assert!(run("panicking", "let p = try_percentile_sorted(&v, q);\n").is_empty());
        assert_eq!(
            run("panicking", "let p = percentile_sorted(&v, q);\n").len(),
            1
        );
    }

    #[test]
    fn rng_construction_scoped() {
        assert_eq!(run("rng", "let r = SmallRng::seed_from_u64(7);\n").len(), 2);
        let cfg = Config::parse("[rng]\npaths = [\"other.rs\"]\n").unwrap();
        let src = "let r = SmallRng::seed_from_u64(7);\n";
        assert!(lint_file("x.rs", src, &scrub(src), &cfg, &mut UsedAllows::default()).is_empty());
    }

    #[test]
    fn counter_overflow_flags_bare_plus_eq() {
        let d = run("counter-overflow", "*e += v;\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "counter-overflow");
        assert!(run("counter-overflow", "*e = e.saturating_add(v);\n").is_empty());
    }

    #[test]
    fn float_determinism_flags_iterator_sums() {
        let d = run(
            "float-determinism",
            "let m = vals.iter().sum::<f64>() / n;\n",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "float-determinism");
        assert!(run("float-determinism", "let m = vals.iter().sum::<u64>();\n").is_empty());
    }

    #[test]
    fn suppressing_allow_is_recorded_as_used() {
        let cfg = cfg_for("panicking", "x.rs");
        let src =
            "// lint: allow(panicking) invariant: x is always Some here\nlet y = x.unwrap();\n";
        let mut used = UsedAllows::default();
        let d = lint_file("x.rs", src, &scrub(src), &cfg, &mut used);
        assert!(d.is_empty());
        assert!(used.contains(&("x.rs".to_string(), 0, "panicking")));
    }
}
