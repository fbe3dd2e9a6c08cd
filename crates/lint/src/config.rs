//! `lint.toml` reader.
//!
//! The workspace is built offline (no `toml` crate), so this is a small
//! hand-rolled reader for the subset the allowlist actually uses:
//!
//! ```toml
//! # comment
//! [rule-name]
//! paths = ["crates/core/src", "crates/runtime/src/executor.rs"]
//! allow-files = [
//!     "src/bridge.rs -- wall-clock timing display only, not a golden path",
//! ]
//! ```
//!
//! Tables map rule slugs to [`RuleCfg`]. `paths` scopes a rule to
//! directory prefixes or exact files (relative to the workspace root);
//! `allow-files` exempts whole files, and each entry **must** carry a
//! ` -- reason` suffix — an allowlist entry without a written
//! justification is itself a configuration error.

use std::collections::BTreeMap;

/// Per-rule configuration from `lint.toml`.
#[derive(Debug, Default, Clone)]
pub struct RuleCfg {
    /// Directory prefixes / files this rule applies to.
    pub paths: Vec<String>,
    /// `(path, reason)` pairs exempting whole files from the rule.
    pub allow_files: Vec<(String, String)>,
    /// Function names treated as roots of the call-graph reachability
    /// pass (only meaningful on `[panicking]`): panicking calls in any
    /// function *reachable* from an entry point are flagged even when
    /// the containing file is outside `paths`.
    pub entry_points: Vec<String>,
}

impl RuleCfg {
    /// Is `rel_path` under one of this rule's `paths` entries?
    pub(crate) fn in_paths(&self, rel_path: &str) -> bool {
        self.paths
            .iter()
            .any(|p| rel_path == p || rel_path.starts_with(&format!("{p}/")))
    }

    /// Is `rel_path` exempted wholesale by `allow-files`?
    pub(crate) fn is_allow_filed(&self, rel_path: &str) -> bool {
        self.allow_files.iter().any(|(p, _)| p == rel_path)
    }

    /// Does this rule govern `rel_path` (and not exempt it)?
    pub(crate) fn applies_to(&self, rel_path: &str) -> bool {
        self.in_paths(rel_path) && !self.is_allow_filed(rel_path)
    }
}

/// Whole lint configuration: rule slug → scope. Deterministically ordered
/// (the linter holds itself to its own iteration-order rule).
#[derive(Debug, Default, Clone)]
pub struct Config {
    /// Rule table.
    pub rules: BTreeMap<String, RuleCfg>,
}

/// A malformed `lint.toml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line of the problem.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Parse the TOML subset described in the module docs.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config::default();
        let mut current: Option<String> = None;
        let mut lines = text.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                let name = name.trim();
                if name.is_empty() {
                    return Err(ConfigError {
                        line: lineno,
                        msg: "empty table name".into(),
                    });
                }
                cfg.rules.entry(name.to_string()).or_default();
                current = Some(name.to_string());
                continue;
            }
            let Some((key, mut val)) = line
                .split_once('=')
                .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
            else {
                return Err(ConfigError {
                    line: lineno,
                    msg: format!("expected `key = value`, got `{line}`"),
                });
            };
            let Some(rule) = current.clone() else {
                return Err(ConfigError {
                    line: lineno,
                    msg: format!("key `{key}` outside any [rule] table"),
                });
            };
            // Multiline array: keep appending lines until the closing `]`.
            while val.starts_with('[') && !val.ends_with(']') {
                let Some((_, next)) = lines.next() else {
                    return Err(ConfigError {
                        line: lineno,
                        msg: format!("unterminated array for key `{key}`"),
                    });
                };
                val.push(' ');
                val.push_str(strip_comment(next).trim());
            }
            let items = parse_string_array(&val).ok_or_else(|| ConfigError {
                line: lineno,
                msg: format!("`{key}` must be an array of strings"),
            })?;
            let entry = cfg.rules.get_mut(&rule).expect("table created above");
            match key.as_str() {
                "paths" => entry.paths = items,
                "allow-files" => {
                    for item in items {
                        let Some((path, reason)) = item.split_once(" -- ") else {
                            return Err(ConfigError {
                                line: lineno,
                                msg: format!(
                                    "allow-files entry `{item}` is missing its \
                                     ` -- <reason>` justification"
                                ),
                            });
                        };
                        let (path, reason) = (path.trim(), reason.trim());
                        if reason.is_empty() {
                            return Err(ConfigError {
                                line: lineno,
                                msg: format!("allow-files entry `{path}` has an empty reason"),
                            });
                        }
                        entry
                            .allow_files
                            .push((path.to_string(), reason.to_string()));
                    }
                }
                "entry-points" => entry.entry_points = items,
                other => {
                    return Err(ConfigError {
                        line: lineno,
                        msg: format!(
                            "unknown key `{other}` (expected paths/allow-files/entry-points)"
                        ),
                    });
                }
            }
        }
        Ok(cfg)
    }
}

/// Drop a `#` comment, unless the `#` sits inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parse `["a", "b"]` (trailing comma tolerated).
fn parse_string_array(val: &str) -> Option<Vec<String>> {
    let inner = val.strip_prefix('[')?.strip_suffix(']')?;
    let mut out = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        rest = rest.strip_prefix('"')?;
        let end = rest.find('"')?;
        out.push(rest[..end].to_string());
        rest = rest[end + 1..].trim();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim();
        } else if !rest.is_empty() {
            return None;
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_and_arrays() {
        let cfg = Config::parse(
            "# top comment\n[nondeterminism]\npaths = [\n  \"crates/core/src\", # inline\n  \"src\",\n]\nallow-files = [\"src/bridge.rs -- timing display only\"]\n",
        )
        .unwrap();
        let r = &cfg.rules["nondeterminism"];
        assert_eq!(r.paths, vec!["crates/core/src", "src"]);
        assert_eq!(r.allow_files.len(), 1);
        assert!(r.applies_to("crates/core/src/trace.rs"));
        assert!(r.applies_to("src/cli.rs"));
        assert!(!r.applies_to("src/bridge.rs"), "allowlisted");
        assert!(!r.applies_to("crates/dag/src/graph.rs"), "out of scope");
    }

    #[test]
    fn allow_without_reason_rejected() {
        let err = Config::parse("[rng]\nallow-files = [\"src/cli.rs\"]\n").unwrap_err();
        assert!(err.msg.contains("justification"), "{err}");
    }

    #[test]
    fn prefix_matching_is_component_wise() {
        let r = RuleCfg {
            paths: vec!["crates/core".into()],
            ..RuleCfg::default()
        };
        assert!(r.applies_to("crates/core/src/lib.rs"));
        assert!(!r.applies_to("crates/core2/src/lib.rs"));
    }
}
