//! `perf compare BASE.json NEW.json` — the noise-aware comparator.
//!
//! Both files are result sets written by `perf run --json`: a list of
//! passes, each holding one result per workload. Rows are keyed by
//! workload and metric *name*, never by position. Per row the two sides'
//! medians over their passes are compared:
//!
//! * an end-to-end metric may worsen by at most its own bound (a share of
//!   the base median); when either side's quartile spread is wider than
//!   that bound the row reads `unresolved`, not `unchanged`;
//! * an *exact* metric must be equal on every seed both sides ran;
//! * any increase in failed operations is a regression;
//! * a layer metric is shown with its ratio and never judged.
//!
//! Every ratio is printed with its base.

use crate::json::{self, Value};
use crate::spec::{self, Better, Kind};
use crate::stats::Summary;
use std::collections::BTreeMap;

/// Samples of one (workload, metric) across a file's passes.
#[derive(Clone, Debug, Default)]
struct Series {
    unit: String,
    values: Vec<f64>,
    by_seed: BTreeMap<u64, f64>,
}

/// One file: `(workload, metric)` → series, plus failed counts per
/// workload.
#[derive(Clone, Debug, Default)]
pub struct ResultSet {
    series: BTreeMap<(String, String), Series>,
    failed: BTreeMap<String, u64>,
}

impl ResultSet {
    /// Read a `perf run --json` document.
    pub fn parse(text: &str) -> Result<ResultSet, String> {
        let doc = json::parse(text)?;
        let passes = doc.get("passes").ok_or("no `passes` array")?.items();
        let mut set = ResultSet::default();
        for pass in passes {
            let seed = pass.get("seed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
            let workloads = pass.get("workloads").ok_or("pass without `workloads`")?;
            for (workload, result) in workloads.members() {
                let failed = result.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
                *set.failed.entry(workload.clone()).or_default() += failed as u64;
                let metrics = result.get("metrics").ok_or("result without `metrics`")?;
                for (name, m) in metrics.members() {
                    let value = m
                        .get("value")
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("{workload}/{name}: no numeric `value`"))?;
                    let s = set
                        .series
                        .entry((workload.clone(), name.clone()))
                        .or_default();
                    s.unit = m
                        .get("unit")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string();
                    s.values.push(value);
                    s.by_seed.insert(seed, value);
                }
            }
        }
        if set.series.is_empty() {
            return Err("no results in file".to_string());
        }
        Ok(set)
    }
}

/// What a row concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the spread is narrower than the bound.
    Unchanged,
    /// Worse by more than the bound.
    Regression,
    /// The runs' own spread is wider than the bound: nothing can be said.
    Unresolved,
    /// An exact metric is equal on every common seed.
    Equal,
    /// An exact metric differs on some common seed.
    Differs,
    /// A layer metric: shown, not judged.
    Info,
    /// Present on one side only.
    Missing,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Equal => "equal",
            Verdict::Differs => "DIFFERS",
            Verdict::Info => "-",
            Verdict::Missing => "MISSING",
        }
    }

    /// Whether the row fails the comparison.
    pub fn fails(self) -> bool {
        matches!(
            self,
            Verdict::Regression | Verdict::Differs | Verdict::Missing
        )
    }
}

/// One (workload, metric) row of the comparison.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name (`failed` for the failed-operations row).
    pub metric: String,
    /// Rendered line.
    pub line: String,
    /// Verdict.
    pub verdict: Verdict,
}

/// The whole comparison.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    /// One row per (workload, metric), sorted by workload then metric.
    pub rows: Vec<Row>,
}

impl Comparison {
    /// No regression, no exact mismatch, nothing missing.
    pub fn passes(&self) -> bool {
        !self.rows.iter().any(|r| r.verdict.fails())
    }

    /// Rows with the given verdict.
    pub fn count(&self, v: Verdict) -> usize {
        self.rows.iter().filter(|r| r.verdict == v).count()
    }

    /// The table and a summary line; ends with `"claim": null` because a
    /// comparison of two sets of the same benchmark claims nothing.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<14} {:<34} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}  {}\n",
            "workload",
            "metric",
            "base(median)",
            "new(median)",
            "new/base",
            "bound",
            "spread-b",
            "spread-n",
            "verdict"
        );
        for r in &self.rows {
            out.push_str(&r.line);
            out.push('\n');
        }
        out.push_str(&format!(
            "{} rows: {} regression, {} exact mismatch, {} unresolved, {} missing\n\"claim\": null\n",
            self.rows.len(),
            self.count(Verdict::Regression),
            self.count(Verdict::Differs),
            self.count(Verdict::Unresolved),
            self.count(Verdict::Missing),
        ));
        out
    }
}

fn judge(decl: Option<&spec::MetricDecl>, base: &Series, new: &Series) -> (Verdict, String) {
    let (b, n) = (Summary::of(&base.values), Summary::of(&new.values));
    match decl.map(|d| (d.kind, d.better)) {
        Some((Kind::EndToEnd { bound }, better)) => {
            let worse_by = match better {
                Better::Lower => (n.median - b.median) / b.median.abs().max(f64::MIN_POSITIVE),
                Better::Higher => (b.median - n.median) / b.median.abs().max(f64::MIN_POSITIVE),
            };
            let verdict = if b.spread().max(n.spread()) > bound {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Regression
            } else {
                Verdict::Unchanged
            };
            (verdict, format!("{bound:.2}"))
        }
        Some((Kind::Exact, _)) => {
            let differs = base
                .by_seed
                .iter()
                .any(|(seed, v)| new.by_seed.get(seed).is_some_and(|w| w != v));
            let verdict = if differs {
                Verdict::Differs
            } else {
                Verdict::Equal
            };
            (verdict, "exact".to_string())
        }
        _ => (Verdict::Info, "-".to_string()),
    }
}

/// Compare two result sets.
pub fn compare(base: &ResultSet, new: &ResultSet) -> Comparison {
    let mut rows = Vec::new();
    let keys: std::collections::BTreeSet<&(String, String)> =
        base.series.keys().chain(new.series.keys()).collect();
    for key in keys {
        let (workload, metric) = key;
        let (verdict, line) = match (base.series.get(key), new.series.get(key)) {
            (Some(b), Some(n)) => {
                let (verdict, bound) = judge(spec::metric(metric), b, n);
                let (bs, ns) = (Summary::of(&b.values), Summary::of(&n.values));
                let ratio = if bs.median != 0.0 {
                    format!("{:.4}", ns.median / bs.median)
                } else {
                    "n/a".to_string()
                };
                let spread = |s: &Summary| {
                    if s.n >= 2 {
                        format!("{:.4}", s.spread())
                    } else {
                        "n/a".to_string()
                    }
                };
                let line = format!(
                    "{:<14} {:<34} {:>14.6} {:>14.6} {:>9} {:>7} {:>8} {:>8}  {} [{}; n={}/{}]",
                    workload,
                    metric,
                    bs.median,
                    ns.median,
                    ratio,
                    bound,
                    spread(&bs),
                    spread(&ns),
                    verdict.label(),
                    b.unit,
                    bs.n,
                    ns.n
                );
                (verdict, line)
            }
            _ => (
                Verdict::Missing,
                format!("{workload:<14} {metric:<34} present on one side only  MISSING"),
            ),
        };
        rows.push(Row {
            workload: workload.clone(),
            metric: metric.clone(),
            line,
            verdict,
        });
    }
    // Failed operations: the bound is 0, any increase fails.
    for (workload, &b) in &base.failed {
        let n = new.failed.get(workload).copied().unwrap_or(0);
        let verdict = if n > b {
            Verdict::Regression
        } else {
            Verdict::Unchanged
        };
        rows.push(Row {
            workload: workload.clone(),
            metric: "failed".to_string(),
            line: format!(
                "{:<14} {:<34} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}  {} [count]",
                workload,
                "failed",
                b,
                n,
                "-",
                "0",
                "-",
                "-",
                verdict.label()
            ),
            verdict,
        });
    }
    rows.sort_by(|a, b| (&a.workload, &a.metric).cmp(&(&b.workload, &b.metric)));
    Comparison { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(walls: &[f64], rounds: f64, failed: u64) -> String {
        let passes: Vec<String> = walls
            .iter()
            .enumerate()
            .map(|(i, w)| {
                format!(
                    "{{\"seed\": {i}, \"workloads\": {{\"sim_fig2\": {{\"correct\": true, \
                     \"attempted\": 10, \"failed\": {failed}, \"metrics\": {{\
                     \"wall_s\": {{\"value\": {w}, \"unit\": \"s\"}}, \
                     \"core.sim_rounds\": {{\"value\": {}, \"unit\": \"count\"}}, \
                     \"core.ws_rounds_per_s\": {{\"value\": 5, \"unit\": \"1/s\"}}}}}}}}}}",
                    rounds + i as f64
                )
            })
            .collect();
        format!("{{\"passes\": [{}], \"claim\": null}}", passes.join(", "))
    }

    fn verdict_of(c: &Comparison, metric: &str) -> Verdict {
        c.rows
            .iter()
            .find(|r| r.metric == metric)
            .map(|r| r.verdict)
            .expect("row present")
    }

    const STEADY: [f64; 5] = [1.00, 1.01, 0.99, 1.00, 1.02];

    #[test]
    fn a_file_against_itself_is_unchanged() {
        let a = ResultSet::parse(&file(&STEADY, 100.0, 0)).expect("parses");
        let c = compare(&a, &a);
        assert!(c.passes(), "{}", c.render());
        assert_eq!(verdict_of(&c, "wall_s"), Verdict::Unchanged);
        assert_eq!(verdict_of(&c, "core.sim_rounds"), Verdict::Equal);
        assert_eq!(verdict_of(&c, "core.ws_rounds_per_s"), Verdict::Info);
        assert!(c.render().ends_with("\"claim\": null\n"));
    }

    #[test]
    fn slower_beyond_the_bound_is_a_regression() {
        let a = ResultSet::parse(&file(&STEADY, 100.0, 0)).expect("parses");
        let slow: Vec<f64> = STEADY.iter().map(|w| w * 1.3).collect();
        let b = ResultSet::parse(&file(&slow, 100.0, 0)).expect("parses");
        let c = compare(&a, &b);
        assert_eq!(verdict_of(&c, "wall_s"), Verdict::Regression);
        assert!(!c.passes());
        // Faster is not a regression (and not a claim either).
        assert_eq!(verdict_of(&compare(&b, &a), "wall_s"), Verdict::Unchanged);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let a = ResultSet::parse(&file(&STEADY, 100.0, 0)).expect("parses");
        let noisy = ResultSet::parse(&file(&[0.6, 1.0, 1.5, 0.7, 1.4], 100.0, 0)).expect("parses");
        assert_eq!(
            verdict_of(&compare(&a, &noisy), "wall_s"),
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_metrics_and_failures_must_not_move() {
        let a = ResultSet::parse(&file(&STEADY, 100.0, 0)).expect("parses");
        let moved = ResultSet::parse(&file(&STEADY, 101.0, 0)).expect("parses");
        assert_eq!(
            verdict_of(&compare(&a, &moved), "core.sim_rounds"),
            Verdict::Differs
        );
        let failing = ResultSet::parse(&file(&STEADY, 100.0, 1)).expect("parses");
        let c = compare(&a, &failing);
        assert_eq!(verdict_of(&c, "failed"), Verdict::Regression);
        assert!(!c.passes());
    }

    #[test]
    fn rows_are_keyed_by_name_not_position() {
        let a = ResultSet::parse(
            "{\"passes\": [{\"seed\": 1, \"workloads\": {\"w\": {\"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 1, \"unit\": \"s\"}, \"setup_s\": {\"value\": 9, \"unit\": \"s\"}}}}}]}",
        )
        .expect("parses");
        let b = ResultSet::parse(
            "{\"passes\": [{\"seed\": 1, \"workloads\": {\"w\": {\"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 9, \"unit\": \"s\"}, \"wall_s\": {\"value\": 1, \"unit\": \"s\"}}}}}]}",
        )
        .expect("parses");
        assert!(compare(&a, &b).passes());
    }
}
