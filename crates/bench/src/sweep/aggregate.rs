//! The sweep results store: one jsonl line per grid cell, written in cell
//! id order with a fixed key order, plus the parser that `--resume` uses
//! to re-load it.
//!
//! Both directions are hand-rolled against a deliberately rigid schema:
//! the emitter writes keys in one fixed order with `f64` values in Rust's
//! shortest round-trip `Display` form, and the parser extracts fields
//! positionally by key. Because `Display → parse → Display` is the identity for `f64`,
//! a line copied through a resume cycle (or a clustered member derived
//! from a parsed representative) is byte-identical to the line a fresh
//! run would have written — the property the determinism proptests pin.
//!
//! Empty cells are normal: an all-non-finite sample set yields `null`
//! statistics fields, never a panic (see docs/OBSERVABILITY.md).

use std::collections::BTreeMap;

use parflow_metrics::{SampleStats, Table};

use super::grid::{CellSpec, SweepPolicy, SWEEP_SCHEMA};

/// Store line status: the cell was actually simulated.
pub const STATUS_SIMULATED: &str = "simulated";
/// Store line status: copied from a clustered representative.
pub(crate) const STATUS_CLUSTERED: &str = "clustered";

/// Measured outcome of one cell. `stats` is `None` for an *empty* cell —
/// every flow sample was non-finite, or the cell was never simulated.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellOutcome {
    /// Flow-time statistics (milliseconds) over finite samples.
    pub stats: Option<SampleStats>,
    /// Non-finite flow samples excluded from `stats`, kept out-of-band.
    pub nan: usize,
    /// OPT's max flow (milliseconds) on the same instance at speed 1;
    /// `None` when the cell was never simulated.
    pub opt_ms: f64,
}

impl CellOutcome {
    /// Aggregate raw per-job flow samples (ms). Non-finite samples are
    /// counted in `nan`; a cell with no finite samples is empty, not an
    /// error.
    pub fn from_flows_ms(flows_ms: &[f64], opt_ms: f64) -> CellOutcome {
        let stats = SampleStats::from_samples(flows_ms);
        let nan = match &stats {
            Some(s) => s.nonfinite,
            None => flows_ms.len(),
        };
        CellOutcome { stats, nan, opt_ms }
    }

    /// Max flow in milliseconds, `None` for empty cells.
    pub fn max_ms(&self) -> Option<f64> {
        self.stats.map(|s| s.max)
    }

    /// Competitive-style ratio `max / opt`, `None` when either side is
    /// unavailable or OPT is zero (empty instance).
    pub fn ratio(&self) -> Option<f64> {
        let max = self.max_ms()?;
        if self.opt_ms > 0.0 && self.opt_ms.is_finite() {
            Some(max / self.opt_ms)
        } else {
            None
        }
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_opt(v: Option<f64>) -> String {
    match v {
        Some(v) => json_num(v),
        None => "null".to_string(),
    }
}

/// The store header: schema version, canonical grid spec, cell count.
/// `--resume` refuses a store whose header differs (different grid ⇒
/// different cell identities).
pub(crate) fn header_line(canonical_grid: &str, cells: usize) -> String {
    format!("{{\"sweep\":{SWEEP_SCHEMA},\"grid\":\"{canonical_grid}\",\"cells\":{cells}}}")
}

/// One store line for a cell, in the fixed schema order. `source` is the
/// representative's id for clustered cells, `None` otherwise. `outcome`
/// is `None` for a cell without a measured outcome (every statistic is
/// written `null`).
pub fn cell_line(
    spec: &CellSpec,
    status: &str,
    source: Option<usize>,
    outcome: Option<&CellOutcome>,
) -> String {
    let src = match source {
        Some(id) => format!("{id}"),
        None => "null".to_string(),
    };
    let (count, nan) = match outcome {
        Some(o) => (o.stats.map(|s| s.count).unwrap_or(0), o.nan),
        None => (0, 0),
    };
    let stat = |f: fn(&SampleStats) -> f64| -> String {
        json_opt(outcome.and_then(|o| o.stats.as_ref().map(f)))
    };
    format!(
        "{{\"cell\":{},\"dist\":\"{}\",\"util\":{},\"m\":{},\"eps\":\"{}\",\
\"policy\":\"{}\",\"rep\":{},\"jobs\":{},\"qps\":{},\"status\":\"{}\",\"source\":{},\
\"count\":{},\"nan\":{},\"min_ms\":{},\"max_ms\":{},\"mean_ms\":{},\"p50_ms\":{},\
\"p95_ms\":{},\"p99_ms\":{},\"opt_ms\":{},\"ratio\":{}}}",
        spec.id,
        spec.dist.name(),
        json_num(spec.util),
        spec.m,
        spec.eps_str(),
        spec.policy.name(),
        spec.rep,
        spec.jobs,
        json_num(spec.qps),
        status,
        src,
        count,
        nan,
        stat(|s| s.min),
        stat(|s| s.max),
        stat(|s| s.mean),
        stat(|s| s.p50),
        stat(|s| s.p95),
        stat(|s| s.p99),
        json_opt(outcome.map(|o| o.opt_ms)),
        json_opt(outcome.and_then(CellOutcome::ratio)),
    )
}

/// A cell line re-loaded from a prior store.
#[derive(Clone, Debug)]
pub struct StoredCell {
    /// Cell id.
    pub id: usize,
    /// `simulated` | `clustered`.
    pub status: String,
    /// Representative id for clustered cells.
    pub source: Option<usize>,
    /// Parsed outcome (`None` when the line's `opt_ms` is `null`).
    pub outcome: Option<CellOutcome>,
    /// The verbatim line, re-emitted on resume to guarantee byte
    /// identity with the original run.
    pub line: String,
}

/// Result of loading a prior store for `--resume`.
#[derive(Clone, Debug, Default)]
pub(crate) struct StoreLoad {
    /// Valid cell lines, by id.
    pub cells: BTreeMap<usize, StoredCell>,
    /// Lines dropped as torn or malformed (counted, never silently).
    pub dropped: usize,
}

/// Extract the raw token after `"key":` up to the next `,` or the closing
/// `}`. Sound for this schema only: values never contain commas or nested
/// objects, and the only strings are from fixed alphabets without quotes
/// or escapes.
fn raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim())
}

fn str_field(line: &str, key: &str) -> Option<String> {
    let raw = raw_field(line, key)?;
    let inner = raw.strip_prefix('"')?.strip_suffix('"')?;
    Some(inner.to_string())
}

fn num_field(line: &str, key: &str) -> Option<Option<f64>> {
    let raw = raw_field(line, key)?;
    if raw == "null" {
        return Some(None);
    }
    raw.parse::<f64>().ok().map(Some)
}

fn usize_field(line: &str, key: &str) -> Option<usize> {
    raw_field(line, key)?.parse().ok()
}

/// Parse one cell line. `None` for anything torn or off-schema.
pub fn parse_cell_line(line: &str) -> Option<StoredCell> {
    if !line.starts_with("{\"cell\":") || !line.ends_with('}') {
        return None;
    }
    let id = usize_field(line, "cell")?;
    let status = str_field(line, "status")?;
    if ![STATUS_SIMULATED, STATUS_CLUSTERED].contains(&status.as_str()) {
        return None;
    }
    let source = match raw_field(line, "source")? {
        "null" => None,
        raw => Some(raw.parse::<usize>().ok()?),
    };
    let count = usize_field(line, "count")?;
    let nan = usize_field(line, "nan")?;
    let opt_ms = num_field(line, "opt_ms")?;
    let max_ms = num_field(line, "max_ms")?;
    let outcome = match (opt_ms, max_ms) {
        (None, _) => None,
        (Some(opt_ms), None) => Some(CellOutcome {
            stats: None,
            nan,
            opt_ms,
        }),
        (Some(opt_ms), Some(max)) => Some(CellOutcome {
            stats: Some(SampleStats {
                count,
                nonfinite: nan,
                min: num_field(line, "min_ms")??,
                max,
                mean: num_field(line, "mean_ms")??,
                p50: num_field(line, "p50_ms")??,
                p95: num_field(line, "p95_ms")??,
                p99: num_field(line, "p99_ms")??,
            }),
            nan,
            opt_ms,
        }),
    };
    Some(StoredCell {
        id,
        status,
        source,
        outcome,
        line: line.to_string(),
    })
}

/// Load a prior store for `--resume`.
///
/// The first line must be a complete header: if it parses as a header but
/// does not match `want_header`, the store belongs to a different grid
/// and loading *errors* (silently mixing grids would corrupt cell
/// identities). A torn or missing header makes the whole file count as
/// dropped — the sweep restarts from scratch. Cell lines are consumed in
/// order up to the first torn/malformed line; everything from that point
/// on is dropped (torn tail from a crashed run), counted in
/// [`StoreLoad::dropped`].
pub(crate) fn parse_store(text: &str, want_header: &str) -> Result<StoreLoad, String> {
    let mut load = StoreLoad::default();
    let mut lines = text.lines();
    match lines.next() {
        None => return Ok(load),
        Some(first) if first == want_header => {}
        Some(first) => {
            if first.starts_with("{\"sweep\":") && first.ends_with('}') {
                return Err(format!(
                    "store header does not match this grid\n  store: {first}\n  want:  {want_header}"
                ));
            }
            // Torn header: nothing in the file is trustworthy.
            load.dropped = text.lines().count();
            return Ok(load);
        }
    }
    let mut tail_torn = false;
    for line in lines {
        if tail_torn {
            load.dropped += 1;
            continue;
        }
        match parse_cell_line(line) {
            Some(cell) => {
                load.cells.entry(cell.id).or_insert(cell);
            }
            None => {
                tail_torn = true;
                load.dropped += 1;
            }
        }
    }
    Ok(load)
}

/// A crossover-table row: one (dist, m, ε, util) point with the mean
/// max-flow (over finite replicas, ms) per policy class and the verdict.
#[derive(Clone, Debug)]
pub(crate) struct CrossoverRow {
    /// Distribution name.
    pub dist: String,
    /// Machine size.
    pub m: usize,
    /// ε rendering.
    pub eps: String,
    /// Target utilization.
    pub util: f64,
    /// Mean max-flow of centralized FIFO, if present and non-empty.
    pub fifo_ms: Option<f64>,
    /// Mean max-flow of admit-first.
    pub admit_ms: Option<f64>,
    /// Best steal-k policy: `(k, mean max-flow)`.
    pub steal: Option<(u32, f64)>,
    /// `admit`, `steal:K`, or `-` when undecidable.
    pub verdict: String,
}

/// Build the steal-k vs admit-first crossover table from final records.
/// Empty cells simply contribute nothing — a policy with no finite
/// replicas at a point shows as `-`.
pub(crate) fn crossover_rows(
    cells: &[CellSpec],
    outcomes: &[Option<CellOutcome>],
) -> Vec<CrossoverRow> {
    // (dist, m, eps, util-bits) → policy → (sum, n). Keyed by the util's
    // bit pattern so the BTreeMap ordering is total without float Ord.
    type PointKey = (String, usize, String, u64);
    let mut acc: BTreeMap<PointKey, BTreeMap<String, (f64, u32)>> = BTreeMap::new();
    for (spec, outcome) in cells.iter().zip(outcomes) {
        let Some(max) = outcome.as_ref().and_then(CellOutcome::max_ms) else {
            continue;
        };
        let key = (
            spec.dist.name().to_string(),
            spec.m,
            spec.eps_str(),
            spec.util.to_bits(),
        );
        let slot = acc
            .entry(key)
            .or_default()
            .entry(spec.policy.name())
            .or_insert((0.0, 0));
        slot.0 += max;
        slot.1 += 1;
    }
    let mut rows = Vec::new();
    for ((dist, m, eps, util_bits), policies) in acc {
        let mean = |name: &str| -> Option<f64> {
            policies
                .get(name)
                .filter(|(_, n)| *n > 0)
                .map(|(sum, n)| sum / *n as f64)
        };
        let fifo_ms = mean("fifo");
        let admit_ms = mean("admit");
        let mut steal: Option<(u32, f64)> = None;
        for (name, (sum, n)) in &policies {
            if let Ok(SweepPolicy::StealK(k)) = SweepPolicy::parse(name) {
                let v = sum / *n as f64;
                if steal.map(|(_, best)| v < best).unwrap_or(true) {
                    steal = Some((k, v));
                }
            }
        }
        let verdict = match (admit_ms, steal) {
            (Some(a), Some((k, s))) if s < a => format!("steal:{k}"),
            (Some(_), Some(_)) => "admit".to_string(),
            (Some(_), None) => "admit".to_string(),
            (None, Some((k, _))) => format!("steal:{k}"),
            (None, None) => "-".to_string(),
        };
        rows.push(CrossoverRow {
            dist,
            m,
            eps,
            util: f64::from_bits(util_bits),
            fifo_ms,
            admit_ms,
            steal,
            verdict,
        });
    }
    rows
}

fn ms(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => format!("{v:.2}"),
        _ => "-".to_string(),
    }
}

/// Render the crossover table (also pasted into EXPERIMENTS.md).
pub(crate) fn render_crossover(rows: &[CrossoverRow]) -> String {
    let mut t = Table::new([
        "dist",
        "m",
        "eps",
        "util",
        "fifo_ms",
        "admit_ms",
        "best_steal",
        "steal_ms",
        "winner",
    ]);
    for r in rows {
        t.row([
            r.dist.clone(),
            format!("{}", r.m),
            r.eps.clone(),
            format!("{}", r.util),
            ms(r.fifo_ms),
            ms(r.admit_ms),
            r.steal
                .map(|(k, _)| format!("steal:{k}"))
                .unwrap_or_else(|| "-".to_string()),
            ms(r.steal.map(|(_, v)| v)),
            r.verdict.clone(),
        ]);
    }
    t.render()
}

/// The same grid reference as a Markdown table for EXPERIMENTS.md.
pub(crate) fn render_crossover_markdown(rows: &[CrossoverRow]) -> String {
    let mut out = String::from(
        "| dist | m | eps | util | fifo (ms) | admit (ms) | best steal | steal (ms) | winner |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
            r.dist,
            r.m,
            r.eps,
            r.util,
            ms(r.fifo_ms),
            ms(r.admit_ms),
            r.steal
                .map(|(k, _)| format!("steal:{k}"))
                .unwrap_or_else(|| "-".to_string()),
            ms(r.steal.map(|(_, v)| v)),
            r.verdict,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::grid::SweepGrid;

    fn smoke_cells() -> Vec<CellSpec> {
        SweepGrid::parse("smoke").unwrap().cells()
    }

    #[test]
    fn cell_line_round_trips_bytes() {
        let cells = smoke_cells();
        let out = CellOutcome::from_flows_ms(&[1.5, 2.25, f64::NAN, 40.0], 3.75);
        let line = cell_line(&cells[0], STATUS_SIMULATED, None, Some(&out));
        let parsed = parse_cell_line(&line).unwrap();
        assert_eq!(parsed.id, cells[0].id);
        assert_eq!(parsed.status, STATUS_SIMULATED);
        let back = parsed.outcome.unwrap();
        assert_eq!(back, out);
        // Re-emitting the parsed outcome reproduces the exact bytes.
        let again = cell_line(&cells[0], STATUS_SIMULATED, None, Some(&back));
        assert_eq!(again, line);
    }

    #[test]
    fn empty_and_pruned_cells_serialize_null_not_nan() {
        let cells = smoke_cells();
        // All-NaN flows: an empty cell, stats absent, nan counted.
        let empty = CellOutcome::from_flows_ms(&[f64::NAN, f64::NAN], 2.0);
        assert!(empty.stats.is_none());
        assert_eq!(empty.nan, 2);
        let line = cell_line(&cells[1], STATUS_SIMULATED, None, Some(&empty));
        assert!(line.contains("\"max_ms\":null"));
        assert!(
            !line.contains("NaN"),
            "no NaN literals in the store: {line}"
        );
        let back = parse_cell_line(&line).unwrap().outcome.unwrap();
        assert_eq!(back, empty);
        // No outcome at all: every statistic is null.
        let none = cell_line(&cells[2], STATUS_CLUSTERED, Some(0), None);
        assert!(none.contains("\"opt_ms\":null"));
        assert!(parse_cell_line(&none).unwrap().outcome.is_none());
        // `pruned` (written by the removed dominance pruner) is off-schema:
        // `--resume` drops such a line and everything after it.
        let pruned = none.replace("\"clustered\"", "\"pruned\"");
        assert!(parse_cell_line(&pruned).is_none());
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let cells = smoke_cells();
        let header = header_line("g", cells.len());
        let out = CellOutcome::from_flows_ms(&[1.0, 2.0], 1.0);
        let l0 = cell_line(&cells[0], STATUS_SIMULATED, None, Some(&out));
        let l1 = cell_line(&cells[1], STATUS_SIMULATED, None, Some(&out));
        let torn = &l1[..l1.len() / 2];
        let text = format!("{header}\n{l0}\n{torn}");
        let load = parse_store(&text, &header).unwrap();
        assert_eq!(load.cells.len(), 1);
        assert_eq!(load.dropped, 1);
        assert!(load.cells.contains_key(&cells[0].id));
    }

    #[test]
    fn grid_mismatch_is_an_error_torn_header_is_fresh() {
        let want = header_line("grid-a", 4);
        let other = header_line("grid-b", 4);
        assert!(parse_store(&format!("{other}\n"), &want).is_err());
        // A torn header cannot be trusted: everything drops, no error.
        let torn = &want[..want.len() - 3];
        let load = parse_store(&format!("{torn}\njunk"), &want).unwrap();
        assert!(load.cells.is_empty());
        assert_eq!(load.dropped, 2);
        // Empty file: fresh start.
        let load = parse_store("", &want).unwrap();
        assert!(load.cells.is_empty());
        assert_eq!(load.dropped, 0);
    }

    #[test]
    fn crossover_prefers_lower_mean_max_flow() {
        let cells = SweepGrid::parse("dist=bing;util=0.8;policy=admit,steal:4,fifo;m=4;seeds=1")
            .unwrap()
            .cells();
        let outcomes: Vec<Option<CellOutcome>> = cells
            .iter()
            .map(|c| {
                let v = match c.policy.name().as_str() {
                    "fifo" => 50.0,
                    "admit" => 20.0,
                    _ => 10.0,
                };
                Some(CellOutcome::from_flows_ms(&[v], 5.0))
            })
            .collect();
        let rows = crossover_rows(&cells, &outcomes);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, "steal:4");
        assert_eq!(rows[0].steal, Some((4, 10.0)));
        let rendered = render_crossover(&rows);
        assert!(rendered.contains("steal:4"));
        let md = render_crossover_markdown(&rows);
        assert!(md.starts_with("| dist |"));
    }
}
