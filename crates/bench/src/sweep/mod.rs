//! Mega-sweep harness: cluster → fan-out → aggregate.
//!
//! A [`grid::SweepGrid`] enumerates the cartesian product over
//! (workload × load × policy × k × ε × m × seed replicas) into cells.
//! [`run_sweep`] evaluates every cell of every load level as one batch:
//!
//! 1. **cluster** — `cluster::cluster` buckets structurally identical
//!    cells (e.g. seed replicas of deterministic FIFO) so only one
//!    representative per bucket is simulated;
//! 2. **fan-out** — representatives are grouped by generated
//!    instance and dispatched across the experiment thread pool; the
//!    work-stealing replicas of one instance share one replica-driver
//!    call ([`parflow_core::simulate_batched`]: one set of stepper buffers
//!    for the whole group), or one per chunk when there are fewer groups
//!    than threads;
//! 3. **aggregate** — every cell (simulated, clustered, reused) streams
//!    into one jsonl store ([`aggregate`]) with a stable schema.
//!
//! The store is byte-identical across thread counts and across
//! fresh-vs-`--resume` runs: results are keyed and emitted in cell-id
//! order, and resumed lines are re-emitted verbatim.
//!
//! Two kinds of caller run it: the `sweep` subcommand ([`cli_main`], behind
//! `repro sweep` and `parflow sweep`), which writes the store, and the
//! grid-shaped `repro` experiments (Figure 2, `steal-k`, `theory-fifo`,
//! `variance`, `scaling`; `experiments::grids`), which run a
//! materialized, uncertified grid and project its [`CellRecord`]s into a
//! table.

pub mod aggregate;
mod cluster;
pub mod grid;

use std::collections::BTreeMap;

use parflow_core::{
    opt_max_flow, run_priority, run_worksteal, simulate_batched, simulate_fifo, Fifo, ReplicaSpec,
    SimConfig,
};
use parflow_obs::args::{ArgError, Args};
use parflow_obs::NullRecorder;
use parflow_workloads::{WorkloadSpec, TICKS_PER_SECOND};

use crate::experiments::{env_threads, par_map};
use crate::stream::run_stream;
use aggregate::{
    cell_line, crossover_rows, header_line, parse_store, render_crossover,
    render_crossover_markdown, CellOutcome, CrossoverRow, StoreLoad, STATUS_CLUSTERED,
    STATUS_SIMULATED,
};
use cluster::cluster;
use grid::{CellSpec, SweepGrid};

/// Tunables for one sweep run.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Fan-out width for the instance-group thread pool (default 1,
    /// serial). Passed explicitly (rather than read from the environment
    /// inside the sweep) so determinism tests can pin both sides of a
    /// comparison.
    pub threads: usize,
    /// Stream cells through the O(active)-memory engines instead of
    /// materializing instances. Enables `jobs` counts that would not fit
    /// in memory; flow statistics come from the streaming layer (exact
    /// max/mean, histogram percentiles) and OPT from the incremental
    /// tracker. The streaming source draws its RNG in a different order
    /// than `generate()`, so streaming stores are a distinct population —
    /// the store header is tagged and `--resume` refuses to mix them.
    pub stream: bool,
    /// Machine-check paper invariants (P1–P5) on spot-checked cells. For
    /// materialized groups, one work-stealing cell and one FIFO cell per
    /// instance are re-run with tracing and replayed through
    /// [`parflow_certify::certify_run`]; streaming cells get the P5
    /// lower-bound check on their exact max flow. Off by default so the
    /// hot path (and the bench goldens) never pays for tracing.
    pub certify: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            threads: 1,
            stream: false,
            certify: false,
        }
    }
}

/// Final state of one cell after a sweep run.
#[derive(Clone, Debug)]
pub struct CellRecord {
    /// The grid point.
    pub spec: CellSpec,
    /// `simulated` | `clustered`.
    pub status: String,
    /// Representative id for clustered cells.
    pub source: Option<usize>,
    /// Measured outcome; `None` when a resumed line, or its
    /// representative's, carries none (`"opt_ms":null`).
    pub outcome: Option<CellOutcome>,
    /// Whether the cell was reloaded from a prior store (`--resume`).
    pub reused: bool,
    /// The exact store line.
    pub line: String,
}

impl CellRecord {
    /// A record made by this run (not reloaded) and its store line.
    fn fresh(
        cell: &CellSpec,
        status: &str,
        source: Option<usize>,
        outcome: Option<CellOutcome>,
    ) -> CellRecord {
        CellRecord {
            spec: cell.clone(),
            status: status.to_string(),
            source,
            outcome,
            reused: false,
            line: cell_line(cell, status, source, outcome.as_ref()),
        }
    }
}

/// Skip/coverage accounting for one run. Everything not simulated is
/// *counted* here — the sweep never silently truncates coverage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepSummary {
    /// Total grid cells.
    pub cells: usize,
    /// Cells whose line carries `simulated` status.
    pub simulated: usize,
    /// Cells folded into a clustered representative.
    pub clustered: usize,
    /// Cells reloaded verbatim from the prior store.
    pub reused: usize,
    /// Engine runs actually executed this invocation.
    pub executed: usize,
    /// Distinct instances generated this invocation.
    pub instances: usize,
    /// Cells with an outcome but no finite flow samples.
    pub empty: usize,
    /// Non-finite flow samples counted out-of-band across all cells.
    pub nan_samples: usize,
    /// Torn/malformed prior-store lines dropped during `--resume`.
    pub dropped_lines: usize,
}

impl SweepSummary {
    /// One-line human rendering for CLI output and logs.
    pub fn render(&self) -> String {
        format!(
            "cells={} simulated={} clustered={} reused={} \
executed={} instances={} empty={} nan_samples={} dropped_lines={}",
            self.cells,
            self.simulated,
            self.clustered,
            self.reused,
            self.executed,
            self.instances,
            self.empty,
            self.nan_samples,
            self.dropped_lines,
        )
    }
}

/// The result of [`run_sweep`]: every cell record plus the store text.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// The store header line.
    pub header: String,
    /// Per-cell records in id order.
    pub records: Vec<CellRecord>,
    /// Coverage accounting.
    pub summary: SweepSummary,
}

impl SweepOutcome {
    /// The full jsonl store (header + one line per cell, id order).
    pub fn store(&self) -> String {
        let mut out = String::with_capacity((self.records.len() + 1) * 192);
        out.push_str(&self.header);
        out.push('\n');
        for r in &self.records {
            out.push_str(&r.line);
            out.push('\n');
        }
        out
    }

    /// The steal-k vs admit-first crossover rows over the final records.
    pub(crate) fn crossover(&self) -> Vec<CrossoverRow> {
        let specs: Vec<CellSpec> = self.records.iter().map(|r| r.spec.clone()).collect();
        let outcomes: Vec<Option<CellOutcome>> = self.records.iter().map(|r| r.outcome).collect();
        crossover_rows(&specs, &outcomes)
    }
}

/// What to do with one cell, decided before fan-out.
enum Disposition {
    /// Reload the stored line verbatim.
    Reuse(aggregate::StoredCell),
    /// Copy the representative's outcome after it resolves.
    Member(usize),
    /// Simulate for real.
    Simulate,
}

fn outcome_of(result: &parflow_core::SimResult, opt_ms: f64) -> CellOutcome {
    let to_ms = 1000.0 / TICKS_PER_SECOND;
    let flows_ms: Vec<f64> = result.flows().map(|f| f.to_f64() * to_ms).collect();
    CellOutcome::from_flows_ms(&flows_ms, opt_ms)
}

/// Fold a streaming run into a cell outcome: max and mean are exact,
/// percentiles are histogram-approximate (one bin width), OPT comes from
/// the incremental tracker over the same arrivals.
fn stream_outcome(run: &crate::stream::StreamRun) -> CellOutcome {
    let to_ms = 1000.0 / TICKS_PER_SECOND;
    let f = &run.flows;
    let stats = (f.count() > 0).then(|| parflow_metrics::SampleStats {
        count: f.count() as usize,
        nonfinite: f.nan() as usize,
        min: f.min().unwrap_or(0.0) * to_ms,
        max: f.max().to_f64() * to_ms,
        mean: f.mean().unwrap_or(0.0) * to_ms,
        p50: f.quantile(0.50).unwrap_or(f64::NAN) * to_ms,
        p95: f.quantile(0.95).unwrap_or(f64::NAN) * to_ms,
        p99: f.quantile(0.99).unwrap_or(f64::NAN) * to_ms,
    });
    CellOutcome {
        stats,
        nan: f.nan() as usize,
        opt_ms: run.opt.combined_lower_bound().to_f64() * to_ms,
    }
}

/// Simulate one instance group (the to-simulate cells that share one
/// generated instance, and so one OPT computation): generate the instance
/// once, run its work-stealing cells through one replica-driver call per
/// chunk (one chunk per thread of `threads`), and the FIFO cells through
/// the centralized engine. With `certify`, one
/// work-stealing cell and one FIFO cell per group are re-run with
/// tracing and machine-checked against the paper invariants (P1–P5);
/// streaming cells get the P5 lower-bound check on their exact max flow.
fn run_instance(
    cells: &[CellSpec],
    threads: usize,
    stream: bool,
    certify: bool,
) -> Result<Vec<(usize, CellOutcome)>, String> {
    let Some(first) = cells.first() else {
        return Ok(Vec::new());
    };
    let spec = WorkloadSpec::paper_fig2(first.dist, first.qps, first.jobs, first.workload_seed);
    if stream {
        // Streaming path: never materialize the instance. Each cell pulls
        // the spec's endless source through an O(active)-memory engine;
        // the grid's u32 jobs-axis guard rules out TooManyJobs, sources
        // are sorted, and no faults are configured, so a stream error can
        // only mean a broken invariant — it degrades to an empty cell
        // (counted by `SweepSummary::empty`) instead of panicking.
        let jobs_n = first.jobs as u64;
        let mut out: Vec<(usize, CellOutcome)> = Vec::with_capacity(cells.len());
        for cell in cells {
            let cfg = engine_config(cell);
            let run = run_stream(
                &spec,
                &cfg,
                cell.policy.steal_policy(),
                cell.engine_seed,
                jobs_n,
                &mut NullRecorder,
            );
            let outcome = match run {
                Ok(run) => {
                    let report = certify.then(|| run.certify(cell.speed()));
                    if let Some(report) = report.filter(|r| !r.is_clean()) {
                        return Err(format!("--certify: cell {}: {}", cell.id, report.render()));
                    }
                    stream_outcome(&run)
                }
                Err(_) => CellOutcome::from_flows_ms(&[], 0.0),
            };
            out.push((cell.id, outcome));
        }
        return Ok(out);
    }
    let instance = spec.generate();
    let to_ms = 1000.0 / TICKS_PER_SECOND;
    let opt_ms = opt_max_flow(&instance, first.m).to_f64() * to_ms;
    let mut ws: Vec<(usize, ReplicaSpec)> = Vec::new();
    let mut out: Vec<(usize, CellOutcome)> = Vec::with_capacity(cells.len());
    let mut fifo_certified = false;
    for cell in cells {
        let cfg = engine_config(cell);
        match cell.policy.steal_policy() {
            Some(policy) => ws.push((cell.id, ReplicaSpec::new(cfg, policy, cell.engine_seed))),
            None => {
                if certify && !fifo_certified {
                    fifo_certified = true;
                    certify_cell(&instance, &cfg, None, cell.id, |traced| {
                        run_priority(&instance, traced, &Fifo)
                    })?;
                }
                let result = simulate_fifo(&instance, &cfg);
                out.push((cell.id, outcome_of(&result, opt_ms)));
            }
        }
    }
    if !ws.is_empty() {
        if certify {
            // One replica per group is enough for a spot-check: every
            // replica shares the instance, and the replica driver runs the
            // same stepper as `run_worksteal`.
            if let Some((id, spec)) = ws.first() {
                certify_cell(&instance, &spec.config, Some(spec.policy), *id, |traced| {
                    run_worksteal(&instance, traced, spec.policy, spec.seed)
                })?;
            }
        }
        let specs: Vec<ReplicaSpec> = ws.iter().map(|(_, s)| s.clone()).collect();
        let chunks: Vec<&[ReplicaSpec]> = specs.chunks(specs.len().div_ceil(threads)).collect();
        let results = par_map(threads, chunks, |chunk| {
            simulate_batched(&instance, chunk, 1)
        });
        for ((id, _), result) in ws.iter().zip(results.iter().flatten()) {
            out.push((*id, outcome_of(result, opt_ms)));
        }
    }
    Ok(out)
}

/// A cell's engine: `m` processors at speed 1 + ε, with free steals for
/// the work-stealing policies.
fn engine_config(cell: &CellSpec) -> SimConfig {
    let cfg = SimConfig::new(cell.m).with_speed(cell.speed());
    match cell.policy.steal_policy() {
        Some(_) => cfg.with_free_steals(),
        None => cfg,
    }
}

/// Re-run one cell with tracing enabled and replay the schedule through
/// the independent certifier. Tracing only records — it never changes
/// scheduling decisions — so the traced run is the same schedule the
/// untraced cell measured.
fn certify_cell(
    instance: &parflow_dag::Instance,
    cfg: &SimConfig,
    policy: Option<parflow_core::StealPolicy>,
    id: usize,
    run: impl FnOnce(&SimConfig) -> (parflow_core::SimResult, Option<parflow_core::ScheduleTrace>),
) -> Result<(), String> {
    let traced = cfg.clone().with_trace();
    let (result, trace) = run(&traced);
    let Some(trace) = trace else {
        return Err(format!(
            "--certify: cell {id}: traced run produced no trace"
        ));
    };
    let report = parflow_certify::certify_run(instance, &traced, policy, &result, &trace);
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!("--certify: cell {id}: {}", report.render()))
    }
}

/// Run the whole sweep. `prior` is the text of an existing store for
/// `--resume` (its header must match this grid); `None` runs fresh.
/// Pure with respect to the filesystem — the CLI owns all IO.
pub fn run_sweep(
    grid: &SweepGrid,
    prior: Option<&str>,
    opts: &SweepOptions,
) -> Result<SweepOutcome, String> {
    let cells = grid.cells();
    // Streaming stores sample a different workload realization (the
    // streaming source's RNG draw order differs from `generate()`), so
    // tag the header: `--resume` then refuses to mix the populations.
    let canonical = if opts.stream {
        format!("{};stream", grid.canonical())
    } else {
        grid.canonical()
    };
    let header = header_line(&canonical, cells.len());
    let mut load = match prior {
        Some(text) => parse_store(text, &header)?,
        None => StoreLoad::default(),
    };
    let clustering = cluster(&cells);
    let mut summary = SweepSummary {
        cells: cells.len(),
        dropped_lines: load.dropped,
        ..SweepSummary::default()
    };

    // Disposition pass, in id order. Reuse wins over everything (the
    // stored line is the ground truth this run must reproduce).
    let disposition: Vec<Disposition> = cells
        .iter()
        .map(|cell| match load.cells.remove(&cell.id) {
            Some(stored) => Disposition::Reuse(stored),
            None => match clustering.rep_of.get(&cell.id) {
                Some(&rep) if rep != cell.id => Disposition::Member(rep),
                _ => Disposition::Simulate,
            },
        })
        .collect();

    // Fan the to-simulate cells out, grouped by shared instance; the
    // instance groups of every load level share the pool.
    let mut groups: BTreeMap<String, Vec<CellSpec>> = BTreeMap::new();
    for (cell, d) in cells.iter().zip(&disposition) {
        if matches!(d, Disposition::Simulate) {
            groups
                .entry(cell.instance_key())
                .or_default()
                .push(cell.clone());
        }
    }
    summary.instances = groups.len();
    let jobs: Vec<Vec<CellSpec>> = groups.into_values().collect();
    // Threads the groups leave idle split each group's replicas (one
    // group of 20 on 2 threads runs as two chunks of 10); results come
    // back in id order whatever the split.
    let split = (opts.threads / jobs.len().max(1)).max(1);
    let results = par_map(opts.threads, jobs, |group| {
        run_instance(&group, split, opts.stream, opts.certify)
    });
    let mut simulated: BTreeMap<usize, CellOutcome> = BTreeMap::new();
    for group in results {
        for (id, outcome) in group? {
            summary.executed += 1;
            simulated.insert(id, outcome);
        }
    }

    // Materialize records in id order. A clustered member copies its
    // representative's outcome: the representative has the lower id, so
    // its record is already built.
    let mut records: Vec<CellRecord> = Vec::with_capacity(cells.len());
    for (cell, d) in cells.iter().zip(disposition) {
        let record = match d {
            Disposition::Reuse(stored) => CellRecord {
                spec: cell.clone(),
                status: stored.status,
                source: stored.source,
                outcome: stored.outcome,
                reused: true,
                line: stored.line,
            },
            Disposition::Simulate => {
                let outcome = simulated.get(&cell.id).copied();
                CellRecord::fresh(cell, STATUS_SIMULATED, None, outcome)
            }
            Disposition::Member(rep) => {
                let outcome = records.get(rep).and_then(|r| r.outcome);
                CellRecord::fresh(cell, STATUS_CLUSTERED, Some(rep), outcome)
            }
        };
        records.push(record);
    }
    for r in &records {
        if r.status == STATUS_SIMULATED {
            summary.simulated += 1;
        } else {
            summary.clustered += 1;
        }
        if r.reused {
            summary.reused += 1;
        }
        if let Some(o) = &r.outcome {
            summary.nan_samples += o.nan;
            if o.stats.is_none() {
                summary.empty += 1;
            }
        }
    }
    Ok(SweepOutcome {
        header,
        records,
        summary,
    })
}

const USAGE: &str = "usage: sweep [--grid SPEC|smoke|phase] [--out PATH] [--resume]
             [--threads N] [--seeds N] [--jobs N]
             [--stream] [--certify] [--no-table] [--markdown]

Runs the cluster -> fan-out -> aggregate mega-sweep and writes a jsonl
store (header + one line per grid cell, in cell-id order). With --resume,
cells already present in --out are reloaded verbatim and only the
remainder is simulated; from the first torn or malformed line on (a
crashed run's torn tail, or a `pruned` line from an older store) every
line is dropped, counted in dropped_lines and re-simulated. --stream runs every cell through the
O(active)-memory streaming engines (exact max flow, incremental OPT),
enabling --jobs counts that would not fit in memory; streaming stores are
header-tagged and cannot be resumed into materialized ones. --certify
machine-checks the paper invariants (P1-P5) on spot-checked cells: per
instance group, one work-stealing and one FIFO cell are re-run with
tracing and replayed through parflow-certify; streaming cells get the P5
lower-bound check. A violation aborts the sweep with the diagnostic.";

/// `repro sweep` / `parflow sweep` entry point. Returns the rendered
/// report (summary + crossover table) for the caller to print.
pub fn cli_main(args: &[String]) -> Result<String, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(USAGE.to_string());
    }
    let usage = |e: ArgError| format!("{e}\n{USAGE}");
    let bools = ["resume", "stream", "certify", "no-table", "markdown"];
    let flags = Args::parse(args, &bools).map_err(usage)?;
    let threads: Option<usize> = flags.get("threads").map_err(usage)?;
    let opts = SweepOptions {
        threads: threads.map_or_else(env_threads, Ok)?,
        stream: flags.flag("stream"),
        certify: flags.flag("certify"),
    };
    let grid_spec = flags.get_or("grid", "smoke".to_string()).map_err(usage)?;
    let out_path: Option<String> = flags.get("out").map_err(usage)?;
    let seeds: Option<u32> = flags.get("seeds").map_err(usage)?;
    let jobs: Option<usize> = flags.get("jobs").map_err(usage)?;
    let resume = flags.flag("resume");
    let table = !flags.flag("no-table");
    let markdown = flags.flag("markdown");
    flags.finish().map_err(usage)?;
    let mut grid = SweepGrid::parse(&grid_spec)?;
    if let Some(s) = seeds {
        if s == 0 {
            return Err("--seeds must be at least 1".to_string());
        }
        grid.seeds = s;
    }
    if let Some(j) = jobs {
        grid.jobs = j;
        grid.check_jobs().map_err(|e| format!("--jobs: {e}"))?;
    }
    if resume && out_path.is_none() {
        return Err(format!("--resume needs --out\n{USAGE}"));
    }
    let prior = match (&out_path, resume) {
        // A missing store reads as None: a resume of nothing is a fresh run.
        (Some(path), true) => std::fs::read_to_string(path).ok(),
        _ => None,
    };
    let outcome = run_sweep(&grid, prior.as_deref(), &opts)?;
    if let Some(path) = &out_path {
        std::fs::write(path, outcome.store())
            .map_err(|e| format!("cannot write store `{path}`: {e}"))?;
    }
    let mut report = String::new();
    report.push_str(&format!("sweep grid: {}\n", grid.canonical()));
    report.push_str(&format!("{}\n", outcome.summary.render()));
    if opts.certify {
        // run_sweep would have erred on any violation; reaching here
        // means every spot-checked cell certified clean.
        report.push_str("certify: clean (P1-P5 spot checks on every instance group)\n");
    }
    if let Some(path) = &out_path {
        report.push_str(&format!("store written to {path}\n"));
    }
    if table {
        let rows = outcome.crossover();
        if !rows.is_empty() {
            report.push_str("\nsteal-k vs admit-first crossover (mean max-flow, ms):\n");
            if markdown {
                report.push_str(&render_crossover_markdown(&rows));
            } else {
                report.push_str(&render_crossover(&rows));
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> SweepGrid {
        SweepGrid::parse("dist=bing;util=0.5,0.9;policy=fifo,admit,steal:4;m=2;seeds=2;jobs=60")
            .unwrap()
    }

    #[test]
    fn sweep_covers_every_cell_and_counts_add_up() {
        let grid = tiny_grid();
        let out = run_sweep(&grid, None, &SweepOptions::default()).unwrap();
        let s = out.summary;
        assert_eq!(s.cells, grid.cell_count());
        assert_eq!(out.records.len(), s.cells);
        assert_eq!(s.simulated + s.clustered, s.cells);
        // FIFO seed replicas cluster: one fold per (util, fifo) pair.
        assert!(
            s.clustered >= 2,
            "fifo replicas should cluster: {}",
            s.render()
        );
        for (i, r) in out.records.iter().enumerate() {
            assert_eq!(r.spec.id, i);
        }
    }

    #[test]
    fn certified_sweep_is_clean_and_store_identical() {
        // Certification re-runs spot-checked cells with tracing; the
        // measured store must be byte-identical to an uncertified run
        // (certification is observation, never perturbation). The second
        // grid spells each dist and policy every way the shared parsers
        // accept; the spellings fold to 3 dists x 3 policies.
        let spellings = "dist=log-normal,lognormal,Bing,finance;util=0.6;m=2;jobs=60;\
                         policy=steal-4-first,steal:4,admit-first,fifo";
        let spellings = SweepGrid::parse(spellings).unwrap();
        assert_eq!(spellings.cell_count(), 9);
        for grid in [tiny_grid(), spellings] {
            let plain = run_sweep(&grid, None, &SweepOptions::default()).unwrap();
            let certified = run_sweep(
                &grid,
                None,
                &SweepOptions {
                    certify: true,
                    ..SweepOptions::default()
                },
            )
            .unwrap();
            assert_eq!(plain.store(), certified.store());
            assert_eq!(plain.summary, certified.summary);
        }
    }

    #[test]
    fn certified_streaming_sweep_is_clean() {
        let grid = tiny_grid();
        let opts = SweepOptions {
            stream: true,
            certify: true,
            ..SweepOptions::default()
        };
        let out = run_sweep(&grid, None, &opts).unwrap();
        assert_eq!(out.summary.cells, grid.cell_count());
        assert_eq!(out.summary.empty, 0, "{}", out.summary.render());
    }

    #[test]
    fn store_is_thread_count_invariant() {
        // Every level fans out at once (7 threads over 2 groups also split
        // each group's replicas); the store must not depend on the thread
        // count or on resuming a torn prefix.
        let grid = tiny_grid();
        let opts = |threads| SweepOptions {
            threads,
            ..SweepOptions::default()
        };
        let one = run_sweep(&grid, None, &opts(1)).unwrap();
        let many = run_sweep(&grid, None, &opts(7)).unwrap();
        assert_eq!(one.store(), many.store());
        assert_eq!(one.summary, many.summary);
        assert_eq!(one.summary.instances, grid.utils.len());
        let store = one.store();
        let resumed = run_sweep(&grid, Some(&store[..store.len() / 2]), &opts(3)).unwrap();
        assert_eq!(resumed.store(), store);
    }

    #[test]
    fn resume_from_full_store_simulates_nothing_and_matches() {
        let grid = tiny_grid();
        let opts = SweepOptions::default();
        let fresh = run_sweep(&grid, None, &opts).unwrap();
        let resumed = run_sweep(&grid, Some(&fresh.store()), &opts).unwrap();
        assert_eq!(resumed.store(), fresh.store());
        assert_eq!(resumed.summary.executed, 0, "everything should be reused");
        assert_eq!(resumed.summary.reused, grid.cell_count());
    }

    #[test]
    fn resume_from_torn_store_rederives_identical_store() {
        let grid = tiny_grid();
        let opts = SweepOptions::default();
        let fresh = run_sweep(&grid, None, &opts).unwrap();
        let store = fresh.store();
        // Tear mid-way through the last line (a crashed writer).
        let torn = store[..store.len() - 40].to_string();
        // An older store's `pruned` line is off-schema: it and every line
        // after it are dropped, counted and re-simulated.
        let mid = store.lines().count() / 2;
        let pruned: String = store
            .lines()
            .enumerate()
            .map(|(i, line)| {
                let line = if i == mid {
                    line.replace("\"status\":\"simulated\"", "\"status\":\"pruned\"")
                        .replace("\"status\":\"clustered\"", "\"status\":\"pruned\"")
                } else {
                    line.to_string()
                };
                line + "\n"
            })
            .collect();
        assert!(pruned.contains("\"status\":\"pruned\""));
        for prior in [torn, pruned] {
            let resumed = run_sweep(&grid, Some(&prior), &opts).unwrap();
            assert_eq!(resumed.store(), store);
            assert!(resumed.summary.dropped_lines >= 1);
            assert!(resumed.summary.reused > 0);
            assert!(resumed.summary.executed < fresh.summary.executed);
        }
    }

    #[test]
    fn mismatched_grid_store_is_rejected() {
        let grid = tiny_grid();
        let opts = SweepOptions::default();
        let fresh = run_sweep(&grid, None, &opts).unwrap();
        let mut other = tiny_grid();
        other.jobs = 61;
        let err = run_sweep(&other, Some(&fresh.store()), &opts);
        assert!(err.is_err());
        assert!(err.err().into_iter().any(|e| e.contains("does not match")));
    }

    #[test]
    fn stream_mode_covers_every_cell_with_live_opt() {
        let grid = tiny_grid();
        let opts = SweepOptions {
            stream: true,
            ..SweepOptions::default()
        };
        let out = run_sweep(&grid, None, &opts).unwrap();
        assert_eq!(out.records.len(), grid.cell_count());
        assert!(out.header.contains(";stream"));
        // Every simulated cell carries streaming stats and a positive
        // incremental OPT bound.
        let simulated: Vec<_> = out
            .records
            .iter()
            .filter(|r| r.status == STATUS_SIMULATED)
            .collect();
        assert!(!simulated.is_empty());
        for r in simulated {
            let o = r.outcome.expect("simulated cells have outcomes");
            assert!(o.opt_ms > 0.0, "live OPT bound missing: {o:?}");
            let s = o.stats.expect("streamed flows present");
            assert!(s.count > 0);
            // Percentiles are bin upper edges: within one 1 ms bin of the
            // exact max.
            assert!(s.max >= s.p99 - 1.0 - 1e-9, "max {} p99 {}", s.max, s.p99);
        }
        // Deterministic across thread counts, like the materialized path.
        let again = run_sweep(
            &grid,
            None,
            &SweepOptions {
                stream: true,
                threads: 3,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(out.store(), again.store());
    }

    #[test]
    fn stream_store_cannot_resume_into_materialized_store() {
        let grid = tiny_grid();
        let materialized = run_sweep(&grid, None, &SweepOptions::default()).unwrap();
        let err = run_sweep(
            &grid,
            Some(&materialized.store()),
            &SweepOptions {
                stream: true,
                ..SweepOptions::default()
            },
        );
        assert!(err.is_err(), "streaming resume of a materialized store");
    }

    #[test]
    fn jobs_axis_is_bounded_by_the_job_id_space() {
        let too_many = format!(
            "dist=bing;util=0.5;policy=fifo;m=2;jobs={}",
            u32::MAX as u64 + 1
        );
        let err = SweepGrid::parse(&too_many);
        assert!(err.is_err());
        assert!(err.err().unwrap().contains("job-id space"));
        // The CLI --jobs override hits the same wall.
        let args: Vec<String> = [
            "--grid",
            "dist=bing;util=0.5;policy=fifo;m=2",
            "--jobs",
            "4294967296",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let err = cli_main(&args);
        assert!(err.is_err());
        assert!(err.err().unwrap().contains("job-id space"));
        // The boundary itself is accepted by the parser.
        let ok = SweepGrid::parse(&format!(
            "dist=bing;util=0.5;policy=fifo;m=2;jobs={}",
            u32::MAX
        ));
        assert!(ok.is_ok());
    }

    #[test]
    fn cli_smoke_runs_and_reports() {
        let args: Vec<String> = [
            "--grid",
            "dist=bing;util=0.6;policy=admit,steal:4;m=2",
            "--jobs",
            "50",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let report = cli_main(&args).unwrap();
        assert!(report.contains("cells=2"));
        assert!(report.contains("crossover"));
        let help = cli_main(&["--help".to_string()]).unwrap();
        assert!(help.contains("usage: sweep"));
        assert!(cli_main(&["--bogus".to_string()]).is_err());
        // Misspelt and repeated flags fail before any cell runs, with the
        // flag named and this command's usage.
        let argv = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        let e = cli_main(&argv("--grid smoke --seedz 2")).unwrap_err();
        assert!(
            e.starts_with("--seedz: unknown flag") && e.ends_with(USAGE),
            "{e}"
        );
        let e = cli_main(&argv("--resume --grid smoke --resume")).unwrap_err();
        assert!(e.starts_with("--resume: given more than once"), "{e}");
        let e = cli_main(&argv("--grid smoke stray")).unwrap_err();
        assert!(e.starts_with("unexpected argument 'stray'"), "{e}");
        assert!(
            cli_main(&["--resume".to_string()]).is_err(),
            "--resume needs --out"
        );
    }
}
