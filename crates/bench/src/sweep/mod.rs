//! Mega-sweep harness: cluster → prune → fan-out → aggregate.
//!
//! A [`grid::SweepGrid`] enumerates the cartesian product over
//! (workload × load × policy × k × ε × m × seed replicas) into cells.
//! [`run_sweep`] evaluates it level by level (ascending load):
//!
//! 1. **cluster** — `cluster::cluster` buckets structurally identical
//!    cells (e.g. seed replicas of deterministic FIFO) so only one
//!    representative per bucket is simulated;
//! 2. **prune** — `prune::Pruner` skips whole policy families that were
//!    already dominated at a lower load; pruned cells become *empty*
//!    cells, not holes;
//! 3. **fan-out** — surviving representatives are grouped by generated
//!    instance and dispatched across the experiment thread pool; all
//!    work-stealing replicas of one instance share one replica-driver
//!    call ([`parflow_core::simulate_batched`]: one set of stepper buffers
//!    for the whole group);
//! 4. **aggregate** — every cell (simulated, clustered, pruned, reused)
//!    streams into one jsonl store ([`aggregate`]) with a stable schema.
//!
//! The store is byte-identical across thread counts and across
//! fresh-vs-`--resume` runs: results are keyed and emitted in cell-id
//! order, resumed lines are re-emitted verbatim, and prune decisions are
//! recomputed from the (identical) per-level outcomes rather than
//! trusted from ambient state.

pub mod aggregate;
mod cluster;
pub mod grid;
mod prune;

use std::collections::BTreeMap;

use parflow_core::{
    opt_max_flow, run_priority, run_worksteal, simulate_batched, simulate_fifo, Fifo, ReplicaSpec,
    SimConfig,
};
use parflow_obs::args::{ArgError, Args};
use parflow_workloads::{ShapeKind, WorkloadSpec, TICKS_PER_SECOND};

use crate::experiments::{par_map_with, par_threads};
use aggregate::{
    cell_line, crossover_rows, header_line, parse_store, render_crossover,
    render_crossover_markdown, CellOutcome, CrossoverRow, StoreLoad, STATUS_CLUSTERED,
    STATUS_PRUNED, STATUS_SIMULATED,
};
use cluster::cluster;
use grid::{CellSpec, SweepGrid};
use prune::Pruner;

/// Tunables for one sweep run.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Fan-out width for the instance-group thread pool. Passed
    /// explicitly (rather than read from the environment inside the
    /// sweep) so determinism tests can pin both sides of a comparison.
    pub threads: usize,
    /// Dominance-prune factor; ≤ 1 disables pruning.
    pub prune_factor: f64,
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
            threads: par_threads(),
            prune_factor: 4.0,
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
    /// `simulated` | `clustered` | `pruned`.
    pub status: String,
    /// Representative id for clustered cells.
    pub source: Option<usize>,
    /// Measured outcome; `None` for pruned cells.
    pub outcome: Option<CellOutcome>,
    /// Whether the cell was reloaded from a prior store (`--resume`).
    pub reused: bool,
    /// The exact store line.
    pub line: String,
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
    /// Cells skipped by the dominance pruner (empty cells).
    pub pruned: usize,
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
    /// Policy families killed by the pruner.
    pub pruned_families: usize,
    /// Torn/malformed prior-store lines dropped during `--resume`.
    pub dropped_lines: usize,
}

impl SweepSummary {
    /// One-line human rendering for CLI output and logs.
    pub fn render(&self) -> String {
        format!(
            "cells={} simulated={} clustered={} pruned={} reused={} \
executed={} instances={} empty={} nan_samples={} pruned_families={} dropped_lines={}",
            self.cells,
            self.simulated,
            self.clustered,
            self.pruned,
            self.reused,
            self.executed,
            self.instances,
            self.empty,
            self.nan_samples,
            self.pruned_families,
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

/// What to do with one cell, decided per level before fan-out.
enum Disposition {
    /// Reload the stored line verbatim.
    Reuse(aggregate::StoredCell),
    /// Emit an empty pruned cell.
    Prune,
    /// Copy the representative's outcome after it resolves.
    Member(usize),
    /// Simulate for real.
    Simulate,
}

/// Work sent to one fan-out worker: all to-simulate cells that share one
/// generated instance (and therefore one OPT computation).
struct InstanceJob {
    cells: Vec<CellSpec>,
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

/// Simulate one instance group: generate the instance once, run every
/// work-stealing cell through a single replica-driver call, and the FIFO
/// cells through the centralized engine. With `certify`, one
/// work-stealing cell and one FIFO cell per group are re-run with
/// tracing and machine-checked against the paper invariants (P1–P5);
/// streaming cells get the P5 lower-bound check on their exact max flow.
fn run_instance(
    job: &InstanceJob,
    stream: bool,
    certify: bool,
) -> Result<Vec<(usize, CellOutcome)>, String> {
    let Some(first) = job.cells.first() else {
        return Ok(Vec::new());
    };
    let spec = WorkloadSpec {
        dist: first.dist,
        shape: ShapeKind::ParallelFor { grain: 10 },
        qps: Some(first.qps),
        period_ticks: 0,
        n_jobs: first.jobs,
        seed: first.workload_seed,
    };
    if stream {
        // Streaming path: never materialize the instance. Each cell pulls
        // the spec's endless source through an O(active)-memory engine;
        // the grid's u32 jobs-axis guard rules out TooManyJobs, sources
        // are sorted, and no faults are configured, so a stream error can
        // only mean a broken invariant — it degrades to an empty cell
        // (counted by `SweepSummary::empty`) instead of panicking.
        let jobs_n = first.jobs as u64;
        let mut out: Vec<(usize, CellOutcome)> = Vec::with_capacity(job.cells.len());
        for cell in &job.cells {
            let run = match cell.policy.steal_policy() {
                Some(policy) => {
                    let cfg = SimConfig::new(cell.m)
                        .with_free_steals()
                        .with_speed(cell.speed());
                    crate::stream::run_stream_ws(&spec, &cfg, policy, cell.engine_seed, jobs_n)
                }
                None => {
                    let cfg = SimConfig::new(cell.m).with_speed(cell.speed());
                    crate::stream::run_stream_fifo(&spec, &cfg, jobs_n)
                }
            };
            let outcome = match run {
                Ok(run) => {
                    if certify {
                        let report = parflow_certify::certify_stream_summary(
                            cell.speed(),
                            run.summary.jobs,
                            run.summary.max_flow,
                            run.opt.combined_lower_bound(),
                        );
                        if !report.is_clean() {
                            return Err(format!(
                                "--certify: cell {}: {}",
                                cell.id,
                                report.render()
                            ));
                        }
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
    let mut out: Vec<(usize, CellOutcome)> = Vec::with_capacity(job.cells.len());
    let mut fifo_certified = false;
    for cell in &job.cells {
        match cell.policy.steal_policy() {
            Some(policy) => ws.push((
                cell.id,
                ReplicaSpec::new(
                    SimConfig::new(cell.m)
                        .with_free_steals()
                        .with_speed(cell.speed()),
                    policy,
                    cell.engine_seed,
                ),
            )),
            None => {
                let cfg = SimConfig::new(cell.m).with_speed(cell.speed());
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
        let results = simulate_batched(&instance, &specs, 1);
        for ((id, _), result) in ws.iter().zip(&results) {
            out.push((*id, outcome_of(result, opt_ms)));
        }
    }
    Ok(out)
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
    let load = match prior {
        Some(text) => parse_store(text, &header)?,
        None => StoreLoad::default(),
    };
    let mut pruner = Pruner::new(opts.prune_factor);
    let mut records: Vec<Option<CellRecord>> = cells.iter().map(|_| None).collect();
    let mut summary = SweepSummary {
        cells: cells.len(),
        dropped_lines: load.dropped,
        ..SweepSummary::default()
    };

    for level in 0..grid.utils.len() {
        let lo = cells.partition_point(|c| c.level < level);
        let hi = cells.partition_point(|c| c.level <= level);
        let level_cells = &cells[lo..hi];
        let clustering = cluster(level_cells);

        // Disposition pass, in id order. Reuse wins over everything (the
        // stored line is the ground truth this run must reproduce);
        // pruning is checked before clustering so members of a pruned
        // family never wait on a representative that will not run.
        let mut disposition: BTreeMap<usize, Disposition> = BTreeMap::new();
        for cell in level_cells {
            let d = if let Some(stored) = load.cells.get(&cell.id) {
                Disposition::Reuse(stored.clone())
            } else if pruner.is_pruned(cell) {
                Disposition::Prune
            } else {
                match clustering.rep_of.get(&cell.id) {
                    Some(&rep) if rep != cell.id => Disposition::Member(rep),
                    _ => Disposition::Simulate,
                }
            };
            disposition.insert(cell.id, d);
        }

        // Fan the to-simulate cells out, grouped by shared instance.
        let mut groups: BTreeMap<String, InstanceJob> = BTreeMap::new();
        for cell in level_cells {
            if matches!(disposition.get(&cell.id), Some(Disposition::Simulate)) {
                groups
                    .entry(cell.instance_key())
                    .or_insert_with(|| InstanceJob { cells: Vec::new() })
                    .cells
                    .push(cell.clone());
            }
        }
        summary.instances += groups.len();
        let jobs: Vec<InstanceJob> = groups.into_values().collect();
        let stream = opts.stream;
        let certify = opts.certify;
        let results = par_map_with(opts.threads, jobs, |job| {
            run_instance(&job, stream, certify)
        });
        let mut simulated: BTreeMap<usize, CellOutcome> = BTreeMap::new();
        for group in results {
            for (id, outcome) in group? {
                summary.executed += 1;
                simulated.insert(id, outcome);
            }
        }

        // Materialize records: representatives and reused lines first,
        // clustered members second (they read their representative).
        for cell in level_cells {
            let record = match disposition.get(&cell.id) {
                Some(Disposition::Reuse(stored)) => CellRecord {
                    spec: cell.clone(),
                    status: stored.status.clone(),
                    source: stored.source,
                    outcome: stored.outcome,
                    reused: true,
                    line: stored.line.clone(),
                },
                Some(Disposition::Prune) => CellRecord {
                    spec: cell.clone(),
                    status: STATUS_PRUNED.to_string(),
                    source: None,
                    outcome: None,
                    reused: false,
                    line: cell_line(cell, STATUS_PRUNED, None, None),
                },
                Some(Disposition::Simulate) => {
                    let outcome = simulated.get(&cell.id).copied();
                    let line = cell_line(cell, STATUS_SIMULATED, None, outcome.as_ref());
                    CellRecord {
                        spec: cell.clone(),
                        status: STATUS_SIMULATED.to_string(),
                        source: None,
                        outcome,
                        reused: false,
                        line,
                    }
                }
                Some(Disposition::Member(_)) | None => continue,
            };
            records[cell.id] = Some(record);
        }
        for cell in level_cells {
            let Some(Disposition::Member(rep)) = disposition.get(&cell.id) else {
                continue;
            };
            // A representative always has a lower id and was filled
            // above; a missing one (foreign store) degrades to an empty
            // clustered cell rather than failing the run.
            let outcome = records
                .get(*rep)
                .and_then(|r| r.as_ref())
                .and_then(|r| r.outcome);
            let line = cell_line(cell, STATUS_CLUSTERED, Some(*rep), outcome.as_ref());
            records[cell.id] = Some(CellRecord {
                spec: cell.clone(),
                status: STATUS_CLUSTERED.to_string(),
                source: Some(*rep),
                outcome,
                reused: false,
                line,
            });
        }

        // Feed the completed level to the pruner for higher loads.
        let observations = level_cells.iter().map(|cell| {
            let max_ms = records
                .get(cell.id)
                .and_then(|r| r.as_ref())
                .and_then(|r| r.outcome)
                .and_then(|o| o.max_ms());
            (cell, max_ms)
        });
        pruner.observe_level(observations);
    }
    summary.pruned_families = pruner.pruned_families();

    let mut final_records: Vec<CellRecord> = Vec::with_capacity(cells.len());
    for (i, slot) in records.into_iter().enumerate() {
        match slot {
            Some(r) => final_records.push(r),
            None => return Err(format!("internal: cell {i} was never dispositioned")),
        }
    }
    for r in &final_records {
        match r.status.as_str() {
            STATUS_SIMULATED => summary.simulated += 1,
            STATUS_CLUSTERED => summary.clustered += 1,
            _ => summary.pruned += 1,
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
        records: final_records,
        summary,
    })
}

const USAGE: &str = "usage: sweep [--grid SPEC|smoke|phase] [--out PATH] [--resume]
             [--threads N] [--prune-factor F] [--seeds N] [--jobs N]
             [--stream] [--certify] [--no-table] [--markdown]

Runs the cluster -> prune -> fan-out -> aggregate mega-sweep and writes a
jsonl store (header + one line per grid cell, in cell-id order). With
--resume, cells already present in --out are reloaded verbatim and only
the remainder is simulated; a torn trailing line from a crashed run is
dropped (and counted) automatically. --stream runs every cell through the
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
    let defaults = SweepOptions::default();
    let opts = SweepOptions {
        threads: flags.get_or("threads", defaults.threads).map_err(usage)?,
        prune_factor: flags
            .get_or("prune-factor", defaults.prune_factor)
            .map_err(usage)?,
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
        if j == 0 {
            return Err("--jobs must be at least 1".to_string());
        }
        if j as u64 > u32::MAX as u64 {
            return Err(format!(
                "--jobs {j} exceeds the engine job-id space (max {})",
                u32::MAX
            ));
        }
        grid.jobs = j;
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
        assert_eq!(s.simulated + s.clustered + s.pruned, s.cells);
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
        // (certification is observation, never perturbation).
        let grid = tiny_grid();
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
        let grid = tiny_grid();
        let one = run_sweep(
            &grid,
            None,
            &SweepOptions {
                threads: 1,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        let many = run_sweep(
            &grid,
            None,
            &SweepOptions {
                threads: 7,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(one.store(), many.store());
        assert_eq!(one.summary, many.summary);
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
        let torn = &store[..store.len() - 40];
        let resumed = run_sweep(&grid, Some(torn), &opts).unwrap();
        assert_eq!(resumed.store(), store);
        assert!(resumed.summary.dropped_lines >= 1);
        assert!(resumed.summary.reused > 0);
        assert!(resumed.summary.executed < fresh.summary.executed);
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
    fn aggressive_pruning_yields_empty_cells_not_panics() {
        let grid = tiny_grid();
        // factor barely above 1: anything that loses a level gets pruned.
        let out = run_sweep(
            &grid,
            None,
            &SweepOptions {
                prune_factor: 1.0001,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert!(
            out.summary.pruned > 0,
            "expected prunes: {}",
            out.summary.render()
        );
        assert!(out.summary.pruned_families > 0);
        // Pruned cells are empty, present, and parseable.
        for r in &out.records {
            if r.status == STATUS_PRUNED {
                assert!(r.outcome.is_none());
                assert!(aggregate::parse_cell_line(&r.line).is_some());
            }
        }
        // The store still covers every cell.
        assert_eq!(out.store().lines().count(), grid.cell_count() + 1);
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
