//! The `parflow` command-line interface, as a library so every command is
//! unit-testable. The binary (`src/bin/parflow.rs`) is a thin wrapper.
//!
//! ```text
//! parflow simulate --dist bing --qps 1000 --jobs 5000 --scheduler steal-16-first
//! parflow compare  --dist finance --qps 900 --jobs 5000
//! parflow generate --dist lognormal --qps 1200 --jobs 1000 --out inst.txt
//! parflow analyze  --in inst.txt --scheduler fifo --eps 1/10
//! parflow exec     --jobs 200 --m 4 --faults crash:3@1000,panic:0.01 --deadline 30s
//! parflow exec     --stream --jobs 10000000 --policy steal-16-first
//! parflow serve    run --input subs.jsonl --workers 2 --slo 5000
//! parflow dot      --shape fork-join --depth 3 --leaf 4
//! ```
//!
//! One flag grammar for every command ([`parflow_obs::args`]): `--key
//! value` pairs, the booleans `--stream` / `--certify` bare or with
//! `on|off`; an unknown, misspelt or repeated flag is a usage error before
//! anything runs.
//!
//! Fault injection (`simulate`, `compare`, `analyze`, `exec`) takes a
//! `--faults` spec: comma-separated `crash:W@R`, `slow:WxF`, `stall:W@R+D`,
//! `blackhole:W`, `panic:P` entries (`W` worker index, `R` round, `D`
//! rounds, `F` speed factor in `(0,1]`, `P` probability in `[0,1]`).
//! Faults apply to the work-stealing schedulers and the real executor;
//! the centralized engines (fifo/bwf/lifo/sjf/equi) model an idealized
//! reliable machine, so `simulate`/`analyze` reject `--faults` with one of
//! them and `compare` names the rows the plan did not touch. `exec`
//! additionally accepts `--deadline` (e.g. `30s`, `500ms`) arming the
//! runtime's no-progress watchdog, and `--obs-json PATH` dumping a
//! machine-readable run report (counters, per-worker telemetry, latency
//! histograms, phase wall times) through the `parflow-obs` observability
//! layer.
//!
//! `exec --stream` (or `--stream on`) swaps the threaded executor for the
//! O(active)-memory streaming simulation core: jobs are pulled one at a
//! time from the workload's endless source and retired on completion, so
//! `--jobs 10000000` runs in a few MB of peak RSS where the materialized
//! path would need the whole instance in memory. Reports exact max flow, the
//! incremental OPT lower bound (live competitive ratio), histogram
//! percentiles, retirement counters, and peak RSS. `--policy` additionally
//! accepts `fifo` (the streaming centralized engine). `--faults` runs on
//! the work-stealing policies as on the materialized path and adds one
//! fault-accounting line; with `fifo` it is a usage error (the centralized
//! engines model a reliable machine). `--certify` (or `--certify on`) runs
//! the `parflow-certify` exact-arithmetic P5 check on the streamed summary
//! — at speed 1 the reported max flow can never beat the incremental OPT
//! lower bound — and appends the certificate line to the report; a run in
//! which faults fired is `skipped`, as `certify_run` skips one.

use crate::bridge::{instance_to_workload, BridgeConfig};
use crate::core::{
    analyze_intervals, opt_max_flow, FaultPlan, JobStatus, SchedulerKind, SimConfig, StealPolicy,
    PPM,
};
use crate::metrics::{FlowStats, Table};
use crate::runtime::{try_run_workload, RuntimeConfig, RuntimeError};
use crate::time::{Rational, Speed};
use crate::workloads::{trace_io, DistKind, InstanceStats, ShapeKind, WorkloadSpec};
use parflow_dag::{shapes, Instance};
use parflow_obs::args::{ArgError, Args};
use parflow_obs::{JsonRecorder, NullRecorder, Recorder};
use std::fmt;
use std::time::Duration;

/// CLI errors (all user-facing).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// No subcommand or an unknown one.
    UnknownCommand(String),
    /// A problem with a flag: its name (empty for a stray positional) and
    /// what is wrong — unknown, repeated, valueless, or a bad value.
    BadFlag(String, String),
    /// A required flag is missing.
    MissingFlag(String),
    /// Filesystem or instance-file problem (message only, for testability).
    Io(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownCommand(c) => {
                write!(
                    f,
                    "unknown command '{c}'; try simulate|compare|generate|analyze|exec|serve|sweep|dot"
                )
            }
            CliError::BadFlag(k, v) if k.is_empty() => write!(f, "{v}"),
            CliError::BadFlag(k, v) => write!(f, "--{k}: {v}"),
            CliError::MissingFlag(k) => write!(f, "missing required flag --{k}"),
            CliError::Io(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> CliError {
        CliError::BadFlag(e.flag, e.problem)
    }
}

/// A flag whose value parsed but is out of range or otherwise unusable.
fn bad(key: &str, value: impl fmt::Display) -> CliError {
    CliError::BadFlag(key.into(), format!("bad value '{value}'"))
}

/// A `dot` shape size in `ok`, the range its generator accepts without
/// asserting.
fn size<T, R>(args: &Args, key: &str, default: T, ok: R) -> Result<T, CliError>
where
    T: std::str::FromStr + PartialOrd,
    T::Err: fmt::Display,
    R: std::ops::RangeBounds<T> + fmt::Debug,
{
    let v = args.get_or(key, default)?;
    match ok.contains(&v) {
        true => Ok(v),
        false => Err(CliError::BadFlag(key.into(), format!("must be in {ok:?}"))),
    }
}

fn require<T: std::str::FromStr>(args: &Args, key: &str) -> Result<T, CliError>
where
    T::Err: fmt::Display,
{
    args.get(key)?
        .ok_or_else(|| CliError::MissingFlag(key.into()))
}

/// The root usage text: all eight commands. `serve` and `sweep` print
/// their own on a bad flag of theirs.
pub const USAGE: &str = "\
usage:
  parflow simulate --dist bing|finance|lognormal --qps N --jobs N \\
                   --m N --scheduler fifo|bwf|lifo|sjf|equi|admit-first|steal-<k>-first \\
                   [--speed NUM[/DEN]] [--steals free|unit] [--seed N] [--grain N]
                   [--faults crash:W@R,slow:WxF,stall:W@R+D,blackhole:W,panic:P]
  parflow compare  <same workload flags>
  parflow generate <same workload flags> --out FILE
  parflow analyze  --in FILE [--scheduler S] [--m N] [--eps NUM/DEN]
  parflow exec     <workload flags> --policy admit-first|steal-<k>-first \\
                   [--faults SPEC] [--deadline 30s|500ms] [--compress N] [--iters-per-unit N] [--obs-json FILE]
  parflow exec     --stream [--certify] <workload flags> --policy fifo|admit-first|steal-<k>-first \\
                   [--speed NUM[/DEN]] [--steals free|unit] [--faults SPEC] [--obs-json FILE]
  parflow serve    emit|run|tcp ...   (the admission service; `parflow serve` prints its flags)
  parflow sweep    [--grid SPEC|smoke|phase] [--out PATH] ...   (`parflow sweep --help`)
  parflow dot      --shape single|chain|diamond|parallel-for|fork-join|map-reduce|pipeline|adversarial [shape flags]
flags are `--key value`; --stream and --certify also stand alone; unknown and repeated flags are errors";

/// Parse a `--faults` specification: comma-separated entries of
/// `crash:W@R`, `slow:WxF`, `stall:W@R+D`, `blackhole:W`, `panic:P`.
fn parse_faults(s: &str) -> Result<FaultPlan, CliError> {
    let err = |part: &str| bad("faults", part);
    let mut plan = FaultPlan::none();
    for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (kind, spec) = part.split_once(':').ok_or_else(|| err(part))?;
        match kind {
            "crash" => {
                let (w, r) = spec.split_once('@').ok_or_else(|| err(part))?;
                plan = plan.crash(
                    w.parse().map_err(|_| err(part))?,
                    r.parse().map_err(|_| err(part))?,
                );
            }
            "slow" => {
                let (w, f) = spec.split_once('x').ok_or_else(|| err(part))?;
                let factor: f64 = f.parse().map_err(|_| err(part))?;
                if !(factor > 0.0 && factor <= 1.0) {
                    return Err(err(part));
                }
                plan = plan.slowdown(
                    w.parse().map_err(|_| err(part))?,
                    (factor * PPM as f64).round() as u32,
                );
            }
            "stall" => {
                let (w, window) = spec.split_once('@').ok_or_else(|| err(part))?;
                let (from, dur) = window.split_once('+').ok_or_else(|| err(part))?;
                plan = plan.stall(
                    w.parse().map_err(|_| err(part))?,
                    from.parse().map_err(|_| err(part))?,
                    dur.parse().map_err(|_| err(part))?,
                );
            }
            "blackhole" => {
                plan = plan.blackhole(spec.parse().map_err(|_| err(part))?);
            }
            "panic" => {
                let p: f64 = spec.parse().map_err(|_| err(part))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(err(part));
                }
                plan = plan.with_panic_ppm((p * PPM as f64).round() as u32);
            }
            _ => return Err(err(part)),
        }
    }
    Ok(plan)
}

/// Parse a `--deadline` value: `30s`, `500ms`, or bare seconds (`0.5`).
fn parse_deadline(s: &str) -> Result<Duration, CliError> {
    let err = || bad("deadline", s);
    let (num, scale_ns) = if let Some(v) = s.strip_suffix("ms") {
        (v, 1e6)
    } else if let Some(v) = s.strip_suffix('s') {
        (v, 1e9)
    } else {
        (s, 1e9)
    };
    let v: f64 = num.parse().map_err(|_| err())?;
    if !v.is_finite() || v <= 0.0 {
        return Err(err());
    }
    Ok(Duration::from_nanos((v * scale_ns) as u64))
}

fn workload_from_flags(flags: &Args) -> Result<(WorkloadSpec, usize), CliError> {
    let dist = flags.get_or("dist", DistKind::Bing)?;
    let qps: f64 = flags.get_or("qps", 1000.0)?;
    if qps <= 0.0 || !qps.is_finite() {
        return Err(bad("qps", qps));
    }
    let jobs: usize = flags.get_or("jobs", 10_000)?;
    let seed: u64 = flags.get_or("seed", 42u64)?;
    let grain: u64 = flags.get_or("grain", 10u64)?;
    let m: usize = flags.get_or("m", 16usize)?;
    if m == 0 {
        return Err(bad("m", 0));
    }
    let spec = WorkloadSpec {
        dist,
        shape: ShapeKind::ParallelFor {
            grain: grain.max(1),
        },
        qps: Some(qps),
        period_ticks: 0,
        n_jobs: jobs,
        seed,
    };
    Ok((spec, m))
}

fn config_from_flags(flags: &Args, m: usize) -> Result<SimConfig, CliError> {
    let mut cfg = SimConfig::new(m);
    if let Some(speed) = flags.get::<Speed>("speed")? {
        cfg = cfg.with_speed(speed);
    }
    match flags.get_or("steals", "free".to_string())?.as_str() {
        "free" => cfg = cfg.with_free_steals(),
        "unit" => {}
        other => return Err(bad("steals", other)),
    }
    if let Some(s) = flags.get::<String>("faults")? {
        let plan = parse_faults(&s)?;
        // Validate here so a bad plan is a CLI error, not an engine panic.
        plan.validate(m)
            .map_err(|msg| CliError::BadFlag("faults".into(), msg))?;
        cfg = cfg.with_faults(plan);
    }
    Ok(cfg)
}

fn result_summary(
    name: &str,
    inst: &Instance,
    cfg: &SimConfig,
    kind: SchedulerKind,
    seed: u64,
) -> (String, Vec<String>, crate::core::SimResult) {
    let r = kind.run(inst, cfg, seed).0;
    let flows: Vec<Rational> = r.outcomes.iter().map(|o| o.flow).collect();
    // An empty instance (or one whose flows all degrade to non-finite)
    // yields no statistics; report placeholders instead of panicking.
    let row = match FlowStats::from_flows(&flows) {
        Some(stats) => {
            let opt = opt_max_flow(inst, cfg.m);
            vec![
                name.to_string(),
                format!("{:.1}", stats.max.to_f64()),
                format!("{:.2}", (stats.max / opt).to_f64()),
                format!("{:.1}", stats.mean),
                format!("{:.1}", stats.p99),
                format!("{:.3}", r.busy_fraction()),
            ]
        }
        None => {
            let dash = "-".to_string();
            vec![
                name.to_string(),
                dash.clone(),
                dash.clone(),
                dash.clone(),
                dash,
                format!("{:.3}", r.busy_fraction()),
            ]
        }
    };
    (name.to_string(), row, r)
}

/// One line of fault accounting for a simulated run, or `None` when the
/// run was fault-free (keeps fault-free output byte-identical).
fn fault_summary(name: &str, r: &crate::core::SimResult) -> Option<String> {
    if r.fault_events.is_empty() && r.all_completed() {
        return None;
    }
    let completed = r
        .outcomes
        .iter()
        .filter(|o| o.status.is_completed())
        .count();
    Some(format!(
        "{name}: {completed}/{} jobs completed, {} failed (max completed flow {:.1}); \
         {} crashed workers, {} reinjected tasks, {} injected panics",
        r.outcomes.len(),
        r.outcomes.len() - completed,
        r.max_completed_flow().to_f64(),
        r.stats.crashed_workers,
        r.stats.reinjected_tasks,
        r.stats.injected_panics,
    ))
}

/// `--faults` with a scheduler that would drop the plan is an error, not
/// a fault-free run that looks like "the faults had no effect": only the
/// work-stealing kinds model faults.
fn reject_ignored_faults(flags: &Args, kind: SchedulerKind) -> Result<(), CliError> {
    if flags.get::<String>("faults")?.is_some() && !kind.is_randomized() {
        return Err(CliError::BadFlag(
            "faults".into(),
            format!(
                "scheduler {kind} models a reliable machine and would ignore the plan \
                 (faults apply to admit-first and steal-<k>-first)"
            ),
        ));
    }
    Ok(())
}

fn simulate_cmd(flags: &Args) -> Result<String, CliError> {
    let (spec, m) = workload_from_flags(flags)?;
    let kind: SchedulerKind = require(flags, "scheduler")?;
    reject_ignored_faults(flags, kind)?;
    let seed: u64 = flags.get_or("seed", 42u64)?;
    let cfg = config_from_flags(flags, m)?;
    flags.finish()?;
    let inst = spec.generate();
    if inst.is_empty() {
        return Err(bad("jobs", 0));
    }
    let mut t = Table::new(["scheduler", "max flow", "vs OPT", "mean", "p99", "busy"]);
    let (name, row, r) = result_summary(&kind.to_string(), &inst, &cfg, kind, seed);
    t.row(row);
    let faults = fault_summary(&name, &r)
        .map(|l| format!("\n{l}"))
        .unwrap_or_default();
    let util = inst.utilization(m).map(|u| u.to_f64()).unwrap_or(0.0);
    let stats = InstanceStats::of(&inst).expect("non-empty");
    Ok(format!(
        "workload: {} @{:.0} QPS, m={m}, utilization {:.0}% (flows in ticks; 1 tick = 0.1 ms)\n{stats}\n{}{faults}",
        spec.dist.name(),
        spec.qps.unwrap_or(0.0),
        util * 100.0,
        t.render()
    ))
}

fn compare_cmd(flags: &Args) -> Result<String, CliError> {
    let (spec, m) = workload_from_flags(flags)?;
    let seed: u64 = flags.get_or("seed", 42u64)?;
    let cfg = config_from_flags(flags, m)?;
    let faulted = flags.get::<String>("faults")?.is_some();
    flags.finish()?;
    let inst = spec.generate();
    if inst.is_empty() {
        return Err(bad("jobs", 0));
    }
    let mut t = Table::new(["scheduler", "max flow", "vs OPT", "mean", "p99", "busy"]);
    let mut fault_lines = Vec::new();
    for kind in SchedulerKind::all() {
        let (name, row, r) = result_summary(&kind.to_string(), &inst, &cfg, kind, seed);
        t.row(row);
        fault_lines.extend(fault_summary(&name, &r));
    }
    if faulted {
        let reliable: Vec<String> = SchedulerKind::all()
            .iter()
            .filter(|k| !k.is_randomized())
            .map(|k| k.to_string())
            .collect();
        fault_lines.push(format!(
            "fault-free by construction (these model a reliable machine and ignore --faults): {}",
            reliable.join(", ")
        ));
    }
    let mut out = t.render();
    for l in &fault_lines {
        out.push('\n');
        out.push_str(l);
    }
    Ok(out)
}

fn generate_cmd(flags: &Args) -> Result<String, CliError> {
    let (spec, _) = workload_from_flags(flags)?;
    let out: String = require(flags, "out")?;
    flags.finish()?;
    let inst = spec.generate();
    trace_io::save_instance(&inst, &out).map_err(|e| CliError::Io(e.to_string()))?;
    Ok(format!(
        "wrote {} jobs ({} total work units) to {out}",
        inst.len(),
        inst.total_work()
    ))
}

fn analyze_cmd(flags: &Args) -> Result<String, CliError> {
    let path: String = require(flags, "in")?;
    let kind = flags.get_or("scheduler", SchedulerKind::StealKFirst(16))?;
    reject_ignored_faults(flags, kind)?;
    let m: usize = flags.get_or("m", 16usize)?;
    let seed: u64 = flags.get_or("seed", 42u64)?;
    let eps = flags.get_or("eps", "1/10".to_string())?;
    let eps = match Speed::parse_eps(&eps) {
        Ok((num, den)) if num > 0 => Rational::new(num.into(), den.into()),
        _ => return Err(bad("eps", eps)),
    };
    let cfg = config_from_flags(flags, m)?;
    flags.finish()?;
    let inst = trace_io::load_instance(&path).map_err(|e| CliError::Io(e.to_string()))?;
    if inst.is_empty() {
        return Err(CliError::Io("instance is empty".into()));
    }
    let r = kind.run(&inst, &cfg, seed).0;
    let a = analyze_intervals(&r, eps).expect("non-empty");
    let mut out = format!(
        "{kind} on {} jobs, m={m}: max flow {:.1} ticks (job J_{}), OPT >= {:.1}\n",
        inst.len(),
        a.flow.to_f64(),
        a.job,
        opt_max_flow(&inst, m).to_f64()
    );
    out.push_str(&format!(
        "interval decomposition (eps = {eps}): beta = {}, t' = {:.1}\n",
        a.beta(),
        a.t_prime.to_f64()
    ));
    let mut t = Table::new(["start", "end", "length", "defining job"]);
    for iv in &a.intervals {
        t.row([
            format!("{:.1}", iv.start.to_f64()),
            format!("{:.1}", iv.end.to_f64()),
            format!("{:.1}", iv.len().to_f64()),
            iv.defining_job
                .map(|j| format!("J_{j}"))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    out.push_str(&t.render());
    if let Some(l) = fault_summary(&kind.to_string(), &r) {
        out.push('\n');
        out.push_str(&l);
    }
    Ok(out)
}

/// `--obs-json PATH` of `exec`: a JSON recorder bound to the path, or the
/// null recorder when the flag is absent.
struct ObsJson {
    json: Option<(JsonRecorder, String)>,
    null: NullRecorder,
}

impl ObsJson {
    fn from_flags(flags: &Args) -> Result<ObsJson, CliError> {
        let path: Option<String> = flags.get("obs-json")?;
        Ok(ObsJson {
            json: path.map(|p| (JsonRecorder::new(&p), p)),
            null: NullRecorder,
        })
    }

    fn rec(&mut self) -> &mut dyn Recorder {
        match &mut self.json {
            Some((rec, _)) => rec,
            None => &mut self.null,
        }
    }

    /// Write the report, if one was asked for, and say so under `out`.
    fn flush(&self, out: &mut String) -> Result<(), CliError> {
        if let Some((rec, path)) = &self.json {
            rec.flush()
                .map_err(|e| CliError::Io(format!("obs-json: {e}")))?;
            out.push_str(&format!("\n(obs json written to {path})"));
        }
        Ok(())
    }
}

/// `exec --stream on`: pull the workload's endless job source through the
/// O(active)-memory streaming simulation core instead of the threaded
/// executor. This is the multi-million-job mode (`--jobs 10000000`): the
/// executor path must materialize the whole instance up front, which at
/// that scale does not fit; the stream retires completed jobs back into a
/// free-listed slab, tracks the OPT lower bound incrementally, and keeps
/// exact max flow plus histogram percentiles in O(1) memory.
fn exec_stream_cmd(flags: &Args) -> Result<String, CliError> {
    let (spec, m) = workload_from_flags(flags)?;
    let seed: u64 = flags.get_or("seed", 42u64)?;
    let cfg = config_from_flags(flags, m)?;
    let certify = flags.flag("certify");
    // `fifo` is the streaming centralized engine; any other name is a
    // work-stealing policy.
    let policy = match flags.get::<String>("policy")?.as_deref() {
        Some("fifo") => None,
        Some(_) => flags.get::<StealPolicy>("policy")?,
        None => Some(StealPolicy::StealKFirst { k: 16 }),
    };
    if policy.is_none() && !cfg.faults.is_empty() {
        return Err(CliError::BadFlag(
            "faults".into(),
            "policy fifo models a reliable machine and would ignore the plan \
             (faults apply to admit-first and steal-<k>-first)"
                .into(),
        ));
    }
    let mut obs = ObsJson::from_flags(flags)?;
    flags.finish()?;
    let jobs = spec.n_jobs as u64;
    let rec = obs.rec();
    let started = std::time::Instant::now(); // lint: allow(nondeterminism) wall-clock jobs/s reporting only; the schedule is seed-deterministic
    let run = match policy {
        None => parflow_bench::stream::run_stream_fifo_observed(&spec, &cfg, jobs, rec),
        Some(p) => parflow_bench::stream::run_stream_ws_observed(&spec, &cfg, p, seed, jobs, rec),
    }
    .map_err(|e| CliError::Io(format!("stream: {e}")))?;
    let wall = started.elapsed().as_secs_f64();
    let (stats, events) = (&run.summary.stats, run.summary.fault_events.len());
    let fired = events > 0
        || stats.crashed_workers + stats.reinjected_tasks + stats.injected_panics > 0
        || stats.faulted_steps > 0;
    let certificate = if certify && fired {
        // As `certify_run` does: the fault-free model does not apply, and
        // a failed job's flow is no service flow to hold P5 to.
        let reason = "fault-injected run: the fault-free feasibility model does not apply";
        let skipped = parflow_certify::CertReport {
            skipped: Some(reason.into()),
            ..Default::default()
        };
        Some(skipped.render())
    } else if certify {
        // Exact-arithmetic P5 check: at speed 1 the streamed max flow can
        // never beat the OPT lower bound over the same arrivals. A
        // violation is a hard error (broken engine or tracker), not a line
        // in the report.
        let report = parflow_certify::certify_stream_summary(
            cfg.speed,
            run.summary.jobs,
            run.summary.max_flow,
            run.opt.combined_lower_bound(),
        );
        if !report.is_clean() {
            return Err(CliError::Io(report.render()));
        }
        Some(report.render())
    } else {
        None
    };
    let mut out = run.render(m, wall, certificate.as_deref());
    if !cfg.faults.is_empty() {
        let failed = stats.injected_panics;
        out.push_str(&format!(
            "\nfaults: {}/{} jobs completed, {failed} failed (max completed flow {:.2} ms); \
             {} crashed workers, {} reinjected tasks, {} injected panics, {} faulted steps, \
             {events} fault events",
            run.summary.jobs - failed,
            run.summary.jobs,
            run.max_completed_flow.to_f64() * 1000.0 / crate::workloads::TICKS_PER_SECOND,
            stats.crashed_workers,
            stats.reinjected_tasks,
            stats.injected_panics,
            stats.faulted_steps,
        ));
    }
    obs.flush(&mut out)?;
    Ok(out)
}

/// Run a generated workload on the *real* threaded executor (via the
/// bridge), with optional fault injection and watchdog deadline.
fn exec_cmd(flags: &Args) -> Result<String, CliError> {
    if flags.flag("stream") {
        return exec_stream_cmd(flags);
    }
    let (spec, m) = workload_from_flags(flags)?;
    let seed: u64 = flags.get_or("seed", 42u64)?;
    let policy = flags.get_or("policy", StealPolicy::AdmitFirst)?;
    let compress: f64 = flags.get_or("compress", 1000.0)?;
    if !(compress > 0.0 && compress.is_finite()) {
        return Err(bad("compress", compress));
    }
    let iters: u64 = flags.get_or("iters-per-unit", 20u64)?;
    if iters == 0 {
        return Err(bad("iters-per-unit", 0));
    }
    let mut cfg = RuntimeConfig::new(m, policy).with_seed(seed);
    if let Some(s) = flags.get::<String>("faults")? {
        cfg = cfg.with_faults(parse_faults(&s)?);
    }
    if let Some(s) = flags.get::<String>("deadline")? {
        cfg = cfg.with_deadline(parse_deadline(&s)?);
    }
    let mut obs = ObsJson::from_flags(flags)?;
    flags.finish()?;
    obs.rec().span_begin("exec.generate");
    let inst = spec.generate();
    if inst.is_empty() {
        return Err(bad("jobs", 0));
    }
    let bridge = BridgeConfig::compressed(iters, compress);
    // Arrivals are sorted, so if the last offset is a `Duration` every one
    // is: a tiny `--compress` stretches them past `Duration::MAX`.
    let last = inst.jobs().last().map_or(0, |j| j.arrival) as f64 * bridge.seconds_per_tick;
    if Duration::try_from_secs_f64(last).is_err() {
        return Err(CliError::BadFlag(
            "compress".into(),
            format!("{compress:e} stretches arrival offsets past the longest Duration"),
        ));
    }
    let wl = instance_to_workload(&inst, &bridge);
    obs.rec().span_end("exec.generate");
    obs.rec().span_begin("exec.run");
    let r = try_run_workload(&cfg, &wl).map_err(|e| match e.error {
        RuntimeError::InvalidFaultPlan(msg) => CliError::BadFlag("faults".into(), msg),
        other => CliError::Io(other.to_string()),
    })?;
    obs.rec().span_end("exec.run");
    let count = |s: JobStatus| r.jobs.iter().filter(|j| j.status == s).count();
    let mut out = format!(
        "executed {} jobs on {m} workers in {:.1} ms ({compress}x compressed time)\n",
        r.jobs.len(),
        r.elapsed.as_secs_f64() * 1e3,
    );
    out.push_str(&format!(
        "status: {} completed, {} failed, {} aborted{}\n",
        count(JobStatus::Completed),
        count(JobStatus::Failed),
        count(JobStatus::Aborted),
        if r.aborted {
            " [run aborted by watchdog]"
        } else {
            ""
        }
    ));
    out.push_str(&format!(
        "max flow {:.2} ms (completed only: {:.2} ms), mean {:.2} ms\n",
        r.max_flow().as_secs_f64() * 1e3,
        r.max_completed_flow().as_secs_f64() * 1e3,
        r.mean_flow().as_secs_f64() * 1e3,
    ));
    out.push_str(&format!(
        "steals {}/{}, admissions {}, task panics {}, orphaned tasks {}, fault events {}",
        r.stats.successful_steals,
        r.stats.steal_attempts,
        r.stats.admissions,
        r.stats.task_panics,
        r.stats.orphaned_tasks,
        r.fault_events.len(),
    ));
    r.observe_into(obs.rec());
    obs.flush(&mut out)?;
    Ok(out)
}

fn dot_cmd(flags: &Args) -> Result<String, CliError> {
    let shape: String = require(flags, "shape")?;
    let dag = match shape.as_str() {
        "single" => shapes::single_node(size(flags, "work", 10, 1..)?),
        "chain" => shapes::chain(size(flags, "len", 4, 1..)?, size(flags, "work", 2, 1..)?),
        "diamond" => shapes::diamond(size(flags, "width", 4, 1..)?, size(flags, "work", 2, 1..)?),
        "parallel-for" => shapes::parallel_for(
            size(flags, "work", 40, 1..)?,
            size(flags, "chunks", 8, 1..)?,
        ),
        // Past depth 24 the tree would exceed 16M nodes.
        "fork-join" => shapes::fork_join(
            size(flags, "depth", 3, ..=24)?,
            size(flags, "leaf", 4, 1..)?,
        ),
        "map-reduce" => shapes::map_reduce(
            size(flags, "mappers", 4, 1..)?,
            size(flags, "map-work", 5, 1..)?,
            size(flags, "reducers", 2, 1..)?,
            size(flags, "reduce-work", 3, 1..)?,
        ),
        "pipeline" => shapes::pipeline(
            size(flags, "stages", 3, 1..)?,
            size(flags, "items", 4, 1..)?,
            size(flags, "work", 2, 1..)?,
        ),
        "adversarial" => shapes::adversarial_tiny(flags.get_or("m", 40usize)?),
        other => return Err(bad("shape", other)),
    };
    flags.finish()?;
    Ok(dag.to_dot(&shape.replace('-', "_")))
}

/// Entry point: dispatch on the first argument.
pub fn run_cli(args: &[String]) -> Result<String, CliError> {
    let (cmd, rest) = args
        .split_first()
        .ok_or_else(|| CliError::UnknownCommand("<none>".into()))?;
    let run: fn(&Args) -> Result<String, CliError> = match cmd.as_str() {
        // These two own their flags and their usage text; their errors
        // come back as `Io` so the root usage is not printed over them.
        "serve" => return parflow_serve::cli::run(rest).map_err(|e| CliError::Io(e.to_string())),
        "sweep" => return parflow_bench::sweep::cli_main(rest).map_err(CliError::Io),
        "simulate" => simulate_cmd,
        "compare" => compare_cmd,
        "generate" => generate_cmd,
        "analyze" => analyze_cmd,
        "exec" => exec_cmd,
        "dot" => dot_cmd,
        other => return Err(CliError::UnknownCommand(other.into())),
    };
    let bools: &[&str] = if cmd == "exec" {
        &["stream", "certify"]
    } else {
        &[]
    };
    run(&Args::parse(rest, bools)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn no_command_errors() {
        assert!(matches!(run_cli(&[]), Err(CliError::UnknownCommand(_))));
        assert!(matches!(
            run_cli(&argv("frobnicate")),
            Err(CliError::UnknownCommand(_))
        ));
    }

    #[test]
    fn serve_delegates_to_the_serve_crate() {
        let out = run_cli(&argv("serve emit --n 3 --seed 1")).expect("serve emit");
        assert_eq!(out.lines().count(), 3);
        assert!(out.lines().all(|l| l.starts_with('{')));
        // Serve-side errors surface as CliError::Io.
        assert!(matches!(
            run_cli(&argv("serve bogus")),
            Err(CliError::Io(_))
        ));
    }

    #[test]
    fn simulate_small() {
        let out = run_cli(&argv(
            "simulate --dist finance --qps 2000 --jobs 200 --m 4 --scheduler fifo",
        ))
        .unwrap();
        assert!(out.contains("fifo"));
        assert!(out.contains("max flow"));
        assert!(out.contains("utilization"));
    }

    #[test]
    fn simulate_requires_scheduler() {
        let err = run_cli(&argv("simulate --jobs 10")).unwrap_err();
        assert_eq!(err, CliError::MissingFlag("scheduler".into()));
    }

    #[test]
    fn simulate_rejects_bad_scheduler() {
        let err = run_cli(&argv("simulate --jobs 10 --scheduler warp")).unwrap_err();
        assert!(matches!(err, CliError::BadFlag(k, _) if k == "scheduler"));
    }

    #[test]
    fn compare_lists_all_schedulers() {
        let out = run_cli(&argv("compare --dist bing --qps 3000 --jobs 150 --m 4")).unwrap();
        for name in [
            "fifo",
            "bwf",
            "lifo",
            "sjf",
            "equi",
            "admit-first",
            "steal-16-first",
        ] {
            assert!(out.contains(name), "missing {name} in output");
        }
    }

    #[test]
    fn generate_and_analyze_roundtrip() {
        let dir = std::env::temp_dir().join("parflow_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wl");
        let path_s = path.to_str().unwrap();
        let out = run_cli(&argv(&format!(
            "generate --dist finance --qps 2000 --jobs 100 --out {path_s}"
        )))
        .unwrap();
        assert!(out.contains("wrote 100 jobs"));
        let out = run_cli(&argv(&format!(
            "analyze --in {path_s} --scheduler fifo --m 4 --eps 1/10"
        )))
        .unwrap();
        assert!(out.contains("interval decomposition"));
        assert!(out.contains("max flow"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn analyze_missing_file_errors() {
        let err = run_cli(&argv("analyze --in /no/such/file.json")).unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }

    #[test]
    fn dot_shapes() {
        for shape in [
            "single",
            "chain",
            "diamond",
            "parallel-for",
            "fork-join",
            "map-reduce",
            "pipeline",
            "adversarial",
        ] {
            let out = run_cli(&argv(&format!("dot --shape {shape}"))).unwrap();
            assert!(out.starts_with("digraph"), "{shape}: {out}");
        }
        assert!(run_cli(&argv("dot --shape blob")).is_err());
        assert!(matches!(
            run_cli(&argv("dot")),
            Err(CliError::MissingFlag(_))
        ));
    }

    /// `dot ARGS` is a `BadFlag` naming `flag`, where the shape generator
    /// would assert.
    fn dot_rejects(args: &str, flag: &str) {
        match run_cli(&argv(&format!("dot {args}"))) {
            Err(CliError::BadFlag(k, _)) => assert_eq!(k, flag, "{args}"),
            other => panic!("{args}: expected BadFlag({flag}), got {other:?}"),
        }
    }

    #[test]
    fn dot_rejects_zero_work_single() {
        dot_rejects("--shape single --work 0", "work");
    }

    #[test]
    fn dot_rejects_empty_chain() {
        dot_rejects("--shape chain --len 0", "len");
    }

    #[test]
    fn dot_rejects_zero_width_diamond() {
        dot_rejects("--shape diamond --width 0", "width");
    }

    #[test]
    fn dot_rejects_zero_chunk_parallel_for() {
        dot_rejects("--shape parallel-for --chunks 0", "chunks");
    }

    #[test]
    fn dot_rejects_too_deep_fork_join() {
        dot_rejects("--shape fork-join --depth 64", "depth");
        assert!(run_cli(&argv("dot --shape fork-join --depth 0")).is_ok());
    }

    #[test]
    fn dot_rejects_mapperless_map_reduce() {
        dot_rejects("--shape map-reduce --mappers 0", "mappers");
    }

    #[test]
    fn dot_rejects_stageless_pipeline() {
        dot_rejects("--shape pipeline --stages 0", "stages");
    }

    #[test]
    fn speed_parsing() {
        let out = run_cli(&argv(
            "simulate --jobs 100 --m 4 --qps 2000 --scheduler fifo --speed 11/10",
        ))
        .unwrap();
        assert!(out.contains("fifo"));
    }

    #[test]
    fn steal_cost_flag() {
        assert!(run_cli(&argv(
            "simulate --jobs 50 --m 2 --qps 2000 --scheduler admit-first --steals unit"
        ))
        .is_ok());
        assert!(run_cli(&argv(
            "simulate --jobs 50 --m 2 --qps 2000 --scheduler admit-first --steals maybe"
        ))
        .is_err());
    }

    #[test]
    fn flag_parser_rejects_stragglers() {
        // The grammar table lives with the parser (`parflow_obs::args`);
        // here: a valueless flag and a stray positional fail every command.
        for cmd in [
            "simulate --scheduler fifo",
            "compare",
            "generate --out x.json",
            "analyze --in x.json",
            "exec",
            "dot --shape chain",
        ] {
            for tail in ["--seed", "orphan value"] {
                let e = run_cli(&argv(&format!("{cmd} {tail}"))).unwrap_err();
                assert!(matches!(e, CliError::BadFlag(..)), "{cmd} {tail}: {e:?}");
            }
        }
    }

    #[test]
    fn unknown_and_repeated_flags_fail_before_any_work() {
        // A misspelt flag used to be dropped and the default run instead.
        for cmd in [
            "simulate --scheduler fifo --job 50",
            "compare --jobs 50 --mm 9",
            "generate --out /no/such/dir/x.json --jobz 5",
            "analyze --in /no/such/file.json --epz 1/10",
            "exec --jobs 5 --polcy admit-first",
            "exec --jobs 5 --certify",
            "exec --stream --jobs 5 --compress 10",
            "dot --shape chain --depth 3",
        ] {
            let e = run_cli(&argv(cmd)).unwrap_err();
            assert!(
                matches!(e, CliError::BadFlag(_, ref v) if v == "unknown flag"),
                "{cmd}: {e:?}"
            );
        }
        for cmd in [
            "simulate --scheduler fifo --jobs 50 --jobs 60",
            "compare --m 4 --m 4",
            "generate --out a.json --out b.json",
            "analyze --in a.json --in b.json",
            "exec --stream --stream",
            "dot --shape chain --shape chain",
        ] {
            let e = run_cli(&argv(cmd)).unwrap_err();
            assert!(
                matches!(e, CliError::BadFlag(_, ref v) if v == "given more than once"),
                "{cmd}: {e:?}"
            );
        }
        let e = run_cli(&argv("simulate --scheduler fifo --job 50")).unwrap_err();
        assert_eq!(e.to_string(), "--job: unknown flag");
    }

    #[test]
    fn one_policy_grammar_on_every_path() {
        // `steal-0-first` is admit-first, and the sweep's short forms are
        // accepted, wherever a policy or scheduler is named.
        let sim = |s: &str| {
            run_cli(&argv(&format!(
                "simulate --jobs 60 --m 2 --qps 3000 --scheduler {s}"
            )))
            .unwrap()
        };
        assert_eq!(sim("steal-0-first"), sim("admit-first"));
        assert_eq!(sim("admit"), sim("admit-first"));
        assert_eq!(sim("steal:4"), sim("steal-4-first"));
        let stream = |s: &str| {
            let out = run_cli(&argv(&format!(
                "exec --stream --jobs 100 --m 2 --qps 5000 --policy {s}"
            )))
            .unwrap();
            // Drop the wall-clock and RSS lines.
            let lines: Vec<&str> = out.lines().collect();
            lines[1..4].join("\n")
        };
        assert_eq!(stream("steal-0-first"), stream("admit-first"));
        assert_eq!(stream("steal:4"), stream("Steal-4-First"));
        let out = run_cli(&argv(
            "exec --jobs 6 --m 2 --qps 5000 --compress 20000 --iters-per-unit 1 --policy steal:4",
        ))
        .unwrap();
        assert!(out.contains("6 completed"), "{out}");
    }

    // ---- CliError coverage: every variant, constructed and displayed ----

    #[test]
    fn every_error_variant_is_reachable_and_displays() {
        // UnknownCommand
        let e = run_cli(&argv("warp")).unwrap_err();
        assert!(matches!(e, CliError::UnknownCommand(_)));
        assert!(e.to_string().contains("unknown command"));
        assert!(e.to_string().contains("exec"), "usage must list exec");
        // BadFlag
        let e = run_cli(&argv("simulate --jobs nope --scheduler fifo")).unwrap_err();
        assert!(matches!(e, CliError::BadFlag(ref k, _) if k == "jobs"));
        assert!(e.to_string().starts_with("--jobs: bad value 'nope'"), "{e}");
        let e = run_cli(&argv("simulate --m 0 --scheduler fifo")).unwrap_err();
        assert_eq!(e, CliError::BadFlag("m".into(), "bad value '0'".into()));
        // MissingFlag
        let e = run_cli(&argv("generate --jobs 5")).unwrap_err();
        assert_eq!(e, CliError::MissingFlag("out".into()));
        assert!(e.to_string().contains("missing required flag --out"));
        // Io
        let e = run_cli(&argv("analyze --in /no/such/file.json")).unwrap_err();
        assert!(matches!(e, CliError::Io(_)));
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn bad_flag_variants_across_commands() {
        // Non-numeric and out-of-range values on each numeric flag.
        for cmd in [
            "simulate --qps -5 --scheduler fifo",
            "simulate --qps inf --scheduler fifo",
            "simulate --m 0 --scheduler fifo",
            "simulate --seed x --scheduler fifo",
            "simulate --jobs 0 --scheduler fifo",
            "simulate --jobs 10 --scheduler fifo --speed 0",
            "simulate --jobs 10 --scheduler fifo --steals maybe",
            "simulate --jobs 10 --scheduler fifo --faults crash",
            "exec --compress 0",
            "exec --compress nan",
            "exec --iters-per-unit 0",
            "exec --policy warp-first",
            "exec --jobs 0",
        ] {
            let e = run_cli(&argv(cmd)).unwrap_err();
            assert!(
                matches!(e, CliError::BadFlag(..) | CliError::MissingFlag(_)),
                "{cmd}: {e:?}"
            );
        }
        // eps must be a positive fraction with a non-zero denominator;
        // the flag is checked before the file is read.
        for eps in ["1/0", "x", "-1/10", "0/5", "0"] {
            let e = run_cli(&argv(&format!("analyze --in /no/such/file --eps {eps}")));
            assert!(
                matches!(e, Err(CliError::BadFlag(ref k, _)) if k == "eps"),
                "{eps}: {e:?}"
            );
        }
    }

    #[test]
    fn compress_that_overflows_arrival_offsets_is_a_bad_flag() {
        // Positive and finite, but 1e-300× "compression" puts every
        // nonzero arrival past `Duration::MAX` (was a panic, exit 101).
        let e = run_cli(&argv("exec --jobs 5 --m 2 --compress 1e-300")).unwrap_err();
        assert!(
            matches!(e, CliError::BadFlag(ref k, _) if k == "compress"),
            "{e:?}"
        );
    }

    // ---- --faults / --deadline parsing ----

    #[test]
    fn fault_spec_round_trips_every_kind() {
        let plan =
            parse_faults("crash:3@1000,slow:2x0.5,stall:1@50+10,blackhole:0,panic:0.01").unwrap();
        assert_eq!(plan.crash_round_of(3), Some(1000));
        assert_eq!(plan.rate_ppm_of(2), 500_000);
        assert!(plan.is_stalled(1, 55));
        assert!(plan.is_blackhole(0));
        assert_eq!(plan.panic_ppm, 10_000);
        // Whitespace and empty segments are tolerated.
        let plan = parse_faults(" crash:0@5 , ,panic:1 ").unwrap();
        assert_eq!(plan.crash_round_of(0), Some(5));
        assert_eq!(plan.panic_ppm, PPM);
        // Empty spec is an empty plan.
        assert!(parse_faults("").unwrap().is_empty());
    }

    #[test]
    fn malformed_fault_specs_are_rejected() {
        for bad in [
            "crash",           // no spec at all
            "crash:3",         // missing @round
            "crash:x@5",       // non-numeric worker
            "crash:3@",        // missing round
            "slow:2",          // missing factor
            "slow:2x0",        // zero factor = frozen, use stall/crash
            "slow:2x1.5",      // faster than full speed
            "slow:2x-0.5",     // negative
            "slow:2xnan",      // NaN must not pass the range check
            "stall:1@50",      // missing +duration
            "stall:1@x+5",     // non-numeric from
            "blackhole:",      // missing worker
            "blackhole:zero",  // non-numeric worker
            "panic:1.5",       // probability > 1
            "panic:-0.1",      // negative probability
            "panic:often",     // non-numeric
            "meteor:1@2",      // unknown fault kind
            "crash:1@2,panic", // good entry followed by bad one
        ] {
            let e = parse_faults(bad).unwrap_err();
            assert!(
                matches!(e, CliError::BadFlag(ref k, _) if k == "faults"),
                "{bad}: {e:?}"
            );
        }
    }

    #[test]
    fn fault_plan_validated_against_machine_size() {
        // Worker 7 does not exist on a 4-core simulated machine.
        let e = run_cli(&argv(
            "simulate --jobs 20 --m 4 --qps 2000 --scheduler admit-first --faults crash:7@0",
        ))
        .unwrap_err();
        assert!(
            matches!(e, CliError::BadFlag(ref k, _) if k == "faults"),
            "{e:?}"
        );
        // Crashing every worker leaves nobody to finish the work.
        let e = run_cli(&argv(
            "simulate --jobs 20 --m 2 --qps 2000 --scheduler admit-first \
             --faults crash:0@0,crash:1@0",
        ))
        .unwrap_err();
        assert!(
            matches!(e, CliError::BadFlag(ref k, _) if k == "faults"),
            "{e:?}"
        );
    }

    #[test]
    fn simulate_with_faults_reports_flows() {
        let out = run_cli(&argv(
            "simulate --jobs 100 --m 4 --qps 2000 --scheduler steal-4-first \
             --faults crash:3@100,slow:2x0.5",
        ))
        .unwrap();
        assert!(out.contains("max flow"));
    }

    #[test]
    fn faults_rejected_for_schedulers_that_ignore_them() {
        for sched in ["fifo", "bwf", "lifo", "sjf", "equi"] {
            for cmd in [
                format!("simulate --scheduler {sched} --jobs 200 --m 4 --qps 800"),
                format!("analyze --in /no/such/file.json --scheduler {sched}"),
            ] {
                let e = run_cli(&argv(&format!("{cmd} --faults crash:0@10"))).unwrap_err();
                assert!(
                    matches!(e, CliError::BadFlag(ref k, ref v) if k == "faults" && v.contains(sched)),
                    "{cmd}: {e:?}"
                );
            }
        }
    }

    #[test]
    fn compare_names_fault_free_rows_only_with_faults() {
        let base = "compare --dist bing --qps 3000 --jobs 150 --m 4";
        let plain = run_cli(&argv(base)).unwrap();
        let faulted = run_cli(&argv(&format!("{base} --faults crash:0@10"))).unwrap();
        // Without the flag the output is the seven-row table and nothing
        // else; with it, all seven rows stay and the note comes last.
        assert!(!plain.contains("fault-free by construction"));
        assert!(plain.lines().last().unwrap().contains("steal-16-first"));
        let note = faulted.lines().last().unwrap();
        assert!(
            note.starts_with("fault-free by construction")
                && note.ends_with(": fifo, bwf, lifo, sjf, equi"),
            "{note}"
        );
        // The named rows are the ones the plan did not touch.
        let row = |out: &str, name: &str| {
            let line = out.lines().find(|l| l.trim_start().starts_with(name));
            line.unwrap_or_else(|| panic!("no {name} row")).to_string()
        };
        for name in ["fifo", "bwf", "lifo", "sjf", "equi"] {
            assert_eq!(row(&plain, name), row(&faulted, name));
        }
        assert_ne!(row(&plain, "admit-first"), row(&faulted, "admit-first"));
    }

    #[test]
    fn deadline_parsing() {
        assert_eq!(parse_deadline("30s").unwrap(), Duration::from_secs(30));
        assert_eq!(parse_deadline("500ms").unwrap(), Duration::from_millis(500));
        assert_eq!(parse_deadline("0.25").unwrap(), Duration::from_millis(250));
        for bad in ["", "s", "ms", "-1s", "0s", "0", "soon", "nan", "infs"] {
            let e = parse_deadline(bad).unwrap_err();
            assert!(
                matches!(e, CliError::BadFlag(ref k, _) if k == "deadline"),
                "{bad}: {e:?}"
            );
        }
    }

    #[test]
    fn exec_runs_real_executor() {
        let out = run_cli(&argv(
            "exec --jobs 10 --m 2 --qps 5000 --compress 20000 --iters-per-unit 1",
        ))
        .unwrap();
        assert!(out.contains("10 completed, 0 failed, 0 aborted"), "{out}");
        assert!(out.contains("max flow"));
    }

    #[test]
    fn exec_obs_json_writes_report() {
        let path = std::env::temp_dir().join("parflow_cli_exec_obs.json");
        let path_s = path.to_str().unwrap();
        let out = run_cli(&argv(&format!(
            "exec --jobs 10 --m 2 --qps 5000 --compress 20000 --iters-per-unit 1 \
             --obs-json {path_s}"
        )))
        .unwrap();
        assert!(
            out.contains(&format!("(obs json written to {path_s})")),
            "{out}"
        );
        let body = std::fs::read_to_string(&path).unwrap();
        // Aggregates, per-worker counters, the latency histogram and both
        // phase spans must all land in the report.
        for key in [
            "\"schema\": 1",
            "\"rt.tasks_executed\"",
            "\"rt.worker.tasks_executed[0]\"",
            "\"rt.worker.tasks_executed[1]\"",
            "\"rt.job_flow_ms\"",
            "\"exec.generate\"",
            "\"exec.run\"",
        ] {
            assert!(body.contains(key), "missing {key} in:\n{body}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn exec_with_full_panic_rate_fails_all_jobs() {
        let out = run_cli(&argv(
            "exec --jobs 8 --m 2 --qps 5000 --compress 20000 --iters-per-unit 1 \
             --policy steal-4-first --faults panic:1",
        ))
        .unwrap();
        assert!(out.contains("0 completed, 8 failed, 0 aborted"), "{out}");
    }

    #[test]
    fn exec_watchdog_aborts_stalled_machine() {
        // The only worker stalls forever; the watchdog must end the run.
        let out = run_cli(&argv(
            "exec --jobs 4 --m 1 --qps 5000 --compress 20000 --iters-per-unit 1 \
             --faults stall:0@0+100000000 --deadline 60ms",
        ))
        .unwrap();
        assert!(out.contains("aborted"), "{out}");
        assert!(out.contains("[run aborted by watchdog]"), "{out}");
    }

    #[test]
    fn exec_rejects_invalid_plan_for_machine() {
        let e = run_cli(&argv(
            "exec --jobs 4 --m 2 --qps 5000 --compress 20000 --iters-per-unit 1 \
             --faults blackhole:9",
        ))
        .unwrap_err();
        assert!(
            matches!(e, CliError::BadFlag(ref k, _) if k == "faults"),
            "{e:?}"
        );
    }

    // ---- exec --stream: the O(active)-memory streaming path ----

    #[test]
    fn exec_stream_runs_and_reports() {
        // Bare `--stream` means `--stream on`.
        let out = run_cli(&argv("exec --stream --jobs 200 --m 4 --qps 5000")).unwrap();
        assert!(out.contains("streamed 200 jobs on 4 workers"), "{out}");
        assert!(out.contains("live OPT bound"), "{out}");
        assert!(out.contains("retirement:"), "{out}");
        // Explicit value form behaves identically.
        let out2 = run_cli(&argv("exec --stream on --jobs 200 --m 4 --qps 5000")).unwrap();
        assert!(out2.contains("streamed 200 jobs"), "{out2}");
        // `--stream off` falls through to the threaded executor.
        let out3 = run_cli(&argv(
            "exec --stream off --jobs 10 --m 2 --qps 5000 --compress 20000 --iters-per-unit 1",
        ))
        .unwrap();
        assert!(out3.contains("executed 10 jobs"), "{out3}");
    }

    #[test]
    fn exec_stream_accepts_every_policy_spelling() {
        for policy in ["fifo", "admit-first", "steal-4-first"] {
            let out = run_cli(&argv(&format!(
                "exec --stream --jobs 100 --m 2 --qps 5000 --policy {policy}"
            )))
            .unwrap();
            assert!(out.contains("streamed 100 jobs"), "{policy}: {out}");
        }
        let e = run_cli(&argv(
            "exec --stream --jobs 100 --m 2 --qps 5000 --policy warp-first",
        ))
        .unwrap_err();
        assert!(
            matches!(e, CliError::BadFlag(ref k, _) if k == "policy"),
            "{e:?}"
        );
    }

    #[test]
    fn exec_stream_rejects_faults_and_bad_values() {
        // Only the centralized stream refuses a plan; work stealing runs it.
        let e = run_cli(&argv(
            "exec --stream --jobs 100 --m 2 --qps 5000 --policy fifo --faults panic:0.5",
        ))
        .unwrap_err();
        assert!(
            matches!(e, CliError::BadFlag(ref k, _) if k == "faults"),
            "{e:?}"
        );
        let e = run_cli(&argv("exec --stream maybe --jobs 100 --m 2 --qps 5000")).unwrap_err();
        assert!(
            matches!(e, CliError::BadFlag(ref k, _) if k == "stream"),
            "{e:?}"
        );
    }

    #[test]
    fn exec_stream_certify_reports_certificate() {
        // Bare `--certify` reads like `--stream`; the run must pass
        // the P5 check and append the certificate line.
        for flags in [
            "exec --stream --certify --jobs 200 --m 4 --qps 5000",
            "exec --stream on --certify on --jobs 200 --m 4 --qps 5000 --policy fifo",
        ] {
            let out = run_cli(&argv(flags)).unwrap();
            assert!(out.contains("certify: clean"), "{flags}: {out}");
        }
        // An unparsable value is a flag error, not a silent no-op.
        let e = run_cli(&argv(
            "exec --stream --certify maybe --jobs 100 --m 2 --qps 5000",
        ))
        .unwrap_err();
        assert!(
            matches!(e, CliError::BadFlag(ref k, _) if k == "certify"),
            "{e:?}"
        );
    }
}
