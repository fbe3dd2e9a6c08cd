//! The seven workloads and the loop that runs one of them.
//!
//! A run is: set-up (repeated and timed as `setup_s`), one warm-up
//! repetition, then timed repetitions until `--seconds` have passed. Every
//! repetition works on the same generated inputs, so counts that the
//! schedule determines must repeat exactly; timings are reported as
//! medians. Peak memory is read before the checks that need memory of
//! their own, so a check never inflates `peak_rss_mb`.

mod certify_trace;
mod exec_drain;
mod repro_all;
mod serve_replay;
mod sim_batched;
mod sim_fig2;
mod sim_stream;

use crate::spec::{self, Kind};
use crate::stats::Summary;
use crate::sys;
use crate::trace::{Layer, Tracer};
use parflow_workloads::ShapeKind;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Named raw numbers a repetition or a probe produced.
pub type Counts = BTreeMap<&'static str, f64>;

/// Operations attempted and failed: jobs not completed, submissions
/// lost, certifier violations, output checks that did not hold.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// How many of them failed.
    pub failed: u64,
}

impl Tally {
    /// Count one output check.
    pub fn check(&mut self, holds: bool) {
        self.attempted += 1;
        self.failed += u64::from(!holds);
    }

    /// Count `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn merge(&mut self, other: Tally) {
        self.ops(other.attempted, other.failed);
    }
}

/// What one repetition did.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Jobs (submissions, experiment-jobs) completed.
    pub jobs: u64,
    /// Operations and output checks of this repetition.
    pub tally: Tally,
    /// Raw counts, keyed by metric name where the count *is* the metric
    /// (the exact ones), otherwise by a name the workload's
    /// `layer_metrics` understands.
    pub counts: Counts,
}

/// How large the inputs are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the numbers in `README.md` were taken at.
    Full,
    /// Tiny inputs for `cargo test`: every code path, no meaningful time.
    Smoke,
}

impl Scale {
    /// `full` at full scale, `smoke` otherwise.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// One workload, set up for a seed.
pub trait Workload {
    /// One repetition over the set-up inputs.
    fn rep(&mut self, tr: &mut Tracer) -> Rep;

    /// Output checks that allocate or run the program again; called once,
    /// after peak memory has been read.
    fn post_checks(&mut self) -> Tally {
        Tally::default()
    }

    /// Standalone passes over single layers (traced run only); each
    /// writes the per-layer metrics it measures straight into `out`.
    fn probes(&mut self, _tr: &mut Tracer, _out: &mut Counts) {}

    /// Per-layer metrics from the recorded spans and the traced
    /// repetitions' counts.
    fn layer_metrics(&self, tr: &Tracer, reps: &[Rep], out: &mut Counts);

    /// Peak resident memory in kB attributable to the workload.
    fn peak_rss_kb(&self) -> Option<u64> {
        sys::peak_rss_kb(None)
    }
}

fn set_up(
    name: &str,
    seed: u64,
    scale: Scale,
    tr: &mut Tracer,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "sim_fig2" => Box::new(sim_fig2::SimFig2::set_up(seed, scale, tr)),
        "sim_batched" => Box::new(sim_batched::SimBatched::set_up(seed, scale, tr)),
        "sim_stream" => Box::new(sim_stream::SimStream::set_up(seed, scale, tr)),
        "certify_trace" => Box::new(certify_trace::CertifyTrace::set_up(seed, scale, tr)?),
        "serve_replay" => Box::new(serve_replay::ServeReplay::set_up(seed, scale, tr)?),
        "exec_drain" => Box::new(exec_drain::ExecDrain::set_up(seed, scale, tr)),
        "repro_all" => Box::new(repro_all::ReproAll::set_up(seed, scale, tr)?),
        other => return Err(format!("unknown workload `{other}` (see `perf list`)")),
    })
}

/// What to run.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds to keep repeating for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Declared name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Declared unit.
    pub unit: &'static str,
}

/// The result of one run of one workload.
#[derive(Clone, Debug)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Seed the inputs were made from.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Operations and checks, summed over repetitions and post-checks.
    pub tally: Tally,
    /// Every end-to-end metric (untraced) or every per-layer metric
    /// (traced), in declaration order.
    pub metrics: Vec<Metric>,
    /// Human-readable detail lines (quartiles, sample counts, notes).
    pub notes: Vec<String>,
}

impl Report {
    /// All operations succeeded and all output checks held.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// Value of metric `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line the benchmark driver reads: one JSON object with
    /// exactly `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    crate::json::quote(m.name),
                    crate::json::num(m.value),
                    crate::json::quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// The fastest of repeated timings of the same work.
///
/// Interference on a small shared sandbox only ever adds time, in bursts
/// that last longer than a repetition, so the median of one run's
/// repetitions moves by 10-20 % between runs of the same code while the
/// fastest repetition moves by 1-3 %. A slower program moves the fastest
/// repetition as much as any other; the median and quartiles are printed
/// beside it.
fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// One pass (every workload once, at one seed) as a JSON object, from
/// `(workload, result line)` pairs.
pub fn pass_json(seed: u64, trace: bool, results: &[(String, String)]) -> String {
    let members: Vec<String> = results
        .iter()
        .map(|(workload, line)| format!("{}: {line}", crate::json::quote(workload)))
        .collect();
    format!(
        "{{\"seed\": {seed}, \"trace\": {trace}, \"workloads\": {{{}}}}}",
        members.join(", ")
    )
}

/// The result-set document `perf run --json` writes and `perf compare`
/// reads. It ends with `"claim": null`: running the benchmark on one
/// commit claims no gain.
pub fn result_set_json(header: &str, seconds: f64, passes: &[String]) -> String {
    format!(
        "{{\"header\": {}, \"seconds\": {}, \"passes\": [\n{}\n], \"claim\": null}}\n",
        crate::json::quote(header),
        crate::json::num(seconds),
        passes.join(",\n")
    )
}

/// Repetitions whose exact counts differ from the first one's.
fn inexact_reps(reps: &[Rep]) -> u64 {
    let exact = |r: &Rep| -> Vec<(&'static str, u64)> {
        r.counts
            .iter()
            .filter(|(k, _)| spec::metric(k).is_some_and(|m| m.kind == Kind::Exact))
            .map(|(k, v)| (*k, v.to_bits()))
            .collect()
    };
    match reps.split_first() {
        Some((first, rest)) => {
            let base = exact(first);
            rest.iter().filter(|r| exact(r) != base).count() as u64
        }
        None => 0,
    }
}

fn timed_rep(w: &mut dyn Workload, tr: &mut Tracer) -> (Rep, f64) {
    let t = Instant::now();
    let rep = tr.span(Layer::Harness, "rep", |tr| w.rep(tr));
    (rep, t.elapsed().as_secs_f64())
}

/// Run one workload and report its metrics.
pub fn run_one(opts: &Opts) -> Result<Report, String> {
    if spec::workload(&opts.workload).is_none() {
        return Err(format!(
            "unknown workload `{}` (see `perf list`)",
            opts.workload
        ));
    }
    if opts.trace {
        run_traced(opts)
    } else {
        run_end_to_end(opts)
    }
}

fn run_end_to_end(opts: &Opts) -> Result<Report, String> {
    let smoke = opts.scale == Scale::Smoke;
    let mut tr = Tracer::off();
    // Set-up is repeated so its time is a median, not one sample (more
    // often when it is cheap, so a millisecond set-up is steady too); the
    // previous inputs are dropped first so two copies never coexist.
    let mut setup_s = Vec::new();
    let mut w: Option<Box<dyn Workload>> = None;
    let setting_up = Instant::now();
    while setup_s.len() < opts.scale.pick(5, 1)
        || (!smoke && setup_s.len() < 25 && setting_up.elapsed().as_secs_f64() < 0.5)
    {
        drop(w.take());
        let t = Instant::now();
        w = Some(set_up(&opts.workload, opts.seed, opts.scale, &mut tr)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = w.ok_or("set-up did not run")?;
    if !smoke {
        w.rep(&mut tr);
    }
    let min_reps = opts.scale.pick(3, 1);
    let mut reps = Vec::new();
    let mut walls = Vec::new();
    let started = Instant::now();
    while reps.len() < min_reps || (!smoke && started.elapsed().as_secs_f64() < opts.seconds) {
        let (rep, wall) = timed_rep(w.as_mut(), &mut tr);
        reps.push(rep);
        walls.push(wall);
    }
    let peak_kb = w.peak_rss_kb();
    let mut tally = Tally::default();
    for r in &reps {
        tally.merge(r.tally);
    }
    tally.ops(reps.len() as u64, inexact_reps(&reps));
    let last = reps.last().ok_or("no repetition ran")?;
    tally.merge(w.post_checks());

    let (wall, setup) = (Summary::of(&walls), Summary::of(&setup_s));
    let (wall_s, setup_s) = (fastest(&walls), fastest(&setup_s));
    let values = [
        ("wall_s", wall_s),
        ("jobs_per_s", last.jobs as f64 / wall_s.max(1e-12)),
        ("peak_rss_mb", peak_kb.unwrap_or(0) as f64 / 1024.0),
        ("setup_s", setup_s),
    ];
    let metrics = spec::END_TO_END
        .iter()
        .map(|d| Metric {
            name: d.name,
            value: values
                .iter()
                .find(|(n, _)| *n == d.name)
                .map_or(0.0, |(_, v)| *v),
            unit: d.unit,
        })
        .collect();
    let mut notes = vec![
        format!(
            "wall_s    fastest {:.4} median {:.4} q1 {:.4} q3 {:.4} over K={} repetitions of {} jobs",
            wall_s, wall.median, wall.q1, wall.q3, wall.n, last.jobs
        ),
        format!(
            "setup_s   fastest {:.4} median {:.4} q1 {:.4} q3 {:.4} over {} set-ups",
            setup_s, setup.median, setup.q1, setup.q3, setup.n
        ),
    ];
    if last.counts.contains_key("skipped") {
        notes.push("skipped: nothing was timed (see the workload's module docs)".to_string());
    }
    Ok(Report {
        workload: opts.workload.clone(),
        seed: opts.seed,
        trace: false,
        tally,
        metrics,
        notes,
    })
}

fn run_traced(opts: &Opts) -> Result<Report, String> {
    let smoke = opts.scale == Scale::Smoke;
    let mut tr = Tracer::on();
    let mut w = set_up(&opts.workload, opts.seed, opts.scale, &mut tr)?;
    // The warm-up is recorded too, under repetition id 0: the first
    // replay in a process is the only one whose memory growth shows.
    if !smoke {
        w.rep(&mut tr);
    }
    // Traced and untraced repetitions alternate, so both see the same
    // machine state and their ratio is the tracing overhead.
    let min_pairs = opts.scale.pick(2, 1);
    let (mut plain, mut traced, mut reps) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while reps.len() < min_pairs || (!smoke && started.elapsed().as_secs_f64() < opts.seconds) {
        tr.set_recording(false);
        plain.push(timed_rep(w.as_mut(), &mut tr).1);
        tr.set_recording(true);
        tr.next_run();
        let (rep, wall) = timed_rep(w.as_mut(), &mut tr);
        traced.push(wall);
        reps.push(rep);
    }
    tr.end_runs();
    let mut tally = Tally::default();
    for r in &reps {
        tally.merge(r.tally);
    }
    tally.ops(reps.len() as u64, inexact_reps(&reps));
    let last = reps.last().ok_or("no repetition ran")?;
    tally.merge(w.post_checks());

    let mut values = Counts::new();
    w.probes(&mut tr, &mut values);
    for (k, v) in &last.counts {
        if spec::metric(k).is_some_and(|m| m.kind == Kind::Exact) {
            values.insert(k, *v);
        }
    }
    w.layer_metrics(&tr, &reps, &mut values);

    values.insert(
        "trace.overhead_ratio",
        fastest(&traced) / fastest(&plain).max(1e-12),
    );
    let (plain, traced) = (Summary::of(&plain), Summary::of(&traced));
    // Aggregated spans are estimates scaled up from timed crossings, so
    // the self times can overshoot the wall by a hair; shares are taken of
    // whichever is larger and never sum past 1.
    let (by_layer, wall_ns) = tr.self_times();
    let whole = wall_ns.max(by_layer.values().sum()).max(1.0);
    let share = |l: Layer| by_layer.get(&l).copied().unwrap_or(0.0) / whole;
    values.insert("trace.attributed_share", 1.0 - share(Layer::Harness));
    let mut notes = vec![format!(
        "traced wall median {:.4} s, untraced {:.4} s over {} pairs",
        traced.median, plain.median, traced.n
    )];
    for l in Layer::MEASURED {
        let name = spec::PER_LAYER
            .iter()
            .map(|d| d.name)
            .find(|n| n.strip_prefix("share.") == Some(l.name()));
        if let Some(name) = name {
            values.insert(name, share(l));
        }
        if share(l) > 0.0 {
            notes.push(format!("share {:<10} {:6.2} %", l.name(), 100.0 * share(l)));
        }
    }
    notes.push(format!(
        "share {:<10} {:6.2} %",
        "harness",
        100.0 * share(Layer::Harness)
    ));
    let trace_path = sys::target_dir()
        .join("perf")
        .join(format!("perf-trace.{}.json", opts.workload));
    match std::fs::create_dir_all(sys::target_dir().join("perf"))
        .and_then(|()| std::fs::write(&trace_path, tr.to_json(&opts.workload, opts.seed)))
    {
        Ok(()) => notes.push(format!(
            "{} spans written to {}",
            tr.spans().len(),
            trace_path.display()
        )),
        Err(e) => return Err(format!("cannot write {}: {e}", trace_path.display())),
    }

    let metrics = spec::PER_LAYER
        .iter()
        .map(|d| Metric {
            name: d.name,
            value: values.get(d.name).copied().unwrap_or(0.0),
            unit: d.unit,
        })
        .collect();
    Ok(Report {
        workload: opts.workload.clone(),
        seed: opts.seed,
        trace: true,
        tally,
        metrics,
        notes,
    })
}

/// `num / den`, 0 when the denominator is 0 (a layer that did not run).
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `ShapeKind::build` over the distinct work values of a run: mean
/// nanoseconds per DAG node built.
pub(crate) fn dag_build_probe(works: impl Iterator<Item = u64>, tr: &mut Tracer) -> f64 {
    const PASSES: usize = 20;
    let distinct: BTreeSet<u64> = works.collect();
    let shape = ShapeKind::ParallelFor { grain: 10 };
    let t = Instant::now();
    let nodes: usize = tr.leaf(Layer::Dag, "ShapeKind::build", || {
        (0..PASSES)
            .flat_map(|_| distinct.iter())
            .map(|&w| std::hint::black_box(shape.build(w)).num_nodes())
            .sum()
    });
    ratio(t.elapsed().as_nanos() as f64, nodes as f64)
}

/// Sum of `key` over the repetitions' counts.
pub(crate) fn sum_of(reps: &[Rep], key: &str) -> f64 {
    // Folded from +0.0: `Iterator::sum` of no `f64`s is -0.0, and a
    // report must not print "-0" for a layer that did not run.
    reps.iter()
        .filter_map(|r| r.counts.get(key))
        .fold(0.0, |acc, v| acc + v)
}
