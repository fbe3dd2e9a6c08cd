//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p parflow-bench --bin repro -- [EXPERIMENT...]
//! ```
//!
//! `repro --list` prints the experiment names (the `EXPERIMENTS` table
//! below, in run order); no name, or `all`, runs every one.
//!
//! `repro sweep --grid <spec|smoke|phase> --out store.jsonl [--resume]`
//! runs the mega-sweep harness (cluster → prune → fan-out → aggregate)
//! instead of the named experiments; see `parflow_bench::sweep`.
//!
//! Flags: `--csv DIR` persists every table as CSV; `--list` enumerates
//! experiment names; `--obs-json PATH` times every experiment as an
//! observability phase, runs instrumented engine + runtime probes, and
//! writes the `parflow-obs` run report (counters, per-worker telemetry,
//! latency histograms, phase wall times); `--stream [--jobs N]` runs the
//! streaming trajectory. Flags and names mix in any order; an unknown or
//! repeated flag is a usage error before anything runs.
//! Environment: `PARFLOW_JOBS=100000` for paper-scale runs, `PARFLOW_SEED`
//! to reseed, `PARFLOW_THREADS` to size the experiment-point thread pool.

use parflow_bench::experiments::{
    backlog, base_seed, burst, equi_ablation, fault_resilience, fig2, fig3, grain, intervals,
    jobs_per_point, lemma_audit, lower_bound, norms, scaling, serve_soak, steal_amount, steal_k,
    theory_bwf, theory_fifo, theory_ws, variance, victim_ablation, weighted_ws,
};
use parflow_bench::{probes, Reporter};
use parflow_metrics::Table;
use parflow_obs::args::{ArgError, Args};
use parflow_obs::{AggregatingRecorder, Recorder};
use parflow_workloads::DistKind;
use std::cell::RefCell;

fn usage_error(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    eprintln!(
        "usage: repro [--csv DIR] [--obs-json PATH] [--stream] [--jobs N] [--list] [EXPERIMENT...]"
    );
    std::process::exit(2);
}

fn banner(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// What an experiment needs from the invocation.
struct Ctx {
    reporter: Reporter,
    seed: u64,
    /// `--jobs`: lifts serve-soak's default cap and sizes `--stream`.
    jobs: Option<u64>,
}

impl Ctx {
    fn emit(&self, name: &str, table: &Table) {
        self.reporter.emit(name, table).expect("csv write");
    }
}

fn run_fig2(dist: DistKind, panel: &str, c: &Ctx) {
    banner(&format!(
        "Figure 2({panel}): max flow time vs QPS — {} workload (m=16, n={})",
        dist.name(),
        jobs_per_point()
    ));
    let points = fig2::run(dist, c.seed);
    c.emit(
        &format!("fig2_{}", dist.name()),
        &fig2::table(dist, &points),
    );
    println!("expected shape: OPT <= steal-16-first << admit-first, gap grows with QPS");
}

/// An experiment: its name on the command line and what runs it.
type Experiment = (&'static str, fn(&Ctx));

/// Every experiment, in run order: the one table behind `--list`, name
/// validation, the `--obs-json` phase spans and the run loop.
const EXPERIMENTS: &[Experiment] = &[
    ("fig2-bing", |c| run_fig2(DistKind::Bing, "a", c)),
    ("fig2-finance", |c| run_fig2(DistKind::Finance, "b", c)),
    ("fig2-lognormal", |c| run_fig2(DistKind::LogNormal, "c", c)),
    ("fig3", |c| {
        banner("Figure 3: request work distributions");
        println!("{}", fig3::render(200_000, c.seed));
    }),
    ("lower-bound", |c| {
        banner("Lemma 5.1: work stealing is Omega(log n)-competitive");
        let pts = lower_bound::run(&lower_bound::default_ms(), 200_000, c.seed);
        c.emit("lower_bound", &lower_bound::table(&pts));
        println!("expected shape: WS max flow grows ~m/10 with m = Theta(log n); FIFO stays ~2");
    }),
    ("theory-fifo", |c| {
        banner("Theorem 3.1: FIFO with (1+eps) speed is (3/eps)-competitive");
        let pts = theory_fifo::run(jobs_per_point().min(20_000), c.seed);
        c.emit("theory_fifo", &theory_fifo::table(&pts));
    }),
    ("theory-ws", |c| {
        banner("Theorem 4.1: steal-k-first with (k+1+eps) speed, normalized flow");
        let pts = theory_ws::run(&[0, 2, 16], &[2_000, 8_000, 32_000], c.seed);
        c.emit("theory_ws", &theory_ws::table(&pts));
    }),
    ("theory-bwf", |c| {
        banner("Theorem 7.1: BWF with (1+eps) speed is (3/eps^2)-competitive (weighted)");
        let pts = theory_bwf::run(jobs_per_point().min(20_000), 1_000, c.seed);
        c.emit("theory_bwf", &theory_bwf::table(&pts));
    }),
    ("steal-k", |c| {
        banner("Ablation: steal-k-first parameter sweep (Bing workload)");
        let pts = steal_k::run(&steal_k::default_ks(), &[800.0, 1000.0, 1200.0], c.seed);
        c.emit("steal_k", &steal_k::table(&pts));
        println!("expected shape: larger k approaches OPT; k=0 degrades at high QPS");
    }),
    ("victim-ablation", |c| {
        banner("Ablation: victim selection vs the Lemma 5.1 lower bound");
        let pts = victim_ablation::run(&[20, 40, 60, 80], 150_000, c.seed);
        c.emit("victim_ablation", &victim_ablation::table(&pts));
        println!("expected shape: random victims degrade ~m/10; scanning collapses to O(1)");
    }),
    ("equi", |c| {
        banner("Ablation: EQUI (processor sharing) vs FIFO for max flow");
        let pts = equi_ablation::run(
            &[800.0, 1000.0, 1200.0],
            jobs_per_point().min(20_000),
            c.seed,
        );
        c.emit("equi_ablation", &equi_ablation::table(&pts));
        println!("expected shape: EQUI's max-flow gap to FIFO grows with load");
    }),
    ("norms", |c| {
        banner("Extension: l_k norms of flow time and maximum stretch");
        let pts = norms::run(jobs_per_point().min(20_000), c.seed);
        c.emit("norms", &norms::table(&pts));
    }),
    ("grain", |c| {
        banner("Ablation: parallel-for chunk granularity (steal-16-first)");
        let pts = grain::run(
            &grain::default_grains(),
            1100.0,
            jobs_per_point().min(20_000),
            c.seed,
        );
        c.emit("grain", &grain::table(&pts));
        println!("expected shape: a U-curve — too-fine grains flood deques and delay admissions,");
        println!("too-coarse grains raise span; the sweet spot sits near ~1-3 ms chunks");
    }),
    ("burst", |c| {
        banner("Robustness: bursty arrivals at fixed average load");
        let pts = burst::run(
            &burst::default_bursts(),
            jobs_per_point().min(20_000),
            c.seed,
        );
        c.emit("burst", &burst::table(&pts));
        println!("expected shape: everyone degrades with burst size; admit-first fastest");
    }),
    ("scaling", |c| {
        banner("Extension: machine-size scaling at fixed 65% utilization (Bing)");
        let pts = scaling::run(&scaling::default_ms(), jobs_per_point().min(20_000), c.seed);
        c.emit("scaling", &scaling::table(&pts));
        println!("expected shape: steal-16 tracks OPT at every m; admit-first gap persists");
    }),
    ("variance", |c| {
        banner("Extension: max-flow variance across seeds (w.h.p. in practice)");
        let pts = variance::run(1100.0, jobs_per_point().min(20_000), 10, c.seed);
        c.emit("variance", &variance::table(&pts));
    }),
    ("steal-amount", |c| {
        banner("Ablation: steal-one vs steal-half transfer granularity (unit-cost steals)");
        let pts = steal_amount::run(
            &[800.0, 1000.0, 1200.0],
            jobs_per_point().min(20_000),
            c.seed,
        );
        c.emit("steal_amount", &steal_amount::table(&pts));
    }),
    ("weighted-ws", |c| {
        banner("Extension: distributed BWF (weight-ordered admission) vs centralized BWF");
        let pts = weighted_ws::run(
            &[800.0, 1000.0, 1200.0],
            jobs_per_point().min(20_000),
            c.seed,
        );
        c.emit("weighted_ws", &weighted_ws::table(&pts));
        println!("expected shape: weighted admission helps in backlog episodes, but");
        println!("preemptive BWF wins consistently; see module docs for the analysis");
    }),
    ("fault-resilience", |c| {
        banner("Robustness: admit-first vs steal-16-first under injected faults (QPS 1000)");
        let pts = fault_resilience::run(&fault_resilience::default_levels(), 1000.0, c.seed);
        c.emit("fault_resilience", &fault_resilience::table(&pts));
        println!("expected shape: both policies degrade smoothly as workers crash/slow;");
        println!(
            "crashed deques are reinjected, so no completed job is lost — only panics fail jobs"
        );
    }),
    ("serve-soak", |c| {
        banner("Robustness: streaming admission service under sustained QPS (SLO soak)");
        // `--jobs` lifts the default cap: the supervisor streams its
        // source, so a 10M-job soak is wall-time-bound, not memory-bound.
        let soak_jobs = c
            .jobs
            .map(|j| j as usize)
            .unwrap_or_else(|| jobs_per_point().min(5_000));
        let pts = serve_soak::run_sized(&serve_soak::default_utils(), c.seed, soak_jobs);
        c.emit("serve_soak", &serve_soak::table(&pts));
        println!("expected shape: shed/reject rates rise past utilization 1.0, while the");
        println!("max virtual flow over admitted jobs stays under the SLO at every level");
    }),
    ("lemmas", |c| {
        banner("Lemma audit: proof-level quantities measured on real schedules");
        let a = lemma_audit::run(jobs_per_point().min(10_000), c.seed);
        c.emit("lemma_audit", &lemma_audit::table(&a));
    }),
    ("backlog", |c| {
        banner("Diagnostic: backlog dynamics, admit-first vs steal-16-first (QPS 1200)");
        let pts = backlog::run(1200.0, jobs_per_point().min(20_000), c.seed);
        c.emit("backlog", &backlog::table(&pts));
        println!("mechanism: admit-first opens jobs eagerly (high live count, slow each);");
        println!("steal-16-first queues them and drains admitted jobs with parallelism");
    }),
    ("intervals", |c| {
        banner("Figure 1: interval decomposition of the max-flow job's trace");
        match intervals::run(jobs_per_point().min(20_000), c.seed, (1, 10)) {
            Some(a) => {
                println!(
                    "max-flow job J_{} : r_i={:.1} c_i={:.1} F_i={:.1}, beta={}, t'={:.1}",
                    a.job,
                    a.arrival.to_f64(),
                    a.completion.to_f64(),
                    a.flow.to_f64(),
                    a.beta(),
                    a.t_prime.to_f64()
                );
                c.emit("intervals", &intervals::table(&a));
            }
            None => println!("empty instance"),
        }
    }),
];

/// `--stream`: the streaming trajectory, `--jobs` (default 1M) Bing jobs.
fn stream_trajectory(c: &Ctx) {
    let jobs = c.jobs.unwrap_or(1_000_000);
    banner(&format!(
        "Streaming trajectory (--stream): {jobs} Bing QPS-1000 jobs, O(active) memory"
    ));
    let spec = parflow_workloads::WorkloadSpec::paper_fig2(
        DistKind::Bing,
        1000.0,
        jobs_per_point(),
        c.seed,
    );
    let cfg = parflow_core::SimConfig::new(16).with_free_steals();
    let t = std::time::Instant::now();
    let run = parflow_bench::stream::run_stream_ws(
        &spec,
        &cfg,
        parflow_core::StealPolicy::StealKFirst { k: 16 },
        c.seed,
        jobs,
    )
    .unwrap_or_else(|e| usage_error(&format!("stream failed: {e}")));
    println!("{}", run.render(cfg.m, t.elapsed().as_secs_f64(), None));
}

/// The parsed invocation (everything but `sweep`, which has its own).
struct Cli {
    csv: Option<String>,
    obs_json: Option<String>,
    stream: bool,
    jobs: Option<u64>,
    list: bool,
    names: Vec<String>,
}

fn read_cli(raw: &[String]) -> Result<Cli, ArgError> {
    let flags = Args::parse(raw, &["stream", "list"])?;
    let cli = Cli {
        csv: flags.get("csv")?,
        obs_json: flags.get("obs-json")?,
        stream: flags.flag("stream"),
        jobs: flags.get("jobs")?,
        list: flags.flag("list"),
        names: flags.positionals().to_vec(),
    };
    flags.finish()?;
    Ok(cli)
}

fn main() {
    let started = std::time::Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // `repro sweep …` is a subcommand with its own flags and usage text.
    if raw.first().map(String::as_str) == Some("sweep") {
        match parflow_bench::sweep::cli_main(&raw[1..]) {
            Ok(report) => {
                println!("{report}");
                return;
            }
            Err(msg) => {
                eprintln!("repro sweep: {msg}");
                std::process::exit(2);
            }
        }
    }
    let cli = read_cli(&raw).unwrap_or_else(|e| usage_error(&e.to_string()));
    if let Some(name) = cli
        .names
        .iter()
        .find(|n| *n != "all" && !EXPERIMENTS.iter().any(|(e, _)| e == n))
    {
        usage_error(&format!(
            "unknown experiment `{name}` (run `repro --list` for names)"
        ));
    }
    if cli.list {
        for (name, _) in EXPERIMENTS {
            println!("{name}");
        }
        return;
    }
    let reporter = match &cli.csv {
        Some(dir) => Reporter::with_csv_dir(dir)
            .unwrap_or_else(|e| usage_error(&format!("cannot create csv directory `{dir}`: {e}"))),
        None => Reporter::stdout_only(),
    };
    let ctx = Ctx {
        reporter,
        seed: base_seed(),
        jobs: cli.jobs,
    };
    // `--stream` with no experiment names runs only the streaming
    // trajectory (at `--jobs 10000000` the full suite would otherwise ride
    // along); with names it augments them (serve-soak honors `--jobs`).
    let stream_only = cli.stream && cli.names.is_empty();
    let want = |name: &str| {
        !stream_only && (cli.names.is_empty() || cli.names.iter().any(|a| a == name || a == "all"))
    };
    // One shared recorder behind `--obs-json`; each experiment runs as a
    // phase span, so the report's `phases` section is a per-experiment
    // wall-time breakdown of this invocation. Without the flag a phase is
    // just its body.
    let obs = cli
        .obs_json
        .as_ref()
        .map(|_| RefCell::new(AggregatingRecorder::new()));
    let phase = |name: &str, body: &mut dyn FnMut()| {
        if let Some(r) = &obs {
            r.borrow_mut().span_begin(name);
        }
        body();
        if let Some(r) = &obs {
            r.borrow_mut().span_end(name);
        }
    };

    for (name, run) in EXPERIMENTS {
        if want(name) {
            phase(name, &mut || run(&ctx));
        }
    }

    if cli.stream {
        phase("stream-trajectory", &mut || stream_trajectory(&ctx));
    }

    if let (Some(path), Some(cell)) = (cli.obs_json, obs.as_ref()) {
        banner("Observability report (--obs-json)");
        phase("obs.engine_probe", &mut || {
            let jobs = jobs_per_point().min(2_000);
            probes::probe_observed(ctx.seed, jobs, &mut *cell.borrow_mut());
        });
        phase("obs.runtime_probe", &mut || {
            probes::runtime_probe_observed(&mut *cell.borrow_mut());
        });
        cell.borrow_mut()
            .gauge("repro.wall_seconds", started.elapsed().as_secs_f64());
        let report = cell.borrow().report();
        std::fs::write(&path, report.to_json())
            .unwrap_or_else(|e| usage_error(&format!("cannot write obs json `{path}`: {e}")));
        println!(
            "{} counters, {} gauges, {} histograms, {} phases",
            report.counters.len(),
            report.gauges.len(),
            report.histograms.len(),
            report.phases.len()
        );
        println!(
            "engine probe: {} steal attempts, {} admissions (u64-exact counters)",
            cell.borrow().counter_value("ws.steal_attempts", None),
            cell.borrow().counter_value("ws.admissions", None),
        );
        println!("(obs json written to {path})");
    }
}
