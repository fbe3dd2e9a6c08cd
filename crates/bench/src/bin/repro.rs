//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p parflow-bench --bin repro -- [EXPERIMENT...]
//! ```
//!
//! Experiments: `fig2-bing`, `fig2-finance`, `fig2-lognormal`, `fig3`,
//! `lower-bound`, `theory-fifo`, `theory-ws`, `theory-bwf`, `steal-k`,
//! `intervals`, `victim-ablation`, `equi`, `norms`, `grain`, `burst`,
//! `backlog`, `lemmas`, `scaling`, `variance`, `steal-amount`,
//! `weighted-ws`, `fault-resilience`, `serve-soak`, or `all` (default).
//!
//! `repro sweep --grid <spec|smoke|phase> --out store.jsonl [--resume]`
//! runs the mega-sweep harness (cluster → prune → fan-out → aggregate)
//! instead of the named experiments; see `parflow_bench::sweep`.
//!
//! Flags: `--csv DIR` persists every table as CSV; `--list` enumerates
//! experiment names; `--obs-json PATH` times every experiment as an
//! observability phase, runs instrumented engine + runtime probes, and
//! writes the `parflow-obs` run report (counters, per-worker telemetry,
//! latency histograms, phase wall times).
//! Environment: `PARFLOW_JOBS=100000` for paper-scale runs, `PARFLOW_SEED`
//! to reseed, `PARFLOW_THREADS` to size the experiment-point thread pool.

use parflow_bench::experiments::{
    backlog, base_seed, burst, equi_ablation, fault_resilience, fig2, fig3, grain, intervals,
    jobs_per_point, lemma_audit, lower_bound, norms, scaling, serve_soak, steal_amount, steal_k,
    theory_bwf, theory_fifo, theory_ws, variance, victim_ablation, weighted_ws,
};
use parflow_bench::{probes, Reporter};
use parflow_obs::{AggregatingRecorder, Recorder};
use parflow_workloads::DistKind;
use std::cell::RefCell;

/// Every experiment name `repro` understands, in run order.
const EXPERIMENTS: &[&str] = &[
    "fig2-bing",
    "fig2-finance",
    "fig2-lognormal",
    "fig3",
    "lower-bound",
    "theory-fifo",
    "theory-ws",
    "theory-bwf",
    "steal-k",
    "victim-ablation",
    "equi",
    "norms",
    "grain",
    "burst",
    "scaling",
    "variance",
    "steal-amount",
    "weighted-ws",
    "fault-resilience",
    "serve-soak",
    "lemmas",
    "backlog",
    "intervals",
];

fn usage_error(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    eprintln!(
        "usage: repro [--csv DIR] [--obs-json PATH] [--stream] [--jobs N] [--list] [EXPERIMENT...]"
    );
    std::process::exit(2);
}

/// Times one experiment as an observability phase: `SpanBegin` on
/// construction, `SpanEnd` on drop, so early exits still close the span.
/// A `None` recorder makes the guard free.
struct PhaseGuard<'a> {
    rec: Option<&'a RefCell<AggregatingRecorder>>,
    name: &'static str,
}

impl<'a> PhaseGuard<'a> {
    fn begin(rec: Option<&'a RefCell<AggregatingRecorder>>, name: &'static str) -> Self {
        if let Some(r) = rec {
            r.borrow_mut().span_begin(name);
        }
        PhaseGuard { rec, name }
    }
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        if let Some(r) = self.rec {
            r.borrow_mut().span_end(self.name);
        }
    }
}

fn banner(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn run_fig2(dist: DistKind, panel: &str, reporter: &Reporter) {
    banner(&format!(
        "Figure 2({panel}): max flow time vs QPS — {} workload (m=16, n={})",
        dist.name(),
        jobs_per_point()
    ));
    let points = fig2::run(dist, base_seed());
    reporter
        .emit(
            &format!("fig2_{}", dist.name()),
            &fig2::table(dist, &points),
        )
        .expect("csv write");
    println!("expected shape: OPT <= steal-16-first << admit-first, gap grows with QPS");
}

fn main() {
    let started = std::time::Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // `repro sweep …` is a subcommand with its own flag grammar (boolean
    // `--resume`, grid specs); dispatch before experiment-name parsing.
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
    // Extract flags before treating the rest as experiment names.
    let mut args: Vec<String> = Vec::new();
    let mut reporter = Reporter::stdout_only();
    let mut obs_json: Option<String> = None;
    let mut stream_mode = false;
    let mut jobs_override: Option<u64> = None;
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stream" => {
                stream_mode = true;
            }
            "--jobs" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--jobs needs a count argument"));
                jobs_override = Some(v.parse().unwrap_or_else(|_| {
                    usage_error(&format!("--jobs needs a non-negative integer, got `{v}`"))
                }));
            }
            "--csv" => {
                let dir = it
                    .next()
                    .unwrap_or_else(|| usage_error("--csv needs a directory argument"));
                reporter = Reporter::with_csv_dir(&dir).unwrap_or_else(|e| {
                    usage_error(&format!("cannot create csv directory `{dir}`: {e}"))
                });
            }
            "--obs-json" => {
                obs_json = Some(
                    it.next()
                        .unwrap_or_else(|| usage_error("--obs-json needs a file path argument")),
                );
            }
            "--list" => {
                for name in EXPERIMENTS {
                    println!("{name}");
                }
                return;
            }
            flag if flag.starts_with("--") => {
                usage_error(&format!("unknown flag `{flag}`"));
            }
            name if name != "all" && !EXPERIMENTS.contains(&name) => {
                usage_error(&format!(
                    "unknown experiment `{name}` (run `repro --list` for names)"
                ));
            }
            _ => args.push(a),
        }
    }
    // `--stream` with no experiment names runs only the streaming
    // trajectory (at `--jobs 10000000` the full suite would otherwise ride
    // along); with names it augments them (serve-soak honors `--jobs`).
    let stream_only = stream_mode && args.is_empty();
    let want = |name: &str| {
        !stream_only && (args.is_empty() || args.iter().any(|a| a == name || a == "all"))
    };
    let seed = base_seed();
    // One shared recorder behind `--obs-json`; each experiment block opens
    // a drop-guarded phase span, so the report's `phases` section is a
    // per-experiment wall-time breakdown of this invocation.
    let obs = obs_json
        .as_ref()
        .map(|_| RefCell::new(AggregatingRecorder::new()));

    if want("fig2-bing") {
        let _p = PhaseGuard::begin(obs.as_ref(), "fig2-bing");
        run_fig2(DistKind::Bing, "a", &reporter);
    }
    if want("fig2-finance") {
        let _p = PhaseGuard::begin(obs.as_ref(), "fig2-finance");
        run_fig2(DistKind::Finance, "b", &reporter);
    }
    if want("fig2-lognormal") {
        let _p = PhaseGuard::begin(obs.as_ref(), "fig2-lognormal");
        run_fig2(DistKind::LogNormal, "c", &reporter);
    }
    if want("fig3") {
        let _p = PhaseGuard::begin(obs.as_ref(), "fig3");
        banner("Figure 3: request work distributions");
        println!("{}", fig3::render(200_000, seed));
    }
    if want("lower-bound") {
        let _p = PhaseGuard::begin(obs.as_ref(), "lower-bound");
        banner("Lemma 5.1: work stealing is Omega(log n)-competitive");
        let pts = lower_bound::run(&lower_bound::default_ms(), 200_000, seed);
        reporter
            .emit("lower_bound", &lower_bound::table(&pts))
            .expect("csv write");
        println!("expected shape: WS max flow grows ~m/10 with m = Theta(log n); FIFO stays ~2");
    }
    if want("theory-fifo") {
        let _p = PhaseGuard::begin(obs.as_ref(), "theory-fifo");
        banner("Theorem 3.1: FIFO with (1+eps) speed is (3/eps)-competitive");
        let pts = theory_fifo::run(jobs_per_point().min(20_000), seed);
        reporter
            .emit("theory_fifo", &theory_fifo::table(&pts))
            .expect("csv write");
    }
    if want("theory-ws") {
        let _p = PhaseGuard::begin(obs.as_ref(), "theory-ws");
        banner("Theorem 4.1: steal-k-first with (k+1+eps) speed, normalized flow");
        let pts = theory_ws::run(&[0, 2, 16], &[2_000, 8_000, 32_000], seed);
        reporter
            .emit("theory_ws", &theory_ws::table(&pts))
            .expect("csv write");
    }
    if want("theory-bwf") {
        let _p = PhaseGuard::begin(obs.as_ref(), "theory-bwf");
        banner("Theorem 7.1: BWF with (1+eps) speed is (3/eps^2)-competitive (weighted)");
        let pts = theory_bwf::run(jobs_per_point().min(20_000), 1_000, seed);
        reporter
            .emit("theory_bwf", &theory_bwf::table(&pts))
            .expect("csv write");
    }
    if want("steal-k") {
        let _p = PhaseGuard::begin(obs.as_ref(), "steal-k");
        banner("Ablation: steal-k-first parameter sweep (Bing workload)");
        let pts = steal_k::run(&steal_k::default_ks(), &[800.0, 1000.0, 1200.0], seed);
        reporter
            .emit("steal_k", &steal_k::table(&pts))
            .expect("csv write");
        println!("expected shape: larger k approaches OPT; k=0 degrades at high QPS");
    }
    if want("victim-ablation") {
        let _p = PhaseGuard::begin(obs.as_ref(), "victim-ablation");
        banner("Ablation: victim selection vs the Lemma 5.1 lower bound");
        let pts = victim_ablation::run(&[20, 40, 60, 80], 150_000, seed);
        reporter
            .emit("victim_ablation", &victim_ablation::table(&pts))
            .expect("csv write");
        println!("expected shape: random victims degrade ~m/10; scanning collapses to O(1)");
    }
    if want("equi") {
        let _p = PhaseGuard::begin(obs.as_ref(), "equi");
        banner("Ablation: EQUI (processor sharing) vs FIFO for max flow");
        let pts = equi_ablation::run(&[800.0, 1000.0, 1200.0], jobs_per_point().min(20_000), seed);
        reporter
            .emit("equi_ablation", &equi_ablation::table(&pts))
            .expect("csv write");
        println!("expected shape: EQUI's max-flow gap to FIFO grows with load");
    }
    if want("norms") {
        let _p = PhaseGuard::begin(obs.as_ref(), "norms");
        banner("Extension: l_k norms of flow time and maximum stretch");
        let pts = norms::run(jobs_per_point().min(20_000), seed);
        reporter
            .emit("norms", &norms::table(&pts))
            .expect("csv write");
    }
    if want("grain") {
        let _p = PhaseGuard::begin(obs.as_ref(), "grain");
        banner("Ablation: parallel-for chunk granularity (steal-16-first)");
        let pts = grain::run(
            &grain::default_grains(),
            1100.0,
            jobs_per_point().min(20_000),
            seed,
        );
        reporter
            .emit("grain", &grain::table(&pts))
            .expect("csv write");
        println!("expected shape: a U-curve — too-fine grains flood deques and delay admissions,");
        println!("too-coarse grains raise span; the sweet spot sits near ~1-3 ms chunks");
    }
    if want("burst") {
        let _p = PhaseGuard::begin(obs.as_ref(), "burst");
        banner("Robustness: bursty arrivals at fixed average load");
        let pts = burst::run(&burst::default_bursts(), jobs_per_point().min(20_000), seed);
        reporter
            .emit("burst", &burst::table(&pts))
            .expect("csv write");
        println!("expected shape: everyone degrades with burst size; admit-first fastest");
    }
    if want("scaling") {
        let _p = PhaseGuard::begin(obs.as_ref(), "scaling");
        banner("Extension: machine-size scaling at fixed 65% utilization (Bing)");
        let pts = scaling::run(&scaling::default_ms(), jobs_per_point().min(20_000), seed);
        reporter
            .emit("scaling", &scaling::table(&pts))
            .expect("csv write");
        println!("expected shape: steal-16 tracks OPT at every m; admit-first gap persists");
    }
    if want("variance") {
        let _p = PhaseGuard::begin(obs.as_ref(), "variance");
        banner("Extension: max-flow variance across seeds (w.h.p. in practice)");
        let pts = variance::run(1100.0, jobs_per_point().min(20_000), 10, seed);
        reporter
            .emit("variance", &variance::table(&pts))
            .expect("csv write");
    }
    if want("steal-amount") {
        let _p = PhaseGuard::begin(obs.as_ref(), "steal-amount");
        banner("Ablation: steal-one vs steal-half transfer granularity (unit-cost steals)");
        let pts = steal_amount::run(&[800.0, 1000.0, 1200.0], jobs_per_point().min(20_000), seed);
        reporter
            .emit("steal_amount", &steal_amount::table(&pts))
            .expect("csv write");
    }
    if want("weighted-ws") {
        let _p = PhaseGuard::begin(obs.as_ref(), "weighted-ws");
        banner("Extension: distributed BWF (weight-ordered admission) vs centralized BWF");
        let pts = weighted_ws::run(&[800.0, 1000.0, 1200.0], jobs_per_point().min(20_000), seed);
        reporter
            .emit("weighted_ws", &weighted_ws::table(&pts))
            .expect("csv write");
        println!("expected shape: weighted admission helps in backlog episodes, but");
        println!("preemptive BWF wins consistently; see module docs for the analysis");
    }
    if want("fault-resilience") {
        let _p = PhaseGuard::begin(obs.as_ref(), "fault-resilience");
        banner("Robustness: admit-first vs steal-16-first under injected faults (QPS 1000)");
        let pts = fault_resilience::run(&fault_resilience::default_levels(), 1000.0, seed);
        reporter
            .emit("fault_resilience", &fault_resilience::table(&pts))
            .expect("csv write");
        println!("expected shape: both policies degrade smoothly as workers crash/slow;");
        println!(
            "crashed deques are reinjected, so no completed job is lost — only panics fail jobs"
        );
    }
    if want("serve-soak") {
        let _p = PhaseGuard::begin(obs.as_ref(), "serve-soak");
        banner("Robustness: streaming admission service under sustained QPS (SLO soak)");
        // `--jobs` lifts the default cap: the supervisor streams its
        // source, so a 10M-job soak is wall-time-bound, not memory-bound.
        let soak_jobs = jobs_override
            .map(|j| j as usize)
            .unwrap_or_else(|| jobs_per_point().min(5_000));
        let pts = serve_soak::run_sized(&serve_soak::default_utils(), seed, soak_jobs);
        reporter
            .emit("serve_soak", &serve_soak::table(&pts))
            .expect("csv write");
        println!("expected shape: shed/reject rates rise past utilization 1.0, while the");
        println!("max virtual flow over admitted jobs stays under the SLO at every level");
    }
    if want("lemmas") {
        let _p = PhaseGuard::begin(obs.as_ref(), "lemmas");
        banner("Lemma audit: proof-level quantities measured on real schedules");
        let a = lemma_audit::run(jobs_per_point().min(10_000), seed);
        reporter
            .emit("lemma_audit", &lemma_audit::table(&a))
            .expect("csv write");
    }
    if want("backlog") {
        let _p = PhaseGuard::begin(obs.as_ref(), "backlog");
        banner("Diagnostic: backlog dynamics, admit-first vs steal-16-first (QPS 1200)");
        let pts = backlog::run(1200.0, jobs_per_point().min(20_000), seed);
        reporter
            .emit("backlog", &backlog::table(&pts))
            .expect("csv write");
        println!("mechanism: admit-first opens jobs eagerly (high live count, slow each);");
        println!("steal-16-first queues them and drains admitted jobs with parallelism");
    }
    if want("intervals") {
        let _p = PhaseGuard::begin(obs.as_ref(), "intervals");
        banner("Figure 1: interval decomposition of the max-flow job's trace");
        match intervals::run(jobs_per_point().min(20_000), seed, (1, 10)) {
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
                reporter
                    .emit("intervals", &intervals::table(&a))
                    .expect("csv write");
            }
            None => println!("empty instance"),
        }
    }

    if stream_mode {
        let _p = PhaseGuard::begin(obs.as_ref(), "stream-trajectory");
        let jobs = jobs_override.unwrap_or(1_000_000);
        banner(&format!(
            "Streaming trajectory (--stream): {jobs} Bing QPS-1000 jobs, O(active) memory"
        ));
        let spec = parflow_workloads::WorkloadSpec::paper_fig2(
            DistKind::Bing,
            1000.0,
            jobs_per_point(),
            seed,
        );
        let cfg = parflow_core::SimConfig::new(16).with_free_steals();
        let t = std::time::Instant::now();
        let run = parflow_bench::stream::run_stream_ws(
            &spec,
            &cfg,
            parflow_core::StealPolicy::StealKFirst { k: 16 },
            seed,
            jobs,
        )
        .unwrap_or_else(|e| usage_error(&format!("stream failed: {e}")));
        let wall = t.elapsed().as_secs_f64();
        let to_ms = 1000.0 / parflow_workloads::TICKS_PER_SECOND;
        println!(
            "streamed {} jobs in {:.1}s ({:.0} jobs/s, {:.2e} rounds/s)",
            run.summary.jobs,
            wall,
            run.summary.jobs as f64 / wall.max(1e-9),
            run.summary.total_rounds as f64 / wall.max(1e-9),
        );
        println!(
            "max flow {:.1} ms, mean {:.1} ms, ~p99 {:.1} ms ({} NaN excluded)",
            run.summary.max_flow.to_f64() * to_ms,
            run.flows.mean().unwrap_or(0.0) * to_ms,
            run.flows.quantile(0.99).unwrap_or(0.0) * to_ms,
            run.flows.nan(),
        );
        println!(
            "live OPT bound {:.1} ms -> ratio {:.2}",
            run.opt.combined_lower_bound().to_f64() * to_ms,
            run.competitive_ratio().unwrap_or(0.0),
        );
        println!(
            "retirement: {} retired, {} live high-water, {} slab slots \
             (reuse {:.1}%), {} cursor slots",
            run.summary.retire.jobs_retired,
            run.summary.retire.live_jobs_high_water,
            run.summary.retire.slab_slots,
            run.summary.retire.slab_reuse_ratio().unwrap_or(0.0) * 100.0,
            run.summary.retire.cursor_slots,
        );
        if let Some(kb) = parflow_bench::stream::peak_rss_kb() {
            println!("peak RSS {:.1} MB (VmHWM)", kb as f64 / 1024.0);
        }
    }

    if let (Some(path), Some(cell)) = (obs_json, obs.as_ref()) {
        banner("Observability report (--obs-json)");
        {
            let _p = PhaseGuard::begin(obs.as_ref(), "obs.engine_probe");
            let mut rec = cell.borrow_mut();
            probes::probe_observed(seed, jobs_per_point().min(2_000), &mut *rec);
        }
        {
            let _p = PhaseGuard::begin(obs.as_ref(), "obs.runtime_probe");
            let mut rec = cell.borrow_mut();
            probes::runtime_probe_observed(&mut *rec);
        }
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
