//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p parflow-bench --bin repro -- [EXPERIMENT...]
//! ```
//!
//! `repro --list` prints the experiment names (the
//! `parflow_bench::experiments::EXPERIMENTS` table, in run order); no name,
//! or `all`, runs every one.
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
//! `--jobs` is read only by `--stream` and `serve-soak`; given without
//! either it is a usage error.
//! Environment: `PARFLOW_JOBS=100000` for paper-scale runs, `PARFLOW_SEED`
//! to reseed, `PARFLOW_THREADS` to size the experiment-point thread pool,
//! each decimal or `0x` hex. Each is read once, before any experiment
//! runs; a value that does not parse, a zero job or thread count, or a
//! job count the grid experiments refuse (past the engines' `u32` job
//! ids) is a usage error naming the variable.

use parflow_bench::experiments::{banner, Ctx, EXPERIMENTS};
use parflow_bench::{probes, Reporter};
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

/// `--stream`: the streaming trajectory, `--jobs` (default 1M) Bing jobs.
fn stream_trajectory(c: &Ctx) {
    let jobs = c.jobs.unwrap_or(1_000_000);
    banner(&format!(
        "Streaming trajectory (--stream): {jobs} Bing QPS-1000 jobs, O(active) memory"
    ));
    let spec = parflow_workloads::WorkloadSpec::paper_fig2(
        DistKind::Bing,
        1000.0,
        c.jobs_per_point,
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
    // `--stream` with no experiment names runs only the streaming
    // trajectory (at `--jobs 10000000` the full suite would otherwise ride
    // along); with names it augments them (serve-soak honors `--jobs`).
    let stream_only = cli.stream && cli.names.is_empty();
    let want = |name: &str| {
        !stream_only && (cli.names.is_empty() || cli.names.iter().any(|a| a == name || a == "all"))
    };
    if cli.jobs.is_some() && !cli.stream && !want("serve-soak") {
        usage_error("--jobs: only --stream and serve-soak read it");
    }
    if cli.list {
        for (name, _) in EXPERIMENTS {
            println!("{name}");
        }
        return;
    }
    let mut ctx =
        Ctx::from_env(Reporter::stdout_only(), cli.jobs).unwrap_or_else(|e| usage_error(&e));
    if let Some(dir) = &cli.csv {
        ctx.reporter = Reporter::with_csv_dir(dir)
            .unwrap_or_else(|e| usage_error(&format!("cannot create csv directory `{dir}`: {e}")));
    }
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
            let jobs = ctx.jobs_per_point.min(2_000);
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
