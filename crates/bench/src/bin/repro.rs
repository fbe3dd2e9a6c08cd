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
//! runs the mega-sweep harness (cluster → fan-out → aggregate)
//! instead of the named experiments; see `parflow_bench::sweep`.
//!
//! Flags: `--csv DIR` persists every table as CSV; `--list` enumerates
//! experiment names; `--obs-json PATH` times every experiment as an
//! observability phase, runs instrumented engine + runtime probes, and
//! writes the `parflow-obs` run report (counters, per-worker telemetry,
//! latency histograms, phase wall times). Flags and names mix in any
//! order; an unknown or repeated flag is a usage error before anything
//! runs. `--jobs N` is read only by `serve-soak`; given without it, it is
//! a usage error. The streaming trajectory is `parflow exec --stream
//! --jobs N`.
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
use std::cell::RefCell;

fn usage_error(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    eprintln!("usage: repro [--csv DIR] [--obs-json PATH] [--jobs N] [--list] [EXPERIMENT...]");
    std::process::exit(2);
}

/// The parsed invocation (everything but `sweep`, which has its own).
struct Cli {
    csv: Option<String>,
    obs_json: Option<String>,
    jobs: Option<u64>,
    list: bool,
    names: Vec<String>,
}

fn read_cli(raw: &[String]) -> Result<Cli, ArgError> {
    let flags = Args::parse(raw, &["list"])?;
    let cli = Cli {
        csv: flags.get("csv")?,
        obs_json: flags.get("obs-json")?,
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
    let want =
        |name: &str| cli.names.is_empty() || cli.names.iter().any(|a| a == name || a == "all");
    if cli.jobs.is_some() && !want("serve-soak") {
        usage_error("--jobs: only serve-soak reads it");
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
