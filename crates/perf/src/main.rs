//! `perf` — the benchmark's command line.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1    one run, one result line
//! perf run [--workload W] [--seed N] [--seconds S] [--passes P] [--trace] [--json OUT]
//! perf compare BASE.json NEW.json
//! perf list
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command invokes: it runs one
//! workload in this process and prints, as the last line of its standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `run` re-executes that form as one child process per
//! workload, so peak memory belongs to a workload alone, and collects the
//! result lines into passes.

use parflow_perf::compare::{compare, ResultSet};
use parflow_perf::spec::{self, Kind, MetricDecl};
use parflow_perf::{json, pass_json, result_set_json, run_one, sys, Opts, Scale};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: perf --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       perf run [--workload W] [--seed N] [--seconds S] [--passes P] [--trace] [--smoke] [--json OUT]
       perf compare BASE.json NEW.json
       perf list";

/// Environment mark on a process re-executed with the counting allocator,
/// so it does not re-execute again.
const REEXEC_MARK: &str = "PARFLOW_PERF_REEXEC";

struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    passes: u64,
    json: Option<String>,
}

fn parse_flags(args: &[String], trace_takes_value: bool) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        passes: 1,
        json: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => f.workload = Some(value("a workload name")?),
            "--seed" => {
                f.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative integer".to_string())?;
            }
            "--seconds" => {
                f.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
            }
            "--passes" => {
                f.passes = value("a count")?
                    .parse()
                    .ok()
                    .filter(|p| *p >= 1)
                    .ok_or("--passes needs a positive integer")?;
            }
            "--json" => f.json = Some(value("a file path")?),
            "--smoke" => f.smoke = true,
            "--trace" if trace_takes_value => {
                f.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace needs 0 or 1, got `{other}`")),
                };
            }
            "--trace" => f.trace = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(f)
}

/// One workload in this process; the result line goes last.
fn run_single(args: &[String]) -> Result<ExitCode, String> {
    let f = parse_flags(args, true)?;
    let workload = f.workload.ok_or("--workload is required")?;
    // Allocation metrics need the counting allocator, and end-to-end
    // numbers must never be taken with it: the traced run re-executes
    // itself from a build with the `alloc-count` feature.
    if f.trace && sys::alloc_count().is_none() && std::env::var_os(REEXEC_MARK).is_none() {
        let child = Command::new("cargo")
            .args(["run", "--release", "--quiet", "-p", "parflow-perf"])
            .args(["--features", "alloc-count", "--"])
            .args(args)
            .env(REEXEC_MARK, "1")
            .status();
        match child {
            Ok(status) => {
                return Ok(match status.code() {
                    Some(0) => ExitCode::SUCCESS,
                    _ => ExitCode::FAILURE,
                })
            }
            Err(e) => eprintln!("perf: no allocation counts, cannot run cargo: {e}"),
        }
    }
    let opts = Opts {
        workload,
        seed: f.seed,
        seconds: f.seconds,
        trace: f.trace,
        scale: if f.smoke { Scale::Smoke } else { Scale::Full },
    };
    let report = run_one(&opts)?;
    println!("# {}", sys::header());
    println!(
        "# workload {} seed {} trace {} ({} attempted, {} failed)",
        report.workload, report.seed, report.trace, report.tally.attempted, report.tally.failed
    );
    for m in &report.metrics {
        println!("{:<36} {:>20} {}", m.name, json::num(m.value), m.unit);
    }
    for note in &report.notes {
        println!("# {note}");
    }
    println!("{}", report.result_line());
    Ok(ExitCode::SUCCESS)
}

/// Every workload (or one), each in a child process, `--passes` times.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let f = parse_flags(args, false)?;
    let names: Vec<&str> = match &f.workload {
        Some(w) => vec![
            spec::workload(w)
                .ok_or_else(|| format!("unknown workload `{w}` (see `perf list`)"))?
                .name,
        ],
        None => spec::WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let header = sys::header();
    println!("# {header}");
    let mut passes = Vec::new();
    let mut all_correct = true;
    for pass in 0..f.passes {
        let seed = f.seed + pass;
        let mut results = Vec::new();
        for name in &names {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &f.seconds.to_string()])
                .args(["--trace", if f.trace { "1" } else { "0" }]);
            if f.smoke {
                cmd.arg("--smoke");
            }
            let out = cmd
                .output()
                .map_err(|e| format!("cannot run {name}: {e}"))?;
            // The child's own report (header, metrics by name, quartiles)
            // is passed through; its last line is the result.
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stdout = stdout.trim_end();
            let (report, line) = stdout.rsplit_once('\n').unwrap_or(("", stdout));
            let result = json::parse(line)
                .map_err(|e| format!("{name}: no result line ({e}); exit {}", out.status))?;
            let correct = result.get("correct") == Some(&json::Value::Bool(true));
            all_correct &= correct;
            println!("\n== {name} (seed {seed}) correct={correct}\n{report}");
            results.push((name.to_string(), line.to_string()));
        }
        passes.push(pass_json(seed, f.trace, &results));
    }
    if let Some(path) = &f.json {
        let doc = result_set_json(&header, f.seconds, &passes);
        std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("\n(results written to {path})");
    }
    println!("\"claim\": null");
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [base, new] = args else {
        return Err("compare needs two result files".to_string());
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| ResultSet::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let comparison = compare(&read(base)?, &read(new)?);
    print!("{}", comparison.render());
    Ok(if comparison.passes() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn list() {
    println!("workloads:");
    for w in spec::WORKLOADS {
        println!("  {:<14} {}", w.name, w.why);
    }
    let row = |m: &MetricDecl| {
        let kind = match m.kind {
            Kind::EndToEnd { bound } => format!("end-to-end, bound {bound:.2}"),
            Kind::Layer => "layer".to_string(),
            Kind::Exact => "exact".to_string(),
        };
        println!(
            "  {:<36} {:<7} {:<6} {:<22} -> {}",
            m.name,
            m.unit,
            m.better.name(),
            kind,
            m.moves
        );
    };
    println!("end-to-end metrics (untraced run):");
    spec::END_TO_END.iter().for_each(row);
    println!("per-layer metrics (traced run):");
    spec::PER_LAYER.iter().for_each(row);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run_all(rest),
        Some((cmd, rest)) if cmd == "compare" => compare_files(rest),
        Some((cmd, _)) if cmd == "list" => {
            list();
            Ok(ExitCode::SUCCESS)
        }
        Some((cmd, _)) if cmd.starts_with("--") => run_single(&args),
        _ => Err("expected a subcommand or --workload".to_string()),
    };
    outcome.unwrap_or_else(|msg| {
        eprintln!("perf: {msg}\n{USAGE}");
        ExitCode::from(2)
    })
}
