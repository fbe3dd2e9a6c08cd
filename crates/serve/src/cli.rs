//! Command-line surface shared by the `parflow-serve` binary and the root
//! `parflow serve` subcommand.
//!
//! ```text
//! parflow-serve emit --n 300 --qps 2000 --dist bing --seed 42 > subs.jsonl
//! parflow-serve run  --input subs.jsonl --workers 2 --slo 5000 --digest-only
//! parflow-serve tcp  --addr 127.0.0.1:7070 --workers 4 --max-conns 1
//! ```
//!
//! `emit` renders a deterministic submission stream (the workloads crate's
//! [`parflow_workloads::JobSource`] under the hood) as jsonl; `run` replays jsonl from a file
//! or stdin (`--input -`); `tcp` serves live connections. All three are
//! plain functions returning the text they would print, so they are
//! unit-testable without process spawning. Flags follow the one grammar of
//! [`parflow_obs::args`]: `--key value`, bare `--digest-only`, and an
//! unknown or repeated flag is an error before the supervisor starts.

use crate::ingest::{run_jsonl, run_tcp_listener};
use crate::protocol::Submission;
use crate::supervisor::{FaultSpec, ServeConfig, Supervisor};
use parflow_obs::args::{ArgError, Args};
use parflow_runtime::RuntimeError;
use parflow_workloads::{DistKind, WorkloadSpec};

const USAGE: &str = "usage: parflow-serve <emit|run|tcp> [--flag value ...]\n\
  emit: --n N --qps QPS --dist bing|finance|lognormal --seed S [--poison-every K]\n\
  run:  --input PATH|- [--workers W --slots M --queue-cap Q --slo TICKS --seed S\n\
        --iters-per-unit I --chaos W:AFTER,.. --merged-json P --live-json P --digest-only]\n\
  tcp:  --addr HOST:PORT [--max-conns C + the run flags]";

/// A flag problem, with this command's usage under it.
fn usage(e: ArgError) -> RuntimeError {
    RuntimeError::Io(format!("{e}\n{USAGE}"))
}

fn parse(args: &[String]) -> Result<Args, RuntimeError> {
    Args::parse(args, &["digest-only"]).map_err(usage)
}

/// Dispatch one serve invocation; returns the text to print.
pub fn run(args: &[String]) -> Result<String, RuntimeError> {
    match args.first().map(String::as_str) {
        Some("emit") => emit(&args[1..]),
        Some("run") => run_replay(&args[1..]),
        Some("tcp") => run_tcp(&args[1..]),
        _ => Err(RuntimeError::Io(USAGE.to_string())),
    }
}

/// Deterministic jsonl stream from the endless [`JobSource`]: same flags,
/// same bytes, forever replayable.
///
/// [`JobSource`]: parflow_workloads::JobSource
fn emit(args: &[String]) -> Result<String, RuntimeError> {
    let flags = parse(args)?;
    let n: u64 = flags.get_or("n", 100).map_err(usage)?;
    let qps: f64 = flags.get_or("qps", 2000.0).map_err(usage)?;
    let seed: u64 = flags.get_or("seed", 42).map_err(usage)?;
    let poison_every: u64 = flags.get_or("poison-every", 0).map_err(usage)?;
    let dist = flags.get_or("dist", DistKind::Bing).map_err(usage)?;
    flags.finish().map_err(usage)?;
    if !(qps.is_finite() && qps > 0.0) {
        return Err(usage(ArgError {
            flag: "qps".into(),
            problem: format!("must be a finite positive rate, got {qps}"),
        }));
    }
    let spec = WorkloadSpec::paper_fig2(dist, qps, n as usize, seed);
    let mut source = spec.job_source();
    let mut out = String::new();
    for _ in 0..n {
        let job = source.next_job();
        let poison = poison_every > 0 && (job.index + 1).is_multiple_of(poison_every);
        out.push_str(
            &Submission {
                id: job.index,
                arrival: job.arrival,
                work: job.work,
                poison,
            }
            .to_jsonl(),
        );
        out.push('\n');
    }
    Ok(out)
}

/// How `run` / `tcp` report: read before the supervisor starts, used
/// after it finishes.
struct Reporting {
    merged_json: Option<String>,
    live_json: Option<String>,
    digest_only: bool,
}

/// Everything `run` and `tcp` share. This is the last look at the flags,
/// so it ends with the unknown-flag check.
fn run_flags(flags: &Args) -> Result<(ServeConfig, Reporting), ArgError> {
    let mut cfg = ServeConfig::new(flags.get_or("workers", 2)?);
    cfg.capacity_slots = flags.get_or("slots", cfg.capacity_slots)?;
    cfg.queue_cap = flags.get_or("queue-cap", cfg.queue_cap)?;
    cfg.seed = flags.get_or("seed", cfg.seed)?;
    cfg.iters_per_unit = flags.get_or("iters-per-unit", cfg.iters_per_unit)?;
    cfg.inbox_cap = flags.get_or("inbox-cap", cfg.inbox_cap)?;
    cfg.max_restarts = flags.get_or("max-restarts", cfg.max_restarts)?;
    cfg.slo_ticks = flags.get("slo")?;
    if let Some(chaos) = flags.get::<String>("chaos")? {
        cfg.faults = FaultSpec::parse_list(&chaos).map_err(|problem| ArgError {
            flag: "chaos".into(),
            problem,
        })?;
    }
    let reporting = Reporting {
        merged_json: flags.get("merged-json")?,
        live_json: flags.get("live-json")?,
        digest_only: flags.flag("digest-only"),
    };
    flags.finish()?;
    Ok((cfg, reporting))
}

/// Finish the supervisor and render per the reporting flags.
fn report_out(sup: Supervisor, how: &Reporting) -> Result<String, RuntimeError> {
    let report = sup.finish();
    for (path, part) in [
        (&how.merged_json, &report.merged),
        (&how.live_json, &report.live),
    ] {
        if let Some(path) = path {
            std::fs::write(path, part.to_json())
                .map_err(|e| RuntimeError::Io(format!("cannot write `{path}`: {e}")))?;
        }
    }
    if how.digest_only {
        Ok(format!("{}\n", report.digest))
    } else {
        Ok(format!("{}\n", report.summary()))
    }
}

fn required(flags: &Args, key: &str) -> Result<String, RuntimeError> {
    flags
        .get(key)
        .map_err(usage)?
        .ok_or_else(|| RuntimeError::Io(format!("missing required flag --{key}")))
}

/// Replay jsonl from a file or stdin through a fresh supervisor.
fn run_replay(args: &[String]) -> Result<String, RuntimeError> {
    let flags = parse(args)?;
    let input = required(&flags, "input")?;
    let (cfg, reporting) = run_flags(&flags).map_err(usage)?;
    let mut sup = Supervisor::new(cfg)?;
    if input == "-" {
        run_jsonl(&mut sup, std::io::stdin().lock())?;
    } else {
        let file = std::fs::File::open(&input)
            .map_err(|e| RuntimeError::Io(format!("cannot open `{input}`: {e}")))?;
        run_jsonl(&mut sup, std::io::BufReader::new(file))?;
    };
    report_out(sup, &reporting)
}

/// Live mode: bind, serve `--max-conns` connections, then report.
fn run_tcp(args: &[String]) -> Result<String, RuntimeError> {
    let flags = parse(args)?;
    let addr = required(&flags, "addr")?;
    let max_conns: usize = flags.get_or("max-conns", 1).map_err(usage)?;
    let (cfg, reporting) = run_flags(&flags).map_err(usage)?;
    let listener = std::net::TcpListener::bind(&addr)
        .map_err(|e| RuntimeError::Io(format!("cannot bind `{addr}`: {e}")))?;
    let mut sup = Supervisor::new(cfg)?;
    run_tcp_listener(&mut sup, &listener, max_conns)?;
    report_out(sup, &reporting)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn emit_is_deterministic_and_parseable() {
        let a = run(&argv("emit --n 50 --qps 1500 --seed 7")).expect("emit");
        let b = run(&argv("emit --n 50 --qps 1500 --seed 7")).expect("emit");
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 50);
        for line in a.lines() {
            crate::protocol::parse_submission(line).expect("emitted line parses");
        }
        let c = run(&argv("emit --n 50 --qps 1500 --seed 8")).expect("emit");
        assert_ne!(a, c, "seed must matter");
    }

    #[test]
    fn emit_rejects_a_rate_that_is_not_finite_and_positive() {
        for qps in ["0", "-5", "nan", "inf"] {
            let err = run(&argv(&format!("emit --n 5 --qps {qps}"))).unwrap_err();
            assert!(err.to_string().contains("--qps: must be"), "{qps}: {err}");
        }
    }

    #[test]
    fn emit_poison_every() {
        let out = run(&argv("emit --n 10 --seed 1 --poison-every 3")).expect("emit");
        let poisoned = out.lines().filter(|l| l.contains("\"poison\"")).count();
        assert_eq!(poisoned, 3);
    }

    #[test]
    fn replay_digest_is_stable_across_worker_counts() {
        let stream = run(&argv("emit --n 40 --qps 2000 --seed 5")).expect("emit");
        let path = std::env::temp_dir().join("parflow_serve_cli_test.jsonl");
        std::fs::write(&path, &stream).expect("write stream");
        let base = format!(
            "run --input {} --seed 9 --iters-per-unit 1 --digest-only",
            path.display()
        );
        let d1 = run(&argv(&format!("{base} --workers 1"))).expect("run w1");
        let d2 = run(&argv(&format!("{base} --workers 2"))).expect("run w2");
        assert_eq!(d1, d2);
        assert_eq!(d1.trim().len(), 16);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_and_repeated_flags_fail_with_this_commands_usage() {
        for (cmd, names) in [
            ("emit --n 2 --qsp 5", "--qsp: unknown flag"),
            ("emit --n 2 --n 3", "--n: given more than once"),
            (
                "run --input missing.jsonl --worker 2",
                "--worker: unknown flag",
            ),
            ("run --input a.jsonl --input b.jsonl", "--input: given"),
            (
                "run --input missing.jsonl stray",
                "unexpected argument 'stray'",
            ),
            (
                "tcp --addr 127.0.0.1:0 --max-conn 1",
                "--max-conn: unknown flag",
            ),
            ("tcp --addr 127.0.0.1:0 --addr 127.0.0.1:0", "--addr: given"),
        ] {
            let Err(RuntimeError::Io(msg)) = run(&argv(cmd)) else {
                panic!("{cmd}: must fail");
            };
            assert!(
                msg.starts_with(names) && msg.ends_with(USAGE),
                "{cmd}: {msg}"
            );
        }
        // `--seed -5` is a (bad) value, not a missing one; `--input -` is stdin.
        let Err(RuntimeError::Io(msg)) = run(&argv("emit --seed -5")) else {
            panic!("negative seed must fail");
        };
        assert!(msg.starts_with("--seed: bad value '-5'"), "{msg}");
    }

    #[test]
    fn bad_usage_is_an_io_error() {
        assert!(matches!(run(&argv("bogus")), Err(RuntimeError::Io(_))));
        assert!(matches!(run(&argv("run")), Err(RuntimeError::Io(_))));
        assert!(matches!(
            run(&argv("run --input missing.jsonl --chaos nope")),
            Err(RuntimeError::Io(_))
        ));
    }
}
