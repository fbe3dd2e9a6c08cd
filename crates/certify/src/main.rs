//! `parflow-certify` — certify recorded schedules from the command line.
//!
//! Three modes, all exiting non-zero on a violation so CI can gate on
//! them:
//!
//! * `golden` — replay the built-in golden suite (deterministic
//!   instances × engines × policies × speeds) and certify every trace;
//! * `cell` — generate one sweep-style workload cell and certify a full
//!   traced run of it (the sweep's own `--certify` does the same check
//!   in-process; this mode spot-checks the pipeline from the outside);
//! * `stream-summary FILE` — P5-check the text summary of a streaming
//!   run (`exec --stream` output): the reported max flow must dominate
//!   the live OPT bound. Values in the summary are rounded to 0.01 ms,
//!   so the comparison carries a half-ULP tolerance; the exact in-process
//!   check is `exec --stream --certify on`.

use std::process::ExitCode;

use parflow_certify::{certify_run, CertReport};
use parflow_core::{run_priority, run_worksteal, Fifo, SimConfig, StealPolicy};
use parflow_dag::{shapes, Instance, Job};
use parflow_obs::args::{ArgError, Args};
use parflow_time::Speed;
use parflow_workloads::{qps_for_utilization, DistKind, ShapeKind, WorkloadSpec};
use std::sync::Arc;

const USAGE: &str = "usage: parflow-certify <mode> [flags]

modes:
  golden
      certify the built-in golden suite: deterministic instances run
      through the centralized and work-stealing engines across policies,
      steal-cost models and speeds
  cell --dist bing|finance|lognormal --util F --m N --jobs N --seed S
       --policy fifo|admit|steal:K [--eps A/B]
      generate one sweep-style cell (ParallelFor shape, Poisson arrivals,
      free steals — the sweep's own engine configuration) and certify a
      traced run of it
  stream-summary FILE
      P5-check the `exec --stream` text summary in FILE: reported max
      flow must dominate the live OPT bound (tolerance: the summary's
      0.01 ms rounding)

exit status: 0 clean, 1 violation, 2 usage/input error";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("golden") => golden(),
        Some("cell") => cell(&args[1..]),
        Some("stream-summary") => stream_summary(&args[1..]),
        Some("--help") | Some("-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => Err(format!("missing or unknown mode\n{USAGE}")),
    };
    match result {
        Ok(reports) => {
            let mut clean = true;
            for (label, report) in &reports {
                println!("{label}: {}", report.render());
                clean &= report.is_clean();
            }
            if clean {
                println!("parflow-certify: {} run(s), all clean", reports.len());
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("parflow-certify: {e}");
            ExitCode::from(2)
        }
    }
}

/// The deterministic golden instances: mixed DAG shapes, staggered
/// arrivals, weights — small enough to replay in milliseconds, varied
/// enough to exercise every invariant path.
fn golden_instances() -> Vec<(&'static str, Instance)> {
    let mixed = Instance::new(vec![
        Job::new(0, 0, Arc::new(shapes::chain(4, 2))),
        Job::new(1, 1, Arc::new(shapes::fork_join(3, 2))),
        Job::weighted(2, 7, 3, Arc::new(shapes::parallel_for(12, 3))),
        Job::new(3, 40, Arc::new(shapes::single_node(6))),
    ]);
    let bursty = Instance::new(
        (0..12u32)
            .map(|i| {
                let arrival = (i / 4) as u64 * 25;
                Job::new(i, arrival, Arc::new(shapes::chain(3, 1)))
            })
            .collect(),
    );
    let generated = WorkloadSpec {
        dist: DistKind::Bing,
        shape: ShapeKind::ParallelFor { grain: 10 },
        qps: Some(qps_for_utilization(DistKind::Bing, 4, 0.7)),
        period_ticks: 0,
        n_jobs: 120,
        seed: 0x90_1d_e4,
    }
    .generate();
    vec![
        ("mixed", mixed),
        ("bursty", bursty),
        ("bing-0.7", generated),
    ]
}

/// Certify one traced run of every golden (instance × engine × policy ×
/// steal-cost × speed) combination.
fn golden() -> Result<Vec<(String, CertReport)>, String> {
    let mut reports = Vec::new();
    for (name, inst) in golden_instances() {
        for &m in &[2usize, 4] {
            for &speed in &[Speed::ONE, Speed::new(3, 2)] {
                let fifo_cfg = SimConfig::new(m).with_speed(speed).with_trace();
                let (result, trace) = run_priority(&inst, &fifo_cfg, &Fifo);
                reports.push((
                    format!("golden {name} m={m} s={}/{} fifo", speed.num(), speed.den()),
                    certify_trace(&inst, &fifo_cfg, None, &result, trace)?,
                ));
                for policy in [StealPolicy::AdmitFirst, StealPolicy::StealKFirst { k: 3 }] {
                    for free in [false, true] {
                        let mut cfg = SimConfig::new(m).with_speed(speed).with_trace();
                        if free {
                            cfg = cfg.with_free_steals();
                        }
                        let (result, trace) = run_worksteal(&inst, &cfg, policy, 0xC0FFEE);
                        reports.push((
                            format!(
                                "golden {name} m={m} s={}/{} {} steals={}",
                                speed.num(),
                                speed.den(),
                                match policy {
                                    StealPolicy::AdmitFirst => "admit".to_string(),
                                    StealPolicy::StealKFirst { k } => format!("steal:{k}"),
                                },
                                if free { "free" } else { "unit" },
                            ),
                            certify_trace(&inst, &cfg, Some(policy), &result, trace)?,
                        ));
                    }
                }
            }
        }
    }
    Ok(reports)
}

fn certify_trace(
    inst: &Instance,
    cfg: &SimConfig,
    policy: Option<StealPolicy>,
    result: &parflow_core::SimResult,
    trace: Option<parflow_core::ScheduleTrace>,
) -> Result<CertReport, String> {
    let trace = trace.ok_or_else(|| "engine did not record a trace".to_string())?;
    Ok(certify_run(inst, cfg, policy, result, &trace))
}

/// `cell` mode: mirror the sweep's materialized per-cell configuration
/// (ParallelFor grain 10, Poisson arrivals at a target utilization, free
/// steals) and certify a traced run.
fn cell(args: &[String]) -> Result<Vec<(String, CertReport)>, String> {
    let usage = |e: ArgError| format!("{e}\n{USAGE}");
    let flags = Args::parse(args, &[]).map_err(usage)?;
    let dist = flags.get_or("dist", DistKind::Bing).map_err(usage)?;
    let util = flags.get_or("util", 0.6f64).map_err(usage)?;
    let m = flags.get_or("m", 2usize).map_err(usage)?;
    let jobs = flags.get_or("jobs", 200usize).map_err(usage)?;
    let seed = flags.get_or("seed", 42u64).map_err(usage)?;
    let policy = flags.get_or("policy", "admit".to_string()).map_err(usage)?;
    // `fifo` is the centralized control; anything else must name a
    // work-stealing policy.
    let steal = match policy.as_str() {
        "fifo" => None,
        _ => flags.get::<StealPolicy>("policy").map_err(usage)?,
    };
    let speed = match flags.get::<String>("eps").map_err(usage)? {
        Some(eps) => {
            let (num, den) = Speed::parse_eps(&eps).map_err(|e| format!("--eps wants A/B: {e}"))?;
            Speed::augmented(num, den)
        }
        None => Speed::ONE,
    };
    flags.finish().map_err(usage)?;
    // NaN must be rejected too, and so must a load whose arrival rate is
    // not a finite number.
    let bad = || "cell wants --m >= 1, --jobs >= 1, finite --util > 0".to_string();
    if m == 0 || jobs == 0 || util.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(bad());
    }
    let qps = qps_for_utilization(dist, m, util);
    if !qps.is_finite() {
        return Err(bad());
    }
    let spec = WorkloadSpec {
        dist,
        shape: ShapeKind::ParallelFor { grain: 10 },
        qps: Some(qps),
        period_ticks: 0,
        n_jobs: jobs,
        seed,
    };
    let inst = spec.generate();
    let label = format!("cell util={util} m={m} jobs={jobs} policy={policy}");
    let report = match steal {
        None => {
            let cfg = SimConfig::new(m).with_speed(speed).with_trace();
            let (result, trace) = run_priority(&inst, &cfg, &Fifo);
            certify_trace(&inst, &cfg, None, &result, trace)?
        }
        Some(steal) => {
            let cfg = SimConfig::new(m)
                .with_speed(speed)
                .with_free_steals()
                .with_trace();
            let (result, trace) = run_worksteal(&inst, &cfg, steal, seed);
            certify_trace(&inst, &cfg, Some(steal), &result, trace)?
        }
    };
    Ok(vec![(label, report)])
}

/// `stream-summary` mode: extract "max flow X ms" and "live OPT bound
/// Y ms" from an `exec --stream` summary and require X ≥ Y − tolerance,
/// where the tolerance covers the summary's two-decimal rounding.
fn stream_summary(args: &[String]) -> Result<Vec<(String, CertReport)>, String> {
    let path = args
        .first()
        .ok_or_else(|| format!("stream-summary needs a file\n{USAGE}"))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let max_flow = leading_number_after(&text, "max flow ")
        .ok_or_else(|| format!("no `max flow X ms` line in `{path}`"))?;
    let opt = leading_number_after(&text, "live OPT bound ")
        .ok_or_else(|| format!("no `live OPT bound X ms` line in `{path}`"))?;
    // Both values were rounded to 0.01 ms independently; only a gap the
    // rounding cannot explain is a genuine P5 violation.
    let tolerance = 0.011;
    let mut report = CertReport {
        checked: "P5 only".to_string(),
        ..CertReport::default()
    };
    if opt - max_flow > tolerance {
        report.violation = Some(parflow_certify::Violation {
            invariant: parflow_certify::Invariant::LowerBound,
            round: None,
            worker: None,
            job: None,
            message: format!("summary max flow {max_flow} ms beats the live OPT bound {opt} ms"),
        });
    }
    Ok(vec![(format!("stream-summary {path}"), report)])
}

/// The first `f64` right after `needle` in `text` (e.g. `"max flow "` →
/// `12.34` from `"max flow 12.34 ms"`).
fn leading_number_after(text: &str, needle: &str) -> Option<f64> {
    let idx = text.find(needle)? + needle.len();
    let rest = &text[idx..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
