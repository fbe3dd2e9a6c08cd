//! `parflow-certify` — certify recorded schedules from the command line.
//!
//! One mode, `golden`: replay the built-in golden suite (deterministic
//! instances × engines × policies × speeds) and certify every trace,
//! exiting non-zero on a violation so CI can gate on it. Generated
//! workloads are certified in the process that ran them: `parflow sweep
//! --certify` (P1–P5 on a traced run per instance group, P5 on streaming
//! cells) and `parflow exec --stream --certify` (P5, exact).

use std::process::ExitCode;

use parflow_certify::{certify_run, CertReport};
use parflow_core::{run_priority, run_worksteal, Fifo, SimConfig, StealPolicy};
use parflow_dag::{shapes, Instance, Job};
use parflow_time::Speed;
use parflow_workloads::{qps_for_utilization, DistKind, ShapeKind, WorkloadSpec};
use std::sync::Arc;

const USAGE: &str = "usage: parflow-certify golden

  certify the built-in golden suite: deterministic instances run through
  the centralized and work-stealing engines across policies, steal-cost
  models and speeds

exit status: 0 clean, 1 violation, 2 usage/input error";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("golden") => golden(),
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
