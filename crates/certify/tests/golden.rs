//! The golden certification suite: deterministic instances run through
//! the centralized and work-stealing engines across policies, steal-cost
//! models and speeds, every trace certified clean. Each run's
//! `(rounds, units, jobs)` coverage is frozen, so a replay that skips or
//! double-counts a span's rounds or units fails here even when it stays
//! clean. Generated workloads are certified in the process
//! that ran them: `parflow sweep --certify` and `parflow exec --stream
//! --certify`.

use parflow_certify::certify_run;
use parflow_core::{run_priority, run_worksteal, Fifo, SimConfig, StealPolicy};
use parflow_dag::{shapes, Instance, Job};
use parflow_time::Speed;
use parflow_workloads::{qps_for_utilization, DistKind, ShapeKind, WorkloadSpec};
use std::sync::Arc;

/// `(label, (rounds, units, jobs))` of every golden run, in run order.
const FROZEN: [(&str, (u64, u64, usize)); 60] = [
    ("mixed m=2 s=1/1 fifo", (46, 58, 4)),
    ("mixed m=2 s=1/1 admit steals=unit", (46, 58, 4)),
    ("mixed m=2 s=1/1 admit steals=free", (46, 58, 4)),
    ("mixed m=2 s=1/1 steal:3 steals=unit", (46, 58, 4)),
    ("mixed m=2 s=1/1 steal:3 steals=free", (46, 58, 4)),
    ("mixed m=2 s=3/2 fifo", (66, 58, 4)),
    ("mixed m=2 s=3/2 admit steals=unit", (66, 58, 4)),
    ("mixed m=2 s=3/2 admit steals=free", (66, 58, 4)),
    ("mixed m=2 s=3/2 steal:3 steals=unit", (66, 58, 4)),
    ("mixed m=2 s=3/2 steal:3 steals=free", (66, 58, 4)),
    ("mixed m=4 s=1/1 fifo", (46, 58, 4)),
    ("mixed m=4 s=1/1 admit steals=unit", (46, 58, 4)),
    ("mixed m=4 s=1/1 admit steals=free", (46, 58, 4)),
    ("mixed m=4 s=1/1 steal:3 steals=unit", (46, 58, 4)),
    ("mixed m=4 s=1/1 steal:3 steals=free", (46, 58, 4)),
    ("mixed m=4 s=3/2 fifo", (66, 58, 4)),
    ("mixed m=4 s=3/2 admit steals=unit", (66, 58, 4)),
    ("mixed m=4 s=3/2 admit steals=free", (66, 58, 4)),
    ("mixed m=4 s=3/2 steal:3 steals=unit", (66, 58, 4)),
    ("mixed m=4 s=3/2 steal:3 steals=free", (66, 58, 4)),
    ("bursty m=2 s=1/1 fifo", (56, 36, 12)),
    ("bursty m=2 s=1/1 admit steals=unit", (56, 36, 12)),
    ("bursty m=2 s=1/1 admit steals=free", (56, 36, 12)),
    ("bursty m=2 s=1/1 steal:3 steals=unit", (59, 36, 12)),
    ("bursty m=2 s=1/1 steal:3 steals=free", (56, 36, 12)),
    ("bursty m=2 s=3/2 fifo", (81, 36, 12)),
    ("bursty m=2 s=3/2 admit steals=unit", (81, 36, 12)),
    ("bursty m=2 s=3/2 admit steals=free", (81, 36, 12)),
    ("bursty m=2 s=3/2 steal:3 steals=unit", (84, 36, 12)),
    ("bursty m=2 s=3/2 steal:3 steals=free", (81, 36, 12)),
    ("bursty m=4 s=1/1 fifo", (53, 36, 12)),
    ("bursty m=4 s=1/1 admit steals=unit", (53, 36, 12)),
    ("bursty m=4 s=1/1 admit steals=free", (53, 36, 12)),
    ("bursty m=4 s=1/1 steal:3 steals=unit", (53, 36, 12)),
    ("bursty m=4 s=1/1 steal:3 steals=free", (53, 36, 12)),
    ("bursty m=4 s=3/2 fifo", (78, 36, 12)),
    ("bursty m=4 s=3/2 admit steals=unit", (78, 36, 12)),
    ("bursty m=4 s=3/2 admit steals=free", (78, 36, 12)),
    ("bursty m=4 s=3/2 steal:3 steals=unit", (78, 36, 12)),
    ("bursty m=4 s=3/2 steal:3 steals=free", (78, 36, 12)),
    ("bing-0.7 m=2 s=1/1 fifo", (5902, 11790, 120)),
    ("bing-0.7 m=2 s=1/1 admit steals=unit", (5904, 11790, 120)),
    ("bing-0.7 m=2 s=1/1 admit steals=free", (5898, 11790, 120)),
    ("bing-0.7 m=2 s=1/1 steal:3 steals=unit", (6352, 11790, 120)),
    ("bing-0.7 m=2 s=1/1 steal:3 steals=free", (5902, 11790, 120)),
    ("bing-0.7 m=2 s=3/2 fifo", (7078, 11790, 120)),
    ("bing-0.7 m=2 s=3/2 admit steals=unit", (7077, 11790, 120)),
    ("bing-0.7 m=2 s=3/2 admit steals=free", (7074, 11790, 120)),
    ("bing-0.7 m=2 s=3/2 steal:3 steals=unit", (7336, 11790, 120)),
    ("bing-0.7 m=2 s=3/2 steal:3 steals=free", (7078, 11790, 120)),
    ("bing-0.7 m=4 s=1/1 fifo", (4663, 11790, 120)),
    ("bing-0.7 m=4 s=1/1 admit steals=unit", (4663, 11790, 120)),
    ("bing-0.7 m=4 s=1/1 admit steals=free", (4663, 11790, 120)),
    ("bing-0.7 m=4 s=1/1 steal:3 steals=unit", (4663, 11790, 120)),
    ("bing-0.7 m=4 s=1/1 steal:3 steals=free", (4663, 11790, 120)),
    ("bing-0.7 m=4 s=3/2 fifo", (6984, 11790, 120)),
    ("bing-0.7 m=4 s=3/2 admit steals=unit", (6984, 11790, 120)),
    ("bing-0.7 m=4 s=3/2 admit steals=free", (6984, 11790, 120)),
    ("bing-0.7 m=4 s=3/2 steal:3 steals=unit", (6984, 11790, 120)),
    ("bing-0.7 m=4 s=3/2 steal:3 steals=free", (6984, 11790, 120)),
];

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

#[test]
fn golden_runs_certify_clean_with_frozen_coverage() {
    let mut runs = Vec::new();
    for (name, inst) in golden_instances() {
        for &m in &[2usize, 4] {
            for &speed in &[Speed::ONE, Speed::new(3, 2)] {
                let label =
                    |what: &str| format!("{name} m={m} s={}/{} {what}", speed.num(), speed.den());
                let cfg = SimConfig::new(m).with_speed(speed).with_trace();
                let (result, trace) = run_priority(&inst, &cfg, &Fifo);
                let trace = trace.expect("trace requested");
                runs.push((
                    label("fifo"),
                    certify_run(&inst, &cfg, None, &result, &trace),
                ));
                for policy in [StealPolicy::AdmitFirst, StealPolicy::StealKFirst { k: 3 }] {
                    for free in [false, true] {
                        let mut cfg = SimConfig::new(m).with_speed(speed).with_trace();
                        if free {
                            cfg = cfg.with_free_steals();
                        }
                        let (result, trace) = run_worksteal(&inst, &cfg, policy, 0xC0FFEE);
                        let trace = trace.expect("trace requested");
                        let policy_name = match policy {
                            StealPolicy::AdmitFirst => "admit".to_string(),
                            StealPolicy::StealKFirst { k } => format!("steal:{k}"),
                        };
                        let steals = if free { "free" } else { "unit" };
                        runs.push((
                            label(&format!("{policy_name} steals={steals}")),
                            certify_run(&inst, &cfg, Some(policy), &result, &trace),
                        ));
                    }
                }
            }
        }
    }
    assert_eq!(runs.len(), FROZEN.len());
    for ((label, report), (frozen_label, coverage)) in runs.iter().zip(FROZEN) {
        assert_eq!(label, frozen_label);
        assert!(report.is_clean(), "{label}: {}", report.render());
        assert!(report.render().ends_with("; P1-P5)"), "{label}");
        let got = (report.rounds, report.units, report.jobs);
        assert_eq!(got, coverage, "{label}: (rounds, units, jobs)");
    }
}
