//! Integration tests of the real work-stealing runtime: completion,
//! policy behaviour, and rough agreement with the simulator's qualitative
//! claims (kept loose — wall-clock results are machine-dependent).

use parflow::prelude::*;
use parflow::runtime::{run_workload, JobSpec, RtPolicy, RuntimeConfig};
use std::sync::Arc;
use std::time::Duration;

fn burst(n: usize, chunks: usize, iters: u64) -> Vec<(Duration, JobSpec)> {
    (0..n)
        .map(|_| {
            (
                Duration::ZERO,
                JobSpec {
                    chunks,
                    iters_per_chunk: iters,
                    shape: parflow::runtime::JobShape::Flat,
                },
            )
        })
        .collect()
}

#[test]
fn both_policies_complete_identical_work() {
    let workload = burst(24, 6, 5_000);
    for policy in [RtPolicy::AdmitFirst, RtPolicy::StealKFirst { k: 16 }] {
        let cfg = RuntimeConfig::new(4, policy);
        let r = run_workload(&cfg, &workload);
        assert_eq!(r.jobs.len(), 24);
        assert_eq!(r.stats.tasks_executed, 24 * 6);
        assert_eq!(r.stats.admissions, 24);
        assert!(r.jobs.iter().all(|j| j.flow > Duration::ZERO));
    }
}

#[test]
fn staggered_arrivals_lower_flow_than_burst() {
    // The threaded runs share the machine with whatever else runs, so their
    // wall-clock flows are not compared; their counted facts are exact.
    let cfg = RuntimeConfig::new(4, RtPolicy::AdmitFirst);
    let spread: Vec<(Duration, JobSpec)> = (0..24)
        .map(|i| {
            (
                Duration::from_millis(2 * i as u64),
                JobSpec::split(80_000, 4),
            )
        })
        .collect();
    for workload in [burst(24, 4, 20_000), spread] {
        let r = run_workload(&cfg, &workload);
        assert!(r.all_completed());
        assert_eq!(r.stats.tasks_executed, 24 * 4);
        assert_eq!(r.stats.admissions, 24);
    }

    // The same shape in the simulator, where flows are exact: spreading
    // arrivals out reduces queueing, so max flow drops (burst flow includes
    // waiting for ~23 earlier jobs).
    let instance = |gap: u64| {
        let dag = Arc::new(shapes::parallel_for(80, 4));
        Instance::new(
            (0..24)
                .map(|i| Job::new(i, gap * i as u64, Arc::clone(&dag)))
                .collect(),
        )
    };
    let max_flow = |inst: &Instance| {
        simulate_worksteal(inst, &SimConfig::new(4), StealPolicy::AdmitFirst, 1).max_flow()
    };
    let (bursty, relaxed) = (max_flow(&instance(0)), max_flow(&instance(25)));
    assert!(
        relaxed < bursty,
        "spread {relaxed} should beat burst {bursty}"
    );
}

#[test]
fn parallelism_distributes_chunks_of_wide_job() {
    // One job with 8 fat chunks on 4 workers: thieves must pick up chunks.
    // The wall-clock *speedup* assertion only makes sense with real cores,
    // so it is gated on the host's available parallelism (CI containers
    // are often single-core).
    let workload = vec![(Duration::ZERO, JobSpec::split(3_200_000, 8))];
    let multi = run_workload(&RuntimeConfig::new(4, RtPolicy::AdmitFirst), &workload);
    assert!(multi.stats.successful_steals > 0, "chunks should be stolen");
    assert_eq!(multi.stats.tasks_executed, 8);

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores >= 4 {
        let one = run_workload(&RuntimeConfig::new(1, RtPolicy::AdmitFirst), &workload);
        assert!(
            multi.max_flow() < one.max_flow(),
            "4 workers {:?} should beat 1 worker {:?} on a {cores}-core host",
            multi.max_flow(),
            one.max_flow()
        );
    }
}

#[test]
fn steal_counts_are_consistent() {
    let cfg = RuntimeConfig::new(4, RtPolicy::StealKFirst { k: 8 });
    let r = run_workload(&cfg, &burst(16, 8, 3_000));
    assert!(r.stats.successful_steals <= r.stats.steal_attempts);
}

#[test]
fn deterministic_task_counts_across_runs() {
    // Flow times vary run to run, but task/admission accounting must not.
    let cfg = RuntimeConfig::new(3, RtPolicy::AdmitFirst);
    let a = run_workload(&cfg, &burst(10, 5, 1_000));
    let b = run_workload(&cfg, &burst(10, 5, 1_000));
    assert_eq!(a.stats.tasks_executed, b.stats.tasks_executed);
    assert_eq!(a.stats.admissions, b.stats.admissions);
}
