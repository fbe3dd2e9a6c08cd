//! End-to-end fault-injection coverage: the same `FaultPlan` vocabulary
//! drives both engines, and every fault path — injected task panics, worker
//! crashes with orphan reinjection, stalls, and watchdog aborts — is
//! exercised deterministically here.
//!
//! Simulator assertions are exact (the discrete engine is deterministic by
//! construction); runtime assertions check statuses and event kinds, never
//! wall-clock values, so they hold on loaded CI machines too.

use parflow::core::{FaultKind, FaultPlan, JobStatus, PPM};
use parflow::prelude::*;
use parflow::runtime::{
    run_workload, try_run_workload, JobSpec, RtPolicy, RuntimeConfig, NS_PER_TICK,
};
use std::sync::Arc;
use std::time::Duration;

/// A small deterministic instance: `n` parallel-for jobs arriving every
/// `gap` ticks.
fn small_instance(n: usize, work: u64, width: usize, gap: u64) -> Instance {
    let dag = Arc::new(shapes::parallel_for(work, width));
    let jobs = (0..n)
        .map(|i| Job::new(i as u32, i as u64 * gap, dag.clone()))
        .collect();
    Instance::new(jobs)
}

// ---------------------------------------------------------------------------
// Simulator paths
// ---------------------------------------------------------------------------

#[test]
fn sim_crash_reinjects_orphans_and_completes_everything() {
    let inst = small_instance(12, 48, 8, 2);
    let cfg = SimConfig::new(4)
        .with_free_steals()
        .with_faults(FaultPlan::none().crash(0, 5).crash(1, 9));
    let r = simulate_worksteal(&inst, &cfg, StealPolicy::StealKFirst { k: 4 }, 7);

    assert!(
        r.all_completed(),
        "crashes must not lose work: {:?}",
        r.unfinished()
    );
    assert_eq!(r.stats.crashed_workers, 2);
    let crash_rounds: Vec<u64> = r
        .fault_events
        .iter()
        .filter(|e| e.kind == FaultKind::Crash)
        .map(|e| e.round)
        .collect();
    assert_eq!(
        crash_rounds,
        vec![5, 9],
        "crashes fire exactly at their scheduled rounds"
    );
    // Work the dead workers held was handed back through the global queue.
    assert_eq!(
        r.stats.reinjected_tasks > 0,
        r.fault_events
            .iter()
            .any(|e| e.kind == FaultKind::OrphanReinjection)
    );
}

#[test]
fn sim_full_panic_rate_fails_every_job() {
    let inst = small_instance(8, 24, 6, 3);
    let cfg = SimConfig::new(3)
        .with_free_steals()
        .with_faults(FaultPlan::none().with_panic_ppm(PPM));
    let r = simulate_worksteal(&inst, &cfg, StealPolicy::AdmitFirst, 11);

    assert_eq!(r.unfinished().len(), 8, "ppm = 1.0 should fail every job");
    assert!(r.outcomes.iter().all(|o| o.status == JobStatus::Failed));
    assert!(r.stats.injected_panics >= 8);
    assert!(r
        .fault_events
        .iter()
        .any(|e| e.kind == FaultKind::TaskPanic));
    // Failed jobs are excluded from the robustness objective.
    assert_eq!(r.max_completed_flow(), Rational::ZERO);
}

#[test]
fn sim_stall_delays_but_never_loses_work() {
    let inst = small_instance(10, 40, 8, 2);
    let healthy_cfg = SimConfig::new(2).with_free_steals();
    let stalled_cfg = SimConfig::new(2)
        .with_free_steals()
        .with_faults(FaultPlan::none().stall(0, 0, 200));
    let policy = StealPolicy::StealKFirst { k: 2 };
    let healthy = simulate_worksteal(&inst, &healthy_cfg, policy, 3);
    let stalled = simulate_worksteal(&inst, &stalled_cfg, policy, 3);

    assert!(stalled.all_completed());
    assert!(stalled.stats.faulted_steps >= 200 - 1);
    assert!(
        stalled.max_flow() >= healthy.max_flow(),
        "losing half the machine for 200 rounds cannot improve flow: {} < {}",
        stalled.max_flow(),
        healthy.max_flow()
    );
    let begins = stalled
        .fault_events
        .iter()
        .filter(|e| e.kind == FaultKind::StallBegin)
        .count();
    let ends = stalled
        .fault_events
        .iter()
        .filter(|e| e.kind == FaultKind::StallEnd)
        .count();
    assert_eq!((begins, ends), (1, 1));
}

#[test]
fn sim_fault_runs_are_deterministic() {
    let inst = small_instance(15, 32, 4, 1);
    let plan = FaultPlan::none()
        .crash(1, 20)
        .slowdown(2, 400_000)
        .stall(3, 5, 50)
        .with_panic_ppm(30_000);
    let cfg = SimConfig::new(5).with_free_steals().with_faults(plan);
    let policy = StealPolicy::StealKFirst { k: 8 };

    let a = simulate_worksteal(&inst, &cfg, policy, 99);
    let b = simulate_worksteal(&inst, &cfg, policy, 99);
    assert_eq!(
        a.outcomes, b.outcomes,
        "same seed, same plan => identical outcomes"
    );
    assert_eq!(a.fault_events, b.fault_events);
    assert_eq!(a.stats, b.stats);
}

// ---------------------------------------------------------------------------
// Runtime paths
// ---------------------------------------------------------------------------

#[test]
fn runtime_poisoned_job_fails_while_neighbours_complete() {
    // The acceptance scenario: a workload containing a job whose chunks all
    // panic still completes `run_workload` — no deadlock, no hung worker —
    // with exactly that job marked Failed.
    let workload = vec![
        (Duration::ZERO, JobSpec::split(40_000, 4)),
        (Duration::ZERO, JobSpec::poison(40_000, 4)),
        (Duration::from_millis(1), JobSpec::split(40_000, 4)),
    ];
    let cfg = RuntimeConfig::new(2, RtPolicy::AdmitFirst);
    let r = run_workload(&cfg, &workload);

    let statuses: Vec<JobStatus> = r.jobs.iter().map(|j| j.status).collect();
    assert_eq!(
        statuses,
        vec![
            JobStatus::Completed,
            JobStatus::Failed,
            JobStatus::Completed
        ]
    );
    assert!(!r.aborted);
    assert!(r.stats.task_panics >= 1);
    assert!(r
        .fault_events
        .iter()
        .any(|e| e.kind == FaultKind::TaskPanic && e.job == Some(1)));
    assert!(
        r.jobs[1].flow > Duration::ZERO,
        "time-to-failure is still recorded"
    );
}

#[test]
fn runtime_crashed_worker_hands_work_to_survivor() {
    let workload: Vec<(Duration, JobSpec)> = (0..6)
        .map(|_| (Duration::ZERO, JobSpec::split(30_000, 4)))
        .collect();
    let cfg = RuntimeConfig::new(2, RtPolicy::StealKFirst { k: 4 })
        .with_faults(FaultPlan::none().crash(0, 0));
    let r = try_run_workload(&cfg, &workload).expect("valid plan");

    assert!(
        r.all_completed(),
        "survivor must finish the crashed worker's share"
    );
    assert_eq!(r.jobs.len(), 6);
    assert!(r
        .fault_events
        .iter()
        .any(|e| e.kind == FaultKind::Crash && e.worker == Some(0)));
}

#[test]
fn runtime_stalled_worker_only_slows_the_run() {
    // Worker 1 stalls for ~5 ms (50 rounds of 0.1 ms); worker 0 keeps going,
    // so everything still completes and nothing aborts.
    let workload: Vec<(Duration, JobSpec)> = (0..4)
        .map(|_| (Duration::ZERO, JobSpec::split(20_000, 2)))
        .collect();
    let cfg = RuntimeConfig::new(2, RtPolicy::AdmitFirst)
        .with_faults(FaultPlan::none().stall(1, 0, 50))
        .with_deadline(Duration::from_secs(10));
    let r = try_run_workload(&cfg, &workload).expect("valid plan");

    assert!(r.all_completed());
    assert!(!r.aborted);
    assert!(r
        .fault_events
        .iter()
        .any(|e| e.kind == FaultKind::StallBegin));
}

#[test]
fn runtime_watchdog_aborts_a_wedged_machine() {
    // The only worker stalls effectively forever; with a 50 ms no-progress
    // deadline the watchdog must abort instead of hanging the test binary.
    let forever = u64::MAX / NS_PER_TICK;
    let workload = vec![(Duration::ZERO, JobSpec::split(10_000, 2))];
    let cfg = RuntimeConfig::new(1, RtPolicy::AdmitFirst)
        .with_faults(FaultPlan::none().stall(0, 0, forever))
        .with_deadline(Duration::from_millis(50));
    let r = try_run_workload(&cfg, &workload).expect("valid plan");

    assert!(r.aborted);
    assert!(r.jobs.iter().all(|j| j.status == JobStatus::Aborted));
    assert!(r.fault_events.iter().any(|e| e.kind == FaultKind::Abort));
    assert!(!r.all_completed());
}

#[test]
fn engines_share_one_fault_vocabulary() {
    // The same FaultPlan value configures both engines; a plan invalid for a
    // machine is rejected identically by both.
    let plan = FaultPlan::none().crash(3, 10);
    assert!(plan.validate(2).is_err());
    let cfg = RuntimeConfig::new(2, RtPolicy::AdmitFirst).with_faults(plan.clone());
    assert!(try_run_workload(&cfg, &[(Duration::ZERO, JobSpec::split(1_000, 1))]).is_err());
    // (The simulator rejects the same plan with a panic in run_worksteal.)
    assert!(
        plan.validate(4).is_ok(),
        "worker 3 exists on a 4-way machine"
    );
}

#[test]
#[should_panic(expected = "invalid fault plan")]
fn sim_rejects_out_of_range_plan() {
    let inst = small_instance(2, 8, 2, 1);
    let cfg = SimConfig::new(2).with_faults(FaultPlan::none().crash(3, 10));
    let _ = simulate_worksteal(&inst, &cfg, StealPolicy::AdmitFirst, 1);
}

// ---------------------------------------------------------------------------
// Plans that reach far into time: the simulator's round cap saturates and
// stalls are jumped, not stepped
// ---------------------------------------------------------------------------

/// The CLI's `simulate --m 2 --jobs 50 --qps 1000` workload (Bing, grain
/// 10, seed 42, free steals, admit-first).
fn cli_run(plan: FaultPlan) -> SimResult {
    let spec = WorkloadSpec {
        dist: DistKind::Bing,
        shape: parflow::workloads::ShapeKind::ParallelFor { grain: 10 },
        qps: Some(1000.0),
        period_ticks: 0,
        n_jobs: 50,
        seed: 42,
    };
    let cfg = SimConfig::new(2).with_free_steals().with_faults(plan);
    simulate_worksteal(&spec.generate(), &cfg, StealPolicy::AdmitFirst, 42)
}

#[test]
fn sim_stalls_reaching_the_end_of_time_do_not_wrap_the_round_cap() {
    // Both once panicked with "exceeded round cap": the cap's `+` chain
    // wrapped. Worker 1 is healthy, so every job completes.
    let end_of_time = FaultPlan::none().stall(0, 5, u64::MAX);
    let r = cli_run(end_of_time);
    assert!(r.all_completed(), "{:?}", r.unfinished());
    // A stall that never ends is a crash at its start: worker 0 held a
    // node in round 5, which its survivor now finishes.
    assert_eq!(r.stats.crashed_workers, 1);
    assert!(r.stats.reinjected_tasks > 0);
    let almost = FaultPlan::none().stall(0, 0, 18_446_744_073_709_551_000);
    let r = cli_run(almost);
    assert!(r.all_completed(), "{:?}", r.unfinished());
    assert_eq!(r.stats.crashed_workers, 0);
    // Worker 0 never acts: worker 1 did all the work.
    assert!(r.fault_events.iter().all(|e| e.worker == Some(0)));
}

#[test]
fn stalling_every_worker_forever_is_an_invalid_plan() {
    let plan = FaultPlan::none()
        .stall(0, 0, u64::MAX)
        .stall(1, 5, u64::MAX);
    let err = plan.validate(2).expect_err("nobody can ever make progress");
    assert!(err.contains("stalled forever"), "{err}");
    // One worker left standing is enough.
    assert!(FaultPlan::none().stall(0, 0, u64::MAX).validate(2).is_ok());
}

#[test]
fn sim_a_trillion_round_stall_is_jumped_to_its_analytic_outcome() {
    // One worker, stalled for 10^12 rounds: nothing runs before the stall
    // ends, then the jobs run back to back in arrival order (admit-first on
    // one worker is FIFO), so each job's flow is its stall-delayed FIFO
    // flow. Stepping it round by round took ~8 000 s.
    const STALL: u64 = 1_000_000_000_000;
    let inst = small_instance(5, 24, 3, 7);
    let cfg = SimConfig::new(1).with_faults(FaultPlan::none().stall(0, 0, STALL));
    let started = std::time::Instant::now();
    let r = simulate_worksteal(&inst, &cfg, StealPolicy::AdmitFirst, 3);
    assert!(started.elapsed().as_secs_f64() < 1.0);
    let mut finish = STALL - 1;
    for (o, job) in r.outcomes.iter().zip(inst.jobs()) {
        finish += job.work();
        assert_eq!(o.completion_round, finish, "job {}", o.job);
        assert_eq!(o.start_round, finish + 1 - job.work(), "job {}", o.job);
        assert_eq!(
            o.flow,
            Rational::from_int((finish + 1 - job.arrival) as i128)
        );
    }
    let kinds: Vec<FaultKind> = r.fault_events.iter().map(|e| e.kind).collect();
    assert_eq!(kinds, [FaultKind::StallBegin, FaultKind::StallEnd]);
    assert_eq!(r.fault_events[1].round, STALL);
    assert_eq!(r.stats.faulted_steps, STALL);
}
