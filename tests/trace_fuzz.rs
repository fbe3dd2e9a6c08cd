//! Failure injection: corrupt real schedule traces in targeted ways and
//! assert the independent validator catches every corruption. This guards
//! the guard — a validator that silently accepts broken schedules would
//! void all the property tests built on it.
//!
//! Traces store runs of equal rows and idle stretches run-length
//! encoded, so corruptions are applied to the dense expansion and
//! re-encoded with [`ScheduleTrace::from_dense`] — which also exercises
//! that round trip. The last test holds the encoding itself to its
//! expansion: the reference engines' rows, and the verdicts of
//! `validate` and `certify_run`, clean and after each corruption, to
//! those of the per-unit oracle on the dense rows.

#[path = "../crates/certify/tests/oracle/mod.rs"]
mod oracle;

use parflow::core::{
    run_priority, run_priority_reference, run_worksteal, run_worksteal_reference, Action, Fifo,
    JobPriority, Lifo, ScheduleTrace, ShortestJobFirst, SimConfig, SimResult, StealPolicy,
};
use parflow::prelude::*;
use parflow_certify::certify_run;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn traced_run(seed: u64) -> (Instance, parflow::core::ScheduleTrace) {
    let inst = WorkloadSpec::paper_fig2(DistKind::Bing, 2000.0, 40, seed).generate();
    let (_, trace) = run_worksteal(
        &inst,
        &SimConfig::new(3).with_trace(),
        StealPolicy::StealKFirst { k: 2 },
        seed,
    );
    (inst, trace.unwrap())
}

/// Rebuild a trace from mutated dense rows, keeping `m` and speed.
fn reencode(
    t: &parflow::core::ScheduleTrace,
    rows: Vec<Vec<Action>>,
) -> parflow::core::ScheduleTrace {
    parflow::core::ScheduleTrace::from_dense(t.m, t.speed, rows).expect("m-wide rows")
}

/// Indices of all Work actions in the dense rows.
fn work_positions(rows: &[Vec<Action>]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (r, row) in rows.iter().enumerate() {
        for (p, a) in row.iter().enumerate() {
            if matches!(a, Action::Work { .. }) {
                out.push((r, p));
            }
        }
    }
    out
}

#[test]
fn dropping_any_work_unit_is_caught() {
    for seed in [1u64, 2, 3] {
        let (inst, trace) = traced_run(seed);
        assert_eq!(trace.validate(&inst), Ok(()));
        let dense = trace.to_dense();
        let positions = work_positions(&dense);
        let mut rng = SmallRng::seed_from_u64(seed);
        // Drop 10 random work units; each must break work conservation.
        for _ in 0..10 {
            let (r, p) = positions[rng.gen_range(0..positions.len())];
            let mut rows = dense.clone();
            rows[r][p] = Action::Idle;
            let corrupted = reencode(&trace, rows);
            assert!(
                corrupted.validate(&inst).is_err(),
                "dropping work at round {r} proc {p} must be detected"
            );
        }
    }
}

#[test]
fn duplicating_work_after_completion_is_caught() {
    for seed in [4u64, 5] {
        let (inst, trace) = traced_run(seed);
        let mut rows = trace.to_dense();
        let positions = work_positions(&rows);
        // Re-execute the LAST work action of the trace in an appended round:
        // that node is already complete, so this must over-execute.
        let &(r, p) = positions.last().unwrap();
        let dup = rows[r][p];
        let mut row = vec![Action::Idle; trace.m];
        row[0] = dup;
        rows.push(row);
        assert!(
            reencode(&trace, rows).validate(&inst).is_err(),
            "duplicated terminal work unit must be detected"
        );
    }
}

#[test]
fn retargeting_to_unknown_job_is_caught() {
    let (inst, trace) = traced_run(7);
    let mut rows = trace.to_dense();
    let positions = work_positions(&rows);
    let (r, p) = positions[positions.len() / 2];
    rows[r][p] = Action::Work {
        job: inst.len() as u32 + 5,
        node: 0,
    };
    assert!(reencode(&trace, rows).validate(&inst).is_err());
}

#[test]
fn moving_work_before_arrival_is_caught() {
    // Find a job that arrives late, then prepend a round executing it at
    // time zero.
    let (inst, trace) = traced_run(11);
    let late_job = inst
        .jobs()
        .iter()
        .find(|j| j.arrival > 2)
        .expect("some job arrives after tick 2");
    let mut rows = trace.to_dense();
    let mut row = vec![Action::Idle; trace.m];
    row[0] = Action::Work {
        job: late_job.id,
        node: late_job.dag.sources()[0],
    };
    rows.insert(0, row);
    // The prepended unit runs before the job arrived (and the trace now
    // also over-executes that node) — either way, validation must fail.
    assert!(reencode(&trace, rows).validate(&inst).is_err());
}

#[test]
fn reordering_chain_execution_is_caught() {
    // Deterministic construction: a 2-node chain executed in the wrong
    // order on one processor.
    use std::sync::Arc;
    let dag = Arc::new(shapes::chain(2, 1));
    let inst = Instance::new(vec![Job::new(0, 0, dag)]);
    let (_, trace) = run_priority(&inst, &SimConfig::new(1).with_trace(), &Fifo);
    let trace = trace.unwrap();
    assert_eq!(trace.validate(&inst), Ok(()));
    let mut rows = trace.to_dense();
    // Swap the two work rounds.
    rows.swap(0, 1);
    assert!(reencode(&trace, rows).validate(&inst).is_err());
}

#[test]
fn truncating_the_tail_is_caught() {
    let (inst, trace) = traced_run(13);
    let mut rows = trace.to_dense();
    // Remove trailing rounds until we have removed at least one Work action.
    let mut removed_work = false;
    while !removed_work {
        let row = rows.pop().expect("trace non-empty");
        removed_work = row.iter().any(|a| matches!(a, Action::Work { .. }));
    }
    assert!(reencode(&trace, rows).validate(&inst).is_err());
}

/// The six corruptions of the tests above applied to `dense`, at
/// positions drawn from `rng` where those tests pick one.
fn corruptions(
    inst: &Instance,
    dense: &[Vec<Action>],
    rng: &mut SmallRng,
) -> Vec<Vec<Vec<Action>>> {
    let m = dense.first().map_or(1, Vec::len);
    let positions = work_positions(dense);
    let pick = |rng: &mut SmallRng| positions[rng.gen_range(0..positions.len())];
    let mut out = Vec::new();
    let (r, p) = pick(rng);
    let mut rows = dense.to_vec();
    rows[r][p] = Action::Idle;
    out.push(rows);
    let &(r, p) = positions.last().expect("a schedule works");
    let mut rows = dense.to_vec();
    let mut row = vec![Action::Idle; m];
    row[0] = rows[r][p];
    rows.push(row);
    out.push(rows);
    let (r, p) = pick(rng);
    let mut rows = dense.to_vec();
    rows[r][p] = Action::Work {
        job: inst.len() as u32 + 5,
        node: 0,
    };
    out.push(rows);
    let late = inst.jobs().iter().max_by_key(|j| j.arrival).expect("jobs");
    let mut rows = dense.to_vec();
    let mut row = vec![Action::Idle; m];
    row[0] = Action::Work {
        job: late.id,
        node: late.dag.sources()[0],
    };
    rows.insert(0, row);
    out.push(rows);
    let mut rows = dense.to_vec();
    rows.swap(rng.gen_range(0..dense.len()), rng.gen_range(0..dense.len()));
    out.push(rows);
    let mut rows = dense.to_vec();
    while let Some(row) = rows.pop() {
        if row.iter().any(|a| matches!(a, Action::Work { .. })) {
            break;
        }
    }
    out.push(rows);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every engine records the canonical encoding of the rows its
    /// per-round reference produces, and `validate` and `certify_run`
    /// reach the per-unit oracle's verdict on the dense rows — the same
    /// violation, and the same rendered line naming invariant, round,
    /// worker and job — clean and after each corruption.
    #[test]
    fn spans_replay_as_their_expansion(
        seed in any::<u64>(),
        njobs in 1usize..7,
        spread in 0u64..40,
        m in 1usize..5,
        fast in any::<bool>()
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let jobs = (0..njobs)
            .map(|i| {
                let dag = match rng.gen_range(0..4u8) {
                    0 => shapes::single_node(rng.gen_range(1..25)),
                    1 => shapes::chain(rng.gen_range(1..5), rng.gen_range(1..6)),
                    2 => shapes::parallel_for(rng.gen_range(1..30), rng.gen_range(1..6)),
                    _ => shapes::fork_join(rng.gen_range(0..4), rng.gen_range(1..5)),
                };
                Job::new(i as u32, rng.gen_range(0..=spread), Arc::new(dag))
            })
            .collect();
        let inst = Instance::new(jobs);
        let speed = if fast { Speed::new(3, 2) } else { Speed::ONE };
        let base = SimConfig::new(m).with_speed(speed).with_trace();

        let mut runs = Vec::new();
        for (result, trace, reference) in [
            centralized(&inst, &base, &Fifo),
            centralized(&inst, &base, &Lifo),
            centralized(&inst, &base, &ShortestJobFirst),
        ] {
            runs.push((base.clone(), None, result, trace, reference));
        }
        for policy in [StealPolicy::AdmitFirst, StealPolicy::StealKFirst { k: 2 }] {
            for free in [false, true] {
                let cfg = if free { base.clone().with_free_steals() } else { base.clone() };
                let (result, trace) = run_worksteal(&inst, &cfg, policy, seed);
                let (_, reference) =
                    run_worksteal_reference(&inst, &cfg, policy, seed, &mut NullRecorder);
                runs.push((cfg, Some(policy), result, trace, reference));
            }
        }

        for (cfg, policy, result, trace, reference) in &runs {
            let trace = trace.as_ref().expect("traced");
            let dense = reference.as_ref().expect("traced").to_dense();
            prop_assert_eq!(&trace.to_dense(), &dense);
            prop_assert_eq!(&ScheduleTrace::from_dense(m, speed, dense.clone()), &Ok(trace.clone()));
            let library = |t: &ScheduleTrace| {
                let report = certify_run(&inst, cfg, *policy, result, t);
                (t.validate(&inst), report.render())
            };
            let oracle = |rows: &[Vec<Action>]| {
                let report = oracle::certify(&inst, cfg, *policy, result, rows);
                (oracle::validate(&inst, m, speed, rows), report.render())
            };
            let clean = library(trace);
            prop_assert!(clean.0.is_ok() && clean.1.contains("certify: clean"), "{:?}", clean);
            prop_assert_eq!(&oracle(&dense), &clean);
            for rows in corruptions(&inst, &dense, &mut rng) {
                let bad = ScheduleTrace::from_dense(m, speed, rows.clone()).expect("m-wide rows");
                prop_assert_eq!(library(&bad), oracle(&rows));
            }
        }
    }
}

/// A centralized run and its per-round reference.
fn centralized<P: JobPriority>(
    inst: &Instance,
    cfg: &SimConfig,
    policy: &P,
) -> (SimResult, Option<ScheduleTrace>, Option<ScheduleTrace>) {
    let (result, trace) = run_priority(inst, cfg, policy);
    (result, trace, run_priority_reference(inst, cfg, policy).1)
}
