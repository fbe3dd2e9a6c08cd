//! The centralized, preemptive, priority-list engine behind FIFO (Section 3)
//! and Biggest-Weight-First (Section 7).
//!
//! At the start of every round the engine walks the active jobs in priority
//! order and hands out processors: the first job gets one processor per
//! ready node (up to `m`), then the next job, and so on until processors or
//! ready nodes run out — exactly the assignment rule the paper gives for
//! FIFO and BWF. Jobs are preempted and re-assigned every round, which is
//! what makes the idealized scheduler expensive in practice and motivates
//! work stealing (Section 4).
//!
//! This file holds the priority policies, the materialized entry points and
//! the round-by-round `run_priority_reference`. The loop itself exists once,
//! as `step_priority` in `crate::stream`: [`run_priority`] runs it over a
//! replay of the instance and collects the outcomes back into job order.

use crate::config::SimConfig;
use crate::result::SimResult;
use crate::stream::{collect_replay, emit_central_counters, step_priority};
use crate::trace::ScheduleTrace;
use parflow_dag::{Instance, Job};
use parflow_obs::{NullRecorder, Recorder};

#[cfg(any(test, feature = "reference-engine"))]
use {
    crate::fault::JobStatus,
    crate::result::{EngineStats, JobOutcome},
    crate::trace::Action,
    parflow_dag::{DagCursor, JobId, NodeId, UnitOutcome},
    parflow_time::Round,
};

/// A total priority order over jobs, fixed at arrival.
///
/// Smaller keys run first. Both of the paper's centralized schedulers are
/// instances: FIFO orders by arrival time and BWF by descending weight.
pub trait JobPriority {
    /// The sort key for `job`; computed once when the job arrives.
    fn key(&self, job: &Job) -> (u64, u64, u32);
    /// Human-readable scheduler name.
    fn name(&self) -> &'static str;
}

/// First-In-First-Out: jobs ordered by arrival time, ties by id.
/// `(1+ε)`-speed `O(1/ε)`-competitive for maximum flow time (Theorem 3.1).
#[derive(Clone, Copy, Debug, Default)]
pub struct Fifo;

impl JobPriority for Fifo {
    fn key(&self, job: &Job) -> (u64, u64, u32) {
        (job.arrival, 0, job.id)
    }
    fn name(&self) -> &'static str {
        "FIFO"
    }
}

/// Biggest-Weight-First: jobs ordered by descending weight, ties by arrival
/// then id. `(1+ε)`-speed `O(1/ε²)`-competitive for maximum *weighted* flow
/// time (Theorem 7.1).
#[derive(Clone, Copy, Debug, Default)]
pub struct BiggestWeightFirst;

impl JobPriority for BiggestWeightFirst {
    fn key(&self, job: &Job) -> (u64, u64, u32) {
        (u64::MAX - job.weight, job.arrival, job.id)
    }
    fn name(&self) -> &'static str {
        "BWF"
    }
}

/// Last-In-First-Out: a strawman that prioritizes the newest job. Used in
/// tests and ablations to show that priority order matters (LIFO starves
/// early jobs and its max flow degrades with load).
#[derive(Clone, Copy, Debug, Default)]
pub struct Lifo;

impl JobPriority for Lifo {
    fn key(&self, job: &Job) -> (u64, u64, u32) {
        (u64::MAX - job.arrival, 0, u32::MAX - job.id)
    }
    fn name(&self) -> &'static str {
        "LIFO"
    }
}

/// Shortest-Job-First by total work: a **clairvoyant** strawman (it reads
/// `W_i`, which the paper's non-clairvoyant setting forbids). Useful in
/// ablations: SJF optimizes average flow but starves large jobs, so its
/// *maximum* flow degrades exactly where FIFO shines.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShortestJobFirst;

impl JobPriority for ShortestJobFirst {
    fn key(&self, job: &Job) -> (u64, u64, u32) {
        (job.work(), job.arrival, job.id)
    }
    fn name(&self) -> &'static str {
        "SJF"
    }
}

/// Simulate a centralized priority scheduler on `instance`.
///
/// Returns the per-job outcomes plus, if `config.record_trace`, the full
/// [`ScheduleTrace`]. `config.faults` is ignored: the centralized schedulers
/// do not model faults.
///
/// The engine steps by **event horizons** rather than single rounds (see
/// `step_priority` in `crate::stream`): bit-identical to the round-by-round
/// reference (`run_priority_reference`), but `O(events)` instead of
/// `O(rounds)` assignment work.
pub fn run_priority<P: JobPriority>(
    instance: &Instance,
    config: &SimConfig,
    policy: &P,
) -> (SimResult, Option<ScheduleTrace>) {
    run_priority_observed(instance, config, policy, &mut NullRecorder)
}

/// [`run_priority`] with a [`Recorder`] attached. With the recorder
/// disabled the run is bit-identical to `run_priority`. With it enabled,
/// `central.*` counters (work/idle steps, event horizons, quiescent jumps),
/// a `central.total_rounds` gauge and per-job `central.flow_ticks` samples
/// (in job order) are emitted at the end of the run — no `central.stream.*`
/// retirement counters, which belong to the streaming entry points.
pub fn run_priority_observed<P: JobPriority>(
    instance: &Instance,
    config: &SimConfig,
    policy: &P,
    rec: &mut dyn Recorder,
) -> (SimResult, Option<ScheduleTrace>) {
    let (result, trace, horizons) = collect_replay(instance, |puller, sink| {
        step_priority(puller, config, policy, sink)
    });
    if rec.enabled() {
        emit_central_counters(rec, &result.stats, result.total_rounds, horizons);
        for o in &result.outcomes {
            rec.sample("central.flow_ticks", o.flow.to_f64());
        }
    }
    (result, trace)
}

/// The original round-by-round engine, kept verbatim as the behavioural
/// reference for the event-horizon stepper behind [`run_priority`].
///
/// Compiled only for tests and under the `reference-engine` feature (used
/// by the cross-crate differential suite); production callers always get
/// the fast engine.
#[cfg(any(test, feature = "reference-engine"))]
pub fn run_priority_reference<P: JobPriority>(
    instance: &Instance,
    config: &SimConfig,
    policy: &P,
) -> (SimResult, Option<ScheduleTrace>) {
    let jobs = instance.jobs();
    let n = jobs.len();
    let m = config.m;
    let speed = config.speed;

    let mut cursors: Vec<Option<DagCursor>> = vec![None; n];
    let mut active: Vec<((u64, u64, u32), JobId)> = Vec::new();
    let mut outcomes: Vec<Option<JobOutcome>> = vec![None; n];
    let mut started: Vec<Option<Round>> = vec![None; n];
    let mut stats = EngineStats::default();
    let mut trace = config.record_trace.then(|| ScheduleTrace::new(m, speed));

    let mut next_arrival = 0usize;
    let mut completed = 0usize;
    let mut round: Round = 0;
    let mut last_busy_round: Round = 0;

    let safety_cap: Round = speed.first_round_at_or_after(instance.last_arrival())
        + instance.total_work()
        + n as Round
        + 16;

    let mut claimed: Vec<(JobId, NodeId)> = Vec::new();
    let mut ready_buf: Vec<NodeId> = Vec::new();

    while completed < n {
        assert!(round <= safety_cap, "centralized engine exceeded round cap");

        while next_arrival < n && speed.arrived_by_round(jobs[next_arrival].arrival, round) {
            let job = &jobs[next_arrival];
            let key = policy.key(job);
            let pos = active.partition_point(|&(k, _)| k < key);
            active.insert(pos, (key, job.id));
            cursors[job.id as usize] = Some(DagCursor::new(&job.dag));
            next_arrival += 1;
        }

        if active.is_empty() {
            debug_assert!(next_arrival < n, "no active jobs but none left to arrive");
            let target = speed.first_round_at_or_after(jobs[next_arrival].arrival);
            debug_assert!(target > round);
            let gap = target - round;
            stats.idle_steps += gap * m as u64;
            if let Some(t) = trace.as_mut() {
                t.push_idle_rounds(gap);
            }
            round = target;
            continue;
        }

        claimed.clear();
        let mut avail = m;
        for &(_, jid) in active.iter() {
            if avail == 0 {
                break;
            }
            let cursor = cursors[jid as usize]
                .as_mut()
                .expect("active job has cursor"); // lint: allow(panicking) invariant: every active job owns an arena cursor until completion
            ready_buf.clear();
            ready_buf.extend_from_slice(cursor.ready_nodes());
            ready_buf.sort_unstable();
            for &v in ready_buf.iter().take(avail) {
                cursor.claim(v).expect("ready node claimable"); // lint: allow(panicking) invariant: nodes entering the ready set are unclaimed
                claimed.push((jid, v));
            }
            avail -= ready_buf.len().min(avail);
        }
        debug_assert!(!claimed.is_empty(), "active jobs must yield ready nodes");

        for &(jid, v) in claimed.iter() {
            let job = &jobs[jid as usize];
            started[jid as usize].get_or_insert(round);
            let cursor = cursors[jid as usize].as_mut().expect("cursor"); // lint: allow(panicking) invariant: active jobs always own a cursor
            match cursor
                .execute_unit(&job.dag, v)
                .expect("claimed node executes") // lint: allow(panicking) invariant: execute targets were claimed this round
            {
                UnitOutcome::InProgress => {
                    cursor.release(v).expect("in-progress node releases"); // lint: allow(panicking) invariant: release follows the successful claim above
                }
                UnitOutcome::NodeCompleted { job_completed, .. } => {
                    if job_completed {
                        let key = policy.key(job);
                        let pos = active
                            .iter()
                            .position(|&(k, j)| k == key && j == jid)
                            .expect("completed job was active"); // lint: allow(panicking) invariant: a completing job sits in the active list exactly once
                        active.remove(pos);
                        outcomes[jid as usize] = Some(JobOutcome {
                            job: jid,
                            arrival: job.arrival,
                            weight: job.weight,
                            start_round: started[jid as usize].expect("job executed"), // lint: allow(panicking) invariant: start_round is recorded before any execution
                            completion_round: round,
                            flow: speed.flow_time(job.arrival, round),
                            status: JobStatus::Completed,
                        });
                        completed += 1;
                    }
                }
            }
        }

        stats.work_steps += claimed.len() as u64;
        stats.idle_steps += (m - claimed.len()) as u64;
        last_busy_round = round;

        if let Some(t) = trace.as_mut() {
            let mut row: Vec<Action> = claimed
                .iter()
                .map(|&(job, node)| Action::Work { job, node })
                .collect();
            row.resize(m, Action::Idle);
            t.push_row(&row, 1);
        }

        round += 1;
    }

    let outcomes: Vec<JobOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("all jobs completed")) // lint: allow(panicking) invariant: the engine loop exits only after every job completes
        .collect();
    let result = SimResult {
        m,
        speed,
        total_rounds: last_busy_round + 1,
        outcomes,
        stats,
        samples: Vec::new(),
        fault_events: Vec::new(),
    };
    (result, trace)
}

/// Convenience: simulate FIFO.
pub fn simulate_fifo(instance: &Instance, config: &SimConfig) -> SimResult {
    run_priority(instance, config, &Fifo).0
}

/// Convenience: simulate Biggest-Weight-First.
pub fn simulate_bwf(instance: &Instance, config: &SimConfig) -> SimResult {
    run_priority(instance, config, &BiggestWeightFirst).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use parflow_dag::shapes;
    use parflow_time::{Rational, Speed};
    use std::sync::Arc;

    fn seq_jobs(arrivals_works: &[(u64, u64)]) -> Instance {
        let jobs = arrivals_works
            .iter()
            .enumerate()
            .map(|(i, &(a, w))| {
                parflow_dag::Job::new(i as u32, a, Arc::new(shapes::single_node(w)))
            })
            .collect();
        Instance::new(jobs)
    }

    #[test]
    fn single_job_single_machine() {
        let inst = seq_jobs(&[(0, 5)]);
        let r = simulate_fifo(&inst, &SimConfig::new(1));
        assert_eq!(r.max_flow(), Rational::from_int(5));
        assert_eq!(r.stats.work_steps, 5);
        assert_eq!(r.total_rounds, 5);
    }

    #[test]
    fn fifo_two_sequential_jobs_one_machine() {
        // J0: arrive 0, work 3. J1: arrive 1, work 2.
        // FIFO: J0 in [0,3), J1 in [3,5): flows 3 and 4.
        let inst = seq_jobs(&[(0, 3), (1, 2)]);
        let r = simulate_fifo(&inst, &SimConfig::new(1));
        assert_eq!(r.outcomes[0].flow, Rational::from_int(3));
        assert_eq!(r.outcomes[1].flow, Rational::from_int(4));
    }

    #[test]
    fn lifo_starves_early_job() {
        // J0: arrive 0, work 10. J1: arrive 1, work 1. LIFO runs J1 first
        // once it arrives.
        let inst = seq_jobs(&[(0, 10), (1, 1)]);
        let (r, _) = run_priority(&inst, &SimConfig::new(1), &Lifo);
        // J0 runs round 0; J1 arrives (higher priority) runs round 1; J0
        // resumes rounds 2..11.
        assert_eq!(r.outcomes[1].flow, Rational::from_int(1));
        assert_eq!(r.outcomes[0].flow, Rational::from_int(11));
    }

    #[test]
    fn parallel_job_uses_all_processors() {
        // Diamond with width 4 on 4 processors: span 1 + 1 + 1 rounds... the
        // middles run concurrently: source round 0, middles rounds 1..=w,
        // sink after.
        let dag = Arc::new(shapes::diamond(4, 1));
        let inst = Instance::new(vec![parflow_dag::Job::new(0, 0, dag)]);
        let r = simulate_fifo(&inst, &SimConfig::new(4));
        // rounds: 0 source, 1 all four middles, 2 sink → flow 3 = span.
        assert_eq!(r.max_flow(), Rational::from_int(3));
        assert_eq!(r.stats.work_steps, 6);
    }

    #[test]
    fn parallel_job_serializes_on_one_processor() {
        let dag = Arc::new(shapes::diamond(4, 1));
        let inst = Instance::new(vec![parflow_dag::Job::new(0, 0, dag)]);
        let r = simulate_fifo(&inst, &SimConfig::new(1));
        assert_eq!(r.max_flow(), Rational::from_int(6)); // = work
    }

    #[test]
    fn speed_augmentation_shrinks_flow() {
        let inst = seq_jobs(&[(0, 10)]);
        let r1 = simulate_fifo(&inst, &SimConfig::new(1));
        let r2 = simulate_fifo(&inst, &SimConfig::new(1).with_speed(Speed::integer(2)));
        assert_eq!(r1.max_flow(), Rational::from_int(10));
        assert_eq!(r2.max_flow(), Rational::from_int(5));
    }

    #[test]
    fn fractional_speed_flow_is_rational() {
        // work 3 at speed 3/2: rounds 0,1,2 end at 2/3, 4/3, 2.
        let inst = seq_jobs(&[(0, 3)]);
        let r = simulate_fifo(&inst, &SimConfig::new(1).with_speed(Speed::new(3, 2)));
        assert_eq!(r.max_flow(), Rational::from_int(2));
        let inst2 = seq_jobs(&[(0, 2)]);
        let r2 = simulate_fifo(&inst2, &SimConfig::new(1).with_speed(Speed::new(3, 2)));
        assert_eq!(r2.max_flow(), Rational::new(4, 3));
    }

    #[test]
    fn arrival_gap_fast_forward() {
        let inst = seq_jobs(&[(0, 1), (1000, 1)]);
        let r = simulate_fifo(&inst, &SimConfig::new(2));
        assert_eq!(r.outcomes[0].flow, Rational::ONE);
        assert_eq!(r.outcomes[1].flow, Rational::ONE);
        // Idle accounting: gap rounds are all-idle + 1 busy proc in each of
        // the 2 busy rounds.
        assert_eq!(r.stats.work_steps, 2);
    }

    #[test]
    fn bwf_prioritizes_heavy_job() {
        // Heavy job arrives later but preempts.
        let light = parflow_dag::Job::weighted(0, 0, 1, Arc::new(shapes::single_node(10)));
        let heavy = parflow_dag::Job::weighted(1, 2, 100, Arc::new(shapes::single_node(3)));
        let inst = Instance::new(vec![light, heavy]);
        let r = simulate_bwf(&inst, &SimConfig::new(1));
        // heavy: arrives 2, runs rounds 2..5 → flow 3.
        // light: rounds 0,1 then 5..13 → completes round 12, flow 13.
        let heavy_out = &r.outcomes[1];
        assert_eq!(heavy_out.flow, Rational::from_int(3));
        assert_eq!(r.outcomes[0].flow, Rational::from_int(13));
        assert_eq!(r.max_weighted_flow(), Rational::from_int(300));
    }

    #[test]
    fn fifo_trace_validates() {
        let mut rng_jobs = Vec::new();
        for i in 0..5u32 {
            rng_jobs.push(parflow_dag::Job::new(
                i,
                (i as u64) * 2,
                Arc::new(shapes::diamond(3, 2)),
            ));
        }
        let inst = Instance::new(rng_jobs);
        let (r, trace) = run_priority(&inst, &SimConfig::new(3).with_trace(), &Fifo);
        let trace = trace.unwrap();
        assert!(trace.validate(&inst).is_ok());
        let (w, _, _) = trace.action_counts();
        assert_eq!(w, r.stats.work_steps);
        assert_eq!(w, inst.total_work());
    }

    #[test]
    fn trace_with_augmented_speed_validates() {
        let inst = seq_jobs(&[(0, 4), (3, 5), (7, 2)]);
        let (_, trace) = run_priority(
            &inst,
            &SimConfig::new(2)
                .with_speed(Speed::new(11, 10))
                .with_trace(),
            &Fifo,
        );
        assert!(trace.unwrap().validate(&inst).is_ok());
    }

    #[test]
    fn names() {
        assert_eq!(Fifo.name(), "FIFO");
        assert_eq!(BiggestWeightFirst.name(), "BWF");
        assert_eq!(Lifo.name(), "LIFO");
        assert_eq!(ShortestJobFirst.name(), "SJF");
    }

    #[test]
    fn sjf_prefers_short_jobs() {
        // Long job arrives first; stream of short jobs preempts it under
        // SJF, starving the long one.
        let mut jobs = vec![parflow_dag::Job::new(
            0,
            0,
            Arc::new(shapes::single_node(50)),
        )];
        for i in 1..=10u32 {
            jobs.push(parflow_dag::Job::new(
                i,
                (i as u64) * 2,
                Arc::new(shapes::single_node(2)),
            ));
        }
        let inst = Instance::new(jobs);
        let cfg = SimConfig::new(1);
        let (sjf, _) = run_priority(&inst, &cfg, &ShortestJobFirst);
        let (fifo, _) = run_priority(&inst, &cfg, &Fifo);
        // SJF's max flow (the starved long job) exceeds FIFO's.
        assert!(sjf.max_flow() > fifo.max_flow());
        // But SJF's mean flow is no worse.
        assert!(sjf.mean_flow() <= fifo.mean_flow() + 1e-9);
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(vec![]);
        let r = simulate_fifo(&inst, &SimConfig::new(2));
        assert!(r.outcomes.is_empty());
        assert_eq!(r.max_flow(), Rational::ZERO);
    }

    #[test]
    fn event_horizon_matches_reference() {
        // Mixed sequential/parallel jobs with arrival gaps, run at unit,
        // integer and fractional speeds: the bulk-stepping engine must be
        // bit-identical to the round-by-round reference — outcomes, stats,
        // round counts and the full trace.
        let mut jobs = vec![
            parflow_dag::Job::new(0, 0, Arc::new(shapes::single_node(17))),
            parflow_dag::Job::new(1, 3, Arc::new(shapes::diamond(5, 3))),
            parflow_dag::Job::weighted(2, 4, 9, Arc::new(shapes::fork_join(2, 4))),
            parflow_dag::Job::new(3, 40, Arc::new(shapes::single_node(2))),
        ];
        for i in 4..10u32 {
            jobs.push(parflow_dag::Job::new(
                i,
                (i as u64) * 5,
                Arc::new(shapes::chain(3, 2)),
            ));
        }
        let inst = Instance::new(jobs);
        for speed in [Speed::ONE, Speed::integer(2), Speed::new(11, 10)] {
            for m in [1usize, 2, 4] {
                let cfg = SimConfig::new(m).with_speed(speed).with_trace();
                let (fast, ft) = run_priority(&inst, &cfg, &Fifo);
                let (slow, st) = run_priority_reference(&inst, &cfg, &Fifo);
                assert_eq!(fast.outcomes, slow.outcomes, "m={m} s={speed}");
                assert_eq!(fast.stats, slow.stats, "m={m} s={speed}");
                assert_eq!(fast.total_rounds, slow.total_rounds, "m={m} s={speed}");
                assert_eq!(ft.unwrap().spans, st.unwrap().spans, "m={m} s={speed}");

                let (fast_b, _) = run_priority(&inst, &cfg, &BiggestWeightFirst);
                let (slow_b, _) = run_priority_reference(&inst, &cfg, &BiggestWeightFirst);
                assert_eq!(fast_b.outcomes, slow_b.outcomes, "bwf m={m} s={speed}");
                assert_eq!(fast_b.stats, slow_b.stats, "bwf m={m} s={speed}");
            }
        }
    }

    #[test]
    fn observed_run_matches_unobserved() {
        let inst = seq_jobs(&[(0, 4), (3, 5), (7, 2), (100, 1)]);
        let cfg = SimConfig::new(2);
        let (plain, _) = run_priority(&inst, &cfg, &Fifo);
        let mut rec = parflow_obs::AggregatingRecorder::new();
        let (observed, _) = run_priority_observed(&inst, &cfg, &Fifo, &mut rec);
        assert_eq!(plain.outcomes, observed.outcomes);
        assert_eq!(plain.stats, observed.stats);
        assert_eq!(
            rec.counter_value("central.work_steps", None),
            observed.stats.work_steps
        );
        assert_eq!(
            rec.counter_value("central.idle_steps", None),
            observed.stats.idle_steps
        );
        // The 100-tick gap forces at least one quiescent jump, and every
        // run with work has at least one event horizon.
        assert!(rec.counter_value("central.quiescent_jumps", None) >= 1);
        assert!(rec.counter_value("central.event_horizons", None) >= 1);
        assert_eq!(rec.samples("central.flow_ticks").len(), 4);
    }

    #[test]
    fn fifo_completion_rounds_monotone_for_sequential_jobs() {
        // With identical sequential jobs FIFO completes in arrival order.
        let inst = seq_jobs(&[(0, 4), (1, 4), (2, 4), (3, 4)]);
        let r = simulate_fifo(&inst, &SimConfig::new(2));
        let mut prev = 0;
        for o in &r.outcomes {
            assert!(o.completion_round >= prev);
            prev = o.completion_round;
        }
    }
}
