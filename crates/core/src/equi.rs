//! EQUI (equipartition / processor sharing): the classic scheduler from the
//! arbitrary-speedup-curves literature the paper contrasts against
//! (Section 8; Edmonds & Pruhs [11]).
//!
//! Each round the `m` processors are split as evenly as possible among the
//! active jobs (a rotating remainder keeps the split fair over time); any
//! quota a job cannot use — fewer ready nodes than its share — is handed
//! greedily to the remaining jobs. EQUI is known to be scalable for
//! *average* flow time in the speedup-curves model, but it is the wrong
//! policy for *maximum* flow time: it divides capacity among late arrivals
//! instead of draining the oldest job, so its max flow degrades under
//! backlog where FIFO's does not. The `equi` ablation (`repro equi`,
//! bench `ablations`) quantifies exactly that.

use crate::config::SimConfig;
use crate::fault::JobStatus;
use crate::result::{EngineStats, JobOutcome, SimResult};
use crate::trace::{Action, ScheduleTrace};
use parflow_dag::{DagCursor, Instance, JobId, NodeId, UnitOutcome};
use parflow_time::Round;

/// Simulate EQUI on `instance`.
pub fn run_equi(instance: &Instance, config: &SimConfig) -> (SimResult, Option<ScheduleTrace>) {
    let jobs = instance.jobs();
    let n = jobs.len();
    let m = config.m;
    let speed = config.speed;

    let mut cursors: Vec<Option<DagCursor>> = vec![None; n];
    // Active jobs in arrival order (EQUI has no priorities).
    let mut active: Vec<JobId> = Vec::new();
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
    let mut row: Vec<Action> = Vec::new();

    while completed < n {
        assert!(round <= safety_cap, "EQUI engine exceeded round cap");

        while next_arrival < n && speed.arrived_by_round(jobs[next_arrival].arrival, round) {
            let job = &jobs[next_arrival];
            active.push(job.id);
            cursors[job.id as usize] = Some(DagCursor::new(&job.dag));
            next_arrival += 1;
        }

        if active.is_empty() {
            debug_assert!(next_arrival < n);
            let target = speed.first_round_at_or_after(jobs[next_arrival].arrival);
            let gap = target - round;
            stats.idle_steps += gap * m as u64;
            if let Some(t) = trace.as_mut() {
                t.push_idle_rounds(gap);
            }
            round = target;
            continue;
        }

        // Equipartition: base share for all, rotating remainder, then a
        // greedy second pass for unusable quota.
        claimed.clear();
        let n_act = active.len();
        let base = m / n_act;
        let extra = m % n_act;
        let rot = (round as usize) % n_act;
        let mut spare = 0usize;
        for (i, &jid) in active.iter().enumerate() {
            // Positions rot, rot+1, …, rot+extra−1 (mod n_act) get +1.
            let bonus = ((i + n_act - rot) % n_act < extra) as usize;
            let quota = base + bonus;
            let cursor = cursors[jid as usize].as_mut().expect("active job"); // lint: allow(panicking) invariant: every active job owns a cursor until completion
            ready_buf.clear();
            ready_buf.extend_from_slice(cursor.ready_nodes());
            ready_buf.sort_unstable();
            let take = ready_buf.len().min(quota);
            for &v in ready_buf.iter().take(take) {
                cursor.claim(v).expect("ready node claimable"); // lint: allow(panicking) invariant: nodes entering the ready set are unclaimed
                claimed.push((jid, v));
            }
            spare += quota - take;
        }
        // Second pass: hand spare processors to jobs with leftover ready
        // nodes, in arrival order.
        if spare > 0 {
            for &jid in active.iter() {
                if spare == 0 {
                    break;
                }
                let cursor = cursors[jid as usize].as_mut().expect("active job"); // lint: allow(panicking) invariant: every active job owns a cursor until completion
                ready_buf.clear();
                ready_buf.extend_from_slice(cursor.ready_nodes());
                ready_buf.sort_unstable();
                let take = ready_buf.len().min(spare);
                for &v in ready_buf.iter().take(take) {
                    cursor.claim(v).expect("ready node claimable"); // lint: allow(panicking) invariant: nodes entering the ready set are unclaimed
                    claimed.push((jid, v));
                }
                spare -= take;
            }
        }
        debug_assert!(!claimed.is_empty(), "active jobs must yield ready work");

        for &(jid, v) in &claimed {
            let job = &jobs[jid as usize];
            started[jid as usize].get_or_insert(round);
            // lint: allow(panicking) invariant: active jobs always own a cursor
            let cursor = cursors[jid as usize].as_mut().expect("cursor");
            // lint: allow(panicking) invariant: execute targets were claimed this round
            match cursor.execute_unit(&job.dag, v).expect("claimed node") {
                UnitOutcome::InProgress => {
                    cursor.release(v).expect("in-progress node releases"); // lint: allow(panicking) invariant: release follows the successful claim above
                }
                UnitOutcome::NodeCompleted { job_completed, .. } => {
                    if job_completed {
                        let pos = active
                            .iter()
                            .position(|&j| j == jid)
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
            row.clear();
            row.extend(
                claimed
                    .iter()
                    .map(|&(job, node)| Action::Work { job, node }),
            );
            row.resize(m, Action::Idle);
            t.push_row(&row, 1);
        }
        round += 1;
    }

    let outcomes: Vec<JobOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("all jobs completed")) // lint: allow(panicking) invariant: the engine loop exits only after every job completes
        .collect();
    (
        SimResult {
            m,
            speed,
            total_rounds: last_busy_round + 1,
            outcomes,
            stats,
            samples: Vec::new(),
            fault_events: Vec::new(),
        },
        trace,
    )
}

/// Convenience wrapper returning only the [`SimResult`].
pub fn simulate_equi(instance: &Instance, config: &SimConfig) -> SimResult {
    run_equi(instance, config).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::simulate_fifo;
    use parflow_dag::{shapes, Job};
    use parflow_time::Rational;
    use std::sync::Arc;

    fn seq_jobs(arrivals_works: &[(u64, u64)]) -> Instance {
        Instance::new(
            arrivals_works
                .iter()
                .enumerate()
                .map(|(i, &(a, w))| Job::new(i as u32, a, Arc::new(shapes::single_node(w))))
                .collect(),
        )
    }

    #[test]
    fn single_job_gets_everything() {
        let dag = Arc::new(shapes::diamond(4, 1));
        let inst = Instance::new(vec![Job::new(0, 0, dag)]);
        let r = simulate_equi(&inst, &SimConfig::new(4));
        assert_eq!(r.max_flow(), Rational::from_int(3)); // span
    }

    #[test]
    fn two_sequential_jobs_share_evenly() {
        // Two sequential jobs of 4 units on m=2: each gets 1 processor →
        // both finish at round 3 (flow 4), like FIFO here.
        let inst = seq_jobs(&[(0, 4), (0, 4)]);
        let r = simulate_equi(&inst, &SimConfig::new(2));
        assert_eq!(r.outcomes[0].flow, Rational::from_int(4));
        assert_eq!(r.outcomes[1].flow, Rational::from_int(4));
    }

    #[test]
    fn rotating_remainder_is_fair() {
        // Two sequential jobs on m=1: the single processor alternates, so
        // both finish within one unit of 2W.
        let inst = seq_jobs(&[(0, 5), (0, 5)]);
        let r = simulate_equi(&inst, &SimConfig::new(1));
        let f0 = r.outcomes[0].flow;
        let f1 = r.outcomes[1].flow;
        assert_eq!(f0.max(f1), Rational::from_int(10));
        assert_eq!(f0.min(f1), Rational::from_int(9));
    }

    #[test]
    fn spare_quota_is_redistributed() {
        // Job 0 is sequential (can use 1 proc), job 1 is wide: job 1 should
        // soak up job 0's unusable share.
        let jobs = vec![
            Job::new(0, 0, Arc::new(shapes::single_node(4))),
            Job::new(1, 0, Arc::new(shapes::diamond(6, 2))),
        ];
        let inst = Instance::new(jobs);
        let r = simulate_equi(&inst, &SimConfig::new(4));
        // Work conservation and full utilization while both jobs are live:
        assert_eq!(r.stats.work_steps, inst.total_work());
        // The wide job (work 14, span 4) with ~3 processors after round 0
        // should finish well under sequential time.
        assert!(r.outcomes[1].flow < Rational::from_int(14));
    }

    #[test]
    fn equi_worse_than_fifo_for_max_flow_under_backlog() {
        // The structural weakness EQUI has for max flow: a stream of later
        // arrivals steals capacity from the oldest job.
        let inst = seq_jobs(&[(0, 20), (1, 20), (2, 20), (3, 20)]);
        let cfg = SimConfig::new(2);
        let equi = simulate_equi(&inst, &cfg).max_flow();
        let fifo = simulate_fifo(&inst, &cfg).max_flow();
        assert!(
            equi >= fifo,
            "EQUI {} should not beat FIFO {} on max flow here",
            equi.to_f64(),
            fifo.to_f64()
        );
    }

    #[test]
    fn trace_validates() {
        let dag = Arc::new(shapes::fork_join(3, 2));
        let jobs: Vec<Job> = (0..6)
            .map(|i| Job::new(i, i as u64 * 3, dag.clone()))
            .collect();
        let inst = Instance::new(jobs);
        let (r, trace) = run_equi(&inst, &SimConfig::new(3).with_trace());
        let trace = trace.unwrap();
        assert!(trace.validate(&inst).is_ok());
        assert_eq!(r.stats.work_steps, inst.total_work());
    }

    #[test]
    fn trace_validates_with_speed() {
        let inst = seq_jobs(&[(0, 7), (2, 5), (9, 3)]);
        let (_, trace) = run_equi(
            &inst,
            &SimConfig::new(2)
                .with_speed(parflow_time::Speed::new(11, 10))
                .with_trace(),
        );
        assert!(trace.unwrap().validate(&inst).is_ok());
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(vec![]);
        let r = simulate_equi(&inst, &SimConfig::new(2));
        assert!(r.outcomes.is_empty());
    }
}
