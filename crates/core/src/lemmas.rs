//! Lemma-level verification: check the quantitative facts the paper's
//! proofs rest on against *actual* recorded schedules.
//!
//! Reproducing a theory paper means more than matching the headline
//! curves — the intermediate quantities the proofs manipulate are
//! themselves measurable. This module extracts them from a
//! [`ScheduleTrace`]:
//!
//! * **Proposition 2.1 / Lemma 3.2 (deterministic):** for any
//!   work-conserving centralized scheduler (FIFO, BWF, EQUI), every round
//!   within a job's lifetime in which *not all* `m` processors work must
//!   schedule all ready nodes of every active job, and therefore shortens
//!   each active job's remaining critical path by one unit. Hence the
//!   number of non-full rounds during `[r_i, c_i]` is at most `P_i` — an
//!   exact, testable invariant ([`check_greedy_nonfull_bound`]).
//! * **Lemma 4.5 (probabilistic):** under work stealing, the number of
//!   processor idling steps during `[e_i, c_i]` is `O(m·P_i + ln n)`
//!   w.h.p. [`ws_idling_report`] measures the normalized constant per job
//!   so tests can assert it stays below the paper's 64/32 coefficients.
//! * **Theorem 4.1 accounting:** over the Section 4 interval decomposition
//!   `[t_β, c_i]`, the work the scheduler executes cannot exceed the total
//!   work of the jobs alive in that window ([`interval_accounting`] —
//!   the `Y ≤ X` direction that must hold unconditionally).

use crate::interval::analyze_intervals;
use crate::result::SimResult;
use crate::trace::ScheduleTrace;
use parflow_dag::{Instance, JobId};
use parflow_time::{Rational, Round};

/// Per-round activity counts extracted from a trace, with prefix sums for
/// O(1) range queries.
#[derive(Clone, Debug)]
pub struct RoundActivity {
    /// `work[r]` = processors executing job work in round `r`.
    pub work: Vec<u32>,
    /// `idling[r]` = processors stealing or idle in round `r` (the paper's
    /// "processor idling steps").
    pub idling: Vec<u32>,
    prefix_idling: Vec<u64>,
    prefix_nonfull: Vec<u64>,
}

impl RoundActivity {
    /// Extract activity from a trace.
    pub fn from_trace(trace: &ScheduleTrace) -> Self {
        let m = trace.m;
        let n_rounds = trace.num_rounds() as usize;
        let mut work = Vec::with_capacity(n_rounds);
        let mut idling = Vec::with_capacity(n_rounds);
        for (w, rounds) in trace.working() {
            let (w, rounds) = (w as u32, rounds as usize); // lint: allow(truncating-cast) bounded by the row width m; 2^32 processors unrepresentable
            work.extend(std::iter::repeat_n(w, rounds));
            idling.extend(std::iter::repeat_n(m as u32 - w, rounds)); // lint: allow(truncating-cast) m is the processor count; 2^32 processors unrepresentable
        }
        let mut prefix_idling = Vec::with_capacity(work.len() + 1);
        let mut prefix_nonfull = Vec::with_capacity(work.len() + 1);
        prefix_idling.push(0);
        prefix_nonfull.push(0);
        for (i, &w) in work.iter().enumerate() {
            prefix_idling.push(prefix_idling[i] + idling[i] as u64);
            prefix_nonfull.push(prefix_nonfull[i] + u64::from(w < m as u32)); // lint: allow(truncating-cast) m is the processor count; 2^32 processors unrepresentable
        }
        RoundActivity {
            work,
            idling,
            prefix_idling,
            prefix_nonfull,
        }
    }

    /// Number of rounds recorded.
    pub fn rounds(&self) -> usize {
        self.work.len()
    }

    /// Processor idling steps in the inclusive round range `[from, to]`,
    /// clamped to the trace length.
    pub(crate) fn idling_in(&self, from: Round, to: Round) -> u64 {
        let from = (from as usize).min(self.rounds());
        let to = ((to as usize) + 1).min(self.rounds());
        if from >= to {
            return 0;
        }
        self.prefix_idling[to] - self.prefix_idling[from]
    }

    /// Rounds in `[from, to]` where fewer than `m` processors worked.
    pub fn nonfull_rounds_in(&self, from: Round, to: Round) -> u64 {
        let from = (from as usize).min(self.rounds());
        let to = ((to as usize) + 1).min(self.rounds());
        if from >= to {
            return 0;
        }
        self.prefix_nonfull[to] - self.prefix_nonfull[from]
    }

    /// Units of work executed in `[from, to]`.
    pub(crate) fn work_in(&self, from: Round, to: Round) -> u64 {
        let from = (from as usize).min(self.rounds());
        let to = ((to as usize) + 1).min(self.rounds());
        if from >= to {
            return 0;
        }
        self.work[from..to].iter().map(|&w| w as u64).sum()
    }
}

/// A violation of the deterministic non-full-rounds bound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GreedyViolation {
    /// The job whose window violated the bound.
    pub job: JobId,
    /// Non-full rounds observed during the job's lifetime.
    pub nonfull_rounds: u64,
    /// The job's critical-path length (the bound).
    pub span: u64,
}

/// Check the Proposition 2.1 invariant for a *work-conserving centralized*
/// schedule: for every job `i`, the number of rounds within
/// `[first-round(r_i), completion_round(i)]` in which not all `m`
/// processors work is at most `P_i`.
///
/// (Does not hold for work stealing, whose idling comes from failed steals
/// rather than exhausted ready sets — that is the entire difficulty of
/// Section 4.)
pub fn check_greedy_nonfull_bound(
    instance: &Instance,
    result: &SimResult,
    trace: &ScheduleTrace,
) -> Result<(), GreedyViolation> {
    let activity = RoundActivity::from_trace(trace);
    for o in &result.outcomes {
        let job = &instance.jobs()[o.job as usize];
        let from = result.speed.first_round_at_or_after(job.arrival);
        let nonfull = activity.nonfull_rounds_in(from, o.completion_round);
        if nonfull > job.span() {
            return Err(GreedyViolation {
                job: o.job,
                nonfull_rounds: nonfull,
                span: job.span(),
            });
        }
    }
    Ok(())
}

/// Per-job idling measurement for the Lemma 4.5 bound.
#[derive(Clone, Debug)]
pub struct WsIdlingReport {
    /// For each job: idling steps during `[e_i, c_i]` divided by
    /// `m·P_i + ln n` (the lemma bounds this by 64 w.h.p., constants 64/32).
    pub normalized: Vec<f64>,
    /// Maximum normalized value across jobs.
    pub worst: f64,
}

/// Measure, for every job, the processor idling steps during its execution
/// window `[e_i, c_i]` normalized by `m·P_i + ln n`.
pub fn ws_idling_report(
    instance: &Instance,
    result: &SimResult,
    trace: &ScheduleTrace,
) -> WsIdlingReport {
    let activity = RoundActivity::from_trace(trace);
    let n = instance.len().max(2) as f64;
    let m = result.m as f64;
    let normalized: Vec<f64> = result
        .outcomes
        .iter()
        .map(|o| {
            let span = instance.jobs()[o.job as usize].span() as f64;
            let idling = activity.idling_in(o.start_round, o.completion_round) as f64;
            idling / (m * span + n.ln())
        })
        .collect();
    let worst = normalized.iter().copied().fold(0.0, f64::max);
    WsIdlingReport { normalized, worst }
}

/// The Theorem 4.1 work accounting over `[t_β, c_i]`.
#[derive(Clone, Debug)]
pub struct IntervalAccounting {
    /// Start of the decomposition window (`t_β`).
    pub t_beta: Rational,
    /// End of the window (`c_i`).
    pub c_i: Rational,
    /// Work the scheduler executed inside the window (units).
    pub executed: u64,
    /// Total work of jobs alive at some point inside the window (units) —
    /// the only work available to execute.
    pub available: u64,
}

/// Compute the work accounting of Theorem 4.1's contradiction argument:
/// the scheduler's executed work within `[t_β, c_i]` versus the total work
/// of jobs alive in the window. `executed ≤ available` must hold for every
/// feasible schedule.
pub fn interval_accounting(
    instance: &Instance,
    result: &SimResult,
    trace: &ScheduleTrace,
    epsilon: Rational,
) -> Option<IntervalAccounting> {
    let analysis = analyze_intervals(result, epsilon)?;
    let t_beta = analysis.t_beta();
    let c_i = analysis.completion;
    let activity = RoundActivity::from_trace(trace);

    // Window in rounds: first round starting at or after t_beta … the
    // max-flow job's completion round.
    let speed = result.speed;
    let from = {
        // ceil(t_beta · num / den) as a round index; t_beta ≥ 0.
        let scaled = t_beta.mul_ratio(speed.num() as i128, speed.den() as i128);
        scaled.ceil().max(0) as Round
    };
    let max_job = result.argmax_flow()?;
    let executed = activity.work_in(from, max_job.completion_round);

    // Jobs alive at some point within [t_beta, c_i]: arrival ≤ c_i and
    // completion ≥ t_beta.
    let available: u64 = result
        .outcomes
        .iter()
        .filter(|o| Rational::from_int(o.arrival as i128) <= c_i && o.completion() >= t_beta)
        .map(|o| instance.jobs()[o.job as usize].work())
        .sum();

    Some(IntervalAccounting {
        t_beta,
        c_i,
        executed,
        available,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::{run_priority, BiggestWeightFirst, Fifo};
    use crate::config::SimConfig;
    use crate::equi::run_equi;
    use crate::worksteal::{run_worksteal, StealPolicy};
    use parflow_dag::{shapes, Job};
    use parflow_time::Speed;
    use std::sync::Arc;

    fn mixed_instance(n: u32, seed_gap: u64) -> Instance {
        let jobs: Vec<Job> = (0..n)
            .map(|i| {
                let dag = match i % 4 {
                    0 => shapes::parallel_for(30, 6),
                    1 => shapes::chain(4, 3),
                    2 => shapes::fork_join(3, 2),
                    _ => shapes::diamond(5, 2),
                };
                Job::new(i, (i as u64) * seed_gap, Arc::new(dag))
            })
            .collect();
        Instance::new(jobs)
    }

    #[test]
    fn activity_extraction_matches_counts() {
        let inst = mixed_instance(10, 3);
        let (result, trace) = run_priority(&inst, &SimConfig::new(3).with_trace(), &Fifo);
        let trace = trace.unwrap();
        let act = RoundActivity::from_trace(&trace);
        assert_eq!(act.rounds() as u64, trace.num_rounds());
        let total_work: u64 = act.work.iter().map(|&w| w as u64).sum();
        assert_eq!(total_work, result.stats.work_steps);
        assert_eq!(act.work_in(0, act.rounds() as u64), result.stats.work_steps);
        // Range queries are consistent with full sums.
        let half = act.rounds() as u64 / 2;
        assert_eq!(
            act.work_in(0, half) + act.work_in(half + 1, act.rounds() as u64),
            result.stats.work_steps
        );
    }

    #[test]
    fn greedy_bound_holds_for_fifo_bwf_equi() {
        for gap in [0u64, 2, 7] {
            let inst = mixed_instance(14, gap);
            for m in [1usize, 2, 4] {
                let cfg = SimConfig::new(m).with_trace();
                let (r, t) = run_priority(&inst, &cfg, &Fifo);
                assert_eq!(
                    check_greedy_nonfull_bound(&inst, &r, &t.unwrap()),
                    Ok(()),
                    "FIFO m={m} gap={gap}"
                );
                let (r, t) = run_priority(&inst, &cfg, &BiggestWeightFirst);
                assert_eq!(
                    check_greedy_nonfull_bound(&inst, &r, &t.unwrap()),
                    Ok(()),
                    "BWF m={m} gap={gap}"
                );
                let (r, t) = run_equi(&inst, &cfg);
                assert_eq!(
                    check_greedy_nonfull_bound(&inst, &r, &t.unwrap()),
                    Ok(()),
                    "EQUI m={m} gap={gap}"
                );
            }
        }
    }

    #[test]
    fn greedy_bound_holds_with_speed_augmentation() {
        let inst = mixed_instance(12, 4);
        let cfg = SimConfig::new(3).with_speed(Speed::new(3, 2)).with_trace();
        let (r, t) = run_priority(&inst, &cfg, &Fifo);
        assert_eq!(check_greedy_nonfull_bound(&inst, &r, &t.unwrap()), Ok(()));
    }

    #[test]
    fn ws_idling_stays_below_lemma_constant() {
        // Lemma 4.5: idling during [e_i, c_i] ≤ 64·m·P_i + 32·ln n w.h.p.
        // Our normalization divides by (m·P_i + ln n); the paper's bound
        // corresponds to 64. Measured values sit far below.
        let inst = mixed_instance(24, 2);
        for seed in [1u64, 2, 3] {
            let (r, t) = run_worksteal(
                &inst,
                &SimConfig::new(4).with_trace(),
                StealPolicy::StealKFirst { k: 2 },
                seed,
            );
            let report = ws_idling_report(&inst, &r, &t.unwrap());
            assert_eq!(report.normalized.len(), inst.len());
            assert!(
                report.worst <= 64.0,
                "Lemma 4.5 constant exceeded: {}",
                report.worst
            );
            assert!(report.worst >= 0.0);
        }
    }

    #[test]
    fn interval_accounting_never_exceeds_available() {
        let inst = mixed_instance(20, 1);
        let (r, t) = run_worksteal(
            &inst,
            &SimConfig::new(3).with_trace(),
            StealPolicy::AdmitFirst,
            9,
        );
        let acc = interval_accounting(&inst, &r, &t.unwrap(), Rational::new(1, 10)).unwrap();
        assert!(
            acc.executed <= acc.available,
            "scheduler executed {} > available {} in [t_beta, c_i]",
            acc.executed,
            acc.available
        );
        assert!(acc.t_beta <= acc.c_i);
    }

    #[test]
    fn interval_accounting_empty_instance() {
        let inst = Instance::new(vec![]);
        let (r, t) = run_worksteal(
            &inst,
            &SimConfig::new(2).with_trace(),
            StealPolicy::AdmitFirst,
            1,
        );
        assert!(interval_accounting(&inst, &r, &t.unwrap(), Rational::new(1, 2)).is_none());
    }

    #[test]
    fn idling_range_query_clamps() {
        let inst = mixed_instance(4, 2);
        let (_, t) = run_priority(&inst, &SimConfig::new(2).with_trace(), &Fifo);
        let act = RoundActivity::from_trace(&t.unwrap());
        // Ranges past the end are clamped, inverted ranges are empty.
        assert_eq!(act.idling_in(1_000_000, 2_000_000), 0);
        assert_eq!(act.work_in(10, 5), 0);
    }
}
