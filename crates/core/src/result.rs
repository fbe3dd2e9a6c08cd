//! Per-run results: flow times and engine counters.

use crate::fault::{FaultEvent, JobStatus};
use parflow_dag::JobId;
use parflow_time::{Rational, Round, Speed, Ticks};

/// Outcome of one job in a simulated schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobOutcome {
    /// The job's id (dense, in arrival order).
    pub job: JobId,
    /// Release time `r_i` in wall-clock ticks.
    pub arrival: Ticks,
    /// Priority weight `w_i`.
    pub weight: u64,
    /// Round in which the job first received a unit of work (for work
    /// stealing this equals the admission round `e_i`, since admission
    /// immediately executes a node).
    pub start_round: Round,
    /// Round during which the job's last node finished.
    pub completion_round: Round,
    /// Completion wall-clock time `c_i` (end of `completion_round`).
    pub completion: Rational,
    /// Flow time `F_i = c_i − r_i`.
    pub flow: Rational,
    /// How the job ended. [`JobStatus::Completed`] in fault-free runs; for
    /// [`JobStatus::Failed`] / [`JobStatus::Aborted`] jobs the completion
    /// fields record the moment the job was given up, not a real finish.
    pub status: JobStatus,
}

impl JobOutcome {
    /// Weighted flow `w_i · F_i`.
    pub(crate) fn weighted_flow(&self) -> Rational {
        self.flow.mul_ratio(self.weight as i128, 1)
    }
}

/// Aggregate counters of engine activity, used to cross-check the lemmas
/// about idling/steal bounds and to report utilization.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Total processor-rounds in which a unit of job work was executed.
    pub work_steps: u64,
    /// Total processor-rounds spent on (successful or failed) steal attempts.
    pub steal_attempts: u64,
    /// Steal attempts that found a victim with a non-empty deque.
    pub successful_steals: u64,
    /// Jobs admitted from the global queue (work stealing only).
    pub admissions: u64,
    /// Processor-rounds with nothing to do at all.
    pub idle_steps: u64,
    /// Workers removed from service by injected crashes.
    pub crashed_workers: u64,
    /// Tasks reinjected into the global queue from crashed workers' deques.
    pub reinjected_tasks: u64,
    /// Executed tasks that failed via injected panics.
    pub injected_panics: u64,
    /// Processor-rounds lost to injected stalls and slowdowns.
    pub faulted_steps: u64,
}

/// A sampled snapshot of work-stealing backlog state (see
/// `SimConfig::with_sampling`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BacklogSample {
    /// Round at which the sample was taken.
    pub round: Round,
    /// Jobs waiting in the global FIFO queue.
    pub queued: usize,
    /// Jobs admitted but not yet completed.
    pub live: usize,
    /// Ready tasks sitting in worker deques.
    pub deque_tasks: usize,
}

/// The result of simulating one scheduler on one instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimResult {
    /// Number of processors used.
    pub m: usize,
    /// Speed the schedule ran at.
    pub speed: Speed,
    /// Last round index that did any work (schedule length in rounds).
    pub total_rounds: Round,
    /// Per-job outcomes, indexed by job id.
    pub outcomes: Vec<JobOutcome>,
    /// Engine activity counters.
    pub stats: EngineStats,
    /// Backlog samples (non-empty only for work stealing with
    /// `SimConfig::with_sampling`).
    pub samples: Vec<BacklogSample>,
    /// Faults that actually fired during the run, in engine-time order.
    pub fault_events: Vec<FaultEvent>,
}

impl SimResult {
    /// All per-job flow times `F_i` in job-id order, for aggregation
    /// layers (sweep cells, report epilogues) that summarize whole
    /// distributions rather than just the max.
    pub fn flows(&self) -> impl Iterator<Item = Rational> + '_ {
        self.outcomes.iter().map(|o| o.flow)
    }

    /// Maximum flow time `max_i F_i` (the unweighted objective).
    /// Returns zero for empty instances.
    pub fn max_flow(&self) -> Rational {
        self.outcomes
            .iter()
            .map(|o| o.flow)
            .max()
            .unwrap_or(Rational::ZERO)
    }

    /// Maximum weighted flow time `max_i w_i·F_i` (the Section 7 objective).
    pub fn max_weighted_flow(&self) -> Rational {
        self.outcomes
            .iter()
            .map(|o| o.weighted_flow())
            .max()
            .unwrap_or(Rational::ZERO)
    }

    /// The job achieving the maximum flow time.
    pub(crate) fn argmax_flow(&self) -> Option<&JobOutcome> {
        self.outcomes.iter().max_by_key(|o| o.flow)
    }

    /// Mean flow time, as `f64` (reporting only).
    pub fn mean_flow(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        // lint: allow(float-determinism) sums outcomes in job-id order; Vec iteration order is fixed
        self.outcomes.iter().map(|o| o.flow.to_f64()).sum::<f64>() / self.outcomes.len() as f64
    }

    /// Makespan: wall-clock completion time of the last job.
    pub fn makespan(&self) -> Rational {
        self.outcomes
            .iter()
            .map(|o| o.completion)
            .max()
            .unwrap_or(Rational::ZERO)
    }

    /// True when every job ran to completion (no failures, no aborts).
    pub fn all_completed(&self) -> bool {
        self.outcomes.iter().all(|o| o.status.is_completed())
    }

    /// Jobs that did not complete, with their terminal status.
    pub fn unfinished(&self) -> Vec<(JobId, JobStatus)> {
        self.outcomes
            .iter()
            .filter(|o| !o.status.is_completed())
            .map(|o| (o.job, o.status))
            .collect()
    }

    /// Maximum flow time over *completed* jobs only — the meaningful
    /// objective under fault injection, where failed jobs' flows measure
    /// time-to-failure rather than service quality.
    pub fn max_completed_flow(&self) -> Rational {
        self.outcomes
            .iter()
            .filter(|o| o.status.is_completed())
            .map(|o| o.flow)
            .max()
            .unwrap_or(Rational::ZERO)
    }

    /// Fraction of processor-rounds spent executing job work over the whole
    /// schedule (`work_steps / (m · total_rounds)`). Under the free-steal
    /// cost model steal *probes* consume no processor time, so they do not
    /// reduce this figure; under unit-cost steals they do.
    pub fn busy_fraction(&self) -> f64 {
        let capacity = self.m as u64 * self.total_rounds;
        if capacity == 0 {
            return 0.0;
        }
        self.stats.work_steps as f64 / capacity as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(job: u32, arrival: u64, weight: u64, flow: i128) -> JobOutcome {
        JobOutcome {
            job,
            arrival,
            weight,
            start_round: 0,
            completion_round: 0,
            completion: Rational::from_int(arrival as i128) + Rational::from_int(flow),
            flow: Rational::from_int(flow),
            status: JobStatus::Completed,
        }
    }

    fn result(outcomes: Vec<JobOutcome>) -> SimResult {
        SimResult {
            m: 2,
            speed: Speed::ONE,
            total_rounds: 10,
            outcomes,
            stats: EngineStats::default(),
            samples: Vec::new(),
            fault_events: Vec::new(),
        }
    }

    #[test]
    fn max_flow_empty_is_zero() {
        let r = result(vec![]);
        assert_eq!(r.max_flow(), Rational::ZERO);
        assert_eq!(r.max_weighted_flow(), Rational::ZERO);
        assert!(r.argmax_flow().is_none());
        assert_eq!(r.mean_flow(), 0.0);
    }

    #[test]
    fn max_and_mean() {
        let r = result(vec![
            outcome(0, 0, 1, 4),
            outcome(1, 2, 1, 10),
            outcome(2, 5, 1, 1),
        ]);
        assert_eq!(r.max_flow(), Rational::from_int(10));
        assert_eq!(r.argmax_flow().unwrap().job, 1);
        assert!((r.mean_flow() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_max_differs_from_unweighted() {
        let r = result(vec![outcome(0, 0, 10, 4), outcome(1, 0, 1, 10)]);
        assert_eq!(r.max_flow(), Rational::from_int(10));
        assert_eq!(r.max_weighted_flow(), Rational::from_int(40));
    }

    #[test]
    fn status_partitions() {
        let mut o = vec![outcome(0, 0, 1, 4), outcome(1, 2, 1, 10)];
        o[1].status = JobStatus::Failed;
        let r = result(o);
        assert!(!r.all_completed());
        assert_eq!(r.unfinished(), vec![(1, JobStatus::Failed)]);
        // Failed jobs are excluded from the completed-flow objective.
        assert_eq!(r.max_completed_flow(), Rational::from_int(4));
        assert_eq!(r.max_flow(), Rational::from_int(10));
    }

    #[test]
    fn busy_fraction() {
        // m = 2, total_rounds = 10 -> capacity 20 processor-rounds.
        let mut r = result(vec![outcome(0, 0, 1, 1)]);
        r.stats = EngineStats {
            work_steps: 15,
            steal_attempts: 10,
            idle_steps: 0,
            ..Default::default()
        };
        assert!((r.busy_fraction() - 0.75).abs() < 1e-12);
        r.total_rounds = 0;
        assert_eq!(r.busy_fraction(), 0.0);
    }

    #[test]
    fn makespan_is_last_completion() {
        let r = result(vec![outcome(0, 0, 1, 4), outcome(1, 2, 1, 10)]);
        assert_eq!(r.makespan(), Rational::from_int(12));
    }
}
