//! Jobs: a DAG plus online metadata (arrival time, weight).

use crate::graph::JobDag;
use parflow_time::{Rational, Ticks, Work};
use std::sync::Arc;

/// Identifier of a job within one problem instance (dense, 0-based).
pub type JobId = u32;

/// Priority weight of a job. The unweighted objective uses `w_i = 1` for all
/// jobs; weights are *not* assumed correlated with work (Section 7).
pub type Weight = u64;

/// One job of an online scheduling instance.
///
/// The scheduler learns of the job at `arrival` (its release time `r_i`) and
/// — being non-clairvoyant — sees only the weight and, progressively, the
/// ready nodes. The DAG is shared via `Arc` because adversarial and trace
/// workloads release many structurally identical jobs.
#[derive(Clone, Debug)]
pub struct Job {
    /// Dense job id (also the index in the instance's job vector).
    pub id: JobId,
    /// Release time `r_i` in wall-clock ticks.
    pub arrival: Ticks,
    /// Priority weight `w_i` (1 for unweighted instances).
    pub weight: Weight,
    /// The job's internal structure.
    pub dag: Arc<JobDag>,
}

impl Job {
    /// Create an unweighted job.
    pub fn new(id: JobId, arrival: Ticks, dag: Arc<JobDag>) -> Self {
        Job {
            id,
            arrival,
            weight: 1,
            dag,
        }
    }

    /// Create a weighted job.
    pub fn weighted(id: JobId, arrival: Ticks, weight: Weight, dag: Arc<JobDag>) -> Self {
        assert!(weight > 0, "job weight must be positive");
        Job {
            id,
            arrival,
            weight,
            dag,
        }
    }

    /// Total work `W_i`.
    #[inline]
    pub fn work(&self) -> Work {
        self.dag.total_work()
    }

    /// Critical-path length `P_i`.
    #[inline]
    pub fn span(&self) -> Work {
        self.dag.span()
    }
}

/// A complete online problem instance: jobs sorted by arrival time.
///
/// Construction sorts (stably) by arrival and re-assigns dense ids in
/// arrival order, so `jobs[i].id == i` and arrivals are non-decreasing —
/// every scheduler in this workspace relies on both.
#[derive(Clone, Debug, Default)]
pub struct Instance {
    jobs: Vec<Job>,
}

impl Instance {
    /// Build an instance from jobs in any order; sorts by `(arrival, id)`
    /// and renumbers ids to be dense in arrival order.
    pub fn new(mut jobs: Vec<Job>) -> Self {
        jobs.sort_by_key(|j| (j.arrival, j.id));
        for (i, j) in jobs.iter_mut().enumerate() {
            j.id = i as JobId;
        }
        Instance { jobs }
    }

    /// The jobs, sorted by arrival, with dense ids.
    #[inline]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True if the instance has no jobs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Total work over all jobs.
    pub fn total_work(&self) -> Work {
        self.jobs.iter().map(|j| j.work()).sum()
    }

    /// Largest single-job work.
    pub fn max_work(&self) -> Work {
        self.jobs.iter().map(|j| j.work()).max().unwrap_or(0)
    }

    /// Largest critical-path length.
    pub fn max_span(&self) -> Work {
        self.jobs.iter().map(|j| j.span()).max().unwrap_or(0)
    }

    /// Last arrival time.
    pub fn last_arrival(&self) -> Ticks {
        self.jobs.last().map(|j| j.arrival).unwrap_or(0)
    }

    /// Machine utilization `ρ = total work / (m · horizon)` where the
    /// horizon is the last arrival time (the usual open-system load measure
    /// used to pick QPS levels in Section 6). Returns `None` for instances
    /// whose arrivals are all at time 0.
    pub fn utilization(&self, m: usize) -> Option<Rational> {
        let horizon = self.last_arrival();
        if horizon == 0 {
            return None;
        }
        Some(Rational::new(
            self.total_work() as i128,
            (m as i128) * (horizon as i128),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DagBuilder;

    fn dag(work: Work) -> Arc<JobDag> {
        Arc::new(DagBuilder::new().node(work).build().unwrap())
    }

    #[test]
    fn job_metrics_delegate_to_dag() {
        let j = Job::new(0, 5, dag(7));
        assert_eq!(j.work(), 7);
        assert_eq!(j.span(), 7);
        assert_eq!(j.weight, 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_panics() {
        let _ = Job::weighted(0, 0, 0, dag(1));
    }

    #[test]
    fn instance_sorts_and_renumbers() {
        let jobs = vec![
            Job::new(10, 30, dag(1)),
            Job::new(11, 10, dag(2)),
            Job::new(12, 20, dag(3)),
        ];
        let inst = Instance::new(jobs);
        let arrivals: Vec<_> = inst.jobs().iter().map(|j| j.arrival).collect();
        assert_eq!(arrivals, vec![10, 20, 30]);
        let ids: Vec<_> = inst.jobs().iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(inst.total_work(), 6);
        assert_eq!(inst.max_work(), 3);
        assert_eq!(inst.last_arrival(), 30);
    }

    #[test]
    fn instance_sort_is_stable_on_ties() {
        let jobs = vec![
            Job::new(0, 5, dag(1)),
            Job::new(1, 5, dag(2)),
            Job::new(2, 5, dag(3)),
        ];
        let inst = Instance::new(jobs);
        let works: Vec<_> = inst.jobs().iter().map(|j| j.work()).collect();
        assert_eq!(works, vec![1, 2, 3]);
    }

    #[test]
    fn utilization() {
        // 2 jobs of 10 work each, last arrival 10, m = 2 → ρ = 20/(2·10) = 1.
        let jobs = vec![Job::new(0, 0, dag(10)), Job::new(1, 10, dag(10))];
        let inst = Instance::new(jobs);
        assert_eq!(inst.utilization(2), Some(Rational::ONE));
        // All arrivals at 0 → undefined.
        let inst0 = Instance::new(vec![Job::new(0, 0, dag(10))]);
        assert_eq!(inst0.utilization(2), None);
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(vec![]);
        assert!(inst.is_empty());
        assert_eq!(inst.total_work(), 0);
        assert_eq!(inst.max_span(), 0);
    }
}
