//! The recursive interval construction of Sections 4 and 7 (Figure 1).
//!
//! The upper-bound proofs for steal-k-first and BWF both pivot on a set of
//! time intervals built backwards from the completion of the maximum-flow
//! job `J_i`:
//!
//! ```text
//! T = { [t', t_β], [t_β, t_{β−1}], …, [t_1, t_0], [t_0, r_i], [r_i, c_i] }
//! ```
//!
//! where `t_0` is the arrival of the earliest-arriving job unfinished right
//! before `r_i`, and recursively `t_a` is the arrival of the earliest job
//! unfinished right before `t_{a−1}`; the recursion stops at the first
//! interval of length `≤ ε·F_i`. The analyzer below reconstructs exactly
//! this decomposition from a simulation result, which is how the repo
//! regenerates Figure 1 and lets tests check the structural facts the proofs
//! rely on (chronological ordering, interval lengths, spanning jobs).

use crate::result::SimResult;
use parflow_dag::JobId;
use parflow_time::Rational;

/// One interval of the decomposition, with the job that defines it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Interval start (the defining job's arrival time).
    pub start: Rational,
    /// Interval end.
    pub end: Rational,
    /// The job whose arrival defines `start`, if any.
    pub defining_job: Option<JobId>,
}

impl Interval {
    /// Interval length.
    pub fn len(&self) -> Rational {
        self.end - self.start
    }

    /// True if the interval is a point.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// The full decomposition for the maximum-flow job of a run.
#[derive(Clone, Debug)]
pub struct IntervalAnalysis {
    /// The maximum-flow job `J_i`.
    pub job: JobId,
    /// Its arrival `r_i`.
    pub arrival: Rational,
    /// Its completion `c_i`.
    pub completion: Rational,
    /// Its flow time `F_i`.
    pub flow: Rational,
    /// The ε used for the termination test.
    pub epsilon: Rational,
    /// Intervals in chronological order: `[t_β, t_{β−1}], …, [t_0, r_i],
    /// [r_i, c_i]`. The final element is always `[r_i, c_i]`.
    pub intervals: Vec<Interval>,
    /// `t'`: arrival of the earliest job unfinished right before `t_β`
    /// (equals `t_β` if none); the proof uses `t_β − t' ≤ ε·F_i`.
    pub t_prime: Rational,
}

impl IntervalAnalysis {
    /// `t_β`, the start of the earliest recursive interval.
    pub fn t_beta(&self) -> Rational {
        self.intervals
            .first()
            .map(|iv| iv.start)
            .unwrap_or(self.arrival)
    }

    /// Number of recursively defined intervals (excluding `[r_i, c_i]`).
    pub fn beta(&self) -> usize {
        self.intervals.len().saturating_sub(1)
    }
}

/// Reconstruct the Section 4 interval decomposition from a run's outcomes.
///
/// `epsilon` is the ε of the analysis (e.g. `Rational::new(1, 10)`).
/// Returns `None` for empty instances.
///
/// ```
/// use parflow_core::{analyze_intervals, simulate_fifo, SimConfig};
/// use parflow_dag::{shapes, Instance, Job};
/// use parflow_time::Rational;
/// use std::sync::Arc;
///
/// let dag = Arc::new(shapes::single_node(10));
/// let jobs = (0..3).map(|i| Job::new(i, i as u64, dag.clone())).collect();
/// let inst = Instance::new(jobs);
/// let r = simulate_fifo(&inst, &SimConfig::new(1));
/// let a = analyze_intervals(&r, Rational::new(1, 10)).unwrap();
/// // The final interval is always the max-flow job's own [r_i, c_i].
/// assert_eq!(a.intervals.last().unwrap().len(), a.flow);
/// ```
pub fn analyze_intervals(result: &SimResult, epsilon: Rational) -> Option<IntervalAnalysis> {
    assert!(epsilon.is_positive(), "epsilon must be positive");
    let max_job = result.argmax_flow()?;
    let flow = max_job.flow;
    let arrival = Rational::from_int(max_job.arrival as i128);
    let completion = max_job.completion();
    let eps_flow = epsilon * flow;

    // Earliest arrival among jobs alive "right before" time t: arrived
    // strictly before t and not completed before t.
    let earliest_alive_before = |t: Rational| -> Option<(Rational, JobId)> {
        result
            .outcomes
            .iter()
            .filter(|o| Rational::from_int(o.arrival as i128) < t && o.completion() >= t)
            .map(|o| (Rational::from_int(o.arrival as i128), o.job))
            .min()
    };

    let mut intervals = vec![Interval {
        start: arrival,
        end: completion,
        defining_job: Some(max_job.job),
    }];

    // t_0: earliest arrival among jobs unfinished right before r_i.
    let mut t_curr = match earliest_alive_before(arrival) {
        Some((t0, j0)) => {
            intervals.push(Interval {
                start: t0,
                end: arrival,
                defining_job: Some(j0),
            });
            t0
        }
        None => arrival,
    };

    // Recursive construction: stop once an interval has length ≤ ε·F_i
    // (the paper stops when `t_{a−1} − t_a ≤ ε F_i`).
    loop {
        let last_len = intervals
            .last()
            .map(|iv| iv.len())
            .unwrap_or(Rational::ZERO);
        if intervals.len() > 1 && last_len <= eps_flow {
            break;
        }
        match earliest_alive_before(t_curr) {
            Some((ta, ja)) if ta < t_curr => {
                intervals.push(Interval {
                    start: ta,
                    end: t_curr,
                    defining_job: Some(ja),
                });
                t_curr = ta;
            }
            _ => break,
        }
    }

    // t': the earliest arrival alive right before t_β (may equal t_β).
    let t_prime = earliest_alive_before(t_curr)
        .map(|(t, _)| t)
        .unwrap_or(t_curr);

    intervals.reverse();
    Some(IntervalAnalysis {
        job: max_job.job,
        arrival,
        completion,
        flow,
        epsilon,
        intervals,
        t_prime,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::simulate_fifo;
    use crate::config::SimConfig;
    use parflow_dag::{shapes, Instance, Job};
    use std::sync::Arc;

    fn inst(arrivals_works: &[(u64, u64)]) -> Instance {
        Instance::new(
            arrivals_works
                .iter()
                .enumerate()
                .map(|(i, &(a, w))| Job::new(i as u32, a, Arc::new(shapes::single_node(w))))
                .collect(),
        )
    }

    #[test]
    fn single_job_has_only_final_interval() {
        let i = inst(&[(0, 5)]);
        let r = simulate_fifo(&i, &SimConfig::new(1));
        let a = analyze_intervals(&r, Rational::new(1, 10)).unwrap();
        assert_eq!(a.intervals.len(), 1);
        assert_eq!(a.flow, Rational::from_int(5));
        assert_eq!(a.beta(), 0);
        assert_eq!(a.t_prime, a.arrival);
    }

    #[test]
    fn empty_result_yields_none() {
        let i = Instance::new(vec![]);
        let r = simulate_fifo(&i, &SimConfig::new(1));
        assert!(analyze_intervals(&r, Rational::new(1, 2)).is_none());
    }

    #[test]
    fn backlog_creates_intervals() {
        // m=1: J0 (0, 10), J1 (1, 10), J2 (2, 10): FIFO completes at 10, 20,
        // 30; J2 has max flow 28. Right before r_2 = 2, J0 and J1 are alive;
        // earliest is J0 with arrival 0.
        let i = inst(&[(0, 10), (1, 10), (2, 10)]);
        let r = simulate_fifo(&i, &SimConfig::new(1));
        let a = analyze_intervals(&r, Rational::new(1, 100)).unwrap();
        assert_eq!(a.job, 2);
        assert_eq!(a.flow, Rational::from_int(28));
        // Final interval is [2, 30]; then [0, 2] defined by J0 (len 2 ≤
        // ε·F = 28/100? no, 2 > 0.28) → recursion continues from t=0: no
        // job alive before 0 → stop.
        assert_eq!(a.intervals.len(), 2);
        let last = a.intervals.last().unwrap();
        assert_eq!(last.start, Rational::from_int(2));
        assert_eq!(last.end, Rational::from_int(30));
        let first = &a.intervals[0];
        assert_eq!(first.start, Rational::ZERO);
        assert_eq!(first.end, Rational::from_int(2));
        assert_eq!(first.defining_job, Some(0));
    }

    #[test]
    fn intervals_are_contiguous_and_chronological() {
        let i = inst(&[(0, 8), (2, 8), (6, 8), (12, 8), (20, 8)]);
        let r = simulate_fifo(&i, &SimConfig::new(1));
        let a = analyze_intervals(&r, Rational::new(1, 10)).unwrap();
        for w in a.intervals.windows(2) {
            assert_eq!(w[0].end, w[1].start, "intervals must be contiguous");
            assert!(w[0].start <= w[0].end);
        }
        // The last interval is [r_i, c_i] of the max-flow job.
        let last = a.intervals.last().unwrap();
        assert_eq!(last.start, a.arrival);
        assert_eq!(last.end, a.completion);
        assert_eq!(last.len(), a.flow);
    }

    #[test]
    fn termination_on_short_interval() {
        // With a huge ε the recursion should stop immediately after t_0.
        let i = inst(&[(0, 10), (1, 10), (2, 10)]);
        let r = simulate_fifo(&i, &SimConfig::new(1));
        let a = analyze_intervals(&r, Rational::from_int(1)).unwrap();
        // ε·F = 28 ≥ any interval length → only [t_0, r_i] + final.
        assert!(a.intervals.len() <= 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_epsilon_panics() {
        let i = inst(&[(0, 5)]);
        let r = simulate_fifo(&i, &SimConfig::new(1));
        let _ = analyze_intervals(&r, Rational::ZERO);
    }

    #[test]
    fn interval_len_and_empty() {
        let iv = Interval {
            start: Rational::from_int(3),
            end: Rational::from_int(7),
            defining_job: None,
        };
        assert_eq!(iv.len(), Rational::from_int(4));
        assert!(!iv.is_empty());
        let pt = Interval {
            start: Rational::ONE,
            end: Rational::ONE,
            defining_job: None,
        };
        assert!(pt.is_empty());
    }
}
