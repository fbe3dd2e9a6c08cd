//! The Section 5 adversarial instance for the work-stealing lower bound.

use parflow_dag::{shapes, Instance, Job};
use std::sync::Arc;

/// Build the Lemma 5.1 instance: `n` identical tiny jobs, each one unit-work
/// root enabling `m/10` independent unit tasks, released every `2m` time
/// steps so lifetimes never overlap in any non-idling schedule.
///
/// With `m = log n` processors, randomized work stealing executes at least
/// one job fully sequentially in expectation (each steal attempt misses the
/// single loaded deque with probability `≥ 1/2e` per processor-step), giving
/// maximum flow `≈ m/10 = Ω(log n)` while OPT finishes every job in 2 steps.
pub fn lower_bound_instance(n: usize, m: usize) -> Instance {
    let dag = Arc::new(shapes::adversarial_tiny(m));
    let gap = 2 * m as u64;
    let jobs = (0..n)
        .map(|i| Job::new(i as u32, i as u64 * gap, dag.clone()))
        .collect();
    Instance::new(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_structure() {
        let inst = lower_bound_instance(4, 40);
        assert_eq!(inst.len(), 4);
        let arrivals: Vec<_> = inst.jobs().iter().map(|j| j.arrival).collect();
        assert_eq!(arrivals, vec![0, 80, 160, 240]);
        for j in inst.jobs() {
            assert_eq!(j.work(), 5); // m/10 + 1
            assert_eq!(j.span(), 2);
        }
    }

    #[test]
    fn jobs_never_overlap_in_nonidling_schedule() {
        // Work m/10+1 ≤ gap 2m for any m ≥ 1, so even sequential execution
        // finishes before the next arrival.
        for m in [10, 20, 100] {
            let inst = lower_bound_instance(3, m);
            let work = inst.jobs()[0].work();
            assert!(work <= 2 * m as u64);
        }
    }
}
