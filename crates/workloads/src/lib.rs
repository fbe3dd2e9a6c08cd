//! # parflow-workloads
//!
//! Workload generation for the paper's experiments (Section 6):
//!
//! * work distributions ([`WorkDistribution`]): the digitized **Bing**
//!   web-search and **finance** option-pricing histograms of Figure 3
//!   ([`bing`], [`finance`]) and the synthetic **log-normal**;
//! * arrivals: Poisson (the paper's model) and periodic streams;
//! * [`WorkloadSpec`]: distribution × shape × QPS × n → a reproducible
//!   [`parflow_dag::Instance`], or an endless [`JobSource`], with
//!   utilization calibration ([`qps_for_utilization`]);
//! * [`lower_bound_instance`] — the Section 5 adversarial instance;
//! * [`trace_io`] — the instance file format.
//!
//! Units: 1 work unit = 1 tick = 0.1 ms ([`TICKS_PER_SECOND`] = 10 000).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrivals;
mod dist;
mod gen;
mod lowerbound;
mod stats;
pub mod trace_io;
pub use arrivals::ARRIVAL_CEILING;
pub use dist::{bing, finance, HistogramDist, WorkDistribution};
pub use gen::{
    min_qps, qps_for_utilization, DagCache, DistKind, JobSource, ShapeKind, StreamJob,
    WorkloadSpec, TICKS_PER_SECOND,
};
pub use lowerbound::lower_bound_instance;
pub use stats::InstanceStats;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn generated_instances_are_valid(seed in any::<u64>(), n in 1usize..200,
                                         qps in 100.0f64..5000.0) {
            let spec = WorkloadSpec::paper_fig2(DistKind::Bing, qps, n, seed);
            let inst = spec.generate();
            prop_assert_eq!(inst.len(), n);
            // Arrival-sorted, dense ids, valid DAGs.
            let mut prev = 0;
            for (i, j) in inst.jobs().iter().enumerate() {
                prop_assert_eq!(j.id as usize, i);
                prop_assert!(j.arrival >= prev);
                prev = j.arrival;
                prop_assert!(j.dag.validate().is_ok());
                prop_assert!(j.work() >= 1);
            }
        }

        #[test]
        fn all_dists_sample_positive(seed in any::<u64>()) {
            use rand::{rngs::SmallRng, SeedableRng};
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..64 {
                prop_assert!(bing().sample(&mut rng) > 0);
                prop_assert!(finance().sample(&mut rng) > 0);
                prop_assert!(dist::LogNormalDist::paper().sample(&mut rng) > 0);
            }
        }

        #[test]
        fn lower_bound_instance_valid(n in 1usize..64, m in 10usize..200) {
            let inst = lower_bound_instance(n, m);
            prop_assert_eq!(inst.len(), n);
            for j in inst.jobs() {
                prop_assert_eq!(j.span(), 2);
                prop_assert_eq!(j.work() as usize, m / 10 + 1);
            }
        }
    }
}
