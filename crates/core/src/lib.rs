//! # parflow-core
//!
//! Online schedulers for parallelizable DAG jobs minimizing the maximum
//! (weighted) flow time, reproducing Agrawal, Li, Lu & Moseley,
//! *"Scheduling Parallelizable Jobs Online to Minimize the Maximum Flow
//! Time"*, SPAA 2016.
//!
//! ## Notation (Table 1 of the paper)
//!
//! | Symbol  | Meaning                                              |
//! |---------|------------------------------------------------------|
//! | `c_i`   | completion time of job `J_i` in the schedule         |
//! | `r_i`   | arrival (release) time of job `J_i`                   |
//! | `F_i`   | flow time `c_i − r_i`                                 |
//! | `P_i`   | critical-path length (span) of `J_i`                  |
//! | `W_i`   | total work of `J_i`                                   |
//! | `m`     | number of processors                                  |
//! | `w_i`   | weight of `J_i`                                       |
//! | `OPT`   | optimal schedule / optimal objective value            |
//!
//! ## Schedulers
//!
//! * [`Fifo`] — the idealized centralized scheduler of Section 3:
//!   `(1+ε)`-speed `O(1/ε)`-competitive (Theorem 3.1);
//! * [`StealPolicy::AdmitFirst`] / [`StealPolicy::StealKFirst`] — the
//!   distributed work-stealing schedulers of Section 4: steal-k-first with
//!   `(k+1+ε)` speed achieves `O((1/ε²)·max{OPT, ln n})` max flow w.h.p.
//!   (Theorem 4.1, Corollaries 4.2–4.3), and randomized work stealing is
//!   `Ω(log n)`-competitive in general (Lemma 5.1);
//! * [`BiggestWeightFirst`] — Section 7's scheduler for the weighted
//!   objective: `(1+ε)`-speed `O(1/ε²)`-competitive (Theorem 7.1);
//! * [`Lifo`] — a strawman baseline for ablations;
//! * `simulate_equi` — EQUI / processor sharing, the scheduler family the
//!   speedup-curves literature studies (Section 8), as an ablation showing
//!   why fair sharing is the wrong policy for *maximum* flow time.
//!
//! All schedulers are **non-clairvoyant**: they see jobs only through
//! `parflow_dag::DagCursor` (ready nodes) plus arrival time and weight.
//!
//! ## Engine model
//!
//! Execution proceeds in discrete rounds; at speed `s = num/den` round `r`
//! occupies wall time `[r·den/num, (r+1)·den/num)` and each processor
//! executes one unit of work (or one steal attempt) per round — exactly the
//! time-step model the paper's analysis uses. The optimal baseline
//! ([`opt_max_flow`]) always runs at speed 1.
//!
//! ## Quick example
//!
//! ```
//! use parflow_core::{simulate_fifo, simulate_worksteal, opt_max_flow,
//!                    SimConfig, StealPolicy};
//! use parflow_dag::{shapes, Instance, Job};
//! use std::sync::Arc;
//!
//! // Ten parallel-for jobs of 64 units arriving every 5 ticks.
//! let dag = Arc::new(shapes::parallel_for(64, 8));
//! let jobs = (0..10).map(|i| Job::new(i, i as u64 * 5, dag.clone())).collect();
//! let inst = Instance::new(jobs);
//!
//! let cfg = SimConfig::new(8);
//! let fifo = simulate_fifo(&inst, &cfg);
//! let ws = simulate_worksteal(&inst, &cfg, StealPolicy::StealKFirst { k: 16 }, 42);
//! let opt = opt_max_flow(&inst, 8);
//!
//! assert!(fifo.max_flow() >= opt);
//! assert!(ws.max_flow() >= opt);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batched;
mod bits;
mod centralized;
mod config;
mod dispatch;
mod equi;
mod fault;
mod gantt;
mod interval;
mod lemmas;
mod opt;
mod result;
mod stream;
mod trace;
mod worksteal;

pub use batched::{run_batched, simulate_batched, ReplicaSpec};
#[cfg(feature = "reference-engine")]
pub use centralized::run_priority_reference;
pub use centralized::{
    run_priority, run_priority_observed, simulate_bwf, simulate_fifo, BiggestWeightFirst, Fifo,
    JobPriority, Lifo, ShortestJobFirst,
};
pub use config::{AdmissionOrder, SimConfig, StealAmount, StealCost, VictimStrategy};
pub use dispatch::{ParseSchedulerError, SchedulerKind};
pub use equi::{run_equi, simulate_equi};
pub use fault::{
    CrashFault, FaultEvent, FaultKind, FaultPlan, JobStatus, PanicSampler, SlowdownFault,
    StallFault, PPM,
};
pub use gantt::render_gantt;
pub use interval::{analyze_intervals, Interval, IntervalAnalysis};
pub use lemmas::{
    check_greedy_nonfull_bound, interval_accounting, ws_idling_report, GreedyViolation,
    IntervalAccounting, RoundActivity, WsIdlingReport,
};
pub use opt::{
    combined_lower_bound, opt_flows, opt_max_flow, opt_weighted_lower_bound, span_lower_bound,
    OptTracker,
};
pub use result::{BacklogSample, EngineStats, JobOutcome, SimResult};

pub use stream::{
    run_priority_stream, run_worksteal_stream, run_worksteal_stream_observed, InstanceReplay,
    JobStream, OptTap, RetirementStats, StreamError, StreamSummary, StreamedJob,
};
pub use trace::{Action, ScheduleTrace, TraceChecker, TraceSpan, TraceViolation};
#[cfg(feature = "reference-engine")]
pub use worksteal::run_worksteal_reference;
pub use worksteal::{run_worksteal, run_worksteal_observed, simulate_worksteal, StealPolicy};

#[cfg(test)]
mod proptests {
    use super::*;
    use parflow_dag::{shapes, Instance, Job};
    use parflow_time::Speed;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// A random small instance of mixed DAG shapes.
    fn arb_instance() -> impl Strategy<Value = Instance> {
        (any::<u64>(), 1usize..12, 0u64..30).prop_map(|(seed, njobs, spread)| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let jobs = (0..njobs)
                .map(|i| {
                    use rand::Rng;
                    let arrival = if spread == 0 {
                        0
                    } else {
                        rng.gen_range(0..=spread)
                    };
                    let dag = match rng.gen_range(0..5u8) {
                        0 => shapes::single_node(rng.gen_range(1..20)),
                        1 => shapes::chain(rng.gen_range(1..6), rng.gen_range(1..5)),
                        2 => shapes::parallel_for(rng.gen_range(1..40), rng.gen_range(1..8)),
                        3 => shapes::fork_join(rng.gen_range(0..4), rng.gen_range(1..5)),
                        _ => shapes::layered_random(&mut rng, shapes::LayeredParams::default()),
                    };
                    let weight = rng.gen_range(1..10u64);
                    Job::weighted(i as u32, arrival, weight, Arc::new(dag))
                })
                .collect();
            Instance::new(jobs)
        })
    }

    fn arb_speed() -> impl Strategy<Value = Speed> {
        prop_oneof![
            Just(Speed::ONE),
            Just(Speed::new(11, 10)),
            Just(Speed::new(3, 2)),
            Just(Speed::integer(2)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn fifo_trace_always_valid(inst in arb_instance(), m in 1usize..5, speed in arb_speed()) {
            let cfg = SimConfig::new(m).with_speed(speed).with_trace();
            let (result, trace) = run_priority(&inst, &cfg, &Fifo);
            let trace = trace.unwrap();
            prop_assert_eq!(trace.validate(&inst), Ok(()));
            let (w, _, _) = trace.action_counts();
            prop_assert_eq!(w, inst.total_work());
            prop_assert_eq!(result.outcomes.len(), inst.len());
        }

        #[test]
        fn bwf_trace_always_valid(inst in arb_instance(), m in 1usize..5, speed in arb_speed()) {
            let cfg = SimConfig::new(m).with_speed(speed).with_trace();
            let (_, trace) = run_priority(&inst, &cfg, &BiggestWeightFirst);
            prop_assert_eq!(trace.unwrap().validate(&inst), Ok(()));
        }

        #[test]
        fn worksteal_trace_always_valid(inst in arb_instance(), m in 1usize..5,
                                        speed in arb_speed(), seed in any::<u64>(),
                                        kk in 0u32..8) {
            let cfg = SimConfig::new(m).with_speed(speed).with_trace();
            let policy = if kk == 0 { StealPolicy::AdmitFirst }
                         else { StealPolicy::StealKFirst { k: kk } };
            let (result, trace) = run_worksteal(&inst, &cfg, policy, seed);
            prop_assert_eq!(trace.unwrap().validate(&inst), Ok(()));
            prop_assert_eq!(result.stats.work_steps, inst.total_work());
        }

        #[test]
        fn greedy_nonfull_bound_all_centralized(inst in arb_instance(), m in 1usize..5,
                                                speed in arb_speed()) {
            // Proposition 2.1's consequence holds for every centralized,
            // work-conserving schedule, at every speed.
            let cfg = SimConfig::new(m).with_speed(speed).with_trace();
            let (r, t) = run_priority(&inst, &cfg, &Fifo);
            prop_assert_eq!(check_greedy_nonfull_bound(&inst, &r, &t.unwrap()), Ok(()));
            let (r, t) = run_priority(&inst, &cfg, &BiggestWeightFirst);
            prop_assert_eq!(check_greedy_nonfull_bound(&inst, &r, &t.unwrap()), Ok(()));
            let (r, t) = run_priority(&inst, &cfg, &ShortestJobFirst);
            prop_assert_eq!(check_greedy_nonfull_bound(&inst, &r, &t.unwrap()), Ok(()));
            let (r, t) = run_equi(&inst, &cfg);
            prop_assert_eq!(check_greedy_nonfull_bound(&inst, &r, &t.unwrap()), Ok(()));
        }

        #[test]
        fn ws_interval_accounting_feasible(inst in arb_instance(), m in 1usize..5,
                                           seed in any::<u64>()) {
            prop_assume!(!inst.is_empty());
            let cfg = SimConfig::new(m).with_trace();
            let (r, t) = run_worksteal(&inst, &cfg, StealPolicy::StealKFirst { k: 2 }, seed);
            if let Some(acc) = interval_accounting(&inst, &r, &t.unwrap(),
                                                   parflow_time::Rational::new(1, 10)) {
                prop_assert!(acc.executed <= acc.available);
            }
        }

        #[test]
        fn equi_trace_always_valid(inst in arb_instance(), m in 1usize..5, speed in arb_speed()) {
            let cfg = SimConfig::new(m).with_speed(speed).with_trace();
            let (result, trace) = run_equi(&inst, &cfg);
            prop_assert_eq!(trace.unwrap().validate(&inst), Ok(()));
            prop_assert_eq!(result.stats.work_steps, inst.total_work());
        }

        #[test]
        fn victim_scan_trace_always_valid(inst in arb_instance(), m in 1usize..5,
                                          seed in any::<u64>()) {
            let cfg = SimConfig::new(m).with_victim_scan().with_trace();
            let (result, trace) = run_worksteal(&inst, &cfg,
                StealPolicy::StealKFirst { k: 3 }, seed);
            prop_assert_eq!(trace.unwrap().validate(&inst), Ok(()));
            prop_assert_eq!(result.stats.work_steps, inst.total_work());
        }

        #[test]
        fn every_scheduler_dominates_opt_bound(inst in arb_instance(), m in 1usize..5,
                                               seed in any::<u64>()) {
            // OPT is a lower bound on any feasible unit-speed schedule.
            let cfg = SimConfig::new(m);
            let opt = opt_max_flow(&inst, m);
            let sk4 = StealPolicy::StealKFirst { k: 4 };
            prop_assert!(simulate_fifo(&inst, &cfg).max_flow() >= opt);
            prop_assert!(simulate_equi(&inst, &cfg).max_flow() >= opt);
            prop_assert!(simulate_worksteal(&inst, &cfg, StealPolicy::AdmitFirst, seed)
                .max_flow() >= opt);
            prop_assert!(simulate_worksteal(&inst, &cfg, sk4, seed).max_flow() >= opt);
        }

        #[test]
        fn flows_at_least_span_over_speed(inst in arb_instance(), m in 1usize..5,
                                          speed in arb_speed()) {
            // Each job's flow ≥ P_i / s in any speed-s schedule.
            let cfg = SimConfig::new(m).with_speed(speed);
            let r = simulate_fifo(&inst, &cfg);
            for o in &r.outcomes {
                let span = inst.jobs()[o.job as usize].span();
                let bound = parflow_time::Rational::from_int(span as i128)
                    / speed.as_rational();
                prop_assert!(o.flow >= bound, "job {} flow {} < span bound {}",
                             o.job, o.flow, bound);
            }
        }

        #[test]
        fn fifo_single_machine_sequential_equals_opt(
            arrivals_works in proptest::collection::vec((0u64..50, 1u64..20), 1..12)
        ) {
            // For sequential jobs on m=1 the simulated OPT reduction is the
            // same machine — FIFO must match it exactly.
            let jobs = arrivals_works.iter().enumerate()
                .map(|(i, &(a, w))| Job::new(i as u32, a,
                    Arc::new(shapes::single_node(w))))
                .collect();
            let inst = Instance::new(jobs);
            let r = simulate_fifo(&inst, &SimConfig::new(1));
            prop_assert_eq!(r.max_flow(), opt_max_flow(&inst, 1));
        }

        #[test]
        fn more_speed_never_hurts_fifo(inst in arb_instance(), m in 1usize..4) {
            let base = simulate_fifo(&inst, &SimConfig::new(m));
            let fast = simulate_fifo(&inst,
                &SimConfig::new(m).with_speed(Speed::integer(2)));
            prop_assert!(fast.max_flow() <= base.max_flow());
        }

        #[test]
        fn interval_analysis_structure(inst in arb_instance(), m in 1usize..4) {
            prop_assume!(!inst.is_empty());
            let r = simulate_fifo(&inst, &SimConfig::new(m));
            let a = analyze_intervals(&r, parflow_time::Rational::new(1, 10)).unwrap();
            // Contiguity + chronology + final interval is [r_i, c_i].
            for w in a.intervals.windows(2) {
                prop_assert_eq!(w[0].end, w[1].start);
            }
            let last = a.intervals.last().unwrap();
            prop_assert_eq!(last.start, a.arrival);
            prop_assert_eq!(last.end, a.completion);
            prop_assert!(a.t_prime <= a.t_beta());
        }
    }
}
