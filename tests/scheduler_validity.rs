//! Cross-crate integration: every scheduler, on every workload family, at
//! several speeds and steal-cost models, produces a trace that passes the
//! independent validator, and its reported outcomes are consistent with the
//! trace.

use parflow::core::{
    run_priority, run_priority_reference, run_priority_stream, run_worksteal,
    run_worksteal_reference, run_worksteal_stream, BiggestWeightFirst, Fifo, InstanceReplay,
    JobOutcome, JobPriority, Lifo, ShortestJobFirst, SimConfig, StealPolicy,
};
use parflow::prelude::*;
use parflow::workloads::lower_bound_instance;

fn workloads() -> Vec<(&'static str, Instance)> {
    vec![
        (
            "bing-parfor",
            WorkloadSpec::paper_fig2(DistKind::Bing, 1500.0, 60, 1).generate(),
        ),
        (
            "finance-parfor",
            WorkloadSpec::paper_fig2(DistKind::Finance, 1500.0, 60, 2).generate(),
        ),
        (
            "lognormal-seq",
            WorkloadSpec {
                dist: DistKind::LogNormal,
                shape: ShapeKind::Sequential,
                qps: Some(2000.0),
                period_ticks: 0,
                n_jobs: 40,
                seed: 3,
            }
            .generate(),
        ),
        (
            "forkjoin",
            WorkloadSpec {
                dist: DistKind::Uniform { lo: 20, hi: 200 },
                shape: ShapeKind::ForkJoin { leaf: 8 },
                qps: Some(3000.0),
                period_ticks: 0,
                n_jobs: 30,
                seed: 4,
            }
            .generate(),
        ),
        ("adversarial", lower_bound_instance(20, 40)),
    ]
}

fn speeds() -> Vec<Speed> {
    vec![
        Speed::ONE,
        Speed::new(11, 10),
        Speed::new(3, 2),
        Speed::integer(2),
    ]
}

#[test]
fn fifo_traces_validate_everywhere() {
    for (name, inst) in workloads() {
        for speed in speeds() {
            let cfg = SimConfig::new(4).with_speed(speed).with_trace();
            let (result, trace) = run_priority(&inst, &cfg, &Fifo);
            let trace = trace.unwrap();
            assert_eq!(trace.validate(&inst), Ok(()), "{name} at {speed}");
            assert_eq!(result.outcomes.len(), inst.len(), "{name}");
            assert_eq!(result.stats.work_steps, inst.total_work(), "{name}");
        }
    }
}

#[test]
fn bwf_traces_validate_everywhere() {
    for (name, inst) in workloads() {
        let cfg = SimConfig::new(3)
            .with_speed(Speed::new(11, 10))
            .with_trace();
        let (_, trace) = run_priority(&inst, &cfg, &BiggestWeightFirst);
        assert_eq!(trace.unwrap().validate(&inst), Ok(()), "{name}");
    }
}

#[test]
fn lifo_traces_validate_everywhere() {
    for (name, inst) in workloads() {
        let cfg = SimConfig::new(2).with_trace();
        let (_, trace) = run_priority(&inst, &cfg, &Lifo);
        assert_eq!(trace.unwrap().validate(&inst), Ok(()), "{name}");
    }
}

#[test]
fn worksteal_traces_validate_everywhere() {
    for (name, inst) in workloads() {
        for speed in [Speed::ONE, Speed::new(3, 2)] {
            for free in [false, true] {
                for policy in [
                    StealPolicy::AdmitFirst,
                    StealPolicy::StealKFirst { k: 1 },
                    StealPolicy::StealKFirst { k: 16 },
                ] {
                    let mut cfg = SimConfig::new(4).with_speed(speed).with_trace();
                    if free {
                        cfg = cfg.with_free_steals();
                    }
                    let (result, trace) = run_worksteal(&inst, &cfg, policy, 77);
                    let trace = trace.unwrap();
                    assert_eq!(
                        trace.validate(&inst),
                        Ok(()),
                        "{name} {} free={free} at {speed}",
                        policy.name()
                    );
                    assert_eq!(result.stats.work_steps, inst.total_work(), "{name}");
                    // Outcome completion rounds must match the trace length.
                    let max_round = result
                        .outcomes
                        .iter()
                        .map(|o| o.completion_round)
                        .max()
                        .unwrap();
                    assert!(max_round < trace.num_rounds(), "{name}");
                }
            }
        }
    }
}

#[test]
fn trace_work_counts_match_stats() {
    let inst = WorkloadSpec::paper_fig2(DistKind::Bing, 2000.0, 50, 9).generate();
    let cfg = SimConfig::new(4).with_trace();
    let (result, trace) = run_worksteal(&inst, &cfg, StealPolicy::StealKFirst { k: 4 }, 3);
    let (w, s, i) = trace.unwrap().action_counts();
    assert_eq!(w, result.stats.work_steps);
    assert_eq!(s, result.stats.steal_attempts);
    assert_eq!(i, result.stats.idle_steps);
}

/// `c_i = F_i + r_i` is derived, not stored, so check that it lands where
/// the engine put it: at the end of the completion round, i.e.
/// `c_i · num/den == completion_round + 1` exactly.
fn assert_completions_end_rounds(what: &str, speed: Speed, outcomes: &[JobOutcome]) {
    let (num, den) = (speed.num() as i128, speed.den() as i128);
    for o in outcomes {
        assert_eq!(
            o.completion().mul_ratio(num, den),
            Rational::from_int(o.completion_round as i128 + 1),
            "{what} at {speed}: job {}",
            o.job
        );
    }
}

#[test]
fn every_engine_completes_jobs_at_round_ends() {
    fn centralized<P: JobPriority>(
        inst: &Instance,
        cfg: &SimConfig,
        policy: &P,
    ) -> [Vec<JobOutcome>; 3] {
        let mut streamed = Vec::new();
        run_priority_stream(
            &mut InstanceReplay::new(inst),
            cfg,
            policy,
            &mut |o| streamed.push(o.clone()),
            &mut NullRecorder,
        )
        .unwrap();
        [
            run_priority(inst, cfg, policy).0.outcomes,
            run_priority_reference(inst, cfg, policy).0.outcomes,
            streamed,
        ]
    }
    for (name, inst) in workloads() {
        for speed in [Speed::ONE, Speed::new(3, 2)] {
            let cfg = SimConfig::new(4).with_speed(speed);
            for policy in [StealPolicy::AdmitFirst, StealPolicy::StealKFirst { k: 16 }] {
                let what = format!("{name} {}", policy.name());
                let mut streamed = Vec::new();
                run_worksteal_stream(&mut InstanceReplay::new(&inst), &cfg, policy, 5, &mut |o| {
                    streamed.push(o.clone())
                })
                .unwrap();
                let materialized = run_worksteal(&inst, &cfg, policy, 5).0.outcomes;
                let reference = run_worksteal_reference(&inst, &cfg, policy, 5, &mut NullRecorder);
                for outcomes in [materialized, reference.0.outcomes, streamed] {
                    assert_eq!(outcomes.len(), inst.len(), "{what}");
                    assert_completions_end_rounds(&what, speed, &outcomes);
                }
            }
            let runs = [
                ("fifo", centralized(&inst, &cfg, &Fifo)),
                ("lifo", centralized(&inst, &cfg, &Lifo)),
                ("sjf", centralized(&inst, &cfg, &ShortestJobFirst)),
                ("bwf", centralized(&inst, &cfg, &BiggestWeightFirst)),
            ];
            for (policy, results) in runs {
                for outcomes in results {
                    assert_eq!(outcomes.len(), inst.len(), "{name} {policy}");
                    assert_completions_end_rounds(&format!("{name} {policy}"), speed, &outcomes);
                }
            }
            let equi = simulate_equi(&inst, &cfg).outcomes;
            assert_completions_end_rounds(&format!("{name} equi"), speed, &equi);
        }
    }
}
