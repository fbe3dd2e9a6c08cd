//! Replica driver: many `(config, policy, seed)` runs of one instance.
//!
//! Replica sweeps (seed variance, confidence intervals, phase diagrams)
//! run the same instance under many [`ReplicaSpec`]s. [`run_batched`] runs
//! them one after another through the event-driven stepper
//! (`step_worksteal` in `crate::stream`, over a replay of the instance) on
//! one shared set of stepper buffers — cursor arena, job slab, deques,
//! worker columns, bitsets, scratch — which is reset per replica and keeps
//! its capacity, so only the first replica of a sweep pays warm-up
//! allocations. Each result is `run_worksteal` on that spec, by
//! construction: it is the same code path, fault plans included.

use crate::config::SimConfig;
use crate::result::SimResult;
use crate::stream::WsBuffers;
use crate::trace::ScheduleTrace;
use crate::worksteal::{run_reported, StealPolicy};
use parflow_dag::Instance;
use parflow_obs::NullRecorder;

/// One replica of a batched run: a simulation config, a steal policy and
/// the seed of the replica's private victim-selection RNG stream.
#[derive(Clone, Debug)]
pub struct ReplicaSpec {
    /// Simulation configuration (machine size, speed, steal model, …).
    pub config: SimConfig,
    /// Admission policy.
    pub policy: StealPolicy,
    /// Seed of this replica's RNG stream; the replica's schedule is
    /// bit-identical to `run_worksteal(instance, &config, policy, seed)`.
    pub seed: u64,
}

impl ReplicaSpec {
    /// Convenience constructor.
    pub fn new(config: SimConfig, policy: StealPolicy, seed: u64) -> Self {
        ReplicaSpec {
            config,
            policy,
            seed,
        }
    }
}

/// Run every replica in `specs` on `instance`, reusing one set of stepper
/// buffers across the call.
///
/// Results are returned in spec order; each entry is
/// `run_worksteal(instance, &spec.config, spec.policy, spec.seed)`.
/// `tests/engine_differential.rs` pins outcomes, stats, samples, fault
/// events and `ScheduleTrace` against the per-round reference loop.
///
/// `batch` is ignored. It was the number of replicas stepped concurrently
/// when replicas ran in interleaved lanes; it never affected results and
/// now affects nothing. The parameter survives only because the frozen
/// benchmark (`crates/perf`) calls this signature.
pub fn run_batched(
    instance: &Instance,
    specs: &[ReplicaSpec],
    _batch: usize,
) -> Vec<(SimResult, Option<ScheduleTrace>)> {
    let mut buf = WsBuffers::default();
    specs
        .iter()
        .map(|spec| {
            run_reported(
                instance,
                &spec.config,
                spec.policy,
                spec.seed,
                &mut NullRecorder,
                &mut buf,
            )
        })
        .collect()
}

/// Convenience wrapper returning only the [`SimResult`]s, in spec order.
/// `batch` is ignored, see [`run_batched`].
pub fn simulate_batched(
    instance: &Instance,
    specs: &[ReplicaSpec],
    batch: usize,
) -> Vec<SimResult> {
    run_batched(instance, specs, batch)
        .into_iter()
        .map(|(r, _)| r)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worksteal::{run_worksteal, simulate_worksteal};
    use parflow_dag::{shapes, Job};
    use std::sync::Arc;

    fn inst_seq(arrivals_works: &[(u64, u64)]) -> Instance {
        Instance::new(
            arrivals_works
                .iter()
                .enumerate()
                .map(|(i, &(a, w))| Job::new(i as u32, a, Arc::new(shapes::single_node(w))))
                .collect(),
        )
    }

    #[test]
    fn empty_specs_empty_results() {
        let inst = inst_seq(&[(0, 1)]);
        assert!(run_batched(&inst, &[], 1).is_empty());
    }

    #[test]
    fn k_burn_span_counts_every_forced_miss() {
        // 2 unit jobs, 2 workers, k = 3: both workers burn exactly 3
        // failed steal rounds (one jump) before admitting.
        let inst = inst_seq(&[(0, 1), (0, 1)]);
        let cfg = SimConfig::new(2);
        let policy = StealPolicy::StealKFirst { k: 3 };
        let r = &simulate_batched(&inst, &[ReplicaSpec::new(cfg, policy, 7)], 1)[0];
        assert_eq!(r.stats.steal_attempts, 6);
        assert_eq!(r.stats.admissions, 2);
        assert_eq!(r.total_rounds, 4);
    }

    #[test]
    fn results_come_back_in_spec_order_with_traces() {
        let inst = inst_seq(&[(0, 5), (2, 3), (4, 8), (20, 1)]);
        let specs: Vec<ReplicaSpec> = (0..5)
            .map(|i| {
                let cfg = SimConfig::new(3).with_free_steals();
                if i % 2 == 0 {
                    ReplicaSpec::new(cfg.with_trace(), StealPolicy::AdmitFirst, 1000 + i)
                } else {
                    ReplicaSpec::new(cfg, StealPolicy::StealKFirst { k: 2 }, 1000 + i)
                }
            })
            .collect();
        let out = run_batched(&inst, &specs, 1);
        assert_eq!(out.len(), specs.len());
        for (spec, got) in specs.iter().zip(&out) {
            assert_eq!(got.1.is_some(), spec.config.record_trace);
            assert_eq!(
                *got,
                run_worksteal(&inst, &spec.config, spec.policy, spec.seed)
            );
        }
    }

    #[test]
    fn faulted_replicas_share_the_stepper_buffers() {
        use crate::fault::{CrashFault, FaultPlan};
        let inst = inst_seq(&[(0, 6), (1, 6)]);
        let plan = FaultPlan {
            crashes: vec![CrashFault {
                worker: 1,
                at_round: 2,
            }],
            ..FaultPlan::none()
        };
        let faulted = SimConfig::new(2).with_faults(plan);
        let policy = StealPolicy::AdmitFirst;
        // A faulted replica between two fault-free ones sharing the buffers.
        let specs = [
            ReplicaSpec::new(SimConfig::new(2), policy, 3),
            ReplicaSpec::new(faulted.clone(), policy, 3),
            ReplicaSpec::new(SimConfig::new(2), policy, 3),
        ];
        let out = simulate_batched(&inst, &specs, 1);
        assert_eq!(out[1], simulate_worksteal(&inst, &faulted, policy, 3));
        assert_eq!(out[1].stats.crashed_workers, 1);
        assert_eq!(out[0], out[2]);
        assert_eq!(out[0].stats.crashed_workers, 0);
    }
}
