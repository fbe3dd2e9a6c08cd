//! Bridge between the simulator's world (instances with integer work units
//! and tick arrivals) and the real runtime's world (spin iterations and
//! wall-clock arrival offsets).
//!
//! This lets the *same* generated workload (e.g. the Figure 2 Bing
//! instance) drive both the discrete-round simulator and the threaded
//! executor, so the two layers can be compared on identical inputs.

use parflow_dag::Instance;
use parflow_runtime::JobSpec;
use parflow_workloads::TICKS_PER_SECOND;
use std::time::Duration;

/// How real time maps onto simulated ticks.
#[derive(Clone, Copy, Debug)]
pub struct BridgeConfig {
    /// Spin-kernel iterations corresponding to one work unit (a fixed value
    /// keeps load generation deterministic).
    pub iters_per_unit: u64,
    /// Wall-clock seconds per simulated tick. `1.0 / TICKS_PER_SECOND`
    /// replays the workload in real time; smaller values compress it.
    pub seconds_per_tick: f64,
}

impl BridgeConfig {
    /// Replay `factor`× faster than real time.
    pub(crate) fn compressed(iters_per_unit: u64, factor: f64) -> Self {
        assert!(factor > 0.0);
        BridgeConfig {
            iters_per_unit,
            seconds_per_tick: 1.0 / (TICKS_PER_SECOND * factor),
        }
    }
}

/// Convert a simulated instance into a runtime workload.
///
/// Each job becomes a flat parallel-for with one chunk per chunk node of
/// its DAG (total nodes minus source and sink, at least 1) carrying
/// `work × iters_per_unit / chunks` iterations; arrivals are scaled by
/// `seconds_per_tick`.
pub fn instance_to_workload(instance: &Instance, cfg: &BridgeConfig) -> Vec<(Duration, JobSpec)> {
    instance
        .jobs()
        .iter()
        .map(|job| {
            let offset = Duration::from_secs_f64(job.arrival as f64 * cfg.seconds_per_tick);
            let chunks = job.dag.num_nodes().saturating_sub(2).max(1);
            let total_iters = job.work().saturating_mul(cfg.iters_per_unit);
            (offset, JobSpec::split(total_iters, chunks))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parflow_workloads::{DistKind, WorkloadSpec};

    #[test]
    fn workload_conversion_preserves_count_and_order() {
        let inst = WorkloadSpec::paper_fig2(DistKind::Finance, 1000.0, 50, 3).generate();
        let wl = instance_to_workload(&inst, &BridgeConfig::compressed(100, 10.0));
        assert_eq!(wl.len(), inst.len());
        // Offsets non-decreasing (instance is arrival-sorted).
        assert!(wl.windows(2).all(|w| w[0].0 <= w[1].0));
        // Iterations scale with work.
        for (job, (_, spec)) in inst.jobs().iter().zip(&wl) {
            let total = spec.iters_per_chunk * spec.chunks as u64;
            // Rounding across chunks loses at most one chunk's worth.
            assert!(total <= job.work() * 100 + spec.chunks as u64);
            assert!(total + spec.iters_per_chunk * spec.chunks as u64 >= job.work() * 100 / 2);
        }
    }

    #[test]
    fn time_compression_scales_offsets() {
        let inst = WorkloadSpec::paper_fig2(DistKind::Bing, 500.0, 10, 1).generate();
        let slow = instance_to_workload(&inst, &BridgeConfig::compressed(10, 1.0));
        let fast = instance_to_workload(&inst, &BridgeConfig::compressed(10, 100.0));
        let last_slow = slow.last().unwrap().0;
        let last_fast = fast.last().unwrap().0;
        let ratio = last_slow.as_secs_f64() / last_fast.as_secs_f64().max(1e-12);
        assert!((ratio - 100.0).abs() < 1.0, "ratio {ratio}");
    }

    #[test]
    fn bridged_workload_runs_on_the_executor() {
        use parflow_runtime::{run_workload, RtPolicy, RuntimeConfig};
        let inst = WorkloadSpec::paper_fig2(DistKind::Finance, 4000.0, 12, 9).generate();
        // Tiny spin counts and 1000x compression keep the test fast.
        let wl = instance_to_workload(&inst, &BridgeConfig::compressed(20, 1000.0));
        let r = run_workload(&RuntimeConfig::new(2, RtPolicy::AdmitFirst), &wl);
        assert_eq!(r.jobs.len(), 12);
        assert!(r.jobs.iter().all(|j| j.flow > Duration::ZERO));
    }
}
