//! Instrumented probes behind `repro --obs-json`: one small run through
//! the *observed* simulator entry points and one through the real threaded
//! executor, each feeding a [`Recorder`]. They report what the engines
//! counted, never how fast they ran — speed is measured by `parflow-perf`
//! (`crates/perf`) alone.

use crate::experiments::{PAPER_K, PAPER_M};
use parflow_core::{run_priority_observed, run_worksteal_observed, Fifo, SimConfig, StealPolicy};
use parflow_obs::Recorder;
use parflow_workloads::{DistKind, WorkloadSpec};

/// Run an `n`-job Bing QPS-1000 instance (the Figure 2 midpoint, m = 16)
/// once through the observed work-stealing and centralized entry points,
/// feeding per-worker steal/admission counters and flow-time samples into
/// `rec`: the report then contains `ws.worker.*[i]` counters (u64-exact,
/// no saturation) next to the centralized engine's horizon/quiescence
/// telemetry.
pub fn probe_observed(seed: u64, n: usize, rec: &mut dyn Recorder) {
    let m = PAPER_M;
    let inst = WorkloadSpec::paper_fig2(DistKind::Bing, 1000.0, n, seed).generate();
    let cfg = SimConfig::new(m).with_free_steals();
    let _ = run_worksteal_observed(
        &inst,
        &cfg,
        StealPolicy::StealKFirst { k: PAPER_K },
        seed,
        rec,
    );
    let _ = run_priority_observed(&inst, &SimConfig::new(m), &Fifo, rec);
}

/// Run a small burst on the *real* threaded executor and feed its
/// per-worker stats and wall-clock latency histogram into `rec`. The
/// second half of the `repro --obs-json` epilogue.
pub fn runtime_probe_observed(rec: &mut dyn Recorder) {
    use parflow_runtime::{run_workload, JobSpec, RtPolicy, RuntimeConfig};
    use std::time::Duration;
    let cfg = RuntimeConfig::new(2, RtPolicy::StealKFirst { k: 4 }).with_seed(7);
    let wl: Vec<_> = (0..8u64)
        .map(|i| (Duration::from_micros(50 * i), JobSpec::split(20_000, 4)))
        .collect();
    let r = run_workload(&cfg, &wl);
    r.observe_into(rec);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observed_probes_populate_recorder() {
        use parflow_obs::AggregatingRecorder;
        let mut rec = AggregatingRecorder::new();
        probe_observed(7, 500, &mut rec);
        assert!(rec.counter_value("ws.steal_attempts", None) > 0);
        assert!(rec.counter_value("ws.worker.work_steps", Some(0)) > 0);
        assert!(rec.counter_value("central.work_steps", None) > 0);
        assert!(!rec.samples("ws.flow_ticks").is_empty());

        runtime_probe_observed(&mut rec);
        assert!(rec.counter_value("rt.tasks_executed", None) > 0);
        assert_eq!(rec.samples("rt.job_flow_ms").len(), 8);
    }
}
