//! Machine-size scaling: max flow time vs `m` at *fixed utilization*.
//!
//! The paper evaluates one machine size (m = 16). A natural systems
//! question it leaves open is weak scaling: if QPS grows proportionally
//! with m (utilization held at ~65 %), does the max-flow gap between the
//! schedulers persist? Larger m gives work stealing more victims per job
//! (better) but also more jobs in flight (worse for admit-first).

use parflow_core::{opt_max_flow, simulate_batched, ReplicaSpec, SimConfig, StealPolicy};
use parflow_metrics::Table;
use parflow_workloads::{qps_for_utilization, DistKind, WorkloadSpec, TICKS_PER_SECOND};

/// One machine size.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ScalingPoint {
    /// Processors.
    pub m: usize,
    /// QPS used (scaled for fixed utilization).
    pub qps: f64,
    /// OPT (ms).
    pub opt_ms: f64,
    /// steal-16-first (ms).
    pub steal_ms: f64,
    /// admit-first (ms).
    pub admit_ms: f64,
}

/// Default machine sizes.
pub(crate) fn default_ms() -> Vec<usize> {
    vec![4, 8, 16, 32, 64]
}

/// Run the sweep at ~65 % utilization on the Bing workload.
pub(crate) fn run(ms: &[usize], n_jobs: usize, seed: u64) -> Vec<ScalingPoint> {
    let to_ms = 1000.0 / TICKS_PER_SECOND;
    super::par_map(ms.to_vec(), |m| {
        let qps = qps_for_utilization(DistKind::Bing, m, 0.65);
        let inst = WorkloadSpec::paper_fig2(DistKind::Bing, qps, n_jobs, seed).generate();
        let cfg = SimConfig::new(m).with_free_steals();
        // Both policies run through one replica-driver call, so the arena
        // and worker-state columns grown for steal-16 are recycled for
        // admit-first (the same runs as back-to-back `simulate_worksteal`).
        let specs = [
            ReplicaSpec::new(
                cfg.clone(),
                StealPolicy::StealKFirst { k: 16 },
                seed ^ m as u64,
            ),
            ReplicaSpec::new(cfg, StealPolicy::AdmitFirst, seed ^ m as u64),
        ];
        let pair = simulate_batched(&inst, &specs, 1);
        ScalingPoint {
            m,
            qps,
            opt_ms: opt_max_flow(&inst, m).to_f64() * to_ms,
            steal_ms: pair[0].max_flow().to_f64() * to_ms,
            admit_ms: pair[1].max_flow().to_f64() * to_ms,
        }
    })
}

/// Render rows.
pub(crate) fn table(points: &[ScalingPoint]) -> Table {
    let mut t = Table::new([
        "m",
        "QPS (util 65%)",
        "OPT (ms)",
        "steal-16 (ms)",
        "admit-first (ms)",
        "admit/steal16",
    ]);
    for p in points {
        t.row([
            p.m.to_string(),
            format!("{:.0}", p.qps),
            format!("{:.2}", p.opt_ms),
            format!("{:.2}", p.steal_ms),
            format!("{:.2}", p.admit_ms),
            format!("{:.2}", p.admit_ms / p.steal_ms),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_utilization_across_m() {
        let pts = run(&[4, 16], 3_000, 5);
        // QPS scales linearly with m.
        assert!((pts[1].qps / pts[0].qps - 4.0).abs() < 1e-9);
        for p in &pts {
            assert!(p.steal_ms >= p.opt_ms * 0.99, "{p:?}");
            assert!(p.admit_ms >= p.opt_ms * 0.99, "{p:?}");
        }
    }

    #[test]
    fn steal16_beats_admit_at_scale() {
        let pts = run(&[32], 4_000, 7);
        assert!(pts[0].steal_ms <= pts[0].admit_ms, "{:?}", pts[0]);
    }

    #[test]
    fn table_renders() {
        let pts = run(&[4], 300, 1);
        assert!(table(&pts).render().contains("util 65%"));
    }
}
