//! Figure 2: maximum flow time vs QPS for OPT, steal-k-first (k=16) and
//! admit-first on the Bing, finance and log-normal workloads (m = 16).
//!
//! The paper's observation to reproduce: **OPT has the smallest max flow,
//! admit-first the largest**, with steal-k-first close to OPT; the
//! admit-first gap widens with load (≈2× at high utilization for Bing and
//! log-normal).

use super::{jobs_per_point, par_map, PAPER_K, PAPER_M};
use parflow_core::{opt_max_flow, simulate_worksteal, SimConfig, StealPolicy};
use parflow_metrics::Table;
use parflow_workloads::{DistKind, WorkloadSpec, TICKS_PER_SECOND};

/// The paper's QPS levels per workload (low / medium / high load).
pub(crate) fn paper_qps(dist: DistKind) -> [f64; 3] {
    match dist {
        DistKind::Finance => [800.0, 900.0, 1000.0],
        _ => [800.0, 1000.0, 1200.0],
    }
}

/// One Figure 2 data point.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fig2Point {
    /// Queries per second.
    pub qps: f64,
    /// Realized machine utilization.
    pub utilization: f64,
    /// Simulated-OPT max flow, milliseconds.
    pub opt_ms: f64,
    /// steal-k-first (k = 16) max flow, milliseconds.
    pub steal_k_ms: f64,
    /// admit-first max flow, milliseconds.
    pub admit_ms: f64,
}

impl Fig2Point {
    /// `steal-k-first / OPT`.
    pub(crate) fn steal_k_ratio(&self) -> f64 {
        self.steal_k_ms / self.opt_ms
    }

    /// `admit-first / OPT`.
    pub(crate) fn admit_ratio(&self) -> f64 {
        self.admit_ms / self.opt_ms
    }
}

/// Run one workload's Figure 2 sweep.
pub(crate) fn run(dist: DistKind, seed: u64) -> Vec<Fig2Point> {
    run_sized(dist, seed, jobs_per_point(), PAPER_M)
}

/// Run with explicit size (tests use small `n`).
///
/// Uses the systems steal-cost model (free steal attempts), matching the
/// paper's TBB runtime where a steal is ~10⁴× cheaper than a work unit.
fn run_sized(dist: DistKind, seed: u64, n_jobs: usize, m: usize) -> Vec<Fig2Point> {
    let cfg = SimConfig::new(m).with_free_steals();
    let to_ms = 1000.0 / TICKS_PER_SECOND;
    par_map(paper_qps(dist).to_vec(), |qps| {
        let inst = WorkloadSpec::paper_fig2(dist, qps, n_jobs, seed).generate();
        let opt = opt_max_flow(&inst, m).to_f64() * to_ms;
        let steal_k = simulate_worksteal(
            &inst,
            &cfg,
            StealPolicy::StealKFirst { k: PAPER_K },
            seed ^ 0xA5,
        )
        .max_flow()
        .to_f64()
            * to_ms;
        let admit = simulate_worksteal(&inst, &cfg, StealPolicy::AdmitFirst, seed ^ 0x5A)
            .max_flow()
            .to_f64()
            * to_ms;
        Fig2Point {
            qps,
            utilization: inst.utilization(m).map(|u| u.to_f64()).unwrap_or(0.0),
            opt_ms: opt,
            steal_k_ms: steal_k,
            admit_ms: admit,
        }
    })
}

/// Render the paper-style rows.
pub(crate) fn table(dist: DistKind, points: &[Fig2Point]) -> Table {
    let mut t = Table::new([
        "workload",
        "QPS",
        "util",
        "OPT (ms)",
        "steal-16-first (ms)",
        "admit-first (ms)",
        "steal16/OPT",
        "admit/OPT",
    ]);
    for p in points {
        t.row([
            dist.name().to_string(),
            format!("{:.0}", p.qps),
            format!("{:.0}%", p.utilization * 100.0),
            format!("{:.2}", p.opt_ms),
            format!("{:.2}", p.steal_k_ms),
            format!("{:.2}", p.admit_ms),
            format!("{:.2}", p.steal_k_ratio()),
            format!("{:.2}", p.admit_ratio()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_qps_levels() {
        assert_eq!(paper_qps(DistKind::Bing), [800.0, 1000.0, 1200.0]);
        assert_eq!(paper_qps(DistKind::Finance), [800.0, 900.0, 1000.0]);
        assert_eq!(paper_qps(DistKind::LogNormal), [800.0, 1000.0, 1200.0]);
    }

    #[test]
    fn small_run_shape_holds() {
        // Small but real run: OPT must lower-bound both schedulers.
        let pts = run_sized(DistKind::Bing, 7, 2_000, 16);
        assert_eq!(pts.len(), 3);
        for p in &pts {
            assert!(p.opt_ms > 0.0);
            assert!(p.steal_k_ms >= p.opt_ms, "{p:?}");
            assert!(p.admit_ms >= p.opt_ms, "{p:?}");
            assert!(p.utilization > 0.3 && p.utilization < 1.0, "{p:?}");
        }
        // Utilization grows with QPS.
        assert!(pts[0].utilization < pts[2].utilization);
    }

    #[test]
    fn table_renders() {
        let pts = run_sized(DistKind::Finance, 3, 500, 8);
        let t = table(DistKind::Finance, &pts);
        assert_eq!(t.len(), 3);
        let s = t.render();
        assert!(s.contains("finance"));
        assert!(s.contains("QPS"));
    }
}
