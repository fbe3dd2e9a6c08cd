//! Ablation (end of Section 4 + Section 6 discussion): the effect of the
//! steal-k-first parameter `k`.
//!
//! Theoretically smaller `k` is better (admit-first has the best bound);
//! empirically *larger* `k` approximates FIFO and wins, because with `k ≥ m`
//! a worker almost surely finds stealable work of an already-admitted job
//! before opening a new one. This sweep reproduces that reversal.

use super::{jobs_per_point, PAPER_M};
use parflow_core::{opt_max_flow, simulate_worksteal, SimConfig, StealPolicy};
use parflow_metrics::Table;
use parflow_workloads::{DistKind, WorkloadSpec, TICKS_PER_SECOND};

/// One `(k, qps)` data point.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StealKPoint {
    /// The k parameter (0 = admit-first).
    pub k: u32,
    /// Queries per second.
    pub qps: f64,
    /// Max flow in ms.
    pub max_flow_ms: f64,
    /// OPT in ms.
    pub opt_ms: f64,
}

impl StealKPoint {
    /// Ratio to OPT.
    pub(crate) fn ratio(&self) -> f64 {
        self.max_flow_ms / self.opt_ms
    }
}

/// Default k values swept.
pub(crate) fn default_ks() -> Vec<u32> {
    vec![0, 1, 4, 16, 64]
}

/// Run the sweep.
pub(crate) fn run(ks: &[u32], qps_list: &[f64], seed: u64) -> Vec<StealKPoint> {
    run_sized(ks, qps_list, seed, jobs_per_point())
}

/// Run with an explicit job count (tests use small `n`).
fn run_sized(ks: &[u32], qps_list: &[f64], seed: u64, n_jobs: usize) -> Vec<StealKPoint> {
    let cfg = SimConfig::new(PAPER_M).with_free_steals();
    let to_ms = 1000.0 / TICKS_PER_SECOND;
    // Parallelize over (qps, k) pairs; the instance is regenerated per pair
    // rather than shared so every point is self-contained. Input order is
    // preserved, so rows come out exactly as the serial nested loop emitted
    // them.
    let points: Vec<(f64, u32)> = qps_list
        .iter()
        .flat_map(|&qps| ks.iter().map(move |&k| (qps, k)))
        .collect();
    super::par_map(points, |(qps, k)| {
        let inst = WorkloadSpec::paper_fig2(DistKind::Bing, qps, n_jobs, seed).generate();
        let opt_ms = opt_max_flow(&inst, PAPER_M).to_f64() * to_ms;
        let policy = if k == 0 {
            StealPolicy::AdmitFirst
        } else {
            StealPolicy::StealKFirst { k }
        };
        let flow = simulate_worksteal(&inst, &cfg, policy, seed ^ ((k as u64) << 16)).max_flow();
        StealKPoint {
            k,
            qps,
            max_flow_ms: flow.to_f64() * to_ms,
            opt_ms,
        }
    })
}

/// Render rows.
pub(crate) fn table(points: &[StealKPoint]) -> Table {
    let mut t = Table::new(["QPS", "k", "max flow (ms)", "OPT (ms)", "ratio"]);
    for p in points {
        t.row([
            format!("{:.0}", p.qps),
            p.k.to_string(),
            format!("{:.2}", p.max_flow_ms),
            format!("{:.2}", p.opt_ms),
            format!("{:.2}", p.ratio()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_points_dominate_opt() {
        let pts = run_sized(&[0, 16], &[1000.0], 3, 2_000);
        assert_eq!(pts.len(), 2);
        for p in &pts {
            assert!(p.ratio() >= 1.0, "{p:?}");
        }
    }

    #[test]
    fn high_load_prefers_large_k() {
        // The paper's empirical claim: at high load admit-first (k=0) is
        // worse than steal-16-first.
        let pts = run_sized(&[0, 16], &[1200.0], 7, 8_000);
        let k0 = pts.iter().find(|p| p.k == 0).unwrap();
        let k16 = pts.iter().find(|p| p.k == 16).unwrap();
        assert!(
            k16.max_flow_ms <= k0.max_flow_ms,
            "steal-16-first ({}) should beat admit-first ({}) at high load",
            k16.max_flow_ms,
            k0.max_flow_ms
        );
    }

    #[test]
    fn table_renders() {
        let pts = run_sized(&[0], &[800.0], 1, 300);
        assert!(table(&pts).render().contains("ratio"));
    }
}
