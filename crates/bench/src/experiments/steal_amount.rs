//! Ablation: steal-one (the paper / Cilk / TBB) vs steal-half (Go, X10)
//! transfer granularity, under the unit-cost steal model where the
//! difference matters most — each successful steal costs a round, so
//! moving more work per steal amortizes that cost.

use super::{PAPER_K, PAPER_M};
use parflow_core::{opt_max_flow, simulate_worksteal, SimConfig, StealPolicy};
use parflow_metrics::Table;
use parflow_workloads::{DistKind, WorkloadSpec, TICKS_PER_SECOND};

/// One load level.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StealAmountPoint {
    /// Queries per second.
    pub qps: f64,
    /// steal-one max flow (ms).
    pub one_ms: f64,
    /// steal-half max flow (ms).
    pub half_ms: f64,
    /// Successful steals under steal-one.
    pub one_steals: u64,
    /// Successful steals under steal-half.
    pub half_steals: u64,
    /// OPT (ms).
    pub opt_ms: f64,
}

/// Run the comparison (unit-cost steals, steal-k-first with k = 16).
pub(crate) fn run(qps_list: &[f64], n_jobs: usize, seed: u64) -> Vec<StealAmountPoint> {
    let to_ms = 1000.0 / TICKS_PER_SECOND;
    let policy = StealPolicy::StealKFirst { k: PAPER_K };
    qps_list
        .iter()
        .map(|&qps| {
            let inst = WorkloadSpec::paper_fig2(DistKind::Bing, qps, n_jobs, seed).generate();
            let one = simulate_worksteal(&inst, &SimConfig::new(PAPER_M), policy, seed);
            let half = simulate_worksteal(
                &inst,
                &SimConfig::new(PAPER_M).with_half_steals(),
                policy,
                seed,
            );
            StealAmountPoint {
                qps,
                one_ms: one.max_flow().to_f64() * to_ms,
                half_ms: half.max_flow().to_f64() * to_ms,
                one_steals: one.stats.successful_steals,
                half_steals: half.stats.successful_steals,
                opt_ms: opt_max_flow(&inst, PAPER_M).to_f64() * to_ms,
            }
        })
        .collect()
}

/// Render rows.
pub(crate) fn table(points: &[StealAmountPoint]) -> Table {
    let mut t = Table::new([
        "QPS",
        "steal-one (ms)",
        "steal-half (ms)",
        "steals (one)",
        "steals (half)",
        "OPT (ms)",
    ]);
    for p in points {
        t.row([
            format!("{:.0}", p.qps),
            format!("{:.2}", p.one_ms),
            format!("{:.2}", p.half_ms),
            p.one_steals.to_string(),
            p.half_steals.to_string(),
            format!("{:.2}", p.opt_ms),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_needs_fewer_successful_steals() {
        let pts = run(&[1000.0], 4_000, 5);
        let p = &pts[0];
        assert!(
            p.half_steals <= p.one_steals,
            "half {} vs one {}",
            p.half_steals,
            p.one_steals
        );
    }

    #[test]
    fn both_dominate_opt() {
        let pts = run(&[800.0, 1100.0], 2_000, 9);
        for p in &pts {
            assert!(p.one_ms >= p.opt_ms * 0.99, "{p:?}");
            assert!(p.half_ms >= p.opt_ms * 0.99, "{p:?}");
        }
    }

    #[test]
    fn table_renders() {
        let pts = run(&[900.0], 300, 1);
        assert!(table(&pts).render().contains("steal-half"));
    }
}
