//! Ablation: EQUI (processor sharing) vs FIFO for maximum flow time.
//!
//! EQUI is the canonical scheduler of the speedup-curves line of work the
//! paper contrasts against (Section 8). It is great for *average* flow
//! time, but for the *maximum* it has a structural flaw: every later
//! arrival dilutes the share of the oldest unfinished job, so under
//! sustained load the tail job starves. This sweep shows EQUI's max-flow
//! gap to FIFO growing with utilization while its ℓ_1 (sum of flows) stays
//! competitive — the cleanest articulation of why the paper's objective
//! needs FIFO-like (arrival-ordered) policies.

use super::PAPER_M;
use parflow_core::{opt_max_flow, simulate_equi, simulate_fifo, SimConfig};
use parflow_metrics::{lk_norm, Table};
use parflow_time::Rational;
use parflow_workloads::{DistKind, WorkloadSpec, TICKS_PER_SECOND};

/// One load level.
#[derive(Clone, Copy, Debug)]
pub struct EquiPoint {
    /// Queries per second.
    pub qps: f64,
    /// FIFO max flow (ms).
    pub fifo_max_ms: f64,
    /// EQUI max flow (ms).
    pub equi_max_ms: f64,
    /// FIFO ℓ_1 (sum of flows, ms).
    pub fifo_l1_ms: f64,
    /// EQUI ℓ_1 (ms).
    pub equi_l1_ms: f64,
    /// OPT max flow (ms).
    pub opt_ms: f64,
}

/// Run the load sweep.
pub fn run(qps_list: &[f64], n_jobs: usize, seed: u64) -> Vec<EquiPoint> {
    let cfg = SimConfig::new(PAPER_M);
    let to_ms = 1000.0 / TICKS_PER_SECOND;
    qps_list
        .iter()
        .map(|&qps| {
            let inst = WorkloadSpec::paper_fig2(DistKind::Bing, qps, n_jobs, seed).generate();
            let fifo = simulate_fifo(&inst, &cfg);
            let equi = simulate_equi(&inst, &cfg);
            let flows = |r: &parflow_core::SimResult| -> Vec<Rational> {
                r.outcomes.iter().map(|o| o.flow).collect()
            };
            EquiPoint {
                qps,
                fifo_max_ms: fifo.max_flow().to_f64() * to_ms,
                equi_max_ms: equi.max_flow().to_f64() * to_ms,
                fifo_l1_ms: lk_norm(&flows(&fifo), 1) * to_ms,
                equi_l1_ms: lk_norm(&flows(&equi), 1) * to_ms,
                opt_ms: opt_max_flow(&inst, PAPER_M).to_f64() * to_ms,
            }
        })
        .collect()
}

/// Render rows.
pub fn table(points: &[EquiPoint]) -> Table {
    let mut t = Table::new([
        "QPS",
        "FIFO max (ms)",
        "EQUI max (ms)",
        "EQUI/FIFO max",
        "FIFO sum (ms)",
        "EQUI sum (ms)",
        "OPT max (ms)",
    ]);
    for p in points {
        t.row([
            format!("{:.0}", p.qps),
            format!("{:.2}", p.fifo_max_ms),
            format!("{:.2}", p.equi_max_ms),
            format!("{:.2}", p.equi_max_ms / p.fifo_max_ms),
            format!("{:.0}", p.fifo_l1_ms),
            format!("{:.0}", p.equi_l1_ms),
            format!("{:.2}", p.opt_ms),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equi_never_beats_fifo_on_max_flow_under_load() {
        let pts = run(&[1000.0, 1200.0], 4_000, 11);
        for p in &pts {
            assert!(
                p.equi_max_ms >= p.fifo_max_ms * 0.99,
                "EQUI should not beat FIFO on max flow: {p:?}"
            );
            assert!(p.fifo_max_ms >= p.opt_ms * 0.99, "{p:?}");
        }
    }

    #[test]
    fn gap_grows_with_load() {
        let pts = run(&[800.0, 1200.0], 4_000, 7);
        let lo = pts[0].equi_max_ms / pts[0].fifo_max_ms;
        let hi = pts[1].equi_max_ms / pts[1].fifo_max_ms;
        assert!(
            hi >= lo * 0.9,
            "EQUI's max-flow gap should not shrink with load: {lo} -> {hi}"
        );
    }

    #[test]
    fn table_renders() {
        let pts = run(&[800.0], 400, 1);
        assert!(table(&pts).render().contains("EQUI/FIFO"));
    }
}
