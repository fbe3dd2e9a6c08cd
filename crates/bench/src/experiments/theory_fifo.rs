//! Theorem 3.1 validation: FIFO with `(1+ε)` speed is `(3/ε)`-competitive
//! for maximum flow time.
//!
//! For each ε we run FIFO at speed `1+ε` on a high-load workload and report
//! `max-flow / OPT` against the proven ceiling `3/ε`. The measured ratios
//! sit far below the ceiling (the analysis is worst-case), but must (a)
//! never exceed it and (b) not blow up as ε shrinks.

use super::PAPER_M;
use parflow_core::{opt_max_flow, simulate_fifo, SimConfig};
use parflow_metrics::Table;
use parflow_time::Speed;
use parflow_workloads::{DistKind, WorkloadSpec};

/// One ε data point.
#[derive(Clone, Copy, Debug)]
pub struct FifoPoint {
    /// ε as a fraction (speed = 1 + ε).
    pub epsilon: f64,
    /// FIFO's max flow at speed `1+ε` (ticks).
    pub fifo_max_flow: f64,
    /// The unit-speed OPT lower bound (ticks).
    pub opt: f64,
    /// Measured ratio.
    pub ratio: f64,
    /// The theorem's ceiling `3/ε`.
    pub bound: f64,
}

/// ε values as exact fractions (numerator over denominator).
pub const EPSILONS: [(u64, u64); 5] = [(1, 10), (1, 5), (1, 2), (1, 1), (2, 1)];

/// Run the ε sweep on a near-saturation workload.
pub fn run(n_jobs: usize, seed: u64) -> Vec<FifoPoint> {
    // ≈ 95 % utilization at unit speed: QPS chosen against the bing mean.
    let qps = parflow_workloads::qps_for_utilization(DistKind::Bing, PAPER_M, 0.95);
    let inst = WorkloadSpec::paper_fig2(DistKind::Bing, qps, n_jobs, seed).generate();
    let opt = opt_max_flow(&inst, PAPER_M).to_f64();
    EPSILONS
        .iter()
        .map(|&(en, ed)| {
            let speed = Speed::augmented(en, ed);
            let cfg = SimConfig::new(PAPER_M).with_speed(speed);
            let flow = simulate_fifo(&inst, &cfg).max_flow().to_f64();
            let epsilon = en as f64 / ed as f64;
            FifoPoint {
                epsilon,
                fifo_max_flow: flow,
                opt,
                ratio: flow / opt,
                bound: 3.0 / epsilon,
            }
        })
        .collect()
}

/// Render rows.
pub fn table(points: &[FifoPoint]) -> Table {
    let mut t = Table::new([
        "epsilon",
        "speed",
        "FIFO max flow",
        "OPT",
        "ratio",
        "bound 3/eps",
    ]);
    for p in points {
        t.row([
            format!("{:.2}", p.epsilon),
            format!("{:.2}", 1.0 + p.epsilon),
            format!("{:.1}", p.fifo_max_flow),
            format!("{:.1}", p.opt),
            format!("{:.3}", p.ratio),
            format!("{:.1}", p.bound),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_respect_theorem() {
        let pts = run(3_000, 5);
        assert_eq!(pts.len(), EPSILONS.len());
        for p in &pts {
            // With (1+ε) speed FIFO may legitimately beat the unit-speed
            // OPT bound (ratio < 1); the theorem only caps it above.
            assert!(p.ratio > 0.0, "{p:?}");
            assert!(
                p.ratio <= p.bound,
                "Theorem 3.1 violated: ratio {} > bound {}",
                p.ratio,
                p.bound
            );
        }
    }

    #[test]
    fn more_speed_means_less_flow() {
        let pts = run(2_000, 9);
        for w in pts.windows(2) {
            assert!(
                w[1].fifo_max_flow <= w[0].fifo_max_flow + 1e-9,
                "flow should be non-increasing in speed: {w:?}"
            );
        }
    }

    #[test]
    fn table_renders() {
        let pts = run(500, 1);
        assert!(table(&pts).render().contains("bound 3/eps"));
    }
}
