//! Theorem 7.1 validation: Biggest-Weight-First with `(1+ε)` speed is
//! `O(1/ε²)`-competitive for maximum *weighted* flow time.
//!
//! We build weighted instances where weights are uncorrelated with work
//! (as the paper stresses), run BWF at speed `1+ε` and report
//! `max weighted flow / weighted lower bound` against the proof ceiling
//! `3/ε²`. A FIFO column shows why weight-awareness matters: FIFO's
//! weighted ratio grows with the weight range while BWF's stays flat.

use super::PAPER_M;
use parflow_core::{opt_weighted_lower_bound, simulate_bwf, simulate_fifo, SimConfig};
use parflow_dag::{Instance, Job};
use parflow_metrics::Table;
use parflow_time::Speed;
use parflow_workloads::{DistKind, ShapeKind, WorkloadSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// One ε data point.
#[derive(Clone, Copy, Debug)]
pub struct BwfPoint {
    /// ε (speed = 1 + ε).
    pub epsilon: f64,
    /// BWF max weighted flow (ticks·weight).
    pub bwf: f64,
    /// FIFO max weighted flow at the same speed (comparison).
    pub fifo: f64,
    /// Weighted lower bound on OPT.
    pub lower_bound: f64,
    /// BWF ratio to the lower bound.
    pub bwf_ratio: f64,
    /// FIFO ratio to the lower bound.
    pub fifo_ratio: f64,
    /// Proof ceiling `3/ε²`.
    pub bound: f64,
}

/// Attach random weights in `1..=max_weight` (uncorrelated with work).
pub fn weighted_instance(n_jobs: usize, max_weight: u64, seed: u64) -> Instance {
    let spec = WorkloadSpec {
        dist: DistKind::Bing,
        shape: ShapeKind::ParallelFor { grain: 10 },
        qps: Some(parflow_workloads::qps_for_utilization(
            DistKind::Bing,
            PAPER_M,
            0.85,
        )),
        period_ticks: 0,
        n_jobs,
        seed,
    };
    let base = spec.generate();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xBEEF);
    let jobs = base
        .jobs()
        .iter()
        .map(|j| {
            Job::weighted(
                j.id,
                j.arrival,
                rng.gen_range(1..=max_weight),
                Arc::clone(&j.dag),
            )
        })
        .collect();
    Instance::new(jobs)
}

/// ε values (exact fractions).
pub const EPSILONS: [(u64, u64); 4] = [(1, 5), (1, 2), (1, 1), (2, 1)];

/// Run the ε sweep.
pub fn run(n_jobs: usize, max_weight: u64, seed: u64) -> Vec<BwfPoint> {
    let inst = weighted_instance(n_jobs, max_weight, seed);
    let lb = opt_weighted_lower_bound(&inst, PAPER_M).to_f64();
    EPSILONS
        .iter()
        .map(|&(en, ed)| {
            let speed = Speed::augmented(en, ed);
            let cfg = SimConfig::new(PAPER_M).with_speed(speed);
            let bwf = simulate_bwf(&inst, &cfg).max_weighted_flow().to_f64();
            let fifo = simulate_fifo(&inst, &cfg).max_weighted_flow().to_f64();
            let epsilon = en as f64 / ed as f64;
            BwfPoint {
                epsilon,
                bwf,
                fifo,
                lower_bound: lb,
                bwf_ratio: bwf / lb,
                fifo_ratio: fifo / lb,
                bound: 3.0 / (epsilon * epsilon),
            }
        })
        .collect()
}

/// Render rows.
pub fn table(points: &[BwfPoint]) -> Table {
    let mut t = Table::new([
        "epsilon",
        "BWF wF",
        "FIFO wF",
        "weighted LB",
        "BWF ratio",
        "FIFO ratio",
        "bound 3/eps^2",
    ]);
    for p in points {
        t.row([
            format!("{:.2}", p.epsilon),
            format!("{:.0}", p.bwf),
            format!("{:.0}", p.fifo),
            format!("{:.0}", p.lower_bound),
            format!("{:.2}", p.bwf_ratio),
            format!("{:.2}", p.fifo_ratio),
            format!("{:.1}", p.bound),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_instance_has_uncorrelated_weights() {
        let inst = weighted_instance(200, 100, 3);
        let weights: Vec<u64> = inst.jobs().iter().map(|j| j.weight).collect();
        assert!(weights.iter().any(|&w| w > 50));
        assert!(weights.iter().any(|&w| w <= 50));
    }

    #[test]
    fn bwf_dominates_lower_bound_and_respects_ceiling() {
        let pts = run(1_500, 64, 5);
        for p in &pts {
            // With (1+ε) speed BWF may beat the unit-speed bound (< 1);
            // the theorem only caps the ratio above.
            assert!(p.bwf_ratio > 0.0, "{p:?}");
            assert!(p.bwf_ratio <= p.bound, "Theorem 7.1 violated: {p:?}");
        }
    }

    #[test]
    fn bwf_beats_fifo_on_weighted_objective() {
        // With a wide weight range, at least at the tightest speed, BWF's
        // weighted max flow should not exceed FIFO's.
        let pts = run(1_500, 1_000, 11);
        let p = &pts[0];
        assert!(
            p.bwf <= p.fifo * 1.05,
            "BWF should win on weighted flow: bwf {} vs fifo {}",
            p.bwf,
            p.fifo
        );
    }

    #[test]
    fn table_renders() {
        let pts = run(300, 16, 1);
        assert!(table(&pts).render().contains("BWF ratio"));
    }
}
