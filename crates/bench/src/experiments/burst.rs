//! Robustness experiment: bursty arrivals.
//!
//! Poisson arrivals (the paper's model) are relatively smooth; real
//! services see synchronized bursts. This experiment fixes total load and
//! varies burstiness — `B` jobs arriving simultaneously every `B·gap`
//! ticks — and measures how each scheduler's max flow degrades. FIFO and
//! steal-k-first degrade linearly in B (the whole burst must drain);
//! admit-first degrades faster because it serializes the burst's jobs side
//! by side.

use super::PAPER_M;
use parflow_core::{opt_max_flow, simulate_fifo, simulate_worksteal, SimConfig, StealPolicy};
use parflow_dag::{Instance, Job};
use parflow_metrics::Table;
use parflow_workloads::{DistKind, ShapeKind, WorkloadSpec, TICKS_PER_SECOND};
use std::sync::Arc;

/// One burstiness level.
#[derive(Clone, Copy, Debug)]
pub struct BurstPoint {
    /// Jobs per burst (1 = periodic arrivals).
    pub burst: usize,
    /// FIFO max flow (ms).
    pub fifo_ms: f64,
    /// steal-16-first max flow (ms).
    pub steal_ms: f64,
    /// admit-first max flow (ms).
    pub admit_ms: f64,
    /// OPT (ms).
    pub opt_ms: f64,
}

/// Build a bursty variant of the Bing workload with fixed average rate.
fn bursty_instance(burst: usize, gap_per_job: u64, n_jobs: usize, seed: u64) -> Instance {
    // Sample works via the standard generator, then rewrite arrivals.
    let base = WorkloadSpec {
        dist: DistKind::Bing,
        shape: ShapeKind::ParallelFor { grain: 10 },
        qps: None,
        period_ticks: gap_per_job,
        n_jobs,
        seed,
    }
    .generate();
    let jobs: Vec<Job> = base
        .jobs()
        .iter()
        .map(|j| {
            let group = (j.id as usize) / burst;
            let arrival = group as u64 * gap_per_job * burst as u64;
            Job::new(j.id, arrival, Arc::clone(&j.dag))
        })
        .collect();
    Instance::new(jobs)
}

/// Run the burstiness sweep at ~65 % average utilization.
pub fn run(bursts: &[usize], n_jobs: usize, seed: u64) -> Vec<BurstPoint> {
    // gap chosen so that E[W]≈108 units / (gap·m) ≈ 0.65.
    let gap_per_job = 10;
    let cfg = SimConfig::new(PAPER_M).with_free_steals();
    let to_ms = 1000.0 / TICKS_PER_SECOND;
    bursts
        .iter()
        .map(|&burst| {
            let inst = bursty_instance(burst, gap_per_job, n_jobs, seed);
            BurstPoint {
                burst,
                fifo_ms: simulate_fifo(&inst, &cfg).max_flow().to_f64() * to_ms,
                steal_ms: simulate_worksteal(&inst, &cfg, StealPolicy::StealKFirst { k: 16 }, seed)
                    .max_flow()
                    .to_f64()
                    * to_ms,
                admit_ms: simulate_worksteal(&inst, &cfg, StealPolicy::AdmitFirst, seed)
                    .max_flow()
                    .to_f64()
                    * to_ms,
                opt_ms: opt_max_flow(&inst, PAPER_M).to_f64() * to_ms,
            }
        })
        .collect()
}

/// Default burst sizes.
pub fn default_bursts() -> Vec<usize> {
    vec![1, 4, 16, 64]
}

/// Render rows.
pub fn table(points: &[BurstPoint]) -> Table {
    let mut t = Table::new([
        "burst size",
        "OPT (ms)",
        "FIFO (ms)",
        "steal-16 (ms)",
        "admit-first (ms)",
        "admit/steal16",
    ]);
    for p in points {
        t.row([
            p.burst.to_string(),
            format!("{:.2}", p.opt_ms),
            format!("{:.2}", p.fifo_ms),
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
    fn burstier_is_worse_for_everyone() {
        let pts = run(&[1, 64], 4_000, 3);
        assert!(pts[1].opt_ms > pts[0].opt_ms);
        assert!(pts[1].fifo_ms > pts[0].fifo_ms);
        assert!(pts[1].steal_ms > pts[0].steal_ms);
    }

    #[test]
    fn schedulers_dominate_opt_at_every_burstiness() {
        let pts = run(&[4, 16], 2_000, 9);
        for p in &pts {
            assert!(p.fifo_ms >= p.opt_ms * 0.99, "{p:?}");
            assert!(p.steal_ms >= p.opt_ms * 0.99, "{p:?}");
            assert!(p.admit_ms >= p.opt_ms * 0.99, "{p:?}");
        }
    }

    #[test]
    fn table_renders() {
        let pts = run(&[1], 300, 1);
        assert!(table(&pts).render().contains("burst size"));
    }
}
