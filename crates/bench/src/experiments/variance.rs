//! Seed variance: how much does randomized work stealing's max flow time
//! fluctuate across runs?
//!
//! The paper's guarantees for steal-k-first are *with high probability*;
//! the deterministic schedulers have none of that slack. This experiment
//! quantifies the gap: run the same instance under many seeds and report
//! mean, standard deviation and range of the max flow for each policy
//! (FIFO is seed-independent and serves as the control).

use super::{PAPER_K, PAPER_M};
use parflow_core::{simulate_batched, simulate_fifo, ReplicaSpec, SimConfig, StealPolicy};
use parflow_metrics::Table;
use parflow_workloads::{DistKind, WorkloadSpec, TICKS_PER_SECOND};

/// Variance summary of one policy across seeds.
#[derive(Clone, Debug)]
pub struct VariancePoint {
    /// Policy name.
    pub policy: String,
    /// Runs.
    pub runs: usize,
    /// Mean max flow (ms).
    pub mean_ms: f64,
    /// Standard deviation (ms).
    pub std_ms: f64,
    /// Minimum observed (ms).
    pub min_ms: f64,
    /// Maximum observed (ms).
    pub max_ms: f64,
}

fn summarize(policy: &str, values_ms: &[f64]) -> VariancePoint {
    let n = values_ms.len().max(1) as f64;
    let mean = values_ms.iter().sum::<f64>() / n;
    let var = values_ms.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    VariancePoint {
        policy: policy.to_string(),
        runs: values_ms.len(),
        mean_ms: mean,
        std_ms: var.sqrt(),
        min_ms: values_ms.iter().copied().fold(f64::INFINITY, f64::min),
        max_ms: values_ms.iter().copied().fold(0.0, f64::max),
    }
}

/// Run `runs` seeds of each policy on the same instance.
pub fn run(qps: f64, n_jobs: usize, runs: usize, seed: u64) -> Vec<VariancePoint> {
    let inst = WorkloadSpec::paper_fig2(DistKind::Bing, qps, n_jobs, seed).generate();
    let cfg = SimConfig::new(PAPER_M).with_free_steals();
    let to_ms = 1000.0 / TICKS_PER_SECOND;

    let fifo = simulate_fifo(&inst, &cfg).max_flow().to_f64() * to_ms;
    // Replicas of one policy differ only by seed, so each thread runs its
    // chunk through one replica-driver call: one arena (and all the
    // stepper's buffers) is recycled across every replica in the chunk
    // instead of being re-grown per run; the schedules are those of
    // per-replica `simulate_worksteal`.
    let collect = |policy: StealPolicy| -> Vec<f64> {
        let specs: Vec<ReplicaSpec> = (0..runs)
            .map(|i| ReplicaSpec::new(cfg.clone(), policy, seed ^ (i as u64 + 1)))
            .collect();
        let chunk = runs.div_ceil(super::par_threads().max(1)).max(1);
        let chunks: Vec<Vec<ReplicaSpec>> = specs.chunks(chunk).map(<[_]>::to_vec).collect();
        super::par_map(chunks, |chunk| {
            simulate_batched(&inst, &chunk, 1)
                .into_iter()
                .map(|r| r.max_flow().to_f64() * to_ms)
                .collect::<Vec<f64>>()
        })
        .into_iter()
        .flatten()
        .collect()
    };
    vec![
        summarize("FIFO (deterministic)", &[fifo]),
        summarize(
            "steal-16-first",
            &collect(StealPolicy::StealKFirst { k: PAPER_K }),
        ),
        summarize("admit-first", &collect(StealPolicy::AdmitFirst)),
    ]
}

/// Render rows.
pub fn table(points: &[VariancePoint]) -> Table {
    let mut t = Table::new(["policy", "runs", "mean (ms)", "std (ms)", "min", "max"]);
    for p in points {
        t.row([
            p.policy.clone(),
            p.runs.to_string(),
            format!("{:.2}", p.mean_ms),
            format!("{:.2}", p.std_ms),
            format!("{:.2}", p.min_ms),
            format!("{:.2}", p.max_ms),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_has_zero_variance() {
        let pts = run(1000.0, 1_500, 5, 3);
        let fifo = &pts[0];
        assert_eq!(fifo.std_ms, 0.0);
        assert_eq!(fifo.min_ms, fifo.max_ms);
    }

    #[test]
    fn randomized_policies_vary_but_bounded() {
        let pts = run(1100.0, 3_000, 6, 7);
        for p in &pts[1..] {
            assert_eq!(p.runs, 6);
            assert!(p.min_ms <= p.mean_ms && p.mean_ms <= p.max_ms, "{p:?}");
            // Relative spread stays moderate (the w.h.p. guarantee at work).
            assert!(
                p.max_ms <= 3.0 * p.min_ms,
                "{}: spread too wide {} vs {}",
                p.policy,
                p.min_ms,
                p.max_ms
            );
        }
    }

    #[test]
    fn table_renders() {
        let pts = run(900.0, 300, 2, 1);
        assert!(table(&pts).render().contains("std (ms)"));
    }
}
