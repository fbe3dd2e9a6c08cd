//! Diagnostic experiment: backlog dynamics under the two admission
//! policies.
//!
//! The Figure 2 gap has a mechanism: admit-first keeps the global queue
//! near-empty by opening jobs eagerly — so many jobs run quasi-sequentially
//! side by side (high *live* count, long per-job latency) — while
//! steal-k-first holds jobs in the queue and finishes the admitted ones
//! with full parallelism (short live list, fast drain, FIFO-like tail).
//! Sampling the engine's queue/live/deque state over time makes that
//! mechanism directly visible.

use super::{PAPER_K, PAPER_M};
use parflow_core::{simulate_worksteal, BacklogSample, SimConfig, StealPolicy};
use parflow_metrics::Table;
use parflow_workloads::{DistKind, WorkloadSpec};

/// Aggregated backlog statistics for one policy.
#[derive(Clone, Debug)]
pub(crate) struct BacklogProfile {
    /// Policy name.
    pub policy: String,
    /// Peak global-queue length.
    pub max_queued: usize,
    /// Mean global-queue length over samples.
    pub mean_queued: f64,
    /// Peak number of concurrently live (admitted, unfinished) jobs.
    pub max_live: usize,
    /// Mean live jobs.
    pub mean_live: f64,
    /// Max flow (ticks).
    pub max_flow: f64,
}

fn profile(policy: StealPolicy, samples: &[BacklogSample], max_flow: f64) -> BacklogProfile {
    let n = samples.len().max(1) as f64;
    BacklogProfile {
        policy: policy.name(),
        max_queued: samples.iter().map(|s| s.queued).max().unwrap_or(0),
        mean_queued: samples.iter().map(|s| s.queued as f64).sum::<f64>() / n,
        max_live: samples.iter().map(|s| s.live).max().unwrap_or(0),
        mean_live: samples.iter().map(|s| s.live as f64).sum::<f64>() / n,
        max_flow,
    }
}

/// Run both policies at the given load with backlog sampling.
pub(crate) fn run(qps: f64, n_jobs: usize, seed: u64) -> Vec<BacklogProfile> {
    let inst = WorkloadSpec::paper_fig2(DistKind::Bing, qps, n_jobs, seed).generate();
    let cfg = SimConfig::new(PAPER_M).with_free_steals().with_sampling(64);
    [
        StealPolicy::AdmitFirst,
        StealPolicy::StealKFirst { k: PAPER_K },
    ]
    .into_iter()
    .map(|policy| {
        let r = simulate_worksteal(&inst, &cfg, policy, seed);
        profile(policy, &r.samples, r.max_flow().to_f64())
    })
    .collect()
}

/// Render rows.
pub(crate) fn table(points: &[BacklogProfile]) -> Table {
    let mut t = Table::new([
        "policy",
        "max queued",
        "mean queued",
        "max live",
        "mean live",
        "max flow (ticks)",
    ]);
    for p in points {
        t.row([
            p.policy.clone(),
            p.max_queued.to_string(),
            format!("{:.1}", p.mean_queued),
            p.max_live.to_string(),
            format!("{:.1}", p.mean_live),
            format!("{:.0}", p.max_flow),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mechanism_is_visible() {
        let pts = run(1200.0, 6_000, 5);
        let admit = &pts[0];
        let steal = &pts[1];
        assert_eq!(admit.policy, "admit-first");
        // admit-first keeps more jobs live concurrently...
        assert!(
            admit.max_live >= steal.max_live,
            "admit live {} vs steal live {}",
            admit.max_live,
            steal.max_live
        );
        // ...while steal-k-first queues more and achieves a lower max flow.
        assert!(
            steal.mean_queued >= admit.mean_queued,
            "steal queued {} vs admit queued {}",
            steal.mean_queued,
            admit.mean_queued
        );
        assert!(steal.max_flow <= admit.max_flow);
    }

    #[test]
    fn table_renders() {
        let pts = run(900.0, 500, 1);
        assert!(table(&pts).render().contains("mean live"));
    }
}
