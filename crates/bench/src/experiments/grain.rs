//! Ablation: parallel-for chunking granularity.
//!
//! The paper's jobs are parallel-for loops; how finely the body is chunked
//! decides how much parallelism work stealing can actually exploit. Coarse
//! grains (few fat chunks) bound the achievable speedup per job — span
//! grows — while very fine grains add source/sink-relative overhead and
//! deque traffic. This sweep quantifies the U-shape on the Bing workload.

use super::PAPER_M;
use parflow_core::{opt_max_flow, simulate_worksteal, SimConfig, StealPolicy};
use parflow_metrics::Table;
use parflow_workloads::{DistKind, ShapeKind, WorkloadSpec, TICKS_PER_SECOND};

/// One grain data point.
#[derive(Clone, Copy, Debug)]
pub(crate) struct GrainPoint {
    /// Chunk grain in work units (1 unit = 0.1 ms).
    pub grain: u64,
    /// Mean span of the generated jobs (units).
    pub mean_span: f64,
    /// steal-16-first max flow (ms).
    pub max_flow_ms: f64,
    /// OPT max flow (ms) — grain-independent up to the +2 source/sink units.
    pub opt_ms: f64,
}

/// Grains swept by default: 0.1 ms to 12.8 ms per chunk.
pub(crate) fn default_grains() -> Vec<u64> {
    vec![1, 4, 10, 32, 128]
}

/// Run the sweep at the given load.
pub(crate) fn run(grains: &[u64], qps: f64, n_jobs: usize, seed: u64) -> Vec<GrainPoint> {
    let cfg = SimConfig::new(PAPER_M).with_free_steals();
    let to_ms = 1000.0 / TICKS_PER_SECOND;
    super::par_map(grains.to_vec(), |grain| {
        let spec = WorkloadSpec {
            dist: DistKind::Bing,
            shape: ShapeKind::ParallelFor { grain },
            qps: Some(qps),
            period_ticks: 0,
            n_jobs,
            seed,
        };
        let inst = spec.generate();
        let mean_span =
            inst.jobs().iter().map(|j| j.span() as f64).sum::<f64>() / inst.len().max(1) as f64;
        let flow = simulate_worksteal(
            &inst,
            &cfg,
            StealPolicy::StealKFirst { k: 16 },
            seed ^ grain,
        )
        .max_flow();
        GrainPoint {
            grain,
            mean_span,
            max_flow_ms: flow.to_f64() * to_ms,
            opt_ms: opt_max_flow(&inst, PAPER_M).to_f64() * to_ms,
        }
    })
}

/// Render rows.
pub(crate) fn table(points: &[GrainPoint]) -> Table {
    let mut t = Table::new([
        "grain (units)",
        "grain (ms)",
        "mean span (units)",
        "steal-16 max flow (ms)",
        "OPT (ms)",
        "ratio",
    ]);
    for p in points {
        t.row([
            p.grain.to_string(),
            format!("{:.1}", p.grain as f64 / 10.0),
            format!("{:.1}", p.mean_span),
            format!("{:.2}", p.max_flow_ms),
            format!("{:.2}", p.opt_ms),
            format!("{:.2}", p.max_flow_ms / p.opt_ms),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_grows_with_grain() {
        let pts = run(&[1, 128], 1000.0, 1_000, 3);
        assert!(pts[0].mean_span < pts[1].mean_span);
    }

    #[test]
    fn coarse_grain_hurts_tail_latency() {
        // 12.8 ms chunks make wide jobs nearly sequential: the max flow
        // should exceed the fine-grain (1 ms) configuration.
        let pts = run(&[10, 128], 1100.0, 4_000, 7);
        let fine = &pts[0];
        let coarse = &pts[1];
        assert!(
            coarse.max_flow_ms > fine.max_flow_ms,
            "coarse {} should exceed fine {}",
            coarse.max_flow_ms,
            fine.max_flow_ms
        );
    }

    #[test]
    fn table_renders() {
        let pts = run(&[10], 800.0, 300, 1);
        assert!(table(&pts).render().contains("grain (ms)"));
    }
}
