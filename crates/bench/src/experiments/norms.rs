//! Extension experiment: ℓ_k norms of flow time and maximum stretch —
//! the open objectives named in the paper's conclusion ("are there online
//! algorithms with strong performance guarantees for other objectives such
//! as the ℓ_k-norms of flow time?") and Section 7's stretch remarks.
//!
//! We compare FIFO, EQUI and the two work-stealing policies on ℓ_1
//! (≈ average flow), ℓ_2, ℓ_∞ (= max flow) and the two DAG-stretch
//! interpretations (`F_i/W_i` and `F_i/P_i`). The structural story: FIFO
//! optimizes the tail (ℓ_∞) at some cost in ℓ_1, EQUI the reverse — the
//! trade-off that motivates studying the whole ℓ_k family.

use super::PAPER_M;
use parflow_core::{
    simulate_equi, simulate_fifo, simulate_worksteal, SimConfig, SimResult, StealPolicy,
};
use parflow_dag::Instance;
use parflow_metrics::{lk_norm, max_stretch, Table};
use parflow_time::Rational;
use parflow_workloads::{DistKind, WorkloadSpec};

/// One scheduler's norm profile.
#[derive(Clone, Debug)]
pub(crate) struct NormPoint {
    /// Scheduler name.
    pub scheduler: String,
    /// ℓ_1 norm of flows (ticks).
    pub l1: f64,
    /// ℓ_2 norm.
    pub l2: f64,
    /// ℓ_∞ norm (max flow).
    pub linf: f64,
    /// Max stretch by total work `max F_i/W_i`.
    pub stretch_work: f64,
    /// Max stretch by span `max F_i/P_i`.
    pub stretch_span: f64,
}

fn profile(name: &str, inst: &Instance, r: &SimResult) -> NormPoint {
    let flows: Vec<Rational> = r.outcomes.iter().map(|o| o.flow).collect();
    let works: Vec<u64> = inst.jobs().iter().map(|j| j.work()).collect();
    let spans: Vec<u64> = inst.jobs().iter().map(|j| j.span()).collect();
    NormPoint {
        scheduler: name.to_string(),
        l1: lk_norm(&flows, 1),
        l2: lk_norm(&flows, 2),
        linf: lk_norm(&flows, u32::MAX),
        stretch_work: max_stretch(&flows, &works),
        stretch_span: max_stretch(&flows, &spans),
    }
}

/// Run the comparison on a medium-load Bing workload.
pub(crate) fn run(n_jobs: usize, seed: u64) -> Vec<NormPoint> {
    let inst = WorkloadSpec::paper_fig2(DistKind::Bing, 1000.0, n_jobs, seed).generate();
    let cfg = SimConfig::new(PAPER_M);
    let cfg_free = SimConfig::new(PAPER_M).with_free_steals();
    vec![
        profile("FIFO", &inst, &simulate_fifo(&inst, &cfg)),
        profile("EQUI", &inst, &simulate_equi(&inst, &cfg)),
        profile(
            "steal-16-first",
            &inst,
            &simulate_worksteal(&inst, &cfg_free, StealPolicy::StealKFirst { k: 16 }, seed),
        ),
        profile(
            "admit-first",
            &inst,
            &simulate_worksteal(&inst, &cfg_free, StealPolicy::AdmitFirst, seed),
        ),
    ]
}

/// Render rows.
pub(crate) fn table(points: &[NormPoint]) -> Table {
    let mut t = Table::new([
        "scheduler",
        "l1 (sum)",
        "l2",
        "linf (max)",
        "max F/W",
        "max F/P",
    ]);
    for p in points {
        t.row([
            p.scheduler.clone(),
            format!("{:.0}", p.l1),
            format!("{:.0}", p.l2),
            format!("{:.0}", p.linf),
            format!("{:.2}", p.stretch_work),
            format!("{:.2}", p.stretch_span),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_profiles_are_consistent() {
        let pts = run(2_000, 9);
        assert_eq!(pts.len(), 4);
        for p in &pts {
            // ℓ_k is non-increasing in k and all values positive.
            assert!(p.l1 >= p.l2 && p.l2 >= p.linf, "{p:?}");
            assert!(p.linf > 0.0);
            assert!(
                p.stretch_work > 0.0 && p.stretch_span >= p.stretch_work,
                "{p:?}"
            );
        }
    }

    #[test]
    fn fifo_wins_the_tail() {
        // FIFO is the max-flow policy: its ℓ_∞ should be the smallest of
        // the four schedulers on this seeded workload.
        let pts = run(2_000, 5);
        let fifo = pts.iter().find(|p| p.scheduler == "FIFO").unwrap();
        for p in &pts {
            assert!(
                fifo.linf <= p.linf * 1.01,
                "FIFO linf {} vs {} {}",
                fifo.linf,
                p.scheduler,
                p.linf
            );
        }
    }

    #[test]
    fn table_renders() {
        let pts = run(500, 1);
        assert!(table(&pts).render().contains("linf (max)"));
    }
}
