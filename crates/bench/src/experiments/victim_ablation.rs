//! Ablation: what the Lemma 5.1 lower bound actually depends on.
//!
//! The Ω(log n) construction is usually attributed to the *randomization*
//! of victim selection, but measuring it decomposes the effect:
//!
//! * **uniform victims, unit-cost steals** (the paper's model): with
//!   probability `≈ e^{−m/10}` every thief misses the loaded deque long
//!   enough that a gadget runs fully sequentially → max flow `m/10 + 1`.
//! * **round-robin scan, unit-cost steals**: staggered deterministic scans
//!   guarantee exactly one thief probes the loaded deque per round — but
//!   that is still only *one extra stolen task per round*, so the gadget
//!   drains at rate 2 and max flow is still `Θ(m)` (≈ half the uniform
//!   value). Determinism alone does **not** collapse the bound; unit-cost
//!   steals cap steal bandwidth.
//! * **uniform victims, free steals** (the systems model): thieves retry
//!   within the step, all children are stolen the moment they appear, and
//!   max flow collapses to ≈ span + 1 regardless of `m`.
//!
//! Conclusion: the lower bound needs *both* randomized victims and
//! unit-time steals — which is exactly the theory model the paper states
//! it in, and why the tiny-job pathology never shows up in the TBB
//! experiments of Section 6.

use parflow_core::{opt_max_flow, simulate_worksteal, SimConfig, StealPolicy};
use parflow_metrics::Table;
use parflow_workloads::lower_bound_instance;

/// One row: the adversarial instance under the three machine models.
#[derive(Clone, Copy, Debug)]
pub(crate) struct VictimPoint {
    /// Processors.
    pub m: usize,
    /// Jobs.
    pub n: usize,
    /// Max flow: uniform random victims, unit-cost steals (paper model).
    pub uniform_unit: f64,
    /// Max flow: round-robin scan, unit-cost steals.
    pub scan_unit: f64,
    /// Max flow: uniform random victims, free steals (systems model).
    pub uniform_free: f64,
    /// OPT (= 2).
    pub opt: f64,
}

/// Run the sweep (same sizing as the lower-bound experiment).
pub(crate) fn run(ms: &[usize], max_n: usize, seed: u64, threads: usize) -> Vec<VictimPoint> {
    super::par_map(threads, ms.to_vec(), |m| {
        let n = super::lower_bound::jobs_for_m(m, max_n);
        let inst = lower_bound_instance(n, m);
        let flow = |cfg: &SimConfig| {
            simulate_worksteal(&inst, cfg, StealPolicy::AdmitFirst, seed ^ m as u64)
                .max_flow()
                .to_f64()
        };
        VictimPoint {
            m,
            n,
            uniform_unit: flow(&SimConfig::new(m)),
            scan_unit: flow(&SimConfig::new(m).with_victim_scan()),
            uniform_free: flow(&SimConfig::new(m).with_free_steals()),
            opt: opt_max_flow(&inst, m).to_f64().max(2.0),
        }
    })
}

/// Render rows.
pub(crate) fn table(points: &[VictimPoint]) -> Table {
    let mut t = Table::new([
        "m",
        "n",
        "uniform+unit (paper)",
        "scan+unit",
        "uniform+free (TBB-like)",
        "OPT",
    ]);
    for p in points {
        t.row([
            p.m.to_string(),
            p.n.to_string(),
            format!("{:.1}", p.uniform_unit),
            format!("{:.1}", p.scan_unit),
            format!("{:.1}", p.uniform_free),
            format!("{:.1}", p.opt),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposition_of_the_lower_bound() {
        let pts = run(&[40, 60], 20_000, 3, 2);
        for p in &pts {
            // Paper model: some gadget goes (nearly) sequential.
            assert!(p.uniform_unit >= p.m as f64 / 10.0, "{p:?}");
            // Deterministic scan halves the damage but stays Θ(m): the
            // drain rate doubles (owner + one guaranteed steal per round).
            assert!(p.scan_unit <= p.uniform_unit, "{p:?}");
            assert!(p.scan_unit >= p.m as f64 / 20.0, "{p:?}");
            // Free steals collapse the bound to ≈ span + O(1).
            assert!(p.uniform_free <= 6.0, "{p:?}");
        }
        // The uniform+unit degradation grows with m; uniform+free does not.
        assert!(pts[1].uniform_unit > pts[0].uniform_unit);
        assert!(pts[1].uniform_free <= pts[0].uniform_free + 1.0);
    }

    #[test]
    fn table_renders() {
        let pts = run(&[20], 1_000, 1, 1);
        assert!(table(&pts).render().contains("TBB-like"));
    }
}
