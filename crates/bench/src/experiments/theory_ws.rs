//! Theorem 4.1 / Corollaries 4.2–4.3 validation: steal-k-first with
//! `(k+1+ε)` speed has maximum flow `O((1/ε²)·max{OPT, ln n})` w.h.p.
//!
//! For each `(k, ε)` we run steal-k-first at speed `k+1+ε` and report the
//! normalized value `max-flow / max{OPT, ln n}`, which the theorem bounds
//! by `c/ε²` for a universal constant. The sweep shows the normalized value
//! staying bounded as `n` grows — the substance of the w.h.p. guarantee —
//! and far below the (loose) proof constant 65.

use super::PAPER_M;
use parflow_core::{opt_max_flow, simulate_worksteal, SimConfig, StealPolicy};
use parflow_metrics::Table;
use parflow_time::Speed;
use parflow_workloads::{DistKind, WorkloadSpec};

/// One `(k, ε, n)` data point.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WsPoint {
    /// steal-k-first parameter.
    pub k: u32,
    /// ε (speed = k + 1 + ε).
    pub epsilon: f64,
    /// Number of jobs.
    pub n: usize,
    /// Max flow of steal-k-first at the augmented speed (ticks).
    pub ws_max_flow: f64,
    /// `max{OPT, ln n}` at unit speed (ticks).
    pub denom: f64,
    /// Normalized value `ws_max_flow / denom` (theorem: `≤ c/ε²`).
    pub normalized: f64,
}

/// Run the sweep: `k ∈ ks`, fixed ε = 1/2, growing n.
pub(crate) fn run(ks: &[u32], ns: &[usize], seed: u64) -> Vec<WsPoint> {
    let pairs: Vec<(u32, usize)> = ks
        .iter()
        .flat_map(|&k| ns.iter().map(move |&n| (k, n)))
        .collect();
    super::par_map(pairs, |(k, n)| {
        // Speed = k + 1 + ε with ε = 1/2 → (2k + 3) / 2.
        let speed = Speed::new(2 * (k as u64) + 3, 2);
        let epsilon = 0.5;
        let qps = parflow_workloads::qps_for_utilization(DistKind::Bing, PAPER_M, 0.9);
        let inst = WorkloadSpec::paper_fig2(DistKind::Bing, qps, n, seed ^ n as u64).generate();
        let cfg = SimConfig::new(PAPER_M).with_speed(speed);
        let policy = if k == 0 {
            StealPolicy::AdmitFirst
        } else {
            StealPolicy::StealKFirst { k }
        };
        let flow = simulate_worksteal(&inst, &cfg, policy, seed ^ (k as u64) << 8)
            .max_flow()
            .to_f64();
        let opt = opt_max_flow(&inst, PAPER_M).to_f64();
        let denom = opt.max((n as f64).ln());
        WsPoint {
            k,
            epsilon,
            n,
            ws_max_flow: flow,
            denom,
            normalized: flow / denom,
        }
    })
}

/// Render rows.
pub(crate) fn table(points: &[WsPoint]) -> Table {
    let mut t = Table::new([
        "k",
        "speed",
        "n",
        "WS max flow",
        "max{OPT, ln n}",
        "normalized",
        "bound c/eps^2 (c=65)",
    ]);
    for p in points {
        t.row([
            p.k.to_string(),
            format!("{:.1}", p.k as f64 + 1.0 + p.epsilon),
            p.n.to_string(),
            format!("{:.1}", p.ws_max_flow),
            format!("{:.1}", p.denom),
            format!("{:.3}", p.normalized),
            format!("{:.0}", 65.0 / (p.epsilon * p.epsilon)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_value_stays_bounded() {
        let pts = run(&[0, 2], &[500, 2_000], 3);
        assert_eq!(pts.len(), 4);
        for p in &pts {
            // Theorem ceiling with the paper's constant: 65/ε² = 260.
            assert!(
                p.normalized <= 65.0 / (p.epsilon * p.epsilon),
                "Theorem 4.1 ceiling exceeded: {p:?}"
            );
            assert!(p.normalized > 0.0);
        }
    }

    #[test]
    fn growth_with_n_is_sublinear() {
        // The w.h.p. bound implies max flow grows like max{OPT, ln n}, so
        // quadrupling n must not quadruple the normalized value.
        let pts = run(&[1], &[500, 2_000], 7);
        let (small, large) = (pts[0].normalized, pts[1].normalized);
        assert!(
            large <= small * 4.0,
            "normalized flow should not scale with n: {small} -> {large}"
        );
    }

    #[test]
    fn table_renders() {
        let pts = run(&[0], &[200], 1);
        assert!(table(&pts).render().contains("normalized"));
    }
}
