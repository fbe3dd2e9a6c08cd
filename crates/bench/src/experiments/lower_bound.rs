//! The Lemma 5.1 lower bound: randomized work stealing is `Ω(log n)`
//! competitive for maximum flow time.
//!
//! Construction (Section 5): `n` identical tiny jobs — one unit root
//! enabling `m/10` independent unit tasks — released every `2m` steps with
//! `m = Θ(log n)` processors. A job that is never successfully stolen from
//! executes sequentially in `≈ m/10` steps, while OPT finishes every job in
//! 2 steps. Each round, all `m−1` idle thieves miss the single loaded deque
//! with probability `(1 − 1/(m−1))^{m−1} ≈ 1/e`, so a job goes fully
//! sequential with probability `≈ e^{−m/10}` and `n ≳ e^{m/10}` jobs
//! suffice to observe one w.h.p. (The paper's formal statement uses the
//! cruder constant `1/2e` and `n = 2^m`; the shape — max flow growing
//! linearly in `m = Θ(log n)` while OPT stays constant — is identical.)

use parflow_core::{opt_max_flow, simulate_fifo, simulate_worksteal, SimConfig, StealPolicy};
use parflow_metrics::Table;
use parflow_workloads::lower_bound_instance;

/// One row of the lower-bound sweep.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LbPoint {
    /// Number of processors (`m = Θ(log n)`).
    pub m: usize,
    /// Number of jobs.
    pub n: usize,
    /// Work stealing (admit-first) max flow in time steps.
    pub ws_max_flow: f64,
    /// FIFO max flow in time steps (stays ≈ 2).
    pub fifo_max_flow: f64,
    /// The OPT lower bound (= 2 for this instance).
    pub opt: f64,
}

impl LbPoint {
    /// Work stealing's competitive ratio on this instance.
    pub(crate) fn ws_ratio(&self) -> f64 {
        self.ws_max_flow / self.opt
    }
}

/// Number of jobs needed at `m` processors to observe a sequential
/// execution w.h.p.: `⌈40·e^{m/10}⌉`, clamped to `max_n`.
pub(crate) fn jobs_for_m(m: usize, max_n: usize) -> usize {
    let n = (40.0 * (m as f64 / 10.0).exp()).ceil() as usize;
    n.clamp(16, max_n)
}

/// Run the sweep over processor counts.
pub(crate) fn run(ms: &[usize], max_n: usize, seed: u64, threads: usize) -> Vec<LbPoint> {
    super::par_map(threads, ms.to_vec(), |m| {
        let n = jobs_for_m(m, max_n);
        let inst = lower_bound_instance(n, m);
        let cfg = SimConfig::new(m);
        let ws = simulate_worksteal(&inst, &cfg, StealPolicy::AdmitFirst, seed ^ m as u64);
        let fifo = simulate_fifo(&inst, &cfg);
        LbPoint {
            m,
            n,
            ws_max_flow: ws.max_flow().to_f64(),
            fifo_max_flow: fifo.max_flow().to_f64(),
            opt: opt_max_flow(&inst, m).to_f64().max(2.0),
        }
    })
}

/// Default sweep for `repro lower-bound`.
pub(crate) fn default_ms() -> Vec<usize> {
    vec![20, 40, 60, 80, 100]
}

/// Render rows.
pub(crate) fn table(points: &[LbPoint]) -> Table {
    let mut t = Table::new([
        "m (=Θ(log n))",
        "n jobs",
        "WS max flow",
        "FIFO max flow",
        "OPT",
        "WS ratio",
    ]);
    for p in points {
        t.row([
            p.m.to_string(),
            p.n.to_string(),
            format!("{:.1}", p.ws_max_flow),
            format!("{:.1}", p.fifo_max_flow),
            format!("{:.1}", p.opt),
            format!("{:.2}", p.ws_ratio()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_scale_exponentially_in_m() {
        assert!(jobs_for_m(20, 1_000_000) < jobs_for_m(40, 1_000_000));
        assert_eq!(jobs_for_m(200, 1000), 1000); // clamped
    }

    #[test]
    fn ws_ratio_grows_with_m() {
        // The core lower-bound phenomenon: WS max flow grows with m while
        // FIFO stays flat. Use modest sizes for test speed.
        let pts = run(&[20, 60], 20_000, 11, 2);
        assert_eq!(pts.len(), 2);
        // FIFO finishes every gadget in ≈ 2 steps (span) at every m.
        for p in &pts {
            assert!(
                p.fifo_max_flow <= 4.0,
                "FIFO should stay near OPT, got {}",
                p.fifo_max_flow
            );
            assert!(p.ws_max_flow >= p.fifo_max_flow);
        }
        // WS degrades as m grows: at m=60 some job should execute (nearly)
        // sequentially, flow ≈ m/10 + admission ≫ flow at m=20.
        assert!(
            pts[1].ws_max_flow > pts[0].ws_max_flow,
            "expected growth: {} vs {}",
            pts[1].ws_max_flow,
            pts[0].ws_max_flow
        );
    }

    #[test]
    fn table_renders() {
        let pts = run(&[20], 1_000, 3, 1);
        let t = table(&pts);
        assert_eq!(t.len(), 1);
        assert!(t.render().contains("WS ratio"));
    }
}
