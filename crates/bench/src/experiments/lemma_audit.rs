//! Lemma audit: measure the proof-level quantities of Sections 3–4 on real
//! schedules and report how much slack the analysis leaves.
//!
//! * Proposition 2.1 bound: worst ratio of non-full rounds to span across
//!   jobs for the centralized schedulers (proved ≤ 1; measured ≪ 1);
//! * Lemma 4.5 constant: worst normalized idling `idling/(m·P_i + ln n)`
//!   under work stealing (proved ≤ 64 w.h.p.; measured ≪ 64);
//! * Theorem 4.1 accounting: executed vs available work over `[t_β, c_i]`
//!   (feasibility demands executed ≤ available).

use super::PAPER_M;
use parflow_core::{
    check_greedy_nonfull_bound, interval_accounting, run_priority, run_worksteal, ws_idling_report,
    Fifo, RoundActivity, SimConfig, StealPolicy,
};
use parflow_metrics::Table;
use parflow_time::Rational;
use parflow_workloads::{DistKind, WorkloadSpec};

/// The audit summary.
#[derive(Clone, Debug)]
pub(crate) struct LemmaAudit {
    /// Worst job-wise ratio non-full-rounds / span under FIFO (bound: 1).
    pub fifo_nonfull_worst: f64,
    /// Whether the deterministic bound held exactly (it must).
    pub fifo_bound_ok: bool,
    /// Worst normalized idling under steal-k-first (Lemma 4.5 bound: 64).
    pub ws_idling_worst: f64,
    /// Executed work in `[t_β, c_i]` under steal-k-first.
    pub executed: u64,
    /// Available work in the same window.
    pub available: u64,
}

/// Run the audit on a loaded Bing workload.
pub(crate) fn run(n_jobs: usize, seed: u64) -> LemmaAudit {
    let qps = parflow_workloads::qps_for_utilization(DistKind::Bing, PAPER_M, 0.85);
    let inst = WorkloadSpec::paper_fig2(DistKind::Bing, qps, n_jobs, seed).generate();
    let cfg = SimConfig::new(PAPER_M).with_trace();

    // FIFO non-full bound.
    let (fifo_r, fifo_t) = run_priority(&inst, &cfg, &Fifo);
    let fifo_t = fifo_t.expect("trace recorded");
    let fifo_bound_ok = check_greedy_nonfull_bound(&inst, &fifo_r, &fifo_t).is_ok();
    let activity = RoundActivity::from_trace(&fifo_t);
    let fifo_nonfull_worst = fifo_r
        .outcomes
        .iter()
        .map(|o| {
            let job = &inst.jobs()[o.job as usize];
            let from = fifo_r.speed.first_round_at_or_after(job.arrival);
            activity.nonfull_rounds_in(from, o.completion_round) as f64 / job.span() as f64
        })
        .fold(0.0, f64::max);

    // Work-stealing idling + interval accounting.
    let (ws_r, ws_t) = run_worksteal(&inst, &cfg, StealPolicy::StealKFirst { k: 16 }, seed);
    let ws_t = ws_t.expect("trace recorded");
    let idling = ws_idling_report(&inst, &ws_r, &ws_t);
    let acc =
        interval_accounting(&inst, &ws_r, &ws_t, Rational::new(1, 10)).expect("non-empty instance");

    LemmaAudit {
        fifo_nonfull_worst,
        fifo_bound_ok,
        ws_idling_worst: idling.worst,
        executed: acc.executed,
        available: acc.available,
    }
}

/// Render the audit.
pub(crate) fn table(a: &LemmaAudit) -> Table {
    let mut t = Table::new(["quantity", "measured", "proof bound", "holds"]);
    t.row([
        "FIFO non-full rounds / span (worst job)".to_string(),
        format!("{:.3}", a.fifo_nonfull_worst),
        "1 (Prop. 2.1)".to_string(),
        a.fifo_bound_ok.to_string(),
    ]);
    t.row([
        "WS idling / (m*P_i + ln n) (worst job)".to_string(),
        format!("{:.3}", a.ws_idling_worst),
        "64 (Lemma 4.5)".to_string(),
        (a.ws_idling_worst <= 64.0).to_string(),
    ]);
    t.row([
        "WS executed work in [t_beta, c_i]".to_string(),
        a.executed.to_string(),
        format!("<= available ({})", a.available),
        (a.executed <= a.available).to_string(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_passes_all_bounds() {
        let a = run(2_000, 7);
        assert!(a.fifo_bound_ok);
        assert!(a.fifo_nonfull_worst <= 1.0);
        assert!(a.ws_idling_worst <= 64.0, "{}", a.ws_idling_worst);
        assert!(a.executed <= a.available);
    }

    #[test]
    fn table_renders() {
        let a = run(300, 1);
        let s = table(&a).render();
        assert!(s.contains("Prop. 2.1"));
        assert!(s.contains("Lemma 4.5"));
    }
}
