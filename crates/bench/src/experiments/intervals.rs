//! Figure 1: the interval decomposition of an execution trace.
//!
//! Runs a loaded workload, finds the maximum-flow job and reconstructs the
//! `[t', t_β], …, [t_0, r_i], [r_i, c_i]` interval set used by the
//! Section 4/7 proofs, printing each interval with its defining job.

use super::PAPER_M;
use parflow_core::{analyze_intervals, simulate_worksteal, SimConfig, StealPolicy};
use parflow_metrics::Table;
use parflow_time::Rational;
use parflow_workloads::{DistKind, WorkloadSpec};

/// Run the decomposition on a high-load Bing workload; `epsilon` is the
/// analysis ε (numerator, denominator).
pub(crate) fn run(
    n_jobs: usize,
    seed: u64,
    epsilon: (i128, i128),
) -> Option<parflow_core::IntervalAnalysis> {
    let qps = parflow_workloads::qps_for_utilization(DistKind::Bing, PAPER_M, 0.9);
    let inst = WorkloadSpec::paper_fig2(DistKind::Bing, qps, n_jobs, seed).generate();
    let cfg = SimConfig::new(PAPER_M).with_free_steals();
    let result = simulate_worksteal(&inst, &cfg, StealPolicy::StealKFirst { k: 16 }, seed);
    analyze_intervals(&result, Rational::new(epsilon.0, epsilon.1))
}

/// Render the analysis as a table.
pub(crate) fn table(a: &parflow_core::IntervalAnalysis) -> Table {
    let mut t = Table::new(["interval", "start", "end", "length", "defining job"]);
    let beta = a.beta();
    for (i, iv) in a.intervals.iter().enumerate() {
        let label = if i + 1 == a.intervals.len() {
            "[r_i, c_i]".to_string()
        } else {
            format!("[t_{}, t_{}]", beta - i, beta - i - 1)
        };
        t.row([
            label,
            format!("{:.1}", iv.start.to_f64()),
            format!("{:.1}", iv.end.to_f64()),
            format!("{:.1}", iv.len().to_f64()),
            iv.defining_job
                .map(|j| j.to_string())
                .unwrap_or_else(|| "-".to_string()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analysis_runs_and_renders() {
        let a = run(2_000, 13, (1, 10)).expect("non-empty instance");
        assert!(!a.intervals.is_empty());
        let t = table(&a);
        assert_eq!(t.len(), a.intervals.len());
        assert!(t.render().contains("[r_i, c_i]"));
    }

    #[test]
    fn final_interval_is_flow() {
        let a = run(1_000, 3, (1, 10)).unwrap();
        let last = a.intervals.last().unwrap();
        assert_eq!(last.len(), a.flow);
    }
}
