//! Sustained-QPS soak of the streaming admission service.
//!
//! The paper's schedulers assume every arriving job must eventually run;
//! a production admission tier does not. This experiment drives the
//! `parflow-serve` supervisor with a sustained Bing-distributed stream at
//! increasing target utilization — through saturation and into overload —
//! and measures the shape the service promises: under overload it *sheds*
//! (counted, bounded queue) and *rejects against the SLO* instead of
//! letting max flow time grow without bound, so the max virtual flow over
//! **admitted** jobs stays `<= SLO` at every load level while completed
//! work tracks admissions exactly (exactly-once accounting).
//!
//! Virtual flows come from the deterministic admission ledger, so every
//! number in this table is reproducible bit-for-bit from `(seed, stream)`
//! regardless of the worker fleet executing underneath.

use super::PAPER_M;
use parflow_core::OptTracker;
use parflow_metrics::Table;
use parflow_serve::protocol::Submission;
use parflow_serve::supervisor::{ServeConfig, Supervisor};
use parflow_workloads::{qps_for_utilization, DistKind, WorkloadSpec, TICKS_PER_SECOND};

/// Flow-time SLO for the soak: 2 simulated seconds.
pub(crate) const SOAK_SLO_TICKS: u64 = 2 * TICKS_PER_SECOND as u64;

/// One utilization level of the soak sweep.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SoakPoint {
    /// Target utilization of the modelled 16-slot machine.
    pub utilization: f64,
    /// The resulting arrival rate (jobs/s).
    pub qps: f64,
    /// Submissions offered.
    pub submitted: u64,
    /// Ledger admissions.
    pub admitted: u64,
    /// Percentage of submissions shed at the queue bound.
    pub shed_pct: f64,
    /// Percentage rejected against the SLO.
    pub rejected_pct: f64,
    /// p99 virtual flow over admitted jobs, in ms.
    pub p99_flow_ms: f64,
    /// Max virtual flow over admitted jobs, in ms.
    pub max_flow_ms: f64,
    /// Admitted jobs completed exactly once by the worker fleet.
    pub completed: u64,
    /// Whether max admitted flow met the SLO (must always hold).
    pub slo_ok: bool,
    /// Incremental OPT lower bound over the **offered** stream, in ms
    /// (the [`OptTracker`] fed per arrival: squashed-FIFO bound with
    /// span `⌈work/m⌉`, the floor any m-slot schedule pays). Under
    /// overload this grows without bound while the admitted max flow
    /// stays under the SLO — that gap is the value of shedding.
    pub opt_all_ms: f64,
    /// `max_flow_ms / opt_all_ms` (0 when the bound is 0). Below 1.0 in
    /// overload: admitted flows beat what an admit-everything OPT pays.
    pub flow_vs_opt: f64,
}

/// Default sweep: comfortable load, saturation, and 2x overload.
pub(crate) fn default_utils() -> Vec<f64> {
    vec![0.5, 0.8, 1.0, 1.4, 2.0]
}

/// Run the soak at an explicit stream length.
pub(crate) fn run_sized(utils: &[f64], seed: u64, n_jobs: usize) -> Vec<SoakPoint> {
    let to_ms = 1000.0 / TICKS_PER_SECOND;
    let mut out = Vec::new();
    for &util in utils {
        let qps = qps_for_utilization(DistKind::Bing, PAPER_M, util);
        let spec = WorkloadSpec::paper_fig2(DistKind::Bing, qps, n_jobs, seed);
        let mut source = spec.job_source();
        let mut cfg = ServeConfig::new(4);
        cfg.capacity_slots = PAPER_M;
        cfg.queue_cap = 4 * PAPER_M;
        cfg.slo_ticks = Some(SOAK_SLO_TICKS);
        cfg.seed = seed;
        cfg.iters_per_unit = 1;
        let mut sup = Supervisor::new(cfg).expect("soak config is valid");
        let mut opt = OptTracker::new(PAPER_M);
        for _ in 0..n_jobs {
            let job = source.next_job();
            opt.on_arrival(job.arrival, job.work, job.work.div_ceil(PAPER_M as u64));
            sup.offer(Submission {
                id: job.index,
                arrival: job.arrival,
                work: job.work,
                poison: false,
            });
            sup.pump();
        }
        let report = sup.finish();
        let flows = report
            .merged
            .histograms
            .iter()
            .find(|h| h.name == "serve.virtual_flow_ticks");
        let (p99, max) = flows.map(|h| (h.p99, h.max)).unwrap_or((0.0, 0.0));
        let pct = |x: u64| 100.0 * x as f64 / report.submitted.max(1) as f64;
        let opt_all_ms = opt.combined_lower_bound().to_f64() * to_ms;
        out.push(SoakPoint {
            utilization: util,
            qps,
            submitted: report.submitted,
            admitted: report.admitted,
            shed_pct: pct(report.shed),
            rejected_pct: pct(report.rejected_slo),
            p99_flow_ms: p99 * to_ms,
            max_flow_ms: max * to_ms,
            completed: report.completed,
            slo_ok: max <= SOAK_SLO_TICKS as f64,
            opt_all_ms,
            flow_vs_opt: if opt_all_ms > 0.0 {
                max * to_ms / opt_all_ms
            } else {
                0.0
            },
        });
    }
    out
}

/// Render rows.
pub(crate) fn table(points: &[SoakPoint]) -> Table {
    let mut t = Table::new([
        "util",
        "qps",
        "admitted",
        "shed %",
        "rej-slo %",
        "p99 flow (ms)",
        "max flow (ms)",
        "opt-all (ms)",
        "flow/opt",
        "completed",
        "slo",
    ]);
    for p in points {
        t.row([
            format!("{:.2}", p.utilization),
            format!("{:.0}", p.qps),
            format!("{}/{}", p.admitted, p.submitted),
            format!("{:.1}", p.shed_pct),
            format!("{:.1}", p.rejected_pct),
            format!("{:.1}", p.p99_flow_ms),
            format!("{:.1}", p.max_flow_ms),
            format!("{:.1}", p.opt_all_ms),
            format!("{:.2}", p.flow_vs_opt),
            p.completed.to_string(),
            if p.slo_ok { "ok" } else { "VIOLATED" }.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn light_load_admits_everything() {
        let pts = run_sized(&[0.3], 3, 400);
        assert_eq!(pts.len(), 1);
        let p = &pts[0];
        assert_eq!(p.admitted, p.submitted);
        assert_eq!(p.completed, p.admitted);
        assert_eq!(p.shed_pct, 0.0);
        assert!(p.slo_ok);
        // The live OPT bound covers the whole offered stream.
        assert!(p.opt_all_ms > 0.0);
    }

    #[test]
    fn overload_sheds_but_admitted_flows_meet_the_slo() {
        let pts = run_sized(&[0.5, 2.5], 7, 600);
        let (light, heavy) = (&pts[0], &pts[1]);
        assert!(
            heavy.shed_pct + heavy.rejected_pct > 0.0,
            "2.5x overload must shed or reject: {heavy:?}"
        );
        assert!(heavy.admitted < heavy.submitted);
        // The liveness claim: even in overload, admitted max flow <= SLO
        // and everything admitted completes.
        for p in [light, heavy] {
            assert!(p.slo_ok, "SLO violated at util {}: {p:?}", p.utilization);
            assert_eq!(p.completed, p.admitted);
        }
    }

    #[test]
    fn soak_rows_are_deterministic() {
        let a = run_sized(&[1.2], 11, 300);
        let b = run_sized(&[1.2], 11, 300);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn table_renders() {
        let pts = run_sized(&[0.5, 2.0], 1, 200);
        let rendered = table(&pts).render();
        assert!(rendered.contains("shed %"));
        assert!(rendered.contains("ok"));
    }
}
