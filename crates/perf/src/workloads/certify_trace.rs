//! `certify_trace` — the engines with trace *writing* on, the certifier
//! replay of both traces, and the instance file round trip.
//!
//! One Bing instance at 75 % utilization of m = 16: `run_worksteal` and
//! `run_priority` under `SimConfig::with_trace()`, `certify_run` on both,
//! then `trace_io::save_instance` / `load_instance` through a scratch
//! file. The round trip needs a real `serde_json`; under the offline
//! stand-in it is skipped and `workloads.trace_io_mb_per_s` reports 0.

use super::{ratio, sum_of, Counts, Rep, Scale, Workload};
use crate::sys;
use crate::trace::{Layer, Tracer};
use parflow_certify::certify_run;
use parflow_core::{opt_max_flow, run_priority, run_worksteal, Fifo, SimConfig, StealPolicy};
use parflow_dag::Instance;
use parflow_workloads::trace_io::{load_instance, save_instance};
use parflow_workloads::{qps_for_utilization, DistKind, WorkloadSpec};
use std::path::PathBuf;

const M: usize = 16;
const UTILIZATION: f64 = 0.75;

pub struct CertifyTrace {
    seed: u64,
    instance: Instance,
    /// Scratch file for the round trip; `None` when `serde_json` cannot
    /// serialize in this build.
    file: Option<PathBuf>,
}

impl CertifyTrace {
    pub fn set_up(seed: u64, scale: Scale, tr: &mut Tracer) -> Result<CertifyTrace, String> {
        let n = scale.pick(6_000, 150);
        let qps = qps_for_utilization(DistKind::Bing, M, UTILIZATION);
        let spec = WorkloadSpec::paper_fig2(DistKind::Bing, qps, n, seed);
        let instance = tr.leaf(Layer::Workloads, "WorkloadSpec::generate", || {
            spec.generate()
        });
        let path = sys::scratch_file("instance.json").map_err(|e| format!("scratch file: {e}"))?;
        let one_job = WorkloadSpec::paper_fig2(DistKind::Bing, qps, 1, seed).generate();
        let file = save_instance(&one_job, &path).is_ok().then_some(path);
        Ok(CertifyTrace {
            seed,
            instance,
            file,
        })
    }
}

impl Drop for CertifyTrace {
    fn drop(&mut self) {
        if let Some(path) = &self.file {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Workload for CertifyTrace {
    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        let inst = &self.instance;
        let n = inst.len() as u64;
        let policy = StealPolicy::StealKFirst { k: 16 };
        let ws_cfg = SimConfig::new(M).with_free_steals().with_trace();
        let fifo_cfg = SimConfig::new(M).with_trace();

        let (ws, ws_trace) = tr.leaf(Layer::Core, "run_worksteal traced", || {
            run_worksteal(inst, &ws_cfg, policy, self.seed)
        });
        let (fifo, fifo_trace) = tr.leaf(Layer::Core, "run_priority traced", || {
            run_priority(inst, &fifo_cfg, &Fifo)
        });
        rep.tally.ops(n, ws.unfinished().len() as u64);
        rep.tally.ops(n, fifo.unfinished().len() as u64);
        rep.jobs = (ws.outcomes.len() + fifo.outcomes.len()) as u64;
        rep.counts.insert(
            "core.sim_rounds",
            (ws.total_rounds + fifo.total_rounds) as f64,
        );
        rep.counts
            .insert("core.sim_steal_attempts", ws.stats.steal_attempts as f64);
        rep.counts.insert("ws_max_flow", ws.max_flow().to_f64());

        let (mut violations, mut spans, mut rounds, mut units) = (0u64, 0usize, 0u64, 0u64);
        let runs = [
            (&ws_cfg, Some(policy), &ws, &ws_trace),
            (&fifo_cfg, None, &fifo, &fifo_trace),
        ];
        for (cfg, policy, result, trace) in runs {
            let Some(trace) = trace else {
                rep.tally.check(false);
                continue;
            };
            spans += trace.spans.len();
            let report = tr.leaf(Layer::Certify, "certify_run", || {
                certify_run(inst, cfg, policy, result, trace)
            });
            rep.tally.check(report.is_clean());
            violations += u64::from(!report.is_clean());
            rounds += report.rounds;
            units += report.units;
        }
        // Freeing two traces of one row per busy round is the engine's
        // cost, not the harness's.
        tr.leaf(Layer::Core, "drop traces", || {
            drop((ws, ws_trace, fifo, fifo_trace))
        });
        rep.counts.insert("core.trace_spans", spans as f64);
        rep.counts.insert("certify.violations", violations as f64);
        rep.counts.insert("certified_rounds", rounds as f64);
        rep.counts.insert("certified_units", units as f64);

        if let Some(path) = &self.file {
            let saved = tr.leaf(Layer::Workloads, "trace_io::save_instance", || {
                save_instance(inst, path)
            });
            let loaded = tr.leaf(Layer::Workloads, "trace_io::load_instance", || {
                load_instance(path)
            });
            let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
            rep.counts.insert("trace_io_bytes", 2.0 * bytes as f64);
            rep.tally.check(saved.is_ok());
            rep.tally.check(loaded.is_ok_and(|back| {
                back.len() == inst.len()
                    && back.total_work() == inst.total_work()
                    && back
                        .jobs()
                        .iter()
                        .zip(inst.jobs())
                        .all(|(a, b)| a.arrival == b.arrival)
            }));
        }
        rep
    }

    fn layer_metrics(&self, tr: &Tracer, reps: &[Rep], out: &mut Counts) {
        let engine_s = tr.secs("run_worksteal traced") + tr.secs("run_priority traced");
        out.insert(
            "core.traced_rounds_per_s",
            ratio(sum_of(reps, "core.sim_rounds"), engine_s),
        );
        let certify_s = tr.secs("certify_run");
        out.insert(
            "certify.rounds_per_s",
            ratio(sum_of(reps, "certified_rounds"), certify_s),
        );
        out.insert(
            "certify.units_per_s",
            ratio(sum_of(reps, "certified_units"), certify_s),
        );
        let io_s = tr.secs("trace_io::save_instance") + tr.secs("trace_io::load_instance");
        out.insert(
            "workloads.trace_io_mb_per_s",
            ratio(sum_of(reps, "trace_io_bytes") / 1e6, io_s),
        );
        let max_flow = reps.last().and_then(|r| r.counts.get("ws_max_flow"));
        out.insert(
            "core.max_flow_over_opt",
            ratio(
                max_flow.copied().unwrap_or(0.0),
                opt_max_flow(&self.instance, M).to_f64(),
            ),
        );
        out.insert(
            "workloads.generate_jobs_per_s",
            ratio(
                self.instance.len() as f64,
                tr.setup_secs("WorkloadSpec::generate"),
            ),
        );
    }
}
