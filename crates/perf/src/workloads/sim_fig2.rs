//! `sim_fig2` — the paper's Figure 2 regime, materialized.
//!
//! Per repetition, for the Bing, finance and log-normal instances at 75 %
//! utilization of m = 16 with free steals: steal-16-first, admit-first,
//! centralized FIFO, the simulated OPT, and flow statistics of each
//! result. `generate()` is set-up.

use super::{dag_build_probe, ratio, sum_of, Counts, Rep, Scale, Workload};
use crate::stats::median;
use crate::sys::count_allocs;
use crate::trace::{Layer, Tracer};
use parflow_core::{
    opt_max_flow, run_priority, run_worksteal_observed, simulate_worksteal, Fifo, SimConfig,
    StealPolicy,
};
use parflow_dag::Instance;
use parflow_metrics::FlowStats;
use parflow_obs::{AggregatingRecorder, NullRecorder};
use parflow_time::Rational;
use parflow_workloads::{qps_for_utilization, DistKind, WorkloadSpec};
use std::time::Instant;

const M: usize = 16;
const K: u32 = 16;
const UTILIZATION: f64 = 0.75;
const DISTS: [DistKind; 3] = [DistKind::Bing, DistKind::Finance, DistKind::LogNormal];

pub struct SimFig2 {
    seed: u64,
    instances: Vec<Instance>,
}

impl SimFig2 {
    pub fn set_up(seed: u64, scale: Scale, tr: &mut Tracer) -> SimFig2 {
        let n = scale.pick(10_000, 150);
        let instances = DISTS
            .iter()
            .zip(0u64..)
            .map(|(&dist, i)| {
                let qps = qps_for_utilization(dist, M, UTILIZATION);
                let spec = WorkloadSpec::paper_fig2(dist, qps, n, seed.wrapping_add(i));
                tr.leaf(Layer::Workloads, "WorkloadSpec::generate", || {
                    spec.generate()
                })
            })
            .collect();
        SimFig2 { seed, instances }
    }
}

impl Workload for SimFig2 {
    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let cfg = SimConfig::new(M).with_free_steals();
        let mut rep = Rep::default();
        let (mut rounds, mut steals, mut worst) = (0u64, 0u64, 0.0f64);
        let (mut ws_rounds, mut admit_rounds, mut fifo_rounds, mut ws_steals) = (0u64, 0, 0, 0);
        let mut engine_allocs = Some(0u64);
        for inst in &self.instances {
            let (ws, a) = count_allocs(|| {
                tr.leaf(Layer::Core, "simulate_worksteal steal-16-first", || {
                    simulate_worksteal(inst, &cfg, StealPolicy::StealKFirst { k: K }, self.seed)
                })
            });
            let (admit, b) = count_allocs(|| {
                tr.leaf(Layer::Core, "simulate_worksteal admit-first", || {
                    simulate_worksteal(inst, &cfg, StealPolicy::AdmitFirst, self.seed)
                })
            });
            let ((fifo, _), c) = count_allocs(|| {
                tr.leaf(Layer::Core, "run_priority fifo", || {
                    run_priority(inst, &SimConfig::new(M), &Fifo)
                })
            });
            engine_allocs = engine_allocs.and_then(|t| Some(t + a? + b? + c?));
            let opt = tr.leaf(Layer::Core, "opt_max_flow", || opt_max_flow(inst, M));
            for r in [&ws, &admit, &fifo] {
                let flows: Vec<Rational> = r.flows().collect();
                let stats = tr.leaf(Layer::Metrics, "FlowStats::from_flows", || {
                    FlowStats::from_flows(&flows)
                });
                let unfinished = r.unfinished().len() as u64;
                rep.tally.ops(inst.len() as u64, unfinished);
                rep.tally.check(r.stats.work_steps == inst.total_work());
                rep.tally.check(r.max_flow() >= opt);
                rep.tally
                    .check(stats.is_some_and(|s| s.max == r.max_flow()));
                rep.jobs += r.outcomes.len() as u64;
                rounds += r.total_rounds;
                steals += r.stats.steal_attempts;
            }
            ws_rounds += ws.total_rounds;
            ws_steals += ws.stats.steal_attempts;
            admit_rounds += admit.total_rounds;
            fifo_rounds += fifo.total_rounds;
            // The headline policy's competitive ratio, worst instance.
            worst = worst.max(ws.max_flow().to_f64() / opt.to_f64().max(1e-12));
        }
        rep.counts.insert("core.sim_rounds", rounds as f64);
        rep.counts.insert("core.sim_steal_attempts", steals as f64);
        rep.counts.insert("core.max_flow_over_opt", worst);
        rep.counts.insert("ws_rounds", ws_rounds as f64);
        rep.counts.insert("ws_steals", ws_steals as f64);
        rep.counts.insert("admit_rounds", admit_rounds as f64);
        rep.counts.insert("fifo_rounds", fifo_rounds as f64);
        if let Some(a) = engine_allocs {
            rep.counts.insert("engine_allocs", a as f64);
        }
        rep
    }

    fn probes(&mut self, tr: &mut Tracer, out: &mut Counts) {
        let works = self
            .instances
            .iter()
            .flat_map(|i| i.jobs().iter().map(|j| j.work()));
        out.insert("dag.build_ns_per_node", dag_build_probe(works, tr));
        // Recorder cost: the observed entry point into an aggregating
        // recorder against the same entry point into the null recorder.
        let inst = &self.instances[0];
        let cfg = SimConfig::new(M).with_free_steals();
        let policy = StealPolicy::StealKFirst { k: K };
        let (mut with, mut without) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            let t = Instant::now();
            tr.leaf(Layer::Core, "run_worksteal_observed null", || {
                run_worksteal_observed(inst, &cfg, policy, self.seed, &mut NullRecorder)
            });
            without.push(t.elapsed().as_secs_f64());
            let mut rec = AggregatingRecorder::new();
            let t = Instant::now();
            tr.leaf(Layer::Obs, "run_worksteal_observed aggregating", || {
                run_worksteal_observed(inst, &cfg, policy, self.seed, &mut rec)
            });
            with.push(t.elapsed().as_secs_f64());
        }
        out.insert(
            "obs.observed_overhead_ratio",
            median(&with) / median(&without).max(1e-12),
        );
    }

    fn layer_metrics(&self, tr: &Tracer, reps: &[Rep], out: &mut Counts) {
        let n_jobs: f64 = self.instances.iter().map(|i| i.len() as f64).sum();
        let ws_s = tr.secs("simulate_worksteal steal-16-first");
        out.insert(
            "core.ws_rounds_per_s",
            ratio(sum_of(reps, "ws_rounds"), ws_s),
        );
        out.insert(
            "core.ws_steal_attempts_per_s",
            ratio(sum_of(reps, "ws_steals"), ws_s),
        );
        out.insert(
            "core.ws_admit_rounds_per_s",
            ratio(
                sum_of(reps, "admit_rounds"),
                tr.secs("simulate_worksteal admit-first"),
            ),
        );
        out.insert(
            "core.fifo_rounds_per_s",
            ratio(sum_of(reps, "fifo_rounds"), tr.secs("run_priority fifo")),
        );
        let opt = tr.total("opt_max_flow");
        out.insert(
            "core.opt_ns_per_job",
            ratio(opt.total_ns as f64, n_jobs / 3.0 * opt.count as f64),
        );
        let engine_rounds =
            sum_of(reps, "ws_rounds") + sum_of(reps, "admit_rounds") + sum_of(reps, "fifo_rounds");
        out.insert(
            "core.allocs_per_round",
            ratio(sum_of(reps, "engine_allocs"), engine_rounds),
        );
        let stats = tr.total("FlowStats::from_flows");
        out.insert(
            "metrics.flowstats_ns_per_job",
            ratio(stats.total_ns as f64, n_jobs / 3.0 * stats.count as f64),
        );
        out.insert(
            "workloads.generate_jobs_per_s",
            ratio(n_jobs, tr.setup_secs("WorkloadSpec::generate")),
        );
    }
}
