//! `sim_batched` — the batched engine: a seed sweep of unit-step
//! steal-128 scan-victim replicas over one admission-bound burst, plus two
//! replicas of a giant machine (m = 256) sharing one lane.
//!
//! The burst is where the k-burn window and the calendar queue do the
//! work; the giant pair is where the bitset idle/victim tracking does.

use super::{ratio, sum_of, Counts, Rep, Scale, Tally, Workload};
use crate::sys::count_allocs;
use crate::trace::{Layer, Tracer};
use parflow_core::{
    opt_max_flow, simulate_batched, simulate_worksteal, ReplicaSpec, SimConfig, SimResult,
    StealPolicy,
};
use parflow_dag::{shapes, Instance, Job};
use parflow_workloads::{qps_for_utilization, DistKind, WorkloadSpec};
use std::sync::Arc;

const M: usize = 16;
const REPLICAS: u64 = 8;
const SWEEP_K: u32 = 128;
const GIANT_M: usize = 256;
const GIANT_UTILIZATION: f64 = 0.65;

pub struct SimBatched {
    burst: Instance,
    sweep: Vec<ReplicaSpec>,
    giant: Instance,
    giant_pair: [ReplicaSpec; 2],
}

impl SimBatched {
    pub fn set_up(seed: u64, scale: Scale, tr: &mut Tracer) -> SimBatched {
        let burst_n: u32 = scale.pick(40_000, 400);
        let giant_n = scale.pick(10_000, 300);
        let burst = tr.leaf(Layer::Dag, "burst instance", || {
            let dag = Arc::new(shapes::single_node(4));
            Instance::new((0..burst_n).map(|i| Job::new(i, 0, dag.clone())).collect())
        });
        let sweep_cfg = SimConfig::new(M).with_victim_scan();
        let sweep = (0..REPLICAS)
            .map(|i| {
                ReplicaSpec::new(
                    sweep_cfg.clone(),
                    StealPolicy::StealKFirst { k: SWEEP_K },
                    seed ^ (i + 1),
                )
            })
            .collect();
        let qps = qps_for_utilization(DistKind::Bing, GIANT_M, GIANT_UTILIZATION);
        let spec = WorkloadSpec::paper_fig2(DistKind::Bing, qps, giant_n, seed);
        let giant = tr.leaf(Layer::Workloads, "WorkloadSpec::generate", || {
            spec.generate()
        });
        let giant_cfg = SimConfig::new(GIANT_M).with_free_steals();
        let policy = StealPolicy::StealKFirst { k: 16 };
        let giant_pair = [
            ReplicaSpec::new(giant_cfg.clone(), policy, seed),
            ReplicaSpec::new(giant_cfg, policy, seed),
        ];
        SimBatched {
            burst,
            sweep,
            giant,
            giant_pair,
        }
    }
}

fn tally_results(tally: &mut Tally, inst: &Instance, results: &[SimResult]) -> (u64, u64, u64) {
    let (mut jobs, mut rounds, mut steals) = (0, 0, 0);
    for r in results {
        tally.ops(inst.len() as u64, r.unfinished().len() as u64);
        tally.check(r.stats.work_steps == inst.total_work());
        jobs += r.outcomes.len() as u64;
        rounds += r.total_rounds;
        steals += r.stats.steal_attempts;
    }
    (jobs, rounds, steals)
}

impl Workload for SimBatched {
    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        let (sweep, sweep_allocs) = count_allocs(|| {
            tr.leaf(Layer::Core, "simulate_batched sweep", || {
                simulate_batched(&self.burst, &self.sweep, self.sweep.len())
            })
        });
        let (giant, giant_allocs) = count_allocs(|| {
            tr.leaf(Layer::Core, "simulate_batched giant-m", || {
                simulate_batched(&self.giant, &self.giant_pair, 1)
            })
        });
        let (j1, sweep_rounds, s1) = tally_results(&mut rep.tally, &self.burst, &sweep);
        let (j2, giant_rounds, s2) = tally_results(&mut rep.tally, &self.giant, &giant);
        // Same seed, same lane: the warm replica must retrace the cold one.
        rep.tally.check(giant[0] == giant[1]);
        rep.jobs = j1 + j2;
        rep.counts
            .insert("core.sim_rounds", (sweep_rounds + giant_rounds) as f64);
        rep.counts
            .insert("core.sim_steal_attempts", (s1 + s2) as f64);
        rep.counts.insert("sweep_rounds", sweep_rounds as f64);
        rep.counts.insert("giant_rounds", giant_rounds as f64);
        rep.counts
            .insert("giant_max_flow", giant[0].max_flow().to_f64());
        if let Some(a) = sweep_allocs.zip(giant_allocs).map(|(a, b)| a + b) {
            rep.counts.insert("batched_allocs", a as f64);
        }
        rep
    }

    fn post_checks(&mut self) -> Tally {
        // Replica 0 of the sweep equals the sequential engine on its spec.
        let mut tally = Tally::default();
        let spec = &self.sweep[0];
        let batched = simulate_batched(&self.burst, std::slice::from_ref(spec), 1);
        let sequential = simulate_worksteal(&self.burst, &spec.config, spec.policy, spec.seed);
        tally.check(batched.first() == Some(&sequential));
        tally
    }

    fn layer_metrics(&self, tr: &Tracer, reps: &[Rep], out: &mut Counts) {
        let rounds = sum_of(reps, "sweep_rounds") + sum_of(reps, "giant_rounds");
        out.insert(
            "core.batched_rounds_per_s",
            ratio(
                sum_of(reps, "sweep_rounds"),
                tr.secs("simulate_batched sweep"),
            ),
        );
        out.insert(
            "core.giant_m_rounds_per_s",
            ratio(
                sum_of(reps, "giant_rounds"),
                tr.secs("simulate_batched giant-m"),
            ),
        );
        out.insert(
            "core.batched_allocs_per_round",
            ratio(sum_of(reps, "batched_allocs"), rounds),
        );
        out.insert(
            "workloads.generate_jobs_per_s",
            ratio(
                self.giant.len() as f64,
                tr.setup_secs("WorkloadSpec::generate"),
            ),
        );
        // The headline run is the giant machine's steal-16-first replica.
        let opt = opt_max_flow(&self.giant, GIANT_M).to_f64();
        let max_flow = reps
            .last()
            .and_then(|r| r.counts.get("giant_max_flow"))
            .copied()
            .unwrap_or(0.0);
        out.insert("core.max_flow_over_opt", ratio(max_flow, opt));
    }
}
