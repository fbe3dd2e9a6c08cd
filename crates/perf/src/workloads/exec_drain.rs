//! `exec_drain` — the real threaded executor draining a backlog.
//!
//! N Bing jobs bridged with `instance_to_workload` at a fixed 20 spin
//! iterations per work unit, all released at time 0, run through
//! `run_workload` on 2 workers: once steal-4-first, once admit-first.
//! Deque, injector and steal overhead dominate; the simulator is absent.
//! The long backlog is what makes a wall time repeat: short runs of this
//! executor vary by +-20 %.

use super::{ratio, sum_of, Counts, Rep, Scale, Workload};
use crate::stats::median;
use crate::trace::{Layer, Tracer};
use parflow::bridge::{instance_to_workload, BridgeConfig};
use parflow_metrics::percentile_sorted;
use parflow_runtime::{try_run_workload, JobSpec, RtPolicy, RuntimeConfig, RuntimeResult};
use parflow_workloads::{DistKind, WorkloadSpec, TICKS_PER_SECOND};
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
const ITERS_PER_UNIT: u64 = 20;
/// Release rate of the paced probe: about half the rate at which the
/// 2-core reference box drains this backlog (~135 k jobs/s).
const PACED_QPS: f64 = 60_000.0;
const PACED_SECONDS: f64 = 1.0;

const POLICIES: [(RtPolicy, &str, &str); 2] = [
    (
        RtPolicy::StealKFirst { k: 4 },
        "run_workload steal-4-first",
        "steal4_jobs",
    ),
    (
        RtPolicy::AdmitFirst,
        "run_workload admit-first",
        "admit_jobs",
    ),
];

pub struct ExecDrain {
    seed: u64,
    scale: Scale,
    backlog: Vec<(Duration, JobSpec)>,
}

fn bridged(
    spec: &WorkloadSpec,
    seconds_per_tick: f64,
    tr: &mut Tracer,
) -> Vec<(Duration, JobSpec)> {
    let inst = tr.leaf(Layer::Workloads, "WorkloadSpec::generate", || {
        spec.generate()
    });
    let cfg = BridgeConfig {
        iters_per_unit: ITERS_PER_UNIT,
        seconds_per_tick,
    };
    tr.leaf(Layer::Runtime, "instance_to_workload", || {
        instance_to_workload(&inst, &cfg)
    })
}

impl ExecDrain {
    pub fn set_up(seed: u64, scale: Scale, tr: &mut Tracer) -> ExecDrain {
        let n = scale.pick(25_000, 300);
        let spec = WorkloadSpec::paper_fig2(DistKind::Bing, 1000.0, n, seed);
        // Zero seconds per tick: the whole instance is released at once.
        let backlog = bridged(&spec, 0.0, tr);
        ExecDrain {
            seed,
            scale,
            backlog,
        }
    }

    fn config(&self, workers: usize, policy: RtPolicy) -> RuntimeConfig {
        RuntimeConfig::new(workers, policy).with_seed(self.seed)
    }
}

fn incomplete(result: &RuntimeResult) -> u64 {
    result
        .jobs
        .iter()
        .filter(|j| !j.status.is_completed())
        .count() as u64
}

impl Workload for ExecDrain {
    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        let n = self.backlog.len() as u64;
        let (mut tasks, mut attempts, mut hits, mut admissions) = (0u64, 0u64, 0u64, 0u64);
        for (policy, span, jobs_key) in POLICIES {
            let cfg = self.config(WORKERS, policy);
            let run = tr.leaf(Layer::Runtime, span, || {
                try_run_workload(&cfg, &self.backlog)
            });
            match run {
                Ok(result) => {
                    rep.tally.ops(n, incomplete(&result));
                    rep.tally.check(result.all_completed() && !result.aborted);
                    rep.jobs += result.jobs.len() as u64;
                    rep.counts.insert(jobs_key, result.jobs.len() as f64);
                    tasks += result.stats.tasks_executed;
                    attempts += result.stats.steal_attempts;
                    hits += result.stats.successful_steals;
                    admissions += result.stats.admissions;
                }
                Err(_) => rep.tally.ops(n, n),
            }
        }
        rep.counts.insert("tasks", tasks as f64);
        rep.counts.insert("steal_attempts", attempts as f64);
        rep.counts.insert("steal_hits", hits as f64);
        rep.counts.insert("admissions", admissions as f64);
        rep
    }

    fn probes(&mut self, tr: &mut Tracer, out: &mut Counts) {
        let steal4 = RtPolicy::StealKFirst { k: 4 };
        // One worker: what the second worker and stealing buy.
        let cfg = self.config(1, steal4);
        let t = Instant::now();
        let single = tr.leaf(Layer::Runtime, "probe run_workload 1 worker", || {
            try_run_workload(&cfg, &self.backlog)
        });
        if single.is_ok() {
            out.insert(
                "runtime.workers1_jobs_per_s",
                ratio(self.backlog.len() as f64, t.elapsed().as_secs_f64()),
            );
        }
        // One job: thread spawn, hand-off and join with nothing to do.
        let cfg = self.config(WORKERS, steal4);
        let one_job = &self.backlog[..1];
        let spawn_join: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                let _ = tr.leaf(Layer::Runtime, "probe run_workload 1 job", || {
                    try_run_workload(&cfg, one_job)
                });
                t.elapsed().as_secs_f64()
            })
            .collect();
        out.insert("runtime.spawn_join_s", median(&spawn_join));
        // Paced: the same job mix released by Poisson offsets at a fixed
        // rate below the drain rate, so flow time is latency, not backlog.
        let paced_jobs = (PACED_QPS * self.scale.pick(PACED_SECONDS, 0.005)) as usize;
        let spec = WorkloadSpec::paper_fig2(DistKind::Bing, PACED_QPS, paced_jobs, self.seed);
        let paced = bridged(&spec, 1.0 / TICKS_PER_SECOND, tr);
        let run = tr.leaf(Layer::Runtime, "probe run_workload paced", || {
            try_run_workload(&cfg, &paced)
        });
        if let Ok(result) = run {
            let mut flows = result.flow_ms();
            flows.sort_by(f64::total_cmp);
            if !flows.is_empty() {
                out.insert("runtime.paced_flow_p50_ms", percentile_sorted(&flows, 0.50));
                out.insert("runtime.paced_flow_p99_ms", percentile_sorted(&flows, 0.99));
                out.insert(
                    "runtime.paced_max_flow_ms",
                    result.max_flow().as_secs_f64() * 1e3,
                );
            }
        }
    }

    fn layer_metrics(&self, tr: &Tracer, reps: &[Rep], out: &mut Counts) {
        let steal4_s = tr.secs(POLICIES[0].1);
        let admit_s = tr.secs(POLICIES[1].1);
        let drain_s = steal4_s + admit_s;
        out.insert("runtime.tasks_per_s", ratio(sum_of(reps, "tasks"), drain_s));
        out.insert(
            "runtime.admissions_per_s",
            ratio(sum_of(reps, "admissions"), drain_s),
        );
        out.insert(
            "runtime.steal_success_ratio",
            ratio(sum_of(reps, "steal_hits"), sum_of(reps, "steal_attempts")),
        );
        out.insert(
            "runtime.drain_jobs_per_s.steal4",
            ratio(sum_of(reps, POLICIES[0].2), steal4_s),
        );
        out.insert(
            "runtime.drain_jobs_per_s.admit",
            ratio(sum_of(reps, POLICIES[1].2), admit_s),
        );
    }
}
