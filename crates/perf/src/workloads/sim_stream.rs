//! `sim_stream` — `SpecJobStream` → `OptTap` → `run_worksteal_stream`
//! (steal-16-first, m = 16, Bing at QPS 1000) with a `StreamingFlowStats`
//! sink. Nothing is materialized: ingest, the OPT tracker and the
//! per-outcome fold are on the critical path, and peak memory must stay
//! O(active jobs).

use super::{dag_build_probe, ratio, sum_of, Counts, Rep, Scale, Workload};
use crate::sys::count_allocs;
use crate::trace::{timed_sink, Agg, Layer, TimedStream, Tracer};
use parflow_bench::stream::{SpecJobStream, FLOW_HIST_BINS, FLOW_HIST_HI_TICKS};
use parflow_core::{
    run_worksteal_stream, JobStream, OptTap, OptTracker, SimConfig, StealPolicy, StreamSummary,
};
use parflow_metrics::StreamingFlowStats;
use parflow_workloads::{DistKind, WorkloadSpec};
use std::time::Instant;

const M: usize = 16;
const QPS: f64 = 1000.0;

pub struct SimStream {
    seed: u64,
    jobs: u64,
    spec: WorkloadSpec,
    /// Total DAG work of the streamed jobs, from a pass over the stream
    /// with no engine behind it: what the engine must report as executed.
    expected_work: u64,
}

impl SimStream {
    pub fn set_up(seed: u64, scale: Scale, tr: &mut Tracer) -> SimStream {
        let jobs = scale.pick(100_000, 1_500);
        let spec = WorkloadSpec::paper_fig2(DistKind::Bing, QPS, 0, seed);
        // The stream is its own generator, so nothing is materialized;
        // set-up is the reference pass the work-conservation check needs.
        let expected_work = tr.leaf(Layer::Bench, "reference pass", || {
            let mut stream = SpecJobStream::new(&spec, jobs);
            let mut work = 0u64;
            while let Some(job) = stream.next_job() {
                work += job.dag.total_work();
            }
            work
        });
        SimStream {
            seed,
            jobs,
            spec,
            expected_work,
        }
    }

    fn policy() -> StealPolicy {
        StealPolicy::StealKFirst { k: 16 }
    }

    fn run_plain(&self) -> Option<(StreamSummary, StreamingFlowStats, OptTracker)> {
        let cfg = SimConfig::new(M).with_free_steals();
        let mut tap = OptTap::new(SpecJobStream::new(&self.spec, self.jobs), M);
        let mut flows = StreamingFlowStats::new(0.0, FLOW_HIST_HI_TICKS, FLOW_HIST_BINS);
        let (summary, _) =
            run_worksteal_stream(&mut tap, &cfg, Self::policy(), self.seed, &mut |o| {
                flows.record(o.flow);
            })
            .ok()?;
        Some((summary, flows, tap.into_parts().1))
    }

    /// The same run with a timing adapter at each layer boundary: ingest
    /// inside the tap inside the engine, and the fold at the sink.
    fn run_traced(
        &self,
        tr: &mut Tracer,
    ) -> Option<(StreamSummary, StreamingFlowStats, OptTracker)> {
        let cfg = SimConfig::new(M).with_free_steals();
        let (mut ingest, mut tap_agg, mut fold) = (Agg::default(), Agg::default(), Agg::default());
        let mut flows = StreamingFlowStats::new(0.0, FLOW_HIST_HI_TICKS, FLOW_HIST_BINS);
        let inner = TimedStream::new(SpecJobStream::new(&self.spec, self.jobs), &mut ingest);
        let mut outer = TimedStream::new(OptTap::new(inner, M), &mut tap_agg);
        let result = tr.leaf(Layer::Core, "run_worksteal_stream", || {
            let mut sink = timed_sink(&mut fold, |o| flows.record(o.flow));
            run_worksteal_stream(&mut outer, &cfg, Self::policy(), self.seed, &mut sink)
        });
        let engine = tr.last_span();
        let opt = outer.into_inner().into_parts().1;
        let tap_span = tr.attach(engine, Layer::Core, "OptTap::next_job", &tap_agg);
        tr.attach(tap_span, Layer::Bench, "SpecJobStream::next_job", &ingest);
        tr.attach(engine, Layer::Metrics, "StreamingFlowStats::record", &fold);
        let (summary, _) = result.ok()?;
        Some((summary, flows, opt))
    }
}

impl Workload for SimStream {
    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        let run = if tr.enabled() {
            self.run_traced(tr)
        } else {
            self.run_plain()
        };
        let Some((summary, flows, opt)) = run else {
            rep.tally.ops(self.jobs, self.jobs);
            return rep;
        };
        let retired = summary.retire.jobs_retired;
        rep.jobs = retired;
        rep.tally.ops(self.jobs, self.jobs.saturating_sub(retired));
        rep.tally.check(flows.count() == self.jobs);
        rep.tally.check(summary.max_flow == flows.max());
        rep.tally.check(opt.arrivals() == self.jobs);
        rep.tally
            .check(summary.stats.work_steps == self.expected_work);
        let bound = opt.combined_lower_bound();
        rep.tally.check(summary.max_flow >= bound);
        rep.counts
            .insert("core.sim_rounds", summary.total_rounds as f64);
        rep.counts.insert(
            "core.sim_steal_attempts",
            summary.stats.steal_attempts as f64,
        );
        rep.counts.insert(
            "core.stream_live_high_water",
            summary.retire.live_jobs_high_water as f64,
        );
        rep.counts.insert(
            "core.max_flow_over_opt",
            ratio(summary.max_flow.to_f64(), bound.to_f64()),
        );
        rep
    }

    fn probes(&mut self, tr: &mut Tracer, out: &mut Counts) {
        // Ingest alone: the DAG-building stream with nobody consuming it.
        let mut stream = SpecJobStream::new(&self.spec, self.jobs);
        let t = Instant::now();
        let (pulled, allocs) = count_allocs(|| {
            tr.leaf(Layer::Bench, "probe SpecJobStream::next_job", || {
                let mut n = 0u64;
                while let Some(job) = stream.next_job() {
                    std::hint::black_box(&job);
                    n += 1;
                }
                n
            })
        });
        out.insert(
            "bench.ingest_ns_per_job",
            ratio(t.elapsed().as_nanos() as f64, pulled as f64),
        );
        if let Some(a) = allocs {
            out.insert(
                "bench.ingest_allocs_per_job",
                ratio(a as f64, pulled as f64),
            );
        }
        // The scalar source under it, and the distinct works it produced.
        let mut source = self.spec.job_source();
        let mut works = Vec::with_capacity(self.jobs as usize);
        let t = Instant::now();
        tr.leaf(Layer::Workloads, "probe JobSource::next_job", || {
            for _ in 0..self.jobs {
                works.push(source.next_job().work);
            }
        });
        out.insert(
            "workloads.source_next_ns",
            ratio(t.elapsed().as_nanos() as f64, self.jobs as f64),
        );
        out.insert(
            "dag.build_ns_per_node",
            dag_build_probe(works.into_iter(), tr),
        );
    }

    fn layer_metrics(&self, tr: &Tracer, reps: &[Rep], out: &mut Counts) {
        let engine = tr.total("run_worksteal_stream");
        let tap = tr.total("OptTap::next_job");
        let ingest = tr.total("SpecJobStream::next_job");
        let fold = tr.total("StreamingFlowStats::record");
        let runs = engine.count.max(1) as f64;
        out.insert(
            "core.stream_rounds_per_s",
            ratio(
                sum_of(reps, "core.sim_rounds"),
                engine.total_ns as f64 / 1e9,
            ),
        );
        // An adapter's own clock reads sit in its caller's time, not in
        // the callee's; take them out of both derived self times.
        let timer = tr.agg_timer_ns();
        let engine_self = engine.total_ns as f64
            - (tap.total_ns + fold.total_ns) as f64
            - (tap.timed + fold.timed) as f64 * timer;
        out.insert(
            "core.stream_engine_self_s",
            engine_self.max(0.0) / 1e9 / runs,
        );
        let tap_self = tap.total_ns as f64 - ingest.total_ns as f64 - ingest.timed as f64 * timer;
        out.insert(
            "core.opt_tracker_ns_per_job",
            ratio(tap_self.max(0.0), tap.count as f64),
        );
        out.insert("metrics.fold_ns_per_outcome", fold.mean_ns());
    }
}
