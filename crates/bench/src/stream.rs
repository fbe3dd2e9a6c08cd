//! Streaming bench adapter: [`WorkloadSpec`] → core [`JobStream`], peak-RSS
//! probing, and high-level streaming runners for exec/serve-soak/sweep.
//!
//! The workloads crate's [`JobSource`] yields `(arrival, work)` scalars;
//! the simulation core wants DAGs. [`SpecJobStream`] bridges them, caching
//! built DAGs by work size (jobs of equal work share one `Arc<JobDag>`, so
//! a 10M-job stream allocates O(distinct work values) DAGs, not O(n)).
//!
//! Note the stream layout caveat from [`JobSource`]: its RNG draw order
//! deliberately differs from [`WorkloadSpec::generate`], so a streaming
//! run over a spec sees a different workload *realization* than the
//! materialized run of the same spec — same distribution, different
//! sample. Bit-identity claims are about [`parflow_core::InstanceReplay`] of a fixed
//! instance, which the differential tests use.

use parflow_core::{
    run_priority_stream_observed, run_worksteal_stream_observed, Fifo, JobOutcome, JobStream,
    OptTap, OptTracker, ScheduleTrace, SimConfig, StealPolicy, StreamError, StreamSummary,
    StreamedJob,
};
use parflow_dag::JobDag;
use parflow_metrics::StreamingFlowStats;
use parflow_obs::{NullRecorder, Recorder};
use parflow_time::Rational;
use parflow_workloads::{JobSource, ShapeKind, WorkloadSpec};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default percentile-histogram range for streaming flow stats: 1 ms bins
/// up to 10 s (flows above saturate into the top bin; max stays exact).
pub const FLOW_HIST_HI_TICKS: f64 = 100_000.0;
/// Bin count matching [`FLOW_HIST_HI_TICKS`] at 10-tick (1 ms) resolution.
pub const FLOW_HIST_BINS: usize = 10_000;

/// DAG-cache capacity: distinct work values seen before the cache resets.
/// Work distributions quantize to ticks, so real workloads saturate a few
/// thousand distinct values; the reset bounds worst-case memory for
/// adversarial continuous distributions.
const DAG_CACHE_CAP: usize = 4096;

/// An endless [`JobStream`] over a [`WorkloadSpec`]'s [`JobSource`],
/// capped at `limit` jobs, with a by-work DAG cache so structurally
/// identical jobs share one DAG allocation.
pub struct SpecJobStream {
    source: JobSource,
    shape: ShapeKind,
    limit: u64,
    produced: u64,
    dag_cache: BTreeMap<u64, Arc<JobDag>>,
}

impl SpecJobStream {
    /// Stream the first `limit` jobs of `spec`'s endless source.
    pub fn new(spec: &WorkloadSpec, limit: u64) -> Self {
        SpecJobStream {
            source: spec.job_source(),
            shape: spec.shape,
            limit,
            produced: 0,
            dag_cache: BTreeMap::new(),
        }
    }
}

impl JobStream for SpecJobStream {
    fn next_job(&mut self) -> Option<StreamedJob> {
        if self.produced >= self.limit {
            return None;
        }
        self.produced += 1;
        let job = self.source.next_job();
        let shape = self.shape;
        if self.dag_cache.len() >= DAG_CACHE_CAP && !self.dag_cache.contains_key(&job.work) {
            // Live jobs keep their Arcs; only the cache's references drop.
            self.dag_cache.clear();
        }
        let dag = self
            .dag_cache
            .entry(job.work)
            .or_insert_with(|| Arc::new(shape.build(job.work)))
            .clone();
        Some(StreamedJob {
            arrival: job.arrival,
            weight: 1,
            dag,
        })
    }
}

/// Peak resident set size of this process in kB, from `/proc/self/status`
/// (`VmHWM`). `None` off Linux — the CI memory-ceiling smoke only runs
/// where it is `Some`.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Result of a high-level streaming run: the engine summary plus streaming
/// flow statistics and the live OPT tracker over the same arrivals.
pub struct StreamRun {
    /// Engine summary (stats, rounds, exact max flow, retirement).
    pub summary: StreamSummary,
    /// Streaming flow statistics (exact max/mean, histogram percentiles).
    pub flows: StreamingFlowStats,
    /// Incremental OPT lower bounds over every streamed arrival.
    pub opt: OptTracker,
    /// Maximum flow over the jobs that completed — under fault injection
    /// the meaningful objective, since a failed job's flow is its
    /// time-to-failure (`summary.max_flow` covers every job).
    pub max_completed_flow: Rational,
}

impl StreamRun {
    /// `max_flow / combined_lower_bound`, `None` when the bound is zero.
    pub(crate) fn competitive_ratio(&self) -> Option<f64> {
        let bound = self.opt.combined_lower_bound().to_f64();
        (bound > 0.0).then(|| self.summary.max_flow.to_f64() / bound)
    }

    /// The streaming report of `exec --stream` and `repro --stream`, no
    /// trailing newline: throughput over `wall_s` seconds on `m` workers,
    /// flow percentiles, the live OPT ratio, the `certificate` line if
    /// there is one, retirement counters and peak RSS. CI greps these
    /// lines and `parflow-certify stream-summary` parses them.
    pub fn render(&self, m: usize, wall_s: f64, certificate: Option<&str>) -> String {
        let s = &self.summary;
        let to_ms = 1000.0 / parflow_workloads::TICKS_PER_SECOND;
        let wall = wall_s.max(1e-9);
        let mut out = format!(
            "streamed {} jobs on {m} workers in {wall_s:.1}s ({:.0} jobs/s, {:.2e} rounds/s)\n",
            s.jobs,
            s.jobs as f64 / wall,
            s.total_rounds as f64 / wall,
        );
        out.push_str(&format!(
            "max flow {:.2} ms, mean {:.2} ms, ~p99 {:.2} ms ({} NaN excluded)\n",
            s.max_flow.to_f64() * to_ms,
            self.flows.mean().unwrap_or(0.0) * to_ms,
            self.flows.quantile(0.99).unwrap_or(0.0) * to_ms,
            self.flows.nan(),
        ));
        out.push_str(&format!(
            "live OPT bound {:.2} ms -> ratio {:.2}\n",
            self.opt.combined_lower_bound().to_f64() * to_ms,
            self.competitive_ratio().unwrap_or(0.0),
        ));
        if let Some(line) = certificate {
            out.push_str(&format!("{line}\n"));
        }
        out.push_str(&format!(
            "retirement: {} retired, {} live high-water, {} slab slots (reuse {:.1}%), {} cursor slots",
            s.retire.jobs_retired,
            s.retire.live_jobs_high_water,
            s.retire.slab_slots,
            s.retire.slab_reuse_ratio().unwrap_or(0.0) * 100.0,
            s.retire.cursor_slots,
        ));
        if let Some(kb) = peak_rss_kb() {
            out.push_str(&format!("\npeak RSS {:.1} MB (VmHWM)", kb as f64 / 1024.0));
        }
        out
    }
}

/// The engine's result, as the streaming entry points of the core return it.
type EngineResult = Result<(StreamSummary, Option<ScheduleTrace>), StreamError>;

/// Drive `engine` over the first `jobs` jobs of `spec`, folding flows into
/// streaming stats and OPT bounds on the fly.
fn run_stream(
    spec: &WorkloadSpec,
    m: usize,
    jobs: u64,
    engine: impl FnOnce(&mut OptTap<SpecJobStream>, &mut dyn FnMut(&JobOutcome)) -> EngineResult,
) -> Result<StreamRun, StreamError> {
    let mut tap = OptTap::new(SpecJobStream::new(spec, jobs), m);
    let mut flows = StreamingFlowStats::new(0.0, FLOW_HIST_HI_TICKS, FLOW_HIST_BINS);
    let mut max_completed_flow = Rational::ZERO;
    let (summary, _) = engine(&mut tap, &mut |o| {
        flows.record(o.flow);
        if o.status.is_completed() {
            max_completed_flow = max_completed_flow.max(o.flow);
        }
    })?;
    let (_, opt) = tap.into_parts();
    Ok(StreamRun {
        summary,
        flows,
        opt,
        max_completed_flow,
    })
}

/// Run the streaming work-stealing engine over the first `jobs` jobs of
/// `spec`.
pub fn run_stream_ws(
    spec: &WorkloadSpec,
    config: &SimConfig,
    policy: StealPolicy,
    seed: u64,
    jobs: u64,
) -> Result<StreamRun, StreamError> {
    run_stream_ws_observed(spec, config, policy, seed, jobs, &mut NullRecorder)
}

/// [`run_stream_ws`] with a [`Recorder`] attached (engine taxonomy plus
/// the `ws.stream.*` retirement counters).
pub fn run_stream_ws_observed(
    spec: &WorkloadSpec,
    config: &SimConfig,
    policy: StealPolicy,
    seed: u64,
    jobs: u64,
    rec: &mut dyn Recorder,
) -> Result<StreamRun, StreamError> {
    run_stream(spec, config.m, jobs, |tap, sink| {
        run_worksteal_stream_observed(tap, config, policy, seed, sink, rec)
    })
}

/// Run the streaming centralized FIFO engine over the first `jobs` jobs of
/// `spec` — the streaming counterpart of `simulate_fifo`.
pub(crate) fn run_stream_fifo(
    spec: &WorkloadSpec,
    config: &SimConfig,
    jobs: u64,
) -> Result<StreamRun, StreamError> {
    run_stream_fifo_observed(spec, config, jobs, &mut NullRecorder)
}

/// `run_stream_fifo` with a [`Recorder`] attached.
pub fn run_stream_fifo_observed(
    spec: &WorkloadSpec,
    config: &SimConfig,
    jobs: u64,
    rec: &mut dyn Recorder,
) -> Result<StreamRun, StreamError> {
    run_stream(spec, config.m, jobs, |tap, sink| {
        run_priority_stream_observed(tap, config, &Fifo, sink, rec)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parflow_workloads::DistKind;

    fn spec(n: usize) -> WorkloadSpec {
        WorkloadSpec::paper_fig2(DistKind::Bing, 1000.0, n, 7)
    }

    #[test]
    fn spec_stream_respects_limit_and_caches_dags() {
        let mut s = SpecJobStream::new(&spec(0), 50);
        let mut jobs = Vec::new();
        while let Some(j) = s.next_job() {
            jobs.push(j);
        }
        assert_eq!(jobs.len(), 50);
        // Arrivals non-decreasing (engine contract).
        assert!(jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        // Equal-work jobs share a DAG allocation.
        assert!(s.dag_cache.len() <= 50);
        for j in &jobs {
            let cached = s.dag_cache.get(&j.dag.total_work());
            if let Some(d) = cached {
                assert!(Arc::ptr_eq(d, &j.dag) || d.total_work() == j.dag.total_work());
            }
        }
    }

    #[test]
    fn stream_run_produces_consistent_stats() {
        let run = run_stream_ws(
            &spec(0),
            &SimConfig::new(4).with_free_steals(),
            StealPolicy::StealKFirst { k: 16 },
            42,
            400,
        )
        .expect("streams cleanly");
        assert_eq!(run.summary.jobs, 400);
        assert_eq!(run.flows.count(), 400);
        assert_eq!(run.summary.max_flow, run.flows.max());
        assert_eq!(run.opt.arrivals(), 400);
        // Engine can't beat the lower bound.
        let ratio = run.competitive_ratio().expect("bound positive");
        assert!(ratio >= 1.0 - 1e-9, "ratio = {ratio}");
        // Steady state recycles: far fewer slots than jobs.
        assert!(run.summary.retire.slab_slots < 400);
        assert_eq!(run.summary.retire.jobs_retired, 400);
    }

    #[test]
    fn fifo_stream_run_completes() {
        let run = run_stream_fifo(&spec(0), &SimConfig::new(4), 200).expect("streams cleanly");
        assert_eq!(run.summary.jobs, 200);
        assert!(run.competitive_ratio().expect("bound positive") >= 1.0 - 1e-9);
    }

    #[test]
    fn peak_rss_probe_parses_on_linux() {
        if let Some(kb) = peak_rss_kb() {
            assert!(kb > 0);
        }
    }
}
