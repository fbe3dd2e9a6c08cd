//! Streaming bench adapter: [`WorkloadSpec`] → core [`JobStream`], peak-RSS
//! probing, and the one streaming runner, [`run_stream`], behind
//! `parflow exec --stream` and `sweep --stream`.
//!
//! The workloads crate's [`JobSource`] yields `(arrival, work)` scalars;
//! the simulation core wants DAGs. [`SpecJobStream`] bridges them through
//! the workloads crate's [`DagCache`] (jobs of equal work share one
//! `Arc<JobDag>`, so a 10M-job stream allocates O(distinct work values)
//! DAGs, not O(n)).
//!
//! Note the stream layout caveat from [`JobSource`]: its RNG draw order
//! deliberately differs from [`WorkloadSpec::generate`], so a streaming
//! run over a spec sees a different workload *realization* than the
//! materialized run of the same spec — same distribution, different
//! sample. Bit-identity claims are about [`parflow_core::InstanceReplay`] of a fixed
//! instance, which the differential tests use.

use parflow_certify::{certify_stream_summary, CertReport};
use parflow_core::{
    run_priority_stream, run_worksteal_stream_observed, Fifo, JobOutcome, JobStream, OptTap,
    OptTracker, SimConfig, StealPolicy, StreamError, StreamSummary, StreamedJob,
};
use parflow_metrics::StreamingFlowStats;
use parflow_obs::Recorder;
use parflow_time::{Rational, Speed};
use parflow_workloads::{DagCache, JobSource, WorkloadSpec};

/// Default percentile-histogram range for streaming flow stats: 1 ms bins
/// up to 10 s (flows above saturate into the top bin; max stays exact).
pub const FLOW_HIST_HI_TICKS: f64 = 100_000.0;
/// Bin count matching [`FLOW_HIST_HI_TICKS`] at 10-tick (1 ms) resolution.
pub const FLOW_HIST_BINS: usize = 10_000;

/// An endless [`JobStream`] over a [`WorkloadSpec`]'s [`JobSource`],
/// capped at `limit` jobs; jobs of equal work share one DAG allocation.
pub struct SpecJobStream {
    source: JobSource,
    dags: DagCache,
    limit: u64,
    produced: u64,
}

impl SpecJobStream {
    /// Stream the first `limit` jobs of `spec`'s endless source.
    pub fn new(spec: &WorkloadSpec, limit: u64) -> Self {
        SpecJobStream {
            source: spec.job_source(),
            dags: DagCache::new(spec.shape),
            limit,
            produced: 0,
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
        Some(StreamedJob {
            arrival: job.arrival,
            weight: 1,
            dag: self.dags.dag(job.work),
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

    /// The P5 certificate of this run at `speed`: the exact max flow must
    /// dominate the live OPT bound (see [`certify_stream_summary`]).
    /// Skipped when a fault fired, as [`parflow_certify::certify_run`]
    /// skips faulted runs: the fault-free model does not apply, and a
    /// failed job's flow is no service flow to hold P5 to.
    pub fn certify(&self, speed: Speed) -> CertReport {
        let (s, stats) = (&self.summary, &self.summary.stats);
        let fired = !s.fault_events.is_empty()
            || stats.crashed_workers + stats.reinjected_tasks + stats.injected_panics > 0
            || stats.faulted_steps > 0;
        if fired {
            return CertReport {
                skipped: Some(
                    "fault-injected run: the fault-free feasibility model does not apply".into(),
                ),
                ..CertReport::default()
            };
        }
        certify_stream_summary(speed, s.jobs, s.max_flow, self.opt.combined_lower_bound())
    }

    /// The streaming report of `exec --stream`, no trailing newline:
    /// throughput over `wall_s` seconds on `m` workers, flow percentiles,
    /// the live OPT ratio, the `certificate` line if there is one,
    /// retirement counters and peak RSS. CI greps these lines.
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

/// Run the first `jobs` jobs of `spec` through the streaming engine —
/// work stealing under `policy`, or centralized FIFO (the streaming
/// counterpart of `simulate_fifo`) when `policy` is `None` — folding
/// flows into streaming stats and OPT bounds on the fly. `rec` gets the
/// engine's taxonomy plus its `*.stream.*` retirement counters.
pub fn run_stream(
    spec: &WorkloadSpec,
    config: &SimConfig,
    policy: Option<StealPolicy>,
    seed: u64,
    jobs: u64,
    rec: &mut dyn Recorder,
) -> Result<StreamRun, StreamError> {
    let mut tap = OptTap::new(SpecJobStream::new(spec, jobs), config.m);
    let mut flows = StreamingFlowStats::new(0.0, FLOW_HIST_HI_TICKS, FLOW_HIST_BINS);
    let mut max_completed_flow = Rational::ZERO;
    let sink = &mut |o: &JobOutcome| {
        flows.record(o.flow);
        if o.status.is_completed() {
            max_completed_flow = max_completed_flow.max(o.flow);
        }
    };
    let (summary, _) = match policy {
        Some(p) => run_worksteal_stream_observed(&mut tap, config, p, seed, sink, rec)?,
        None => run_priority_stream(&mut tap, config, &Fifo, sink, rec)?,
    };
    let (_, opt) = tap.into_parts();
    Ok(StreamRun {
        summary,
        flows,
        opt,
        max_completed_flow,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parflow_obs::NullRecorder;
    use parflow_workloads::DistKind;

    fn spec(n: usize) -> WorkloadSpec {
        WorkloadSpec::paper_fig2(DistKind::Bing, 1000.0, n, 7)
    }

    #[test]
    fn spec_stream_respects_limit() {
        let mut s = SpecJobStream::new(&spec(0), 50);
        let mut jobs = Vec::new();
        while let Some(j) = s.next_job() {
            jobs.push(j);
        }
        assert_eq!(jobs.len(), 50);
        // Arrivals non-decreasing (engine contract).
        assert!(jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    fn stream_run_produces_consistent_stats() {
        let run = run_stream(
            &spec(0),
            &SimConfig::new(4).with_free_steals(),
            Some(StealPolicy::StealKFirst { k: 16 }),
            42,
            400,
            &mut NullRecorder,
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
        let run = run_stream(
            &spec(0),
            &SimConfig::new(4),
            None,
            0,
            200,
            &mut NullRecorder,
        )
        .expect("streams cleanly");
        assert_eq!(run.summary.jobs, 200);
        assert!(run.competitive_ratio().expect("bound positive") >= 1.0 - 1e-9);
        assert!(run.certify(Speed::ONE).is_clean());
    }

    #[test]
    fn peak_rss_probe_parses_on_linux() {
        if let Some(kb) = peak_rss_kb() {
            assert!(kb > 0);
        }
    }
}
