//! What the benchmark declares: workloads and metrics, by name.
//!
//! `perf list` prints these tables, `BENCHMARK.json` repeats the names,
//! units and directions (the crate's test holds the two together), and a
//! run emits exactly these metrics. `moves` records, before anything is
//! measured, which end-to-end metric on which workload a layer metric is
//! expected to move.

/// Default workload seed (the paper's SPAA 2016 date).
pub const DEFAULT_SEED: u64 = 20_160_711;

/// Seconds one run measures when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 10.0;

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadDecl {
    /// Name on the command line and in every report.
    pub name: &'static str,
    /// Why the workload exists: the layers it stresses and the ones it
    /// bypasses.
    pub why: &'static str,
}

/// Whether a smaller or a larger value is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// What a metric is used for.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// End-to-end: measured with tracing off; may worsen by at most
    /// `bound` (a share of the base median) before `compare` fails.
    EndToEnd {
        /// Allowed worsening as a share of the base.
        bound: f64,
    },
    /// Per-layer timing or ratio from the traced run; no bound.
    Layer,
    /// Per-layer count that must repeat bit-for-bit for a seed; a
    /// difference means the schedule (or the input) changed.
    Exact,
}

/// One metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDecl {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end, layer, or exact.
    pub kind: Kind,
    /// The end-to-end metric and workload this should move.
    pub moves: &'static str,
}

/// The seven workloads.
pub const WORKLOADS: &[WorkloadDecl] = &[
    WorkloadDecl {
        name: "sim_fig2",
        why: "the paper's Figure 2 regime, materialized: sequential core worksteal/centralized stepping is >=90% of the work and ingest none",
    },
    WorkloadDecl {
        name: "sim_batched",
        why: "the same core layer used differently: SoA lanes, calendar queue and k-burn windows do the work, the sequential loop none",
    },
    WorkloadDecl {
        name: "sim_stream",
        why: "streaming ingest, per-outcome fold and the OPT tracker are on the critical path here only; the one workload where peak RSS tests the O(active) claim",
    },
    WorkloadDecl {
        name: "certify_trace",
        why: "the engines with trace writing on plus the certifier replay; a hot-loop change that taxes the traced path shows here and not in sim_fig2",
    },
    WorkloadDecl {
        name: "serve_replay",
        why: "parse, ledger, dispatch and ack are the whole cost and the engine is absent; the overload half exercises shed and reject",
    },
    WorkloadDecl {
        name: "exec_drain",
        why: "the real executor draining a backlog on 2 workers: deque, injector and steal overhead dominate, the simulator is absent",
    },
    WorkloadDecl {
        name: "repro_all",
        why: "the command a reader of the paper runs (the repro experiments that scale with PARFLOW_JOBS); only here do the bench drivers (par_map, tables), the fault and the EQUI paths run",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    moves: &'static str,
) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        kind: Kind::EndToEnd { bound },
        moves,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        kind: Kind::Layer,
        moves,
    }
}

const fn exact(name: &'static str, unit: &'static str, moves: &'static str) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better: Better::Lower,
        kind: Kind::Exact,
        moves,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported for every workload with tracing off.
pub const END_TO_END: &[MetricDecl] = &[
    e2e(
        "wall_s",
        "s",
        Lower,
        0.25,
        "wall time of the fastest timed repetition",
    ),
    e2e(
        "jobs_per_s",
        "jobs/s",
        Higher,
        0.25,
        "jobs (submissions, experiment-jobs) completed per repetition / wall_s",
    ),
    e2e(
        "peak_rss_mb",
        "MB",
        Lower,
        0.15,
        "VmHWM of the workload's own process (of the spawned repro on repro_all)",
    ),
    e2e(
        "setup_s",
        "s",
        Lower,
        0.25,
        "fastest of the repeated set-ups: instance generation, jsonl emission, bridging",
    ),
];

const FIG2: &str = "wall_s on sim_fig2 and repro_all";
const BATCHED: &str = "wall_s on sim_batched only";
const STREAM: &str = "wall_s, peak_rss_mb on sim_stream";
const CERT: &str = "wall_s, peak_rss_mb on certify_trace";
const SERVE: &str = "wall_s, jobs_per_s, peak_rss_mb on serve_replay";
const EXEC: &str = "wall_s, jobs_per_s on exec_drain";
const REPRO: &str = "wall_s on repro_all";
const NONE: &str = "none: a difference means the schedule changed";

/// Per-layer metrics, reported for every workload by the traced run; a
/// layer that is not on a workload's path reports 0 there.
pub const PER_LAYER: &[MetricDecl] = &[
    // workloads
    layer(
        "workloads.generate_jobs_per_s",
        "jobs/s",
        Higher,
        "setup_s on sim_fig2, certify_trace; wall_s on repro_all",
    ),
    layer(
        "workloads.source_next_ns",
        "ns",
        Lower,
        "wall_s on sim_stream",
    ),
    layer(
        "workloads.trace_io_mb_per_s",
        "MB/s",
        Higher,
        "wall_s on certify_trace",
    ),
    // dag
    layer(
        "dag.build_ns_per_node",
        "ns",
        Lower,
        "wall_s on sim_stream; setup_s on sim_fig2",
    ),
    // bench
    layer(
        "bench.ingest_ns_per_job",
        "ns",
        Lower,
        "wall_s, jobs_per_s on sim_stream; nothing on sim_fig2",
    ),
    layer(
        "bench.ingest_allocs_per_job",
        "count",
        Lower,
        "wall_s, jobs_per_s on sim_stream; nothing on sim_fig2",
    ),
    layer("bench.experiment_s.victim-ablation", "s", Lower, REPRO),
    layer("bench.experiment_s.lower-bound", "s", Lower, REPRO),
    layer("bench.experiment_s.steal-k", "s", Lower, REPRO),
    layer("bench.experiment_s.variance", "s", Lower, REPRO),
    layer("bench.experiment_s.scaling", "s", Lower, REPRO),
    layer("bench.experiment_s.burst", "s", Lower, REPRO),
    layer("bench.experiment_s.grain", "s", Lower, REPRO),
    layer("bench.experiment_s.fig2-bing", "s", Lower, REPRO),
    layer("bench.experiment_s.fig2-finance", "s", Lower, REPRO),
    layer("bench.experiment_s.theory-ws", "s", Lower, REPRO),
    layer("bench.experiment_s.weighted-ws", "s", Lower, REPRO),
    layer("bench.experiment_s.other", "s", Lower, REPRO),
    // core
    layer("core.ws_rounds_per_s", "1/s", Higher, FIG2),
    layer("core.ws_admit_rounds_per_s", "1/s", Higher, FIG2),
    layer("core.fifo_rounds_per_s", "1/s", Higher, FIG2),
    layer("core.ws_steal_attempts_per_s", "1/s", Higher, FIG2),
    layer("core.opt_ns_per_job", "ns", Lower, FIG2),
    layer("core.allocs_per_round", "count", Lower, FIG2),
    layer("core.batched_rounds_per_s", "1/s", Higher, BATCHED),
    layer("core.giant_m_rounds_per_s", "1/s", Higher, BATCHED),
    layer("core.batched_allocs_per_round", "count", Lower, BATCHED),
    layer("core.stream_rounds_per_s", "1/s", Higher, STREAM),
    layer("core.stream_engine_self_s", "s", Lower, STREAM),
    layer("core.opt_tracker_ns_per_job", "ns", Lower, STREAM),
    exact("core.stream_live_high_water", "count", STREAM),
    layer("core.traced_rounds_per_s", "1/s", Higher, CERT),
    exact("core.trace_spans", "count", CERT),
    exact("core.sim_rounds", "count", NONE),
    exact("core.sim_steal_attempts", "count", NONE),
    exact(
        "core.max_flow_over_opt",
        "ratio",
        "none for a speed-only change; a policy change moves it",
    ),
    // metrics
    layer(
        "metrics.fold_ns_per_outcome",
        "ns",
        Lower,
        "wall_s on sim_stream",
    ),
    layer(
        "metrics.flowstats_ns_per_job",
        "ns",
        Lower,
        "wall_s on sim_fig2",
    ),
    // obs
    layer(
        "obs.observed_overhead_ratio",
        "ratio",
        Lower,
        "none today: the guard for recorder cost",
    ),
    // certify
    layer(
        "certify.rounds_per_s",
        "1/s",
        Higher,
        "wall_s on certify_trace",
    ),
    layer(
        "certify.units_per_s",
        "1/s",
        Higher,
        "wall_s on certify_trace",
    ),
    exact("certify.violations", "count", "failed on certify_trace"),
    // serve
    layer("serve.parse_lines_per_s", "1/s", Higher, SERVE),
    layer("serve.ledger_decide_ns", "ns", Lower, SERVE),
    layer("serve.offer_pump_ns", "ns", Lower, SERVE),
    layer("serve.finish_s", "s", Lower, SERVE),
    layer("serve.submissions_per_s.w1", "1/s", Higher, SERVE),
    layer("serve.submissions_per_s.w2", "1/s", Higher, SERVE),
    layer("serve.wall_flow_p50_ms", "ms", Lower, SERVE),
    layer("serve.wall_flow_p99_ms", "ms", Lower, SERVE),
    exact("serve.shed_ratio", "ratio", SERVE),
    exact("serve.rejected_ratio", "ratio", SERVE),
    layer(
        "serve.rss_kb_per_kjob",
        "kB",
        Lower,
        "peak_rss_mb on serve_replay",
    ),
    // runtime
    layer("runtime.tasks_per_s", "1/s", Higher, EXEC),
    layer("runtime.steal_success_ratio", "ratio", Higher, EXEC),
    layer("runtime.admissions_per_s", "1/s", Higher, EXEC),
    layer("runtime.drain_jobs_per_s.steal4", "jobs/s", Higher, EXEC),
    layer("runtime.drain_jobs_per_s.admit", "jobs/s", Higher, EXEC),
    layer("runtime.workers1_jobs_per_s", "jobs/s", Higher, EXEC),
    layer("runtime.spawn_join_s", "s", Lower, EXEC),
    layer("runtime.paced_flow_p50_ms", "ms", Lower, EXEC),
    layer("runtime.paced_flow_p99_ms", "ms", Lower, EXEC),
    layer("runtime.paced_max_flow_ms", "ms", Lower, EXEC),
    // the trace itself
    layer(
        "trace.overhead_ratio",
        "ratio",
        Lower,
        "none: traced / untraced wall_s of the same repetition",
    ),
    layer(
        "trace.attributed_share",
        "ratio",
        Higher,
        "none: share of the traced wall that named layers account for",
    ),
    layer(
        "share.workloads",
        "ratio",
        Lower,
        "self time of the layer / traced wall",
    ),
    layer(
        "share.dag",
        "ratio",
        Lower,
        "self time of the layer / traced wall",
    ),
    layer(
        "share.bench",
        "ratio",
        Lower,
        "self time of the layer / traced wall",
    ),
    layer(
        "share.core",
        "ratio",
        Lower,
        "self time of the layer / traced wall",
    ),
    layer(
        "share.metrics",
        "ratio",
        Lower,
        "self time of the layer / traced wall",
    ),
    layer(
        "share.obs",
        "ratio",
        Lower,
        "self time of the layer / traced wall",
    ),
    layer(
        "share.certify",
        "ratio",
        Lower,
        "self time of the layer / traced wall",
    ),
    layer(
        "share.serve",
        "ratio",
        Lower,
        "self time of the layer / traced wall",
    ),
    layer(
        "share.runtime",
        "ratio",
        Lower,
        "self time of the layer / traced wall",
    ),
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDecl> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Look a metric up by name, end-to-end first.
pub fn metric(name: &str) -> Option<&'static MetricDecl> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
