//! # parflow
//!
//! Online scheduling of parallelizable DAG jobs to minimize the maximum
//! flow time — a from-scratch Rust reproduction of Agrawal, Li, Lu &
//! Moseley, *"Scheduling Parallelizable Jobs Online to Minimize the Maximum
//! Flow Time"* (SPAA 2016).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`dag`] — the DAG job model (work/span, dynamic unfolding, shape
//!   generators);
//! * [`core`] — the schedulers: FIFO, BWF, admit-first and steal-k-first
//!   work stealing, the simulated-OPT lower bound, schedule traces and the
//!   Figure 1 interval analyzer;
//! * [`workloads`] — the Bing / finance / log-normal workloads, Poisson
//!   arrivals, and the Section 5 adversarial instance;
//! * [`runtime`] — a real Chase–Lev work-stealing executor with the
//!   same admission policies, measuring wall-clock flow times;
//! * [`metrics`] — flow statistics, histograms, tables;
//! * [`obs`] — the structured observability layer (recorders, events,
//!   `--obs-json` run reports);
//! * [`time`] — exact rational time/speed arithmetic.
//!
//! ## Quickstart
//!
//! ```
//! use parflow::prelude::*;
//!
//! // 100 parallel-for jobs (~10 ms each) arriving at 1000 QPS on 16 cores.
//! let spec = WorkloadSpec::paper_fig2(DistKind::Bing, 1000.0, 100, 42);
//! let inst = spec.generate();
//!
//! let cfg = SimConfig::new(16).with_free_steals();
//! let ws = simulate_worksteal(&inst, &cfg, StealPolicy::StealKFirst { k: 16 }, 1);
//! let opt = opt_max_flow(&inst, 16);
//!
//! assert!(ws.max_flow() >= opt); // OPT lower-bounds every feasible schedule
//! ```

#![forbid(unsafe_code)]

pub mod bridge;
pub mod cli;

pub use parflow_core as core;
pub use parflow_dag as dag;
pub use parflow_metrics as metrics;
pub use parflow_obs as obs;
pub use parflow_runtime as runtime;
pub use parflow_time as time;
pub use parflow_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use parflow_core::{
        analyze_intervals, opt_max_flow, opt_weighted_lower_bound, run_equi, run_priority,
        run_worksteal, simulate_bwf, simulate_equi, simulate_fifo, simulate_worksteal,
        BacklogSample, BiggestWeightFirst, Fifo, SimConfig, SimResult, StealCost, StealPolicy,
        VictimStrategy,
    };
    pub use parflow_dag::{shapes, DagBuilder, DagCursor, Instance, Job, JobDag};
    pub use parflow_metrics::{lk_norm, max_stretch, FlowStats, Histogram, Table};
    pub use parflow_obs::{AggregatingRecorder, JsonRecorder, NullRecorder, ObsReport, Recorder};
    pub use parflow_time::{Rational, Speed};
    pub use parflow_workloads::{
        lower_bound_instance, qps_for_utilization, DistKind, ShapeKind, WorkloadSpec,
        TICKS_PER_SECOND,
    };
}
