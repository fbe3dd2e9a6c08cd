//! # parflow-perf
//!
//! The repo's benchmark. Seven named workloads, each stressing different
//! crates of the workspace, measured from outside through their public
//! functions; end-to-end metrics from an untraced run, per-layer metrics
//! and a span trace from a traced one; a comparator that knows each
//! metric's bound and the spread of the runs it is given.
//!
//! `BENCHMARK.json` at the workspace root is the contract: its workload
//! and metric names are the ones in [`spec`], and the crate's test holds
//! the two together. See `README.md` for the tables and how to read them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod json;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;

pub use workloads::{pass_json, result_set_json, run_one, Metric, Opts, Report, Scale, Tally};
