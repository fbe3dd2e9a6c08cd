//! # parflow-runtime
//!
//! A real multithreaded work-stealing runtime with a global FIFO admission
//! queue — the systems-level counterpart of the paper's extended-TBB
//! implementation (Section 6). Workers own lock-free Chase–Lev deques
//! (`deque.rs`, safe Rust), steal from random victims, and admit jobs
//! under either the **admit-first** or **steal-k-first** policy. Jobs are
//! CPU-bound parallel-for loops; flow times are measured with wall-clock
//! instants.
//!
//! Use [`run_workload`] with a list of `(arrival offset, JobSpec)` pairs:
//!
//! ```
//! use parflow_runtime::{run_workload, JobSpec, RtPolicy, RuntimeConfig};
//! use std::time::Duration;
//!
//! let cfg = RuntimeConfig::new(2, RtPolicy::StealKFirst { k: 4 });
//! let workload = vec![
//!     (Duration::ZERO, JobSpec::split(20_000, 4)),
//!     (Duration::from_micros(50), JobSpec::split(20_000, 4)),
//! ];
//! let result = run_workload(&cfg, &workload);
//! assert_eq!(result.jobs.len(), 2);
//! assert!(result.max_flow() > Duration::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod deque;
mod executor;
mod task;

pub use executor::{
    run_workload, try_run_workload, FailedRun, RtJobResult, RtPolicy, RtWorkerStats, RuntimeConfig,
    RuntimeError, RuntimeResult, RuntimeStats, NS_PER_TICK,
};
pub use task::{spin_kernel, JobShape, JobSpec};

// Fault-injection vocabulary shared with the simulator, re-exported so
// runtime users do not need a direct parflow-core dependency.
pub use parflow_core::{FaultEvent, FaultKind, FaultPlan, JobStatus};
