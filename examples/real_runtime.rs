//! The real multithreaded work-stealing executor (Chase–Lev deques + global
//! FIFO admission), the systems counterpart of the simulator — analogous to
//! the paper's extended-TBB implementation.
//!
//! Submits a burst of CPU-bound parallel-for jobs with staggered arrivals
//! and reports wall-clock maximum flow time under both admission policies.
//!
//! ```text
//! cargo run --release --example real_runtime
//! ```

use parflow::prelude::Table;
use parflow::runtime::{run_workload, JobSpec, RtPolicy, RuntimeConfig};
use std::time::Duration;

fn main() {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(4);
    let n_jobs = 200;

    // ~0.5 ms of spin work per job, split into 8 chunks, arriving every
    // 100 µs — roughly 40 % utilization on 8 workers.
    let workload: Vec<(Duration, JobSpec)> = (0..n_jobs)
        .map(|i| {
            (
                Duration::from_micros(100 * i as u64),
                JobSpec::split(400_000, 8),
            )
        })
        .collect();

    println!("real runtime: {workers} workers, {n_jobs} jobs, parallel-for x8 chunks\n");
    let mut table = Table::new([
        "policy",
        "max flow (ms)",
        "mean flow (ms)",
        "steals ok/total",
        "tasks",
    ]);

    for (name, policy) in [
        ("admit-first", RtPolicy::AdmitFirst),
        ("steal-16-first", RtPolicy::StealKFirst { k: 16 }),
    ] {
        let cfg = RuntimeConfig::new(workers, policy);
        let result = run_workload(&cfg, &workload);
        table.row([
            name.to_string(),
            format!("{:.2}", result.max_flow().as_secs_f64() * 1e3),
            format!("{:.2}", result.mean_flow().as_secs_f64() * 1e3),
            format!(
                "{}/{}",
                result.stats.successful_steals, result.stats.steal_attempts
            ),
            result.stats.tasks_executed.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("note: wall-clock numbers vary with the host machine; the point is that");
    println!("both policies drive a real deque-based runtime to completion and expose");
    println!("the same admission-order trade-off the simulator isolates.");
}
