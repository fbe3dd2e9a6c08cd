//! Generators for the DAG shapes used across the paper's experiments.
//!
//! * [`single_node`], [`chain`], [`diamond`] — degenerate/basic shapes for
//!   tests and adversarial constructions;
//! * [`parallel_for`] — the shape the paper's empirical jobs use ("each job
//!   contains CPU-intensive computation and is parallelized using parallel
//!   for loops", Section 6);
//! * [`fork_join`] — recursive binary spawn trees (Cilk-style divide and
//!   conquer);
//! * [`layered_random`] — random layered DAGs for property tests and
//!   robustness experiments;
//! * [`map_reduce`] / [`pipeline`] — dataflow shapes (scatter-gather with a
//!   shuffle barrier; stage-parallel stream operators);
//! * [`adversarial_tiny`] — the Section 5 lower-bound gadget (one root
//!   enabling `m/10` independent unit tasks).

mod adversarial;
mod basic;
mod dataflow;
mod forkjoin;
mod layered;

pub use adversarial::adversarial_tiny;
pub use basic::{chain, diamond, parallel_for, single_node};
pub use dataflow::{map_reduce, pipeline};
pub use forkjoin::fork_join;
pub use layered::{layered_random, LayeredParams};

/// Nodes with no successors, for the shape tests.
#[cfg(test)]
fn sink_count(d: &crate::JobDag) -> usize {
    (0..d.num_nodes())
        .filter(|&v| d.succs(v as crate::NodeId).is_empty())
        .count()
}
