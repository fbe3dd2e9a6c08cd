//! # parflow-dag
//!
//! The DAG model of dynamic multithreaded jobs (Section 2 of the paper).
//!
//! A job `J_i` is a directed acyclic graph whose nodes are sequential strands
//! with positive integer processing times. A node becomes *ready* when all
//! its predecessors have completed; multiple ready nodes of the same job may
//! run simultaneously on different processors. Two parameters characterize a
//! job:
//!
//! * **work** `W_i` — the sum of node processing times (1-processor runtime);
//! * **span** (critical-path length) `P_i` — the longest weighted path
//!   (∞-processor runtime), a lower bound for every scheduler.
//!
//! Crucially, schedulers are **non-clairvoyant**: the DAG *unfolds* as the
//! job executes. [`DagCursor`] is the only interface schedulers get — it
//! exposes ready nodes and completion events, never total work, span, or
//! future structure.
//!
//! The [`shapes`] module generates the DAG families used in the paper's
//! experiments and proofs (parallel-for server requests, fork-join
//! divide-and-conquer, the Section 5 adversarial gadget, random layered DAGs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod builder;
mod cursor;
mod dot;
mod error;
mod graph;
mod job;
pub mod shapes;

pub use arena::{CursorArena, CursorId};
pub use builder::DagBuilder;
pub use cursor::{DagCursor, StepOutcome, UnitOutcome};
pub use error::{DagError, ExecError};
pub use graph::{JobDag, NodeId};
pub use job::{Instance, Job, JobId, Weight};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Random DAG strategy: seed + layered parameters.
    fn arb_dag() -> impl Strategy<Value = JobDag> {
        (any::<u64>(), 1usize..6, 1usize..5, 1u64..8, 0u8..=100).prop_map(
            |(seed, layers, width, work, pct)| {
                let mut rng = SmallRng::seed_from_u64(seed);
                shapes::layered_random(
                    &mut rng,
                    shapes::LayeredParams {
                        layers,
                        max_width: width,
                        max_node_work: work,
                        extra_edge_pct: pct,
                    },
                )
            },
        )
    }

    proptest! {
        #[test]
        fn random_dags_validate(dag in arb_dag()) {
            prop_assert!(dag.validate().is_ok());
        }

        #[test]
        fn span_bounds(dag in arb_dag()) {
            // span ≤ work, and work ≤ span · (number of nodes) trivially.
            prop_assert!(dag.span() <= dag.total_work());
            prop_assert!(dag.total_work() <= dag.span() * dag.num_nodes() as u64);
            prop_assert!(dag.span() >= 1);
        }

        #[test]
        fn greedy_execution_completes_all_work(dag in arb_dag()) {
            // Execute the DAG with a trivially greedy 1-processor loop via
            // the cursor and check conservation of work and that readiness
            // only ever exposes valid nodes.
            let mut cur = DagCursor::new(&dag);
            let mut executed: u64 = 0;
            let mut safety = dag.total_work() + 10;
            while !cur.is_complete() {
                prop_assert!(safety > 0, "cursor failed to make progress");
                safety -= 1;
                let v = cur.ready_nodes()[0];
                cur.claim(v).unwrap();
                // run node to completion
                loop {
                    executed += 1;
                    match cur.execute_unit(&dag, v).unwrap() {
                        UnitOutcome::InProgress => continue,
                        UnitOutcome::NodeCompleted { .. } => break,
                    }
                }
            }
            prop_assert_eq!(executed, dag.total_work());
            prop_assert_eq!(cur.executed_units(), dag.total_work());
            prop_assert_eq!(cur.completed_nodes(), dag.num_nodes());
            prop_assert_eq!(cur.ready_count(), 0);
        }

        #[test]
        fn sequential_execution_time_equals_work(dag in arb_dag()) {
            // One processor, one unit per step: completing the job takes
            // exactly W steps — definition of work.
            let mut cur = DagCursor::new(&dag);
            let mut steps = 0u64;
            let mut current: Option<NodeId> = None;
            while !cur.is_complete() {
                let v = match current {
                    Some(v) => v,
                    None => {
                        let v = cur.ready_nodes()[0];
                        cur.claim(v).unwrap();
                        v
                    }
                };
                steps += 1;
                match cur.execute_unit(&dag, v).unwrap() {
                    UnitOutcome::InProgress => current = Some(v),
                    UnitOutcome::NodeCompleted { .. } => current = None,
                }
            }
            prop_assert_eq!(steps, dag.total_work());
        }

        #[test]
        fn infinite_processor_execution_time_equals_span(dag in arb_dag()) {
            // With unlimited processors executing every ready node each
            // step, the job completes in exactly span steps — definition of
            // the critical path (Proposition 2.1 with all nodes scheduled).
            let mut cur = DagCursor::new(&dag);
            let mut steps = 0u64;
            let mut running: Vec<NodeId> = Vec::new();
            while !cur.is_complete() {
                // claim everything ready
                let ready: Vec<NodeId> = cur.ready_nodes().to_vec();
                for v in ready {
                    cur.claim(v).unwrap();
                    running.push(v);
                }
                steps += 1;
                let mut still: Vec<NodeId> = Vec::new();
                for v in running.drain(..) {
                    match cur.execute_unit(&dag, v).unwrap() {
                        UnitOutcome::InProgress => still.push(v),
                        UnitOutcome::NodeCompleted { .. } => {}
                    }
                }
                running = still;
            }
            prop_assert_eq!(steps, dag.span());
        }

        #[test]
        fn fork_join_shape_properties(depth in 0u32..7, leaf in 1u64..10) {
            let d = shapes::fork_join(depth, leaf);
            let leaves = 1u64 << depth;
            prop_assert_eq!(d.total_work(), leaves * leaf + 2 * (leaves - 1));
            prop_assert_eq!(d.span(), leaf + 2 * depth as u64);
        }

        #[test]
        fn parallel_for_shape_properties(work in 1u64..1000, chunks in 1usize..64) {
            let d = shapes::parallel_for(work, chunks);
            prop_assert_eq!(d.total_work(), work + 2);
            let eff = (chunks as u64).min(work);
            prop_assert_eq!(d.span(), work.div_ceil(eff) + 2);
            prop_assert!(d.validate().is_ok());
        }

        #[test]
        fn instance_sorted_by_arrival(arrivals in proptest::collection::vec(0u64..1000, 1..50)) {
            let dag = std::sync::Arc::new(shapes::single_node(1));
            let jobs: Vec<Job> = arrivals
                .iter()
                .enumerate()
                .map(|(i, &a)| Job::new(i as u32, a, dag.clone()))
                .collect();
            let inst = Instance::new(jobs);
            let got: Vec<_> = inst.jobs().iter().map(|j| j.arrival).collect();
            let mut sorted = arrivals.clone();
            sorted.sort();
            prop_assert_eq!(got, sorted);
            for (i, j) in inst.jobs().iter().enumerate() {
                prop_assert_eq!(j.id as usize, i);
            }
        }
    }
}
