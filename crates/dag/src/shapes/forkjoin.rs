//! Recursive binary fork-join (divide-and-conquer) DAGs.

use crate::builder::DagBuilder;
use crate::graph::{JobDag, NodeId};
use parflow_time::Work;

/// A Cilk-style recursive fork-join computation of the given `depth`.
///
/// At each internal level a 1-unit *fork* strand spawns two subtrees and a
/// 1-unit *join* strand awaits them. At depth 0 a single leaf of `leaf_work`
/// units runs. The DAG therefore has `2^depth` leaves,
/// work `= 2^depth · leaf_work + 2·(2^depth − 1)` and
/// span `= leaf_work + 2·depth`.
///
/// ```
/// let dag = parflow_dag::shapes::fork_join(3, 5);
/// assert_eq!(dag.total_work(), 8 * 5 + 2 * 7);
/// assert_eq!(dag.span(), 5 + 6);
/// ```
pub fn fork_join(depth: u32, leaf_work: Work) -> JobDag {
    assert!(leaf_work > 0, "leaf work must be positive");
    assert!(
        depth <= 24,
        "fork-join depth {depth} would exceed 16M nodes"
    );
    let mut b = DagBuilder::new();
    build_rec(&mut b, depth, leaf_work);
    b.build().expect("valid by construction")
}

/// Recursively emit the subtree; returns (entry, exit) node ids.
fn build_rec(b: &mut DagBuilder, depth: u32, leaf_work: Work) -> (NodeId, NodeId) {
    if depth == 0 {
        let leaf = b.add_node(leaf_work);
        return (leaf, leaf);
    }
    let fork = b.add_node(1);
    let join = b.add_node(1);
    let (l_in, l_out) = build_rec(b, depth - 1, leaf_work);
    let (r_in, r_out) = build_rec(b, depth - 1, leaf_work);
    b.add_edge(fork, l_in).expect("valid");
    b.add_edge(fork, r_in).expect("valid");
    b.add_edge(l_out, join).expect("valid");
    b.add_edge(r_out, join).expect("valid");
    (fork, join)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_zero_is_single_leaf() {
        let d = fork_join(0, 7);
        assert_eq!(d.num_nodes(), 1);
        assert_eq!(d.total_work(), 7);
        assert_eq!(d.span(), 7);
    }

    #[test]
    fn depth_one() {
        // fork + join + 2 leaves
        let d = fork_join(1, 5);
        assert_eq!(d.num_nodes(), 4);
        assert_eq!(d.total_work(), 2 * 5 + 2);
        assert_eq!(d.span(), 5 + 2);
    }

    #[test]
    fn formulas_hold_for_depths() {
        for depth in 0..8u32 {
            for leaf in [1u64, 3, 10] {
                let d = fork_join(depth, leaf);
                let leaves = 1u64 << depth;
                assert_eq!(d.total_work(), leaves * leaf + 2 * (leaves - 1));
                assert_eq!(d.span(), leaf + 2 * depth as u64);
                assert_eq!(d.num_nodes() as u64, leaves + 2 * (leaves - 1));
                assert!(d.validate().is_ok());
            }
        }
    }

    #[test]
    fn single_source_single_sink() {
        let d = fork_join(4, 2);
        assert_eq!(d.sources().len(), 1);
        assert_eq!(crate::shapes::sink_count(&d), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_leaf_work_panics() {
        let _ = fork_join(2, 0);
    }
}
