//! Checked construction of [`JobDag`] values.

use crate::error::DagError;
use crate::graph::{JobDag, NodeId};
use parflow_time::Work;

/// Incrementally assembles a [`JobDag`], validating on [`DagBuilder::build`].
///
/// ```
/// use parflow_dag::DagBuilder;
///
/// let mut b = DagBuilder::new();
/// let fork = b.add_node(1);
/// let left = b.add_node(10);
/// let right = b.add_node(10);
/// let join = b.add_node(1);
/// b.add_edge(fork, left).unwrap();
/// b.add_edge(fork, right).unwrap();
/// b.add_edge(left, join).unwrap();
/// b.add_edge(right, join).unwrap();
/// let dag = b.build().unwrap();
/// assert_eq!(dag.total_work(), 22);
/// assert_eq!(dag.span(), 12);
/// ```
#[derive(Clone, Debug, Default)]
pub struct DagBuilder {
    works: Vec<Work>,
    edges: Vec<(NodeId, NodeId)>,
}

impl DagBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node with `work` units of processing time; returns its id.
    pub fn add_node(&mut self, work: Work) -> NodeId {
        let id = self.works.len() as NodeId;
        self.works.push(work);
        id
    }

    /// Fluent variant of [`DagBuilder::add_node`] for one-liners.
    pub fn node(mut self, work: Work) -> Self {
        self.add_node(work);
        self
    }

    /// Add a precedence edge `from -> to`. Fails fast on self-loops and
    /// references to undeclared nodes; duplicate detection happens in
    /// [`DagBuilder::build`] (so callers can bulk-insert).
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> Result<(), DagError> {
        let n = self.works.len() as NodeId;
        if from >= n {
            return Err(DagError::UnknownNode { node: from });
        }
        if to >= n {
            return Err(DagError::UnknownNode { node: to });
        }
        if from == to {
            return Err(DagError::SelfLoop { node: from });
        }
        self.edges.push((from, to));
        Ok(())
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.works.len()
    }

    /// True if no nodes have been added.
    pub fn is_empty(&self) -> bool {
        self.works.is_empty()
    }

    /// Validate and produce the immutable [`JobDag`]: lay the edges out
    /// as CSR columns, then [`JobDag::from_csr`] checks them.
    pub fn build(mut self) -> Result<JobDag, DagError> {
        // A stable sort by source keeps each node's successors in
        // edge-insertion order, which engine determinism (newly-ready push
        // order) relies on.
        self.edges.sort_by_key(|&(from, _)| from);
        u32::try_from(self.edges.len()).map_err(|_| DagError::BadCsr)?;
        let mut succ_offsets = vec![0u32; self.works.len() + 1];
        for &(from, _) in &self.edges {
            succ_offsets[from as usize + 1] += 1;
        }
        for i in 1..succ_offsets.len() {
            succ_offsets[i] += succ_offsets[i - 1];
        }
        let succs = self.edges.iter().map(|&(_, to)| to).collect();
        JobDag::from_csr(self.works, succ_offsets, succs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_fails() {
        assert_eq!(DagBuilder::new().build().unwrap_err(), DagError::Empty);
    }

    #[test]
    fn zero_work_fails() {
        let mut b = DagBuilder::new();
        b.add_node(1);
        b.add_node(0);
        assert_eq!(b.build().unwrap_err(), DagError::ZeroWork { node: 1 });
    }

    #[test]
    fn unknown_node_edge_fails() {
        let mut b = DagBuilder::new();
        let a = b.add_node(1);
        assert_eq!(
            b.add_edge(a, 7).unwrap_err(),
            DagError::UnknownNode { node: 7 }
        );
        assert_eq!(
            b.add_edge(9, a).unwrap_err(),
            DagError::UnknownNode { node: 9 }
        );
    }

    #[test]
    fn self_loop_fails() {
        let mut b = DagBuilder::new();
        let a = b.add_node(1);
        assert_eq!(
            b.add_edge(a, a).unwrap_err(),
            DagError::SelfLoop { node: a }
        );
    }

    #[test]
    fn duplicate_edge_fails() {
        let mut b = DagBuilder::new();
        let a = b.add_node(1);
        let c = b.add_node(1);
        b.add_edge(a, c).unwrap();
        b.add_edge(a, c).unwrap();
        assert_eq!(
            b.build().unwrap_err(),
            DagError::DuplicateEdge { from: a, to: c }
        );
    }

    #[test]
    fn two_cycle_fails() {
        let mut b = DagBuilder::new();
        let a = b.add_node(1);
        let c = b.add_node(1);
        b.add_edge(a, c).unwrap();
        b.add_edge(c, a).unwrap();
        assert_eq!(b.build().unwrap_err(), DagError::Cycle);
    }

    #[test]
    fn longer_cycle_fails() {
        let mut b = DagBuilder::new();
        let ids: Vec<_> = (0..5).map(|_| b.add_node(1)).collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1]).unwrap();
        }
        b.add_edge(ids[4], ids[1]).unwrap();
        assert_eq!(b.build().unwrap_err(), DagError::Cycle);
    }

    #[test]
    fn build_preserves_counts() {
        let mut b = DagBuilder::new();
        let s = b.add_node(1);
        let m1 = b.add_node(2);
        let m2 = b.add_node(2);
        let t = b.add_node(1);
        b.add_edge(s, m1).unwrap();
        b.add_edge(s, m2).unwrap();
        b.add_edge(m1, t).unwrap();
        b.add_edge(m2, t).unwrap();
        let dag = b.build().unwrap();
        assert_eq!(dag.pred_count(0), 0);
        assert_eq!(dag.pred_count(3), 2);
        assert_eq!(dag.succs(0), &[1, 2]);
        assert!(dag.validate().is_ok());
    }

    #[test]
    fn len_and_is_empty() {
        let mut b = DagBuilder::new();
        assert!(b.is_empty());
        b.add_node(1);
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
    }
}
