//! The static DAG structure of a dynamic multithreaded job.

use crate::error::DagError;
use parflow_time::Work;

/// Index of a node within one job's DAG.
pub type NodeId = u32;

/// An immutable, validated DAG describing one job's internal structure.
///
/// Invariants (enforced by [`JobDag::from_csr`]):
/// * at least one node, every node has `work ≥ 1`;
/// * the edge relation is acyclic with no self-loops or duplicates;
/// * `topo_order` is a topological order of all nodes.
///
/// Schedulers never read this directly — they see jobs only through
/// [`crate::DagCursor`], which reveals ready nodes as the DAG unfolds
/// (non-clairvoyance). The full structure is used by workload generators,
/// the trace validator, and for computing `W_i` (work) and `P_i` (span).
///
/// # Storage layout
///
/// Node attributes are stored as parallel columns (`works`,
/// `pred_counts`) and the adjacency as a compressed sparse row (CSR)
/// layout: one flat `succs` slab plus an offset array, so node `v`'s
/// successors are `succs[succ_offsets[v] .. succ_offsets[v + 1]]`. This
/// keeps the whole DAG in a handful of contiguous allocations (instead of
/// one `Vec` per node) and makes the completion hot path a pure slice
/// scan. Per-node successor order is edge-insertion order, which the
/// engines' determinism depends on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobDag {
    pub(crate) works: Vec<Work>,
    pub(crate) pred_counts: Vec<u32>,
    /// CSR offsets: `len = num_nodes + 1`, monotone, `succ_offsets[0] = 0`.
    pub(crate) succ_offsets: Vec<u32>,
    /// CSR slab of successor ids, grouped by source node.
    pub(crate) succs: Vec<NodeId>,
    pub(crate) topo_order: Vec<NodeId>,
    total_work: Work,
    span: Work,
}

impl JobDag {
    /// Build a DAG from its CSR columns — node works, successor offsets
    /// (`num_nodes + 1` of them, from 0 up to `succs.len()`) and the
    /// successor slab — checking every invariant on the way.
    ///
    /// This is the one structural checker: [`crate::DagBuilder::build`]
    /// scatters its edges into these columns and lands here, and
    /// [`JobDag::validate`] re-runs the same check. `pred_counts`,
    /// `topo_order` (Kahn's algorithm, FIFO over sources in id order),
    /// `total_work` and `span` are derived, never taken on trust.
    ///
    /// ```
    /// use parflow_dag::{DagError, JobDag};
    /// // 0 -> {1, 2}
    /// let dag = JobDag::from_csr(vec![1, 2, 3], vec![0, 2, 2, 2], vec![1, 2]).unwrap();
    /// assert_eq!((dag.total_work(), dag.span()), (6, 4));
    /// let dup = JobDag::from_csr(vec![1, 1], vec![0, 2, 2], vec![1, 1]);
    /// assert_eq!(dup, Err(DagError::DuplicateEdge { from: 0, to: 1 }));
    /// ```
    pub fn from_csr(
        works: Vec<Work>,
        succ_offsets: Vec<u32>,
        succs: Vec<NodeId>,
    ) -> Result<JobDag, DagError> {
        let n = works.len();
        if n == 0 {
            return Err(DagError::Empty);
        }
        if n > NodeId::MAX as usize
            || succ_offsets.len() != n + 1
            || succ_offsets[0] != 0
            || succ_offsets[n] as usize != succs.len()
            || succ_offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err(DagError::BadCsr);
        }
        let mut total_work: Work = 0;
        for (v, &w) in works.iter().enumerate() {
            if w == 0 {
                return Err(DagError::ZeroWork { node: v as NodeId });
            }
            total_work = total_work.checked_add(w).ok_or(DagError::WorkOverflow)?;
        }
        let row = |v: NodeId| {
            &succs[succ_offsets[v as usize] as usize..succ_offsets[v as usize + 1] as usize]
        };
        let mut pred_counts = vec![0u32; n];
        // One scratch column, used three ways in turn: a duplicate-edge
        // stamp (`scratch[u] == v` while scanning `v`'s successors marks
        // `u` as seen), Kahn's in-degrees, then earliest start times.
        let mut scratch = vec![Work::MAX; n];
        for v in 0..n as NodeId {
            for &u in row(v) {
                if u as usize >= n {
                    return Err(DagError::UnknownNode { node: u });
                }
                if u == v {
                    return Err(DagError::SelfLoop { node: u });
                }
                if scratch[u as usize] == Work::from(v) {
                    return Err(DagError::DuplicateEdge { from: v, to: u });
                }
                scratch[u as usize] = Work::from(v);
                pred_counts[u as usize] += 1;
            }
        }
        // Kahn's algorithm, FIFO: `topo` doubles as the queue.
        for (d, &p) in scratch.iter_mut().zip(&pred_counts) {
            *d = Work::from(p);
        }
        let mut topo_order: Vec<NodeId> = Vec::with_capacity(n);
        topo_order.extend((0..n as NodeId).filter(|&v| pred_counts[v as usize] == 0));
        let mut head = 0;
        while let Some(&v) = topo_order.get(head) {
            head += 1;
            for &u in row(v) {
                scratch[u as usize] -= 1;
                if scratch[u as usize] == 0 {
                    topo_order.push(u);
                }
            }
        }
        if topo_order.len() != n {
            return Err(DagError::Cycle);
        }
        // Every in-degree is now 0. The span is the longest weighted path,
        // a DP over the topological order; no sum exceeds `total_work`.
        let mut span = 0;
        for &v in &topo_order {
            let finish = scratch[v as usize] + works[v as usize];
            span = span.max(finish);
            for &u in row(v) {
                scratch[u as usize] = scratch[u as usize].max(finish);
            }
        }
        Ok(JobDag {
            works,
            pred_counts,
            succ_offsets,
            succs,
            topo_order,
            total_work,
            span,
        })
    }

    /// Number of nodes in the DAG.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.works.len()
    }

    /// Total work `W_i`: the job's running time on one processor.
    #[inline]
    pub fn total_work(&self) -> Work {
        self.total_work
    }

    /// Critical-path length `P_i`: the job's running time on infinitely many
    /// processors. Lower bound on the job's execution time for any scheduler.
    #[inline]
    pub fn span(&self) -> Work {
        self.span
    }

    /// Average parallelism `W_i / P_i` (reported as `f64`).
    #[inline]
    pub fn parallelism(&self) -> f64 {
        self.total_work as f64 / self.span as f64
    }

    /// Processing time `p_v` of node `v`.
    #[inline]
    pub fn work(&self, v: NodeId) -> Work {
        self.works[v as usize]
    }

    /// Number of predecessor edges into node `v`.
    #[inline]
    pub fn pred_count(&self, v: NodeId) -> u32 {
        self.pred_counts[v as usize]
    }

    /// Successor ids of node `v` (edge-insertion order), as a slice into
    /// the CSR slab.
    #[inline]
    pub fn succs(&self, v: NodeId) -> &[NodeId] {
        let lo = self.succ_offsets[v as usize] as usize;
        let hi = self.succ_offsets[v as usize + 1] as usize;
        &self.succs[lo..hi]
    }

    /// All node-attribute columns at once, for bulk copies (cursor reset).
    #[inline]
    pub(crate) fn columns(&self) -> (&[Work], &[u32]) {
        (&self.works, &self.pred_counts)
    }

    /// Node ids with no predecessors (the initially ready nodes), in
    /// increasing id order, without allocating.
    #[inline]
    pub(crate) fn sources_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.pred_counts
            .iter()
            .enumerate()
            .filter(|&(_, &pc)| pc == 0)
            .map(|(i, _)| i as NodeId)
    }

    /// Node indices with no predecessors (the initially ready nodes).
    ///
    /// Allocates a fresh `Vec`; the engines' hot paths use the crate's
    /// allocation-free `sources_iter`.
    pub fn sources(&self) -> Vec<NodeId> {
        self.sources_iter().collect()
    }

    /// A topological order over all nodes (stable across runs).
    #[inline]
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo_order
    }

    /// Re-runs [`JobDag::from_csr`] on this DAG's own columns and confirms
    /// the derived ones match. A `JobDag` can only be made through that
    /// check, so this always passes; tests use it as an independent witness.
    pub fn validate(&self) -> Result<(), DagError> {
        let (works, offsets) = (self.works.clone(), self.succ_offsets.clone());
        let again = JobDag::from_csr(works, offsets, self.succs.clone())?;
        (again == *self).then_some(()).ok_or(DagError::Cycle)
    }
}

#[cfg(test)]
mod tests {
    use crate::DagBuilder;

    #[test]
    fn single_node_metrics() {
        let dag = DagBuilder::new().node(5).build().unwrap();
        assert_eq!(dag.num_nodes(), 1);
        assert_eq!(dag.total_work(), 5);
        assert_eq!(dag.span(), 5);
        assert_eq!(dag.sources(), vec![0]);
        assert!((dag.parallelism() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chain_span_equals_work() {
        // 0 -> 1 -> 2, works 2,3,4
        let mut b = DagBuilder::new();
        let a = b.add_node(2);
        let c = b.add_node(3);
        let d = b.add_node(4);
        b.add_edge(a, c).unwrap();
        b.add_edge(c, d).unwrap();
        let dag = b.build().unwrap();
        assert_eq!(dag.total_work(), 9);
        assert_eq!(dag.span(), 9);
        assert_eq!(dag.sources(), vec![0]);
    }

    #[test]
    fn diamond_span() {
        // 0 -> {1,2} -> 3 ; works 1, 5, 2, 1 → span = 1+5+1 = 7, work 9
        let mut b = DagBuilder::new();
        let s = b.add_node(1);
        let l = b.add_node(5);
        let r = b.add_node(2);
        let t = b.add_node(1);
        b.add_edge(s, l).unwrap();
        b.add_edge(s, r).unwrap();
        b.add_edge(l, t).unwrap();
        b.add_edge(r, t).unwrap();
        let dag = b.build().unwrap();
        assert_eq!(dag.total_work(), 9);
        assert_eq!(dag.span(), 7);
        assert!((dag.parallelism() - 9.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn independent_nodes_span_is_max() {
        let mut b = DagBuilder::new();
        b.add_node(3);
        b.add_node(7);
        b.add_node(2);
        let dag = b.build().unwrap();
        assert_eq!(dag.total_work(), 12);
        assert_eq!(dag.span(), 7);
        assert_eq!(dag.sources().len(), 3);
    }

    #[test]
    fn validate_accepts_built_dags() {
        let mut b = DagBuilder::new();
        let s = b.add_node(1);
        for _ in 0..10 {
            let c = b.add_node(2);
            b.add_edge(s, c).unwrap();
        }
        let dag = b.build().unwrap();
        assert!(dag.validate().is_ok());
    }

    #[test]
    fn topo_order_respects_edges() {
        let mut b = DagBuilder::new();
        let n0 = b.add_node(1);
        let n1 = b.add_node(1);
        let n2 = b.add_node(1);
        let n3 = b.add_node(1);
        b.add_edge(n0, n2).unwrap();
        b.add_edge(n1, n2).unwrap();
        b.add_edge(n2, n3).unwrap();
        let dag = b.build().unwrap();
        let order = dag.topo_order();
        let pos = |x: u32| order.iter().position(|&v| v == x).unwrap();
        assert!(pos(0) < pos(2));
        assert!(pos(1) < pos(2));
        assert!(pos(2) < pos(3));
    }

    #[test]
    fn csr_succs_preserve_edge_insertion_order() {
        let mut b = DagBuilder::new();
        let s = b.add_node(1);
        let x = b.add_node(1);
        let y = b.add_node(1);
        let z = b.add_node(1);
        // Deliberately out of id order: determinism of `newly_ready`
        // depends on edge-insertion order surviving the CSR build.
        b.add_edge(s, z).unwrap();
        b.add_edge(s, x).unwrap();
        b.add_edge(s, y).unwrap();
        let dag = b.build().unwrap();
        assert_eq!(dag.succs(s), &[z, x, y]);
        assert_eq!(dag.succs(x), &[] as &[u32]);
        assert_eq!(dag.pred_count(z), 1);
    }

    #[test]
    fn iter_variants_match_allocating_ones() {
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
        assert_eq!(dag.sources_iter().collect::<Vec<_>>(), dag.sources());
        assert_eq!(dag.sources(), vec![0]);
    }
}
