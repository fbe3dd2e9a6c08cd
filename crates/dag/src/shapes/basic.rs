//! Basic DAG shapes: single node, chain, diamond, parallel-for.

use crate::builder::DagBuilder;
use crate::graph::JobDag;
use parflow_time::Work;

/// A job consisting of a single sequential node of `work` units.
pub fn single_node(work: Work) -> JobDag {
    assert!(work > 0, "work must be positive");
    DagBuilder::new()
        .node(work)
        .build()
        .expect("valid by construction")
}

/// A fully sequential chain of `len` nodes, each of `node_work` units.
/// Work = span = `len · node_work`.
pub fn chain(len: usize, node_work: Work) -> JobDag {
    assert!(len > 0 && node_work > 0, "chain needs len > 0 and work > 0");
    let mut b = DagBuilder::new();
    let mut prev = b.add_node(node_work);
    for _ in 1..len {
        let next = b.add_node(node_work);
        b.add_edge(prev, next).expect("valid indices");
        prev = next;
    }
    b.build().expect("valid by construction")
}

/// A diamond: source → `width` parallel middle nodes → sink.
/// Source/sink have 1 unit each, middles have `mid_work` units.
pub fn diamond(width: usize, mid_work: Work) -> JobDag {
    assert!(width > 0 && mid_work > 0);
    let mut b = DagBuilder::new();
    let s = b.add_node(1);
    let mids: Vec<_> = (0..width).map(|_| b.add_node(mid_work)).collect();
    let t = b.add_node(1);
    for &m in &mids {
        b.add_edge(s, m).expect("valid");
        b.add_edge(m, t).expect("valid");
    }
    b.build().expect("valid by construction")
}

/// A parallel-for job: a 1-unit source spawning `chunks` independent chunk
/// nodes that together carry `body_work` units (split as evenly as
/// possible), joined by a 1-unit sink.
///
/// This models the paper's empirical jobs (Section 6). If `body_work <
/// chunks`, only `body_work` chunks are created (each of 1 unit) so no node
/// has zero work.
///
/// Total work = `body_work + 2`; span = `ceil(body_work / chunks) + 2`.
///
/// ```
/// let dag = parflow_dag::shapes::parallel_for(64, 8);
/// assert_eq!(dag.total_work(), 66);
/// assert_eq!(dag.span(), 8 + 2);
/// assert_eq!(dag.num_nodes(), 10);
/// ```
pub fn parallel_for(body_work: Work, chunks: usize) -> JobDag {
    assert!(body_work > 0 && chunks > 0);
    let chunks = (chunks as u64).min(body_work) as usize;
    let base = body_work / chunks as u64;
    let extra = (body_work % chunks as u64) as usize;
    let mut b = DagBuilder::new();
    let s = b.add_node(1);
    let t_work = 1;
    let mut chunk_ids = Vec::with_capacity(chunks);
    for i in 0..chunks {
        let w = base + if i < extra { 1 } else { 0 };
        chunk_ids.push(b.add_node(w));
    }
    let t = b.add_node(t_work);
    for &c in &chunk_ids {
        b.add_edge(s, c).expect("valid");
        b.add_edge(c, t).expect("valid");
    }
    b.build().expect("valid by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single() {
        let d = single_node(9);
        assert_eq!(d.num_nodes(), 1);
        assert_eq!(d.total_work(), 9);
        assert_eq!(d.span(), 9);
    }

    #[test]
    fn chain_metrics() {
        let d = chain(5, 3);
        assert_eq!(d.num_nodes(), 5);
        assert_eq!(d.total_work(), 15);
        assert_eq!(d.span(), 15);
        assert_eq!(d.sources().len(), 1);
        assert_eq!(crate::shapes::sink_count(&d), 1);
    }

    #[test]
    fn diamond_metrics() {
        let d = diamond(4, 6);
        assert_eq!(d.num_nodes(), 6);
        assert_eq!(d.total_work(), 4 * 6 + 2);
        assert_eq!(d.span(), 6 + 2);
    }

    #[test]
    fn parallel_for_even_split() {
        let d = parallel_for(12, 4);
        assert_eq!(d.num_nodes(), 6);
        assert_eq!(d.total_work(), 14);
        assert_eq!(d.span(), 3 + 2);
    }

    #[test]
    fn parallel_for_uneven_split() {
        let d = parallel_for(13, 4); // chunks of 4,3,3,3
        assert_eq!(d.total_work(), 15);
        assert_eq!(d.span(), 4 + 2);
        assert!(d.validate().is_ok());
    }

    #[test]
    fn parallel_for_caps_chunks_at_work() {
        let d = parallel_for(2, 10); // only 2 chunks of 1 unit each
        assert_eq!(d.num_nodes(), 4);
        assert_eq!(d.total_work(), 4);
        assert_eq!(d.span(), 3);
    }

    #[test]
    fn parallel_for_single_chunk_is_chainlike() {
        let d = parallel_for(10, 1);
        assert_eq!(d.num_nodes(), 3);
        assert_eq!(d.span(), 12);
        assert_eq!(d.total_work(), 12);
    }

    #[test]
    fn all_shapes_validate() {
        for d in [
            single_node(1),
            chain(10, 2),
            diamond(7, 3),
            parallel_for(100, 16),
        ] {
            assert!(d.validate().is_ok());
        }
    }
}
