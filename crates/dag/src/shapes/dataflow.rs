//! Dataflow-style DAG shapes: map-reduce and software pipelines.
//!
//! These extend the paper's parallel-for jobs with the other two DAG
//! families common in server workloads: scatter/gather query plans
//! (map-reduce) and stage-parallel stream operators (pipelines). Both
//! stress schedulers differently from parallel-for — map-reduce has a
//! parallelism *phase change* at the shuffle barrier; pipelines have bounded
//! width but long chains.

use crate::builder::DagBuilder;
use crate::graph::JobDag;
use parflow_time::Work;

/// A two-phase map-reduce job:
/// 1-unit source → `mappers` map nodes (`map_work` each) → `reducers`
/// reduce nodes (`reduce_work` each, each depending on **all** mappers — the
/// shuffle barrier) → 1-unit sink.
///
/// Work = `2 + mappers·map_work + reducers·reduce_work`;
/// span = `2 + map_work + reduce_work`.
pub fn map_reduce(mappers: usize, map_work: Work, reducers: usize, reduce_work: Work) -> JobDag {
    assert!(mappers > 0 && reducers > 0 && map_work > 0 && reduce_work > 0);
    let mut b = DagBuilder::new();
    let source = b.add_node(1);
    let maps: Vec<_> = (0..mappers).map(|_| b.add_node(map_work)).collect();
    let reds: Vec<_> = (0..reducers).map(|_| b.add_node(reduce_work)).collect();
    let sink = b.add_node(1);
    for &m in &maps {
        b.add_edge(source, m).expect("valid");
        for &r in &reds {
            b.add_edge(m, r).expect("valid");
        }
    }
    for &r in &reds {
        b.add_edge(r, sink).expect("valid");
    }
    b.build().expect("valid by construction")
}

/// A software pipeline of `stages × items`: node `(s, i)` depends on
/// `(s−1, i)` (same item, previous stage) and `(s, i−1)` (previous item,
/// same stage — stages process items in order). All nodes carry
/// `node_work` units.
///
/// Work = `stages · items · node_work`;
/// span = `(stages + items − 1) · node_work` (the monotone staircase).
pub fn pipeline(stages: usize, items: usize, node_work: Work) -> JobDag {
    assert!(stages > 0 && items > 0 && node_work > 0);
    let mut b = DagBuilder::new();
    let mut ids = vec![vec![0u32; items]; stages];
    for (s, row) in ids.iter_mut().enumerate() {
        for (i, slot) in row.iter_mut().enumerate() {
            *slot = b.add_node(node_work);
            let _ = (s, i);
        }
    }
    for s in 0..stages {
        for i in 0..items {
            if s > 0 {
                b.add_edge(ids[s - 1][i], ids[s][i]).expect("valid");
            }
            if i > 0 {
                b.add_edge(ids[s][i - 1], ids[s][i]).expect("valid");
            }
        }
    }
    b.build().expect("valid by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_reduce_metrics() {
        let d = map_reduce(4, 10, 2, 5);
        assert_eq!(d.num_nodes(), 1 + 4 + 2 + 1);
        assert_eq!(d.total_work(), 2 + 40 + 10);
        assert_eq!(d.span(), 2 + 10 + 5);
        assert!(d.validate().is_ok());
        assert_eq!(d.sources().len(), 1);
        assert_eq!(crate::shapes::sink_count(&d), 1);
    }

    #[test]
    fn map_reduce_shuffle_is_full_bipartite() {
        let d = map_reduce(3, 1, 2, 1);
        // Each mapper (nodes 1..=3) has edges to both reducers (4, 5).
        for m in 1..=3u32 {
            assert_eq!(d.succs(m).len(), 2);
        }
        // Reducers have pred_count = 3.
        assert_eq!(d.pred_count(4), 3);
        assert_eq!(d.pred_count(5), 3);
    }

    #[test]
    fn pipeline_metrics() {
        let d = pipeline(3, 5, 2);
        assert_eq!(d.num_nodes(), 15);
        assert_eq!(d.total_work(), 30);
        assert_eq!(d.span(), (3 + 5 - 1) * 2);
        assert!(d.validate().is_ok());
    }

    #[test]
    fn pipeline_single_stage_is_chain() {
        let d = pipeline(1, 4, 3);
        assert_eq!(d.span(), d.total_work());
    }

    #[test]
    fn pipeline_single_item_is_chain() {
        let d = pipeline(4, 1, 3);
        assert_eq!(d.span(), d.total_work());
    }

    #[test]
    fn pipeline_max_parallelism_is_bounded() {
        // Parallelism of a (stages × items) pipeline ≤ min(stages, items).
        let d = pipeline(3, 10, 1);
        assert!(d.parallelism() <= 3.0 + 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_mappers_panics() {
        let _ = map_reduce(0, 1, 1, 1);
    }
}
