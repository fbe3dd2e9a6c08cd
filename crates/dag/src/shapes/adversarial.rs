//! The Section 5 lower-bound gadget.

use crate::builder::DagBuilder;
use crate::graph::JobDag;

/// The adversarial "tiny job" from the work-stealing lower bound
/// (Lemma 5.1): one unit-work root that is the predecessor of `m/10`
/// independent unit-work tasks.
///
/// Total work is `m/10 + 1`; span is 2. A 1-speed scheduler with ≥ m/10
/// processors completes the job in 2 time steps, but randomized work
/// stealing executes it entirely sequentially with probability roughly
/// `(1/2e)^{m/10}` — releasing `n = 2^m` such jobs far apart makes the
/// expected maximum flow time `Ω(m) = Ω(log n)` while OPT stays 2.
///
/// `m` is the number of processors; at least 10 so the gadget has ≥ 1 child.
pub fn adversarial_tiny(m: usize) -> JobDag {
    let children = (m / 10).max(1);
    let mut b = DagBuilder::new();
    let root = b.add_node(1);
    for _ in 0..children {
        let c = b.add_node(1);
        b.add_edge(root, c).expect("valid");
    }
    b.build().expect("valid by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_matches_lemma() {
        let d = adversarial_tiny(40);
        assert_eq!(d.num_nodes(), 5); // root + 4 children
        assert_eq!(d.total_work(), 5); // m/10 + 1
        assert_eq!(d.span(), 2);
        assert_eq!(d.sources(), vec![0]);
        assert_eq!(crate::shapes::sink_count(&d), 4);
    }

    #[test]
    fn small_m_still_has_one_child() {
        let d = adversarial_tiny(4);
        assert_eq!(d.num_nodes(), 2);
        assert_eq!(d.span(), 2);
    }

    #[test]
    fn work_formula() {
        for m in [10, 20, 50, 100, 160] {
            let d = adversarial_tiny(m);
            assert_eq!(d.total_work() as usize, m / 10 + 1);
            assert_eq!(d.span(), 2);
            assert!(d.validate().is_ok());
        }
    }
}
