//! Configuration clustering: bucket near-identical cells by structural
//! fingerprint so only one representative per bucket is simulated.
//!
//! Two cells land in the same bucket when every field that can influence
//! the simulated schedule matches. For seed-*independent* policies (FIFO
//! is deterministic given the instance) the engine seed and replica index
//! are excluded from the fingerprint, which collapses all seed replicas of
//! a FIFO configuration into one bucket — the classic source of silently
//! wasted sweep compute. Seed-dependent policies keep their replica index,
//! so distinct seeds never cluster.
//!
//! The representative is always the bucket member with the lowest cell id.
//! Because cells are enumerated level-major and the store is written in id
//! order, a representative always precedes its members in the store — a
//! property the resume path relies on (a truncated store that contains a
//! member also contains its representative).

use std::collections::BTreeMap;

use parflow_obs::fnv1a64;

use super::grid::CellSpec;

/// Structural fingerprint of a cell: FNV-1a over the canonical rendering
/// of every schedule-relevant field. Replica index and engine seed are
/// included only when the policy is seed-dependent.
pub(crate) fn fingerprint(cell: &CellSpec) -> u64 {
    let rep_part = if cell.policy.seed_dependent() {
        format!("r{}|s{:#x}", cell.rep, cell.engine_seed)
    } else {
        "r-".to_string()
    };
    let tag = format!(
        "{}|u{}|m{}|e{}|j{}|q{}|w{:#x}|{}|{}",
        cell.dist.name(),
        cell.util,
        cell.m,
        cell.eps_str(),
        cell.jobs,
        cell.qps,
        cell.workload_seed,
        cell.policy.name(),
        rep_part,
    );
    fnv1a64(tag.as_bytes())
}

/// Outcome of clustering a grid's cells.
#[derive(Clone, Debug, Default)]
pub(crate) struct Clustering {
    /// Cell id → representative id. Representatives map to themselves.
    pub rep_of: BTreeMap<usize, usize>,
    /// Cells that were folded into another cell's bucket.
    pub folded: usize,
}

/// Cluster a slice of cells. Buckets are keyed by
/// fingerprint; the lowest-id member of each bucket becomes its
/// representative. Deterministic: depends only on cell contents and the
/// (already canonical) enumeration order.
pub(crate) fn cluster(cells: &[CellSpec]) -> Clustering {
    let mut first_of: BTreeMap<u64, usize> = BTreeMap::new();
    let mut out = Clustering::default();
    for cell in cells {
        let fp = fingerprint(cell);
        let rep = *first_of.entry(fp).or_insert(cell.id);
        if rep != cell.id {
            out.folded += 1;
        }
        out.rep_of.insert(cell.id, rep);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::grid::SweepGrid;

    #[test]
    fn fifo_seed_replicas_cluster_worksteal_do_not() {
        let g = SweepGrid::parse("dist=bing;util=0.7;policy=fifo,admit;m=4;seeds=3").unwrap();
        let cells = g.cells();
        let c = cluster(&cells);
        // 3 FIFO replicas fold to 1 representative; 3 admit replicas stay.
        assert_eq!(c.folded, 2);
        let fifo_reps: Vec<usize> = cells
            .iter()
            .filter(|x| !x.policy.seed_dependent())
            .map(|x| c.rep_of[&x.id])
            .collect();
        assert!(fifo_reps.windows(2).all(|w| w[0] == w[1]));
        let admit_reps: Vec<usize> = cells
            .iter()
            .filter(|x| x.policy.seed_dependent())
            .map(|x| c.rep_of[&x.id])
            .collect();
        let mut uniq = admit_reps.clone();
        uniq.dedup();
        assert_eq!(uniq.len(), admit_reps.len());
    }

    #[test]
    fn representative_precedes_members() {
        let g = SweepGrid::parse("smoke").unwrap();
        let c = cluster(&g.cells());
        for (&id, &rep) in &c.rep_of {
            assert!(rep <= id, "rep {rep} must not follow member {id}");
        }
    }

    #[test]
    fn distinct_configs_never_cluster() {
        let g = SweepGrid::parse("dist=bing;util=0.7,0.9;policy=fifo;m=4,8;seeds=1").unwrap();
        let cells = g.cells();
        let c = cluster(&cells);
        assert_eq!(c.folded, 0);
        let mut reps: Vec<usize> = c.rep_of.values().copied().collect();
        reps.sort_unstable();
        reps.dedup();
        assert_eq!(reps.len(), cells.len());
    }
}
