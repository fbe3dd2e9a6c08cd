//! Dominance pruning: skip grid families that are already clearly beaten
//! at a *lower* load on the same instance family.
//!
//! The grid is evaluated level by level (ascending utilization). After a
//! level completes, each policy family (dist, m, ε, jobs, policy) is
//! compared against the best max-flow achieved by any policy in its
//! comparison group (same dist, m, ε, jobs) at that level. A family whose
//! best replica is at least `factor`× the group winner is dominated: max
//! flow time is monotone in load for every policy here, and a policy that
//! loses by 4× at util 0.7 does not come back at util 1.15 — the paper's
//! steal-k/admit-first crossovers move the *other* way (the gap widens
//! with load). Its cells at all higher levels are emitted as `pruned`
//! empty cells instead of being simulated.
//!
//! Decisions are pure functions of (spec, per-cell max-flow) pairs, so a
//! `--resume` run that replays stored levels reconstructs the exact same
//! prune set without re-simulating anything.

use std::collections::{BTreeMap, BTreeSet};

use super::grid::CellSpec;

/// Level-by-level dominance pruner. `factor ≤ 1` (or non-finite) disables
/// pruning entirely.
#[derive(Clone, Debug)]
pub(crate) struct Pruner {
    factor: f64,
    dead: BTreeSet<String>,
}

impl Pruner {
    /// A pruner that kills a family once it is `factor`× worse than its
    /// group's winner at any completed level.
    pub(crate) fn new(factor: f64) -> Pruner {
        Pruner {
            factor,
            dead: BTreeSet::new(),
        }
    }

    /// Whether this cell's family has been pruned at a lower level.
    pub(crate) fn is_pruned(&self, cell: &CellSpec) -> bool {
        self.dead.contains(&cell.family())
    }

    /// Families pruned so far.
    pub(crate) fn pruned_families(&self) -> usize {
        self.dead.len()
    }

    /// Feed one completed level: `(cell, max_ms)` for every cell at the
    /// level, `None` for empty cells (no finite flows — already-pruned
    /// cells report `None` too and never resurrect a family). Returns the
    /// families newly pruned by this level.
    pub(crate) fn observe_level<'a, I>(&mut self, level: I) -> Vec<String>
    where
        I: IntoIterator<Item = (&'a CellSpec, Option<f64>)>,
    {
        if !(self.factor.is_finite() && self.factor > 1.0) {
            return Vec::new();
        }
        // Best (minimum over replicas) max-flow per family, then the
        // winner per comparison group.
        let mut fam_best: BTreeMap<String, f64> = BTreeMap::new();
        let mut fam_group: BTreeMap<String, String> = BTreeMap::new();
        for (cell, max_ms) in level {
            let v = match max_ms {
                Some(v) if v.is_finite() => v,
                _ => continue,
            };
            let fam = cell.family();
            fam_group.entry(fam.clone()).or_insert_with(|| cell.group());
            let slot = fam_best.entry(fam).or_insert(f64::INFINITY);
            if v < *slot {
                *slot = v;
            }
        }
        let mut group_best: BTreeMap<&str, f64> = BTreeMap::new();
        for (fam, &best) in &fam_best {
            if let Some(group) = fam_group.get(fam) {
                let slot = group_best.entry(group.as_str()).or_insert(f64::INFINITY);
                if best < *slot {
                    *slot = best;
                }
            }
        }
        let mut newly: Vec<String> = Vec::new();
        for (fam, &best) in &fam_best {
            let Some(group) = fam_group.get(fam) else {
                continue;
            };
            let Some(&winner) = group_best.get(group.as_str()) else {
                continue;
            };
            // Guard the degenerate all-zero level (empty instances): a
            // 0 ms winner would prune every positive family at factor ∞.
            if winner > 0.0 && best >= self.factor * winner && !self.dead.contains(fam) {
                self.dead.insert(fam.clone());
                newly.push(fam.clone());
            }
        }
        newly
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::grid::SweepGrid;

    fn level_cells() -> Vec<CellSpec> {
        SweepGrid::parse("dist=bing;util=0.5,0.9;policy=fifo,admit,steal:4;m=4;seeds=2")
            .unwrap()
            .cells()
    }

    #[test]
    fn dominated_family_is_pruned_for_higher_levels() {
        let cells = level_cells();
        let level0: Vec<&CellSpec> = cells.iter().filter(|c| c.level == 0).collect();
        let mut pr = Pruner::new(4.0);
        // FIFO loses by 10x; admit/steal tie at 10ms.
        let obs: Vec<(&CellSpec, Option<f64>)> = level0
            .iter()
            .map(|c| {
                let v = match c.policy.name().as_str() {
                    "fifo" => 100.0,
                    _ => 10.0,
                };
                (*c, Some(v))
            })
            .collect();
        let newly = pr.observe_level(obs);
        assert_eq!(newly.len(), 1);
        assert!(newly[0].contains("fifo"));
        let level1_fifo = cells
            .iter()
            .find(|c| c.level == 1 && !c.policy.seed_dependent())
            .unwrap();
        assert!(pr.is_pruned(level1_fifo));
        let level1_admit = cells
            .iter()
            .find(|c| c.level == 1 && c.policy.name() == "admit")
            .unwrap();
        assert!(!pr.is_pruned(level1_admit));
    }

    #[test]
    fn close_races_are_kept() {
        let cells = level_cells();
        let level0: Vec<(&CellSpec, Option<f64>)> = cells
            .iter()
            .filter(|c| c.level == 0)
            .map(|c| {
                (
                    c,
                    Some(if c.policy.name() == "fifo" {
                        30.0
                    } else {
                        10.0
                    }),
                )
            })
            .collect();
        let mut pr = Pruner::new(4.0);
        assert!(
            pr.observe_level(level0).is_empty(),
            "3x is under the 4x bar"
        );
        assert_eq!(pr.pruned_families(), 0);
    }

    #[test]
    fn empty_cells_and_disabled_factor_never_prune() {
        let cells = level_cells();
        let level0: Vec<(&CellSpec, Option<f64>)> = cells
            .iter()
            .filter(|c| c.level == 0)
            .map(|c| (c, None))
            .collect();
        let mut pr = Pruner::new(4.0);
        assert!(pr.observe_level(level0.clone()).is_empty());
        // factor <= 1 disables even on wildly dominated data.
        let mut off = Pruner::new(0.0);
        let obs: Vec<(&CellSpec, Option<f64>)> = cells
            .iter()
            .filter(|c| c.level == 0)
            .map(|c| (c, Some(if c.policy.name() == "fifo" { 1e9 } else { 1.0 })))
            .collect();
        assert!(off.observe_level(obs).is_empty());
    }

    #[test]
    fn best_replica_defends_the_family() {
        // One awful replica must not doom a family whose best replica wins.
        let cells = level_cells();
        let mut pr = Pruner::new(4.0);
        let obs: Vec<(&CellSpec, Option<f64>)> = cells
            .iter()
            .filter(|c| c.level == 0)
            .map(|c| {
                let v = match (c.policy.name().as_str(), c.rep) {
                    ("admit", 0) => 500.0, // unlucky seed
                    ("admit", _) => 10.0,  // best replica ties the winner
                    _ => 10.0,
                };
                (c, Some(v))
            })
            .collect();
        assert!(pr.observe_level(obs).is_empty());
    }
}
