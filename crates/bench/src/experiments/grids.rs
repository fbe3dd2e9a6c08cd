//! The grid-shaped experiments: Figure 2's three panels, `steal-k`,
//! `theory-fifo`, `variance` and `scaling`. Each is a [`SweepGrid`] spec
//! run through [`run_sweep`] plus a projection from the sweep's
//! [`CellRecord`]s to the experiment's table, so instances, OPT, seeds
//! (`CellSpec::{workload_seed, engine_seed}`) and the fan-out are the
//! sweep's: the Figure 2 reproduction runs on the same code as the
//! phase-diagram grid.
//!
//! A paper QPS `q` sits on the grid's load axis as
//! `util = q / qps_for_utilization(dist, 16, 1)`; the cell's derived QPS
//! prints as the same integer. The tables keep their columns, except that
//! Figure 2's `util` is the offered load, not the utilization realized by
//! the sampled instance (the two differ by sampling noise only).

use super::{PAPER_K, PAPER_M};
use crate::sweep::grid::{SweepGrid, SweepPolicy};
use crate::sweep::{run_sweep, CellRecord, SweepOptions};
use parflow_metrics::Table;
use parflow_workloads::{qps_for_utilization, DistKind, TICKS_PER_SECOND};

/// The paper's QPS levels per workload (low / medium / high load).
fn paper_qps(dist: DistKind) -> [f64; 3] {
    match dist {
        DistKind::Finance => [800.0, 900.0, 1000.0],
        _ => [800.0, 1000.0, 1200.0],
    }
}

/// A grid on `dist` whose load axis offers the paper's m = 16 machine the
/// arrival rates `qps`; `rest` gives the other axes.
fn at_qps(dist: DistKind, qps: &[f64], rest: &str, jobs: usize, seed: u64) -> SweepGrid {
    let full = qps_for_utilization(dist, PAPER_M, 1.0);
    let utils: Vec<String> = qps.iter().map(|q| format!("{}", q / full)).collect();
    let spec = format!("dist={};util={};{rest}", dist.name(), utils.join(","));
    grid(&spec, jobs, seed)
}

fn grid(spec: &str, jobs: usize, seed: u64) -> SweepGrid {
    let spec = format!("{spec};jobs={jobs};seed={seed}");
    SweepGrid::parse(&spec).unwrap_or_else(|e| panic!("grid `{spec}`: {e}"))
}

/// Figure 2: steal-16-first and admit-first at the paper's three QPS
/// levels of `dist`.
pub(super) fn fig2(dist: DistKind, jobs: usize, seed: u64) -> SweepGrid {
    let rest = "policy=admit,steal:16;m=16";
    at_qps(dist, &paper_qps(dist), rest, jobs, seed)
}

/// The steal-k-first parameter sweep on Bing (k = 0 is admit-first).
pub(super) fn steal_k(jobs: usize, seed: u64) -> SweepGrid {
    let rest = "policy=admit,steal:1,steal:4,steal:16,steal:64;m=16";
    at_qps(DistKind::Bing, &[800.0, 1000.0, 1200.0], rest, jobs, seed)
}

/// Theorem 3.1: FIFO at speed 1 + ε on a near-saturated Bing instance.
pub(super) fn theory_fifo(jobs: usize, seed: u64) -> SweepGrid {
    let spec = "dist=bing;util=0.95;policy=fifo;m=16;eps=1/10,1/5,1/2,1,2";
    grid(spec, jobs, seed)
}

/// Ten seed replicas of each policy on one Bing instance at QPS 1100.
pub(super) fn variance(jobs: usize, seed: u64) -> SweepGrid {
    let rest = "policy=fifo,admit,steal:16;m=16;seeds=10";
    at_qps(DistKind::Bing, &[1100.0], rest, jobs, seed)
}

/// Machine sizes 4–64 at a fixed 65 % Bing utilization.
pub(super) fn scaling(jobs: usize, seed: u64) -> SweepGrid {
    let spec = "dist=bing;util=0.65;policy=admit,steal:16;m=4,8,16,32,64";
    grid(spec, jobs, seed)
}

/// Run `grid` on `threads` threads with streaming and certification
/// off, so every cell is simulated (or clustered) on a
/// materialized instance.
pub(super) fn run(grid: &SweepGrid, threads: usize) -> Vec<CellRecord> {
    // The default options stream and certify nothing.
    let opts = SweepOptions {
        threads,
        ..SweepOptions::default()
    };
    run_sweep(grid, None, &opts)
        .unwrap_or_else(|e| panic!("grid `{}`: {e}", grid.canonical()))
        .records
}

fn max_ms(r: &CellRecord) -> f64 {
    r.outcome.and_then(|o| o.max_ms()).unwrap_or(f64::NAN)
}

fn opt_ms(r: &CellRecord) -> f64 {
    r.outcome.map_or(f64::NAN, |o| o.opt_ms)
}

/// OPT, steal-16-first and admit-first max flow (ms) over one instance's
/// cells.
fn opt_steal_admit(cells: &[CellRecord]) -> [f64; 3] {
    let of = |policy: SweepPolicy| {
        let cell = cells.iter().find(|r| r.spec.policy == policy);
        cell.unwrap_or_else(|| panic!("no {} cell", policy.name()))
    };
    let (admit, steal) = (
        of(SweepPolicy::AdmitFirst),
        of(SweepPolicy::StealK(PAPER_K)),
    );
    [opt_ms(admit), max_ms(steal), max_ms(admit)]
}

fn f2(v: f64) -> String {
    format!("{v:.2}")
}

fn table<const N: usize>(headers: [&str; N], rows: impl Iterator<Item = [String; N]>) -> Table {
    let mut t = Table::new(headers);
    rows.for_each(|row| t.row(row));
    t
}

/// One row per load level: OPT, steal-16-first and admit-first.
pub(super) fn fig2_table(records: &[CellRecord]) -> Table {
    let headers = [
        "workload",
        "QPS",
        "util",
        "OPT (ms)",
        "steal-16-first (ms)",
        "admit-first (ms)",
        "steal16/OPT",
        "admit/OPT",
    ];
    let levels = records.chunk_by(|a, b| a.spec.level == b.spec.level);
    let rows = levels.map(|level| {
        let ([opt, steal, admit], cell) = (opt_steal_admit(level), &level[0].spec);
        [
            cell.dist.name().to_string(),
            format!("{:.0}", cell.qps),
            format!("{:.0}%", cell.util * 100.0),
            f2(opt),
            f2(steal),
            f2(admit),
            f2(steal / opt),
            f2(admit / opt),
        ]
    });
    table(headers, rows)
}

/// One row per cell, in grid order: QPS-major, then ascending k.
pub(super) fn steal_k_table(records: &[CellRecord]) -> Table {
    let headers = ["QPS", "k", "max flow (ms)", "OPT (ms)", "ratio"];
    let rows = records.iter().map(|r| {
        let k = match r.spec.policy {
            SweepPolicy::StealK(k) => k,
            _ => 0,
        };
        let (max, opt) = (max_ms(r), opt_ms(r));
        [
            format!("{:.0}", r.spec.qps),
            k.to_string(),
            f2(max),
            f2(opt),
            f2(max / opt),
        ]
    });
    table(headers, rows)
}

/// One row per ε, ascending; flows in ticks against the ceiling `3/ε`.
pub(super) fn theory_fifo_table(records: &[CellRecord]) -> Table {
    let eps = |r: &CellRecord| r.spec.eps.0 as f64 / r.spec.eps.1 as f64;
    let ticks = |ms: f64| format!("{:.1}", ms * TICKS_PER_SECOND / 1000.0);
    let mut rows: Vec<&CellRecord> = records.iter().collect();
    rows.sort_by(|a, b| eps(a).total_cmp(&eps(b)));
    let headers = [
        "epsilon",
        "speed",
        "FIFO max flow",
        "OPT",
        "ratio",
        "bound 3/eps",
    ];
    let rows = rows.into_iter().map(|r| {
        let (e, max, opt) = (eps(r), max_ms(r), opt_ms(r));
        [
            f2(e),
            f2(1.0 + e),
            ticks(max),
            ticks(opt),
            format!("{:.3}", max / opt),
            format!("{:.1}", 3.0 / e),
        ]
    });
    table(headers, rows)
}

/// Mean, standard deviation and range of each policy's max flow over its
/// seed replicas.
pub(super) fn variance_table(records: &[CellRecord]) -> Table {
    let policies = [
        (SweepPolicy::Fifo, "FIFO (deterministic)"),
        (SweepPolicy::StealK(PAPER_K), "steal-16-first"),
        (SweepPolicy::AdmitFirst, "admit-first"),
    ];
    let headers = ["policy", "runs", "mean (ms)", "std (ms)", "min", "max"];
    let rows = policies.into_iter().map(|(policy, label)| {
        let of_policy = records.iter().filter(|r| r.spec.policy == policy);
        let v: Vec<f64> = of_policy.map(max_ms).collect();
        let n = v.len() as f64;
        let mean = v.iter().sum::<f64>() / n;
        let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        [
            label.to_string(),
            v.len().to_string(),
            f2(mean),
            f2(var.sqrt()),
            f2(v.iter().copied().fold(f64::INFINITY, f64::min)),
            f2(v.iter().copied().fold(0.0, f64::max)),
        ]
    });
    table(headers, rows)
}

/// One row per machine size: OPT, steal-16-first and admit-first.
pub(super) fn scaling_table(records: &[CellRecord]) -> Table {
    let headers = [
        "m",
        "QPS (util 65%)",
        "OPT (ms)",
        "steal-16 (ms)",
        "admit-first (ms)",
        "admit/steal16",
    ];
    let machines = records.chunk_by(|a, b| a.spec.m == b.spec.m);
    let rows = machines.map(|cells| {
        let [opt, steal, admit] = opt_steal_admit(cells);
        [
            cells[0].spec.m.to_string(),
            format!("{:.0}", cells[0].spec.qps),
            f2(opt),
            f2(steal),
            f2(admit),
            f2(admit / steal),
        ]
    });
    table(headers, rows)
}

#[cfg(test)]
#[path = "../../tests/shape/mod.rs"]
mod shape;

#[cfg(test)]
mod tests {
    //! The shape checks of each table, at the sizes and base seeds of the
    //! per-experiment drivers these grids replaced. A narrowed grid runs
    //! the same cells as the full one: seeds hash a cell's coordinates,
    //! not its index.
    use super::shape;
    use super::*;

    const BING: DistKind = DistKind::Bing;

    fn csv(project: fn(&[CellRecord]) -> Table, grid: SweepGrid) -> String {
        project(&run(&grid, 2)).to_csv()
    }

    #[test]
    fn paper_qps_print_as_the_same_integers() {
        for dist in [DistKind::Bing, DistKind::Finance, DistKind::LogNormal] {
            let qps: Vec<String> = fig2(dist, 100, 1)
                .cells()
                .iter()
                .step_by(2)
                .map(|c| format!("{:.0}", c.qps))
                .collect();
            let want: Vec<String> = paper_qps(dist).iter().map(|q| format!("{q}")).collect();
            assert_eq!(qps, want, "{}", dist.name());
        }
    }

    /// `Ctx::from_env` takes any `PARFLOW_JOBS` up to the engines' `u32`
    /// job ids; every grid must accept them (at QPS 800, the slowest rate,
    /// even `u32::MAX` arrivals stay under the tick ceiling).
    #[test]
    fn every_grid_takes_every_job_count_repro_accepts() {
        for jobs in [1, u32::MAX as usize] {
            let fig2s = [BING, DistKind::Finance, DistKind::LogNormal].map(|d| fig2(d, jobs, 1));
            let rest = [steal_k, theory_fifo, variance, scaling].map(|build| build(jobs, 1));
            for grid in fig2s.iter().chain(&rest) {
                assert_eq!(grid.jobs, jobs, "{}", grid.canonical());
            }
        }
    }

    #[test]
    fn a_narrowed_grid_runs_the_full_grids_cells() {
        let full = run(&steal_k(300, 1), 2);
        let narrow = run(&at_qps(BING, &[1000.0], "policy=steal:16;m=16", 300, 1), 1);
        let twin = full
            .iter()
            .find(|r| {
                r.spec.util == narrow[0].spec.util && r.spec.policy == SweepPolicy::StealK(16)
            })
            .expect("the full grid has the cell");
        assert_eq!(twin.spec.engine_seed, narrow[0].spec.engine_seed);
        assert_eq!(twin.outcome, narrow[0].outcome);
    }

    #[test]
    fn fig2_small_run_shape_holds() {
        let csv = csv(fig2_table, fig2(BING, 2_000, 7));
        assert_eq!(csv.lines().count(), 4);
        shape::fig2(&csv);
    }

    #[test]
    fn fig2_table_renders() {
        let s = fig2_table(&run(&fig2(DistKind::Finance, 500, 3), 2)).render();
        assert!(s.contains("finance") && s.contains("QPS"), "{s}");
    }

    /// `steal-k` narrowed to k ∈ {0, 16} at one QPS.
    fn steal_k_at(qps: f64, jobs: usize, seed: u64) -> String {
        let rest = "policy=admit,steal:16;m=16";
        csv(steal_k_table, at_qps(BING, &[qps], rest, jobs, seed))
    }

    #[test]
    fn steal_k_points_dominate_opt() {
        shape::steal_k(&steal_k_at(1000.0, 2_000, 3));
    }

    #[test]
    fn steal_k_high_load_prefers_large_k() {
        shape::steal_k_high_load(&steal_k_at(1200.0, 8_000, 7), 1200);
    }

    #[test]
    fn steal_k_table_renders() {
        let grid = at_qps(BING, &[800.0], "policy=admit;m=16", 300, 1);
        assert!(csv(steal_k_table, grid).contains("ratio"));
    }

    #[test]
    fn theory_fifo_ratios_respect_theorem() {
        let csv = csv(theory_fifo_table, theory_fifo(3_000, 5));
        assert_eq!(csv.lines().count(), 6);
        shape::theory_fifo(&csv);
    }

    #[test]
    fn theory_fifo_more_speed_means_less_flow() {
        shape::theory_fifo(&csv(theory_fifo_table, theory_fifo(2_000, 9)));
    }

    #[test]
    fn theory_fifo_table_renders() {
        let s = theory_fifo_table(&run(&theory_fifo(500, 1), 1)).render();
        assert!(s.contains("bound 3/eps"));
    }

    /// `variance` at another QPS and replica count.
    fn variance_at(qps: f64, jobs: usize, runs: u32, seed: u64) -> String {
        let rest = format!("policy=fifo,admit,steal:16;m=16;seeds={runs}");
        csv(variance_table, at_qps(BING, &[qps], &rest, jobs, seed))
    }

    #[test]
    fn variance_fifo_has_zero_variance() {
        shape::variance(&variance_at(1000.0, 1_500, 5, 3), 5);
    }

    #[test]
    fn variance_randomized_policies_vary_but_bounded() {
        shape::variance(&variance_at(1100.0, 3_000, 6, 7), 6);
    }

    #[test]
    fn variance_table_renders() {
        assert!(variance_at(900.0, 300, 2, 1).contains("std (ms)"));
    }

    /// `scaling` narrowed to the machine sizes `ms`.
    fn scaling_at(ms: &str, jobs: usize, seed: u64) -> String {
        let spec = format!("dist=bing;util=0.65;policy=admit,steal:16;m={ms}");
        csv(scaling_table, grid(&spec, jobs, seed))
    }

    #[test]
    fn scaling_fixed_utilization_across_m() {
        shape::scaling(&scaling_at("4,16", 3_000, 5));
    }

    #[test]
    fn scaling_steal16_beats_admit_at_scale() {
        shape::scaling_large_m(&scaling_at("32", 4_000, 7), 32);
    }

    #[test]
    fn scaling_table_renders() {
        assert!(scaling_at("4", 300, 1).contains("util 65%"));
    }
}
