//! Experiment drivers: one module per paper table/figure plus theory
//! validations and ablations. The grid-shaped experiments (Figure 2,
//! `steal-k`, `theory-fifo`, `variance`, `scaling`) are sweep grids plus a
//! projection (`grids`); the rest are bespoke drivers that return
//! structured rows and render a `parflow_metrics::Table`. [`EXPERIMENTS`]
//! names and runs them in order, and the `repro` binary prints them.

mod backlog;
mod burst;
mod equi_ablation;
mod fault_resilience;
mod fig3;
mod grain;
mod grids;
mod intervals;
mod lemma_audit;
mod lower_bound;
mod norms;
mod serve_soak;
mod steal_amount;
mod theory_bwf;
mod theory_ws;
mod victim_ablation;
mod weighted_ws;

use crate::sweep::{grid::SweepGrid, CellRecord};
use crate::Reporter;
use parflow_metrics::Table;
use parflow_workloads::DistKind;
use std::ops::RangeInclusive;

/// A grid experiment's projection from its cell records to its table.
type Projection = fn(&[CellRecord]) -> Table;

/// Print a section banner.
pub fn banner(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// What an experiment needs from the invocation.
pub struct Ctx {
    /// Where tables go: stdout, plus one CSV each under `--csv`.
    pub reporter: Reporter,
    /// Base seed of every experiment (`PARFLOW_SEED`, default `0x9af1`).
    pub seed: u64,
    /// Jobs per experiment point (`PARFLOW_JOBS`, default 20 000; the
    /// paper uses 100 000).
    pub jobs_per_point: usize,
    /// Width of the experiment thread pool (`PARFLOW_THREADS`, default the
    /// machine's available parallelism; `1` runs serially).
    pub threads: usize,
    /// `--jobs`: lifts serve-soak's default cap.
    pub jobs: Option<u64>,
}

impl Ctx {
    /// A context sized by `PARFLOW_JOBS`, `PARFLOW_SEED` and
    /// `PARFLOW_THREADS`, each read once, here (see `env_u64`). Jobs and
    /// threads must be positive, and jobs must fit the engines' `u32` job
    /// ids, which every grid accepts; anything else is an error naming the
    /// variable.
    pub fn from_env(reporter: Reporter, jobs: Option<u64>) -> Result<Ctx, String> {
        let n = env_u64("PARFLOW_JOBS", 1..=u32::MAX.into())?.unwrap_or(20_000);
        Ok(Ctx {
            reporter,
            seed: env_u64("PARFLOW_SEED", 0..=u64::MAX)?.unwrap_or(0x9af1),
            jobs_per_point: n as usize,
            threads: env_threads()?,
            jobs,
        })
    }

    /// `jobs_per_point`, capped at the 20 000 jobs most experiments run at
    /// (Figure 2 and `steal-k` follow `PARFLOW_JOBS` past it).
    fn capped_jobs(&self) -> usize {
        self.jobs_per_point.min(20_000)
    }

    fn emit(&self, name: &str, table: &Table) {
        self.reporter.emit(name, table).expect("csv write");
    }

    /// Run one of the grid experiments and emit its projected table.
    fn run_grid(&self, name: &str, grid: SweepGrid, project: Projection) {
        self.emit(name, &project(&grids::run(&grid, self.threads)));
    }
}

/// Environment variable `name` as a decimal or `0x`-hex integer in
/// `range`: `None` when unset, else an error naming the variable.
fn env_u64(name: &str, range: RangeInclusive<u64>) -> Result<Option<u64>, String> {
    let Some(raw) = std::env::var_os(name) else {
        return Ok(None);
    };
    let v = raw.to_string_lossy();
    let n = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    };
    match n.filter(|n| range.contains(n)) {
        Some(n) => Ok(Some(n)),
        None => Err(format!(
            "{name}: bad value '{v}' (want {range:?}, decimal or 0x hex)"
        )),
    }
}

/// `PARFLOW_THREADS` if set, else the machine's available parallelism.
pub(crate) fn env_threads() -> Result<usize, String> {
    let n = env_u64("PARFLOW_THREADS", 1..=u64::MAX)?;
    Ok(n.map_or_else(
        || std::thread::available_parallelism().map_or(1, |n| n.get()),
        |n| n as usize,
    ))
}

fn run_fig2(dist: DistKind, panel: &str, c: &Ctx) {
    banner(&format!(
        "Figure 2({panel}): max flow time vs QPS — {} workload (m=16, n={})",
        dist.name(),
        c.jobs_per_point
    ));
    let grid = grids::fig2(dist, c.jobs_per_point, c.seed);
    c.run_grid(&format!("fig2_{}", dist.name()), grid, grids::fig2_table);
    println!("expected shape: OPT <= steal-16-first << admit-first, gap grows with QPS");
    println!("(util is the offered load, not the realized utilization)");
}

/// An experiment: its name on the command line and what runs it.
pub(crate) type Experiment = (&'static str, fn(&Ctx));

/// Every experiment, in run order: the one table behind `--list`, name
/// validation, the `--obs-json` phase spans and the run loop.
pub const EXPERIMENTS: &[Experiment] = &[
    ("fig2-bing", |c| run_fig2(DistKind::Bing, "a", c)),
    ("fig2-finance", |c| run_fig2(DistKind::Finance, "b", c)),
    ("fig2-lognormal", |c| run_fig2(DistKind::LogNormal, "c", c)),
    ("fig3", |c| {
        banner("Figure 3: request work distributions");
        println!("{}", fig3::render(200_000, c.seed));
    }),
    ("lower-bound", |c| {
        banner("Lemma 5.1: work stealing is Omega(log n)-competitive");
        let pts = lower_bound::run(&lower_bound::default_ms(), 200_000, c.seed, c.threads);
        c.emit("lower_bound", &lower_bound::table(&pts));
        println!("expected shape: WS max flow grows ~m/10 with m = Theta(log n); FIFO stays ~2");
    }),
    ("theory-fifo", |c| {
        banner("Theorem 3.1: FIFO with (1+eps) speed is (3/eps)-competitive");
        let grid = grids::theory_fifo(c.capped_jobs(), c.seed);
        c.run_grid("theory_fifo", grid, grids::theory_fifo_table);
    }),
    ("theory-ws", |c| {
        banner("Theorem 4.1: steal-k-first with (k+1+eps) speed, normalized flow");
        let pts = theory_ws::run(&[0, 2, 16], &[2_000, 8_000, 32_000], c.seed, c.threads);
        c.emit("theory_ws", &theory_ws::table(&pts));
    }),
    ("theory-bwf", |c| {
        banner("Theorem 7.1: BWF with (1+eps) speed is (3/eps^2)-competitive (weighted)");
        let pts = theory_bwf::run(c.capped_jobs(), 1_000, c.seed);
        c.emit("theory_bwf", &theory_bwf::table(&pts));
    }),
    ("steal-k", |c| {
        banner("Ablation: steal-k-first parameter sweep (Bing workload)");
        let grid = grids::steal_k(c.jobs_per_point, c.seed);
        c.run_grid("steal_k", grid, grids::steal_k_table);
        println!("expected shape: larger k approaches OPT; k=0 degrades at high QPS");
    }),
    ("victim-ablation", |c| {
        banner("Ablation: victim selection vs the Lemma 5.1 lower bound");
        let pts = victim_ablation::run(&[20, 40, 60, 80], 150_000, c.seed, c.threads);
        c.emit("victim_ablation", &victim_ablation::table(&pts));
        println!("expected shape: random victims degrade ~m/10; scanning collapses to O(1)");
    }),
    ("equi", |c| {
        banner("Ablation: EQUI (processor sharing) vs FIFO for max flow");
        let pts = equi_ablation::run(&[800.0, 1000.0, 1200.0], c.capped_jobs(), c.seed);
        c.emit("equi_ablation", &equi_ablation::table(&pts));
        println!("expected shape: EQUI's max-flow gap to FIFO grows with load");
    }),
    ("norms", |c| {
        banner("Extension: l_k norms of flow time and maximum stretch");
        let pts = norms::run(c.capped_jobs(), c.seed);
        c.emit("norms", &norms::table(&pts));
    }),
    ("grain", |c| {
        banner("Ablation: parallel-for chunk granularity (steal-16-first)");
        let grains = grain::default_grains();
        let pts = grain::run(&grains, 1100.0, c.capped_jobs(), c.seed, c.threads);
        c.emit("grain", &grain::table(&pts));
        println!("expected shape: a U-curve — too-fine grains flood deques and delay admissions,");
        println!("too-coarse grains raise span; the sweet spot sits near ~1-3 ms chunks");
    }),
    ("burst", |c| {
        banner("Robustness: bursty arrivals at fixed average load");
        let pts = burst::run(&burst::default_bursts(), c.capped_jobs(), c.seed);
        c.emit("burst", &burst::table(&pts));
        println!("expected shape: everyone degrades with burst size; admit-first fastest");
    }),
    ("scaling", |c| {
        banner("Extension: machine-size scaling at fixed 65% utilization (Bing)");
        let grid = grids::scaling(c.capped_jobs(), c.seed);
        c.run_grid("scaling", grid, grids::scaling_table);
        println!("expected shape: steal-16 tracks OPT at every m; admit-first gap persists");
    }),
    ("variance", |c| {
        banner("Extension: max-flow variance across seeds (w.h.p. in practice)");
        let grid = grids::variance(c.capped_jobs(), c.seed);
        c.run_grid("variance", grid, grids::variance_table);
    }),
    ("steal-amount", |c| {
        banner("Ablation: steal-one vs steal-half transfer granularity (unit-cost steals)");
        let pts = steal_amount::run(&[800.0, 1000.0, 1200.0], c.capped_jobs(), c.seed);
        c.emit("steal_amount", &steal_amount::table(&pts));
    }),
    ("weighted-ws", |c| {
        banner("Extension: distributed BWF (weight-ordered admission) vs centralized BWF");
        let pts = weighted_ws::run(&[800.0, 1000.0, 1200.0], c.capped_jobs(), c.seed);
        c.emit("weighted_ws", &weighted_ws::table(&pts));
        println!("expected shape: weighted admission helps in backlog episodes, but");
        println!("preemptive BWF wins consistently; see module docs for the analysis");
    }),
    ("fault-resilience", |c| {
        banner("Robustness: admit-first vs steal-16-first under injected faults (QPS 1000)");
        let levels = fault_resilience::default_levels();
        let pts = fault_resilience::run(&levels, 1000.0, c.seed, c.capped_jobs());
        c.emit("fault_resilience", &fault_resilience::table(&pts));
        println!("expected shape: both policies degrade smoothly as workers crash/slow;");
        println!(
            "crashed deques are reinjected, so no completed job is lost — only panics fail jobs"
        );
    }),
    ("serve-soak", |c| {
        banner("Robustness: streaming admission service under sustained QPS (SLO soak)");
        // `--jobs` lifts the default cap: the supervisor streams its
        // source, so a 10M-job soak is wall-time-bound, not memory-bound.
        let soak_jobs = c
            .jobs
            .map(|j| j as usize)
            .unwrap_or_else(|| c.jobs_per_point.min(5_000));
        let pts = serve_soak::run_sized(&serve_soak::default_utils(), c.seed, soak_jobs);
        c.emit("serve_soak", &serve_soak::table(&pts));
        println!("expected shape: shed/reject rates rise past utilization 1.0, while the");
        println!("max virtual flow over admitted jobs stays under the SLO at every level");
    }),
    ("lemmas", |c| {
        banner("Lemma audit: proof-level quantities measured on real schedules");
        let a = lemma_audit::run(c.jobs_per_point.min(10_000), c.seed);
        c.emit("lemma_audit", &lemma_audit::table(&a));
    }),
    ("backlog", |c| {
        banner("Diagnostic: backlog dynamics, admit-first vs steal-16-first (QPS 1200)");
        let pts = backlog::run(1200.0, c.capped_jobs(), c.seed);
        c.emit("backlog", &backlog::table(&pts));
        println!("mechanism: admit-first opens jobs eagerly (high live count, slow each);");
        println!("steal-16-first queues them and drains admitted jobs with parallelism");
    }),
    ("intervals", |c| {
        banner("Figure 1: interval decomposition of the max-flow job's trace");
        match intervals::run(c.capped_jobs(), c.seed, (1, 10)) {
            Some(a) => {
                println!(
                    "max-flow job J_{} : r_i={:.1} c_i={:.1} F_i={:.1}, beta={}, t'={:.1}",
                    a.job,
                    a.arrival.to_f64(),
                    a.completion.to_f64(),
                    a.flow.to_f64(),
                    a.beta(),
                    a.t_prime.to_f64()
                );
                c.emit("intervals", &intervals::table(&a));
            }
            None => println!("empty instance"),
        }
    }),
];

/// The paper's machine size: dual 8-core Xeon, m = 16.
pub const PAPER_M: usize = 16;

/// The paper's steal-k-first parameter (Section 6: "we use k = 16").
pub const PAPER_K: u32 = 16;

/// Order-preserving parallel map over independent experiment points.
///
/// Each point owns its instance generation and its simulator RNG seed, so
/// evaluation order cannot affect results — only wall clock. Results are
/// returned in input order, which keeps every table, CSV and stdout byte
/// stream identical to the serial path regardless of thread count or
/// scheduling jitter. Workers pull indexed items off a shared stack; a
/// panic in `f` propagates out of the scope. The thread count is passed
/// in (`Ctx::threads`, the sweep's `--threads`), never read from the
/// environment here, so determinism tests can compare thread counts
/// within one process.
pub(crate) fn par_map<T, U, F>(threads: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = std::sync::Mutex::new(items.into_iter().enumerate().rev().collect::<Vec<_>>());
    let slots = std::sync::Mutex::new((0..n).map(|_| None).collect::<Vec<Option<U>>>());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let next = queue.lock().expect("queue lock").pop();
                match next {
                    Some((i, item)) => {
                        let out = f(item);
                        slots.lock().expect("slots lock")[i] = Some(out);
                    }
                    None => break,
                }
            });
        }
    });
    slots
        .into_inner()
        .expect("no worker panicked")
        .into_iter()
        .map(|o| o.expect("every index filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        assert_eq!(PAPER_M, 16);
        assert_eq!(PAPER_K, 16);
    }

    #[test]
    fn par_map_preserves_order() {
        let out = par_map(3, (0..100u64).collect(), |i| i * 3);
        assert_eq!(out, (0..100u64).map(|i| i * 3).collect::<Vec<_>>());
        let empty: Vec<u64> = par_map(3, Vec::new(), |i: u64| i);
        assert!(empty.is_empty());
    }

    #[test]
    fn par_map_matches_serial_under_contention() {
        // Uneven per-item cost so workers finish out of order.
        let work = |i: u64| -> u64 { (0..(i % 7) * 1000).fold(i, |a, b| a ^ b.wrapping_mul(a)) };
        let items: Vec<u64> = (0..64).collect();
        let serial: Vec<u64> = items.iter().map(|&i| work(i)).collect();
        assert_eq!(par_map(4, items, work), serial);
    }
}
