//! Robustness extension: admission policies under injected faults.
//!
//! The paper's analysis assumes `m` identical, reliable processors. This
//! experiment measures how the two work-stealing admission policies degrade
//! when that assumption breaks: workers crash mid-run (their deques are
//! reinjected into the global queue and adopted by survivors), others run
//! at half speed, and individual tasks fail with some probability.
//!
//! The interesting comparison is admit-first vs steal-k-first. Admit-first
//! spreads every queued job across workers eagerly, so a crash orphans
//! tasks of *many* jobs at once but each loses little; steal-k-first keeps
//! jobs concentrated, so fewer jobs are hit but the backlogged global queue
//! amplifies the capacity loss. The sweep quantifies both effects on the
//! max flow time of *completed* jobs.

use super::{jobs_per_point, PAPER_K, PAPER_M};
use parflow_core::{simulate_worksteal, FaultPlan, SimConfig, StealPolicy};
use parflow_metrics::Table;
use parflow_workloads::{DistKind, WorkloadSpec, TICKS_PER_SECOND};

/// One severity level of the fault sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FaultLevel {
    /// Workers crashed (staggered, one every 500 rounds from round 500).
    pub crashes: usize,
    /// Additional workers slowed to half speed for the whole run.
    pub slowdowns: usize,
    /// Per-task failure probability in ppm.
    pub panic_ppm: u32,
}

impl FaultLevel {
    /// Build the corresponding [`FaultPlan`] for a machine of `m` workers.
    pub(crate) fn plan(&self, m: usize) -> FaultPlan {
        assert!(self.crashes + self.slowdowns < m, "need a healthy survivor");
        let mut plan = FaultPlan::none();
        for i in 0..self.crashes {
            plan = plan.crash(i, 500 * (i as u64 + 1));
        }
        for j in 0..self.slowdowns {
            plan = plan.slowdown(self.crashes + j, 500_000);
        }
        plan.with_panic_ppm(self.panic_ppm)
    }
}

/// The default severity ladder: fault-free, then increasingly hostile.
pub(crate) fn default_levels() -> Vec<FaultLevel> {
    vec![
        FaultLevel {
            crashes: 0,
            slowdowns: 0,
            panic_ppm: 0,
        },
        FaultLevel {
            crashes: 1,
            slowdowns: 0,
            panic_ppm: 0,
        },
        FaultLevel {
            crashes: 2,
            slowdowns: 2,
            panic_ppm: 0,
        },
        FaultLevel {
            crashes: 4,
            slowdowns: 4,
            panic_ppm: 1_000,
        },
        FaultLevel {
            crashes: 6,
            slowdowns: 6,
            panic_ppm: 10_000,
        },
    ]
}

/// One `(policy, level)` data point.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FaultPoint {
    /// Steal-k threshold (0 = admit-first).
    pub k: u32,
    /// The severity level.
    pub level: FaultLevel,
    /// Max flow over completed jobs, in ms.
    pub max_flow_ms: f64,
    /// Jobs that ran to completion.
    pub completed: usize,
    /// Jobs lost to injected task panics.
    pub failed: usize,
    /// Total jobs.
    pub n: usize,
}

/// Run the sweep at the default size.
pub(crate) fn run(levels: &[FaultLevel], qps: f64, seed: u64) -> Vec<FaultPoint> {
    run_sized(levels, qps, seed, jobs_per_point().min(20_000))
}

/// Run with an explicit job count.
fn run_sized(levels: &[FaultLevel], qps: f64, seed: u64, n_jobs: usize) -> Vec<FaultPoint> {
    let to_ms = 1000.0 / TICKS_PER_SECOND;
    let inst = WorkloadSpec::paper_fig2(DistKind::Bing, qps, n_jobs, seed).generate();
    let mut out = Vec::new();
    for &level in levels {
        let cfg = SimConfig::new(PAPER_M)
            .with_free_steals()
            .with_faults(level.plan(PAPER_M));
        for k in [0u32, PAPER_K] {
            let policy = if k == 0 {
                StealPolicy::AdmitFirst
            } else {
                StealPolicy::StealKFirst { k }
            };
            let r = simulate_worksteal(&inst, &cfg, policy, seed ^ ((k as u64) << 16));
            let completed = r
                .outcomes
                .iter()
                .filter(|o| o.status.is_completed())
                .count();
            out.push(FaultPoint {
                k,
                level,
                max_flow_ms: r.max_completed_flow().to_f64() * to_ms,
                completed,
                failed: r.outcomes.len() - completed,
                n: r.outcomes.len(),
            });
        }
    }
    out
}

/// Render rows.
pub(crate) fn table(points: &[FaultPoint]) -> Table {
    let mut t = Table::new([
        "crashes",
        "slow(0.5x)",
        "panic ppm",
        "policy",
        "max flow (ms)",
        "completed",
        "failed",
    ]);
    for p in points {
        t.row([
            p.level.crashes.to_string(),
            p.level.slowdowns.to_string(),
            p.level.panic_ppm.to_string(),
            if p.k == 0 {
                "admit-first".into()
            } else {
                format!("steal-{}-first", p.k)
            },
            format!("{:.2}", p.max_flow_ms),
            format!("{}/{}", p.completed, p.n),
            p.failed.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_level_completes_everything() {
        let pts = run_sized(
            &[FaultLevel {
                crashes: 0,
                slowdowns: 0,
                panic_ppm: 0,
            }],
            1000.0,
            5,
            2_000,
        );
        assert_eq!(pts.len(), 2);
        for p in &pts {
            assert_eq!(p.completed, p.n);
            assert_eq!(p.failed, 0);
            assert!(p.max_flow_ms > 0.0);
        }
    }

    #[test]
    fn crashes_and_slowdowns_cost_flow_time() {
        let levels = [
            FaultLevel {
                crashes: 0,
                slowdowns: 0,
                panic_ppm: 0,
            },
            FaultLevel {
                crashes: 4,
                slowdowns: 4,
                panic_ppm: 0,
            },
        ];
        let pts = run_sized(&levels, 1000.0, 11, 4_000);
        for k in [0u32, PAPER_K] {
            let healthy = pts
                .iter()
                .find(|p| p.k == k && p.level.crashes == 0)
                .unwrap();
            let hostile = pts
                .iter()
                .find(|p| p.k == k && p.level.crashes == 4)
                .unwrap();
            // Everything still completes (no panics), but losing half the
            // machine's capacity must not make flows better.
            assert_eq!(hostile.completed, hostile.n);
            assert!(
                hostile.max_flow_ms >= healthy.max_flow_ms,
                "k={k}: hostile {} < healthy {}",
                hostile.max_flow_ms,
                healthy.max_flow_ms
            );
        }
    }

    #[test]
    fn panics_fail_some_jobs() {
        let pts = run_sized(
            &[FaultLevel {
                crashes: 0,
                slowdowns: 0,
                panic_ppm: 50_000,
            }],
            1000.0,
            9,
            2_000,
        );
        for p in &pts {
            assert!(p.failed > 0, "5% task-failure rate should lose jobs: {p:?}");
            assert_eq!(p.completed + p.failed, p.n);
        }
    }

    #[test]
    fn level_plan_respects_machine_size() {
        let plan = FaultLevel {
            crashes: 2,
            slowdowns: 1,
            panic_ppm: 5,
        }
        .plan(PAPER_M);
        assert!(plan.validate(PAPER_M).is_ok());
        assert_eq!(plan.crash_round_of(0), Some(500));
        assert_eq!(plan.crash_round_of(1), Some(1000));
        assert_eq!(plan.rate_ppm_of(2), 500_000);
    }

    #[test]
    #[should_panic(expected = "healthy survivor")]
    fn level_plan_rejects_total_faults() {
        let _ = FaultLevel {
            crashes: 8,
            slowdowns: 8,
            panic_ppm: 0,
        }
        .plan(16);
    }

    #[test]
    fn table_renders() {
        let pts = run_sized(&default_levels()[..2], 900.0, 1, 400);
        let rendered = table(&pts).render();
        assert!(rendered.contains("admit-first"));
        assert!(rendered.contains("steal-16-first"));
    }
}
