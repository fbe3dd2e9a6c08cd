//! Run any scheduler by name — the dispatch layer used by the CLI and the
//! experiment harness.

use crate::centralized::{run_priority, BiggestWeightFirst, Fifo, Lifo, ShortestJobFirst};
use crate::config::SimConfig;
use crate::equi::run_equi;
use crate::result::SimResult;
use crate::trace::ScheduleTrace;
use crate::worksteal::{run_worksteal, StealPolicy};
use parflow_dag::Instance;
use std::fmt;
use std::str::FromStr;

/// Every scheduler this workspace implements, as a value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerKind {
    /// First-In-First-Out (Section 3).
    Fifo,
    /// Biggest-Weight-First (Section 7).
    Bwf,
    /// Last-In-First-Out strawman.
    Lifo,
    /// Clairvoyant Shortest-Job-First strawman.
    Sjf,
    /// EQUI / processor sharing (Section 8 baseline).
    Equi,
    /// Work stealing, admit-first (Section 4, `k = 0`).
    AdmitFirst,
    /// Work stealing, steal-k-first (Section 4).
    StealKFirst(
        /// The `k` parameter.
        u32,
    ),
}

impl SchedulerKind {
    /// All kinds with their default parameters (k = 16 as in the paper).
    pub fn all() -> Vec<SchedulerKind> {
        vec![
            SchedulerKind::Fifo,
            SchedulerKind::Bwf,
            SchedulerKind::Lifo,
            SchedulerKind::Sjf,
            SchedulerKind::Equi,
            SchedulerKind::AdmitFirst,
            SchedulerKind::StealKFirst(16),
        ]
    }

    /// True for the distributed (work-stealing) schedulers, whose runs
    /// depend on the seed.
    pub fn is_randomized(&self) -> bool {
        matches!(
            self,
            SchedulerKind::AdmitFirst | SchedulerKind::StealKFirst(_)
        )
    }

    /// Run this scheduler.
    pub fn run(
        &self,
        instance: &Instance,
        config: &SimConfig,
        seed: u64,
    ) -> (SimResult, Option<ScheduleTrace>) {
        match *self {
            SchedulerKind::Fifo => run_priority(instance, config, &Fifo),
            SchedulerKind::Bwf => run_priority(instance, config, &BiggestWeightFirst),
            SchedulerKind::Lifo => run_priority(instance, config, &Lifo),
            SchedulerKind::Sjf => run_priority(instance, config, &ShortestJobFirst),
            SchedulerKind::Equi => run_equi(instance, config),
            SchedulerKind::AdmitFirst => {
                run_worksteal(instance, config, StealPolicy::AdmitFirst, seed)
            }
            SchedulerKind::StealKFirst(k) => {
                run_worksteal(instance, config, StealPolicy::StealKFirst { k }, seed)
            }
        }
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerKind::Fifo => write!(f, "fifo"),
            SchedulerKind::Bwf => write!(f, "bwf"),
            SchedulerKind::Lifo => write!(f, "lifo"),
            SchedulerKind::Sjf => write!(f, "sjf"),
            SchedulerKind::Equi => write!(f, "equi"),
            SchedulerKind::AdmitFirst => write!(f, "admit-first"),
            SchedulerKind::StealKFirst(k) => write!(f, "steal-{k}-first"),
        }
    }
}

/// Parse error for [`SchedulerKind`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseSchedulerError(
    /// The unrecognized input.
    pub String,
);

impl fmt::Display for ParseSchedulerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown scheduler '{}'; expected fifo|bwf|lifo|sjf|equi|admit-first|steal-<k>-first",
            self.0
        )
    }
}

impl std::error::Error for ParseSchedulerError {}

impl FromStr for SchedulerKind {
    type Err = ParseSchedulerError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "fifo" => Ok(SchedulerKind::Fifo),
            "bwf" => Ok(SchedulerKind::Bwf),
            "lifo" => Ok(SchedulerKind::Lifo),
            "sjf" => Ok(SchedulerKind::Sjf),
            "equi" => Ok(SchedulerKind::Equi),
            other => match other.parse::<StealPolicy>() {
                Ok(StealPolicy::AdmitFirst) => Ok(SchedulerKind::AdmitFirst),
                Ok(StealPolicy::StealKFirst { k }) => Ok(SchedulerKind::StealKFirst(k)),
                Err(_) => Err(ParseSchedulerError(s.to_string())),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parflow_dag::{shapes, Job};
    use std::sync::Arc;

    fn tiny_instance() -> Instance {
        let dag = Arc::new(shapes::parallel_for(12, 3));
        Instance::new(
            (0..6)
                .map(|i| Job::new(i, i as u64 * 2, dag.clone()))
                .collect(),
        )
    }

    #[test]
    fn every_kind_runs_and_validates() {
        let inst = tiny_instance();
        let cfg = SimConfig::new(2).with_trace();
        for kind in SchedulerKind::all() {
            let (r, t) = kind.run(&inst, &cfg, 7);
            assert_eq!(r.outcomes.len(), inst.len(), "{kind}");
            assert_eq!(t.unwrap().validate(&inst), Ok(()), "{kind}");
        }
    }

    #[test]
    fn roundtrip_display_parse() {
        for kind in SchedulerKind::all() {
            let s = kind.to_string();
            let back: SchedulerKind = s.parse().unwrap();
            assert_eq!(back, kind, "{s}");
        }
    }

    #[test]
    fn parse_variants() {
        assert_eq!(
            "FIFO".parse::<SchedulerKind>().unwrap(),
            SchedulerKind::Fifo
        );
        assert_eq!(
            "steal-32-first".parse::<SchedulerKind>().unwrap(),
            SchedulerKind::StealKFirst(32)
        );
        assert_eq!(
            "steal-0-first".parse::<SchedulerKind>().unwrap(),
            SchedulerKind::AdmitFirst
        );
        assert!("nonsense".parse::<SchedulerKind>().is_err());
        assert!("steal-x-first".parse::<SchedulerKind>().is_err());
    }

    #[test]
    fn randomized_flag() {
        assert!(SchedulerKind::AdmitFirst.is_randomized());
        assert!(SchedulerKind::StealKFirst(4).is_randomized());
        assert!(!SchedulerKind::Fifo.is_randomized());
        assert!(!SchedulerKind::Equi.is_randomized());
    }

    #[test]
    fn deterministic_kinds_ignore_seed() {
        let inst = tiny_instance();
        let cfg = SimConfig::new(2);
        for kind in [SchedulerKind::Fifo, SchedulerKind::Equi, SchedulerKind::Sjf] {
            let a = kind.run(&inst, &cfg, 1).0;
            let b = kind.run(&inst, &cfg, 2).0;
            assert_eq!(a.max_flow(), b.max_flow(), "{kind}");
        }
    }
}
