//! Descriptive statistics of generated instances, used by the CLI and the
//! experiment reports to characterize workloads before scheduling them.

use parflow_dag::Instance;
use std::fmt;

/// Summary of one instance's shape: work, parallelism and arrival pattern.
#[derive(Clone, Debug)]
pub struct InstanceStats {
    /// Number of jobs.
    pub n: usize,
    /// Total work (units).
    pub total_work: u64,
    /// Mean job work (units).
    pub mean_work: f64,
    /// Maximum job work (units).
    pub max_work: u64,
    /// Mean job span (units).
    pub mean_span: f64,
    /// Maximum job span (units).
    pub max_span: u64,
    /// Mean job parallelism `W/P`.
    pub mean_parallelism: f64,
    /// Mean inter-arrival gap (ticks).
    pub mean_gap: f64,
    /// Coefficient of variation of inter-arrival gaps (1 ≈ Poisson,
    /// 0 = periodic, ≫ 1 = bursty).
    pub gap_cv: f64,
}

impl InstanceStats {
    /// Compute statistics; returns `None` for empty instances.
    pub fn of(instance: &Instance) -> Option<InstanceStats> {
        if instance.is_empty() {
            return None;
        }
        let jobs = instance.jobs();
        let n = jobs.len();
        let total_work = instance.total_work();
        let mean_work = total_work as f64 / n as f64;
        let mean_span = jobs.iter().map(|j| j.span() as f64).sum::<f64>() / n as f64;
        let mean_parallelism = jobs.iter().map(|j| j.dag.parallelism()).sum::<f64>() / n as f64;

        let gaps: Vec<f64> = jobs
            .windows(2)
            .map(|w| (w[1].arrival - w[0].arrival) as f64)
            .collect();
        let (mean_gap, gap_cv) = if gaps.is_empty() {
            (0.0, 0.0)
        } else {
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            if mean <= 0.0 {
                (mean, 0.0)
            } else {
                let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
                (mean, var.sqrt() / mean)
            }
        };

        Some(InstanceStats {
            n,
            total_work,
            mean_work,
            max_work: instance.max_work(),
            mean_span,
            max_span: instance.max_span(),
            mean_parallelism,
            mean_gap,
            gap_cv,
        })
    }
}

impl fmt::Display for InstanceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "n = {}, total work = {} units ({:.1} avg, {} max)",
            self.n, self.total_work, self.mean_work, self.max_work
        )?;
        writeln!(
            f,
            "span: {:.1} avg, {} max; parallelism: {:.1} avg",
            self.mean_span, self.max_span, self.mean_parallelism
        )?;
        write!(
            f,
            "arrivals: mean gap {:.2} ticks, CV {:.2}",
            self.mean_gap, self.gap_cv
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{DistKind, ShapeKind, WorkloadSpec};

    #[test]
    fn empty_is_none() {
        assert!(InstanceStats::of(&Instance::new(vec![])).is_none());
    }

    #[test]
    fn poisson_gap_cv_near_one() {
        let inst = WorkloadSpec::paper_fig2(DistKind::Bing, 1000.0, 20_000, 3).generate();
        let s = InstanceStats::of(&inst).unwrap();
        assert_eq!(s.n, 20_000);
        // Exponential gaps have CV 1 (quantization adds noise).
        assert!((0.85..1.15).contains(&s.gap_cv), "gap CV {}", s.gap_cv);
        // 1000 QPS at 10_000 ticks/s → mean gap ≈ 10.
        assert!((9.0..11.0).contains(&s.mean_gap), "mean gap {}", s.mean_gap);
    }

    #[test]
    fn periodic_gap_cv_zero() {
        let spec = WorkloadSpec {
            dist: DistKind::Constant(10),
            shape: ShapeKind::Sequential,
            qps: None,
            period_ticks: 50,
            n_jobs: 100,
            seed: 0,
        };
        let s = InstanceStats::of(&spec.generate()).unwrap();
        assert_eq!(s.gap_cv, 0.0);
        assert_eq!(s.mean_gap, 50.0);
        assert_eq!(s.mean_work, 10.0);
        assert_eq!(s.max_work, 10);
        // Sequential jobs: parallelism exactly 1.
        assert!((s.mean_parallelism - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_for_parallelism_above_one() {
        let inst = WorkloadSpec::paper_fig2(DistKind::Bing, 1000.0, 2_000, 5).generate();
        let s = InstanceStats::of(&inst).unwrap();
        assert!(s.mean_parallelism > 2.0);
        assert!(s.mean_span < s.mean_work);
    }

    #[test]
    fn display_renders() {
        let inst = WorkloadSpec::paper_fig2(DistKind::Finance, 900.0, 100, 1).generate();
        let s = InstanceStats::of(&inst).unwrap();
        let text = s.to_string();
        assert!(text.contains("total work"));
        assert!(text.contains("parallelism"));
    }

    #[test]
    fn single_job_has_no_gaps() {
        let spec = WorkloadSpec {
            dist: DistKind::Constant(5),
            shape: ShapeKind::Sequential,
            qps: None,
            period_ticks: 10,
            n_jobs: 1,
            seed: 0,
        };
        let s = InstanceStats::of(&spec.generate()).unwrap();
        assert_eq!(s.mean_gap, 0.0);
        assert_eq!(s.gap_cv, 0.0);
    }
}
