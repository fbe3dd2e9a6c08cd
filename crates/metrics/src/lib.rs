//! # parflow-metrics
//!
//! Reporting utilities for parflow experiments: flow-time statistics
//! ([`FlowStats`]), competitive-ratio helpers, fixed-bin histograms with
//! ASCII rendering (Figure 3), and aligned tables for experiment output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flow;
mod histogram;
mod norms;
mod streaming;
mod table;

pub use flow::{percentile_sorted, FlowStats, SampleStats};
pub use histogram::Histogram;
pub use norms::{lk_norm, max_stretch};
pub use streaming::StreamingFlowStats;
pub use table::Table;

#[cfg(test)]
mod proptests {
    use super::*;
    use parflow_time::Rational;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn stats_max_dominates_percentiles(
            flows in proptest::collection::vec(1i128..10_000, 1..200)
        ) {
            let flows: Vec<Rational> = flows.into_iter().map(Rational::from_int).collect();
            let s = FlowStats::from_flows(&flows).unwrap();
            let mx = s.max.to_f64();
            prop_assert!(s.p50 <= s.p95 + 1e-9);
            prop_assert!(s.p95 <= s.p99 + 1e-9);
            prop_assert!(s.p99 <= s.p999 + 1e-9);
            prop_assert!(s.p999 <= mx + 1e-9);
            prop_assert!(s.mean <= mx + 1e-9);
        }

        #[test]
        fn histogram_mass_conserved(xs in proptest::collection::vec(-5.0f64..15.0, 1..300)) {
            let mut h = Histogram::new(0.0, 10.0, 7);
            h.extend(xs.iter().copied());
            prop_assert_eq!(h.total() as usize, xs.len());
            let sum: u64 = h.counts().iter().sum();
            prop_assert_eq!(sum as usize, xs.len());
            let p: f64 = h.probabilities().iter().map(|&(_, q)| q).sum();
            prop_assert!((p - 1.0).abs() < 1e-9);
        }

        #[test]
        fn percentile_monotone(xs in proptest::collection::vec(0.0f64..100.0, 1..100),
                               q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
            let mut sorted = xs.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            prop_assert!(percentile_sorted(&sorted, lo) <= percentile_sorted(&sorted, hi));
        }
    }
}
