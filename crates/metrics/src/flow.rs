//! Flow-time statistics.

use parflow_time::Rational;

/// Summary statistics over a set of flow times.
///
/// Percentiles use the nearest-rank method on the sorted sample; the
/// maximum is kept exact (rational), everything else is `f64` because it is
/// reporting-only. Samples whose `f64` projection is non-finite (a NaN
/// flow from a faulted or shed run, an overflow to infinity) are counted
/// in [`FlowStats::nan`] and excluded from every other field.
#[derive(Clone, Debug)]
pub struct FlowStats {
    /// Finite sample size (excludes [`FlowStats::nan`]).
    pub count: usize,
    /// Samples excluded as non-finite, kept out-of-band like the
    /// histogram's NaN bin so one bad flow cannot poison a whole cell.
    pub nan: usize,
    /// Exact maximum flow (the paper's objective).
    pub max: Rational,
    /// Mean flow.
    pub mean: f64,
    /// Median (p50).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
}

impl FlowStats {
    /// Compute statistics from exact flows. Returns `None` only when no
    /// finite samples remain (empty input, or every flow projects to a
    /// non-finite `f64`); a partially-poisoned sample set degrades to
    /// statistics over its finite part with the rest counted in `nan`.
    pub fn from_flows(flows: &[Rational]) -> Option<FlowStats> {
        let max = flows.iter().copied().max()?;
        let vals: Vec<f64> = flows.iter().map(|f| f.to_f64()).collect();
        Self::from_projected(max, &vals)
    }

    /// Core of [`FlowStats::from_flows`] over the `f64` projections, with
    /// the exact maximum supplied separately. Public so reporting paths
    /// that only hold `f64` flows (faulted/shed runs, sweep cells) share
    /// the same degradation: non-finite samples are counted in `nan` and
    /// excluded, the sort is total-order, and the result is `None` only
    /// when no finite samples remain.
    pub(crate) fn from_projected(max: Rational, samples: &[f64]) -> Option<FlowStats> {
        let (vals, mean) = sorted_finite(samples)?;
        let pct = |q: f64| try_percentile_sorted(&vals, q).unwrap_or(f64::NAN);
        Some(FlowStats {
            count: vals.len(),
            nan: samples.len() - vals.len(),
            max,
            mean,
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            p999: pct(0.999),
        })
    }

    /// Max flow in milliseconds given the tick resolution (ticks/second).
    pub fn max_ms(&self, ticks_per_second: f64) -> f64 {
        self.max.to_f64() * 1000.0 / ticks_per_second
    }
}

/// Order statistics over raw `f64` samples with non-finite values counted
/// out-of-band — the non-panicking aggregation path for sweep cells and
/// any other reporting surface whose inputs are not validated.
///
/// `from_samples` never panics: NaN and ±∞ samples are excluded and
/// counted in [`SampleStats::nonfinite`], and the constructor returns
/// `None` only when no finite samples remain. An all-NaN or empty cell is
/// a *normal* outcome (a pruned config, a fully-shed run), not a bug.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SampleStats {
    /// Finite samples summarized.
    pub count: usize,
    /// Samples excluded as NaN or ±∞.
    pub nonfinite: usize,
    /// Minimum finite sample.
    pub min: f64,
    /// Maximum finite sample.
    pub max: f64,
    /// Mean of finite samples.
    pub mean: f64,
    /// Median (nearest rank).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl SampleStats {
    /// Summarize a raw sample slice. `None` iff no finite samples remain.
    pub fn from_samples(xs: &[f64]) -> Option<SampleStats> {
        let (vals, mean) = sorted_finite(xs)?;
        let pct = |q: f64| try_percentile_sorted(&vals, q).unwrap_or(f64::NAN);
        Some(SampleStats {
            count: vals.len(),
            nonfinite: xs.len() - vals.len(),
            min: vals[0],
            max: vals[vals.len() - 1],
            mean,
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
        })
    }
}

/// The finite samples of `xs` in ascending total order, with their mean
/// (summed in that order, so it is a function of the sample multiset).
/// `None` iff no finite sample remains. The one summary body behind
/// [`FlowStats`], [`SampleStats`] and the obs layer's `HistogramSummary`.
fn sorted_finite(xs: &[f64]) -> Option<(Vec<f64>, f64)> {
    let mut vals: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if vals.is_empty() {
        return None;
    }
    vals.sort_by(f64::total_cmp);
    // lint: allow(float-determinism) sums a freshly sorted Vec in index order; the order is pinned by the sort above
    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
    Some((vals, mean))
}

/// Nearest-rank percentile of an ascending-sorted slice; `None` when the
/// slice is empty or `q` falls outside `[0, 1]` (NaN included).
///
/// Prefer this over [`percentile_sorted`] anywhere the inputs are not
/// already validated — reporting paths should degrade, not panic.
pub(crate) fn try_percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Nearest-rank percentile of an ascending-sorted slice; `q` in `[0, 1]`.
///
/// # Panics
///
/// On an empty slice or out-of-range `q`; the crate's own summaries use
/// the non-panicking `try_percentile_sorted`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    try_percentile_sorted(sorted, q).expect("validated above")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(v: i128) -> Rational {
        Rational::from_int(v)
    }

    #[test]
    fn empty_is_none() {
        assert!(FlowStats::from_flows(&[]).is_none());
    }

    #[test]
    fn single_value() {
        let s = FlowStats::from_flows(&[r(7)]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.max, r(7));
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.p50, 7.0);
        assert_eq!(s.p999, 7.0);
    }

    #[test]
    fn known_percentiles() {
        let flows: Vec<Rational> = (1..=100).map(r).collect();
        let s = FlowStats::from_flows(&flows).unwrap();
        assert_eq!(s.max, r(100));
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p95, 95.0);
        assert_eq!(s.p99, 99.0);
        assert!((s.mean - 50.5).abs() < 1e-12);
    }

    #[test]
    fn unsorted_input_ok() {
        let flows = vec![r(5), r(1), r(9), r(3)];
        let s = FlowStats::from_flows(&flows).unwrap();
        assert_eq!(s.max, r(9));
        assert_eq!(s.p50, 3.0);
    }

    #[test]
    fn max_ms_conversion() {
        let s = FlowStats::from_flows(&[r(250)]).unwrap();
        // 250 ticks at 10_000 ticks/s = 25 ms.
        assert!((s.max_ms(10_000.0) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_bounds() {
        let v = vec![1.0, 2.0, 3.0];
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 1.0), 3.0);
        assert_eq!(percentile_sorted(&v, 0.34), 2.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile_sorted(&[], 0.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_bad_quantile_panics() {
        percentile_sorted(&[1.0], 1.5);
    }

    #[test]
    fn try_percentile_degrades_instead_of_panicking() {
        assert_eq!(try_percentile_sorted(&[], 0.5), None);
        let v = vec![1.0, 2.0, 3.0];
        assert_eq!(try_percentile_sorted(&v, -0.1), None);
        assert_eq!(try_percentile_sorted(&v, 1.1), None);
        assert_eq!(try_percentile_sorted(&v, f64::NAN), None);
        assert_eq!(try_percentile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(try_percentile_sorted(&v, 0.5), Some(2.0));
        assert_eq!(try_percentile_sorted(&v, 1.0), Some(3.0));
    }

    /// Regression for the flow.rs:37 panic family: the sort used
    /// `partial_cmp(..).expect("flows are finite")`, so a single NaN flow
    /// from a faulted/shed run panicked the whole driver mid-sweep.
    /// `from_projected` is the same code path `from_flows` runs; a NaN
    /// sample must degrade (counted out-of-band), never panic.
    #[test]
    fn nan_flow_degrades_instead_of_panicking() {
        let s = FlowStats::from_projected(r(3), &[1.0, f64::NAN, 3.0]).unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.nan, 1);
        assert_eq!(s.max, r(3));
        assert_eq!(s.p50, 1.0);
        assert_eq!(s.p999, 3.0);
        assert!((s.mean - 2.0).abs() < 1e-12);
        // No finite samples at all: None, not a panic.
        assert!(FlowStats::from_projected(r(1), &[f64::NAN, f64::INFINITY]).is_none());
        // from_flows is unchanged for exact inputs (which are always finite).
        let via_rational = FlowStats::from_flows(&[r(1), r(3)]).unwrap();
        assert_eq!(via_rational.nan, 0);
        assert_eq!(via_rational.count, 2);
    }

    #[test]
    fn sample_stats_nan_out_of_band() {
        let s = SampleStats::from_samples(&[f64::NAN, 2.0, 1.0, f64::INFINITY, 4.0]).unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.nonfinite, 2);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.p50, 2.0);
        assert!((s.mean - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn sample_stats_empty_and_all_nan_are_none() {
        assert!(SampleStats::from_samples(&[]).is_none());
        assert!(SampleStats::from_samples(&[f64::NAN, f64::NAN]).is_none());
        assert!(SampleStats::from_samples(&[f64::NEG_INFINITY]).is_none());
    }
}
