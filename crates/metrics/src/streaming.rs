//! O(1)-memory flow statistics for streaming runs.
//!
//! [`FlowStats::from_flows`](crate::FlowStats::from_flows) needs the whole
//! flow vector — O(n) memory plus a sort — which is exactly what the
//! streaming simulation core exists to avoid. [`StreamingFlowStats`] folds
//! flows in one at a time: the maximum (the paper's objective) and the
//! mean stay **exact**; p50/p95/p99/p999 come from the fixed-bin
//! [`Histogram`], accurate to one bin width. Live memory is the histogram's
//! bin vector, independent of the number of samples.

use crate::flow::FlowStats;
use crate::histogram::Histogram;
use parflow_time::Rational;

/// Running flow-time statistics over a stream of samples.
///
/// Feed flows with [`record`](Self::record) (exact rationals). Non-finite
/// projections are tallied out-of-band like [`FlowStats::nan`], so one
/// poisoned flow cannot skew a 10M-job summary.
#[derive(Clone, Debug)]
pub struct StreamingFlowStats {
    count: u64,
    nan: u64,
    max: Rational,
    min: f64,
    sum: f64,
    hist: Histogram,
}

impl StreamingFlowStats {
    /// Statistics with `bins` uniform percentile bins over `[lo, hi)`
    /// (same clamping semantics as [`Histogram::new`]: out-of-range flows
    /// land in the edge bins, so tail percentiles saturate at `hi`).
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        StreamingFlowStats {
            count: 0,
            nan: 0,
            max: Rational::ZERO,
            min: f64::INFINITY,
            sum: 0.0,
            hist: Histogram::new(lo, hi, bins),
        }
    }

    /// Fold in one exact flow. The maximum is updated on the rational
    /// (bit-exact); the `f64` projection feeds mean and percentiles.
    pub fn record(&mut self, flow: Rational) {
        let x = flow.to_f64();
        if !x.is_finite() {
            self.nan += 1;
            return;
        }
        if self.count == 0 || self.max < flow {
            self.max = flow;
        }
        self.min = self.min.min(x);
        self.count += 1;
        self.sum += x;
        self.hist.add(x);
    }

    /// Finite samples folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Non-finite samples excluded.
    pub fn nan(&self) -> u64 {
        self.nan
    }

    /// Exact maximum over recorded flows ([`Rational::ZERO`] when empty).
    pub fn max(&self) -> Rational {
        self.max
    }

    /// Exact running mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Exact minimum of the `f64` projections (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Approximate quantile from the histogram (one-bin-width accuracy);
    /// `None` when empty or `q ∉ (0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.hist.quantile(q)
    }

    /// The percentile histogram itself (for rendering).
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }

    /// Snapshot as a [`FlowStats`]: max and mean exact, percentiles
    /// histogram-approximate. `None` when no finite samples were recorded
    /// — mirroring [`FlowStats::from_flows`].
    pub fn finish(&self) -> Option<FlowStats> {
        if self.count == 0 {
            return None;
        }
        let pct = |q: f64| self.hist.quantile(q).unwrap_or(f64::NAN);
        Some(FlowStats {
            count: self.count as usize,
            nan: self.nan as usize,
            max: self.max,
            mean: self.sum / self.count as f64,
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            p999: pct(0.999),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_max_and_mean_match_batch() {
        let flows: Vec<Rational> = [3, 7, 1, 9, 9, 2]
            .iter()
            .map(|&x| Rational::from_int(x))
            .collect();
        let batch = FlowStats::from_flows(&flows).unwrap();
        let mut s = StreamingFlowStats::new(0.0, 16.0, 64);
        for &f in &flows {
            s.record(f);
        }
        let snap = s.finish().unwrap();
        assert_eq!(snap.max, batch.max);
        assert!((snap.mean - batch.mean).abs() < 1e-12);
        assert_eq!(snap.count, batch.count);
        assert_eq!(s.min(), Some(1.0));
    }

    #[test]
    fn quantiles_within_one_bin() {
        let mut s = StreamingFlowStats::new(0.0, 100.0, 100);
        for i in 1..=100 {
            s.record(Rational::from_int(i));
        }
        // Bin width 1: nearest-rank p50 of 1..=100 is 50, upper edge ≤ 51.
        let p50 = s.quantile(0.5).unwrap();
        assert!((p50 - 50.0).abs() <= 1.0, "p50 = {p50}");
        let p99 = s.quantile(0.99).unwrap();
        assert!((p99 - 99.0).abs() <= 1.0, "p99 = {p99}");
    }

    #[test]
    fn empty_is_none() {
        let s = StreamingFlowStats::new(0.0, 10.0, 4);
        assert!(s.finish().is_none());
        assert!(s.mean().is_none());
        assert!(s.quantile(0.5).is_none());
        assert_eq!(s.max(), Rational::ZERO);
    }
}
