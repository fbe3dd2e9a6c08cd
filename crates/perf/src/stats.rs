//! Order statistics for repeated timings.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! exclusive method), because that is what the benchmark driver computes
//! over a set of runs; `perf compare` must agree with it.

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, `statistics.quantiles(xs, n=4)` style.
/// With fewer than two samples both collapse onto the median.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let m = median(&v);
        return (m, m);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Median, quartiles and sample count of one repeated measurement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median of the samples.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarize `xs`.
    pub fn of(xs: &[f64]) -> Summary {
        let (q1, q3) = quartiles(xs);
        Summary {
            median: median(xs),
            q1,
            q3,
            n: xs.len(),
        }
    }

    /// Inter-quartile distance as a share of the median (0 when the
    /// median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            ((self.q3 - self.q1) / self.median).abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 4.0]);
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 4.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!(s.n, 10);
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }
}
