//! Fixed-bin histograms with ASCII rendering (used to regenerate Figure 3).

use std::fmt::Write as _;

/// A histogram over `f64` samples with uniform bins on `[lo, hi)`; samples
/// outside the range are clamped into the edge bins. NaN samples are
/// counted separately (they are not data, but silently dropping them hides
/// upstream bugs) and excluded from `total` and every probability.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
    /// NaN samples seen by [`Histogram::add`].
    nan: u64,
}

impl Histogram {
    /// Create a histogram with `bins` uniform bins over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(hi > lo, "hi must exceed lo");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
            nan: 0,
        }
    }

    /// Add one sample. NaN goes to the separate [`nan`](Self::nan) tally:
    /// the old behaviour silently binned it into bin 0 (`NaN as i64` casts
    /// to 0), inflating the lowest bin with garbage.
    pub fn add(&mut self, x: f64) {
        if x.is_nan() {
            self.nan += 1;
            return;
        }
        let bins = self.counts.len();
        let t = (x - self.lo) / (self.hi - self.lo);
        let idx = ((t * bins as f64).floor() as i64).clamp(0, bins as i64 - 1) as usize;
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Add many samples.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, xs: I) {
        for x in xs {
            self.add(x);
        }
    }

    /// Total non-NaN samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// NaN samples rejected by [`Histogram::add`]; never part of
    /// [`total`](Self::total) or any bin.
    pub fn nan(&self) -> u64 {
        self.nan
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Approximate quantile by nearest rank over the bins: the upper edge
    /// of the bin holding the rank-`⌈q·total⌉` sample. Accurate to one bin
    /// width for in-range samples (out-of-range samples were clamped into
    /// the edge bins, so tail quantiles saturate at `hi`). `None` when the
    /// histogram is empty or `q ∉ (0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 || !(q > 0.0 && q <= 1.0) {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= rank {
                return Some(self.lo + width * (i as f64 + 1.0));
            }
        }
        Some(self.hi)
    }

    /// `(bin_center, probability)` pairs.
    pub fn probabilities(&self) -> Vec<(f64, f64)> {
        let bins = self.counts.len();
        let width = (self.hi - self.lo) / bins as f64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let center = self.lo + (i as f64 + 0.5) * width;
                let p = if self.total == 0 {
                    0.0
                } else {
                    c as f64 / self.total as f64
                };
                (center, p)
            })
            .collect()
    }

    /// Render as ASCII bars, one row per bin: `center | ###### p`.
    /// `width` is the number of characters of the longest bar.
    pub fn render(&self, width: usize) -> String {
        let probs = self.probabilities();
        let pmax = probs.iter().map(|&(_, p)| p).fold(0.0_f64, f64::max);
        let mut out = String::new();
        for (center, p) in probs {
            let bar_len = if pmax > 0.0 {
                ((p / pmax) * width as f64).round() as usize
            } else {
                0
            };
            let _ = writeln!(
                out,
                "{center:>10.1} | {:<w$} {p:.4}",
                "#".repeat(bar_len),
                w = width
            );
        }
        if self.nan > 0 {
            let _ = writeln!(out, "{:>10} | {} sample(s) excluded", "NaN", self.nan);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binning() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.add(0.5); // bin 0
        h.add(9.5); // bin 9
        h.add(5.0); // bin 5
        assert_eq!(h.total(), 3);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[5], 1);
        assert_eq!(h.counts()[9], 1);
    }

    #[test]
    fn clamping() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.add(-100.0);
        h.add(100.0);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[4], 1);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.extend([0.1, 0.3, 0.6, 0.9, 0.95]);
        let total: f64 = h.probabilities().iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn centers() {
        let h = Histogram::new(0.0, 10.0, 2);
        let p = h.probabilities();
        assert_eq!(p[0].0, 2.5);
        assert_eq!(p[1].0, 7.5);
    }

    #[test]
    fn render_contains_bars() {
        let mut h = Histogram::new(0.0, 2.0, 2);
        h.extend([0.5, 0.5, 0.5, 1.5]);
        let s = h.render(20);
        assert!(s.contains('#'));
        assert!(s.lines().count() == 2);
        // The fuller bin renders the longer bar.
        let lines: Vec<&str> = s.lines().collect();
        let hashes = |l: &str| l.chars().filter(|&c| c == '#').count();
        assert!(hashes(lines[0]) > hashes(lines[1]));
    }

    #[test]
    fn empty_render_no_bars() {
        let h = Histogram::new(0.0, 1.0, 3);
        let s = h.render(10);
        assert!(!s.contains('#'));
    }

    #[test]
    fn nan_counted_separately_not_bin_zero() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.add(f64::NAN);
        h.add(0.5);
        h.add(f64::NAN);
        // NaN neither lands in bin 0 nor counts toward the total.
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.total(), 1);
        assert_eq!(h.nan(), 2);
        // Probabilities still sum to 1 over the real samples.
        let mass: f64 = h.probabilities().iter().map(|&(_, p)| p).sum();
        assert!((mass - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nan_surfaced_in_render() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.add(f64::NAN);
        let s = h.render(10);
        assert!(s.contains("NaN"), "render must surface NaN count: {s}");
        assert!(s.contains("1 sample(s) excluded"));
        // A clean histogram stays clean.
        let clean = Histogram::new(0.0, 1.0, 2).render(10);
        assert!(!clean.contains("NaN"));
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "hi must exceed lo")]
    fn bad_range_panics() {
        let _ = Histogram::new(1.0, 1.0, 3);
    }
}
