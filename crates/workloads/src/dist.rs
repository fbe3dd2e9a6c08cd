//! Work distributions: how much total work a request (job) carries.
//!
//! The simulator measures work in **units of 0.1 ms** (see
//! [`crate::TICKS_PER_SECOND`]): a unit-speed processor executes one unit
//! per tick, so a 10 ms request is 100 units of work.

use parflow_time::Work;
use rand::Rng;

/// A distribution over job total work (in work units).
pub trait WorkDistribution {
    /// Draw one job's total work.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Work;
    /// Expected work in units (exact for histograms, analytic otherwise).
    fn mean(&self) -> f64;
    /// Name for reports.
    fn name(&self) -> &'static str;
}

/// A discrete histogram distribution: `(work, weight)` bins. Weights need
/// not sum to 1; they are normalized internally. This is the representation
/// used for the digitized Bing and finance distributions of Figure 3.
#[derive(Clone, Debug)]
pub struct HistogramDist {
    name: &'static str,
    bins: Vec<(Work, f64)>,
    /// Cumulative weights for inverse-CDF sampling.
    cumulative: Vec<f64>,
    total_weight: f64,
}

impl HistogramDist {
    /// Build a histogram from `(work, weight)` bins. Panics if empty, if a
    /// bin has non-positive weight, or zero work.
    pub fn new(name: &'static str, bins: Vec<(Work, f64)>) -> Self {
        assert!(!bins.is_empty(), "histogram needs at least one bin");
        let mut cumulative = Vec::with_capacity(bins.len());
        let mut acc = 0.0;
        for &(w, p) in &bins {
            assert!(w > 0, "histogram bin with zero work");
            assert!(
                p > 0.0 && p.is_finite(),
                "histogram bin weight must be positive"
            );
            acc += p;
            cumulative.push(acc);
        }
        HistogramDist {
            name,
            bins,
            cumulative,
            total_weight: acc,
        }
    }

    /// The bins `(work, probability)` with probabilities normalized to 1.
    pub fn probabilities(&self) -> Vec<(Work, f64)> {
        self.bins
            .iter()
            .map(|&(w, p)| (w, p / self.total_weight))
            .collect()
    }
}

impl WorkDistribution for HistogramDist {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Work {
        let x = rng.gen_range(0.0..self.total_weight);
        let idx = self.cumulative.partition_point(|&c| c <= x);
        self.bins[idx.min(self.bins.len() - 1)].0
    }

    fn mean(&self) -> f64 {
        self.bins.iter().map(|&(w, p)| w as f64 * p).sum::<f64>() / self.total_weight
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

/// The Bing web-search request work distribution, digitized from the
/// paper's Figure 3(a) (source: Kim et al., WSDM 2015 \[21\]).
///
/// Support 5–205 ms; heavily right-skewed with ≈60 % of requests at the
/// 5 ms mode and a long tail out to 205 ms. Mean ≈ 10.6 ms, which at m=16
/// and QPS ∈ {800, 1000, 1200} gives ≈ {53 %, 66 %, 80 %} utilization — the
/// paper's low/medium/high load levels.
pub fn bing() -> HistogramDist {
    // (work in 0.1ms units, relative weight)
    HistogramDist::new(
        "bing",
        vec![
            (50, 0.62),    // 5 ms
            (100, 0.19),   // 10 ms
            (150, 0.07),   // 15 ms
            (200, 0.035),  // 20 ms
            (250, 0.02),   // 25 ms
            (350, 0.015),  // 35 ms
            (450, 0.010),  // 45 ms
            (550, 0.008),  // 55 ms
            (650, 0.006),  // 65 ms
            (750, 0.004),  // 75 ms
            (850, 0.003),  // 85 ms
            (950, 0.0025), // 95 ms
            (1050, 0.002), // 105 ms
            (1250, 0.0012),
            (1450, 0.0008),
            (1650, 0.0005),
            (1850, 0.0003),
            (2050, 0.0002), // 205 ms
        ],
    )
}

/// The option-pricing finance-server work distribution, digitized from the
/// paper's Figure 3(b) (source: Ren et al., ICAC 2013 \[26\]).
///
/// Support 4–52 ms with an interior mode around 8–12 ms (≈45 % of the mass)
/// and a light tail. Mean ≈ 10.8 ms.
pub fn finance() -> HistogramDist {
    HistogramDist::new(
        "finance",
        vec![
            (40, 0.15),  // 4 ms
            (80, 0.35),  // 8 ms
            (120, 0.30), // 12 ms
            (160, 0.08), // 16 ms
            (200, 0.04), // 20 ms
            (240, 0.02), // 24 ms
            (280, 0.012),
            (320, 0.008),
            (360, 0.006),
            (400, 0.004),
            (440, 0.002),
            (480, 0.0012),
            (520, 0.0008), // 52 ms
        ],
    )
}

/// A log-normal work distribution (the paper's synthetic workload).
///
/// Parameterized by the underlying normal's `mu`/`sigma`; the work (in
/// units) is `round(exp(N(mu, sigma)))`, clamped to `[min, max]`.
/// Implemented with a Box–Muller transform so we need no extra
/// dependencies; sampling consumes exactly two uniforms per draw.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LogNormalDist {
    /// Mean of the underlying normal (of ln-work-in-units).
    pub mu: f64,
    /// Standard deviation of the underlying normal.
    pub sigma: f64,
    /// Minimum work (clamp).
    pub min: Work,
    /// Maximum work (clamp).
    pub max: Work,
}

impl LogNormalDist {
    /// The paper-scale log-normal: mean ≈ 10 ms (100 units) with a heavy
    /// tail (`σ = 1`), clamped to [0.5 ms, 1 s].
    pub(crate) fn paper() -> Self {
        // mean = exp(mu + sigma²/2) = 100 units → mu = ln(100) − 0.5.
        LogNormalDist {
            mu: 100.0_f64.ln() - 0.5,
            sigma: 1.0,
            min: 5,
            max: 10_000,
        }
    }
}

impl WorkDistribution for LogNormalDist {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Work {
        // Box–Muller: two uniforms → one standard normal.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let w = (self.mu + self.sigma * z).exp().round();
        (w as u64).clamp(self.min.max(1), self.max)
    }

    fn mean(&self) -> f64 {
        // Analytic mean of the (unclamped) log-normal.
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }

    fn name(&self) -> &'static str {
        "log-normal"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn empirical_mean<D: WorkDistribution>(d: &D, n: usize, seed: u64) -> f64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng) as f64).sum::<f64>() / n as f64
    }

    #[test]
    fn histogram_sampling_matches_mean() {
        let d = bing();
        let emp = empirical_mean(&d, 200_000, 1);
        let analytic = d.mean();
        assert!(
            (emp - analytic).abs() / analytic < 0.03,
            "empirical {emp} vs analytic {analytic}"
        );
    }

    #[test]
    fn bing_mean_near_10ms() {
        // ≈ 10.6 ms = 106 units; allow ±15 %.
        let m = bing().mean();
        assert!((90.0..125.0).contains(&m), "bing mean {m}");
    }

    #[test]
    fn finance_mean_near_10ms() {
        let m = finance().mean();
        assert!((90.0..125.0).contains(&m), "finance mean {m}");
    }

    #[test]
    fn finance_support_bounds() {
        let d = finance();
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let w = d.sample(&mut rng);
            assert!((40..=520).contains(&w));
        }
    }

    #[test]
    fn bing_support_bounds_and_mode() {
        let d = bing();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut at_mode = 0;
        let n = 100_000;
        for _ in 0..n {
            let w = d.sample(&mut rng);
            assert!((50..=2050).contains(&w));
            if w == 50 {
                at_mode += 1;
            }
        }
        let frac = at_mode as f64 / n as f64;
        assert!((0.58..0.67).contains(&frac), "mode mass {frac}");
    }

    #[test]
    fn histogram_probabilities_normalized() {
        let p = bing().probabilities();
        let total: f64 = p.iter().map(|&(_, q)| q).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn empty_histogram_panics() {
        let _ = HistogramDist::new("x", vec![]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_weight_panics() {
        let _ = HistogramDist::new("x", vec![(1, 0.0)]);
    }

    #[test]
    fn lognormal_mean_close_to_analytic() {
        let d = LogNormalDist::paper();
        let emp = empirical_mean(&d, 400_000, 7);
        // Clamping trims the extreme tail, so allow 10 %.
        assert!(
            (emp - d.mean()).abs() / d.mean() < 0.10,
            "empirical {emp} vs analytic {}",
            d.mean()
        );
    }

    #[test]
    fn lognormal_respects_clamps() {
        let d = LogNormalDist {
            mu: 0.0,
            sigma: 3.0,
            min: 10,
            max: 20,
        };
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..1000 {
            let w = d.sample(&mut rng);
            assert!((10..=20).contains(&w));
        }
    }

    #[test]
    fn deterministic_sampling() {
        let d = bing();
        let a: Vec<u64> = {
            let mut rng = SmallRng::seed_from_u64(123);
            (0..100).map(|_| d.sample(&mut rng)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = SmallRng::seed_from_u64(123);
            (0..100).map(|_| d.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
