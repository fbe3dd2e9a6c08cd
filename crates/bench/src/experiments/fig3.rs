//! Figure 3: the request-work distributions of the two real workloads
//! (Bing web search and the finance option-pricing server), rendered as
//! histograms of sampled work in milliseconds.

use parflow_metrics::Histogram;
use parflow_workloads::{bing, finance, WorkDistribution, TICKS_PER_SECOND};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Histogram of `n` sampled request sizes (in ms) from a distribution.
pub(crate) fn sample_histogram<D: WorkDistribution>(
    dist: &D,
    n: usize,
    seed: u64,
    lo_ms: f64,
    hi_ms: f64,
    bins: usize,
) -> Histogram {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut h = Histogram::new(lo_ms, hi_ms, bins);
    let to_ms = 1000.0 / TICKS_PER_SECOND;
    for _ in 0..n {
        h.add(dist.sample(&mut rng) as f64 * to_ms);
    }
    h
}

/// Figure 3(a): the Bing work distribution over 5–205 ms.
pub(crate) fn bing_histogram(n: usize, seed: u64) -> Histogram {
    sample_histogram(bing(), n, seed, 0.0, 210.0, 21)
}

/// Figure 3(b): the finance work distribution over 4–52 ms.
pub(crate) fn finance_histogram(n: usize, seed: u64) -> Histogram {
    sample_histogram(finance(), n, seed, 0.0, 56.0, 14)
}

/// Render both panels as ASCII (what `repro fig3` prints).
pub(crate) fn render(n: usize, seed: u64) -> String {
    let mut out = String::new();
    out.push_str("Figure 3(a): Bing search server request work distribution (ms)\n");
    out.push_str(&bing_histogram(n, seed).render(40));
    out.push_str("\nFigure 3(b): Finance server request work distribution (ms)\n");
    out.push_str(&finance_histogram(n, seed).render(40));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bing_mass_concentrated_low() {
        let h = bing_histogram(50_000, 1);
        let probs = h.probabilities();
        // First bin (0–10 ms) holds the 5 ms mode: > 50 % of mass.
        assert!(probs[0].1 > 0.5, "first-bin mass {}", probs[0].1);
        // Tail reaches past 100 ms.
        let tail: f64 = probs
            .iter()
            .filter(|&&(c, _)| c > 100.0)
            .map(|&(_, p)| p)
            .sum();
        assert!(tail > 0.0, "expected mass past 100 ms");
    }

    #[test]
    fn finance_mode_is_interior() {
        let h = finance_histogram(50_000, 2);
        let probs = h.probabilities();
        // Mode bin should be the 8–12 ms region, not the first bin.
        let (argmax, _) = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1 .1.partial_cmp(&b.1 .1).unwrap())
            .unwrap();
        assert!(
            argmax >= 1,
            "finance mode should be interior, got bin {argmax}"
        );
        // Support ends by 52 ms (the 52 ms bin is centered at 54).
        let beyond: f64 = probs
            .iter()
            .filter(|&&(c, _)| c > 54.5)
            .map(|&(_, p)| p)
            .sum();
        assert_eq!(beyond, 0.0);
    }

    #[test]
    fn render_contains_both_panels() {
        let s = render(2_000, 3);
        assert!(s.contains("Figure 3(a)"));
        assert!(s.contains("Figure 3(b)"));
        assert!(s.contains('#'));
    }
}
