//! ℓ_k norms of flow time and maximum stretch — the objectives the paper's
//! conclusion and Section 7 remarks point at.
//!
//! * The **ℓ_k norm** `(Σ_i F_i^k)^{1/k}` interpolates between average flow
//!   time (k = 1, scaled) and maximum flow time (k → ∞). The paper asks
//!   whether strong online guarantees exist for these in the DAG model —
//!   the `norms` experiment measures how the schedulers trade them off.
//! * **Maximum stretch** scales each flow by the job's size. For DAG jobs
//!   the paper notes two natural interpretations — scale by total work
//!   `W_i` or by critical-path length `P_i` — and observes both are
//!   captured by maximum weighted flow time (with weights `1/W_i` or
//!   `1/P_i`), so BWF handles either.

use parflow_time::Rational;

/// The ℓ_k norm of a set of flows, `(Σ F_i^k)^{1/k}`, in `f64`.
/// `k = 0` is rejected; `k = u32::MAX` is treated as ℓ_∞ (the max).
///
/// ```
/// use parflow_metrics::lk_norm;
/// use parflow_time::Rational;
/// let flows = vec![Rational::from_int(3), Rational::from_int(4)];
/// assert!((lk_norm(&flows, 2) - 5.0).abs() < 1e-9);      // 3-4-5
/// assert_eq!(lk_norm(&flows, u32::MAX), 4.0);            // l_inf = max
/// ```
pub fn lk_norm(flows: &[Rational], k: u32) -> f64 {
    assert!(k >= 1, "lk norm needs k >= 1");
    if flows.is_empty() {
        return 0.0;
    }
    if k == u32::MAX {
        return flows
            .iter()
            .map(|f| f.to_f64())
            .fold(f64::NEG_INFINITY, f64::max);
    }
    // Normalize by the max to avoid overflow for large k, then rescale.
    let max = flows
        .iter()
        .map(|f| f.to_f64())
        .fold(f64::NEG_INFINITY, f64::max);
    if max <= 0.0 {
        return 0.0;
    }
    let sum: f64 = flows
        .iter()
        .map(|f| (f.to_f64() / max).powi(k as i32))
        .sum();
    max * sum.powf(1.0 / k as f64)
}

/// Per-job stretch values `F_i / size_i` (both exact rationals in, `f64`
/// out) where `sizes[i]` is the chosen size measure (`W_i` or `P_i`).
pub(crate) fn stretches(flows: &[Rational], sizes: &[u64]) -> Vec<f64> {
    assert_eq!(flows.len(), sizes.len(), "flows/sizes length mismatch");
    flows
        .iter()
        .zip(sizes)
        .map(|(f, &s)| {
            assert!(s > 0, "job size must be positive");
            f.to_f64() / s as f64
        })
        .collect()
}

/// Maximum stretch `max_i F_i / size_i`.
pub fn max_stretch(flows: &[Rational], sizes: &[u64]) -> f64 {
    stretches(flows, sizes).into_iter().fold(0.0_f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(v: i128) -> Rational {
        Rational::from_int(v)
    }

    #[test]
    fn l1_is_sum() {
        let flows = vec![r(1), r(2), r(3)];
        assert!((lk_norm(&flows, 1) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn l2_known_value() {
        let flows = vec![r(3), r(4)];
        assert!((lk_norm(&flows, 2) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn linf_is_max() {
        let flows = vec![r(3), r(10), r(4)];
        assert_eq!(lk_norm(&flows, u32::MAX), 10.0);
    }

    #[test]
    fn norms_decrease_in_k() {
        let flows: Vec<Rational> = (1..=20).map(r).collect();
        let l1 = lk_norm(&flows, 1);
        let l2 = lk_norm(&flows, 2);
        let l4 = lk_norm(&flows, 4);
        let linf = lk_norm(&flows, u32::MAX);
        assert!(l1 >= l2 && l2 >= l4 && l4 >= linf);
        // and ℓ_k → ℓ_∞ from above
        let l64 = lk_norm(&flows, 64);
        assert!(l64 >= linf && l64 < linf * 1.1);
    }

    #[test]
    fn large_k_no_overflow() {
        let flows = vec![r(1_000_000); 1000];
        let v = lk_norm(&flows, 1000);
        assert!(v.is_finite());
        assert!((v / 1_000_000.0 - 1.0).abs() < 0.01);
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(lk_norm(&[], 2), 0.0);
        assert_eq!(max_stretch(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn k_zero_panics() {
        lk_norm(&[r(1)], 0);
    }

    #[test]
    fn stretch_basics() {
        let flows = vec![r(10), r(6)];
        let sizes = vec![5u64, 2];
        let s = stretches(&flows, &sizes);
        assert_eq!(s, vec![2.0, 3.0]);
        assert_eq!(max_stretch(&flows, &sizes), 3.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn stretch_length_mismatch_panics() {
        stretches(&[r(1)], &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn stretch_zero_size_panics() {
        max_stretch(&[r(1)], &[0]);
    }
}
