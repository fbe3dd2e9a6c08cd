//! Exact rational arithmetic used throughout the simulator.
//!
//! The scheduling engine works in integer *rounds*; converting a round count
//! at speed `s = num/den` back to wall-clock time produces rationals. Doing
//! this conversion exactly (instead of in `f64`) keeps every simulation
//! bit-deterministic and lets property tests assert equalities rather than
//! approximate comparisons.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Greatest common divisor (non-negative result).
#[inline]
pub(crate) fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// An exact rational number with `i128` numerator and denominator.
///
/// Invariants: the denominator is strictly positive and `gcd(num, den) == 1`.
/// Arithmetic panics on overflow (the simulator's magnitudes — work in units,
/// times in ticks — stay far below `i128` range, so overflow indicates a bug).
#[derive(Clone, Copy, Debug)]
pub struct Rational {
    num: i128,
    den: i128,
}

impl Rational {
    /// The rational zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Create a new rational `num/den`. Panics if `den == 0`.
    #[inline]
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "rational with zero denominator");
        // Integer fast path: already normalized, skip the gcd entirely.
        // This is the dominant case in the engines (unit speed, integer
        // rounds), so it pays to special-case it.
        if den == 1 {
            return Rational { num, den: 1 };
        }
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den);
        if g == 0 {
            return Rational { num: 0, den: 1 };
        }
        Rational {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    /// Construct from an integer.
    #[inline]
    pub fn from_int(v: i128) -> Self {
        Rational { num: v, den: 1 }
    }

    /// Numerator (normalized; carries the sign).
    #[inline]
    pub fn num(&self) -> i128 {
        self.num
    }

    /// Denominator (normalized; strictly positive).
    #[inline]
    pub fn den(&self) -> i128 {
        self.den
    }

    /// Convert to `f64` for reporting. Exact representation is kept
    /// internally; this is only for human-facing output.
    #[inline]
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// True if strictly positive.
    #[inline]
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// Floor to an integer.
    #[inline]
    pub fn floor(&self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Ceiling to an integer.
    #[inline]
    pub fn ceil(&self) -> i128 {
        -((-self.num).div_euclid(self.den))
    }

    /// Absolute value.
    #[inline]
    pub fn abs(&self) -> Rational {
        Rational {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// The reciprocal. Panics if the value is zero.
    #[inline]
    pub fn recip(&self) -> Rational {
        assert!(self.num != 0, "reciprocal of zero");
        Rational::new(self.den, self.num)
    }

    /// `self * n / d` in one normalized step.
    #[inline]
    pub fn mul_ratio(&self, n: i128, d: i128) -> Rational {
        Rational::new(
            self.num.checked_mul(n).expect("rational overflow"),
            self.den.checked_mul(d).expect("rational overflow"),
        )
    }

    /// Best rational approximation of `x` with denominator at most
    /// `max_den`, via continued fractions. Useful for turning measured
    /// floating-point quantities (e.g. an empirical ε) into the exact
    /// [`Rational`]/`Speed` values the engine requires.
    ///
    /// ```
    /// use parflow_time::Rational;
    /// assert_eq!(Rational::approximate(std::f64::consts::PI, 10),
    ///            Rational::new(22, 7));
    /// assert_eq!(Rational::approximate(0.1, 100), Rational::new(1, 10));
    /// ```
    ///
    /// Panics if `x` is not finite.
    pub fn approximate(x: f64, max_den: i128) -> Rational {
        assert!(x.is_finite(), "cannot approximate a non-finite value");
        assert!(max_den >= 1);
        let negative = x < 0.0;
        let mut x = x.abs();
        // Convergents h/k of the continued fraction expansion.
        let (mut h0, mut k0, mut h1, mut k1) = (0i128, 1i128, 1i128, 0i128);
        for _ in 0..64 {
            let a = x.floor();
            if a >= 1e30 {
                break;
            }
            let ai = a as i128;
            let h2 = ai.saturating_mul(h1).saturating_add(h0);
            let k2 = ai.saturating_mul(k1).saturating_add(k0);
            if k2 > max_den {
                break;
            }
            h0 = h1;
            k0 = k1;
            h1 = h2;
            k1 = k2;
            let frac = x - a;
            if frac < 1e-15 {
                break;
            }
            x = 1.0 / frac;
        }
        if k1 == 0 {
            return Rational::ZERO;
        }
        let r = Rational::new(h1, k1);
        if negative {
            -r
        } else {
            r
        }
    }

    /// Minimum of two rationals.
    #[inline]
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Maximum of two rationals.
    #[inline]
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl PartialEq for Rational {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        // Normalized representation makes structural equality correct.
        self.num == other.num && self.den == other.den
    }
}

impl Eq for Rational {}

impl PartialOrd for Rational {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Equal denominators (notably den == 1 on both sides) order by
        // numerator alone — no multiplication, no overflow risk.
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        // a/b vs c/d  <=>  a*d vs c*b   (b, d > 0)
        let lhs = self.num.checked_mul(other.den).expect("rational overflow");
        let rhs = other.num.checked_mul(self.den).expect("rational overflow");
        lhs.cmp(&rhs)
    }
}

impl std::hash::Hash for Rational {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.num.hash(state);
        self.den.hash(state);
    }
}

impl Add for Rational {
    type Output = Rational;
    #[inline]
    fn add(self, rhs: Rational) -> Rational {
        // Integer + integer: plain checked add, result already normalized.
        if self.den == 1 && rhs.den == 1 {
            return Rational {
                num: self.num.checked_add(rhs.num).expect("rational overflow"),
                den: 1,
            };
        }
        // Same denominator: add numerators and reduce once against the
        // shared denominator — one gcd on small operands instead of a
        // cross-multiplied construction.
        if self.den == rhs.den {
            let num = self.num.checked_add(rhs.num).expect("rational overflow");
            let g = gcd(num, self.den);
            if g <= 1 {
                return Rational { num, den: self.den };
            }
            return Rational {
                num: num / g,
                den: self.den / g,
            };
        }
        Rational::new(
            self.num
                .checked_mul(rhs.den)
                .and_then(|a| rhs.num.checked_mul(self.den).and_then(|b| a.checked_add(b)))
                .expect("rational overflow"),
            self.den.checked_mul(rhs.den).expect("rational overflow"),
        )
    }
}

impl Sub for Rational {
    type Output = Rational;
    #[inline]
    fn sub(self, rhs: Rational) -> Rational {
        self + (-rhs)
    }
}

impl Neg for Rational {
    type Output = Rational;
    #[inline]
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl Mul for Rational {
    type Output = Rational;
    #[inline]
    fn mul(self, rhs: Rational) -> Rational {
        // Integer × integer: plain checked multiply, already normalized.
        if self.den == 1 && rhs.den == 1 {
            return Rational {
                num: self.num.checked_mul(rhs.num).expect("rational overflow"),
                den: 1,
            };
        }
        // Cross-reduce before multiplying to delay overflow.
        let g1 = gcd(self.num, rhs.den).max(1);
        let g2 = gcd(rhs.num, self.den).max(1);
        Rational::new(
            (self.num / g1)
                .checked_mul(rhs.num / g2)
                .expect("rational overflow"),
            (self.den / g2)
                .checked_mul(rhs.den / g1)
                .expect("rational overflow"),
        )
    }
}

impl Div for Rational {
    type Output = Rational;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // a/b == a * (1/b) by definition
    fn div(self, rhs: Rational) -> Rational {
        self * rhs.recip()
    }
}

impl AddAssign for Rational {
    #[inline]
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rational {
    #[inline]
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}

impl From<i128> for Rational {
    fn from(v: i128) -> Self {
        Rational::from_int(v)
    }
}

impl From<u64> for Rational {
    fn from(v: u64) -> Self {
        Rational::from_int(v as i128)
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational::from_int(v as i128)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(7, 13), 1);
    }

    #[test]
    fn normalization() {
        let r = Rational::new(6, 8);
        assert_eq!(r.num(), 3);
        assert_eq!(r.den(), 4);
        let r = Rational::new(-6, 8);
        assert_eq!(r.num(), -3);
        assert_eq!(r.den(), 4);
        let r = Rational::new(6, -8);
        assert_eq!(r.num(), -3);
        assert_eq!(r.den(), 4);
        let r = Rational::new(-6, -8);
        assert_eq!(r.num(), 3);
        assert_eq!(r.den(), 4);
        let r = Rational::new(0, -5);
        assert_eq!(r, Rational::ZERO);
        assert_eq!(r.den(), 1);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn add_sub() {
        let a = Rational::new(1, 2);
        let b = Rational::new(1, 3);
        assert_eq!(a + b, Rational::new(5, 6));
        assert_eq!(a - b, Rational::new(1, 6));
        assert_eq!(b - a, Rational::new(-1, 6));
    }

    #[test]
    fn mul_div() {
        let a = Rational::new(2, 3);
        let b = Rational::new(9, 4);
        assert_eq!(a * b, Rational::new(3, 2));
        assert_eq!(a / b, Rational::new(8, 27));
    }

    #[test]
    fn ordering() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::new(-1, 3));
        assert!(Rational::new(2, 4) == Rational::new(1, 2));
        assert!(Rational::new(7, 2) > Rational::from_int(3));
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Rational::new(7, 2).floor(), 3);
        assert_eq!(Rational::new(7, 2).ceil(), 4);
        assert_eq!(Rational::new(-7, 2).floor(), -4);
        assert_eq!(Rational::new(-7, 2).ceil(), -3);
        assert_eq!(Rational::from_int(5).floor(), 5);
        assert_eq!(Rational::from_int(5).ceil(), 5);
    }

    #[test]
    fn recip() {
        assert_eq!(Rational::new(3, 4).recip(), Rational::new(4, 3));
        assert_eq!(Rational::new(-3, 4).recip(), Rational::new(-4, 3));
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_zero_panics() {
        let _ = Rational::ZERO.recip();
    }

    #[test]
    fn to_f64() {
        assert!((Rational::new(1, 4).to_f64() - 0.25).abs() < 1e-12);
        assert!((Rational::new(-3, 2).to_f64() + 1.5).abs() < 1e-12);
    }

    #[test]
    fn display() {
        assert_eq!(Rational::new(3, 4).to_string(), "3/4");
        assert_eq!(Rational::from_int(7).to_string(), "7");
        assert_eq!(Rational::new(-6, 8).to_string(), "-3/4");
    }

    #[test]
    fn min_max() {
        let a = Rational::new(1, 2);
        let b = Rational::new(2, 3);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn approximate_exact_fractions() {
        assert_eq!(Rational::approximate(0.5, 100), Rational::new(1, 2));
        assert_eq!(Rational::approximate(0.25, 100), Rational::new(1, 4));
        assert_eq!(Rational::approximate(1.5, 100), Rational::new(3, 2));
        assert_eq!(Rational::approximate(-0.75, 100), Rational::new(-3, 4));
        assert_eq!(Rational::approximate(7.0, 100), Rational::from_int(7));
        assert_eq!(Rational::approximate(0.0, 100), Rational::ZERO);
    }

    #[test]
    fn approximate_pi_convergents() {
        // Classic: 22/7 and 355/113.
        assert_eq!(
            Rational::approximate(std::f64::consts::PI, 10),
            Rational::new(22, 7)
        );
        assert_eq!(
            Rational::approximate(std::f64::consts::PI, 200),
            Rational::new(355, 113)
        );
    }

    #[test]
    fn approximate_respects_max_den() {
        for max_den in [1i128, 7, 50, 1000] {
            let r = Rational::approximate(0.1234567, max_den);
            assert!(r.den() <= max_den, "den {} > {max_den}", r.den());
            assert!((r.to_f64() - 0.1234567).abs() <= 1.0 / max_den as f64);
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn approximate_nan_panics() {
        let _ = Rational::approximate(f64::NAN, 10);
    }

    #[test]
    fn mul_ratio() {
        let a = Rational::new(3, 5);
        assert_eq!(a.mul_ratio(10, 9), Rational::new(2, 3));
    }

    #[test]
    fn fast_paths_match_generic() {
        // Integer/same-den fast paths must agree with the generic route
        // (construct via new() with un-normalized inputs to force it).
        for (a, b) in [(3i128, 4i128), (-7, 2), (0, 5), (100, -100)] {
            let fast = Rational::from_int(a) + Rational::from_int(b);
            let slow = Rational::new(a * 6, 6) + Rational::new(b * 6, 6);
            assert_eq!(fast, slow);
            let fast = Rational::from_int(a) * Rational::from_int(b);
            let slow = Rational::new(a * 6, 6) * Rational::new(b * 6, 6);
            assert_eq!(fast, slow);
        }
        // Same-denominator adds reduce fully: 1/4 + 1/4 = 1/2.
        assert_eq!(
            Rational::new(1, 4) + Rational::new(1, 4),
            Rational::new(1, 2)
        );
        // Same-denominator adds that cancel to an integer.
        assert_eq!(Rational::new(1, 3) + Rational::new(2, 3), Rational::ONE);
        assert_eq!(Rational::new(5, 6) + Rational::new(-5, 6), Rational::ZERO);
        // Same-denominator ordering.
        assert!(Rational::new(2, 7) < Rational::new(3, 7));
        assert!(Rational::from_int(-2) < Rational::from_int(3));
    }

    #[test]
    fn integer_predicates() {
        assert!(Rational::ONE.is_positive());
        assert!(!(-Rational::ONE).is_positive());
    }
}
