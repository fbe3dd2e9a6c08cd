//! # parflow-time
//!
//! Exact time arithmetic for the parflow scheduling simulator.
//!
//! The SPAA 2016 paper analyzes schedulers under *resource augmentation*: the
//! algorithm runs at speed `s = 1 + ε` while the optimal schedule runs at
//! speed 1. Its execution model is discrete: one *time step* (here: *round*)
//! is the time in which an s-speed processor executes one unit of work, so a
//! speed-`s` schedule packs `s·T` rounds into `T` wall-clock ticks.
//!
//! This crate provides:
//!
//! * [`Rational`] — exact rational arithmetic (`i128` num/den) used for all
//!   wall-time and flow-time values;
//! * [`Speed`] — an exact `num/den` processor speed with the round ↔
//!   wall-time conversions and arrival-availability tests the engine needs.
//!
//! Keeping this exact (rather than `f64`) makes simulations bit-reproducible
//! and lets property tests state invariants as equalities.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rational;
mod speed;

pub use rational::Rational;
pub use speed::{Round, Speed, Ticks};

/// Work measured in integer units: the time a unit-speed processor needs to
/// process it equals the number of units.
pub type Work = u64;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_rational() -> impl Strategy<Value = Rational> {
        (-1_000_000i128..1_000_000, 1i128..1_000_000).prop_map(|(n, d)| Rational::new(n, d))
    }

    proptest! {
        #[test]
        fn add_commutes(a in arb_rational(), b in arb_rational()) {
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn add_associates(a in arb_rational(), b in arb_rational(), c in arb_rational()) {
            prop_assert_eq!((a + b) + c, a + (b + c));
        }

        #[test]
        fn mul_commutes(a in arb_rational(), b in arb_rational()) {
            prop_assert_eq!(a * b, b * a);
        }

        #[test]
        fn distributive(a in arb_rational(), b in arb_rational(), c in arb_rational()) {
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn sub_inverse(a in arb_rational(), b in arb_rational()) {
            prop_assert_eq!((a + b) - b, a);
        }

        #[test]
        fn div_inverse(a in arb_rational(), b in arb_rational()) {
            prop_assume!(b != Rational::ZERO);
            prop_assert_eq!((a * b) / b, a);
        }

        #[test]
        fn normalized_invariant(a in arb_rational()) {
            prop_assert!(a.den() > 0);
            if a != Rational::ZERO {
                prop_assert_eq!(rational::gcd(a.num(), a.den()), 1);
            }
        }

        #[test]
        fn floor_ceil_bracket(a in arb_rational()) {
            let f = Rational::from_int(a.floor());
            let c = Rational::from_int(a.ceil());
            prop_assert!(f <= a && a <= c);
            prop_assert!(c - f <= Rational::ONE);
        }

        #[test]
        fn ordering_consistent_with_f64(a in arb_rational(), b in arb_rational()) {
            // f64 has enough precision for these small operands.
            let (x, y) = (a.to_f64(), b.to_f64());
            if (x - y).abs() > 1e-6 {
                prop_assert_eq!(a < b, x < y);
            }
        }

        #[test]
        fn speed_round_trip(num in 1u64..100, den in 1u64..100, r in 0u64..10_000) {
            let s = Speed::new(num, den);
            // round_start(r) is monotone in r and round_end(r) == round_start(r+1)
            prop_assert!(s.round_start(r) < s.round_end(r));
            prop_assert_eq!(s.round_end(r), s.round_start(r + 1));
        }

        #[test]
        fn speed_availability_monotone(num in 1u64..100, den in 1u64..100,
                                       arrival in 0u64..10_000, r in 0u64..20_000) {
            let s = Speed::new(num, den);
            if s.arrived_by_round(arrival, r) {
                prop_assert!(s.arrived_by_round(arrival, r + 1));
            }
        }

        #[test]
        fn flow_time_positive(num in 1u64..100, den in 1u64..100,
                              arrival in 0u64..1_000) {
            let s = Speed::new(num, den);
            let r0 = s.first_round_at_or_after(arrival);
            // finishing in the first available round yields positive flow
            prop_assert!(s.flow_time(arrival, r0).is_positive());
        }
    }
}
