//! Processor speed with resource augmentation, and the round ↔ wall-time map.
//!
//! Following the paper (Section 3): *"We define one time step as the time
//! period for an s-speed processor to execute one unit of work. In other
//! words, in one time step m processors with speed s can finish m work of
//! jobs."* The engine therefore advances in integer **rounds**; round `r` of
//! a speed-`s = num/den` schedule occupies the wall-clock interval
//! `[r·den/num, (r+1)·den/num)`.
//!
//! All availability tests ("has job J arrived by the start of round r?") and
//! all flow-time computations are done exactly with integer cross
//! multiplication, so no floating point enters the engine.

use crate::rational::Rational;
use std::fmt;

/// Wall-clock time measured in integer ticks (the unit in which arrival
/// times are specified and in which a speed-1 processor executes exactly one
/// unit of work per tick).
pub type Ticks = u64;

/// A scheduling round index (one unit of work per processor per round).
pub type Round = u64;

/// Processor speed expressed as the exact ratio `num/den > 0`.
///
/// Resource augmentation `s = 1 + ε` with rational `ε` is constructed via
/// [`Speed::augmented`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Speed {
    num: u64,
    den: u64,
}

impl Speed {
    /// Unit speed (no augmentation): the speed the optimal schedule runs at.
    pub const ONE: Speed = Speed { num: 1, den: 1 };

    /// Create a speed `num/den`. Panics if either part is zero.
    pub fn new(num: u64, den: u64) -> Self {
        assert!(num > 0 && den > 0, "speed must be positive");
        let g = crate::rational::gcd(num as i128, den as i128) as u64;
        Speed {
            num: num / g,
            den: den / g,
        }
    }

    /// The speed `1 + eps` where `eps = eps_num / eps_den`.
    ///
    /// ```
    /// use parflow_time::Speed;
    /// assert_eq!(Speed::augmented(1, 10), Speed::new(11, 10)); // 1 + 1/10
    /// assert_eq!(Speed::augmented(0, 5), Speed::ONE);
    /// ```
    pub fn augmented(eps_num: u64, eps_den: u64) -> Self {
        assert!(eps_den > 0, "epsilon denominator must be positive");
        Speed::new(eps_den + eps_num, eps_den)
    }

    /// Parse an augmentation `ε` spelt `A/B` or `A` into the reduced pair
    /// [`Speed::augmented`] takes (`0/B` is `(0, 1)`). A zero denominator,
    /// or a pair whose `1 + ε = (A + B) / B` leaves `u64`, is an error —
    /// never a panic or a wrapped speed.
    ///
    /// ```
    /// use parflow_time::Speed;
    /// assert_eq!(Speed::parse_eps("2/20"), Ok((1, 10)));
    /// assert_eq!(Speed::parse_eps("3"), Ok((3, 1)));
    /// assert!(Speed::parse_eps("1/0").is_err());
    /// assert!(Speed::parse_eps("18446744073709551615/2").is_err());
    /// ```
    pub fn parse_eps(s: &str) -> Result<(u64, u64), String> {
        let (num, den) = parse_fraction("eps", s)?;
        if num.checked_add(den).is_none() {
            return Err(format!("bad eps `{s}`: 1 + eps overflows"));
        }
        Ok((num, den))
    }

    /// Integer speed `s`.
    pub fn integer(s: u64) -> Self {
        Speed::new(s, 1)
    }

    /// Numerator of the normalized ratio.
    #[inline]
    pub fn num(&self) -> u64 {
        self.num
    }

    /// Denominator of the normalized ratio.
    #[inline]
    pub fn den(&self) -> u64 {
        self.den
    }

    /// The speed as an exact rational.
    #[inline]
    pub fn as_rational(&self) -> Rational {
        Rational::new(self.num as i128, self.den as i128)
    }

    /// The speed as `f64`, for reporting only.
    #[inline]
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Wall-clock time at which round `r` starts: `r · den / num`.
    #[inline]
    pub(crate) fn round_start(&self, r: Round) -> Rational {
        // Integer speeds produce integer round boundaries; skip the
        // rational normalization (this sits under every flow-time
        // computation the engines make).
        if self.num == 1 {
            return Rational::from_int(r as i128 * self.den as i128);
        }
        Rational::new(r as i128 * self.den as i128, self.num as i128)
    }

    /// Wall-clock time at which round `r` ends (start of round `r+1`).
    #[inline]
    pub(crate) fn round_end(&self, r: Round) -> Rational {
        self.round_start(r + 1)
    }

    /// True iff a job arriving at wall-clock tick `arrival` is available at
    /// the *start* of round `r`, i.e. `arrival ≤ r·den/num`.
    #[inline]
    pub fn arrived_by_round(&self, arrival: Ticks, r: Round) -> bool {
        (arrival as u128) * (self.num as u128) <= (r as u128) * (self.den as u128)
    }

    /// The first round whose start time is `≥ arrival`:
    /// `ceil(arrival · num / den)`.
    #[inline]
    pub fn first_round_at_or_after(&self, arrival: Ticks) -> Round {
        let n = (arrival as u128) * (self.num as u128);
        let d = self.den as u128;
        n.div_ceil(d) as Round
    }

    /// Flow time of a job that arrived at tick `arrival` and whose last unit
    /// of work completed during round `last_round` (completion time is the
    /// *end* of that round).
    #[inline]
    pub fn flow_time(&self, arrival: Ticks, last_round: Round) -> Rational {
        self.round_end(last_round) - Rational::from_int(arrival as i128)
    }
}

/// Parse `A/B` or `A` (unsigned) into the reduced pair; a zero
/// denominator is an error. `what` names the quantity in the message.
fn parse_fraction(what: &str, s: &str) -> Result<(u64, u64), String> {
    let (num, den) = s.split_once('/').unwrap_or((s, "1"));
    let part = |p: &str| p.parse::<u64>().map_err(|_| format!("bad {what} `{s}`"));
    let (num, den) = (part(num)?, part(den)?);
    if den == 0 {
        return Err(format!("bad {what} `{s}`: zero denominator"));
    }
    let g = crate::rational::gcd(num as i128, den as i128) as u64;
    Ok((num / g, den / g))
}

/// A positive speed spelt `A/B` or `A`, with [`Speed::parse_eps`]'s
/// grammar and checks.
///
/// ```
/// use parflow_time::Speed;
/// assert_eq!("22/20".parse(), Ok(Speed::new(11, 10)));
/// assert_eq!("2".parse(), Ok(Speed::integer(2)));
/// assert!("0".parse::<Speed>().is_err());
/// assert!("1/0".parse::<Speed>().is_err());
/// ```
impl std::str::FromStr for Speed {
    type Err = String;

    fn from_str(s: &str) -> Result<Speed, String> {
        match parse_fraction("speed", s)? {
            (0, _) => Err(format!("bad speed `{s}`: must be positive")),
            (num, den) => Ok(Speed { num, den }),
        }
    }
}

impl Default for Speed {
    fn default() -> Self {
        Speed::ONE
    }
}

impl fmt::Display for Speed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}x", self.num)
        } else {
            write!(f, "{}/{}x", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_normalizes() {
        let s = Speed::new(6, 4);
        assert_eq!(s.num(), 3);
        assert_eq!(s.den(), 2);
        assert_eq!(s, Speed::new(3, 2));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_speed_panics() {
        let _ = Speed::new(0, 1);
    }

    #[test]
    fn augmented_speed() {
        // 1 + 1/10 = 11/10
        let s = Speed::augmented(1, 10);
        assert_eq!(s.num(), 11);
        assert_eq!(s.den(), 10);
        // 1 + 0 = 1
        assert_eq!(Speed::augmented(0, 7), Speed::ONE);
        // 1 + 2 = 3
        assert_eq!(Speed::augmented(2, 1), Speed::integer(3));
    }

    #[test]
    fn round_boundaries_unit_speed() {
        let s = Speed::ONE;
        assert_eq!(s.round_start(0), Rational::ZERO);
        assert_eq!(s.round_start(5), Rational::from_int(5));
        assert_eq!(s.round_end(5), Rational::from_int(6));
    }

    #[test]
    fn round_boundaries_augmented() {
        // speed 11/10: round r starts at 10r/11.
        let s = Speed::new(11, 10);
        assert_eq!(s.round_start(11), Rational::from_int(10));
        assert_eq!(s.round_start(1), Rational::new(10, 11));
    }

    #[test]
    fn arrival_availability() {
        let s = Speed::new(11, 10);
        // Job arriving at tick 10 is available exactly at round 11 start.
        assert!(s.arrived_by_round(10, 11));
        assert!(!s.arrived_by_round(10, 10));
        assert_eq!(s.first_round_at_or_after(10), 11);
        // Arrival at 0 is available from round 0.
        assert!(s.arrived_by_round(0, 0));
        assert_eq!(s.first_round_at_or_after(0), 0);
    }

    #[test]
    fn first_round_consistent_with_arrived_by() {
        for (num, den) in [(1, 1), (11, 10), (3, 2), (21, 20), (2, 1), (5, 3)] {
            let s = Speed::new(num, den);
            for arrival in [0u64, 1, 2, 3, 7, 10, 100, 1000] {
                let r0 = s.first_round_at_or_after(arrival);
                assert!(s.arrived_by_round(arrival, r0), "{s} arrival {arrival}");
                if r0 > 0 {
                    assert!(
                        !s.arrived_by_round(arrival, r0 - 1),
                        "{s} arrival {arrival}"
                    );
                }
            }
        }
    }

    #[test]
    fn flow_time_unit_speed() {
        let s = Speed::ONE;
        // Arrive at 3, finish during round 7 → completion 8, flow 5.
        assert_eq!(s.flow_time(3, 7), Rational::from_int(5));
    }

    #[test]
    fn flow_time_augmented() {
        let s = Speed::new(3, 2); // rounds are 2/3 wall ticks long
                                  // Finish during round 2 → completion (3)·2/3 = 2; arrived at 0 → flow 2.
        assert_eq!(s.flow_time(0, 2), Rational::from_int(2));
        // Finish during round 0 → completion 2/3.
        assert_eq!(s.flow_time(0, 0), Rational::new(2, 3));
    }

    #[test]
    fn speed_parsing() {
        assert_eq!("2".parse(), Ok(Speed::integer(2)));
        assert_eq!("11/10".parse(), Ok(Speed::new(11, 10)));
        for bad in ["0", "0/3", "a/b", "1/0", "-1", "1/2/3", ""] {
            assert!(bad.parse::<Speed>().is_err(), "{bad}");
        }
        // eps shares the grammar but admits 0.
        assert_eq!(Speed::parse_eps("0/5"), Ok((0, 1)));
        assert!(Speed::parse_eps("x").is_err());
        assert!(Speed::parse_eps("-1/10").is_err());
    }

    #[test]
    fn display() {
        assert_eq!(Speed::ONE.to_string(), "1x");
        assert_eq!(Speed::new(11, 10).to_string(), "11/10x");
        assert_eq!(Speed::integer(2).to_string(), "2x");
    }
}
