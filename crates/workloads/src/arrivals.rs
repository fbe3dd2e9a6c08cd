//! Arrival processes: when jobs are released.
//!
//! Every arrival model is an [`ArrivalSource`]: an *endless*, pull-based,
//! seeded and therefore replayable stream of non-decreasing arrival ticks.
//! The simulator, the real executor bridge, the bench drivers and the
//! `parflow-serve` admission service all consume this one abstraction, so
//! a million-job stream never has to exist in memory; a finite prefix is
//! [`take_arrivals`].

use parflow_time::Ticks;
use rand::Rng;

/// An endless, pull-based stream of non-decreasing arrival ticks.
///
/// Object-safe, so long-lived drivers (the streaming admission service,
/// soak benches) can hold a `Box<dyn ArrivalSource>` chosen at runtime.
/// Implementations carry their own RNG state; re-creating a stream from
/// the same seed replays the same ticks.
pub(crate) trait ArrivalSource {
    /// The next arrival time in ticks. Never decreases between calls.
    fn next_arrival(&mut self) -> Ticks;
    /// Name for reports.
    fn source_name(&self) -> &'static str;
}

impl<S: ArrivalSource + ?Sized> ArrivalSource for Box<S> {
    fn next_arrival(&mut self) -> Ticks {
        (**self).next_arrival()
    }

    fn source_name(&self) -> &'static str {
        (**self).source_name()
    }
}

/// Materialize the next `n` ticks of a stream (test/driver convenience).
pub(crate) fn take_arrivals<S: ArrivalSource + ?Sized>(source: &mut S, n: usize) -> Vec<Ticks> {
    (0..n).map(|_| source.next_arrival()).collect()
}

/// A Poisson process with the given mean inter-arrival gap (in ticks).
///
/// This is the paper's arrival model (Section 6): "the inter-arrival time
/// between jobs is generated by a Poisson process with a mean equal to
/// 1/QPS". Exponential gaps are drawn by inverse CDF and accumulated in
/// `f64` before truncation to integer ticks (1 tick = 0.1 ms, fine enough
/// that quantization is negligible at realistic rates).
#[derive(Clone, Copy, Debug)]
pub(crate) struct PoissonArrivals {
    /// Mean inter-arrival time in ticks (`TICKS_PER_SECOND / QPS`).
    pub mean_gap: f64,
}

impl PoissonArrivals {
    /// From a rate in jobs per second (QPS) given the tick resolution.
    pub(crate) fn from_qps(qps: f64, ticks_per_second: f64) -> Self {
        assert!(qps > 0.0, "QPS must be positive");
        PoissonArrivals {
            mean_gap: ticks_per_second / qps,
        }
    }

    /// The streaming view, drawing from `rng` (one `gen_range` per tick).
    pub(crate) fn stream<R: Rng>(&self, rng: R) -> PoissonStream<R> {
        assert!(self.mean_gap > 0.0);
        PoissonStream {
            mean_gap: self.mean_gap,
            t: 0.0,
            rng,
        }
    }
}

/// Streaming state of a [`PoissonArrivals`] process.
#[derive(Clone, Debug)]
pub(crate) struct PoissonStream<R> {
    mean_gap: f64,
    t: f64,
    rng: R,
}

impl<R: Rng> ArrivalSource for PoissonStream<R> {
    fn next_arrival(&mut self) -> Ticks {
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        self.t += -u.ln() * self.mean_gap;
        self.t as Ticks
    }

    fn source_name(&self) -> &'static str {
        "poisson"
    }
}

/// Deterministic periodic arrivals with a fixed gap (used by the Section 5
/// lower-bound instance: one job every `2m` steps).
#[derive(Clone, Copy, Debug)]
pub(crate) struct PeriodicArrivals {
    /// Fixed gap in ticks between consecutive jobs.
    pub gap: Ticks,
}

impl PeriodicArrivals {
    /// The streaming view (consumes no randomness).
    pub(crate) fn stream(&self) -> PeriodicStream {
        PeriodicStream {
            gap: self.gap,
            i: 0,
        }
    }
}

/// Streaming state of a [`PeriodicArrivals`] process.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PeriodicStream {
    gap: Ticks,
    i: u64,
}

impl ArrivalSource for PeriodicStream {
    fn next_arrival(&mut self) -> Ticks {
        let t = self.i.saturating_mul(self.gap);
        self.i += 1;
        t
    }

    fn source_name(&self) -> &'static str {
        "periodic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn poisson_mean_gap() {
        let p = PoissonArrivals { mean_gap: 10.0 };
        let rng = SmallRng::seed_from_u64(1);
        let n = 100_000;
        let arr = take_arrivals(&mut p.stream(rng), n);
        assert_eq!(arr.len(), n);
        // Non-decreasing.
        assert!(arr.windows(2).all(|w| w[0] <= w[1]));
        // Mean gap ≈ 10 ticks.
        let mean = arr.last().copied().unwrap() as f64 / n as f64;
        assert!((9.5..10.5).contains(&mean), "mean gap {mean}");
    }

    #[test]
    fn poisson_from_qps() {
        // 1000 QPS at 10_000 ticks/s → mean gap 10 ticks.
        let p = PoissonArrivals::from_qps(1000.0, 10_000.0);
        assert!((p.mean_gap - 10.0).abs() < 1e-12);
    }

    #[test]
    fn poisson_deterministic_per_seed() {
        let p = PoissonArrivals { mean_gap: 7.0 };
        let a = take_arrivals(&mut p.stream(SmallRng::seed_from_u64(5)), 100);
        let b = take_arrivals(&mut p.stream(SmallRng::seed_from_u64(5)), 100);
        assert_eq!(a, b);
    }

    #[test]
    fn periodic() {
        let p = PeriodicArrivals { gap: 32 };
        let arr = take_arrivals(&mut p.stream(), 4);
        assert_eq!(arr, vec![0, 32, 64, 96]);
    }

    #[test]
    fn names() {
        let poisson = PoissonArrivals { mean_gap: 1.0 }.stream(SmallRng::seed_from_u64(0));
        assert_eq!(poisson.source_name(), "poisson");
        assert_eq!(
            PeriodicArrivals { gap: 1 }.stream().source_name(),
            "periodic"
        );
    }

    #[test]
    #[should_panic(expected = "QPS must be positive")]
    fn zero_qps_panics() {
        let _ = PoissonArrivals::from_qps(0.0, 10_000.0);
    }

    #[test]
    fn boxed_source_streams() {
        let mut s: Box<dyn ArrivalSource> = Box::new(PeriodicArrivals { gap: 5 }.stream());
        assert_eq!(s.source_name(), "periodic");
        assert_eq!(take_arrivals(&mut s, 3), vec![0, 5, 10]);
        // The stream is endless: it keeps producing past any batch size.
        assert_eq!(s.next_arrival(), 15);
    }

    #[test]
    fn streams_are_monotone_far_out() {
        let mut s = PoissonArrivals { mean_gap: 3.0 }.stream(SmallRng::seed_from_u64(9));
        let mut prev = 0;
        for _ in 0..10_000 {
            let t = s.next_arrival();
            assert!(t >= prev);
            prev = t;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn stream_prefixes_nest(seed in any::<u64>(), n in 1usize..256) {
            // Streaming n ticks then comparing to the n-1 prefix of a fresh
            // stream: pull-based replay is prefix-stable, which is what
            // lets a server resume a stream mid-flight after a crash.
            let p = PoissonArrivals { mean_gap: 11.0 };
            let long = take_arrivals(&mut p.stream(SmallRng::seed_from_u64(seed)), n);
            let short = take_arrivals(&mut p.stream(SmallRng::seed_from_u64(seed)), n - 1);
            prop_assert_eq!(&long[..n - 1], &short[..]);
        }
    }
}
