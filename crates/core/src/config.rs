//! Simulation configuration.

use crate::fault::FaultPlan;
use parflow_time::Speed;

/// How much simulated time a steal attempt consumes (work stealing only).
///
/// * [`StealCost::UnitStep`] — the **theory model** (Section 4): "we assume
///   that it takes a unit time step to steal work between workers". Every
///   attempt, successful or not, consumes the thief's whole round. This is
///   what Theorem 4.1's `(k+1+ε)`-speed requirement pays for, and what the
///   Lemma 5.1 lower bound exploits.
/// * [`StealCost::Free`] — the **systems model** matching the paper's TBB
///   experiments (Section 6), where a steal attempt (~100 ns) is four
///   orders of magnitude cheaper than a 0.1 ms work unit: acquiring work is
///   instantaneous and only executing work (or having none) consumes the
///   round. Use this to reproduce Figure 2.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StealCost {
    /// A steal attempt takes one full time step (paper Section 4 model).
    #[default]
    UnitStep,
    /// Steal attempts are instantaneous (paper Section 6 TBB behaviour).
    Free,
}

/// How a thief picks its victim (work stealing only).
///
/// The paper — like Cilk and TBB — uses uniformly random victims, and its
/// `Ω(log n)` lower bound (Lemma 5.1) is specifically about that
/// randomization: all thieves can keep missing the one loaded deque.
/// [`VictimStrategy::RoundRobinScan`] is the deterministic alternative
/// (each thief sweeps the workers cyclically), which finds any loaded
/// deque within `m−1` attempts — the `lb_logn` ablation shows the lower
/// bound collapsing under it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum VictimStrategy {
    /// Uniformly random victim among the other workers (the paper's model).
    #[default]
    Uniform,
    /// Deterministic cyclic sweep over the other workers.
    RoundRobinScan,
}

/// How much a successful steal takes from the victim's deque.
///
/// The paper (and Cilk/TBB) steal a single task; stealing *half* the
/// victim's deque is the variant used by e.g. the Go runtime and X10's
/// help-first policies. Half-stealing spreads a freshly admitted job's
/// chunks across workers in `O(log chunks)` steals instead of one steal
/// per chunk — the `steal_amount` ablation quantifies the effect on max
/// flow time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StealAmount {
    /// Steal one task from the top (the paper's model).
    #[default]
    One,
    /// Steal the top half of the victim's deque (rounded up).
    Half,
}

/// In what order the global queue releases jobs to admitting workers.
///
/// The paper's scheduler admits in FIFO order. [`AdmissionOrder::ByWeight`]
/// is this repo's extension for the weighted objective (Section 7): a
/// *distributed* Biggest-Weight-First, where admission pops the
/// largest-weight queued job instead of the oldest. Combined with
/// steal-k-first this approximates centralized BWF without global
/// preemption — see the `weighted-ws` experiment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdmissionOrder {
    /// Oldest job first (the paper's global FIFO queue).
    #[default]
    Fifo,
    /// Largest weight first, ties by arrival.
    ByWeight,
}

/// Configuration of one simulated machine run.
///
/// Not `Copy`: the fault plan owns heap-allocated fault lists. Clone it
/// explicitly where a second copy is needed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of identical processors `m`.
    pub m: usize,
    /// Processor speed (resource augmentation); the optimal schedule always
    /// runs at speed 1.
    pub speed: Speed,
    /// Record a full per-round, per-processor [`crate::ScheduleTrace`].
    /// Costs memory proportional to `rounds × m`; off by default.
    pub record_trace: bool,
    /// Steal-attempt cost model (ignored by centralized schedulers).
    pub steal_cost: StealCost,
    /// Victim-selection strategy (ignored by centralized schedulers).
    pub victim: VictimStrategy,
    /// Sample backlog state every this many rounds into
    /// `SimResult::samples` (work stealing only; 0 disables sampling).
    pub sample_every: u64,
    /// How much a successful steal transfers (work stealing only).
    pub steal_amount: StealAmount,
    /// Global-queue admission order (work stealing only).
    pub admission: AdmissionOrder,
    /// Faults to inject (crashes, slowdowns, stalls, blackholes, task
    /// panics). Empty by default; see [`FaultPlan`].
    pub faults: FaultPlan,
}

impl SimConfig {
    /// A unit-speed machine with `m` processors, no trace, unit-step steals.
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "need at least one processor");
        SimConfig {
            m,
            speed: Speed::ONE,
            record_trace: false,
            steal_cost: StealCost::UnitStep,
            victim: VictimStrategy::Uniform,
            sample_every: 0,
            steal_amount: StealAmount::One,
            admission: AdmissionOrder::Fifo,
            faults: FaultPlan::none(),
        }
    }

    /// Set the processor speed.
    pub fn with_speed(mut self, speed: Speed) -> Self {
        self.speed = speed;
        self
    }

    /// Enable trace recording.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Use the systems steal-cost model (instantaneous steal attempts).
    pub fn with_free_steals(mut self) -> Self {
        self.steal_cost = StealCost::Free;
        self
    }

    /// Use deterministic round-robin victim scanning instead of uniformly
    /// random victims.
    pub fn with_victim_scan(mut self) -> Self {
        self.victim = VictimStrategy::RoundRobinScan;
        self
    }

    /// Sample work-stealing backlog state every `every` rounds.
    pub fn with_sampling(mut self, every: u64) -> Self {
        assert!(every > 0, "sampling interval must be positive");
        self.sample_every = every;
        self
    }

    /// Steal half the victim's deque on success instead of one task.
    pub fn with_half_steals(mut self) -> Self {
        self.steal_amount = StealAmount::Half;
        self
    }

    /// Admit jobs from the global queue by descending weight
    /// (distributed Biggest-Weight-First).
    pub fn with_weighted_admission(mut self) -> Self {
        self.admission = AdmissionOrder::ByWeight;
        self
    }

    /// Inject the given faults. The plan is validated against `m` at
    /// engine start, not here, so a config can be built before the
    /// machine size is final.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let c = SimConfig::new(8)
            .with_speed(Speed::new(3, 2))
            .with_trace()
            .with_free_steals();
        assert_eq!(c.m, 8);
        assert_eq!(c.speed, Speed::new(3, 2));
        assert!(c.record_trace);
        assert_eq!(c.steal_cost, StealCost::Free);
    }

    #[test]
    fn defaults() {
        let c = SimConfig::new(4);
        assert_eq!(c.speed, Speed::ONE);
        assert!(!c.record_trace);
        assert_eq!(c.steal_cost, StealCost::UnitStep);
        assert_eq!(c.victim, VictimStrategy::Uniform);
    }

    #[test]
    fn victim_scan_builder() {
        let c = SimConfig::new(2).with_victim_scan();
        assert_eq!(c.victim, VictimStrategy::RoundRobinScan);
    }

    #[test]
    fn half_steal_builder() {
        let c = SimConfig::new(2).with_half_steals();
        assert_eq!(c.steal_amount, StealAmount::Half);
        assert_eq!(SimConfig::new(2).steal_amount, StealAmount::One);
    }

    #[test]
    fn weighted_admission_builder() {
        let c = SimConfig::new(2).with_weighted_admission();
        assert_eq!(c.admission, AdmissionOrder::ByWeight);
        assert_eq!(SimConfig::new(2).admission, AdmissionOrder::Fifo);
    }

    #[test]
    fn sampling_builder() {
        let c = SimConfig::new(2).with_sampling(100);
        assert_eq!(c.sample_every, 100);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_sampling_panics() {
        let _ = SimConfig::new(2).with_sampling(0);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_panics() {
        let _ = SimConfig::new(0);
    }
}
