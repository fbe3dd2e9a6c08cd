//! The deterministic admission ledger.
//!
//! Every submission passes through one virtual-time FIFO model **before**
//! it touches a worker: `capacity_slots` unit-speed servers, a bound of
//! `queue_cap` jobs in the system, and an optional flow-time SLO. The
//! ledger decides [`Outcome::Admitted`], [`Outcome::Shed`] (queue full —
//! explicit, never a silent drop) or [`Outcome::RejectedSlo`] (the job's
//! *predicted* FIFO flow already exceeds the SLO, so admitting it would
//! only burn capacity on a response nobody will wait for).
//!
//! The ledger is a pure function of the submission stream — it never reads
//! a clock, a worker count, or a queue depth of the real execution layer.
//! That is the crate's central determinism argument: the merged report
//! (and its digest) is computed from ledger state plus the deduplicated
//! completion set, both sharding-invariant, so one seed and one jsonl
//! stream produce a byte-identical digest whether the service runs 1, 2 or
//! 8 workers, with or without crash/restart chaos in between.
//!
//! Liveness under overload follows from the same bounds: at most
//! `queue_cap` admitted jobs are in flight (bounded memory), excess load
//! turns into counted sheds, and every admitted job's virtual flow is
//! `<= slo_ticks` by construction.
//!
//! This file is in the `parflow-lint` L3 (`panicking`) scope: the
//! admission path must never panic.

use parflow_time::{Ticks, Work};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Ledger parameters (a subset of `ServeConfig`, kept separate so the
/// ledger can be unit-tested without a supervisor).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Virtual unit-speed servers (the modelled machine size `m`).
    pub capacity_slots: usize,
    /// Maximum admitted jobs in the system; arrivals beyond it are shed.
    pub queue_cap: usize,
    /// Flow-time SLO in ticks; `None` disables deadline rejection.
    pub slo_ticks: Option<Ticks>,
}

/// The ledger's verdict on one submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Dispatched to the execution layer; `virtual_flow` is the modelled
    /// FIFO flow time (and an upper bound certificate vs the SLO).
    Admitted {
        /// Predicted flow time in ticks under the ledger's FIFO model.
        virtual_flow: Ticks,
    },
    /// The system already holds `queue_cap` jobs; shed (counted, surfaced).
    Shed {
        /// Jobs in the system at the instant of the decision.
        in_system: usize,
    },
    /// Predicted flow exceeds the SLO; rejected at admission.
    RejectedSlo {
        /// The predicted flow that broke the deadline.
        predicted_flow: Ticks,
    },
    /// The submission id was already admitted or completed; idempotent
    /// re-send, nothing executed. (Issued by the supervisor's dedup layer,
    /// not by the ledger itself.)
    Duplicate,
}

/// Deterministic virtual-time admission state. See the module docs.
#[derive(Debug)]
pub struct AdmissionLedger {
    cfg: AdmissionConfig,
    /// Earliest tick at which each capacity slot frees up (min-heap).
    slots: BinaryHeap<Reverse<Ticks>>,
    /// Departure ticks of admitted jobs still in the system (min-heap).
    departures: BinaryHeap<Reverse<Ticks>>,
    /// Monotonic virtual clock (arrivals are clamped forward onto it).
    clock: Ticks,
    clamped: u64,
    submitted: u64,
    admitted: u64,
    shed: u64,
    rejected_slo: u64,
}

impl AdmissionLedger {
    /// A fresh ledger. `capacity_slots` and `queue_cap` are clamped to at
    /// least 1 so the ledger is total (config validation with real errors
    /// happens in `ServeConfig::validate`).
    pub fn new(cfg: AdmissionConfig) -> AdmissionLedger {
        let slots = cfg.capacity_slots.max(1);
        AdmissionLedger {
            cfg: AdmissionConfig {
                capacity_slots: slots,
                queue_cap: cfg.queue_cap.max(1),
                slo_ticks: cfg.slo_ticks,
            },
            slots: (0..slots).map(|_| Reverse(0)).collect(),
            departures: BinaryHeap::new(),
            clock: 0,
            clamped: 0,
            submitted: 0,
            admitted: 0,
            shed: 0,
            rejected_slo: 0,
        }
    }

    /// Decide one submission. Pure virtual time: no clock, no worker state.
    pub fn decide(&mut self, arrival: Ticks, work: Work) -> Outcome {
        self.submitted += 1;
        let t = if arrival < self.clock {
            self.clamped += 1;
            self.clock
        } else {
            arrival
        };
        self.clock = t;
        // Retire virtual departures up to now.
        while matches!(self.departures.peek(), Some(&Reverse(d)) if d <= t) {
            self.departures.pop();
        }
        if self.departures.len() >= self.cfg.queue_cap {
            self.shed += 1;
            return Outcome::Shed {
                in_system: self.departures.len(),
            };
        }
        let free = match self.slots.peek() {
            Some(&Reverse(f)) => f,
            None => 0, // unreachable: `new` seeds >= 1 slot, pops are paired with pushes
        };
        let start = t.max(free);
        let depart = start.saturating_add(work.max(1));
        let flow = depart - t;
        if let Some(slo) = self.cfg.slo_ticks {
            if flow > slo {
                self.rejected_slo += 1;
                return Outcome::RejectedSlo {
                    predicted_flow: flow,
                };
            }
        }
        self.slots.pop();
        self.slots.push(Reverse(depart));
        self.departures.push(Reverse(depart));
        self.admitted += 1;
        Outcome::Admitted { virtual_flow: flow }
    }

    /// Submissions seen so far (every `decide` call).
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Jobs admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Submissions shed so far.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Submissions rejected against the SLO so far.
    pub fn rejected_slo(&self) -> u64 {
        self.rejected_slo
    }

    /// Write the ledger's counters and config gauges into a recorder.
    /// Everything written here is a pure function of the submission stream
    /// (never of worker count or timing), so it is safe to include in the
    /// digested merged report.
    pub(crate) fn record_merged(&self, rec: &mut parflow_obs::AggregatingRecorder) {
        use parflow_obs::Recorder;
        rec.counter("serve.submitted", self.submitted);
        rec.counter("serve.admitted", self.admitted);
        rec.counter("serve.shed", self.shed);
        rec.counter("serve.rejected_slo", self.rejected_slo);
        rec.counter("serve.arrival_clamped", self.clamped);
        rec.gauge("serve.capacity_slots", self.cfg.capacity_slots as f64);
        rec.gauge("serve.queue_cap", self.cfg.queue_cap as f64);
        rec.gauge(
            "serve.slo_ticks",
            self.cfg.slo_ticks.map(|s| s as f64).unwrap_or(-1.0),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(slots: usize, cap: usize, slo: Option<Ticks>) -> AdmissionConfig {
        AdmissionConfig {
            capacity_slots: slots,
            queue_cap: cap,
            slo_ticks: slo,
        }
    }

    #[test]
    fn single_slot_fifo_flows() {
        let mut l = AdmissionLedger::new(cfg(1, 100, None));
        // Back-to-back arrivals at t=0: flows accumulate 10, 20, 30.
        assert_eq!(l.decide(0, 10), Outcome::Admitted { virtual_flow: 10 });
        assert_eq!(l.decide(0, 10), Outcome::Admitted { virtual_flow: 20 });
        assert_eq!(l.decide(0, 10), Outcome::Admitted { virtual_flow: 30 });
        // After the backlog drains, flow resets to the bare work.
        assert_eq!(l.decide(100, 5), Outcome::Admitted { virtual_flow: 5 });
        assert_eq!(l.admitted(), 4);
    }

    #[test]
    fn parallel_slots_absorb_bursts() {
        let mut l = AdmissionLedger::new(cfg(2, 100, None));
        assert_eq!(l.decide(0, 10), Outcome::Admitted { virtual_flow: 10 });
        assert_eq!(l.decide(0, 10), Outcome::Admitted { virtual_flow: 10 });
        // Third job queues behind the earlier of the two slots.
        assert_eq!(l.decide(0, 10), Outcome::Admitted { virtual_flow: 20 });
    }

    #[test]
    fn queue_cap_sheds_instead_of_growing() {
        let mut l = AdmissionLedger::new(cfg(1, 2, None));
        assert!(matches!(l.decide(0, 50), Outcome::Admitted { .. }));
        assert!(matches!(l.decide(0, 50), Outcome::Admitted { .. }));
        assert_eq!(l.decide(0, 50), Outcome::Shed { in_system: 2 });
        assert_eq!(l.shed(), 1);
        // Once the system drains, admission resumes.
        assert!(matches!(l.decide(200, 1), Outcome::Admitted { .. }));
    }

    #[test]
    fn slo_rejects_predicted_violations_and_bounds_admitted_flow() {
        let mut l = AdmissionLedger::new(cfg(1, 100, Some(25)));
        assert_eq!(l.decide(0, 10), Outcome::Admitted { virtual_flow: 10 });
        assert_eq!(l.decide(0, 10), Outcome::Admitted { virtual_flow: 20 });
        // Would be flow 30 > 25: rejected, and the slot is NOT consumed.
        assert_eq!(l.decide(0, 10), Outcome::RejectedSlo { predicted_flow: 30 });
        assert_eq!(l.decide(0, 5), Outcome::Admitted { virtual_flow: 25 });
        assert_eq!(l.rejected_slo(), 1);
    }

    #[test]
    fn regressions_are_clamped_monotone() {
        let mut l = AdmissionLedger::new(cfg(1, 100, None));
        assert!(matches!(l.decide(100, 1), Outcome::Admitted { .. }));
        // Arrival going backwards is clamped to the clock (t=100).
        assert_eq!(l.decide(50, 1), Outcome::Admitted { virtual_flow: 2 });
        assert_eq!(l.clamped, 1);
    }

    #[test]
    fn zero_work_counts_as_one() {
        let mut l = AdmissionLedger::new(cfg(1, 10, None));
        assert_eq!(l.decide(0, 0), Outcome::Admitted { virtual_flow: 1 });
    }

    #[test]
    fn degenerate_config_is_clamped() {
        let mut l = AdmissionLedger::new(cfg(0, 0, None));
        assert!(matches!(l.decide(0, 1), Outcome::Admitted { .. }));
        assert!(matches!(l.decide(0, 1), Outcome::Shed { .. }));
    }

    #[test]
    fn ledger_is_replay_deterministic() {
        let run = || {
            let mut l = AdmissionLedger::new(cfg(4, 16, Some(500)));
            let mut rec = parflow_obs::AggregatingRecorder::new();
            let mut x: u64 = 0x2545_F491_4F6C_DD1D;
            let mut t = 0u64;
            for _ in 0..1000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                t += x % 7;
                l.decide(t, 1 + x % 90);
            }
            l.record_merged(&mut rec);
            rec.report().digest()
        };
        assert_eq!(run(), run());
    }
}
