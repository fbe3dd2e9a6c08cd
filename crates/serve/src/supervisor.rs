//! The supervision layer: shard admitted jobs across workers, watch the
//! workers, and restart what dies without ever losing or double-counting
//! a job.
//!
//! ## State machine (per worker slot)
//!
//! ```text
//!           spawn                 death detected
//!   Running ------> Dispatchable -----------------> Draining
//!     ^                                                |
//!     |  backoff elapsed        restarts exhausted     v
//!   Restarting <----------------------------------- (re-admit unacked)
//!     |                                                |
//!     +---- restarts left ------------+----------------+
//!                                     v
//!                                  Retired
//! ```
//!
//! Death is detected two ways: the worker thread has exited
//! (`is_finished`, the primary signal — a crashed loop returns), or the
//! heartbeat watchdog sees no progress for `STALL_POLLS` consecutive pumps
//! while the worker holds work (a hung thread). On death the supervisor
//! drains the dead worker's final acknowledgements, re-admits every
//! unacknowledged order (poison stripped, so a poisoned job completes on
//! retry), and schedules a restart under capped exponential backoff with
//! deterministic seeded jitter. A worker that exhausts `max_restarts` is
//! retired; its work re-routes to the survivors.
//!
//! ## Exactly-once accounting
//!
//! Dispatch is at-least-once (re-admission can race a slow
//! acknowledgement); the completion set deduplicates by submission id, so
//! the merged report counts every admitted job exactly once. Duplicates
//! are themselves counted — in the live report, because whether a race
//! happens depends on timing and sharding.
//!
//! ## Two reports, one digest
//!
//! [`ServeReport::merged`] contains only sharding-invariant data (the
//! admission ledger's counters, the deduplicated completion count, virtual
//! flows, a kernel-checksum fold) and is the digest the CI smoke and chaos
//! tests compare across worker counts. [`ServeReport::live`] holds
//! everything timing- or topology-dependent: restarts, re-admissions,
//! duplicates, wall-clock flows, per-worker counters.
//!
//! This file is in the `parflow-lint` L3 (`panicking`) scope: the serving
//! loop must never panic.

use crate::admission::{AdmissionConfig, AdmissionLedger, Outcome};
use crate::protocol::Submission;
use crate::worker::{Completion, SubmitError, ThreadWorker, WorkOrder, WorkerConfig};
use parflow_obs::{AggregatingRecorder, ObsReport, Recorder};
use parflow_runtime::RuntimeError;
use parflow_time::Ticks;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::{Duration, Instant};

/// Deterministic chaos: worker `worker` dies after acknowledging
/// `after_orders` orders — first incarnation only, so restarts recover.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Worker index the fault applies to.
    pub worker: usize,
    /// Acknowledged-order count after which the incarnation dies.
    pub after_orders: u64,
}

impl FaultSpec {
    /// Parse a comma-separated `worker:after` list, e.g. `"0:5,2:9"`.
    pub(crate) fn parse_list(s: &str) -> Result<Vec<FaultSpec>, String> {
        let mut out = Vec::new();
        for part in s.split(',').filter(|p| !p.trim().is_empty()) {
            let mut halves = part.trim().splitn(2, ':');
            let worker = halves
                .next()
                .and_then(|w| w.parse::<usize>().ok())
                .ok_or_else(|| format!("bad fault spec `{part}` (want worker:after)"))?;
            let after_orders = halves
                .next()
                .and_then(|a| a.parse::<u64>().ok())
                .ok_or_else(|| format!("bad fault spec `{part}` (want worker:after)"))?;
            out.push(FaultSpec {
                worker,
                after_orders,
            });
        }
        Ok(out)
    }
}

/// Watchdog: pumps without heartbeat progress (while holding work) before
/// a live-looking worker is declared hung.
const STALL_POLLS: u64 = 100_000;

/// Wall-clock bound on `finish`'s drain loop.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Supervisor configuration. `new(workers)` gives defaults sized for
/// tests and the CLI; all fields are public for direct construction.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker shards.
    pub workers: usize,
    /// Virtual capacity slots of the admission ledger (modelled `m`).
    pub capacity_slots: usize,
    /// Bound on admitted jobs in the system (ledger sheds beyond it).
    pub queue_cap: usize,
    /// Flow-time SLO in ticks; `None` disables deadline rejection.
    pub slo_ticks: Option<Ticks>,
    /// Seed for the restart-jitter stream (and nothing else).
    pub seed: u64,
    /// Spin-kernel iterations per work unit.
    pub iters_per_unit: u64,
    /// Per-worker bounded inbox depth.
    pub inbox_cap: usize,
    /// Restarts allowed per worker before it is retired.
    pub max_restarts: u32,
    /// Backoff base in milliseconds (doubles per consecutive restart).
    pub backoff_base_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub backoff_cap_ms: u64,
    /// Deterministic kill schedule (first incarnations only).
    pub faults: Vec<FaultSpec>,
}

impl ServeConfig {
    /// Defaults: paper-machine ledger (16 slots), queue cap 64, no SLO,
    /// instant-ish restarts suitable for tests and CI.
    pub fn new(workers: usize) -> ServeConfig {
        ServeConfig {
            workers: workers.max(1),
            capacity_slots: 16,
            queue_cap: 64,
            slo_ticks: None,
            seed: 0,
            iters_per_unit: 200,
            inbox_cap: 32,
            max_restarts: 3,
            backoff_base_ms: 1,
            backoff_cap_ms: 100,
            faults: Vec::new(),
        }
    }

    /// Validate cross-field invariants (fault indices in range).
    pub fn validate(&self) -> Result<(), RuntimeError> {
        for f in &self.faults {
            if f.worker >= self.workers {
                return Err(RuntimeError::InvalidFaultPlan(format!(
                    "fault references worker {} but the service has {} workers",
                    f.worker, self.workers
                )));
            }
        }
        Ok(())
    }
}

/// An admitted order not yet acknowledged.
#[derive(Debug)]
struct Outstanding {
    order: WorkOrder,
    offered: Instant,
    assigned_to: Option<usize>,
}

/// One worker slot across incarnations.
#[derive(Debug)]
struct Slot {
    handle: Option<ThreadWorker>,
    incarnation: u32,
    restarts_used: u32,
    retired: bool,
    restart_at: Option<Instant>,
    last_hb: u64,
    stalled: u64,
    /// Outstanding orders assigned to this slot: up on dispatch, down on
    /// acknowledgement, zeroed on death. The watchdog reads it.
    holding: usize,
}

/// Final accounting of one service run. See the module docs for the
/// merged/live split.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Sharding-invariant report (what [`ServeReport::digest`] hashes).
    pub merged: ObsReport,
    /// Timing/topology-dependent telemetry (excluded from the digest).
    pub live: ObsReport,
    /// `merged.digest()`: byte-identical across worker counts and chaos.
    pub digest: String,
    /// Submissions offered (including duplicates).
    pub submitted: u64,
    /// Jobs the ledger admitted.
    pub admitted: u64,
    /// Admitted jobs acknowledged exactly once.
    pub completed: u64,
    /// Submissions shed at the queue bound.
    pub shed: u64,
    /// Submissions rejected against the SLO.
    pub rejected_slo: u64,
    /// Idempotent re-sends of known ids.
    pub duplicate_submissions: u64,
    /// Admitted jobs that could not be completed (all workers retired).
    pub lost: u64,
}

impl ServeReport {
    /// Human-readable one-paragraph summary for the CLI.
    pub fn summary(&self) -> String {
        format!(
            "submitted {} | admitted {} | completed {} | shed {} | rejected-slo {} | dup {} | lost {}\nmerged digest: {}",
            self.submitted,
            self.admitted,
            self.completed,
            self.shed,
            self.rejected_slo,
            self.duplicate_submissions,
            self.lost,
            self.digest
        )
    }
}

/// The supervisor: admission ledger + worker fleet + re-admission logic.
/// Drive it with [`Supervisor::offer`] per submission and
/// [`Supervisor::pump`] in between; [`Supervisor::finish`] drains and
/// reports.
#[derive(Debug)]
pub struct Supervisor {
    cfg: ServeConfig,
    ledger: AdmissionLedger,
    slots: Vec<Slot>,
    dispatch: VecDeque<WorkOrder>,
    outstanding: BTreeMap<u64, Outstanding>,
    completed: BTreeSet<u64>,
    merged: AggregatingRecorder,
    live: AggregatingRecorder,
    jitter: SmallRng,
    rr: usize,
    checksum_xor: u64,
    duplicate_submissions: u64,
    /// Scratch reused by every pump: drained acknowledgements, and the
    /// workers whose inbox filled during one dispatch pass.
    acks: Vec<Completion>,
    full: Vec<bool>,
}

impl Supervisor {
    /// Validate the config and spawn the initial worker fleet.
    pub fn new(cfg: ServeConfig) -> Result<Supervisor, RuntimeError> {
        cfg.validate()?;
        let jitter = SmallRng::seed_from_u64(cfg.seed);
        let ledger = AdmissionLedger::new(AdmissionConfig {
            capacity_slots: cfg.capacity_slots,
            queue_cap: cfg.queue_cap,
            slo_ticks: cfg.slo_ticks,
        });
        let mut sup = Supervisor {
            slots: Vec::new(),
            ledger,
            dispatch: VecDeque::new(),
            outstanding: BTreeMap::new(),
            completed: BTreeSet::new(),
            merged: AggregatingRecorder::new(),
            live: AggregatingRecorder::new(),
            jitter,
            rr: 0,
            checksum_xor: 0,
            duplicate_submissions: 0,
            acks: Vec::new(),
            full: Vec::new(),
            cfg,
        };
        for w in 0..sup.cfg.workers {
            let slot = Slot {
                handle: Some(sup.spawn_worker(w, 0)),
                incarnation: 0,
                restarts_used: 0,
                retired: false,
                restart_at: None,
                last_hb: 0,
                stalled: 0,
                holding: 0,
            };
            sup.slots.push(slot);
        }
        Ok(sup)
    }

    fn spawn_worker(&self, w: usize, incarnation: u32) -> ThreadWorker {
        // Kill schedules apply to first incarnations only: a restarted
        // worker is healthy, so chaos runs converge.
        let kill_after = if incarnation == 0 {
            self.cfg
                .faults
                .iter()
                .find(|f| f.worker == w)
                .map(|f| f.after_orders)
        } else {
            None
        };
        ThreadWorker::spawn(WorkerConfig {
            index: w,
            iters_per_unit: self.cfg.iters_per_unit,
            inbox_cap: self.cfg.inbox_cap,
            kill_after,
        })
    }

    /// Offer one submission: dedup, ledger decision, dispatch on admit.
    pub fn offer(&mut self, sub: Submission) -> Outcome {
        if self.completed.contains(&sub.id) || self.outstanding.contains_key(&sub.id) {
            // Idempotent re-send: counted in the merged report because it
            // is a pure function of the input stream.
            self.duplicate_submissions += 1;
            self.merged.counter("serve.duplicate_submission", 1);
            return Outcome::Duplicate;
        }
        let outcome = self.ledger.decide(sub.arrival, sub.work);
        if let Outcome::Admitted { virtual_flow } = outcome {
            self.merged
                .sample("serve.virtual_flow_ticks", virtual_flow as f64);
            let order = WorkOrder::from_submission(&sub);
            self.outstanding.insert(
                sub.id,
                Outstanding {
                    order,
                    offered: Instant::now(),
                    assigned_to: None,
                },
            );
            self.dispatch.push_back(order);
            self.dispatch_pending();
        }
        outcome
    }

    /// One supervision round: drain acknowledgements, detect deaths,
    /// restart due workers, dispatch pending orders.
    pub fn pump(&mut self) {
        // 1. Drain acknowledgements from every live worker.
        for slot in &mut self.slots {
            if let Some(h) = &mut slot.handle {
                h.drain_completions(&mut self.acks);
            }
        }
        self.apply_acks();
        // 2. Death detection: thread exit (primary) or heartbeat stall
        //    while holding work (hung-thread watchdog).
        let mut deaths = Vec::new();
        for (w, slot) in self.slots.iter_mut().enumerate() {
            let dead = match slot {
                Slot {
                    handle: Some(h),
                    last_hb,
                    stalled,
                    holding,
                    ..
                } => {
                    if h.is_finished() {
                        true
                    } else {
                        let hb = h.heartbeat();
                        if hb == *last_hb && *holding > 0 {
                            *stalled += 1;
                        } else {
                            *stalled = 0;
                        }
                        *last_hb = hb;
                        *stalled > STALL_POLLS
                    }
                }
                _ => false,
            };
            if dead {
                deaths.push(w);
            }
        }
        for w in deaths {
            self.handle_death(w);
        }
        // 3. Restart workers whose backoff has elapsed.
        for w in 0..self.slots.len() {
            let due = matches!(
                (&self.slots[w].handle, self.slots[w].restart_at),
                (None, Some(at)) if Instant::now() >= at
            ) && !self.slots[w].retired;
            if due {
                let incarnation = self.slots[w].incarnation + 1;
                let handle = self.spawn_worker(w, incarnation);
                let slot = &mut self.slots[w];
                slot.handle = Some(handle);
                slot.incarnation = incarnation;
                slot.restart_at = None;
                slot.last_hb = 0;
                slot.stalled = 0;
                self.live.counter("serve.restarts", 1);
                self.live.counter_at("serve.worker.restarts", w, 1);
            }
        }
        // 4. Push pending orders out.
        self.dispatch_pending();
    }

    /// Apply the acknowledgements drained into `self.acks`, keeping its
    /// buffer for the next drain.
    fn apply_acks(&mut self) {
        let mut acks = std::mem::take(&mut self.acks);
        for c in acks.drain(..) {
            self.apply_completion(c);
        }
        self.acks = acks;
    }

    fn apply_completion(&mut self, c: Completion) {
        if self.completed.insert(c.id) {
            // The kernel checksum is a pure function of (id, work, iters),
            // so a fold over the deduplicated completion set is
            // sharding-invariant — it lands in the merged report as an
            // execution-identity probe.
            self.checksum_xor ^= c.checksum;
            if let Some(o) = self.outstanding.remove(&c.id) {
                if let Some(slot) = o.assigned_to.and_then(|w| self.slots.get_mut(w)) {
                    slot.holding = slot.holding.saturating_sub(1);
                }
                let ms = o.offered.elapsed().as_secs_f64() * 1e3;
                self.live.sample("serve.wall_flow_ms", ms);
            }
            self.live.counter("serve.completions", 1);
            self.live.counter_at("serve.worker.completed", c.worker, 1);
        } else {
            // At-least-once dispatch raced: executed twice, counted once.
            self.live.counter("serve.duplicate_completion", 1);
        }
    }

    /// A worker died: salvage its buffered acknowledgements, re-admit its
    /// unacknowledged orders, schedule a restart (or retire it).
    fn handle_death(&mut self, w: usize) {
        let mut handle = match self.slots[w].handle.take() {
            Some(h) => h,
            None => return,
        };
        // Acks sent before the crash are still buffered in the channel;
        // losing them would turn a clean completion into a duplicate run.
        handle.drain_completions(&mut self.acks);
        self.apply_acks();
        handle.shutdown();
        self.live.counter("serve.worker_deaths", 1);
        self.live.counter_at("serve.worker.deaths", w, 1);
        self.slots[w].holding = 0;
        // Exactly-once re-admission: everything assigned and unacked goes
        // back to the dispatch queue, poison stripped so retries converge.
        // The one scan of `outstanding`, paid per death, not per pump.
        let ids: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|(_, o)| o.assigned_to == Some(w))
            .map(|(&id, _)| id)
            .collect();
        self.live.counter("serve.readmitted", ids.len() as u64);
        for id in ids {
            if let Some(o) = self.outstanding.get_mut(&id) {
                o.assigned_to = None;
                o.order.poison = false;
                self.dispatch.push_back(o.order);
            }
        }
        let used = self.slots[w].restarts_used;
        if used < self.cfg.max_restarts {
            let delay = self.backoff_delay(used + 1);
            let slot = &mut self.slots[w];
            slot.restarts_used = used + 1;
            slot.restart_at = Some(Instant::now() + delay);
        } else {
            self.slots[w].retired = true;
            self.live.counter("serve.workers_retired", 1);
        }
    }

    /// Capped exponential backoff with deterministic seeded jitter.
    fn backoff_delay(&mut self, attempt: u32) -> Duration {
        let exp = self
            .cfg
            .backoff_base_ms
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(16));
        let capped = exp.min(self.cfg.backoff_cap_ms);
        let jitter = if capped > 0 {
            self.jitter.gen_range(0..=capped / 4)
        } else {
            0
        };
        Duration::from_millis(capped + jitter)
    }

    /// Round-robin dispatch with backpressure: a full inbox rotates to the
    /// next worker; when everyone is full the order waits in the queue.
    fn dispatch_pending(&mut self) {
        let n = self.slots.len();
        if n == 0 {
            return;
        }
        self.full.clear();
        self.full.resize(n, false);
        while let Some(order) = self.dispatch.pop_front() {
            let mut placed = false;
            for step in 0..n {
                let w = (self.rr + step) % n;
                if self.full[w] {
                    continue;
                }
                let slot = &mut self.slots[w];
                let outcome = match &mut slot.handle {
                    Some(h) => h.try_submit(order),
                    None => continue,
                };
                match outcome {
                    Ok(()) => {
                        if let Some(o) = self.outstanding.get_mut(&order.id) {
                            o.assigned_to = Some(w);
                            slot.holding += 1;
                        }
                        self.rr = (w + 1) % n;
                        placed = true;
                        break;
                    }
                    Err(SubmitError::Full) => self.full[w] = true,
                    Err(SubmitError::Dead) => {} // next pump reaps it
                }
            }
            if !placed {
                self.dispatch.push_front(order);
                return;
            }
        }
    }

    /// Drain everything in flight (bounded by `DRAIN_TIMEOUT`), shut
    /// the fleet down, and produce the final report pair.
    pub fn finish(mut self) -> ServeReport {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        loop {
            self.pump();
            if self.outstanding.is_empty() && self.dispatch.is_empty() {
                break;
            }
            let recoverable = self.slots.iter().any(|s| s.handle.is_some() || !s.retired);
            if !recoverable || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        for slot in &mut self.slots {
            if let Some(mut h) = slot.handle.take() {
                h.shutdown();
                h.drain_completions(&mut self.acks);
            }
        }
        self.apply_acks();
        // Merged report: ledger state + deduplicated completions. Nothing
        // here depends on worker count, timing, or restart history.
        self.ledger.record_merged(&mut self.merged);
        let completed = self.completed.len() as u64;
        let lost = (self.outstanding.len() + self.dispatch.len()) as u64;
        self.merged.counter("serve.completed", completed);
        self.merged.counter("serve.lost", lost);
        self.merged
            .gauge("serve.checksum_xor_b32", (self.checksum_xor as u32) as f64);
        // Live report: topology and timing.
        self.live.gauge("serve.workers", self.cfg.workers as f64);
        self.live
            .gauge("serve.inbox_cap", self.cfg.inbox_cap as f64);
        let merged = self.merged.report();
        let digest = merged.digest();
        ServeReport {
            live: self.live.report(),
            merged,
            digest,
            submitted: self.ledger.submitted(),
            admitted: self.ledger.admitted(),
            completed,
            shed: self.ledger.shed(),
            rejected_slo: self.ledger.rejected_slo(),
            duplicate_submissions: self.duplicate_submissions,
            lost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub(id: u64, arrival: Ticks, work: u64) -> Submission {
        Submission {
            id,
            arrival,
            work,
            poison: false,
        }
    }

    fn quick_cfg(workers: usize) -> ServeConfig {
        let mut cfg = ServeConfig::new(workers);
        cfg.iters_per_unit = 1;
        cfg.backoff_base_ms = 0;
        cfg.backoff_cap_ms = 1;
        cfg
    }

    #[test]
    fn completes_everything_admitted() {
        let mut sup = Supervisor::new(quick_cfg(2)).expect("config valid");
        for id in 0..50u64 {
            assert!(matches!(
                sup.offer(sub(id, id * 10, 5)),
                Outcome::Admitted { .. }
            ));
        }
        let report = sup.finish();
        assert_eq!(report.admitted, 50);
        assert_eq!(report.completed, 50);
        assert_eq!(report.lost, 0);
        assert_eq!(report.shed, 0);
    }

    #[test]
    fn duplicate_ids_are_idempotent() {
        let mut sup = Supervisor::new(quick_cfg(1)).expect("config valid");
        assert!(matches!(sup.offer(sub(7, 0, 5)), Outcome::Admitted { .. }));
        assert_eq!(sup.offer(sub(7, 1, 5)), Outcome::Duplicate);
        let report = sup.finish();
        assert_eq!(report.completed, 1);
        assert_eq!(report.duplicate_submissions, 1);
    }

    #[test]
    fn invalid_fault_plan_is_rejected() {
        let mut cfg = quick_cfg(2);
        cfg.faults = vec![FaultSpec {
            worker: 5,
            after_orders: 1,
        }];
        match Supervisor::new(cfg) {
            Err(RuntimeError::InvalidFaultPlan(msg)) => {
                assert!(msg.contains("worker 5"), "{msg}")
            }
            other => panic!("expected InvalidFaultPlan, got {other:?}"),
        }
    }

    #[test]
    fn fault_spec_parsing() {
        assert_eq!(
            FaultSpec::parse_list("0:5, 2:9"),
            Ok(vec![
                FaultSpec {
                    worker: 0,
                    after_orders: 5
                },
                FaultSpec {
                    worker: 2,
                    after_orders: 9
                },
            ])
        );
        assert_eq!(FaultSpec::parse_list(""), Ok(vec![]));
        assert!(FaultSpec::parse_list("nope").is_err());
        assert!(FaultSpec::parse_list("1").is_err());
    }

    #[test]
    fn overload_sheds_but_stays_live() {
        let mut cfg = quick_cfg(2);
        cfg.capacity_slots = 1;
        cfg.queue_cap = 4;
        let mut sup = Supervisor::new(cfg).expect("config valid");
        // A burst far beyond the queue bound, all at t=0.
        for id in 0..100u64 {
            sup.offer(sub(id, 0, 50));
        }
        let report = sup.finish();
        assert!(report.shed > 0, "overload must shed");
        assert_eq!(report.admitted + report.shed, 100);
        assert_eq!(report.completed, report.admitted, "admitted jobs finish");
        assert_eq!(report.lost, 0);
    }

    #[test]
    fn slo_bounds_admitted_virtual_flow() {
        let mut cfg = quick_cfg(1);
        cfg.capacity_slots = 1;
        cfg.queue_cap = 1000;
        cfg.slo_ticks = Some(100);
        let mut sup = Supervisor::new(cfg).expect("config valid");
        for id in 0..50u64 {
            sup.offer(sub(id, 0, 30));
        }
        let report = sup.finish();
        assert!(report.rejected_slo > 0);
        // Every admitted flow obeys the SLO by construction: check the
        // merged histogram's max.
        let hist = report
            .merged
            .histograms
            .iter()
            .find(|h| h.name == "serve.virtual_flow_ticks")
            .expect("flow histogram present");
        assert!(hist.max <= 100.0, "max admitted flow {} > SLO", hist.max);
    }

    #[test]
    fn worker_death_recovers_exactly_once() {
        let mut cfg = quick_cfg(2);
        cfg.faults = vec![FaultSpec {
            worker: 0,
            after_orders: 3,
        }];
        let mut sup = Supervisor::new(cfg).expect("config valid");
        for id in 0..40u64 {
            sup.offer(sub(id, id, 10));
            sup.pump();
        }
        let report = sup.finish();
        assert_eq!(report.admitted, 40);
        assert_eq!(report.completed, 40, "deaths must not lose jobs");
        assert_eq!(report.lost, 0);
    }
}
