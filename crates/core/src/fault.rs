//! Deterministic, seeded fault injection shared by both execution engines.
//!
//! A [`FaultPlan`] describes *what goes wrong* on a machine — workers that
//! crash, run slow, stall, answer no steals, or execute tasks that panic —
//! in engine-neutral units so the same plan drives both the round-based
//! simulator (`crates/core::worksteal`) and the real threaded executor
//! (`crates/runtime`):
//!
//! * **time** is expressed in *rounds* (= one work unit = one tick =
//!   0.1 ms); the runtime converts rounds to wall-clock via its tick
//!   duration;
//! * **probabilities** are parts-per-million (`u32`), keeping the plan
//!   `Eq`/hashable and its sampling exactly reproducible from a seed;
//! * **worker indices** refer to the engine's worker array (`0..m`).
//!
//! Semantics in the simulator:
//!
//! * a [`crash`](FaultPlan::crash) at round `r` removes the worker from
//!   service at the *start* of round `r`; its deque is drained into the
//!   global FIFO orphan queue ("reinjection"), preserving claimed-node
//!   state, so surviving workers adopt the work without re-racing for it;
//! * a [`slowdown`](FaultPlan::slowdown) with factor `f < 1` lets the
//!   worker execute work only in a deterministic `f` fraction of rounds
//!   (credit accumulator — no randomness, no drift);
//! * a [`stall`](FaultPlan::stall) freezes the worker for a window
//!   `[from, from+duration)`: it keeps its deque but does nothing —
//!   exactly the paper's adversarial regime where the one loaded deque
//!   is unreachable (Lemma 5.1);
//! * a [`blackhole`](FaultPlan::blackhole) makes steal attempts *against*
//!   the worker always fail, without stopping its own execution;
//! * [`panic_ppm`](FaultPlan::with_panic_ppm) makes each executed task
//!   fail with that probability; in the simulator the job is marked
//!   [`Failed`](crate::JobStatus::Failed) and abandoned, in the runtime
//!   the chunk kernel genuinely `panic!`s and is caught.
//!
//! Every injected event is recorded as a [`FaultEvent`] on the run's
//! result, so experiments can correlate max-flow degradation with the
//! faults that caused it.

use crate::bits::BitWords;
use parflow_dag::NodeId;
use parflow_time::Round;
use std::collections::VecDeque;

/// One million — the denominator of all ppm probabilities and factors.
pub const PPM: u32 = 1_000_000;

/// A worker crash: permanent removal from service.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CrashFault {
    /// Worker index (`0..m`).
    pub worker: usize,
    /// Round at whose start the worker dies.
    pub at_round: u64,
}

/// A worker slowdown: the worker executes work in only a fraction of
/// rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SlowdownFault {
    /// Worker index (`0..m`).
    pub worker: usize,
    /// Execution rate in parts-per-million (e.g. `500_000` = half speed).
    /// `0` is a total freeze; values ≥ [`PPM`] are clamped to full speed.
    pub rate_ppm: u32,
}

/// A temporary worker stall (freeze window).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StallFault {
    /// Worker index (`0..m`).
    pub worker: usize,
    /// First stalled round.
    pub from_round: u64,
    /// Number of stalled rounds.
    pub duration: u64,
}

impl StallFault {
    /// True if `round` lies inside the stall window.
    pub fn covers(&self, round: u64) -> bool {
        round >= self.from_round && round - self.from_round < self.duration
    }

    /// True if the window reaches the end of time (`from + duration`
    /// saturates).
    fn is_endless(&self) -> bool {
        self.from_round.saturating_add(self.duration) == u64::MAX
    }
}

/// What faults to inject into a run. Empty by default; see the module
/// docs for per-fault semantics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Permanent worker crashes.
    pub crashes: Vec<CrashFault>,
    /// Per-worker slowdown rates.
    pub slowdowns: Vec<SlowdownFault>,
    /// Temporary worker freezes.
    pub stalls: Vec<StallFault>,
    /// Workers whose deques never yield to thieves.
    pub blackholes: Vec<usize>,
    /// Probability (ppm) that any executed task fails/panics.
    pub panic_ppm: u32,
}

impl FaultPlan {
    /// A plan injecting nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True if this plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.slowdowns.is_empty()
            && self.stalls.is_empty()
            && self.blackholes.is_empty()
            && self.panic_ppm == 0
    }

    /// Add a crash of `worker` at the start of `at_round`.
    pub fn crash(mut self, worker: usize, at_round: u64) -> Self {
        self.crashes.push(CrashFault { worker, at_round });
        self
    }

    /// Add a permanent slowdown of `worker` to `rate_ppm` parts-per-million
    /// of full speed.
    pub fn slowdown(mut self, worker: usize, rate_ppm: u32) -> Self {
        self.slowdowns.push(SlowdownFault { worker, rate_ppm });
        self
    }

    /// Add a stall of `worker` for `duration` rounds starting at
    /// `from_round`.
    pub fn stall(mut self, worker: usize, from_round: u64, duration: u64) -> Self {
        self.stalls.push(StallFault {
            worker,
            from_round,
            duration,
        });
        self
    }

    /// Make steals against `worker` always fail.
    pub fn blackhole(mut self, worker: usize) -> Self {
        self.blackholes.push(worker);
        self
    }

    /// Make every executed task fail with probability `ppm` / 1e6.
    pub fn with_panic_ppm(mut self, ppm: u32) -> Self {
        self.panic_ppm = ppm.min(PPM);
        self
    }

    /// The crash scheduled for `worker`, if any (earliest wins).
    pub fn crash_round_of(&self, worker: usize) -> Option<u64> {
        self.crashes
            .iter()
            .filter(|c| c.worker == worker)
            .map(|c| c.at_round)
            .min()
    }

    /// The slowdown rate of `worker` in ppm ([`PPM`] = full speed).
    pub fn rate_ppm_of(&self, worker: usize) -> u32 {
        self.slowdowns
            .iter()
            .filter(|s| s.worker == worker)
            .map(|s| s.rate_ppm)
            .min()
            .unwrap_or(PPM)
            .min(PPM)
    }

    /// True if `worker` is stalled during `round`.
    pub fn is_stalled(&self, worker: usize, round: u64) -> bool {
        self.stalls
            .iter()
            .any(|s| s.worker == worker && s.covers(round))
    }

    /// True if steals against `worker` are blackholed.
    pub fn is_blackhole(&self, worker: usize) -> bool {
        self.blackholes.contains(&worker)
    }

    /// Largest round at which this plan still changes behaviour (used by
    /// engines to bound quiescent fast-forwarding).
    pub fn last_scheduled_round(&self) -> Option<u64> {
        let crash = self.crashes.iter().map(|c| c.at_round).max();
        let stall = self
            .stalls
            .iter()
            .map(|s| s.from_round.saturating_add(s.duration))
            .max();
        crash.max(stall)
    }

    /// The plan the simulator runs on `m` workers: validated (an invalid
    /// plan panics, the documented contract of every simulator entry
    /// point), with each stall that reaches the end of time made a crash at
    /// its start — it cannot be waited out, and a node the worker held
    /// would never finish; as a crash its node and deque go to survivors.
    pub(crate) fn simulated(&self, m: usize) -> FaultPlan {
        if let Err(e) = self.validate(m) {
            panic!("invalid fault plan: {e}"); // lint: allow(panicking) documented contract: simulator entry points panic on invalid fault plans, validated before any stepping
        }
        let mut plan = self.clone();
        plan.stalls.retain(|s| !s.is_endless());
        for s in self.stalls.iter().filter(|s| s.is_endless()) {
            plan = plan.crash(s.worker, s.from_round);
        }
        plan
    }

    /// How a fault-free round cap `c` stretches under this plan on `m`
    /// workers, as `(factor, pad)` for `c · factor + pad` (saturating):
    /// in the worst case all work runs on the slowest worker that runs at
    /// all, and stalls and the plan's last round add dead rounds.
    pub(crate) fn cap_stretch(&self, m: usize) -> (u64, u64) {
        let slowest = (0..m).map(|p| self.rate_ppm_of(p)).filter(|&r| r > 0).min();
        let stalls = self.stalls.iter().map(|s| s.duration);
        let last = self.last_scheduled_round().unwrap_or(0);
        let pad = stalls.fold(last.saturating_add(64), u64::saturating_add);
        (u64::from(PPM.div_ceil(slowest.unwrap_or(PPM))), pad)
    }

    /// The first crash round or stall edge after `round`: the engines'
    /// jumps over time stop there.
    pub(crate) fn edge_after(&self, round: u64) -> Option<u64> {
        let crashes = self.crashes.iter().map(|c| c.at_round);
        let stall = |s: &StallFault| [s.from_round, s.from_round.saturating_add(s.duration)];
        let edges = crashes.chain(self.stalls.iter().flat_map(stall));
        edges.filter(|&e| e > round).min()
    }

    /// Check the plan against a machine of `m` workers: worker indices in
    /// range, probabilities sane, and at least one worker left standing.
    pub fn validate(&self, m: usize) -> Result<(), String> {
        let oob = |w: usize| format!("fault references worker {w}, but m = {m}");
        for c in &self.crashes {
            if c.worker >= m {
                return Err(oob(c.worker));
            }
        }
        for s in &self.slowdowns {
            if s.worker >= m {
                return Err(oob(s.worker));
            }
        }
        for s in &self.stalls {
            if s.worker >= m {
                return Err(oob(s.worker));
            }
            if s.duration == 0 {
                return Err(format!("stall of worker {} has zero duration", s.worker));
            }
        }
        for &w in &self.blackholes {
            if w >= m {
                return Err(oob(w));
            }
        }
        if self.panic_ppm > PPM {
            return Err(format!(
                "panic probability {} ppm exceeds {} (100%)",
                self.panic_ppm, PPM
            ));
        }
        let crashed: std::collections::BTreeSet<usize> =
            self.crashes.iter().map(|c| c.worker).collect();
        if !self.crashes.is_empty() && crashed.len() >= m {
            return Err(format!(
                "plan crashes all {m} workers; at least one must survive"
            ));
        }
        // Progress guarantee: at least one worker must be able to execute
        // work forever (not crashed, not frozen at rate 0, not stalled
        // until the end of time).
        let forever = |p: usize| self.stalls.iter().any(|s| s.worker == p && s.is_endless());
        let can_work =
            (0..m).any(|p| !crashed.contains(&p) && self.rate_ppm_of(p) > 0 && !forever(p));
        if !can_work {
            return Err(format!(
                "plan leaves no worker of {m} able to make progress \
                 (all crashed, slowed to rate 0 or stalled forever)"
            ));
        }
        Ok(())
    }
}

/// Deterministic per-round execution throttle implementing
/// [`SlowdownFault`]: a worker with rate `r` ppm accumulates `r` credits
/// per round and may execute work whenever it holds a full [`PPM`] —
/// exactly `⌊n·r/1e6⌋` working rounds in any window of `n`, no drift.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlowdownGate {
    rate_ppm: u32,
    credit: u64,
}

impl SlowdownGate {
    /// Gate for a worker running at `rate_ppm` parts-per-million.
    pub fn new(rate_ppm: u32) -> Self {
        SlowdownGate {
            rate_ppm: rate_ppm.min(PPM),
            credit: 0,
        }
    }

    /// Advance one round; true if the worker may execute this round.
    pub fn tick(&mut self) -> bool {
        self.credit += self.rate_ppm as u64;
        if self.credit >= PPM as u64 {
            self.credit -= PPM as u64;
            true
        } else {
            false
        }
    }

    /// True if this gate never blocks (full speed).
    pub fn is_full_speed(&self) -> bool {
        self.rate_ppm == PPM
    }
}

/// What kind of fault fired (for [`FaultEvent`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A worker crashed and left service.
    Crash,
    /// A crashed worker's deque was reinjected into the global queue.
    OrphanReinjection,
    /// A worker entered a stall window.
    StallBegin,
    /// A worker left a stall window.
    StallEnd,
    /// An executed task failed (injected panic).
    TaskPanic,
    /// The engine abandoned the run (watchdog deadline, all workers dead).
    Abort,
}

/// One fault that actually fired during a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Engine time (simulator round / runtime tick estimate) of the event.
    pub round: u64,
    /// Worker involved, if any.
    pub worker: Option<usize>,
    /// Job involved, if any.
    pub job: Option<u32>,
    /// What happened.
    pub kind: FaultKind,
    /// Free-form detail (e.g. number of reinjected tasks).
    pub detail: u64,
}

impl FaultEvent {
    /// Event `kind` of worker `p` in `round`.
    pub(crate) fn new(round: u64, p: usize, job: Option<u32>, kind: FaultKind, n: u64) -> Self {
        let (worker, detail) = (Some(p), n);
        FaultEvent {
            round,
            worker,
            job,
            kind,
            detail,
        }
    }
}

/// Terminal status of one job under fault injection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum JobStatus {
    /// Ran to completion.
    #[default]
    Completed,
    /// A task of this job panicked / was marked failed.
    Failed,
    /// The run ended (watchdog / crash exhaustion) before the job finished.
    Aborted,
}

impl JobStatus {
    /// True for [`JobStatus::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, JobStatus::Completed)
    }
}

/// Deterministic per-task panic sampler: a tiny SplitMix64 stream keyed by
/// `(seed, job, node)` so both engines agree on *which* tasks fail
/// regardless of scheduling order or thread interleaving.
#[derive(Clone, Copy, Debug)]
pub struct PanicSampler {
    seed: u64,
    ppm: u32,
}

impl PanicSampler {
    /// Sampler failing each task with probability `ppm`/1e6, keyed by
    /// `seed`.
    pub fn new(seed: u64, ppm: u32) -> Self {
        PanicSampler {
            seed,
            ppm: ppm.min(PPM),
        }
    }

    /// True if the task `(job, node)` should fail.
    pub fn should_panic(&self, job: u32, node: u32) -> bool {
        self.should_panic_seq(job, node as u64)
    }

    /// True if chunk `seq` of `job` should fail, keeping the sequence
    /// number's full 64-bit width.
    ///
    /// The runtime executor keys the sampler by a monotone per-job chunk
    /// counter; truncating it to `u32` (as an `as u32` cast at the call
    /// site used to) silently recycles panic decisions past 2³² chunks —
    /// the same defect family as the PR 3 `failed_steals` saturation bug.
    /// For `seq < 2³²` the stream is bit-identical to
    /// [`PanicSampler::should_panic`] (`job` occupies the high 32 bits,
    /// so XOR and OR agree while the halves are disjoint); beyond, the
    /// high bits mix instead of vanishing.
    pub fn should_panic_seq(&self, job: u32, seq: u64) -> bool {
        if self.ppm == 0 {
            return false;
        }
        let mut z = self
            .seed
            .wrapping_add(((job as u64) << 32) ^ seq)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z % PPM as u64) < self.ppm as u64
    }
}

/// A non-empty plan as the event-driven stepper (`crate::stream`) reads it,
/// plus the fault side of one run.
///
/// A worker's [`SlowdownGate`] ticks in every non-quiescent round in which
/// it is alive and not stalled, whatever it does, so its state is a pure
/// function of time: after `t` ticks it has opened `⌊t·rate/PPM⌋` times.
/// `ticks` holds that count at the start of round `settled`; the stepper
/// advances it once per loop iteration, which lets any later round's gate
/// be read, and a node's last round be computed, in closed form.
pub(crate) struct FaultState {
    pub(crate) sampler: PanicSampler,
    pub(crate) events: Vec<FaultEvent>,
    /// Tasks of crashed workers, adopted FIFO before any admit or steal.
    pub(crate) orphans: VecDeque<(u32, NodeId)>,
    pub(crate) alive: BitWords,
    /// Alive workers that act in the current explicit round: not stalled
    /// and, if slowed, with their gate open.
    pub(crate) act: BitWords,
    pub(crate) blackholed: BitWords,
    /// Holders of a just-panicked job after the panicking worker: idle
    /// now, they act later in the same round.
    pub(crate) revisit: BitWords,
    /// Where this round's per-worker events (stall edges, then panics, in
    /// worker order) begin in `events`.
    pub(crate) round_events: usize,
    /// The plan, as [`FaultPlan::simulated`].
    pub(crate) plan: FaultPlan,
    /// Merged `[from, end)` stall windows per worker.
    stalls: Vec<Vec<(Round, Round)>>,
    /// Workers that are slowed or ever stalled.
    faulty: Vec<usize>,
    ticks: Vec<u64>,
    rate: Vec<u64>,
    settled: Round,
    was_stalled: Vec<bool>,
}

impl FaultState {
    /// State for a run of `plan` (already [`FaultPlan::simulated`]) on `m`
    /// workers, victim seed `seed`.
    pub(crate) fn new(plan: FaultPlan, m: usize, seed: u64) -> Self {
        let mut stalls = vec![Vec::new(); m];
        for s in &plan.stalls {
            stalls[s.worker].push((s.from_round, s.from_round.saturating_add(s.duration)));
        }
        for w in &mut stalls {
            w.sort_unstable();
            // Merge overlapping windows (`b` follows the kept `a`).
            w.dedup_by(|b, a| {
                let merge = b.0 <= a.1;
                if merge {
                    a.1 = a.1.max(b.1);
                }
                merge
            });
        }
        let bits = |f: &dyn Fn(usize) -> bool| {
            let mut b = BitWords::default();
            b.reset(m);
            (0..m).filter(|&p| f(p)).for_each(|p| b.set(p));
            b
        };
        FaultState {
            sampler: PanicSampler::new(seed, plan.panic_ppm),
            events: Vec::new(),
            orphans: VecDeque::new(),
            alive: bits(&|_| true),
            act: bits(&|_| true),
            blackholed: bits(&|p| plan.is_blackhole(p)),
            revisit: bits(&|_| false),
            round_events: 0,
            faulty: (0..m)
                .filter(|&p| plan.rate_ppm_of(p) < PPM || !stalls[p].is_empty())
                .collect(),
            rate: (0..m).map(|p| u64::from(plan.rate_ppm_of(p))).collect(),
            plan,
            stalls,
            ticks: vec![0; m],
            settled: 0,
            was_stalled: vec![false; m],
        }
    }

    /// The next alive worker whose crash round has come by `round`.
    pub(crate) fn crash_due(&self, round: Round) -> Option<usize> {
        let due = self.plan.crashes.iter().filter(|c| c.at_round <= round);
        due.map(|c| c.worker).filter(|&p| self.alive.get(p)).min()
    }

    /// Start non-quiescent round `round`: open its per-worker event
    /// section, emit the stall edges crossed since the last such round —
    /// only these rounds see them, so a stall wholly inside a quiescent gap
    /// emits nothing — and mark the workers that act in it.
    pub(crate) fn begin_round(&mut self, round: Round) {
        self.round_events = self.events.len();
        self.act.copy_from(&self.alive);
        for i in 0..self.faulty.len() {
            let p = self.faulty[i];
            let stalled = self.free(p, round, round + 1) == 0;
            if self.alive.get(p) && stalled != self.was_stalled[p] {
                self.was_stalled[p] = stalled;
                let kind = [FaultKind::StallEnd, FaultKind::StallBegin][usize::from(stalled)];
                self.events.push(FaultEvent::new(round, p, None, kind, 0));
            }
            if self.nth_exec(p, round, 1) != round {
                self.act.clear(p);
            }
        }
    }

    /// Account rounds `[round, next)`. In a non-quiescent span every alive
    /// worker that is stalled or whose gate stays shut in one of them
    /// loses it (`lost`), and the gates tick; nothing ticks in a
    /// quiescent gap.
    pub(crate) fn advance(&mut self, round: Round, next: Round, quiet: bool, lost: &mut u64) {
        for &p in self.faulty.iter().filter(|_| !quiet) {
            if self.alive.get(p) {
                *lost += (next - round) - self.exec_rounds(p, round, next);
                self.ticks[p] += self.free(p, round, next);
            }
        }
        self.settled = next;
    }

    /// Rounds of `[a, b)` in which worker `p` is not stalled.
    fn free(&self, p: usize, a: Round, b: Round) -> u64 {
        let overlap = |&(s, e): &(Round, Round)| e.min(b).saturating_sub(s.max(a));
        b.saturating_sub(a) - self.stalls[p].iter().map(overlap).sum::<u64>()
    }

    /// Rounds of `[a, b)` (`a` ≥ the current round) in which alive worker
    /// `p` executes: its gate openings over its unstalled rounds.
    pub(crate) fn exec_rounds(&self, p: usize, a: Round, b: Round) -> u64 {
        let t = u128::from(self.ticks[p] + self.free(p, self.settled, a));
        let opens = |t: u128| t * u128::from(self.rate[p]) / u128::from(PPM);
        // At most `b - a`, so the cast is exact.
        (opens(t + u128::from(self.free(p, a, b))) - opens(t)) as u64
    }

    /// The round of worker `p`'s `n`-th (≥ 1) execution at or after round
    /// `a` (≥ the current round); `Round::MAX` if it never comes.
    pub(crate) fn nth_exec(&self, p: usize, a: Round, n: u64) -> Round {
        let (rate, ppm) = (u128::from(self.rate[p]), u128::from(PPM));
        if rate == 0 {
            return Round::MAX;
        }
        // The tick that brings the opening count to `n` more than at `a`.
        let t = u128::from(self.ticks[p] + self.free(p, self.settled, a));
        let ticks = ((t * rate / ppm + u128::from(n)) * ppm).div_ceil(rate) - t;
        let (mut left, mut cur) = (u64::try_from(ticks).unwrap_or(u64::MAX), a);
        for &(s, e) in self.stalls[p].iter().filter(|w| w.1 > a) {
            if s > cur && s - cur >= left {
                break;
            }
            left -= s.saturating_sub(cur);
            cur = e.max(cur);
        }
        cur.saturating_add(left - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates() {
        let plan = FaultPlan::none()
            .crash(3, 1000)
            .slowdown(2, 500_000)
            .stall(1, 50, 10)
            .blackhole(0)
            .with_panic_ppm(10_000);
        assert!(!plan.is_empty());
        assert_eq!(plan.crash_round_of(3), Some(1000));
        assert_eq!(plan.crash_round_of(0), None);
        assert_eq!(plan.rate_ppm_of(2), 500_000);
        assert_eq!(plan.rate_ppm_of(3), PPM);
        assert!(plan.is_stalled(1, 50));
        assert!(plan.is_stalled(1, 59));
        assert!(!plan.is_stalled(1, 60));
        assert!(!plan.is_stalled(1, 49));
        assert!(plan.is_blackhole(0));
        assert!(!plan.is_blackhole(1));
        assert_eq!(plan.panic_ppm, 10_000);
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::none().is_empty());
        assert!(FaultPlan::default().is_empty());
        assert_eq!(FaultPlan::none().last_scheduled_round(), None);
    }

    #[test]
    fn last_scheduled_round_covers_crashes_and_stalls() {
        let plan = FaultPlan::none().crash(0, 100).stall(1, 400, 50);
        assert_eq!(plan.last_scheduled_round(), Some(450));
        let plan = FaultPlan::none().crash(0, 1000).stall(1, 400, 50);
        assert_eq!(plan.last_scheduled_round(), Some(1000));
    }

    #[test]
    fn validate_rejects_out_of_range_workers() {
        assert!(FaultPlan::none().crash(4, 10).validate(4).is_err());
        assert!(FaultPlan::none().slowdown(9, 1).validate(4).is_err());
        assert!(FaultPlan::none().stall(4, 0, 5).validate(4).is_err());
        assert!(FaultPlan::none().blackhole(7).validate(4).is_err());
        assert!(FaultPlan::none().crash(3, 10).validate(4).is_ok());
    }

    #[test]
    fn validate_rejects_crashing_everyone() {
        let plan = FaultPlan::none().crash(0, 1).crash(1, 2);
        assert!(plan.validate(2).is_err());
        assert!(plan.validate(3).is_ok());
    }

    #[test]
    fn validate_rejects_zero_duration_stall() {
        assert!(FaultPlan::none().stall(0, 5, 0).validate(2).is_err());
    }

    #[test]
    fn slowdown_gate_exact_rate() {
        // Half speed: exactly n/2 working rounds in any prefix of length n.
        let mut g = SlowdownGate::new(500_000);
        let worked: u32 = (0..1000).map(|_| g.tick() as u32).sum();
        assert_eq!(worked, 500);

        // One third, over a window not divisible by 3.
        let mut g = SlowdownGate::new(333_333);
        let worked: u32 = (0..1000).map(|_| g.tick() as u32).sum();
        assert_eq!(worked, 333);

        // Full speed never blocks; zero never works.
        let mut full = SlowdownGate::new(PPM);
        let mut dead = SlowdownGate::new(0);
        for _ in 0..100 {
            assert!(full.tick());
            assert!(!dead.tick());
        }
    }

    #[test]
    fn panic_sampler_deterministic_and_calibrated() {
        let s = PanicSampler::new(42, 100_000); // 10%
        let t = PanicSampler::new(42, 100_000);
        let mut fails = 0u32;
        for job in 0..100u32 {
            for node in 0..100u32 {
                assert_eq!(s.should_panic(job, node), t.should_panic(job, node));
                fails += s.should_panic(job, node) as u32;
            }
        }
        // 10% ± generous slack over 10k samples.
        assert!((800..1200).contains(&fails), "got {fails} failures");
        // Different seeds give different streams.
        let u = PanicSampler::new(43, 100_000);
        let diff = (0..1000u32)
            .filter(|&n| s.should_panic(0, n) != u.should_panic(0, n))
            .count();
        assert!(diff > 0);
        // Zero probability never fires even with a seed.
        let z = PanicSampler::new(42, 0);
        assert!((0..1000u32).all(|n| !z.should_panic(0, n)));
    }

    #[test]
    fn panic_sampler_seq_keeps_full_width() {
        // Regression for the truncating `seq as u32` call site in the
        // runtime executor (the failed_steals u32-saturation family):
        // below 2^32 the wide key reproduces the narrow stream exactly...
        let s = PanicSampler::new(42, 100_000);
        for job in [0u32, 1, 7] {
            for seq in (0..2000u64).chain([u32::MAX as u64 - 1, u32::MAX as u64]) {
                assert_eq!(
                    s.should_panic_seq(job, seq),
                    s.should_panic(job, seq as u32),
                    "job {job} seq {seq}"
                );
            }
        }
        // ...while past 2^32 the high bits must matter: a truncating key
        // would recycle the sub-2^32 decisions verbatim.
        let wrapped = (0..4096u64)
            .filter(|&k| s.should_panic_seq(0, (1u64 << 32) + k) != s.should_panic(0, k as u32))
            .count();
        assert!(wrapped > 0, "seq high bits were discarded");
    }

    #[test]
    fn job_status_helpers() {
        assert!(JobStatus::Completed.is_completed());
        assert!(!JobStatus::Failed.is_completed());
        assert!(!JobStatus::Aborted.is_completed());
        assert_eq!(JobStatus::default(), JobStatus::Completed);
    }
}
