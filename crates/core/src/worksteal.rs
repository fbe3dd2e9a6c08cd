//! The multiprogrammed work-stealing scheduler of Section 4.
//!
//! Model (faithful to the paper):
//!
//! * every worker owns a deque; it pushes newly enabled nodes on the bottom
//!   and pops from the bottom; thieves steal from the top;
//! * a global FIFO queue holds jobs that have arrived but were not yet
//!   admitted; admitting pops the head;
//! * a steal attempt takes one unit time step (one round); the victim is
//!   chosen uniformly at random among the other workers;
//! * **admit-first** (`k = 0`): a worker with an empty deque admits from the
//!   global queue whenever it is non-empty, and steals only otherwise;
//! * **steal-k-first**: a worker with an empty deque first makes steal
//!   attempts and admits only after `k` consecutive failures (and only if
//!   the global queue is non-empty).
//!
//! Admission itself is free (the admitting worker immediately executes the
//! job's first node), matching the TBB implementation where popping the
//! global queue costs no more than popping a deque. The cost of steal
//! attempts is configurable via [`crate::StealCost`]: in the theory model
//! each attempt consumes the worker's whole round (what Theorem 4.1's
//! `(k+1+ε)` speed pays for); in the systems model attempts are
//! instantaneous, matching the paper's TBB experiments where a steal is
//! ~10⁴× cheaper than a 0.1 ms work unit.
//!
//! Rounds are atomic time steps: nodes enabled during round `r` are pushed
//! to the owner's deque only at the end of `r`, so they can first be
//! executed or stolen in round `r+1`. Workers act in index order within a
//! round; steals observe the victims' deques as already modified by
//! lower-indexed workers in the same round (modelling racy concurrency
//! deterministically).
//!
//! **One loop, one reference.** This file holds the policy types, the
//! shared victim-sampling helpers and the entry points. Every run, whatever
//! its fault plan, goes to the event-driven stepper in `crate::stream`
//! (only idle and completing workers act; uneventful spans are jumped;
//! faults are jump events and worker masks), which replays the instance as
//! a stream. The *per-round* loop — every worker acts in every round, busy
//! workers execute one unit at a time, the fault machinery (crashes,
//! stalls, slowdowns, blackholes, injected panics) hooks in round by round
//! — compiles only under the `reference-engine` feature, as
//! `run_worksteal_reference`: the independent implementation the
//! differential suites hold the stepper to, bit for bit (schedule, RNG
//! stream position, stats, fault events, samples, trace and obs report).

use crate::config::{SimConfig, VictimStrategy};
use crate::result::{EngineStats, SimResult};
use crate::stream::{collect_replay, step_worksteal, WsBuffers};
use crate::trace::ScheduleTrace;
use parflow_dag::Instance;
use parflow_obs::{NullRecorder, Recorder};
use rand::rngs::SmallRng;
use rand::RngCore;

/// Admission policy of the work-stealing scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StealPolicy {
    /// Admit from the global queue whenever the local deque is empty and
    /// the queue is non-empty; steal only when the queue is empty.
    /// This is steal-k-first with `k = 0` (Corollary 4.3).
    AdmitFirst,
    /// Try random steals first; admit only after `k` consecutive failed
    /// attempts (Theorem 4.1). The paper's experiments use `k = 16`.
    StealKFirst {
        /// Number of consecutive failed steals required before admitting.
        k: u32,
    },
}

impl StealPolicy {
    /// The `k` parameter (0 for admit-first).
    pub fn k(&self) -> u32 {
        match *self {
            StealPolicy::AdmitFirst => 0,
            StealPolicy::StealKFirst { k } => k,
        }
    }

    /// Human-readable name.
    pub fn name(&self) -> String {
        match *self {
            StealPolicy::AdmitFirst => "admit-first".to_string(),
            StealPolicy::StealKFirst { k } => format!("steal-{k}-first"),
        }
    }
}

/// `admit-first` | `admit` | `steal-<k>-first` | `steal:<k>`,
/// ASCII-case-insensitive; `k = 0` is [`StealPolicy::AdmitFirst`]
/// (Corollary 4.3). The only place a policy name from outside is split.
impl std::str::FromStr for StealPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let lower = s.to_ascii_lowercase();
        let k = match lower.as_str() {
            "admit-first" | "admit" => Some(0),
            name => name
                .strip_prefix("steal:")
                .or_else(|| name.strip_prefix("steal-")?.strip_suffix("-first"))
                .and_then(|k| k.parse::<u32>().ok()),
        };
        match k {
            Some(0) => Ok(StealPolicy::AdmitFirst),
            Some(k) => Ok(StealPolicy::StealKFirst { k }),
            None => Err(format!(
                "unknown policy `{s}` (want admit-first|steal-<k>-first, or admit|steal:<k>)"
            )),
        }
    }
}

/// Per-worker telemetry, maintained only when a [`Recorder`] is enabled
/// and flushed as `ws.worker.*` counters at the end of the run. Kept out
/// of [`EngineStats`] (which goldens bit-compare) and out of `Worker`
/// (which the hot loop touches) so the disabled path stays byte-identical
/// and allocation-free.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct WorkerObs {
    /// Work units executed by this worker.
    pub(crate) work_steps: u64,
    /// Steal attempts charged to this worker (excludes quiescent gaps,
    /// mirroring `EngineStats::steal_attempts`).
    pub(crate) steal_attempts: u64,
    /// Successful steals.
    pub(crate) successful_steals: u64,
    /// Rounds this worker spent on failed steals (unit-cost model) or
    /// quiescent fast-forwarded rounds.
    pub(crate) failed_steal_rounds: u64,
    /// Jobs admitted from the global queue by this worker.
    pub(crate) admissions: u64,
    /// Idle rounds (free-steal model and quiescent gaps).
    pub(crate) idle_steps: u64,
    /// Largest consecutive failed-steal streak ever observed — the value
    /// the `failed_steals` u32→u64 widening makes exact.
    pub(crate) max_failed_streak: u64,
}

/// Choose the victim of one steal attempt by worker `p` of `m ≥ 2`:
/// uniformly at random among the others (the paper's model) or by a
/// deterministic cyclic scan through `scan_next`.
#[inline]
pub(crate) fn pick_victim(
    p: usize,
    m: usize,
    rng: &mut SmallRng,
    strategy: VictimStrategy,
    scan_next: &mut usize,
) -> usize {
    match strategy {
        VictimStrategy::Uniform => {
            let mut v = gen_uniform_below(rng, m - 1);
            if v >= p {
                v += 1;
            }
            v
        }
        VictimStrategy::RoundRobinScan => {
            let mut v = *scan_next % m;
            if v == p {
                v = (v + 1) % m;
            }
            *scan_next = (v + 1) % m;
            v
        }
    }
}

/// `rng.gen_range(0..bound)` for `usize`, inlined.
///
/// Replays rand 0.8.5's `sample_single` Lemire rejection loop bit-for-bit
/// (`range = bound`, `zone = (range << range.leading_zeros()) - 1`, accept a
/// draw `v` iff the low 64 bits of `v * range` are ≤ zone, result = high 64
/// bits). `gen_range` itself is an opaque cross-crate call on the hot steal
/// path; this keeps the identical RNG stream at a fraction of the cost.
#[inline]
pub(crate) fn gen_uniform_below(rng: &mut SmallRng, bound: usize) -> usize {
    debug_assert!(bound >= 1);
    let range = bound as u64;
    let zone = (range << range.leading_zeros()).wrapping_sub(1);
    loop {
        let v = rng.next_u64();
        let t = (v as u128) * (range as u128);
        if (t as u64) <= zone {
            return (t >> 64) as usize;
        }
    }
}

/// Consume exactly the RNG draws that `count` uniform victim selections
/// (`gen_range(0..m-1)`) would consume, without computing victims.
///
/// Replays rand 0.8.5's Lemire rejection loop draw-for-draw: each accepted
/// sample is one attempt, rejected samples re-draw, so the stream position
/// afterwards is bit-identical to `count` calls through `steal_into`.
/// Callers must have established that every one of these attempts fails
/// (nothing is stealable), making the victim index itself irrelevant.
#[inline]
pub(crate) fn burn_uniform_draws(rng: &mut SmallRng, m: usize, count: u64) {
    if m <= 1 || count == 0 {
        return;
    }
    let range = (m - 1) as u64;
    let zone = (range << range.leading_zeros()).wrapping_sub(1);
    // Phase 1: a fixed-trip-count loop the compiler can unroll and
    // software-pipeline (the data-dependent `while` form defeats both).
    // Draws are consumed in stream order either way, so splitting the
    // rejection fixup into phase 2 leaves the stream position identical:
    // every rejected draw (probability ≈ range/2⁶⁴ per draw) still costs
    // exactly one extra accepted draw.
    let mut shortfall = 0u64;
    for _ in 0..count {
        let v = rng.next_u64();
        shortfall += (v.wrapping_mul(range) > zone) as u64;
    }
    while shortfall > 0 {
        let v = rng.next_u64();
        shortfall -= (v.wrapping_mul(range) <= zone) as u64;
    }
}

/// Advance the round-robin scan cursor of worker `p` by `count` failed
/// attempts without touching the deques.
///
/// One application maps `s` to `s+1 (mod m)` except from `p`, which jumps
/// to `p+2`: after the first application the state lives on a single cycle
/// of length `m-1` (every residue except `p+1`), so the remaining count is
/// reduced modulo that cycle instead of iterated.
#[inline]
pub(crate) fn advance_scan(start: usize, p: usize, m: usize, count: u64) -> usize {
    debug_assert!(m >= 2);
    let step = |s: usize| -> usize {
        let mut v = s % m;
        if v == p {
            v = (v + 1) % m;
        }
        (v + 1) % m
    };
    if count == 0 {
        return start;
    }
    let mut s = step(start);
    let mut rem = (count - 1) % (m as u64 - 1);
    while rem > 0 {
        s = step(s);
        rem -= 1;
    }
    s
}

/// Consume the per-attempt state (RNG stream or scan cursor) of `count`
/// steal attempts by worker `p` that are known to fail. A no-op for
/// `m <= 1`, mirroring a steal attempt's early return.
#[inline]
pub(crate) fn burn_failed_attempts(
    rng: &mut SmallRng,
    scan_next: &mut usize,
    p: usize,
    m: usize,
    strategy: VictimStrategy,
    count: u64,
) {
    if m <= 1 {
        return;
    }
    match strategy {
        VictimStrategy::Uniform => burn_uniform_draws(rng, m, count),
        VictimStrategy::RoundRobinScan => *scan_next = advance_scan(*scan_next, p, m, count),
    }
}

/// Simulate work stealing with the given `policy` on `instance`.
///
/// `seed` drives victim selection; runs are bit-reproducible for a given
/// `(instance, config, policy, seed)`.
pub fn run_worksteal(
    instance: &Instance,
    config: &SimConfig,
    policy: StealPolicy,
    seed: u64,
) -> (SimResult, Option<ScheduleTrace>) {
    run_worksteal_observed(instance, config, policy, seed, &mut NullRecorder)
}

/// [`run_worksteal`] with a [`Recorder`] attached. With the recorder
/// disabled (`rec.enabled() == false`) the run is bit-identical to
/// `run_worksteal`: the RNG stream, `SimResult` and trace do not change.
/// With it enabled, per-worker `ws.worker.*` counters (work steps, steal
/// attempts/successes, failed-steal rounds, admissions, idle rounds, max
/// failed-steal streak), engine-level `ws.*` counters mirroring
/// [`EngineStats`], a `ws.total_rounds` gauge and per-job `ws.flow_ticks`
/// samples are emitted at the end of the run.
///
/// Every fault plan runs on the event-driven stepper (`crate::stream`,
/// replaying the instance as a stream).
pub fn run_worksteal_observed(
    instance: &Instance,
    config: &SimConfig,
    policy: StealPolicy,
    seed: u64,
    rec: &mut dyn Recorder,
) -> (SimResult, Option<ScheduleTrace>) {
    run_reported(
        instance,
        config,
        policy,
        seed,
        rec,
        &mut WsBuffers::default(),
    )
}

/// [`run_worksteal_observed`] on the per-round loop: every worker acts in
/// every round and busy workers execute one unit at a time. The
/// independent implementation the differential suites compare the
/// event-driven stepper against, for every fault plan.
#[cfg(feature = "reference-engine")]
pub fn run_worksteal_reference(
    instance: &Instance,
    config: &SimConfig,
    policy: StealPolicy,
    seed: u64,
    rec: &mut dyn Recorder,
) -> (SimResult, Option<ScheduleTrace>) {
    let (result, trace) = reference::run_per_round(instance, config, policy, seed, rec);
    report_tail(rec, &result);
    (result, trace)
}

/// The materialized engine: the stepper over a replay of `instance` on
/// `buf` (`crate::run_batched` passes one value for all its replicas),
/// outcomes collected back into job order, and the obs report — without
/// the streaming entry points' `ws.stream.*` retirement counters.
pub(crate) fn run_reported(
    instance: &Instance,
    config: &SimConfig,
    policy: StealPolicy,
    seed: u64,
    rec: &mut dyn Recorder,
    buf: &mut WsBuffers,
) -> (SimResult, Option<ScheduleTrace>) {
    let obs = rec.enabled();
    let (result, trace, wobs) = collect_replay(instance, |puller, sink| {
        step_worksteal(puller, config, policy, seed, sink, obs, buf)
    });
    if obs {
        emit_ws_counters(rec, &wobs, &result.stats);
    }
    report_tail(rec, &result);
    (result, trace)
}

/// The materialized runs' part of the obs report beyond [`emit_ws_counters`].
fn report_tail(rec: &mut dyn Recorder, result: &SimResult) {
    if rec.enabled() {
        rec.counter("ws.faulted_steps", result.stats.faulted_steps);
        rec.counter("ws.crashed_workers", result.stats.crashed_workers);
        rec.counter("ws.reinjected_tasks", result.stats.reinjected_tasks);
        rec.counter("ws.injected_panics", result.stats.injected_panics);
        rec.gauge("ws.total_rounds", result.total_rounds as f64);
        for o in &result.outcomes {
            rec.sample("ws.flow_ticks", o.flow.to_f64());
        }
    }
}

/// Emit the per-worker `ws.worker.*` counters and the engine-level `ws.*`
/// counters every work-stealing entry point reports.
pub(crate) fn emit_ws_counters(rec: &mut dyn Recorder, wobs: &[WorkerObs], stats: &EngineStats) {
    for (p, o) in wobs.iter().enumerate() {
        rec.counter_at("ws.worker.work_steps", p, o.work_steps);
        rec.counter_at("ws.worker.steal_attempts", p, o.steal_attempts);
        rec.counter_at("ws.worker.successful_steals", p, o.successful_steals);
        rec.counter_at("ws.worker.failed_steal_rounds", p, o.failed_steal_rounds);
        rec.counter_at("ws.worker.admissions", p, o.admissions);
        rec.counter_at("ws.worker.idle_steps", p, o.idle_steps);
        rec.counter_at("ws.worker.max_failed_streak", p, o.max_failed_streak);
    }
    rec.counter("ws.work_steps", stats.work_steps);
    rec.counter("ws.steal_attempts", stats.steal_attempts);
    rec.counter("ws.successful_steals", stats.successful_steals);
    rec.counter("ws.admissions", stats.admissions);
    rec.counter("ws.idle_steps", stats.idle_steps);
}

/// Convenience wrapper returning only the [`SimResult`].
pub fn simulate_worksteal(
    instance: &Instance,
    config: &SimConfig,
    policy: StealPolicy,
    seed: u64,
) -> SimResult {
    run_worksteal(instance, config, policy, seed).0
}

/// The per-round loop and its helpers: the independent implementation
/// the differential suites hold the stepper to, compiled only for them.
#[cfg(feature = "reference-engine")]
mod reference {
    use super::{emit_ws_counters, pick_victim, StealPolicy, WorkerObs};
    use crate::config::{AdmissionOrder, SimConfig, StealAmount, StealCost, VictimStrategy};
    use crate::fault::{FaultEvent, FaultKind, JobStatus, PanicSampler, SlowdownGate};
    use crate::result::{BacklogSample, EngineStats, JobOutcome, SimResult};
    use crate::trace::{Action, ScheduleTrace};
    use parflow_dag::{CursorArena, CursorId, Instance, JobId, NodeId, StepOutcome};
    use parflow_obs::Recorder;
    use parflow_time::Round;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::VecDeque;

    /// One worker's private state in the per-round loop.
    #[derive(Clone, Debug)]
    struct Worker {
        /// The node currently being executed across rounds, if any.
        current: Option<(JobId, NodeId)>,
        /// The deque: back = bottom (owner side), front = top (thief side).
        deque: VecDeque<(JobId, NodeId)>,
        /// Nodes enabled during the current round, flushed to `deque` at round end.
        pending: Vec<(JobId, NodeId)>,
        /// Consecutive failed steal attempts since the last success/work.
        /// `u64` so quiescent fast-forwards count every skipped round exactly;
        /// the old `u32` silently saturated past ~4.3e9 rounds.
        failed_steals: u64,
        /// Next victim index for the round-robin scan strategy.
        scan_next: usize,
    }

    impl Worker {
        /// `index` staggers the round-robin scan start so thieves probe
        /// distinct victims each round instead of sweeping in lockstep.
        fn new(index: usize) -> Self {
            Worker {
                current: None,
                deque: VecDeque::new(),
                pending: Vec::new(),
                failed_steals: 0,
                scan_next: index + 1,
            }
        }
    }

    /// One steal attempt by worker `p` (victim per [`pick_victim`]). On
    /// success moves the victim's top task into `workers[p].current`, plus
    /// — under [`StealAmount::Half`] — the rest of the top half of the
    /// victim's deque onto the thief's deque.
    #[inline]
    fn steal_into(
        p: usize,
        workers: &mut [Worker],
        rng: &mut SmallRng,
        strategy: VictimStrategy,
        amount: StealAmount,
        blackholed: &[bool],
    ) -> bool {
        let m = workers.len();
        if m <= 1 {
            return false;
        }
        let victim = pick_victim(p, m, rng, strategy, &mut workers[p].scan_next);
        // A blackholed victim consumes the attempt but never yields work.
        if blackholed[victim] {
            return false;
        }
        if let Some(task) = workers[victim].deque.pop_front() {
            workers[p].current = Some(task);
            if amount == StealAmount::Half {
                // Transfer the remainder of the victim's top half (the first
                // task became `current`). ceil(len_before/2) − 1 extra tasks.
                let extra = (workers[victim].deque.len() + 1).div_ceil(2) - 1;
                for _ in 0..extra {
                    let t = workers[victim].deque.pop_front().expect("len checked"); // lint: allow(panicking) emptiness checked immediately above; pop cannot fail
                    workers[p].deque.push_back(t);
                }
            }
            true
        } else {
            false
        }
    }

    /// The round-by-round work-stealing loop with the full fault machinery.
    /// Emits [`emit_ws_counters`]' part of the obs report; the caller adds the
    /// rest.
    pub(super) fn run_per_round(
        instance: &Instance,
        config: &SimConfig,
        policy: StealPolicy,
        seed: u64,
        rec: &mut dyn Recorder,
    ) -> (SimResult, Option<ScheduleTrace>) {
        let jobs = instance.jobs();
        let n = jobs.len();
        let m = config.m;
        let speed = config.speed;
        let k = policy.k();
        let faults = &config.faults.simulated(m);
        let mut rng = SmallRng::seed_from_u64(seed);

        let mut workers: Vec<Worker> = (0..m).map(Worker::new).collect();
        // Cursor state lives in a recycled arena (slot allocated at admission,
        // released at completion/failure): slot count and buffer capacity are
        // bounded by peak live jobs, so steady state allocates nothing per job.
        let mut arena = CursorArena::new();
        let mut cursor_ids: Vec<Option<CursorId>> = vec![None; n];
        let mut outcomes: Vec<Option<JobOutcome>> = vec![None; n];
        let mut started: Vec<Option<Round>> = vec![None; n];
        let mut global_queue: VecDeque<JobId> = VecDeque::new();
        let mut stats = EngineStats::default();
        let mut trace = config.record_trace.then(|| ScheduleTrace::new(m, speed));
        let mut samples: Vec<BacklogSample> = Vec::new();

        // Hoisted once: with the NullRecorder every `if obs` below is a dead
        // branch and `wobs` stays empty (no allocation).
        let obs = rec.enabled();
        let mut wobs: Vec<WorkerObs> = if obs {
            vec![WorkerObs::default(); m]
        } else {
            Vec::new()
        };

        // Fault machinery. Orphaned tasks from crashed workers go into a
        // global FIFO of their own: claimed-node state lives in the job's
        // cursor, so an adopting worker resumes exactly where the dead one
        // stopped without re-racing for the nodes.
        let mut fault_events: Vec<FaultEvent> = Vec::new();
        let mut orphans: VecDeque<(JobId, NodeId)> = VecDeque::new();
        let mut alive: Vec<bool> = vec![true; m];
        let mut was_stalled: Vec<bool> = vec![false; m];
        let mut gates: Vec<SlowdownGate> = (0..m)
            .map(|p| SlowdownGate::new(faults.rate_ppm_of(p)))
            .collect();
        let blackholed: Vec<bool> = (0..m).map(|p| faults.is_blackhole(p)).collect();
        let sampler = PanicSampler::new(seed, faults.panic_ppm);

        let mut next_arrival = 0usize;
        // Jobs that reached a terminal state (completed or failed).
        let mut completed = 0usize;
        // Jobs admitted but not yet terminal.
        let mut live_admitted = 0usize;
        let mut round: Round = 0;
        let mut last_busy_round: Round = 0;

        // Rounds with admitted live work always execute ≥ 1 unit; rounds with
        // only queued jobs admit within ≤ k+1 rounds; quiescent gaps are
        // skipped. Anything past this cap is an engine bug.
        let mut safety_cap: Round = speed
            .first_round_at_or_after(instance.last_arrival())
            .saturating_add(instance.total_work())
            .saturating_add((k as Round + 2).saturating_mul(n as Round + m as Round))
            .saturating_add(64);
        if !faults.is_empty() {
            let (factor, pad) = faults.cap_stretch(m);
            safety_cap = safety_cap.saturating_mul(factor).saturating_add(pad);
        }

        // Scratch buffers hoisted out of the hot loop.
        let mut ready_scratch: Vec<NodeId> = Vec::new();
        let mut sources_scratch: Vec<NodeId> = Vec::new();

        while completed < n {
            assert!(
                round <= safety_cap,
                "work-stealing engine exceeded round cap"
            );

            // Crash pre-pass: workers whose crash round has come die at the
            // start of the round; their current task and deque are reinjected
            // into the global orphan FIFO for survivors to adopt.
            for p in 0..m {
                if alive[p] && faults.crash_round_of(p).is_some_and(|cr| cr <= round) {
                    alive[p] = false;
                    stats.crashed_workers += 1;
                    fault_events.push(FaultEvent::new(round, p, None, FaultKind::Crash, 0));
                    let mut reinjected = 0u64;
                    if let Some(task) = workers[p].current.take() {
                        orphans.push_back(task);
                        reinjected += 1;
                    }
                    while let Some(task) = workers[p].deque.pop_front() {
                        orphans.push_back(task);
                        reinjected += 1;
                    }
                    if reinjected > 0 {
                        stats.reinjected_tasks += reinjected;
                        let kind = FaultKind::OrphanReinjection;
                        fault_events.push(FaultEvent::new(round, p, None, kind, reinjected));
                    }
                }
            }

            // Release arrivals into the global FIFO queue.
            while next_arrival < n && speed.arrived_by_round(jobs[next_arrival].arrival, round) {
                global_queue.push_back(jobs[next_arrival].id);
                next_arrival += 1;
            }

            if config.sample_every > 0 && round.is_multiple_of(config.sample_every) {
                samples.push(BacklogSample {
                    round,
                    queued: global_queue.len(),
                    live: live_admitted,
                    deque_tasks: workers.iter().map(|w| w.deque.len()).sum::<usize>()
                        + orphans.len(),
                });
            }

            // Quiescent fast-forward: nothing admitted is live and nothing is
            // queued — skip to the next arrival. The skipped rounds would be
            // failed steal attempts; count every one of them (the counter is
            // `u64`, so no clamping — the old `u32` version saturated here).
            // Fault boundaries clamp the jump so crash/stall transitions still
            // fire at their scheduled rounds.
            if live_admitted == 0 && global_queue.is_empty() && orphans.is_empty() {
                debug_assert!(next_arrival < n, "deadlock: nothing live, nothing queued");
                let mut target = speed.first_round_at_or_after(jobs[next_arrival].arrival);
                if let Some(boundary) = faults.edge_after(round) {
                    target = target.min(boundary);
                }
                debug_assert!(target > round, "fast-forward must move time forward");
                let gap = target - round;
                stats.idle_steps += gap * alive.iter().filter(|&&a| a).count() as u64;
                for (p, w) in workers.iter_mut().enumerate() {
                    if alive[p] {
                        w.failed_steals = w.failed_steals.saturating_add(gap);
                        if obs {
                            let o = &mut wobs[p];
                            o.failed_steal_rounds += gap;
                            o.idle_steps += gap;
                            o.max_failed_streak = o.max_failed_streak.max(w.failed_steals);
                        }
                    }
                }
                // Backlog samples falling inside the skipped span are still
                // emitted (the backlog is empty by construction — nothing is
                // live, queued or orphaned during a quiescent gap), so sampled
                // series stay evenly spaced across gaps.
                if config.sample_every > 0 {
                    let se = config.sample_every;
                    let mut s = (round / se + 1) * se;
                    while s < target {
                        samples.push(BacklogSample {
                            round: s,
                            queued: 0,
                            live: 0,
                            deque_tasks: 0,
                        });
                        s += se;
                    }
                }
                if let Some(t) = trace.as_mut() {
                    t.push_idle_rounds(gap);
                }
                round = target;
                continue;
            }

            let mut row: Vec<Action> = Vec::with_capacity(if config.record_trace { m } else { 0 });
            for p in 0..m {
                // 0. Fault gates: dead workers do nothing; stalled workers
                // freeze (their deques stay stealable); slowed workers only
                // act in the rounds their credit gate opens.
                if !alive[p] {
                    if config.record_trace {
                        row.push(Action::Idle);
                    }
                    continue;
                }
                let stalled = faults.is_stalled(p, round);
                if stalled != was_stalled[p] {
                    was_stalled[p] = stalled;
                    let kind = if stalled {
                        FaultKind::StallBegin
                    } else {
                        FaultKind::StallEnd
                    };
                    fault_events.push(FaultEvent::new(round, p, None, kind, 0));
                }
                if stalled {
                    stats.faulted_steps += 1;
                    if config.record_trace {
                        row.push(Action::Idle);
                    }
                    continue;
                }
                if !gates[p].is_full_speed() && !gates[p].tick() {
                    stats.faulted_steps += 1;
                    if config.record_trace {
                        row.push(Action::Idle);
                    }
                    continue;
                }

                // 1. Acquire work if idle: own deque → orphan FIFO →
                //    (policy) admit/steal. Adopting an orphaned task is free,
                //    like popping the own deque: the task was already claimed
                //    by the crashed worker, no coordination is needed.
                if workers[p].current.is_none() {
                    if let Some(task) = workers[p].deque.pop_back() {
                        workers[p].current = Some(task);
                    }
                }
                if workers[p].current.is_none() {
                    if let Some(task) = orphans.pop_front() {
                        workers[p].current = Some(task);
                        workers[p].failed_steals = 0;
                    }
                }
                if workers[p].current.is_none() {
                    // Admit the next queued job on `p`, if any: the admitting
                    // worker immediately holds the job's last source node.
                    let mut admit = |workers: &mut [Worker],
                                     stats: &mut EngineStats,
                                     wobs: &mut [WorkerObs]|
                     -> bool {
                        // Pop the front (FIFO) or the largest-weight queued
                        // job (distributed BWF; ties go to the earlier
                        // arrival, i.e. the smaller id).
                        let jid = match config.admission {
                            AdmissionOrder::Fifo => global_queue.pop_front(),
                            AdmissionOrder::ByWeight => {
                                let key = |&(_, &j): &(usize, &JobId)| {
                                    (jobs[j as usize].weight, std::cmp::Reverse(j))
                                };
                                let best = global_queue.iter().enumerate().max_by_key(key);
                                let best = best.map(|(i, _)| i);
                                best.and_then(|i| global_queue.remove(i))
                            }
                        };
                        let Some(jid) = jid else {
                            return false;
                        };
                        // Create its cursor, push all source nodes onto the
                        // worker's deque and take the last one as current.
                        let id = arena.alloc(&jobs[jid as usize].dag);
                        cursor_ids[jid as usize] = Some(id);
                        let cursor = arena.get_mut(id);
                        sources_scratch.clear();
                        sources_scratch.extend_from_slice(cursor.ready_nodes());
                        let w = &mut workers[p];
                        for &s in sources_scratch.iter() {
                            cursor.claim(s).expect("source ready"); // lint: allow(panicking) invariant: freshly materialized source nodes are unclaimed
                            w.deque.push_back((jid, s));
                        }
                        (w.current, w.failed_steals) = (w.deque.pop_back(), 0);
                        started[jid as usize] = Some(round);
                        live_admitted += 1;
                        stats.admissions += 1;
                        if obs {
                            wobs[p].admissions += 1;
                        }
                        true
                    };
                    // Up to `attempts` steal attempts, stopping at the first hit.
                    let mut try_steals = |workers: &mut [Worker],
                                          stats: &mut EngineStats,
                                          wobs: &mut [WorkerObs],
                                          attempts: u64|
                     -> bool {
                        for _ in 0..attempts {
                            stats.steal_attempts += 1;
                            if obs {
                                wobs[p].steal_attempts += 1;
                            }
                            if steal_into(
                                p,
                                workers,
                                &mut rng,
                                config.victim,
                                config.steal_amount,
                                &blackholed,
                            ) {
                                stats.successful_steals += 1;
                                if obs {
                                    wobs[p].successful_steals += 1;
                                }
                                return true;
                            }
                        }
                        false
                    };
                    match config.steal_cost {
                        StealCost::UnitStep => {
                            let admitted = workers[p].failed_steals >= k as u64
                                && admit(&mut workers, &mut stats, &mut wobs);
                            if !admitted {
                                // Steal attempt: one full round; the stolen node
                                // (if any) starts executing next round.
                                let hit = try_steals(&mut workers, &mut stats, &mut wobs, 1);
                                if hit {
                                    workers[p].failed_steals = 0;
                                } else {
                                    workers[p].failed_steals =
                                        workers[p].failed_steals.saturating_add(1);
                                    if obs {
                                        let o = &mut wobs[p];
                                        o.failed_steal_rounds += 1;
                                        o.max_failed_streak =
                                            o.max_failed_streak.max(workers[p].failed_steals);
                                    }
                                }
                                if config.record_trace {
                                    row.push(Action::Steal { hit });
                                }
                                continue;
                            }
                        }
                        StealCost::Free => {
                            // Instantaneous acquisition: steal attempts cost
                            // nothing; only executing work (or finding none)
                            // consumes the round. `k = 0` is admit-first: admit
                            // if anything is queued, else scan 2m victims.
                            if k == 0 {
                                if !admit(&mut workers, &mut stats, &mut wobs) {
                                    try_steals(&mut workers, &mut stats, &mut wobs, 2 * m as u64);
                                }
                            } else if !try_steals(&mut workers, &mut stats, &mut wobs, k as u64) {
                                admit(&mut workers, &mut stats, &mut wobs);
                            }
                            if workers[p].current.is_none() {
                                stats.idle_steps += 1;
                                if obs {
                                    wobs[p].idle_steps += 1;
                                }
                                if config.record_trace {
                                    row.push(Action::Idle);
                                }
                                continue;
                            }
                        }
                    }
                }

                // 2. Execute one unit of the current node.
                let (jid, v) = workers[p].current.expect("acquired work above"); // lint: allow(panicking) set on the acquisition path immediately above
                let job = &jobs[jid as usize];
                let cid = cursor_ids[jid as usize].expect("admitted job"); // lint: allow(panicking) invariant: every admitted job owns an arena cursor until completion
                let cursor = arena.get_mut(cid);
                stats.work_steps += 1;
                if obs {
                    wobs[p].work_steps += 1;
                }
                workers[p].failed_steals = 0;
                ready_scratch.clear();
                match cursor
                .execute_unit_into(&job.dag, v, &mut ready_scratch)
                .expect("current node claimed") // lint: allow(panicking) invariant: executed nodes were claimed by this cursor
            {
                StepOutcome::InProgress => {}
                StepOutcome::NodeCompleted { job_completed } => {
                    workers[p].current = None;
                    let failed = sampler.should_panic(jid, v);
                    if failed {
                        // Injected task panic: the job fails and is
                        // abandoned. Purge its tasks everywhere so no
                        // worker touches the dead job again.
                        stats.injected_panics += 1;
                        let kind = FaultKind::TaskPanic;
                        fault_events.push(FaultEvent::new(round, p, Some(jid), kind, v.into()));
                        for w in workers.iter_mut() {
                            w.deque.retain(|t| t.0 != jid);
                            w.pending.retain(|t| t.0 != jid);
                            if w.current.is_some_and(|t| t.0 == jid) {
                                w.current = None;
                            }
                        }
                        orphans.retain(|t| t.0 != jid);
                    } else {
                        // Claim enabled nodes now (they are exclusively
                        // ours) but defer deque publication to the end of
                        // the round.
                        let cursor = arena.get_mut(cid);
                        for &u in ready_scratch.iter() {
                            cursor.claim(u).expect("newly ready claimable"); // lint: allow(panicking) invariant: nodes entering the ready set are unclaimed
                            workers[p].pending.push((jid, u));
                        }
                    }
                    if failed || job_completed {
                        arena.release(cursor_ids[jid as usize].take().expect("cursor id")); // lint: allow(panicking) invariant: completion releases exactly the cursor admission installed
                        live_admitted -= 1;
                        completed += 1;
                        outcomes[jid as usize] = Some(JobOutcome {
                            job: jid,
                            arrival: job.arrival,
                            weight: job.weight,
                            start_round: started[jid as usize].expect("job admitted"), // lint: allow(panicking) invariant: start_round is recorded at admission, before execution
                            completion_round: round,
                            flow: speed.flow_time(job.arrival, round),
                            status: [JobStatus::Completed, JobStatus::Failed][usize::from(failed)],
                        });
                    }
                }
            }
                if config.record_trace {
                    row.push(Action::Work { job: jid, node: v });
                }
            }

            // Flush deferred pushes (bottom of the owner's deque, enable order).
            for w in &mut workers {
                for task in w.pending.drain(..) {
                    w.deque.push_back(task);
                }
            }

            last_busy_round = round;
            if let Some(t) = trace.as_mut() {
                t.push_row(&row, 1);
            }
            round += 1;
        }

        let outcomes: Vec<JobOutcome> = outcomes
            .into_iter()
            .map(|o| o.expect("all jobs completed")) // lint: allow(panicking) invariant: the engine loop exits only after every job completes
            .collect();
        if obs {
            emit_ws_counters(rec, &wobs, &stats);
        }
        let result = SimResult {
            m,
            speed,
            total_rounds: last_busy_round + 1,
            outcomes,
            stats,
            samples,
            fault_events,
        };
        (result, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parflow_dag::{shapes, Job};
    use parflow_time::{Rational, Speed};
    use std::sync::Arc;

    fn inst_seq(arrivals_works: &[(u64, u64)]) -> Instance {
        Instance::new(
            arrivals_works
                .iter()
                .enumerate()
                .map(|(i, &(a, w))| Job::new(i as u32, a, Arc::new(shapes::single_node(w))))
                .collect(),
        )
    }

    #[test]
    fn policy_names_and_k() {
        assert_eq!(StealPolicy::AdmitFirst.name(), "admit-first");
        assert_eq!(StealPolicy::StealKFirst { k: 16 }.name(), "steal-16-first");
        assert_eq!(StealPolicy::AdmitFirst.k(), 0);
        assert_eq!(StealPolicy::StealKFirst { k: 4 }.k(), 4);
    }

    #[test]
    fn policy_spellings_parse_to_one_value() {
        let steal4 = StealPolicy::StealKFirst { k: 4 };
        for (s, want) in [
            ("admit-first", StealPolicy::AdmitFirst),
            ("admit", StealPolicy::AdmitFirst),
            ("steal-0-first", StealPolicy::AdmitFirst),
            ("steal:0", StealPolicy::AdmitFirst),
            ("steal-4-first", steal4),
            ("steal:4", steal4),
            ("Steal-4-First", steal4),
        ] {
            assert_eq!(s.parse::<StealPolicy>(), Ok(want), "{s}");
            assert_eq!(want.name().parse::<StealPolicy>(), Ok(want));
        }
        for bad in [
            "",
            "fifo",
            "steal",
            "steal-4",
            "steal-x-first",
            "steal:",
            "steal:-1",
            "warp-first",
        ] {
            assert!(bad.parse::<StealPolicy>().is_err(), "{bad}");
        }
    }

    #[test]
    fn single_sequential_job_no_overhead() {
        // One job, one worker: admitted at round 0, executed back to back.
        let inst = inst_seq(&[(0, 7)]);
        let r = simulate_worksteal(&inst, &SimConfig::new(1), StealPolicy::AdmitFirst, 1);
        assert_eq!(r.max_flow(), Rational::from_int(7));
        assert_eq!(r.stats.work_steps, 7);
        assert_eq!(r.stats.admissions, 1);
        assert_eq!(r.stats.steal_attempts, 0);
    }

    #[test]
    fn admit_first_runs_jobs_sequentially_when_queue_full() {
        // 4 unit jobs, 2 workers, all arrive at 0: each worker admits one,
        // then the next; flows 1,1,2,2 in some assignment.
        let inst = inst_seq(&[(0, 1), (0, 1), (0, 1), (0, 1)]);
        let r = simulate_worksteal(&inst, &SimConfig::new(2), StealPolicy::AdmitFirst, 7);
        assert_eq!(r.max_flow(), Rational::from_int(2));
        assert_eq!(r.stats.admissions, 4);
        assert_eq!(r.stats.work_steps, 4);
    }

    #[test]
    fn steal_k_first_delays_admission() {
        // 2 unit jobs, 2 workers, k=3: with nothing to steal, workers burn 3
        // failed steal rounds before admitting.
        let inst = inst_seq(&[(0, 1), (0, 1)]);
        let r = simulate_worksteal(
            &inst,
            &SimConfig::new(2),
            StealPolicy::StealKFirst { k: 3 },
            7,
        );
        // Jobs complete in round 3 (after 3 steal rounds), flow 4 each.
        assert_eq!(r.max_flow(), Rational::from_int(4));
        assert_eq!(r.stats.steal_attempts, 6);
        assert_eq!(r.stats.admissions, 2);
    }

    #[test]
    fn counter_accumulates_over_quiescence() {
        // Second job arrives after a long quiescent gap: the fast-forward
        // counts every skipped round as a failed steal (formerly saturating
        // at u32::MAX), so the job is admitted immediately on arrival.
        let inst = inst_seq(&[(0, 1), (1000, 1)]);
        let r = simulate_worksteal(
            &inst,
            &SimConfig::new(2),
            StealPolicy::StealKFirst { k: 16 },
            3,
        );
        assert_eq!(r.outcomes[1].flow, Rational::from_int(1));
    }

    #[test]
    fn quiescent_gap_past_u32_max_counts_exactly() {
        // Regression for the u32 saturation bug: a quiescent gap longer
        // than u32::MAX rounds must be counted exactly. The old `u32`
        // counter clamped `gap` to u32::MAX; only the obs layer can see
        // the difference, because admission merely compares `>= k`.
        let gap = u32::MAX as u64 + 70;
        let inst = inst_seq(&[(0, 1), (gap, 1)]);
        let mut rec = parflow_obs::AggregatingRecorder::new();
        let (r, _) = run_worksteal_observed(
            &inst,
            &SimConfig::new(2),
            StealPolicy::StealKFirst { k: 16 },
            3,
            &mut rec,
        );
        // Scheduling behaviour is unchanged by the widening.
        assert_eq!(r.outcomes[1].flow, Rational::from_int(1));
        // The max failed-steal streak exceeds what a u32 could represent:
        // some worker idled through (almost) the whole gap.
        let streak = (0..2)
            .map(|p| rec.counter_value("ws.worker.max_failed_streak", Some(p)))
            .max()
            .unwrap();
        assert!(
            streak > u32::MAX as u64,
            "streak {streak} still fits in u32 — counter saturated?"
        );
        // Quiescent rounds are idle, not steal attempts: per-worker
        // attempt counters must agree with the engine aggregate.
        let sum: u64 = (0..2)
            .map(|p| rec.counter_value("ws.worker.steal_attempts", Some(p)))
            .sum();
        assert_eq!(sum, r.stats.steal_attempts);
    }

    #[test]
    fn observed_run_matches_unobserved_and_totals_add_up() {
        // An enabled recorder must not perturb the simulation, and the
        // per-worker counters must partition the engine-level totals.
        let dag = Arc::new(shapes::diamond(6, 3));
        let jobs: Vec<Job> = (0..12)
            .map(|i| Job::new(i, (i as u64) * 2, dag.clone()))
            .collect();
        let inst = Instance::new(jobs);
        let cfg = SimConfig::new(4);
        let policy = StealPolicy::StealKFirst { k: 2 };
        let plain = simulate_worksteal(&inst, &cfg, policy, 42);
        let mut rec = parflow_obs::AggregatingRecorder::new();
        let (observed, _) = run_worksteal_observed(&inst, &cfg, policy, 42, &mut rec);
        assert_eq!(plain.outcomes, observed.outcomes);
        assert_eq!(plain.stats, observed.stats);
        let m = cfg.m;
        let sum = |name: &str| -> u64 { (0..m).map(|p| rec.counter_value(name, Some(p))).sum() };
        assert_eq!(sum("ws.worker.work_steps"), observed.stats.work_steps);
        assert_eq!(
            sum("ws.worker.steal_attempts"),
            observed.stats.steal_attempts
        );
        assert_eq!(
            sum("ws.worker.successful_steals"),
            observed.stats.successful_steals
        );
        assert_eq!(sum("ws.worker.admissions"), observed.stats.admissions);
        assert_eq!(
            rec.counter_value("ws.work_steps", None),
            observed.stats.work_steps
        );
        assert_eq!(
            rec.gauge_value("ws.total_rounds", None),
            Some(observed.total_rounds as f64)
        );
        assert_eq!(rec.samples("ws.flow_ticks").len(), observed.outcomes.len());
    }

    #[test]
    fn parallel_job_gets_stolen() {
        // A wide diamond on 4 workers: thieves should pick up the middles.
        let dag = Arc::new(shapes::diamond(8, 4));
        let inst = Instance::new(vec![Job::new(0, 0, dag)]);
        let r = simulate_worksteal(&inst, &SimConfig::new(4), StealPolicy::AdmitFirst, 11);
        assert!(r.stats.successful_steals > 0, "expected successful steals");
        // Flow must beat fully sequential execution (8*4+2 = 34 work):
        // even with steal overhead, 4 workers finish far sooner.
        assert!(r.max_flow() < Rational::from_int(34));
        // And cannot beat span (2 + 4 = 6... source + chunk + sink = 1+4+1).
        assert!(r.max_flow() >= Rational::from_int((1 + 4 + 1) as i128));
        assert_eq!(r.stats.work_steps, 34);
    }

    #[test]
    fn deterministic_for_seed() {
        let dag = Arc::new(shapes::diamond(6, 3));
        let jobs: Vec<Job> = (0..10)
            .map(|i| Job::new(i, (i as u64) * 3, dag.clone()))
            .collect();
        let inst = Instance::new(jobs);
        let cfg = SimConfig::new(4);
        let policy = StealPolicy::StealKFirst { k: 2 };
        let a = simulate_worksteal(&inst, &cfg, policy, 99);
        let b = simulate_worksteal(&inst, &cfg, policy, 99);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn different_seeds_can_differ() {
        let dag = Arc::new(shapes::diamond(16, 2));
        let jobs: Vec<Job> = (0..20)
            .map(|i| Job::new(i, i as u64, dag.clone()))
            .collect();
        let inst = Instance::new(jobs);
        let cfg = SimConfig::new(8);
        let policy = StealPolicy::StealKFirst { k: 4 };
        let a = simulate_worksteal(&inst, &cfg, policy, 1);
        let b = simulate_worksteal(&inst, &cfg, policy, 2);
        // Work conservation regardless of randomness.
        assert_eq!(a.stats.work_steps, b.stats.work_steps);
        assert_eq!(a.stats.work_steps, inst.total_work());
    }

    #[test]
    fn trace_validates_admit_first() {
        let dag = Arc::new(shapes::diamond(4, 2));
        let jobs: Vec<Job> = (0..8)
            .map(|i| Job::new(i, i as u64 * 2, dag.clone()))
            .collect();
        let inst = Instance::new(jobs);
        let (r, trace) = run_worksteal(
            &inst,
            &SimConfig::new(3).with_trace(),
            StealPolicy::AdmitFirst,
            5,
        );
        let trace = trace.unwrap();
        assert!(trace.validate(&inst).is_ok());
        let (w, s, _) = trace.action_counts();
        assert_eq!(w, r.stats.work_steps);
        assert_eq!(s, r.stats.steal_attempts);
    }

    #[test]
    fn trace_validates_steal_k_first_augmented() {
        let dag = Arc::new(shapes::fork_join(3, 2));
        let jobs: Vec<Job> = (0..6)
            .map(|i| Job::new(i, i as u64 * 5, dag.clone()))
            .collect();
        let inst = Instance::new(jobs);
        let (_, trace) = run_worksteal(
            &inst,
            &SimConfig::new(4)
                .with_speed(Speed::new(11, 10))
                .with_trace(),
            StealPolicy::StealKFirst { k: 4 },
            5,
        );
        assert!(trace.unwrap().validate(&inst).is_ok());
    }

    #[test]
    fn one_worker_steals_fail() {
        // m = 1: steal attempts always fail; steal-k-first still admits
        // after k failures.
        let inst = inst_seq(&[(0, 2)]);
        let r = simulate_worksteal(
            &inst,
            &SimConfig::new(1),
            StealPolicy::StealKFirst { k: 2 },
            0,
        );
        assert_eq!(r.stats.steal_attempts, 2);
        assert_eq!(r.stats.successful_steals, 0);
        assert_eq!(r.max_flow(), Rational::from_int(4)); // 2 steals + 2 work
    }

    #[test]
    fn work_conservation() {
        let dag = Arc::new(shapes::fork_join(4, 3));
        let jobs: Vec<Job> = (0..12)
            .map(|i| Job::new(i, i as u64 * 7, dag.clone()))
            .collect();
        let inst = Instance::new(jobs);
        for policy in [
            StealPolicy::AdmitFirst,
            StealPolicy::StealKFirst { k: 1 },
            StealPolicy::StealKFirst { k: 16 },
        ] {
            let r = simulate_worksteal(&inst, &SimConfig::new(4), policy, 42);
            assert_eq!(r.stats.work_steps, inst.total_work(), "{}", policy.name());
            assert_eq!(r.outcomes.len(), inst.len());
        }
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(vec![]);
        let r = simulate_worksteal(&inst, &SimConfig::new(2), StealPolicy::AdmitFirst, 0);
        assert!(r.outcomes.is_empty());
    }

    #[test]
    fn sampling_collects_backlog_snapshots() {
        let dag = Arc::new(shapes::parallel_for(40, 8));
        let jobs: Vec<Job> = (0..30)
            .map(|i| Job::new(i, i as u64, dag.clone()))
            .collect();
        let inst = Instance::new(jobs);
        let cfg = SimConfig::new(2).with_sampling(5);
        let r = simulate_worksteal(&inst, &cfg, StealPolicy::AdmitFirst, 3);
        assert!(!r.samples.is_empty());
        // Sampled rounds are multiples of the interval and increasing.
        let mut prev = None;
        for s in &r.samples {
            assert_eq!(s.round % 5, 0);
            if let Some(p) = prev {
                assert!(s.round > p);
            }
            prev = Some(s.round);
        }
        // Without sampling, no samples.
        let r2 = simulate_worksteal(&inst, &SimConfig::new(2), StealPolicy::AdmitFirst, 3);
        assert!(r2.samples.is_empty());
    }

    #[test]
    fn sampling_covers_quiescent_gaps() {
        // Two jobs separated by a long gap: sample_every multiples inside
        // the fast-forwarded span must still be emitted (with an empty
        // backlog) so sampled series stay evenly spaced across gaps.
        let inst = inst_seq(&[(0, 3), (1000, 3)]);
        let cfg = SimConfig::new(2).with_sampling(100);
        let r = simulate_worksteal(&inst, &cfg, StealPolicy::AdmitFirst, 3);
        let rounds: Vec<u64> = r.samples.iter().map(|s| s.round).collect();
        for k in 0..=10u64 {
            assert!(rounds.contains(&(k * 100)), "missing sample at {}", k * 100);
        }
        let gap = r
            .samples
            .iter()
            .find(|s| s.round == 500)
            .expect("gap sample");
        assert_eq!((gap.queued, gap.live, gap.deque_tasks), (0, 0, 0));
    }

    #[test]
    fn traced_and_untraced_runs_agree() {
        // The untraced run jumps uneventful spans and skips locked-out idle
        // workers; the traced run keeps every round explicit. Results must
        // be identical either way: same outcomes, stats, samples and RNG
        // consumption.
        let dag = Arc::new(shapes::diamond(6, 3));
        let mut jobs: Vec<Job> = (0..12)
            .map(|i| Job::new(i, (i as u64) * 7, dag.clone()))
            .collect();
        // A long sequential tail after a gap exercises wide windows.
        jobs.push(Job::new(12, 300, Arc::new(shapes::single_node(40))));
        let inst = Instance::new(jobs);
        for cfg in [
            SimConfig::new(3),
            SimConfig::new(3).with_free_steals(),
            SimConfig::new(3).with_victim_scan(),
            SimConfig::new(3).with_sampling(7),
            SimConfig::new(1),
        ] {
            for policy in [StealPolicy::AdmitFirst, StealPolicy::StealKFirst { k: 3 }] {
                let fast = simulate_worksteal(&inst, &cfg, policy, 42);
                let (slow, trace) = run_worksteal(&inst, &cfg.clone().with_trace(), policy, 42);
                assert_eq!(fast.outcomes, slow.outcomes, "{}", policy.name());
                assert_eq!(fast.stats, slow.stats, "{}", policy.name());
                assert_eq!(fast.samples, slow.samples, "{}", policy.name());
                assert_eq!(fast.total_rounds, slow.total_rounds, "{}", policy.name());
                trace.unwrap().validate(&inst).unwrap();
            }
        }
    }

    #[test]
    fn free_steals_admit_without_delay() {
        // With free steals, steal-k-first admits in the same round once
        // nothing is stealable: 2 unit jobs on 2 workers finish in round 0.
        let inst = inst_seq(&[(0, 1), (0, 1)]);
        let cfg = SimConfig::new(2).with_free_steals();
        let r = simulate_worksteal(&inst, &cfg, StealPolicy::StealKFirst { k: 16 }, 7);
        assert_eq!(r.max_flow(), Rational::ONE);
        assert_eq!(r.stats.admissions, 2);
        // Steal attempts happened (k per worker) but cost nothing.
        assert!(r.stats.steal_attempts > 0);
    }

    #[test]
    fn free_steals_prefer_existing_jobs() {
        // One wide job admitted plus queued jobs: under steal-k-first with
        // free steals, idle workers help the admitted job instead of
        // admitting, so the wide job finishes near its span.
        let wide = Job::new(0, 0, Arc::new(shapes::diamond(8, 4)));
        let seq: Vec<Job> = (1..4)
            .map(|i| Job::new(i, 0, Arc::new(shapes::single_node(4))))
            .collect();
        let mut jobs = vec![wide];
        jobs.extend(seq);
        let inst = Instance::new(jobs);
        let cfg = SimConfig::new(4).with_free_steals();
        let r = simulate_worksteal(&inst, &cfg, StealPolicy::StealKFirst { k: 32 }, 3);
        assert_eq!(r.stats.work_steps, inst.total_work());
        assert!(r.stats.successful_steals > 0);
    }

    #[test]
    fn free_steal_trace_validates() {
        let dag = Arc::new(shapes::fork_join(3, 2));
        let jobs: Vec<Job> = (0..6)
            .map(|i| Job::new(i, i as u64 * 4, dag.clone()))
            .collect();
        let inst = Instance::new(jobs);
        for policy in [StealPolicy::AdmitFirst, StealPolicy::StealKFirst { k: 8 }] {
            let (r, trace) = run_worksteal(
                &inst,
                &SimConfig::new(3).with_free_steals().with_trace(),
                policy,
                9,
            );
            let trace = trace.unwrap();
            assert!(trace.validate(&inst).is_ok(), "{}", policy.name());
            let (w, s, _) = trace.action_counts();
            assert_eq!(w, r.stats.work_steps);
            // Free steals never appear as round actions.
            assert_eq!(s, 0);
        }
    }

    #[test]
    fn weighted_admission_pops_heaviest() {
        // Three jobs queued at once on one worker: weighted admission runs
        // the heaviest first regardless of arrival order.
        let jobs = vec![
            Job::weighted(0, 0, 1, Arc::new(shapes::single_node(3))),
            Job::weighted(1, 0, 100, Arc::new(shapes::single_node(3))),
            Job::weighted(2, 0, 10, Arc::new(shapes::single_node(3))),
        ];
        let inst = Instance::new(jobs);
        let cfg = SimConfig::new(1).with_weighted_admission();
        let r = simulate_worksteal(&inst, &cfg, StealPolicy::AdmitFirst, 3);
        // Heaviest (job 1) completes first, then 10, then 1.
        let by_completion = |jid: u32| r.outcomes[jid as usize].completion_round;
        assert!(by_completion(1) < by_completion(2));
        assert!(by_completion(2) < by_completion(0));
        // FIFO admission would run arrival order instead.
        let r2 = simulate_worksteal(&inst, &SimConfig::new(1), StealPolicy::AdmitFirst, 3);
        let by_completion2 = |jid: u32| r2.outcomes[jid as usize].completion_round;
        assert!(by_completion2(0) < by_completion2(1));
    }

    #[test]
    fn weighted_admission_trace_validates() {
        let mut jobs = Vec::new();
        for i in 0..10u32 {
            jobs.push(Job::weighted(
                i,
                i as u64 * 3,
                1 + (i as u64 * 7) % 13,
                Arc::new(shapes::diamond(3, 2)),
            ));
        }
        let inst = Instance::new(jobs);
        let cfg = SimConfig::new(3).with_weighted_admission().with_trace();
        let (r, trace) = run_worksteal(&inst, &cfg, StealPolicy::StealKFirst { k: 2 }, 11);
        assert!(trace.unwrap().validate(&inst).is_ok());
        assert_eq!(r.stats.work_steps, inst.total_work());
    }

    #[test]
    fn half_steals_transfer_multiple_tasks() {
        // One wide job whose chunks pile up in the owner's deque; a
        // half-steal should move several at once.
        let dag = Arc::new(shapes::diamond(16, 8));
        let inst = Instance::new(vec![Job::new(0, 0, dag)]);
        let cfg = SimConfig::new(4).with_half_steals();
        let (r, trace) = run_worksteal(&inst, &cfg.with_trace(), StealPolicy::AdmitFirst, 3);
        assert!(trace.unwrap().validate(&inst).is_ok());
        assert_eq!(r.stats.work_steps, inst.total_work());
        assert!(r.stats.successful_steals > 0);
    }

    #[test]
    fn half_steals_spread_work_faster() {
        // Distributing 32 chunks by single steals takes ≥ 31 successful
        // steals; half-stealing needs O(log) — fewer steal successes for
        // the same schedule length or a shorter flow.
        let dag = Arc::new(shapes::diamond(32, 16));
        let inst = Instance::new(vec![Job::new(0, 0, dag)]);
        let one = simulate_worksteal(&inst, &SimConfig::new(8), StealPolicy::AdmitFirst, 9);
        let half = simulate_worksteal(
            &inst,
            &SimConfig::new(8).with_half_steals(),
            StealPolicy::AdmitFirst,
            9,
        );
        assert!(
            half.max_flow() <= one.max_flow(),
            "half {} vs one {}",
            half.max_flow().to_f64(),
            one.max_flow().to_f64()
        );
    }

    #[test]
    fn crash_reinjects_orphans_and_work_completes() {
        use crate::fault::{FaultKind, FaultPlan};
        // One wide job spread over 4 workers; worker 1 dies mid-run. Its
        // deque must be reinjected and every unit still executed.
        let dag = Arc::new(shapes::diamond(24, 2));
        let inst = Instance::new(vec![Job::new(0, 0, dag)]);
        let cfg = SimConfig::new(4).with_faults(FaultPlan::none().crash(1, 3));
        let r = simulate_worksteal(&inst, &cfg, StealPolicy::AdmitFirst, 11);
        assert!(r.all_completed());
        assert_eq!(r.stats.work_steps, inst.total_work());
        assert_eq!(r.stats.crashed_workers, 1);
        assert!(r
            .fault_events
            .iter()
            .any(|e| e.kind == FaultKind::Crash && e.worker == Some(1) && e.round == 3));
        // If the dead worker held tasks, a reinjection event follows.
        let reinjected: u64 = r
            .fault_events
            .iter()
            .filter(|e| e.kind == FaultKind::OrphanReinjection)
            .map(|e| e.detail)
            .sum();
        assert_eq!(reinjected, r.stats.reinjected_tasks);
    }

    #[test]
    fn crash_before_start_leaves_worker_out() {
        use crate::fault::FaultPlan;
        // Worker 0 dead from round 0: the other worker does everything.
        let inst = inst_seq(&[(0, 3), (0, 3)]);
        let cfg = SimConfig::new(2).with_faults(FaultPlan::none().crash(0, 0));
        let r = simulate_worksteal(&inst, &cfg, StealPolicy::AdmitFirst, 5);
        assert!(r.all_completed());
        assert_eq!(r.stats.work_steps, 6);
        // Serial execution on the survivor: last job waits for the first.
        assert_eq!(r.max_flow(), Rational::from_int(6));
    }

    #[test]
    fn injected_panic_fails_job_without_hanging() {
        use crate::fault::{FaultPlan, PPM};
        // 100% panic probability: every job fails at its first node
        // completion; the run still terminates and accounts every job.
        let inst = inst_seq(&[(0, 5), (2, 5), (4, 5)]);
        let cfg = SimConfig::new(2).with_faults(FaultPlan::none().with_panic_ppm(PPM));
        let r = simulate_worksteal(&inst, &cfg, StealPolicy::AdmitFirst, 9);
        assert_eq!(r.outcomes.len(), 3);
        assert!(!r.all_completed());
        assert_eq!(r.unfinished().len(), 3);
        assert_eq!(r.stats.injected_panics, 3);
    }

    #[test]
    fn partial_panic_fails_some_jobs_only() {
        use crate::fault::{FaultPlan, PanicSampler};
        let inst = inst_seq(&[(0, 1), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1)]);
        let seed = 21;
        let ppm = 400_000;
        let cfg = SimConfig::new(2).with_faults(FaultPlan::none().with_panic_ppm(ppm));
        let r = simulate_worksteal(&inst, &cfg, StealPolicy::AdmitFirst, seed);
        // The sampler is keyed by (seed, job, node), so the failed set is
        // exactly what PanicSampler predicts — independent of scheduling.
        let sampler = PanicSampler::new(seed, ppm);
        for o in &r.outcomes {
            let expect_fail = sampler.should_panic(o.job, 0);
            assert_eq!(!o.status.is_completed(), expect_fail, "job {}", o.job);
        }
        assert!(!r.all_completed());
        assert!(r.unfinished().len() < 6, "some jobs must survive");
    }

    #[test]
    fn stall_freezes_worker_but_deque_stays_stealable() {
        use crate::fault::{FaultKind, FaultPlan};
        let dag = Arc::new(shapes::diamond(16, 2));
        let inst = Instance::new(vec![Job::new(0, 0, dag)]);
        // Worker 0 admits, then stalls; thieves must still drain its deque.
        let cfg = SimConfig::new(3).with_faults(FaultPlan::none().stall(0, 2, 20));
        let r = simulate_worksteal(&inst, &cfg, StealPolicy::AdmitFirst, 4);
        assert!(r.all_completed());
        assert_eq!(r.stats.work_steps, inst.total_work());
        assert!(r.stats.faulted_steps > 0);
        let begins = r
            .fault_events
            .iter()
            .filter(|e| e.kind == FaultKind::StallBegin)
            .count();
        let ends = r
            .fault_events
            .iter()
            .filter(|e| e.kind == FaultKind::StallEnd)
            .count();
        assert_eq!(begins, 1);
        assert!(
            ends <= 1,
            "at most one end event (run may finish mid-stall)"
        );
    }

    #[test]
    fn slowdown_halves_throughput_deterministically() {
        use crate::fault::FaultPlan;
        // Single worker at half speed: a 10-unit job takes ~20 rounds.
        let inst = inst_seq(&[(0, 10)]);
        let cfg = SimConfig::new(1).with_faults(FaultPlan::none().slowdown(0, 500_000));
        let r = simulate_worksteal(&inst, &cfg, StealPolicy::AdmitFirst, 1);
        assert!(r.all_completed());
        let flow = r.outcomes[0].flow;
        assert!(
            flow >= Rational::from_int(19) && flow <= Rational::from_int(21),
            "half-speed flow {flow} out of range"
        );
        // Deterministic: same plan, same result.
        let r2 = simulate_worksteal(&inst, &cfg, StealPolicy::AdmitFirst, 1);
        assert_eq!(r.outcomes, r2.outcomes);
    }

    #[test]
    fn blackhole_starves_thieves() {
        use crate::fault::FaultPlan;
        // All work sits on worker 0, which is blackholed: steals never
        // succeed, yet the owner finishes alone.
        let dag = Arc::new(shapes::diamond(12, 2));
        let inst = Instance::new(vec![Job::new(0, 0, dag)]);
        let cfg = SimConfig::new(3).with_faults(FaultPlan::none().blackhole(0));
        let r = simulate_worksteal(&inst, &cfg, StealPolicy::AdmitFirst, 8);
        assert!(r.all_completed());
        assert_eq!(r.stats.successful_steals, 0);
        assert!(r.stats.steal_attempts > 0);
        // Without the blackhole the same seed sees successful steals.
        let free = simulate_worksteal(&inst, &SimConfig::new(3), StealPolicy::AdmitFirst, 8);
        assert!(free.stats.successful_steals > 0);
    }

    #[test]
    fn crash_during_quiescent_gap_fires_at_its_round() {
        use crate::fault::{FaultKind, FaultPlan};
        // Crash round 50 falls inside the arrival gap [1, 1000): the
        // fast-forward must stop there so the event fires on time.
        let inst = inst_seq(&[(0, 1), (1000, 1)]);
        let cfg = SimConfig::new(2).with_faults(FaultPlan::none().crash(1, 50));
        let r = simulate_worksteal(&inst, &cfg, StealPolicy::AdmitFirst, 2);
        assert!(r.all_completed());
        let crash = r
            .fault_events
            .iter()
            .find(|e| e.kind == FaultKind::Crash)
            .expect("crash fired");
        assert_eq!(crash.round, 50);
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn invalid_plan_is_rejected_at_engine_start() {
        use crate::fault::FaultPlan;
        let inst = inst_seq(&[(0, 1)]);
        let cfg = SimConfig::new(2).with_faults(FaultPlan::none().crash(5, 0));
        let _ = simulate_worksteal(&inst, &cfg, StealPolicy::AdmitFirst, 0);
    }

    #[test]
    fn fault_free_plan_matches_no_plan() {
        // An empty FaultPlan must not perturb the rng stream or schedule.
        let dag = Arc::new(shapes::diamond(6, 3));
        let jobs: Vec<Job> = (0..10)
            .map(|i| Job::new(i, (i as u64) * 3, dag.clone()))
            .collect();
        let inst = Instance::new(jobs);
        let cfg = SimConfig::new(4);
        let with_plan = cfg.clone().with_faults(crate::fault::FaultPlan::none());
        let policy = StealPolicy::StealKFirst { k: 2 };
        let a = simulate_worksteal(&inst, &cfg, policy, 99);
        let b = simulate_worksteal(&inst, &with_plan, policy, 99);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn free_steals_never_slower_than_unit_steps() {
        // Same instance, same seed: removing steal cost cannot hurt max
        // flow on this simple workload (statistically; fixed seed makes it
        // deterministic).
        let dag = Arc::new(shapes::parallel_for(40, 8));
        let jobs: Vec<Job> = (0..10)
            .map(|i| Job::new(i, i as u64 * 10, dag.clone()))
            .collect();
        let inst = Instance::new(jobs);
        let policy = StealPolicy::StealKFirst { k: 16 };
        let unit = simulate_worksteal(&inst, &SimConfig::new(4), policy, 5);
        let free = simulate_worksteal(&inst, &SimConfig::new(4).with_free_steals(), policy, 5);
        assert!(free.max_flow() <= unit.max_flow());
    }
}
