//! Batched-replica work-stealing engine: structure-of-arrays hot state,
//! `u64`-word bitset idle tracking and a calendar queue of completion
//! events, stepping B independent replicas per pass.
//!
//! Replica sweeps (seed variance, confidence intervals, phase diagrams)
//! run the same instance under many `(config, policy, seed)` triples. The
//! sequential engine rebuilds all engine state per replica and steps
//! per-round even through forced spans; [`run_batched`] instead keeps B
//! *lanes* of reusable engine state (cursor arena, deques, SoA worker
//! columns, scratch) and round-robins bursts of steps across them, so
//! buffer capacity warmed up by one replica is recycled by the next and
//! per-round bookkeeping runs over flat `u64`/`u32` columns instead of an
//! array of worker structs.
//!
//! **Bit-identical by construction.** Replicas are fully independent: each
//! keeps its own seeded [`SmallRng`], its own columns and its own arena, so
//! interleaving their steps cannot change any replica's schedule. The lane
//! stepper is a faithful port of the fault-free sequential loop — same
//! acquisition order, same admission rule, same Lemire victim sampling,
//! same deferred deque publication — plus two strictly-behavior-preserving
//! accelerations:
//!
//! * the event-window fast paths read the earliest next completion from a
//!   [`CalendarQueue`](crate::CalendarQueue) maintained at work
//!   acquisition/completion, instead of scanning all `m` workers per
//!   window — O(events), not O(m · windows), which is what makes m = 256
//!   and 1024 tractable;
//! * a new *k-burn window* (unit-step steals, nothing stealable, global
//!   queue non-empty, every idle worker below its admission threshold)
//!   bulk-replays the forced failed-steal rounds that the sequential
//!   engine steps one by one: the span is capped so no admission, arrival
//!   or completion falls inside it, and the burned RNG draws land on the
//!   stream in exactly the positions the per-round loop would use (see
//!   `burn_uniform_draws`).
//!
//! `tests/engine_differential.rs` pins batched-vs-sequential lockstep —
//! outcomes, stats, samples *and* `ScheduleTrace` — across mixed configs,
//! batch widths and m = 256.
//!
//! Replicas whose config carries a non-empty fault plan are delegated to
//! the sequential engine (faults are incompatible with the window fast
//! paths; `run_worksteal` itself sends them to its per-round loop); the
//! results are identical either way.

use crate::bits::BitWords;
use crate::calendar::CalendarQueue;
use crate::config::{SimConfig, StealAmount, StealCost, VictimStrategy};
use crate::fault::JobStatus;
use crate::result::{BacklogSample, EngineStats, JobOutcome, SimResult};
use crate::trace::{Action, ScheduleTrace};
use crate::worksteal::{
    advance_scan, burn_uniform_draws, gen_uniform_below, pop_admission, run_worksteal, StealPolicy,
};
use parflow_dag::{CursorArena, CursorId, Instance, Job, JobId, NodeId, StepOutcome};
use parflow_time::Round;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// One replica of a batched run: a simulation config, a steal policy and
/// the seed of the replica's private victim-selection RNG stream.
#[derive(Clone, Debug)]
pub struct ReplicaSpec {
    /// Simulation configuration (machine size, speed, steal model, …).
    pub config: SimConfig,
    /// Admission policy.
    pub policy: StealPolicy,
    /// Seed of this replica's RNG stream; the replica's schedule is
    /// bit-identical to `run_worksteal(instance, &config, policy, seed)`.
    pub seed: u64,
}

impl ReplicaSpec {
    /// Convenience constructor.
    pub fn new(config: SimConfig, policy: StealPolicy, seed: u64) -> Self {
        ReplicaSpec {
            config,
            policy,
            seed,
        }
    }
}

/// Sentinel for "no current task" in the SoA `cur_job` column.
const NONE: u32 = u32::MAX;

/// Steps per lane per scheduling pass: large enough to amortize the lane
/// switch, small enough that a batch of lanes still interleaves.
const BURST: u32 = 256;

/// One lane: reusable engine storage plus the scalars of the replica
/// currently running in it. Buffers (arena slots, deque rings, columns)
/// keep their capacity across replicas, so only the first replica of a
/// sweep pays warm-up allocations.
struct Lane {
    // Reusable storage.
    arena: CursorArena,
    deques: Vec<VecDeque<(JobId, NodeId)>>,
    cur_job: Vec<u32>,
    cur_node: Vec<NodeId>,
    failed_steals: Vec<u64>,
    scan_next: Vec<usize>,
    busy: BitWords,
    deque_ne: BitWords,
    calendar: CalendarQueue,
    pending: Vec<(u32, JobId, NodeId)>,
    newly_busy: Vec<u32>,
    ready_scratch: Vec<NodeId>,
    sources_scratch: Vec<NodeId>,
    cursor_ids: Vec<Option<CursorId>>,
    outcomes: Vec<Option<JobOutcome>>,
    started: Vec<Option<Round>>,
    global_queue: VecDeque<JobId>,
    // Per-replica scalars.
    cfg: SimConfig,
    policy: StealPolicy,
    k: u32,
    rng: SmallRng,
    stats: EngineStats,
    samples: Vec<BacklogSample>,
    trace: Option<ScheduleTrace>,
    next_arrival: usize,
    completed: usize,
    live_admitted: usize,
    round: Round,
    last_busy_round: Round,
    safety_cap: Round,
    fast_ok: bool,
    done: bool,
}

impl Lane {
    fn new() -> Self {
        Lane {
            arena: CursorArena::new(),
            deques: Vec::new(),
            cur_job: Vec::new(),
            cur_node: Vec::new(),
            failed_steals: Vec::new(),
            scan_next: Vec::new(),
            busy: BitWords::default(),
            deque_ne: BitWords::default(),
            calendar: CalendarQueue::new(),
            pending: Vec::new(),
            newly_busy: Vec::new(),
            ready_scratch: Vec::new(),
            sources_scratch: Vec::new(),
            cursor_ids: Vec::new(),
            outcomes: Vec::new(),
            started: Vec::new(),
            global_queue: VecDeque::new(),
            cfg: SimConfig::new(1),
            policy: StealPolicy::AdmitFirst,
            k: 0,
            rng: SmallRng::seed_from_u64(0),
            stats: EngineStats::default(),
            samples: Vec::new(),
            trace: None,
            next_arrival: 0,
            completed: 0,
            live_admitted: 0,
            round: 0,
            last_busy_round: 0,
            safety_cap: 0,
            fast_ok: false,
            done: false,
        }
    }

    /// Reset the lane for a fresh replica, reusing every buffer's capacity.
    fn start(&mut self, instance: &Instance, spec: &ReplicaSpec) {
        let n = instance.len();
        let m = spec.config.m;
        debug_assert!(
            spec.config.faults.is_empty(),
            "fault replicas are delegated"
        );
        self.cfg = spec.config.clone();
        self.policy = spec.policy;
        self.k = spec.policy.k();
        self.rng = SmallRng::seed_from_u64(spec.seed);

        self.deques.resize_with(m, VecDeque::new);
        for d in &mut self.deques {
            d.clear();
        }
        self.cur_job.clear();
        self.cur_job.resize(m, NONE);
        self.cur_node.clear();
        self.cur_node.resize(m, 0);
        self.failed_steals.clear();
        self.failed_steals.resize(m, 0);
        self.scan_next.clear();
        self.scan_next.extend(1..=m);
        self.busy.reset(m);
        self.deque_ne.reset(m);
        self.calendar.clear();
        self.pending.clear();
        self.newly_busy.clear();
        self.cursor_ids.clear();
        self.cursor_ids.resize(n, None);
        self.outcomes.clear();
        self.outcomes.resize(n, None);
        self.started.clear();
        self.started.resize(n, None);
        self.global_queue.clear();
        self.arena.recycle_all();

        self.stats = EngineStats::default();
        self.samples = Vec::new();
        self.trace = self
            .cfg
            .record_trace
            .then(|| ScheduleTrace::new(m, self.cfg.speed));
        self.next_arrival = 0;
        self.completed = 0;
        self.live_admitted = 0;
        self.round = 0;
        self.last_busy_round = 0;
        // Same cap as the sequential engine's empty-fault branch.
        self.safety_cap = self
            .cfg
            .speed
            .first_round_at_or_after(instance.last_arrival())
            + instance.total_work()
            + (self.k as Round + 2) * (n as Round + m as Round)
            + 64;
        self.fast_ok = !self.cfg.record_trace;
        self.done = n == 0;
    }

    /// Detach the finished replica's result from the lane.
    fn finish(&mut self) -> (SimResult, Option<ScheduleTrace>) {
        debug_assert!(self.done);
        let outcomes: Vec<JobOutcome> = self
            .outcomes
            .drain(..)
            .map(|o| o.expect("all jobs completed")) // lint: allow(panicking) invariant: a lane is done only after every job completed
            .collect();
        let result = SimResult {
            m: self.cfg.m,
            speed: self.cfg.speed,
            total_rounds: self.last_busy_round + 1,
            outcomes,
            stats: self.stats,
            samples: std::mem::take(&mut self.samples),
            fault_events: Vec::new(),
        };
        (result, self.trace.take())
    }

    /// Admit job `jid` on worker `p` (exact port of the sequential
    /// `admit_job` + its call-site bookkeeping).
    fn admit(&mut self, jid: JobId, p: usize, jobs: &[Job]) {
        let job = &jobs[jid as usize];
        let id = self.arena.alloc(&job.dag);
        self.cursor_ids[jid as usize] = Some(id);
        let cur = self.arena.get_mut(id);
        self.sources_scratch.clear();
        self.sources_scratch.extend_from_slice(cur.ready_nodes());
        for &s in self.sources_scratch.iter() {
            cur.claim(s).expect("source ready"); // lint: allow(panicking) invariant: freshly materialized source nodes are unclaimed
            self.deques[p].push_back((jid, s));
        }
        let task = self.deques[p].pop_back().expect("pushed sources"); // lint: allow(panicking) a source task was pushed just above; the deque is non-empty
        self.cur_job[p] = task.0;
        self.cur_node[p] = task.1;
        self.busy.set(p);
        self.newly_busy.push(p as u32); // lint: allow(truncating-cast) worker index < m, which is far below 2^32
        self.failed_steals[p] = 0;
        if self.deques[p].is_empty() {
            self.deque_ne.clear(p);
        } else {
            self.deque_ne.set(p);
        }
        self.started[jid as usize] = Some(self.round);
        self.live_admitted += 1;
        self.stats.admissions += 1;
    }

    /// One steal attempt by worker `p` (port of the sequential
    /// `steal_into`; no blackholes in batched mode).
    #[inline]
    fn steal_into(&mut self, p: usize) -> bool {
        let m = self.cfg.m;
        if m <= 1 {
            return false;
        }
        let victim = match self.cfg.victim {
            VictimStrategy::Uniform => {
                let mut v = gen_uniform_below(&mut self.rng, m - 1);
                if v >= p {
                    v += 1;
                }
                v
            }
            VictimStrategy::RoundRobinScan => {
                let mut v = self.scan_next[p] % m;
                if v == p {
                    v = (v + 1) % m;
                }
                self.scan_next[p] = (v + 1) % m;
                v
            }
        };
        if let Some(task) = self.deques[victim].pop_front() {
            self.cur_job[p] = task.0;
            self.cur_node[p] = task.1;
            self.busy.set(p);
            self.newly_busy.push(p as u32); // lint: allow(truncating-cast) worker index < m, which is far below 2^32
            if self.cfg.steal_amount == StealAmount::Half {
                let extra = (self.deques[victim].len() + 1).div_ceil(2) - 1;
                for _ in 0..extra {
                    let t = self.deques[victim].pop_front().expect("len checked"); // lint: allow(panicking) emptiness checked immediately above; pop cannot fail
                    self.deques[p].push_back(t);
                }
                if extra > 0 {
                    self.deque_ne.set(p);
                }
            }
            if self.deques[victim].is_empty() {
                self.deque_ne.clear(victim);
            }
            true
        } else {
            false
        }
    }

    /// Consume the per-attempt state of `count` failing steal attempts by
    /// worker `p` (port of the sequential `burn_failed_attempts`).
    #[inline]
    fn burn_failed(&mut self, p: usize, count: u64) {
        let m = self.cfg.m;
        if m <= 1 {
            return;
        }
        match self.cfg.victim {
            VictimStrategy::Uniform => burn_uniform_draws(&mut self.rng, m, count),
            VictimStrategy::RoundRobinScan => {
                self.scan_next[p] = advance_scan(self.scan_next[p], p, m, count);
            }
        }
    }

    /// Execute one unit of worker `p`'s current task; returns the action
    /// for the trace row.
    fn execute_unit(&mut self, p: usize, jobs: &[Job]) -> Action {
        let jid = self.cur_job[p];
        let v = self.cur_node[p];
        let job = &jobs[jid as usize];
        let cid = self.cursor_ids[jid as usize].expect("admitted job"); // lint: allow(panicking) invariant: every admitted job owns an arena cursor until completion
        self.stats.work_steps += 1;
        self.failed_steals[p] = 0;
        self.ready_scratch.clear();
        let cursor = self.arena.get_mut(cid);
        match cursor
            .execute_unit_into(&job.dag, v, &mut self.ready_scratch)
            .expect("current node claimed") // lint: allow(panicking) invariant: executed nodes were claimed by this cursor
        {
            StepOutcome::InProgress => {}
            StepOutcome::NodeCompleted { job_completed } => {
                self.cur_job[p] = NONE;
                self.busy.clear(p);
                // The completing worker's calendar event names this round;
                // absent only if the node was acquired this same round.
                self.calendar.remove(self.round, p as u32); // lint: allow(truncating-cast) worker index < m, which is far below 2^32
                let cursor = self.arena.get_mut(cid);
                for i in 0..self.ready_scratch.len() {
                    let u = self.ready_scratch[i];
                    cursor.claim(u).expect("newly ready claimable"); // lint: allow(panicking) invariant: nodes entering the ready set are unclaimed
                    self.pending.push((p as u32, jid, u)); // lint: allow(truncating-cast) worker index < m, which is far below 2^32
                }
                if job_completed {
                    self.arena
                        .release(self.cursor_ids[jid as usize].take().expect("cursor id")); // lint: allow(panicking) invariant: completion releases exactly the cursor admission installed
                    self.live_admitted -= 1;
                    self.completed += 1;
                    self.outcomes[jid as usize] = Some(JobOutcome {
                        job: jid,
                        arrival: job.arrival,
                        weight: job.weight,
                        start_round: self.started[jid as usize].expect("job admitted"), // lint: allow(panicking) invariant: start_round is recorded at admission, before execution
                        completion_round: self.round,
                        completion: self.cfg.speed.round_end(self.round),
                        flow: self.cfg.speed.flow_time(job.arrival, self.round),
                        status: JobStatus::Completed,
                    });
                }
            }
        }
        Action::Work { job: jid, node: v }
    }

    /// Flush deferred deque pushes and publish calendar events for workers
    /// that acquired a node during this step and still hold it.
    fn end_of_round(&mut self) {
        for i in 0..self.pending.len() {
            let (p, jid, u) = self.pending[i];
            self.deques[p as usize].push_back((jid, u));
            self.deque_ne.set(p as usize);
        }
        self.pending.clear();
        for i in 0..self.newly_busy.len() {
            let p = self.newly_busy[i] as usize;
            let jid = self.cur_job[p];
            if jid != NONE {
                let rem = self
                    .arena
                    .get(self.cursor_ids[jid as usize].expect("admitted job")) // lint: allow(panicking) invariant: every admitted job owns an arena cursor until completion
                    .remaining_work(self.cur_node[p])
                    .expect("current node in range"); // lint: allow(panicking) invariant: cursors only hold nodes of their own DAG
                                                      // `round + remaining` is invariant while the worker stays on
                                                      // the node (one unit per round), so the key is exact.
                self.calendar.push(self.round + rem, p as u32); // lint: allow(truncating-cast) worker index < m, which is far below 2^32
            }
        }
        self.newly_busy.clear();
    }

    /// Advance the replica by one event: a quiescent jump, an event
    /// window, or one explicit round.
    fn step(&mut self, instance: &Instance) {
        let jobs = instance.jobs();
        let n = jobs.len();
        let m = self.cfg.m;
        let speed = self.cfg.speed;

        assert!(
            self.round <= self.safety_cap,
            "batched work-stealing engine exceeded round cap"
        );

        // Release arrivals into the global FIFO queue.
        while self.next_arrival < n
            && speed.arrived_by_round(jobs[self.next_arrival].arrival, self.round)
        {
            self.global_queue.push_back(jobs[self.next_arrival].id);
            self.next_arrival += 1;
        }

        if self.cfg.sample_every > 0 && self.round.is_multiple_of(self.cfg.sample_every) {
            self.samples.push(BacklogSample {
                round: self.round,
                queued: self.global_queue.len(),
                live: self.live_admitted,
                deque_tasks: self.deques.iter().map(|d| d.len()).sum::<usize>(),
            });
        }

        // Quiescent fast-forward (port of the sequential path; no fault
        // boundaries can clamp the jump in batched mode).
        if self.live_admitted == 0 && self.global_queue.is_empty() {
            debug_assert!(
                self.next_arrival < n,
                "deadlock: nothing live, nothing queued"
            );
            let target = speed.first_round_at_or_after(jobs[self.next_arrival].arrival);
            debug_assert!(target > self.round, "fast-forward must move time forward");
            let gap = target - self.round;
            self.stats.idle_steps += gap * m as u64;
            for f in &mut self.failed_steals {
                *f = f.saturating_add(gap);
            }
            if self.cfg.sample_every > 0 {
                let se = self.cfg.sample_every;
                let mut s = (self.round / se + 1) * se;
                while s < target {
                    self.samples.push(BacklogSample {
                        round: s,
                        queued: 0,
                        live: 0,
                        deque_tasks: 0,
                    });
                    s += se;
                }
            }
            if let Some(t) = self.trace.as_mut() {
                t.push_idle_rounds(gap);
            }
            self.round = target;
            if self.completed >= n {
                self.done = true;
            }
            return;
        }

        // Event-window fast paths. Case A/B mirror the sequential engine
        // (all busy, or idle workers provably cannot acquire anything);
        // case C is the batched engine's k-burn window. The earliest
        // completion comes from the calendar queue instead of an O(m)
        // worker scan.
        'window: {
            if !self.fast_ok {
                break 'window;
            }
            let arrival_cap = if self.next_arrival < n {
                speed.first_round_at_or_after(jobs[self.next_arrival].arrival) - self.round
            } else {
                u64::MAX
            };
            if arrival_cap < 2 {
                break 'window;
            }
            let busy = self.busy.count();
            debug_assert_eq!(busy, self.calendar.len(), "one event per busy worker");
            let min_rem = if busy == 0 {
                u64::MAX
            } else {
                match self.calendar.peek_min(self.round) {
                    // key = last execution round of the earliest-finishing
                    // current node, so remaining = key − round + 1.
                    Some(key) => key - self.round + 1,
                    None => u64::MAX,
                }
            };
            if busy > 0 && min_rem < 2 {
                break 'window;
            }
            let deques_empty = !self.deque_ne.any();
            let queue_empty = self.global_queue.is_empty();
            // Case A: everyone busy. Case B: idle workers can acquire
            // nothing (queue and all deques empty ⇒ every steal fails).
            let eligible_ab = busy > 0 && (busy == m || (queue_empty && deques_empty));
            // Case C (k-burn): unit-step steals, nothing stealable, queue
            // non-empty, and every idle worker still below its admission
            // threshold — each idle round is a forced failed steal.
            let mut steal_cap = u64::MAX;
            let eligible_c = !eligible_ab
                && deques_empty
                && !queue_empty
                && busy < m
                && self.cfg.steal_cost == StealCost::UnitStep
                && matches!(self.policy, StealPolicy::StealKFirst { .. })
                && {
                    let k = self.k as u64;
                    let mut ok = true;
                    self.busy.for_each_clear(m, |p| {
                        let f = self.failed_steals[p];
                        if f >= k {
                            ok = false;
                        } else {
                            steal_cap = steal_cap.min(k - f);
                        }
                    });
                    ok
                };
            if !(eligible_ab || eligible_c) {
                break 'window;
            }
            let delta = min_rem.min(arrival_cap).min(steal_cap);
            if delta < 2 {
                break 'window;
            }
            let last = self.round + delta - 1;
            if self.cfg.sample_every > 0 {
                let se = self.cfg.sample_every;
                let queued = self.global_queue.len();
                let deque_tasks = self.deques.iter().map(|d| d.len()).sum::<usize>();
                let mut s = (self.round / se + 1) * se;
                while s <= last {
                    self.samples.push(BacklogSample {
                        round: s,
                        queued,
                        live: self.live_admitted,
                        deque_tasks,
                    });
                    s += se;
                }
            }
            if busy < m {
                debug_assert!(deques_empty);
                let per_round: u64 = match self.cfg.steal_cost {
                    StealCost::UnitStep => 1,
                    StealCost::Free => {
                        if self.k == 0 {
                            2 * m as u64
                        } else {
                            self.k as u64
                        }
                    }
                };
                let idle = (m - busy) as u64;
                self.stats.steal_attempts += delta * per_round * idle;
                // `m == 1` burns no per-attempt state, mirroring the
                // sequential `burn_failed_attempts` early return.
                if m > 1 {
                    match self.cfg.victim {
                        VictimStrategy::Uniform => {
                            burn_uniform_draws(&mut self.rng, m, delta * per_round * idle);
                        }
                        VictimStrategy::RoundRobinScan => {
                            for p in 0..m {
                                if self.cur_job[p] == NONE {
                                    self.scan_next[p] =
                                        advance_scan(self.scan_next[p], p, m, delta * per_round);
                                }
                            }
                        }
                    }
                }
                match self.cfg.steal_cost {
                    StealCost::UnitStep => {
                        for p in 0..m {
                            if self.cur_job[p] == NONE {
                                self.failed_steals[p] = self.failed_steals[p].saturating_add(delta);
                            }
                        }
                    }
                    StealCost::Free => {
                        self.stats.idle_steps += delta * idle;
                    }
                }
            }
            // Busy workers bulk-execute; completions land in the last
            // round of the span, exactly as per-round stepping would.
            let mut workers_buf = std::mem::take(&mut self.newly_busy);
            workers_buf.clear();
            self.busy.for_each_set(|p| workers_buf.push(p as u32)); // lint: allow(truncating-cast) worker index < m, which is far below 2^32
            for &w in &workers_buf {
                let p = w as usize;
                let jid = self.cur_job[p];
                let v = self.cur_node[p];
                let job = &jobs[jid as usize];
                let cid = self.cursor_ids[jid as usize].expect("admitted job"); // lint: allow(panicking) invariant: every admitted job owns an arena cursor until completion
                self.stats.work_steps += delta;
                self.failed_steals[p] = 0;
                self.ready_scratch.clear();
                let cursor = self.arena.get_mut(cid);
                match cursor
                    .execute_units(&job.dag, v, delta, &mut self.ready_scratch)
                    .expect("current node claimed") // lint: allow(panicking) invariant: executed nodes were claimed by this cursor
                {
                    StepOutcome::InProgress => {}
                    StepOutcome::NodeCompleted { job_completed } => {
                        self.cur_job[p] = NONE;
                        self.busy.clear(p);
                        let removed = self.calendar.remove(last, p as u32); // lint: allow(truncating-cast) worker index < m, which is far below 2^32
                        debug_assert!(removed, "windowed completion had a calendar event");
                        let cursor = self.arena.get_mut(cid);
                        for i in 0..self.ready_scratch.len() {
                            let u = self.ready_scratch[i];
                            cursor.claim(u).expect("newly ready claimable"); // lint: allow(panicking) invariant: nodes entering the ready set are unclaimed
                            self.pending.push((p as u32, jid, u)); // lint: allow(truncating-cast) worker index < m, which is far below 2^32
                        }
                        if job_completed {
                            self.arena
                                .release(self.cursor_ids[jid as usize].take().expect("cursor id")); // lint: allow(panicking) invariant: completion releases exactly the cursor admission installed
                            self.live_admitted -= 1;
                            self.completed += 1;
                            self.outcomes[jid as usize] = Some(JobOutcome {
                                job: jid,
                                arrival: job.arrival,
                                weight: job.weight,
                                start_round: self.started[jid as usize].expect("job admitted"), // lint: allow(panicking) invariant: start_round is recorded at admission, before execution
                                completion_round: last,
                                completion: speed.round_end(last),
                                flow: speed.flow_time(job.arrival, last),
                                status: JobStatus::Completed,
                            });
                        }
                    }
                }
            }
            workers_buf.clear();
            self.newly_busy = workers_buf;
            for i in 0..self.pending.len() {
                let (p, jid, u) = self.pending[i];
                self.deques[p as usize].push_back((jid, u));
                self.deque_ne.set(p as usize);
            }
            self.pending.clear();
            self.last_busy_round = last;
            self.round += delta;
            if self.completed >= n {
                self.done = true;
            }
            return;
        }

        // Explicit round: the port of the sequential per-worker loop (no
        // fault gates, no orphans, no panic sampler — empty plan).
        let record_trace = self.cfg.record_trace;
        let mut row: Vec<Action> = if record_trace {
            Vec::with_capacity(m)
        } else {
            Vec::new()
        };
        for p in 0..m {
            if self.cur_job[p] == NONE {
                if let Some(task) = self.deques[p].pop_back() {
                    self.cur_job[p] = task.0;
                    self.cur_node[p] = task.1;
                    self.busy.set(p);
                    self.newly_busy.push(p as u32); // lint: allow(truncating-cast) worker index < m, which is far below 2^32
                    if self.deques[p].is_empty() {
                        self.deque_ne.clear(p);
                    }
                }
            }
            if self.cur_job[p] == NONE {
                match self.cfg.steal_cost {
                    StealCost::UnitStep => {
                        let admit_now = match self.policy {
                            StealPolicy::AdmitFirst => !self.global_queue.is_empty(),
                            StealPolicy::StealKFirst { k } => {
                                self.failed_steals[p] >= k as u64 && !self.global_queue.is_empty()
                            }
                        };
                        if admit_now {
                            let jid =
                                pop_admission(&mut self.global_queue, jobs, self.cfg.admission)
                                    .expect("queue non-empty"); // lint: allow(panicking) emptiness checked immediately above
                            self.admit(jid, p, jobs);
                        } else {
                            self.stats.steal_attempts += 1;
                            let stealable = self.deque_ne.any();
                            let hit = if stealable {
                                self.steal_into(p)
                            } else {
                                self.burn_failed(p, 1);
                                false
                            };
                            if hit {
                                self.stats.successful_steals += 1;
                                self.failed_steals[p] = 0;
                            } else {
                                self.failed_steals[p] = self.failed_steals[p].saturating_add(1);
                            }
                            if record_trace {
                                row.push(Action::Steal { hit });
                            }
                            continue;
                        }
                    }
                    StealCost::Free => {
                        if self.k == 0 {
                            if let Some(jid) =
                                pop_admission(&mut self.global_queue, jobs, self.cfg.admission)
                            {
                                self.admit(jid, p, jobs);
                            } else {
                                let attempts = 2 * m.max(1) as u32; // lint: allow(truncating-cast) m is the processor count; a 2^32-processor instance is unrepresentable
                                if self.deque_ne.any() {
                                    for _ in 0..attempts {
                                        self.stats.steal_attempts += 1;
                                        if self.steal_into(p) {
                                            self.stats.successful_steals += 1;
                                            break;
                                        }
                                    }
                                } else {
                                    self.stats.steal_attempts += attempts as u64;
                                    self.burn_failed(p, attempts as u64);
                                }
                            }
                        } else {
                            if self.deque_ne.any() {
                                for _ in 0..self.k {
                                    self.stats.steal_attempts += 1;
                                    if self.steal_into(p) {
                                        self.stats.successful_steals += 1;
                                        break;
                                    }
                                }
                            } else {
                                self.stats.steal_attempts += self.k as u64;
                                self.burn_failed(p, self.k as u64);
                            }
                            if self.cur_job[p] == NONE {
                                if let Some(jid) =
                                    pop_admission(&mut self.global_queue, jobs, self.cfg.admission)
                                {
                                    self.admit(jid, p, jobs);
                                }
                            }
                        }
                        if self.cur_job[p] == NONE {
                            self.stats.idle_steps += 1;
                            if record_trace {
                                row.push(Action::Idle);
                            }
                            continue;
                        }
                    }
                }
            }
            let action = self.execute_unit(p, jobs);
            if record_trace {
                row.push(action);
            }
        }

        self.end_of_round();
        self.last_busy_round = self.round;
        if let Some(t) = self.trace.as_mut() {
            t.push_row(row);
        }
        self.round += 1;
        if self.completed >= n {
            self.done = true;
        }
    }
}

/// Run every replica in `specs` on `instance`, stepping up to `batch`
/// replicas concurrently per pass over reusable engine lanes.
///
/// Results are returned in spec order; each entry is bit-identical to
/// `run_worksteal(instance, &spec.config, spec.policy, spec.seed)` — the
/// differential proptests in `tests/engine_differential.rs` pin outcomes,
/// stats, samples and `ScheduleTrace` equality. Replicas with non-empty
/// fault plans are delegated to the sequential engine.
pub fn run_batched(
    instance: &Instance,
    specs: &[ReplicaSpec],
    batch: usize,
) -> Vec<(SimResult, Option<ScheduleTrace>)> {
    let lanes_n = batch.max(1).min(specs.len());
    let mut results: Vec<Option<(SimResult, Option<ScheduleTrace>)>> =
        (0..specs.len()).map(|_| None).collect();
    let mut lanes: Vec<Lane> = (0..lanes_n).map(|_| Lane::new()).collect();
    let mut assigned: Vec<Option<usize>> = vec![None; lanes_n];
    let mut next_spec = 0usize;
    loop {
        let mut progressed = false;
        for li in 0..lanes_n {
            if assigned[li].is_none() {
                while next_spec < specs.len() {
                    let si = next_spec;
                    next_spec += 1;
                    let spec = &specs[si];
                    if !spec.config.faults.is_empty() {
                        results[si] = Some(run_worksteal(
                            instance,
                            &spec.config,
                            spec.policy,
                            spec.seed,
                        ));
                        continue;
                    }
                    lanes[li].start(instance, spec);
                    assigned[li] = Some(si);
                    break;
                }
            }
            if let Some(si) = assigned[li] {
                let lane = &mut lanes[li];
                for _ in 0..BURST {
                    if lane.done {
                        break;
                    }
                    lane.step(instance);
                }
                progressed = true;
                if lane.done {
                    results[si] = Some(lane.finish());
                    assigned[li] = None;
                }
            }
        }
        if !progressed {
            break;
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every replica finished")) // lint: allow(panicking) invariant: the lane loop exits only after all specs ran
        .collect()
}

/// Convenience wrapper returning only the [`SimResult`]s, in spec order.
pub fn simulate_batched(
    instance: &Instance,
    specs: &[ReplicaSpec],
    batch: usize,
) -> Vec<SimResult> {
    run_batched(instance, specs, batch)
        .into_iter()
        .map(|(r, _)| r)
        .collect()
}

/// Streaming counterpart of [`simulate_batched`]: run every replica over
/// its own [`JobStream`](crate::JobStream) in O(active + m) memory,
/// pushing each completed outcome into `sink` tagged with the replica
/// index.
///
/// Lanes hold whole materialized instances, so the SoA interleaving is the
/// wrong shape for endless streams; replicas instead run sequentially
/// through the streaming engine — each result is bit-identical to
/// `run_worksteal(instance, &spec.config, spec.policy, spec.seed)` on the
/// materialization of that replica's stream (transitively through the
/// streaming engine's own differential guarantee). `make_stream(i)` builds
/// replica `i`'s stream; replicas with non-empty fault plans fail with
/// [`StreamError::FaultsUnsupported`](crate::StreamError::FaultsUnsupported),
/// like every streaming entry point.
pub fn simulate_batched_stream<S, F>(
    mut make_stream: F,
    specs: &[ReplicaSpec],
    sink: &mut dyn FnMut(usize, &JobOutcome),
) -> Result<Vec<crate::StreamSummary>, crate::StreamError>
where
    S: crate::JobStream,
    F: FnMut(usize) -> S,
{
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let mut stream = make_stream(i);
            let mut per_replica = |o: &JobOutcome| sink(i, o);
            crate::run_worksteal_stream(
                &mut stream,
                &spec.config,
                spec.policy,
                spec.seed,
                &mut per_replica,
            )
            .map(|(summary, _)| summary)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worksteal::simulate_worksteal;
    use parflow_dag::shapes;
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
    fn empty_specs_empty_results() {
        let inst = inst_seq(&[(0, 1)]);
        assert!(run_batched(&inst, &[], 4).is_empty());
    }

    #[test]
    fn single_replica_matches_sequential() {
        let inst = inst_seq(&[(0, 7), (3, 2), (9, 5)]);
        let cfg = SimConfig::new(2);
        let policy = StealPolicy::StealKFirst { k: 3 };
        let seq = simulate_worksteal(&inst, &cfg, policy, 42);
        let out = simulate_batched(&inst, &[ReplicaSpec::new(cfg, policy, 42)], 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], seq);
    }

    #[test]
    fn k_burn_window_matches_per_round_counters() {
        // 2 unit jobs, 2 workers, k = 3: both workers burn exactly 3
        // failed steal rounds before admitting (the k-burn window path).
        let inst = inst_seq(&[(0, 1), (0, 1)]);
        let cfg = SimConfig::new(2);
        let policy = StealPolicy::StealKFirst { k: 3 };
        let r = &simulate_batched(&inst, &[ReplicaSpec::new(cfg.clone(), policy, 7)], 1)[0];
        let seq = simulate_worksteal(&inst, &cfg, policy, 7);
        assert_eq!(*r, seq);
        assert_eq!(r.stats.steal_attempts, 6);
        assert_eq!(r.stats.admissions, 2);
    }

    #[test]
    fn lane_reuse_across_many_replicas() {
        // More replicas than lanes: lanes are recycled in spec order and
        // every replica still matches its sequential run.
        let inst = inst_seq(&[(0, 5), (2, 3), (4, 8), (20, 1)]);
        let cfg = SimConfig::new(3).with_free_steals();
        let specs: Vec<ReplicaSpec> = (0..7)
            .map(|i| {
                ReplicaSpec::new(
                    cfg.clone(),
                    if i % 2 == 0 {
                        StealPolicy::AdmitFirst
                    } else {
                        StealPolicy::StealKFirst { k: 2 }
                    },
                    1000 + i,
                )
            })
            .collect();
        let out = simulate_batched(&inst, &specs, 2);
        for (spec, got) in specs.iter().zip(&out) {
            let want = simulate_worksteal(&inst, &spec.config, spec.policy, spec.seed);
            assert_eq!(*got, want);
        }
    }

    #[test]
    fn traced_replica_matches_sequential_trace() {
        let inst = inst_seq(&[(0, 4), (1, 2), (6, 3)]);
        let cfg = SimConfig::new(2).with_trace();
        let policy = StealPolicy::StealKFirst { k: 2 };
        let (seq_r, seq_t) = run_worksteal(&inst, &cfg, policy, 9);
        let mut out = run_batched(&inst, &[ReplicaSpec::new(cfg, policy, 9)], 1);
        let (r, t) = out.remove(0);
        assert_eq!(r, seq_r);
        assert_eq!(t, seq_t);
    }

    #[test]
    fn giant_m_replica_matches_sequential() {
        let inst = inst_seq(&[(0, 3), (1, 9), (2, 4), (50, 2)]);
        let cfg = SimConfig::new(256);
        let policy = StealPolicy::StealKFirst { k: 16 };
        let seq = simulate_worksteal(&inst, &cfg, policy, 5);
        let out = simulate_batched(&inst, &[ReplicaSpec::new(cfg, policy, 5)], 1);
        assert_eq!(out[0], seq);
    }

    #[test]
    fn fault_replicas_are_delegated() {
        use crate::fault::{CrashFault, FaultPlan};
        let inst = inst_seq(&[(0, 6), (1, 6)]);
        let plan = FaultPlan {
            crashes: vec![CrashFault {
                worker: 1,
                at_round: 2,
            }],
            ..FaultPlan::none()
        };
        let cfg = SimConfig::new(2).with_faults(plan);
        let policy = StealPolicy::AdmitFirst;
        let seq = simulate_worksteal(&inst, &cfg, policy, 3);
        let out = simulate_batched(&inst, &[ReplicaSpec::new(cfg, policy, 3)], 4);
        assert_eq!(out[0], seq);
    }
}
