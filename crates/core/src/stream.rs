//! Streaming engine entry points: O(active)-memory simulation over endless
//! job streams.
//!
//! The materialized entry points ([`crate::run_worksteal`],
//! [`crate::run_priority`]) demand a fully built [`Instance`] — `Vec<Job>`
//! plus per-job state slabs and an O(n) outcome vector — so *memory*, not
//! CPU, caps the horizon at n ≈ 10⁶ jobs. The paper's model, however, is an
//! online endless arrival stream, and its asymptotic claims (competitive
//! ratios as n → ∞) need 10⁷-job runs. The entry points here pull jobs one
//! at a time from a [`JobStream`], keep exactly one job of lookahead, and
//! retire completed jobs back into a free-listed slab (plus the existing
//! recycled [`CursorArena`]), so live memory is O(active jobs + m), not
//! O(n). Completed [`JobOutcome`]s are pushed into a caller-provided sink
//! instead of being accumulated.
//!
//! **One loop per scheduler family.** `step_worksteal` below is the
//! event-driven work-stealing stepper — only idle and completing workers
//! act, uneventful spans are jumped (see its docs and docs/PERFORMANCE.md),
//! and a fault plan adds jump events and worker masks, not a second loop —
//! and `step_priority` the event-horizon centralized one. Every
//! `run_*_stream*` entry point runs its stepper directly; the materialized
//! `run_worksteal*`, `run_batched` and `run_priority*` run the same stepper
//! over [`InstanceReplay`] with a collecting sink (`collect_replay`), so
//! "streaming over a replay ≡ materialized" holds by construction. The
//! per-round loops — `run_worksteal_reference` and `run_priority_reference`
//! — are the differential references: `tests/engine_differential.rs` and
//! `tests/stream_differential.rs` pin the steppers against them — outcomes
//! in completion order, [`EngineStats`], fault events, samples,
//! [`ScheduleTrace`], obs report — for every prefix of random instances.
//!
//! Internally tasks carry slab *slot* ids instead of job ids; slots are
//! handed out in arrival order from a LIFO free list, and every
//! job-visible quantity (trace rows, admission tie-breaks, outcomes) is
//! translated back through the slot's stored job id. Victim selection
//! never reads either.
//!
//! **Faults** hold on streams as on the materialized path, for the
//! work-stealing family: the plan's state is O(m + plan), plus one
//! [`crate::FaultEvent`] per crash, stall edge and injected panic in
//! [`StreamSummary::fault_events`]. The centralized engines model a
//! reliable machine and refuse a plan ([`StreamError::FaultsUnsupported`]).

use crate::bits::BitWords;
use crate::centralized::JobPriority;
use crate::config::{AdmissionOrder, SimConfig, StealAmount, StealCost, VictimStrategy};
use crate::fault::{FaultEvent, FaultKind, FaultState, JobStatus};
use crate::opt::OptTracker;
use crate::result::{BacklogSample, EngineStats, JobOutcome, SimResult};
use crate::trace::{self, Action, ScheduleTrace};
use crate::worksteal::{
    advance_scan, burn_failed_attempts, burn_uniform_draws, emit_ws_counters, pick_victim,
    StealPolicy, WorkerObs,
};
use parflow_dag::{CursorArena, CursorId, Instance, Job, JobDag, JobId, NodeId, StepOutcome};
use parflow_obs::{NullRecorder, Recorder};
use parflow_time::{Rational, Round, Speed, Ticks};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::Arc;

/// One job pulled from a [`JobStream`]: the online metadata the scheduler
/// learns at release time, minus the dense id (assigned by the engine in
/// pull order). `weight` must be positive, like [`Job::weighted`]'s.
#[derive(Clone, Debug)]
pub struct StreamedJob {
    /// Release time `r_i` in wall-clock ticks. Streams must be
    /// non-decreasing in arrival, like [`Instance`]s.
    pub arrival: Ticks,
    /// Priority weight `w_i` (1 for unweighted streams).
    pub weight: u64,
    /// The job's internal structure. Shared via `Arc` so generators can
    /// cache structurally identical DAGs across millions of jobs.
    pub dag: Arc<JobDag>,
}

/// An online arrival sequence, pulled one job at a time.
///
/// The engine keeps exactly one job of lookahead: a job is pulled only
/// once the previous one has been released into the global queue, so a
/// stream backed by a live source sees demand-driven pulls and an endless
/// stream never materializes.
pub trait JobStream {
    /// The next job in arrival order, or `None` when the stream ends.
    fn next_job(&mut self) -> Option<StreamedJob>;
}

/// Replay of a materialized [`Instance`] as a [`JobStream`] — the bridge
/// the differential tests use to prove streaming runs bit-identical to
/// materialized ones.
#[derive(Clone, Debug)]
pub struct InstanceReplay<'a> {
    jobs: &'a [Job],
    next: usize,
}

impl<'a> InstanceReplay<'a> {
    /// Replay every job of `instance` in arrival order.
    pub fn new(instance: &'a Instance) -> Self {
        InstanceReplay {
            jobs: instance.jobs(),
            next: 0,
        }
    }

    /// Replay only the first `n` jobs (arrival order). Because instances
    /// are arrival-sorted with dense ids, this is exactly the instance
    /// built from the first `n` jobs.
    pub fn prefix(instance: &'a Instance, n: usize) -> Self {
        InstanceReplay {
            jobs: &instance.jobs()[..n.min(instance.len())],
            next: 0,
        }
    }
}

impl JobStream for InstanceReplay<'_> {
    fn next_job(&mut self) -> Option<StreamedJob> {
        let job = self.jobs.get(self.next)?;
        self.next += 1;
        Some(StreamedJob {
            arrival: job.arrival,
            weight: job.weight,
            dag: Arc::clone(&job.dag),
        })
    }
}

/// A [`JobStream`] adapter that feeds every pulled job into an
/// [`OptTracker`] before handing it to the engine, so the OPT lower bound
/// and competitive ratio are available live alongside the streaming run.
#[derive(Clone, Debug)]
pub struct OptTap<S> {
    inner: S,
    opt: OptTracker,
}

impl<S: JobStream> OptTap<S> {
    /// Wrap `inner`, tracking OPT bounds for an `m`-machine cluster.
    pub fn new(inner: S, m: usize) -> Self {
        OptTap {
            inner,
            opt: OptTracker::new(m),
        }
    }

    /// The tracker (covers every job pulled so far).
    pub fn opt(&self) -> &OptTracker {
        &self.opt
    }

    /// Unwrap into the inner stream and the tracker.
    pub fn into_parts(self) -> (S, OptTracker) {
        (self.inner, self.opt)
    }
}

impl<S: JobStream> JobStream for OptTap<S> {
    fn next_job(&mut self) -> Option<StreamedJob> {
        let job = self.inner.next_job()?;
        self.opt
            .on_arrival(job.arrival, job.dag.total_work(), job.dag.span());
        Some(job)
    }
}

/// Errors surfaced by the streaming entry points.
///
/// The materialized engines index jobs with dense `u32` ids and would
/// silently wrap past `u32::MAX` jobs if anything could materialize that
/// many; the streaming path is the first one that can, so it checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamError {
    /// The stream produced more jobs than `u32` job ids can index
    /// (mirrors `parflow_runtime`'s `RuntimeError::TooManyJobs` guard).
    /// Carries the first id that did not fit.
    TooManyJobs(u64),
    /// Job at this pull index arrived before its predecessor; streams
    /// must be non-decreasing in arrival, like [`Instance`]s.
    UnsortedArrivals {
        /// 0-based pull index of the offending job.
        index: u64,
    },
    /// Job at this pull index has weight 0; weights must be positive, like
    /// [`Job::weighted`]'s.
    ZeroWeight {
        /// 0-based pull index of the offending job.
        index: u64,
    },
    /// The config carries a non-empty fault plan for a centralized engine,
    /// which models a reliable machine.
    FaultsUnsupported,
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            StreamError::TooManyJobs(id) => write!(
                f,
                "job stream exceeded u32 id space (job index {id} > {})",
                u32::MAX
            ),
            StreamError::UnsortedArrivals { index } => write!(
                f,
                "job stream is not sorted by arrival (job index {index} arrived before its predecessor)"
            ),
            StreamError::ZeroWeight { index } => {
                write!(f, "job stream yielded weight 0 (job index {index})")
            }
            StreamError::FaultsUnsupported => {
                write!(f, "fault plans are not supported by the centralized engines")
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// Retirement telemetry of a streaming run: how hard the free-listed slab
/// and cursor arena were recycled. Kept out of [`EngineStats`] (which
/// goldens bit-compare against materialized runs) and surfaced both here
/// and as `ws.stream.*` counters on the obs taxonomy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetirementStats {
    /// Jobs whose slab slot was recycled after completion.
    pub jobs_retired: u64,
    /// High-water mark of simultaneously live (released, not yet retired)
    /// jobs — the "active" in the O(active + m) memory bound.
    pub live_jobs_high_water: u64,
    /// Slab slots ever allocated (== the high-water mark; retirement
    /// recycles instead of freeing).
    pub slab_slots: u64,
    /// Cursor-arena slots ever allocated (bounded by peak admitted jobs).
    pub cursor_slots: u64,
}

impl RetirementStats {
    /// Fraction of job activations served from recycled slots:
    /// `1 - slab_slots / jobs`, i.e. 0 when every job needed a fresh slot
    /// and → 1 when the slab reached steady state early. `None` until the
    /// first job is retired.
    pub fn slab_reuse_ratio(&self) -> Option<f64> {
        if self.jobs_retired == 0 {
            return None;
        }
        Some(1.0 - self.slab_slots as f64 / self.jobs_retired as f64)
    }
}

/// Result of a streaming run: everything [`crate::SimResult`] carries
/// except the O(n) outcome vector (outcomes went to the sink) — plus the
/// running max flow (the paper's objective, tracked exactly) and the
/// retirement telemetry.
#[derive(Clone, Debug)]
pub struct StreamSummary {
    /// Number of machines.
    pub m: usize,
    /// Machine speed used.
    pub speed: Speed,
    /// Rounds until the last job completed.
    pub total_rounds: Round,
    /// Jobs pulled from the stream (all completed, or failed by an
    /// injected panic).
    pub jobs: u64,
    /// Engine counters — bit-identical to the materialized run's.
    pub stats: EngineStats,
    /// Periodic backlog samples (`config.sample_every`).
    pub samples: Vec<BacklogSample>,
    /// Maximum flow time over all jobs, in ticks (exact); a failed job's
    /// flow is its time-to-failure, as in [`SimResult::max_flow`].
    pub max_flow: Rational,
    /// Slab/arena recycling telemetry.
    pub retire: RetirementStats,
    /// Faults that fired, in engine-time order (empty without a plan). It
    /// grows with the plan's crashes and stall edges and with every
    /// injected panic, so a panic rate makes it O(failed jobs).
    pub fault_events: Vec<FaultEvent>,
}

/// A live (released, not yet retired) job in the slab. The `Job` keeps the
/// stream-assigned dense id so admission tie-breaks, priority keys, trace
/// rows and outcomes are indistinguishable from the materialized run.
struct Slot {
    job: Job,
    cursor: Option<CursorId>,
    started: Option<Round>,
}

/// The free-listed job slab: slots recycle LIFO so the live set stays hot
/// in cache and steady state allocates nothing per job.
#[derive(Default)]
struct JobSlab {
    slots: Vec<Option<Slot>>,
    free: Vec<u32>,
    live: u64,
    high_water: u64,
}

impl JobSlab {
    /// Forget every slot, keeping the capacity.
    fn reset(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.live = 0;
        self.high_water = 0;
    }

    #[inline]
    fn alloc(&mut self, slot: Slot) -> u32 {
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        if let Some(sid) = self.free.pop() {
            self.slots[sid as usize] = Some(slot);
            sid
        } else {
            // Live jobs are bounded by backlog, which blows the round cap
            // long before it could blow u32 — but check anyway.
            assert!(
                self.slots.len() < u32::MAX as usize,
                "live-job slab exceeded u32 slot space"
            );
            self.slots.push(Some(slot));
            (self.slots.len() - 1) as u32 // lint: allow(truncating-cast) length bounded by the assert above
        }
    }

    #[inline]
    fn get(&self, sid: u32) -> &Slot {
        self.slots[sid as usize].as_ref().expect("live slot") // lint: allow(panicking) invariant: queued/claimed tasks only reference live slots
    }

    #[inline]
    fn get_mut(&mut self, sid: u32) -> &mut Slot {
        self.slots[sid as usize].as_mut().expect("live slot") // lint: allow(panicking) invariant: queued/claimed tasks only reference live slots
    }

    /// Retire a completed job: drop its `Job` (and DAG Arc) and push the
    /// slot onto the free list for the next arrival.
    #[inline]
    fn retire(&mut self, sid: u32) -> Slot {
        let slot = self.slots[sid as usize].take().expect("live slot"); // lint: allow(panicking) invariant: a completing job occupies its slab slot exactly once
        self.free.push(sid);
        self.live -= 1;
        slot
    }
}

/// One-job-lookahead pull state shared by the streaming engines: assigns
/// dense ids in pull order, validates id space, arrival monotonicity and
/// weights, and maintains the running totals the growing safety cap needs.
pub(crate) struct Puller<'s, S: JobStream> {
    stream: &'s mut S,
    id_base: u64,
    produced: u64,
    total_work: u64,
    last_arrival: Ticks,
    /// The job pulled but not yet released, with its assigned id.
    pending: Option<(JobId, StreamedJob)>,
}

impl<'s, S: JobStream> Puller<'s, S> {
    fn new(stream: &'s mut S, id_base: u64) -> Result<Self, StreamError> {
        let mut p = Puller {
            stream,
            id_base,
            produced: 0,
            total_work: 0,
            last_arrival: 0,
            pending: None,
        };
        p.advance()?;
        Ok(p)
    }

    /// Pull the next job into `pending` (replacing the released one).
    fn advance(&mut self) -> Result<(), StreamError> {
        let Some(job) = self.stream.next_job() else {
            self.pending = None;
            return Ok(());
        };
        let index = self.produced;
        let id64 = self
            .id_base
            .checked_add(index)
            .ok_or(StreamError::TooManyJobs(u64::MAX))?;
        if id64 > u32::MAX as u64 {
            return Err(StreamError::TooManyJobs(id64));
        }
        if index > 0 && job.arrival < self.last_arrival {
            return Err(StreamError::UnsortedArrivals { index });
        }
        if job.weight == 0 {
            return Err(StreamError::ZeroWeight { index });
        }
        self.produced += 1;
        self.total_work += job.dag.total_work();
        self.last_arrival = job.arrival;
        self.pending = Some((id64 as u32, job)); // lint: allow(truncating-cast) id64 checked <= u32::MAX just above
        Ok(())
    }
}

/// Simulate work stealing over a [`JobStream`], pushing each completed
/// job's [`JobOutcome`] into `sink` (in completion order) instead of
/// accumulating them. Bit-identical to [`crate::run_worksteal`] when the
/// stream replays a materialized instance — same RNG stream, same
/// [`EngineStats`], same trace, same fault events — but with O(active + m)
/// live memory (plus the fault events, see [`StreamSummary::fault_events`]).
pub fn run_worksteal_stream<S: JobStream>(
    stream: &mut S,
    config: &SimConfig,
    policy: StealPolicy,
    seed: u64,
    sink: &mut dyn FnMut(&JobOutcome),
) -> Result<(StreamSummary, Option<ScheduleTrace>), StreamError> {
    run_worksteal_stream_observed(stream, config, policy, seed, sink, &mut NullRecorder)
}

/// [`run_worksteal_stream`] with a [`Recorder`] attached. Emits the same
/// `ws.*` / `ws.worker.*` taxonomy as the materialized engine plus
/// `ws.stream.*` retirement counters; per-job `ws.flow_ticks` samples are
/// intentionally **not** emitted (the recorder would grow O(n) on a 10M-job
/// stream — sample from the sink instead).
pub fn run_worksteal_stream_observed<S: JobStream>(
    stream: &mut S,
    config: &SimConfig,
    policy: StealPolicy,
    seed: u64,
    sink: &mut dyn FnMut(&JobOutcome),
    rec: &mut dyn Recorder,
) -> Result<(StreamSummary, Option<ScheduleTrace>), StreamError> {
    run_worksteal_stream_with_base(stream, config, policy, seed, sink, rec, 0)
}

/// [`run_worksteal_stream_observed`] with job ids starting at `id_base`
/// instead of 0, so the unit tests reach the `TooManyJobs` id-space guard
/// at the `u32::MAX` boundary without streaming 4 billion jobs first.
fn run_worksteal_stream_with_base<S: JobStream>(
    stream: &mut S,
    config: &SimConfig,
    policy: StealPolicy,
    seed: u64,
    sink: &mut dyn FnMut(&JobOutcome),
    rec: &mut dyn Recorder,
    id_base: u64,
) -> Result<(StreamSummary, Option<ScheduleTrace>), StreamError> {
    let obs = rec.enabled();
    let puller = Puller::new(stream, id_base)?;
    let mut buf = WsBuffers::default();
    let (summary, trace, wobs) = step_worksteal(puller, config, policy, seed, sink, obs, &mut buf)?;
    if obs {
        emit_ws_counters(rec, &wobs, &summary.stats);
        rec.gauge("ws.total_rounds", summary.total_rounds as f64);
        let retire = &summary.retire;
        rec.counter("ws.stream.jobs_retired", retire.jobs_retired);
        rec.counter(
            "ws.stream.live_jobs_high_water",
            retire.live_jobs_high_water,
        );
        rec.counter("ws.stream.slab_slots", retire.slab_slots);
        rec.counter("ws.stream.cursor_slots", retire.cursor_slots);
        if let Some(r) = retire.slab_reuse_ratio() {
            rec.gauge("ws.stream.slab_reuse_ratio", r);
        }
    }
    Ok((summary, trace))
}

/// Run `step` over a replay of `instance` and collect the outcomes, which
/// reach the sink in completion order, back into job order: how every
/// materialized entry point drives its family's stepper. The third
/// component is the stepper's telemetry, passed through.
pub(crate) fn collect_replay<T>(
    instance: &Instance,
    step: impl FnOnce(
        Puller<'_, InstanceReplay<'_>>,
        &mut dyn FnMut(&JobOutcome),
    ) -> Result<(StreamSummary, Option<ScheduleTrace>, T), StreamError>,
) -> (SimResult, Option<ScheduleTrace>, T) {
    let mut outcomes: Vec<Option<JobOutcome>> = vec![None; instance.len()];
    let mut collect = |o: &JobOutcome| outcomes[o.job as usize] = Some(o.clone());
    let mut replay = InstanceReplay::new(instance);
    let (summary, trace, telemetry) = Puller::new(&mut replay, 0)
        .and_then(|puller| step(puller, &mut collect))
        .expect("instance replays are sorted, positively weighted and within the id space"); // lint: allow(panicking) invariant: Instance guarantees arrival order, positive weights and u32 ids
    let result = SimResult {
        m: summary.m,
        speed: summary.speed,
        total_rounds: summary.total_rounds,
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("all jobs completed")) // lint: allow(panicking) invariant: the steppers exit only after every pulled job completed
            .collect(),
        stats: summary.stats,
        samples: summary.samples,
        fault_events: summary.fault_events,
    };
    (result, trace, telemetry)
}

/// The stepper's reusable buffers: the job store plus structure-of-arrays
/// worker columns, bitsets and scratch. A run starts by [`WsBuffers::reset`]ting
/// them — everything emptied, capacity kept — so one value serves any
/// number of consecutive runs (`crate::run_batched` shares one across its
/// replicas and pays the warm-up allocations once) and no run's schedule
/// depends on what ran in them before.
#[derive(Default)]
pub(crate) struct WsBuffers {
    arena: CursorArena,
    slab: JobSlab,
    /// Slab slot ids of released, not yet admitted jobs, in arrival order.
    queue: VecDeque<u32>,
    /// Per-worker deques of unstarted `(slot, node)` tasks: back = bottom
    /// (owner side), front = top (thief side).
    deques: Vec<VecDeque<(u32, NodeId)>>,
    /// The node each busy worker holds (stale for idle workers).
    cur: Vec<(u32, NodeId)>,
    /// `done[p]`: the round in which busy worker `p`'s node executes its
    /// last unit; `Round::MAX` while `p` is idle. Fixed at acquisition —
    /// a started node is never preempted or migrated without faults, and
    /// deques only ever hold unstarted nodes.
    done: Vec<Round>,
    /// `{p : done[p] == min_done}`, see [`WsLanes::min_done`].
    due: BitWords,
    failed_steals: Vec<u64>,
    scan_next: Vec<usize>,
    busy: BitWords,
    deque_ne: BitWords,
    /// Nodes enabled this round, published to `deques` at the end of it.
    pending: Vec<(usize, u32, NodeId)>,
    ready_scratch: Vec<NodeId>,
    sources_scratch: Vec<NodeId>,
}

impl WsBuffers {
    /// Empty everything for a fresh run on `m` idle workers.
    fn reset(&mut self, m: usize) {
        self.arena.recycle_all();
        self.slab.reset();
        self.queue.clear();
        self.deques.resize_with(m, VecDeque::new);
        self.deques.iter_mut().for_each(VecDeque::clear);
        self.cur.clear();
        self.cur.resize(m, (0, 0));
        self.done.clear();
        self.done.resize(m, Round::MAX);
        self.due.reset(m);
        self.failed_steals.clear();
        self.failed_steals.resize(m, 0);
        // Staggered so scanning thieves probe distinct victims each round
        // instead of sweeping in lockstep.
        self.scan_next.clear();
        self.scan_next.extend(1..=m);
        self.busy.reset(m);
        self.deque_ne.reset(m);
        self.pending.clear();
    }
}

/// Where the stepper sends each job's outcome.
type Sink<'a> = dyn FnMut(&JobOutcome) + 'a;

/// Lane state of one run of the event-driven stepper: the run's scalars
/// plus the (reusable) [`WsBuffers`], which it holds for the duration. See
/// [`step_lanes`] for the loop. `F` says whether the run has a fault plan:
/// without one the fault state is absent and every fault branch below is
/// compiled out of the loop.
struct WsLanes<'c, const F: bool> {
    cfg: &'c SimConfig,
    k: u64,
    rng: SmallRng,
    buf: WsBuffers,
    /// `min(done)`; with `buf.due`, the workers that complete next.
    /// Maintained incrementally: acquisitions lower or join them, a flat
    /// rescan of the busy workers follows every round in which they came
    /// due. (A bucketed calendar of completion rounds measured the same at
    /// m = 16 and ~10 % faster at m = 256, but cost ~770 bucket allocations
    /// per run where this costs none.)
    min_done: Round,
    stats: EngineStats,
    /// Per-worker telemetry; empty unless a recorder is enabled.
    wobs: Vec<WorkerObs>,
    live_admitted: usize,
    completed: u64,
    max_flow: Rational,
    /// `Some` exactly when `F`. A crashed worker stays busy with
    /// `done = Round::MAX`, so it is never idle and never due.
    faults: Option<Box<FaultState>>,
}

impl<const F: bool> WsLanes<'_, F> {
    #[inline]
    fn m(&self) -> usize {
        self.buf.done.len()
    }

    /// The fault state, statically `None` in fault-free runs.
    #[inline]
    fn f(&self) -> Option<&FaultState> {
        if F {
            self.faults.as_deref()
        } else {
            None
        }
    }

    /// Worker `p` takes `task`, whose first unit runs in `first_round`
    /// (this round, or the next one after a unit-step steal). Returns the
    /// job id (for the trace row) and the node's last round; the caller
    /// either completes it on the spot or [`WsLanes::hold`]s it. Under
    /// faults the last round is the gate's, and an adopted orphan needs
    /// only what its crashed holder left.
    #[inline]
    fn start(&mut self, p: usize, task: (u32, NodeId), first_round: Round) -> (JobId, Round) {
        let slot = self.buf.slab.get(task.0);
        self.buf.cur[p] = task;
        self.buf.failed_steals[p] = 0;
        if let Some(f) = self.faults.as_deref().filter(|_| F) {
            let cursor = self.buf.arena.get(slot.cursor.expect("admitted job")); // lint: allow(panicking) invariant: every admitted job owns an arena cursor until completion
            let units = cursor.remaining_work(task.1).expect("node in range"); // lint: allow(panicking) invariant: tasks name nodes of their job's DAG
            return (slot.job.id, f.nth_exec(p, first_round, units));
        }
        (slot.job.id, first_round + slot.job.dag.work(task.1) - 1)
    }

    /// What worker `p` does in a round it is not visited in: a unit of
    /// its node if it holds one and acts, else `miss`.
    fn unvisited(&self, p: usize, miss: Action) -> Action {
        let (sid, node) = self.buf.cur[p];
        if self.buf.busy.get(p) && self.f().is_none_or(|f| f.act.get(p)) {
            let job = self.buf.slab.get(sid).job.id;
            return Action::Work { job, node };
        }
        miss
    }

    /// Worker `p` stays busy on its node through round `d`.
    #[inline]
    fn hold(&mut self, p: usize, d: Round) {
        self.buf.done[p] = d;
        self.buf.busy.set(p);
        if d < self.min_done {
            self.min_done = d;
            self.buf.due.reset(self.buf.done.len());
        }
        if d == self.min_done {
            self.buf.due.set(p);
        }
    }

    /// Recompute `min_done` and `due` from scratch.
    fn rescan_due(&mut self) {
        let mut min = Round::MAX;
        self.buf
            .busy
            .for_each_set(|p| min = min.min(self.buf.done[p]));
        self.min_done = min;
        self.buf.due.reset(self.buf.done.len());
        self.buf.busy.for_each_set(|p| {
            if self.buf.done[p] == min {
                self.buf.due.set(p);
            }
        });
    }

    /// Count `units` executed by worker `p` into the stats.
    #[inline]
    fn worked(&mut self, p: usize, units: u64) {
        self.stats.work_steps += units;
        if let Some(o) = self.wobs.get_mut(p) {
            o.work_steps += units;
        }
    }

    /// Worker `p`'s node executes its last unit in `round`: run the whole
    /// node through the cursor at once (no one could observe the partial
    /// progress in between), stage the enabled successors for end-of-round
    /// publication and retire the job if this was its last node — or, if
    /// the node panics, fail the job.
    fn complete(&mut self, p: usize, round: Round, sink: &mut dyn FnMut(&JobOutcome)) -> Action {
        let (sid, v) = self.buf.cur[p];
        self.buf.busy.clear(p);
        self.buf.done[p] = Round::MAX;
        let slot = self.buf.slab.get(sid);
        let jid = slot.job.id;
        let cid = slot.cursor.expect("admitted job"); // lint: allow(panicking) invariant: every admitted job owns an arena cursor until completion
        let cursor = self.buf.arena.get_mut(cid);
        let work = if F {
            cursor.remaining_work(v).expect("node in range") // lint: allow(panicking) invariant: tasks name nodes of their job's DAG
        } else {
            slot.job.dag.work(v)
        };
        self.buf.ready_scratch.clear();
        let outcome = cursor
            .execute_units(&slot.job.dag, v, work, &mut self.buf.ready_scratch)
            .expect("current node claimed"); // lint: allow(panicking) invariant: executed nodes were claimed by this cursor
        let StepOutcome::NodeCompleted { job_completed } = outcome else {
            unreachable!("a node's full work completes it"); // lint: allow(panicking) invariant: the units executed are the node's remaining work
        };
        self.worked(p, work);
        if self.f().is_some_and(|f| f.sampler.should_panic(jid, v)) {
            self.fail(p, sid, v, round, sink);
            return Action::Work { job: jid, node: v };
        }
        // Claim enabled nodes now (they are exclusively ours) but defer
        // deque publication to the end of the round.
        let cursor = self.buf.arena.get_mut(cid);
        for &u in self.buf.ready_scratch.iter() {
            cursor.claim(u).expect("newly ready claimable"); // lint: allow(panicking) invariant: nodes entering the ready set are unclaimed
            self.buf.pending.push((p, sid, u));
        }
        if job_completed {
            self.retire(sid, round, JobStatus::Completed, sink);
        }
        Action::Work { job: jid, node: v }
    }

    /// The job in slot `sid` ends in `round` with `status`: free its
    /// cursor and slot and report its outcome.
    fn retire(&mut self, sid: u32, round: Round, status: JobStatus, sink: &mut Sink) {
        let slot = self.buf.slab.retire(sid);
        self.buf.arena.release(slot.cursor.expect("admitted job")); // lint: allow(panicking) invariant: every admitted job owns an arena cursor until completion
        self.live_admitted -= 1;
        self.completed += 1;
        let speed = self.cfg.speed;
        let out = JobOutcome {
            job: slot.job.id,
            arrival: slot.job.arrival,
            weight: slot.job.weight,
            start_round: slot.started.expect("job admitted"), // lint: allow(panicking) invariant: start_round is recorded at admission, before execution
            completion_round: round,
            flow: speed.flow_time(slot.job.arrival, round),
            status,
        };
        self.max_flow = self.max_flow.max(out.flow);
        sink(&out);
    }

    /// Worker `p`'s node `v` of the job in slot `sid` panicked in `round`:
    /// the job fails and is purged from every deque, the pending list, the
    /// orphans and every worker holding one of its nodes — whose units run
    /// so far still count. Holders after `p` act again this round.
    fn fail(&mut self, p: usize, sid: u32, v: NodeId, round: Round, sink: &mut Sink) {
        let f = self.faults.as_deref_mut().expect("faulted run"); // lint: allow(panicking) invariant: only faulted runs sample panics
        let slot = self.buf.slab.get(sid);
        self.stats.injected_panics += 1;
        let at = f.events[f.round_events..].partition_point(|e| e.worker <= Some(p));
        let event = FaultEvent::new(round, p, Some(slot.job.id), FaultKind::TaskPanic, v.into());
        f.events.insert(f.round_events + at, event);
        for (q, deque) in self.buf.deques.iter_mut().enumerate() {
            deque.retain(|t| t.0 != sid);
            if deque.is_empty() {
                self.buf.deque_ne.clear(q);
            }
        }
        self.buf.pending.retain(|t| t.1 != sid);
        f.orphans.retain(|t| t.0 != sid);
        let cursor = self.buf.arena.get(slot.cursor.expect("admitted job")); // lint: allow(panicking) invariant: every admitted job owns an arena cursor until completion
        for q in 0..self.buf.done.len() {
            let (qsid, u) = self.buf.cur[q];
            if qsid != sid || !self.buf.busy.get(q) || !f.alive.get(q) {
                continue;
            }
            let units = cursor.remaining_work(u).expect("node in range"); // lint: allow(panicking) invariant: tasks name nodes of their job's DAG
            let from = if q < p { round + 1 } else { round };
            let ran = units - f.exec_rounds(q, from, self.buf.done[q].saturating_add(1));
            self.stats.work_steps += ran;
            if let Some(o) = self.wobs.get_mut(q) {
                o.work_steps += ran;
            }
            self.buf.busy.clear(q);
            self.buf.due.clear(q);
            self.buf.done[q] = Round::MAX;
            if q > p && f.act.get(q) {
                f.revisit.set(q);
            }
        }
        self.retire(sid, round, JobStatus::Failed, sink);
    }

    /// Worker `p` crashes at the start of `round`: the units it ran on its
    /// node go into the cursor, and that node, then its deque top to
    /// bottom, join the orphan FIFO.
    fn crash(&mut self, p: usize, round: Round) {
        let f = self.faults.as_deref_mut().expect("faulted run"); // lint: allow(panicking) invariant: only faulted runs schedule crashes
        self.stats.crashed_workers += 1;
        let kind = FaultKind::Crash;
        f.events.push(FaultEvent::new(round, p, None, kind, 0));
        let mut ran = 0;
        if self.buf.busy.get(p) {
            let (sid, v) = self.buf.cur[p];
            let slot = self.buf.slab.get(sid);
            let cursor = self.buf.arena.get_mut(slot.cursor.expect("admitted job")); // lint: allow(panicking) invariant: every admitted job owns an arena cursor until completion
            let units = cursor.remaining_work(v).expect("node in range"); // lint: allow(panicking) invariant: tasks name nodes of their job's DAG
            ran = units - f.exec_rounds(p, round, self.buf.done[p].saturating_add(1));
            if ran > 0 {
                let scratch = &mut self.buf.ready_scratch;
                cursor
                    .execute_units(&slot.job.dag, v, ran, scratch)
                    .expect("held node claimed"); // lint: allow(panicking) invariant: a held node is claimed and has more than `ran` units left
            }
            f.orphans.push_back((sid, v));
        }
        // Tasks reinjected: the held node, then the deque.
        let n = u64::from(self.buf.busy.get(p)) + self.buf.deques[p].len() as u64;
        f.orphans.extend(self.buf.deques[p].drain(..));
        self.buf.deque_ne.clear(p);
        if n > 0 {
            self.stats.reinjected_tasks += n;
            let kind = FaultKind::OrphanReinjection;
            f.events.push(FaultEvent::new(round, p, None, kind, n));
        }
        f.alive.clear(p);
        self.worked(p, ran);
        self.hold(p, Round::MAX);
    }

    /// Admit the next queued job (if any) on worker `p`: create its cursor,
    /// push all source nodes onto `p`'s deque and hand back the last one.
    fn admit(&mut self, p: usize, round: Round) -> Option<(u32, NodeId)> {
        let sid = match self.cfg.admission {
            AdmissionOrder::Fifo => self.buf.queue.pop_front()?,
            // Largest weight first; ties to the earlier arrival, i.e. the
            // smaller job id.
            AdmissionOrder::ByWeight => {
                let best = self
                    .buf
                    .queue
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, &sid)| {
                        let job = &self.buf.slab.get(sid).job;
                        (job.weight, std::cmp::Reverse(job.id))
                    })?
                    .0;
                self.buf.queue.remove(best)?
            }
        };
        let slot = self.buf.slab.get_mut(sid);
        let id = self.buf.arena.alloc(&slot.job.dag);
        slot.cursor = Some(id);
        slot.started = Some(round);
        let cur = self.buf.arena.get_mut(id);
        self.buf.sources_scratch.clear();
        self.buf
            .sources_scratch
            .extend_from_slice(cur.ready_nodes());
        let deque = &mut self.buf.deques[p];
        for &s in self.buf.sources_scratch.iter() {
            cur.claim(s).expect("source ready"); // lint: allow(panicking) invariant: freshly materialized source nodes are unclaimed
            deque.push_back((sid, s));
        }
        let task = deque.pop_back();
        if !deque.is_empty() {
            self.buf.deque_ne.set(p);
        }
        self.live_admitted += 1;
        self.stats.admissions += 1;
        if let Some(o) = self.wobs.get_mut(p) {
            o.admissions += 1;
        }
        task
    }

    /// True if some deque a thief could hit holds a task (a blackholed
    /// worker's never yields one).
    fn stealable(&self) -> bool {
        match self.f() {
            Some(f) => (self.buf.deque_ne.words().iter())
                .zip(f.blackholed.words())
                .any(|(d, b)| d & !b != 0),
            None => self.buf.deque_ne.any(),
        }
    }

    /// Up to `attempts` steal attempts by idle worker `p`, stopping at the
    /// first hit. A hit takes the victim's top task, plus — under
    /// [`StealAmount::Half`] — moves the rest of the top half of the
    /// victim's deque onto `p`'s. A blackholed victim consumes the attempt
    /// but never yields work.
    ///
    /// When no deque holds anything stealable every attempt must miss, so
    /// only the per-attempt state (RNG draws, scan cursor) is consumed, in
    /// bulk. The exact non-empty bitset makes that call at every site,
    /// where a per-round "anything stealable?" flag could be stale-true
    /// after an owner popped the last task; the two agree because attempts
    /// that all miss consume exactly the draws the bulk burn consumes.
    fn try_steals(&mut self, p: usize, attempts: u64) -> Option<(u32, NodeId)> {
        let m = self.m();
        let (mut tried, mut hit) = (attempts, None);
        if m <= 1 || !self.stealable() {
            let scan_next = &mut self.buf.scan_next[p];
            burn_failed_attempts(&mut self.rng, scan_next, p, m, self.cfg.victim, attempts);
        } else {
            for attempt in 1..=attempts {
                let scan_next = &mut self.buf.scan_next[p];
                let victim = pick_victim(p, m, &mut self.rng, self.cfg.victim, scan_next);
                if self.f().is_some_and(|f| f.blackholed.get(victim)) {
                    continue;
                }
                let Some(task) = self.buf.deques[victim].pop_front() else {
                    continue;
                };
                if self.cfg.steal_amount == StealAmount::Half {
                    // ceil(len_before/2) − 1 extra tasks follow the first.
                    let extra = (self.buf.deques[victim].len() + 1).div_ceil(2) - 1;
                    for _ in 0..extra {
                        let t = self.buf.deques[victim].pop_front().expect("len checked"); // lint: allow(panicking) emptiness checked immediately above; pop cannot fail
                        self.buf.deques[p].push_back(t);
                    }
                    if extra > 0 {
                        self.buf.deque_ne.set(p);
                    }
                }
                if self.buf.deques[victim].is_empty() {
                    self.buf.deque_ne.clear(victim);
                }
                (tried, hit) = (attempt, Some(task));
                break;
            }
        }
        self.stats.steal_attempts += tried;
        self.stats.successful_steals += hit.is_some() as u64;
        if let Some(o) = self.wobs.get_mut(p) {
            o.steal_attempts += tried;
            o.successful_steals += hit.is_some() as u64;
        }
        hit
    }

    /// One explicit round of worker `p`, which is either idle or holds a
    /// node completing in `round`. Returns its trace action.
    fn visit(&mut self, p: usize, round: Round, sink: &mut dyn FnMut(&JobOutcome)) -> Action {
        if self.buf.busy.get(p) {
            return self.complete(p, round, sink);
        }
        // Acquire: own deque → orphan FIFO → (policy) admit/steal.
        // Adopting an orphan is free, like popping the own deque.
        let task = if let Some(task) = self.buf.deques[p].pop_back() {
            if self.buf.deques[p].is_empty() {
                self.buf.deque_ne.clear(p);
            }
            Some(task)
        } else if let Some(task) = self
            .faults
            .as_deref_mut()
            .filter(|_| F)
            .and_then(|f| f.orphans.pop_front())
        {
            Some(task)
        } else {
            match self.cfg.steal_cost {
                StealCost::UnitStep => {
                    let admitted = if self.buf.failed_steals[p] >= self.k {
                        self.admit(p, round)
                    } else {
                        None
                    };
                    if admitted.is_none() {
                        // Steal attempt: one full round; the stolen node
                        // (if any) starts executing next round.
                        let stolen = self.try_steals(p, 1);
                        if let Some(task) = stolen {
                            let (_, d) = self.start(p, task, round + 1);
                            self.hold(p, d);
                        } else {
                            let f = self.buf.failed_steals[p].saturating_add(1);
                            self.buf.failed_steals[p] = f;
                            if let Some(o) = self.wobs.get_mut(p) {
                                o.failed_steal_rounds += 1;
                                o.max_failed_streak = o.max_failed_streak.max(f);
                            }
                        }
                        return Action::Steal {
                            hit: stolen.is_some(),
                        };
                    }
                    admitted
                }
                // Instantaneous acquisition: steal attempts cost nothing;
                // only executing work (or finding none) consumes the round.
                // `k = 0` is admit-first: admit if anything is queued, else
                // scan 2m victims.
                StealCost::Free if self.k == 0 => self
                    .admit(p, round)
                    .or_else(|| self.try_steals(p, 2 * self.m() as u64)),
                StealCost::Free => self.try_steals(p, self.k).or_else(|| self.admit(p, round)),
            }
        };
        let Some(task) = task else {
            self.stats.idle_steps += 1;
            if let Some(o) = self.wobs.get_mut(p) {
                o.idle_steps += 1;
            }
            return Action::Idle;
        };
        let (job, d) = self.start(p, task, round);
        if d == round {
            return self.complete(p, round, sink);
        }
        self.hold(p, d);
        Action::Work { job, node: task.1 }
    }

    /// The first crash round or stall edge after `round`.
    fn edge_after(&self, round: Round) -> Round {
        let edge = self.f().and_then(|f| f.plan.edge_after(round));
        edge.unwrap_or(Round::MAX)
    }

    /// Unstarted tasks across all deques and the orphan FIFO (backlog
    /// samples).
    fn deque_tasks(&self) -> usize {
        let orphans = self.f().map_or(0, |f| f.orphans.len());
        self.buf.deques.iter().map(|d| d.len()).sum::<usize>() + orphans
    }

    /// The first round `≥ round` in which an idle worker might acquire
    /// something; `round` itself if one might right now.
    ///
    /// Idle workers are locked out while nobody is idle; or while the queue
    /// and every deque are empty, so every steal fails; or (unit-step
    /// steal-k with a non-empty queue but nothing stealable) while every
    /// idle worker is still short of its `k` failed steals. The lockout
    /// ends with the next arrival, or the round after the next completion
    /// (nodes enabled in round `r` are published at the end of `r`).
    ///
    /// Under faults each idle worker's lockout is its own: it ends at the
    /// worker's first execution round in which it could acquire (stalled
    /// and gate-shut rounds do not count), and no later than the next
    /// crash or stall edge.
    fn idle_lockout(&self, round: Round, next_arrival_round: Round) -> Round {
        let m = self.m();
        let busy = self.buf.busy.count();
        let event = self.min_done.saturating_add(1).min(next_arrival_round);
        let stealable = self.stealable();
        if let Some(f) = self.f() {
            let anywhere = stealable || !f.orphans.is_empty();
            let burn = self.cfg.steal_cost == StealCost::UnitStep;
            let mut end = event.min(self.edge_after(round));
            self.buf.busy.for_each_clear(m, |p| {
                let now = anywhere || !self.buf.deques[p].is_empty();
                if now || !self.buf.queue.is_empty() {
                    // A unit-step thief first burns the misses it is short of.
                    let short = if now || !burn {
                        0
                    } else {
                        self.k.saturating_sub(self.buf.failed_steals[p])
                    };
                    end = end.min(f.nth_exec(p, round, short + 1));
                }
            });
            end
        } else if busy == m || (busy > 0 && self.buf.queue.is_empty() && !stealable) {
            event
        } else if self.cfg.steal_cost == StealCost::UnitStep
            && self.k > 0
            && !self.buf.queue.is_empty()
            && !stealable
        {
            let mut burn = u64::MAX;
            self.buf.busy.for_each_clear(m, |p| {
                burn = burn.min(self.k.saturating_sub(self.buf.failed_steals[p]));
            });
            event.min(round.saturating_add(burn))
        } else {
            round
        }
    }

    /// Advance idle workers across the uneventful rounds `[round, t)`:
    /// every steal attempt in the span fails, so counters move
    /// arithmetically and the per-attempt state (RNG draws, scan cursors)
    /// is consumed in bulk, landing exactly where per-round stepping would
    /// leave it. Busy workers need nothing: `done[p]` already says when
    /// they finish. Under faults an idle worker acts only in its execution
    /// rounds of the span.
    fn jump(&mut self, round: Round, t: Round) {
        let m = self.m();
        let idle = (m - self.buf.busy.count()) as u64;
        if idle == 0 {
            return;
        }
        let delta = t - round;
        let unit_step = self.cfg.steal_cost == StealCost::UnitStep;
        // Steal attempts per acting round.
        let per_round = match (unit_step, self.k) {
            (true, _) => 1,
            (false, 0) => 2 * m as u64,
            (false, k) => k,
        };
        let scan = m > 1 && self.cfg.victim == VictimStrategy::RoundRobinScan;
        // Idle-worker rounds spent acting (and missing) in the span.
        let mut acted = delta * idle;
        if F || scan || unit_step || !self.wobs.is_empty() {
            acted = 0;
            let faults = self.faults.as_deref().filter(|_| F);
            self.buf.busy.for_each_clear(m, |p| {
                let rounds = faults.map_or(delta, |f| f.exec_rounds(p, round, t));
                let attempts = rounds * per_round;
                acted += rounds;
                if scan {
                    self.buf.scan_next[p] = advance_scan(self.buf.scan_next[p], p, m, attempts);
                }
                if unit_step {
                    // A failed unit-cost steal consumes the round and bumps
                    // the failure counter.
                    self.buf.failed_steals[p] = self.buf.failed_steals[p].saturating_add(rounds);
                }
                if let Some(o) = self.wobs.get_mut(p) {
                    o.steal_attempts += attempts;
                    if unit_step {
                        o.failed_steal_rounds += rounds;
                        o.max_failed_streak = o.max_failed_streak.max(self.buf.failed_steals[p]);
                    } else {
                        o.idle_steps += rounds;
                    }
                }
            });
        }
        self.stats.steal_attempts += acted * per_round;
        if !unit_step {
            // Free attempts cost nothing; the round itself is idle.
            self.stats.idle_steps += acted;
        }
        if m > 1 && self.cfg.victim == VictimStrategy::Uniform {
            burn_uniform_draws(&mut self.rng, m, acted * per_round);
        }
    }

    /// Account the fault side of rounds `[round, next)`
    /// ([`FaultState::advance`]).
    fn advance_faults(&mut self, round: Round, next: Round, quiescent: bool) {
        if let Some(f) = self.faults.as_deref_mut().filter(|_| F) {
            f.advance(round, next, quiescent, &mut self.stats.faulted_steps);
        }
    }
}

/// The work-stealing loop, event-driven: the one stepper behind every
/// `run_worksteal_stream*` entry point and (over [`InstanceReplay`])
/// behind `run_worksteal*` and `run_batched`, whatever the fault plan.
/// Panics on a plan that fails [`crate::FaultPlan::validate`] for `m`.
pub(crate) fn step_worksteal<S: JobStream>(
    puller: Puller<'_, S>,
    config: &SimConfig,
    policy: StealPolicy,
    seed: u64,
    sink: &mut dyn FnMut(&JobOutcome),
    obs: bool,
    buf: &mut WsBuffers,
) -> Result<(StreamSummary, Option<ScheduleTrace>, Vec<WorkerObs>), StreamError> {
    if config.faults.is_empty() {
        step_lanes::<S, false>(puller, config, policy, seed, sink, obs, buf)
    } else {
        step_lanes::<S, true>(puller, config, policy, seed, sink, obs, buf)
    }
}

/// The body of [`step_worksteal`], once per fault-plan kind.
///
/// Each time step of each worker is either a unit of work on the node it
/// already holds or a steal/admit decision, and only the second kind is
/// observable. So an explicit round visits only the idle workers and those
/// whose node finishes in it (`done[p] == round`), in ascending index order
/// — exactly the order, deque states and RNG draws the per-round loop
/// (`run_worksteal_reference`) produces, since the skipped workers touch
/// nothing a visited one can see. While no idle worker can acquire anything
/// ([`WsLanes::idle_lockout`]) the idle ones are not visited either: the
/// engine jumps straight to the next completion or arrival, and in a
/// completion round inside the lockout only the completing workers act.
/// A fault-free traced run steps exactly so: one row, kept across rounds,
/// says what each worker does when not visited — work on its `cur` node,
/// or an idle worker's miss (a failed unit-cost steal, an idle round
/// under free steals) — so a jump is one span of that row, and an
/// explicit round rewrites only the workers it visits. A faulted traced
/// run keeps every round explicit and rebuilds its row each round.
///
/// Faults (`F`) add events and masks, not a second loop: crash rounds and
/// stall edges bound every jump, an explicit round visits only the idle
/// workers that act in it (alive, not stalled, gate open), a busy
/// worker's `done` is its gate's, a panic purges the job mid-round and
/// queues the purged holders after the panicking worker for a visit in
/// the same round, and the gates tick in closed form
/// ([`WsLanes::advance_faults`]).
///
/// Returns the per-worker telemetry (empty unless `obs`) next to the
/// summary; entry points emit their own obs reports from it. `buf` is reset
/// on entry and returned warm; the one trace of earlier runs in it is that
/// `retire.cursor_slots` counts every slot of the arena, so the streaming
/// entry points, which report it, start from fresh buffers.
fn step_lanes<S: JobStream, const F: bool>(
    mut puller: Puller<'_, S>,
    config: &SimConfig,
    policy: StealPolicy,
    seed: u64,
    sink: &mut dyn FnMut(&JobOutcome),
    obs: bool,
    buf: &mut WsBuffers,
) -> Result<(StreamSummary, Option<ScheduleTrace>, Vec<WorkerObs>), StreamError> {
    let m = config.m;
    let speed = config.speed;
    let k = policy.k() as u64;
    // The run owns the buffers and hands them back at the end: addressing
    // the columns through a reference in the hot loop measured ~5 % slower
    // (`sim_fig2`). An error return drops them, which costs the caller
    // nothing but warm capacity.
    let mut owned = std::mem::take(buf);
    owned.reset(m);
    let mut st = WsLanes::<F> {
        cfg: config,
        k,
        rng: SmallRng::seed_from_u64(seed),
        buf: owned,
        min_done: Round::MAX,
        stats: EngineStats::default(),
        wobs: if obs {
            vec![WorkerObs::default(); m]
        } else {
            Vec::new()
        },
        live_admitted: 0,
        completed: 0,
        max_flow: Rational::ZERO,
        faults: None,
    };
    // A fault-free cap stays as it is: (1, 0).
    let mut stretch = (1, 0);
    if F {
        let plan = config.faults.simulated(m);
        stretch = plan.cap_stretch(m);
        st.faults = Some(Box::new(FaultState::new(plan, m, seed)));
    }
    let mut trace = config.record_trace.then(|| ScheduleTrace::new(m, speed));
    let miss = match config.steal_cost {
        StealCost::UnitStep => Action::Steal { hit: false },
        StealCost::Free => Action::Idle,
    };
    let mut row: Vec<u64> = vec![trace::cell(miss); if trace.is_some() { m } else { 0 }];
    // Visited workers whose action may not be what they do next round
    // unvisited: one that acquired, stole (a hit works the node from the
    // next round) or completed.
    let mut stale: Vec<usize> = Vec::new();
    let mut samples: Vec<BacklogSample> = Vec::new();
    let se = config.sample_every;

    let mut released: u64 = 0;
    let mut round: Round = 0;
    let mut last_busy_round: Round = 0;

    // Rounds with admitted live work always execute ≥ 1 unit; rounds with
    // only queued jobs admit within ≤ k+1 rounds; quiescent gaps are
    // skipped. Anything past this cap is an engine bug. Computed over the
    // pulled prefix: every round the engine can reach is justified by jobs
    // already pulled, so recomputing after each pull keeps the invariant.
    // Saturating, so a plan whose stalls reach the end of time cannot wrap
    // it.
    let cap = |p: &Puller<'_, S>| -> Round {
        let base = speed
            .first_round_at_or_after(p.last_arrival)
            .saturating_add(p.total_work)
            .saturating_add((k + 2).saturating_mul(p.produced + m as Round))
            .saturating_add(64);
        base.saturating_mul(stretch.0).saturating_add(stretch.1)
    };
    let mut safety_cap: Round = cap(&puller);
    // `arrived_by_round(a, r) ⇔ r ≥ first_round_at_or_after(a)`, so one
    // division per pulled job replaces a wide multiply per round.
    let arrival_round = |p: &Puller<'_, S>| -> Round {
        p.pending.as_ref().map_or(Round::MAX, |(_, job)| {
            speed.first_round_at_or_after(job.arrival)
        })
    };
    let mut next_arrival_round = arrival_round(&puller);

    while puller.pending.is_some() || st.completed < released {
        assert!(
            round <= safety_cap && round < Round::MAX,
            "work-stealing engine exceeded round cap"
        );

        // Crashes fire at the start of their round, in worker order.
        while let Some(p) = st.f().and_then(|f| f.crash_due(round)) {
            st.crash(p, round);
            st.rescan_due();
        }

        // Release arrivals into the global FIFO queue, pulling the next
        // job after each release (one-job lookahead).
        while next_arrival_round <= round {
            let (jid, job) = puller.pending.take().expect("pending arrival"); // lint: allow(panicking) invariant: next_arrival_round is finite only while a job is pending
            let sid = st.buf.slab.alloc(Slot {
                job: Job::weighted(jid, job.arrival, job.weight, job.dag),
                cursor: None,
                started: None,
            });
            st.buf.queue.push_back(sid);
            released += 1;
            puller.advance()?;
            safety_cap = cap(&puller);
            next_arrival_round = arrival_round(&puller);
        }

        if se > 0 && round.is_multiple_of(se) {
            samples.push(BacklogSample {
                round,
                queued: st.buf.queue.len(),
                live: st.live_admitted,
                deque_tasks: st.deque_tasks(),
            });
        }

        // Quiescent fast-forward: nothing admitted is live and nothing is
        // queued — skip to the next arrival (or crash). The skipped rounds
        // would be failed steal attempts of the live workers; count every
        // one of them. Backlog samples inside the gap are still emitted
        // (empty by construction) so sampled series stay evenly spaced.
        let quiescent = st.live_admitted == 0 && st.buf.queue.is_empty();
        let mut locked_until = next_arrival_round;
        if quiescent {
            // `completed == released` here, so the loop condition
            // guarantees a pending job exists.
            debug_assert!(next_arrival_round > round && next_arrival_round != Round::MAX);
            locked_until = locked_until.min(st.edge_after(round));
            let gap = locked_until - round;
            let alive = st.f().map_or(m, |f| f.alive.count());
            st.stats.idle_steps += gap * alive as u64;
            for p in 0..m {
                if st.f().is_some_and(|f| !f.alive.get(p)) {
                    continue;
                }
                let f = st.buf.failed_steals[p].saturating_add(gap);
                st.buf.failed_steals[p] = f;
                if let Some(o) = st.wobs.get_mut(p) {
                    o.failed_steal_rounds += gap;
                    o.idle_steps += gap;
                    o.max_failed_streak = o.max_failed_streak.max(f);
                }
            }
            if let Some(t) = trace.as_mut() {
                t.push_idle_rounds(gap);
            }
        } else {
            if let Some(f) = st.faults.as_deref_mut().filter(|_| F) {
                f.begin_round(round);
            }
            // A faulted traced run keeps every round explicit and every
            // worker visited (its certifier skips it).
            locked_until = if F && trace.is_some() {
                round
            } else {
                st.idle_lockout(round, next_arrival_round)
            };
        }
        let t = locked_until.min(st.min_done);
        if t > round {
            if !quiescent {
                st.jump(round, t);
                last_busy_round = t - 1;
                if let Some(tr) = trace.as_mut() {
                    tr.push_cells(&row, t - round);
                }
            }
            st.advance_faults(round, t, quiescent);
            // Backlog state is constant at the top of every round of the
            // span, so interior samples all read the same values.
            if let Some(periods) = round.checked_div(se) {
                let (queued, live) = (st.buf.queue.len(), st.live_admitted);
                let deque_tasks = st.deque_tasks();
                let mut s = (periods + 1) * se;
                while s < t {
                    samples.push(BacklogSample {
                        round: s,
                        queued,
                        live,
                        deque_tasks,
                    });
                    s += se;
                }
            }
            round = t;
            continue;
        }

        // Explicit round: idle and completing workers act, in index order
        // — unless the idle ones are locked out through this round too, in
        // which case theirs is one more forced miss and only the completing
        // workers are visited. Under faults only the workers that act in
        // this round count as idle, and purged holders join mid-round.
        let idle_locked = locked_until > round;
        if idle_locked {
            st.jump(round, round + 1);
        }
        let completions = st.min_done == round;
        if F && trace.is_some() {
            row.clear();
            row.extend((0..m).map(|p| trace::cell(st.unvisited(p, Action::Idle))));
        }
        for wi in 0..st.buf.busy.words().len() {
            let mut idle = if idle_locked {
                0
            } else {
                !st.buf.busy.words()[wi] & BitWords::valid_mask(wi, m)
            };
            let due = if completions {
                st.buf.due.words()[wi]
            } else {
                0
            };
            let mut w = idle | due;
            if let Some(f) = st.faults.as_deref_mut().filter(|_| F) {
                idle &= f.act.words()[wi];
                w = idle | due | f.revisit.take_word(wi);
            }
            while w != 0 {
                let p = (wi << 6) | w.trailing_zeros() as usize;
                w &= w - 1;
                let action = st.visit(p, round, sink);
                if trace.is_some() {
                    row[p] = trace::cell(action);
                    stale.extend((action != miss).then_some(p));
                }
                if let Some(f) = st.faults.as_deref_mut().filter(|_| F) {
                    w |= f.revisit.take_word(wi);
                }
            }
        }
        // Publish deferred pushes (bottom of the owner's deque, in enable
        // order): nodes enabled in round r are first runnable in r + 1.
        for &(p, sid, u) in st.buf.pending.iter() {
            st.buf.deques[p].push_back((sid, u));
            st.buf.deque_ne.set(p);
        }
        st.buf.pending.clear();
        if completions || F {
            st.rescan_due();
        }
        st.advance_faults(round, round + 1, false);
        last_busy_round = round;
        if let Some(t) = trace.as_mut() {
            t.push_cells(&row, 1);
            for p in stale.drain(..) {
                row[p] = trace::cell(st.unvisited(p, miss));
            }
        }
        round += 1;
    }

    let retire = RetirementStats {
        jobs_retired: st.completed,
        live_jobs_high_water: st.buf.slab.high_water,
        slab_slots: st.buf.slab.slots.len() as u64,
        cursor_slots: st.buf.arena.capacity() as u64,
    };
    let summary = StreamSummary {
        m,
        speed,
        total_rounds: last_busy_round + 1,
        jobs: st.completed,
        stats: st.stats,
        samples,
        max_flow: st.max_flow,
        retire,
        fault_events: st.faults.map_or_else(Vec::new, |f| f.events),
    };
    *buf = st.buf;
    Ok((summary, trace, st.wobs))
}

/// Simulate a centralized priority scheduler over a [`JobStream`] —
/// the streaming counterpart of [`crate::run_priority`], bit-identical on
/// instance replays, O(active + m) live memory. Outcomes go to `sink` in
/// completion order; `config.faults` must be empty. `rec` gets the same
/// `central.*` taxonomy as the materialized engine plus `central.stream.*`
/// retirement counters (no per-job `central.flow_ticks` samples — sample
/// from the sink).
pub fn run_priority_stream<P: JobPriority, S: JobStream>(
    stream: &mut S,
    config: &SimConfig,
    policy: &P,
    sink: &mut dyn FnMut(&JobOutcome),
    rec: &mut dyn Recorder,
) -> Result<(StreamSummary, Option<ScheduleTrace>), StreamError> {
    if !config.faults.is_empty() {
        return Err(StreamError::FaultsUnsupported);
    }
    let puller = Puller::new(stream, 0)?;
    let (summary, trace, horizons) = step_priority(puller, config, policy, sink)?;
    if rec.enabled() {
        emit_central_counters(rec, &summary.stats, summary.total_rounds, horizons);
        let retire = &summary.retire;
        rec.counter("central.stream.jobs_retired", retire.jobs_retired);
        rec.counter(
            "central.stream.live_jobs_high_water",
            retire.live_jobs_high_water,
        );
        rec.counter("central.stream.slab_slots", retire.slab_slots);
        rec.counter("central.stream.cursor_slots", retire.cursor_slots);
        if let Some(r) = retire.slab_reuse_ratio() {
            rec.gauge("central.stream.slab_reuse_ratio", r);
        }
    }
    Ok((summary, trace))
}

/// Event-horizon telemetry of a centralized run. Kept out of
/// [`EngineStats`], which goldens bit-compare.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct HorizonObs {
    /// Bulk steps taken (one assignment each).
    horizons: u64,
    /// Fast-forwards over rounds with no active job.
    quiescent_jumps: u64,
}

/// Emit the `central.*` counters every centralized entry point reports.
pub(crate) fn emit_central_counters(
    rec: &mut dyn Recorder,
    stats: &EngineStats,
    total_rounds: Round,
    obs: HorizonObs,
) {
    rec.counter("central.work_steps", stats.work_steps);
    rec.counter("central.idle_steps", stats.idle_steps);
    rec.counter("central.event_horizons", obs.horizons);
    rec.counter("central.quiescent_jumps", obs.quiescent_jumps);
    rec.gauge("central.total_rounds", total_rounds as f64);
}

/// The centralized priority-list loop: the one stepper behind
/// `run_priority_stream` and (over [`InstanceReplay`]) behind
/// `run_priority*`. Fault plans are not its business: it never reads
/// `config.faults`.
///
/// At the start of a round the active jobs are walked in priority order
/// and handed processors: one per ready node, until processors or ready
/// nodes run out. The rule depends only on the active set and the jobs'
/// ready frontiers, so between two consecutive events (an arrival or the
/// completion of a claimed node) every round repeats the same assignment.
/// The loop therefore steps by **event horizons**: it computes the
/// assignment once, derives the span `Δ = min(next arrival, earliest node
/// completion)` and consumes all `Δ` rounds in one bulk update —
/// bit-identical to the round-by-round `run_priority_reference`, in
/// `O(events)` instead of `O(rounds)` assignment work. A traced run
/// labels processors stickily: a node keeps the processor it ran on in
/// the previous round, so it runs as one per-worker run until it
/// completes or is preempted, and new claims fill the free processors in
/// claim order (a per-node label names the processor the node last got,
/// and holds while the previous row's cell there is the node's own).
pub(crate) fn step_priority<P: JobPriority, S: JobStream>(
    mut puller: Puller<'_, S>,
    config: &SimConfig,
    policy: &P,
    sink: &mut dyn FnMut(&JobOutcome),
) -> Result<(StreamSummary, Option<ScheduleTrace>, HorizonObs), StreamError> {
    let m = config.m;
    let speed = config.speed;

    // Cursor state lives in a recycled arena and jobs in a free-listed
    // slab: a slot is taken at arrival and released at completion, so both
    // are bounded by peak concurrent jobs, not by the stream's length.
    let mut arena = CursorArena::new();
    let mut slab = JobSlab::default();
    // Active jobs as (key, slot id), kept sorted ascending by key.
    let mut active: Vec<((u64, u64, u32), u32)> = Vec::new();
    let mut claimed: Vec<(u32, JobId, NodeId)> = Vec::new();
    let mut ready_buf: Vec<NodeId> = Vec::new();
    let mut ready_scratch: Vec<NodeId> = Vec::new();
    let mut stats = EngineStats::default();
    let mut trace = config.record_trace.then(|| ScheduleTrace::new(m, speed));
    // Tracing only: this horizon's row and the previous one's, the
    // claims that take a free processor, and per slab slot and node the
    // processor the node last ran on.
    let (mut cells, mut before): (Vec<u64>, Vec<u64>) = Default::default();
    let mut fresh: Vec<usize> = Vec::new();
    let mut labels: Vec<Vec<usize>> = Vec::new();
    let mut obs = HorizonObs::default();

    let mut released: u64 = 0;
    let mut completed: u64 = 0;
    let mut round: Round = 0;
    let mut last_busy_round: Round = 0;
    let mut max_flow = Rational::ZERO;

    // Every round with an active job executes at least one unit, so this
    // bound can only be exceeded by an engine bug. Computed over the pulled
    // prefix, like the work-stealing stepper's.
    let cap = |p: &Puller<'_, S>| -> Round {
        speed.first_round_at_or_after(p.last_arrival) + p.total_work + p.produced + 16
    };
    let mut safety_cap: Round = cap(&puller);

    while puller.pending.is_some() || completed < released {
        assert!(round <= safety_cap, "centralized engine exceeded round cap");

        // Activate arrivals visible at the start of this round.
        while puller
            .pending
            .as_ref()
            .is_some_and(|(_, job)| speed.arrived_by_round(job.arrival, round))
        {
            let (jid, job) = puller.pending.take().expect("pending arrival"); // lint: allow(panicking) presence checked by the loop condition
            let job = Job::weighted(jid, job.arrival, job.weight, job.dag);
            let key = policy.key(&job);
            let cursor = Some(arena.alloc(&job.dag));
            let sid = slab.alloc(Slot {
                job,
                cursor,
                started: None,
            });
            if trace.is_some() {
                let at = sid as usize;
                if labels.len() <= at {
                    labels.resize_with(at + 1, Vec::new);
                }
                let nodes = slab.get(sid).job.dag.num_nodes();
                if labels[at].len() < nodes {
                    labels[at].resize(nodes, 0);
                }
            }
            let pos = active.partition_point(|&(k, _)| k < key);
            active.insert(pos, (key, sid));
            released += 1;
            puller.advance()?;
            safety_cap = cap(&puller);
        }

        if active.is_empty() {
            // Quiescent: fast-forward to the next arrival (run-length
            // encoded as one idle span when tracing).
            let (_, job) = puller
                .pending
                .as_ref()
                .expect("no active jobs but none left to arrive"); // lint: allow(panicking) invariant: loop condition guarantees a pending arrival when nothing is active
            let target = speed.first_round_at_or_after(job.arrival);
            debug_assert!(target > round);
            let gap = target - round;
            stats.idle_steps += gap * m as u64;
            obs.quiescent_jumps += 1;
            if let Some(t) = trace.as_mut() {
                t.push_idle_rounds(gap);
            }
            round = target;
            continue;
        }

        // Assignment phase: walk jobs in priority order, claim ready nodes.
        claimed.clear();
        let mut avail = m;
        for &(_, sid) in active.iter() {
            if avail == 0 {
                break;
            }
            let slot = slab.get(sid);
            let jid = slot.job.id;
            let cid = slot.cursor.expect("active job has cursor"); // lint: allow(panicking) invariant: every active job owns an arena cursor until completion
            let cursor = arena.get_mut(cid);
            ready_buf.clear();
            ready_buf.extend_from_slice(cursor.ready_nodes());
            // Deterministic choice of the "arbitrary set of ready nodes".
            ready_buf.sort_unstable();
            for &v in ready_buf.iter().take(avail) {
                cursor.claim(v).expect("ready node claimable"); // lint: allow(panicking) invariant: nodes entering the ready set are unclaimed
                claimed.push((sid, jid, v));
            }
            avail -= ready_buf.len().min(avail);
        }
        debug_assert!(!claimed.is_empty(), "active jobs must yield ready nodes");

        // Event horizon: the assignment repeats verbatim until a claimed
        // node completes or the pending job arrives, whichever is first.
        let mut delta: Round = claimed
            .iter()
            .map(|&(sid, _, v)| {
                let cid = slab.get(sid).cursor.expect("cursor"); // lint: allow(panicking) invariant: active jobs always own a cursor
                arena
                    .get(cid)
                    .remaining_work(v)
                    .expect("claimed node in range") // lint: allow(panicking) invariant: claimed nodes index this job DAG
            })
            .min()
            .expect("claimed non-empty"); // lint: allow(panicking) claim set verified non-empty above
        if let Some((_, job)) = puller.pending.as_ref() {
            // ≥ 1: everything due by `round` was activated above.
            delta = delta.min(speed.first_round_at_or_after(job.arrival) - round);
        }
        debug_assert!(delta >= 1);
        let last = round + delta - 1;

        // Execution phase: `delta` units on every claimed node. Nodes
        // whose remaining work equals `delta` complete during the final
        // round of the span, exactly where the reference engine completes
        // them; everything else is released for the next assignment.
        for &(sid, _, v) in claimed.iter() {
            let slot = slab.get_mut(sid);
            slot.started.get_or_insert(round);
            let cid = slot.cursor.expect("cursor"); // lint: allow(panicking) invariant: active jobs always own a cursor
            let cursor = arena.get_mut(cid);
            ready_scratch.clear();
            match cursor
                .execute_units(&slot.job.dag, v, delta, &mut ready_scratch)
                .expect("claimed node executes") // lint: allow(panicking) invariant: execute targets were claimed this round
            {
                StepOutcome::InProgress => {
                    cursor.release(v).expect("in-progress node releases"); // lint: allow(panicking) invariant: release follows the successful claim above
                }
                StepOutcome::NodeCompleted {
                    job_completed: false,
                } => {}
                StepOutcome::NodeCompleted {
                    job_completed: true,
                } => {
                    // Only a job's last claimed node of the horizon can
                    // complete it, so no later `claimed` entry touches
                    // these slots — safe to recycle now.
                    arena.release(cid);
                    let pos = active
                        .iter()
                        .position(|&(_, s)| s == sid)
                        .expect("completed job was active"); // lint: allow(panicking) invariant: a completing job sits in the active list exactly once
                    active.remove(pos);
                    let slot = slab.retire(sid);
                    completed += 1;
                    let out = JobOutcome {
                        job: slot.job.id,
                        arrival: slot.job.arrival,
                        weight: slot.job.weight,
                        start_round: slot.started.expect("job executed"), // lint: allow(panicking) invariant: start_round is recorded before any execution
                        completion_round: last,
                        flow: speed.flow_time(slot.job.arrival, last),
                        status: JobStatus::Completed,
                    };
                    max_flow = max_flow.max(out.flow);
                    sink(&out);
                }
            }
        }

        stats.work_steps += delta * claimed.len() as u64;
        stats.idle_steps += delta * (m - claimed.len()) as u64;
        obs.horizons += 1;
        last_busy_round = last;

        if let Some(t) = trace.as_mut() {
            // A node that ran in the previous round keeps its processor:
            // its label names the processor whose cell there is its own.
            // A label left by another job, or by this node before it was
            // preempted, names a cell that is not. New claims take the
            // free processors in claim order.
            cells.clear();
            cells.resize(m, trace::IDLE);
            fresh.clear();
            for (i, &(sid, job, node)) in claimed.iter().enumerate() {
                let c = trace::cell(Action::Work { job, node });
                let p = labels[sid as usize][node as usize];
                if before.get(p) == Some(&c) {
                    cells[p] = c;
                } else {
                    fresh.push(i);
                }
            }
            let mut free = 0;
            for &i in &fresh {
                let (sid, job, node) = claimed[i];
                while cells[free] != trace::IDLE {
                    free += 1;
                }
                cells[free] = trace::cell(Action::Work { job, node });
                labels[sid as usize][node as usize] = free;
            }
            t.push_cells(&cells, delta);
            std::mem::swap(&mut cells, &mut before);
        }

        round += delta;
    }

    let retire = RetirementStats {
        jobs_retired: completed,
        live_jobs_high_water: slab.high_water,
        slab_slots: slab.slots.len() as u64,
        cursor_slots: arena.capacity() as u64,
    };
    let summary = StreamSummary {
        m,
        speed,
        total_rounds: last_busy_round + 1,
        jobs: completed,
        stats,
        samples: Vec::new(),
        max_flow,
        retire,
        fault_events: Vec::new(),
    };
    Ok((summary, trace, obs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::Fifo;
    use parflow_dag::shapes;

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
    fn replay_matches_materialized_worksteal() {
        let inst = inst_seq(&[(0, 7), (0, 3), (4, 9), (10, 1), (10, 6)]);
        let cfg = SimConfig::new(2);
        let (batch, _) = crate::run_worksteal(&inst, &cfg, StealPolicy::StealKFirst { k: 2 }, 9);
        let mut outs = Vec::new();
        let mut replay = InstanceReplay::new(&inst);
        let (sum, _) = run_worksteal_stream(
            &mut replay,
            &cfg,
            StealPolicy::StealKFirst { k: 2 },
            9,
            &mut |o| outs.push(o.clone()),
        )
        .expect("streams cleanly");
        assert_eq!(sum.stats, batch.stats);
        assert_eq!(sum.total_rounds, batch.total_rounds);
        assert_eq!(sum.max_flow, batch.max_flow());
        assert_eq!(sum.jobs, inst.len() as u64);
        // Outcomes arrive in completion order; compare as sets keyed by id.
        outs.sort_by_key(|o| o.job);
        assert_eq!(outs, batch.outcomes);
    }

    #[test]
    fn replay_matches_materialized_centralized() {
        let inst = inst_seq(&[(0, 5), (2, 2), (2, 8), (9, 4)]);
        let cfg = SimConfig::new(3);
        let (batch, _) = crate::run_priority(&inst, &cfg, &Fifo);
        let mut outs = Vec::new();
        let mut replay = InstanceReplay::new(&inst);
        let (sum, _) = run_priority_stream(
            &mut replay,
            &cfg,
            &Fifo,
            &mut |o| outs.push(o.clone()),
            &mut NullRecorder,
        )
        .expect("streams cleanly");
        assert_eq!(sum.stats, batch.stats);
        assert_eq!(sum.total_rounds, batch.total_rounds);
        assert_eq!(sum.max_flow, batch.max_flow());
        outs.sort_by_key(|o| o.job);
        assert_eq!(outs, batch.outcomes);
    }

    #[test]
    fn empty_stream_is_one_idle_round() {
        let inst = Instance::new(Vec::new());
        let mut replay = InstanceReplay::new(&inst);
        let (sum, _) = run_worksteal_stream(
            &mut replay,
            &SimConfig::new(2),
            StealPolicy::AdmitFirst,
            1,
            &mut |_| {},
        )
        .expect("empty stream is fine");
        assert_eq!(sum.total_rounds, 1);
        assert_eq!(sum.jobs, 0);
        assert_eq!(sum.max_flow, Rational::ZERO);
        assert_eq!(sum.retire, RetirementStats::default());
    }

    #[test]
    fn slab_recycles_slots() {
        // Jobs spaced far apart: at most one is ever live, so the slab
        // should end with exactly one slot regardless of job count.
        let inst = inst_seq(&[(0, 3), (100, 3), (200, 3), (300, 3)]);
        let mut replay = InstanceReplay::new(&inst);
        let (sum, _) = run_worksteal_stream(
            &mut replay,
            &SimConfig::new(2),
            StealPolicy::AdmitFirst,
            5,
            &mut |_| {},
        )
        .expect("streams cleanly");
        assert_eq!(sum.retire.jobs_retired, 4);
        assert_eq!(sum.retire.live_jobs_high_water, 1);
        assert_eq!(sum.retire.slab_slots, 1);
        assert_eq!(sum.retire.cursor_slots, 1);
        assert_eq!(sum.retire.slab_reuse_ratio(), Some(0.75));
    }

    #[test]
    fn too_many_jobs_is_checked_at_the_boundary() {
        // Stream 5 jobs with ids starting 3 below u32::MAX: the 4th pull
        // would need id 2^32 and must fail before any materialization.
        let inst = inst_seq(&[(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)]);
        let mut replay = InstanceReplay::new(&inst);
        let err = run_worksteal_stream_with_base(
            &mut replay,
            &SimConfig::new(1),
            StealPolicy::AdmitFirst,
            1,
            &mut |_| {},
            &mut NullRecorder,
            u32::MAX as u64 - 2,
        )
        .expect_err("id space must overflow");
        assert_eq!(err, StreamError::TooManyJobs(u32::MAX as u64 + 1));
    }

    #[test]
    fn ids_that_end_exactly_at_u32_max_run_the_base_zero_schedule() {
        // Six jobs from base MAX - 5 fill the id space exactly; the run is
        // the base-0 schedule with every outcome id shifted by the base.
        let inst = inst_seq(&[(0, 3), (4, 3), (8, 3), (12, 3), (16, 3), (20, 3)]);
        let run = |base: u64| {
            let mut ids = Vec::new();
            let (sum, _) = run_worksteal_stream_with_base(
                &mut InstanceReplay::new(&inst),
                &SimConfig::new(2),
                StealPolicy::StealKFirst { k: 2 },
                7,
                &mut |o| ids.push(o.job as u64 - base),
                &mut NullRecorder,
                base,
            )
            .expect("ids fit in u32");
            (sum, ids)
        };
        let top = u32::MAX as u64 - 5;
        let ((sum_top, ids_top), (sum_zero, ids_zero)) = (run(top), run(0));
        assert_eq!(sum_top.stats, sum_zero.stats);
        assert_eq!(sum_top.max_flow, sum_zero.max_flow);
        assert_eq!(sum_top.total_rounds, sum_zero.total_rounds);
        assert_eq!(ids_top, ids_zero);
        assert_eq!(ids_top.iter().max(), Some(&5));
    }

    #[test]
    fn unsorted_stream_is_rejected() {
        struct Unsorted(u32);
        impl JobStream for Unsorted {
            fn next_job(&mut self) -> Option<StreamedJob> {
                self.0 += 1;
                (self.0 <= 2).then(|| StreamedJob {
                    arrival: if self.0 == 1 { 10 } else { 5 },
                    weight: 1,
                    dag: Arc::new(shapes::single_node(1)),
                })
            }
        }
        let err = run_worksteal_stream(
            &mut Unsorted(0),
            &SimConfig::new(1),
            StealPolicy::AdmitFirst,
            1,
            &mut |_| {},
        )
        .expect_err("unsorted arrivals must be rejected");
        assert_eq!(err, StreamError::UnsortedArrivals { index: 1 });
    }

    #[test]
    fn faults_stream_on_work_stealing_only() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan::none().crash(1, 2).with_panic_ppm(300_000);
        let cfg = SimConfig::new(2).with_faults(plan);
        let inst = inst_seq(&[(0, 4), (1, 3), (1, 5), (6, 2)]);
        let err = run_priority_stream(
            &mut InstanceReplay::new(&inst),
            &cfg,
            &Fifo,
            &mut |_| {},
            &mut NullRecorder,
        )
        .expect_err("the centralized engines model a reliable machine");
        assert_eq!(err, StreamError::FaultsUnsupported);
        let policy = StealPolicy::AdmitFirst;
        let (batch, _) = crate::run_worksteal(&inst, &cfg, policy, 1);
        let mut outs = Vec::new();
        let mut replay = InstanceReplay::new(&inst);
        let (sum, _) =
            run_worksteal_stream(&mut replay, &cfg, policy, 1, &mut |o| outs.push(o.clone()))
                .expect("faults stream");
        outs.sort_by_key(|o| o.job);
        assert_eq!(outs, batch.outcomes);
        assert_eq!(sum.fault_events, batch.fault_events);
        assert_eq!(sum.stats, batch.stats);
        assert_eq!(sum.stats.crashed_workers, 1);
    }

    #[test]
    fn opt_tap_tracks_batch_bound() {
        let inst = inst_seq(&[(0, 6), (1, 2), (5, 4)]);
        let m = 2;
        let mut tap = OptTap::new(InstanceReplay::new(&inst), m);
        let (_, _) = run_worksteal_stream(
            &mut tap,
            &SimConfig::new(m),
            StealPolicy::AdmitFirst,
            3,
            &mut |_| {},
        )
        .expect("streams cleanly");
        assert_eq!(tap.opt().opt_max_flow(), crate::opt_max_flow(&inst, m));
        assert_eq!(
            tap.opt().combined_lower_bound(),
            crate::combined_lower_bound(&inst, m)
        );
    }
}
