//! The multithreaded work-stealing executor.
//!
//! This is the systems-level counterpart of the paper's extended-TBB
//! runtime: per-worker crossbeam deques (LIFO for the owner, FIFO steals
//! from the other end), a global `Injector` used as the FIFO admission
//! queue, and the two admission policies:
//!
//! * **admit-first** — a worker whose deque is empty admits a queued job
//!   whenever one exists and steals only otherwise;
//! * **steal-k-first** — it first makes up to `k` random steal attempts and
//!   admits only after `k` consecutive failures.
//!
//! On admission the worker expands the job's parallel-for into chunk tasks
//! pushed onto its own deque (TBB/Cilk spawn semantics) and immediately
//! executes one.
//!
//! ## Who writes what
//!
//! A chunk of a fault-free run writes nothing another worker writes, apart
//! from its own job's `remaining` count and the deque it came from, and
//! reads no clock unless it is the job's last chunk:
//!
//! * event counts live in one [`WorkerCounters`] slot per worker, on a
//!   cache line of its own, stored to only by that worker; the run totals,
//!   the per-worker report and the watchdog's progress snapshot are all
//!   reads of those slots — there is no second, run-wide set;
//! * everything else in `Shared` that a task touches is read-only after
//!   start-up, except `completed` (one RMW per *job*, by the worker that
//!   finishes it) and `submitted` (one per job, by the submitter);
//! * the loop reads the clock once per iteration only on a worker the
//!   [`FaultPlan`] gives a crash round or a stall window, and once per
//!   chunk only on a worker it slows down; the per-job chunk sequence
//!   number is drawn only when something can panic on purpose (the panic
//!   sampler is armed or the job is `Poison`). These are facts about the
//!   plan the run was given, fixed when the worker thread starts — not
//!   settings — so a faulted worker runs exactly the code it always ran.
//!
//! ## Hardening
//!
//! The executor is panic- and fault-tolerant:
//!
//! * every chunk kernel runs under `catch_unwind`; a panicking chunk marks
//!   its job [`JobStatus::Failed`] and drops the job's remaining tasks, so
//!   one bad job can neither kill a worker thread nor hang the run;
//! * an optional watchdog ([`RuntimeConfig::with_deadline`]) aborts the run
//!   when outstanding jobs make no progress for the configured window,
//!   returning partial results with unfinished jobs marked
//!   [`JobStatus::Aborted`];
//! * a [`FaultPlan`] (shared with the simulator) injects worker crashes —
//!   a crashed worker drains its deque into a global orphan queue that
//!   survivors adopt from — plus slowdowns, stall windows, steal
//!   blackholes, and probabilistic task panics;
//! * [`try_run_workload`] propagates engine errors (a genuinely dead
//!   worker thread, an invalid fault plan) instead of panicking in the
//!   caller's thread.

use crate::task::{spin_kernel, JobShape, JobSpec, JobState, Task, TaskKind};
use crossbeam_deque::{Injector, Steal, Stealer, Worker as Deque};
use parflow_core::{FaultEvent, FaultKind, FaultPlan, JobStatus, PanicSampler, PPM};
use parflow_obs::Recorder;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once, PoisonError};
use std::time::{Duration, Instant};

/// Nanoseconds per simulated round: 1 work unit = 1 tick = 0.1 ms. Used to
/// convert a [`FaultPlan`]'s round-based schedule to wall-clock deadlines
/// and to timestamp runtime [`FaultEvent`]s in round units.
pub const NS_PER_TICK: u64 = 100_000;

/// Admission policy of the real runtime: the simulator's policy type, so
/// a policy name parses once for both.
pub use parflow_core::StealPolicy as RtPolicy;

/// Executor configuration.
///
/// Not `Copy` since the fault plan owns heap-allocated fault lists; clone
/// explicitly where a second copy is needed.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Admission policy.
    pub policy: RtPolicy,
    /// RNG seed for victim selection (also keys the panic sampler).
    pub seed: u64,
    /// Faults to inject; empty by default. Round-based fault times are
    /// mapped to wall-clock at [`NS_PER_TICK`] nanoseconds per round.
    pub faults: FaultPlan,
    /// Watchdog no-progress deadline: if outstanding jobs exist and no
    /// counter moves for this long, the run aborts with partial results.
    /// `None` (default) disables the watchdog.
    pub deadline: Option<Duration>,
}

impl RuntimeConfig {
    /// `workers` threads with the given policy.
    pub fn new(workers: usize, policy: RtPolicy) -> Self {
        assert!(workers > 0, "need at least one worker");
        RuntimeConfig {
            workers,
            policy,
            seed: 0x5eed,
            faults: FaultPlan::none(),
            deadline: None,
        }
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Inject the given faults (validated against `workers` at run start).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Abort the run when outstanding jobs make no progress for `deadline`.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Per-run statistics: the sum of the per-worker counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct RuntimeStats {
    /// Chunk tasks executed.
    pub tasks_executed: u64,
    /// Steal attempts (successful + failed).
    pub steal_attempts: u64,
    /// Successful steals.
    pub successful_steals: u64,
    /// Jobs admitted from the global queue.
    pub admissions: u64,
    /// Chunk executions that panicked (injected or real).
    pub task_panics: u64,
    /// Tasks reinjected into the orphan queue by crashed workers.
    pub orphaned_tasks: u64,
}

/// Per-worker counters: a snapshot, taken after the run, of the slot the
/// worker counted into while it ran. The slot outlives the worker thread,
/// so a worker that crashed — or whose thread died — keeps its counts.
/// [`RuntimeStats`] is computed from the same slots: each of its first five
/// fields is exactly the sum of the field of the same name over workers.
#[derive(Clone, Copy, Debug, Default)]
pub struct RtWorkerStats {
    /// Chunk tasks executed by this worker.
    pub tasks_executed: u64,
    /// Steal attempts made by this worker.
    pub steal_attempts: u64,
    /// Successful steals.
    pub successful_steals: u64,
    /// Jobs this worker admitted from the global queue.
    pub admissions: u64,
    /// Chunk executions on this worker that panicked.
    pub task_panics: u64,
    /// Tasks this worker adopted from the orphan queue.
    pub adopted_orphans: u64,
}

/// Result of one job in a runtime run.
#[derive(Clone, Copy, Debug)]
pub struct RtJobResult {
    /// Job index (submission order).
    pub id: u32,
    /// Wall-clock flow time. For [`JobStatus::Failed`] jobs this is the
    /// time to failure; for [`JobStatus::Aborted`] jobs the time in system
    /// until the abort (zero if the job never arrived).
    pub flow: Duration,
    /// How the job ended.
    pub status: JobStatus,
}

/// Outcome of a whole workload run.
#[derive(Clone, Debug)]
pub struct RuntimeResult {
    /// Per-job results, in submission order.
    pub jobs: Vec<RtJobResult>,
    /// Aggregated counters.
    pub stats: RuntimeStats,
    /// Per-worker counters, indexed by worker id.
    pub worker_stats: Vec<RtWorkerStats>,
    /// Total wall-clock duration of the run.
    pub elapsed: Duration,
    /// True when the watchdog gave up on the run before all jobs finished.
    pub aborted: bool,
    /// Faults that actually fired, timestamped in rounds ([`NS_PER_TICK`]).
    pub fault_events: Vec<FaultEvent>,
}

impl RuntimeResult {
    /// Maximum flow time over all jobs (including failed/aborted ones,
    /// whose flows measure time-to-failure/abort).
    pub fn max_flow(&self) -> Duration {
        self.jobs.iter().map(|j| j.flow).max().unwrap_or_default()
    }

    /// Maximum flow time over *completed* jobs only — the meaningful
    /// objective under fault injection.
    pub fn max_completed_flow(&self) -> Duration {
        self.jobs
            .iter()
            .filter(|j| j.status.is_completed())
            .map(|j| j.flow)
            .max()
            .unwrap_or_default()
    }

    /// Mean flow time.
    pub fn mean_flow(&self) -> Duration {
        if self.jobs.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = self.jobs.iter().map(|j| j.flow).sum();
        // Executor-produced results are bounded by the TooManyJobs guard;
        // saturate instead of truncating for hand-built oversized results.
        total / u32::try_from(self.jobs.len()).unwrap_or(u32::MAX)
    }

    /// True when every job ran to completion.
    pub fn all_completed(&self) -> bool {
        self.jobs.iter().all(|j| j.status.is_completed())
    }

    /// Per-job flow times in milliseconds, submission order.
    pub fn flow_ms(&self) -> Vec<f64> {
        self.jobs
            .iter()
            .map(|j| j.flow.as_secs_f64() * 1e3)
            .collect()
    }

    /// Job-latency histogram: `bins` uniform bins over `[0, max_flow]` in
    /// milliseconds. Returns `None` for an empty run (no bin range).
    pub fn flow_histogram(&self, bins: usize) -> Option<parflow_metrics::Histogram> {
        let flows = self.flow_ms();
        let hi = flows.iter().copied().fold(0.0_f64, f64::max);
        if flows.is_empty() || hi <= 0.0 {
            return None;
        }
        let mut h = parflow_metrics::Histogram::new(0.0, hi * (1.0 + 1e-9), bins);
        h.extend(flows);
        Some(h)
    }

    /// Emit this result into a [`Recorder`]: `rt.*` aggregate counters,
    /// per-worker `rt.worker.*` counters, per-job `rt.job_flow_ms` latency
    /// samples (summarized as a histogram by the aggregating recorder),
    /// fault-recovery event counts and an `rt.elapsed_ms` gauge.
    pub fn observe_into(&self, rec: &mut dyn Recorder) {
        if !rec.enabled() {
            return;
        }
        rec.counter("rt.tasks_executed", self.stats.tasks_executed);
        rec.counter("rt.steal_attempts", self.stats.steal_attempts);
        rec.counter("rt.successful_steals", self.stats.successful_steals);
        rec.counter("rt.admissions", self.stats.admissions);
        rec.counter("rt.task_panics", self.stats.task_panics);
        rec.counter("rt.orphaned_tasks", self.stats.orphaned_tasks);
        rec.counter("rt.aborted", self.aborted as u64);
        for (p, w) in self.worker_stats.iter().enumerate() {
            rec.counter_at("rt.worker.tasks_executed", p, w.tasks_executed);
            rec.counter_at("rt.worker.steal_attempts", p, w.steal_attempts);
            rec.counter_at("rt.worker.successful_steals", p, w.successful_steals);
            rec.counter_at("rt.worker.admissions", p, w.admissions);
            rec.counter_at("rt.worker.task_panics", p, w.task_panics);
            rec.counter_at("rt.worker.adopted_orphans", p, w.adopted_orphans);
        }
        for j in &self.jobs {
            rec.sample("rt.job_flow_ms", j.flow.as_secs_f64() * 1e3);
        }
        for e in &self.fault_events {
            // One counter per fault kind: crash recovery and injection
            // activity becomes visible without a full event dump.
            rec.counter(&format!("rt.fault.{:?}", e.kind), 1);
        }
        rec.gauge("rt.elapsed_ms", self.elapsed.as_secs_f64() * 1e3);
        rec.gauge("rt.workers", self.worker_stats.len() as f64);
    }
}

/// Engine-level failures surfaced by [`try_run_workload`]. These indicate
/// bugs or bad configuration, not job failures (which are reported per-job
/// via [`JobStatus`]).
///
/// `#[non_exhaustive]`: the streaming admission service grows this
/// vocabulary (ingest I/O, queue overflow); downstream matches must keep a
/// wildcard arm so new failure modes cannot silently break callers.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// The fault plan references workers outside `0..workers` or leaves no
    /// worker able to make progress.
    InvalidFaultPlan(String),
    /// A worker thread itself died (its loop is panic-hardened, so this
    /// means an engine bug).
    WorkerPanicked(usize),
    /// The submitter thread died.
    SubmitterPanicked,
    /// The watchdog thread died.
    WatchdogPanicked,
    /// The workload has more jobs than the `u32` dense job-id space can
    /// address. Checked up front so every `index as u32` in the engine is
    /// provably lossless.
    TooManyJobs(usize),
    /// An I/O failure on a runtime-adjacent surface (submission ingest,
    /// report flush). Message only, so the error stays `Eq`-comparable.
    Io(String),
    /// A bounded admission queue was full and the submission was shed.
    /// Surfaced — never a silent drop — so supervisors can count and
    /// re-route sheds.
    ShedOverflow {
        /// The queue bound that was hit.
        capacity: usize,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::InvalidFaultPlan(msg) => write!(f, "invalid fault plan: {msg}"),
            RuntimeError::WorkerPanicked(p) => write!(f, "worker thread {p} panicked"),
            RuntimeError::SubmitterPanicked => write!(f, "submitter thread panicked"),
            RuntimeError::WatchdogPanicked => write!(f, "watchdog thread panicked"),
            RuntimeError::TooManyJobs(n) => {
                write!(f, "workload has {n} jobs; job ids are dense u32 indices")
            }
            RuntimeError::Io(msg) => write!(f, "i/o failure: {msg}"),
            RuntimeError::ShedOverflow { capacity } => {
                write!(
                    f,
                    "admission queue full (capacity {capacity}); submission shed"
                )
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// A failed run together with whatever the engine finished before dying:
/// the `Err` payload of [`try_run_workload`].
///
/// `partial` is `None` only for errors raised before any thread started
/// (an invalid fault plan, an oversized workload). For mid-run failures it
/// holds the salvaged [`RuntimeResult`] — jobs that reached a terminal
/// state keep their real statuses and flows, unfinished ones are marked
/// [`JobStatus::Aborted`] — so a supervisor can re-admit *only* the truly
/// unfinished jobs instead of replaying the whole workload.
#[derive(Clone, Debug)]
pub struct FailedRun {
    /// What went wrong.
    pub error: RuntimeError,
    /// Telemetry for the part of the workload that did run, if any thread
    /// got far enough to produce it. Boxed so the error path stays small
    /// next to the `Ok` payload.
    pub partial: Option<Box<RuntimeResult>>,
}

impl FailedRun {
    /// A failure raised before the engine started (no partial results).
    pub fn before_start(error: RuntimeError) -> Self {
        FailedRun {
            error,
            partial: None,
        }
    }

    /// Ids of jobs that did *not* reach a terminal completed/failed state,
    /// in submission order — the re-admission set for a supervisor.
    pub fn unfinished_jobs(&self) -> Vec<u32> {
        match &self.partial {
            None => Vec::new(),
            Some(r) => r
                .jobs
                .iter()
                .filter(|j| j.status == JobStatus::Aborted)
                .map(|j| j.id)
                .collect(),
        }
    }
}

impl std::fmt::Display for FailedRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.error.fmt(f)
    }
}

impl std::error::Error for FailedRun {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

impl From<FailedRun> for RuntimeError {
    fn from(f: FailedRun) -> RuntimeError {
        f.error
    }
}

/// Payload of deliberately injected chunk panics. The global panic hook is
/// taught (once, lazily) to stay silent for this payload so fault-injection
/// runs do not spray "thread panicked" noise; genuine panics still reach
/// the previous hook untouched.
struct InjectedPanic;

fn silence_injected_panics() {
    static SILENCE: Once = Once::new();
    SILENCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Bounded exponential backoff for workers that find nothing to do: a few
/// spin-loop hints first, then cooperative yields, then short parks with a
/// capped sleep. Keeps the worst-case reaction latency around a millisecond
/// while not burning a full core per worker through long arrival gaps.
struct Backoff {
    step: u32,
}

impl Backoff {
    /// Steps 0..SPIN spin `2^step` times; SPIN..YIELD yield; beyond, park.
    const SPIN: u32 = 6;
    const YIELD: u32 = 10;

    fn new() -> Self {
        Backoff { step: 0 }
    }

    fn reset(&mut self) {
        self.step = 0;
    }

    fn pause(&mut self) {
        if self.step < Self::SPIN {
            for _ in 0..(1u32 << self.step) {
                std::hint::spin_loop();
            }
        } else if self.step < Self::YIELD {
            std::thread::yield_now();
        } else {
            let shift = (self.step - Self::YIELD).min(4);
            std::thread::sleep(Duration::from_micros((50u64 << shift).min(800)));
        }
        self.step = self.step.saturating_add(1);
    }
}

/// One worker's event counts. Only worker `p` stores to slot `p`; anyone
/// may load from it at any time (the watchdog does, mid-run). The alignment
/// gives each slot its own pair of cache lines — x86 prefetches lines in
/// adjacent pairs — so counting never invalidates a line another worker
/// uses.
#[derive(Default)]
#[repr(align(128))]
struct WorkerCounters {
    tasks_executed: AtomicU64,
    steal_attempts: AtomicU64,
    successful_steals: AtomicU64,
    admissions: AtomicU64,
    task_panics: AtomicU64,
    adopted_orphans: AtomicU64,
    /// Tasks this worker handed to the orphan queue when it crashed.
    orphaned_tasks: AtomicU64,
}

impl WorkerCounters {
    /// Add `by` to one of the owner's counts. A load and a store, not an
    /// RMW: the owner is the only writer, so nothing can land in between,
    /// and `Relaxed` because a count publishes no other data.
    fn add(counter: &AtomicU64, by: u64) {
        counter.store(
            counter.load(Ordering::Relaxed).saturating_add(by),
            Ordering::Relaxed,
        );
    }

    fn snapshot(&self) -> RtWorkerStats {
        RtWorkerStats {
            tasks_executed: self.tasks_executed.load(Ordering::Relaxed),
            steal_attempts: self.steal_attempts.load(Ordering::Relaxed),
            successful_steals: self.successful_steals.load(Ordering::Relaxed),
            admissions: self.admissions.load(Ordering::Relaxed),
            task_panics: self.task_panics.load(Ordering::Relaxed),
            adopted_orphans: self.adopted_orphans.load(Ordering::Relaxed),
        }
    }
}

struct Shared {
    /// Per-job state slab, indexed by dense job id. Owning the slab here
    /// (rather than one `Arc<JobState>` per job) makes tasks plain `Copy`
    /// indices: no refcount traffic on deque pushes, steals or drops.
    states: Box<[JobState]>,
    /// Admission queue of job indices into `states`.
    injector: Injector<u32>,
    /// Tasks drained from crashed workers' deques, adopted by survivors.
    orphans: Injector<Task>,
    stealers: Vec<Stealer<Task>>,
    done: AtomicBool,
    aborted: AtomicBool,
    /// Terminal (completed or failed) jobs.
    completed: AtomicUsize,
    /// Jobs released by the submitter so far.
    submitted: AtomicUsize,
    total_jobs: usize,
    base: Instant,
    faults: FaultPlan,
    sampler: PanicSampler,
    blackholed: Vec<bool>,
    /// Slot `p` is written by worker `p` alone; see [`WorkerCounters`].
    counters: Box<[WorkerCounters]>,
    events: Mutex<Vec<FaultEvent>>,
}

impl Shared {
    /// Current engine time in rounds (for fault-event timestamps).
    fn now_round(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64 / NS_PER_TICK // lint: allow(truncating-cast) u64 nanoseconds wrap after ~584 years of run wall-clock
    }

    /// The fault-event log. Every update is a single `push` or `take`, so
    /// the data is valid even if a holder panicked: recover the guard.
    fn events(&self) -> MutexGuard<'_, Vec<FaultEvent>> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push_event(&self, kind: FaultKind, worker: Option<usize>, job: Option<u32>, detail: u64) {
        self.events().push(FaultEvent {
            round: self.now_round(),
            worker,
            job,
            kind,
            detail,
        });
    }

    /// Run totals so far: the sum of the slots. Exact once the workers
    /// have been joined; mid-run, a lower bound that never decreases.
    fn totals(&self) -> RuntimeStats {
        let mut t = RuntimeStats::default();
        for c in self.counters.iter() {
            let w = c.snapshot();
            t.tasks_executed = t.tasks_executed.saturating_add(w.tasks_executed);
            t.steal_attempts = t.steal_attempts.saturating_add(w.steal_attempts);
            t.successful_steals = t.successful_steals.saturating_add(w.successful_steals);
            t.admissions = t.admissions.saturating_add(w.admissions);
            t.task_panics = t.task_panics.saturating_add(w.task_panics);
            t.orphaned_tasks = t
                .orphaned_tasks
                .saturating_add(c.orphaned_tasks.load(Ordering::Relaxed));
        }
        t
    }

    /// Count one job as terminal; flips `done` when it was the last.
    fn job_terminal(&self) {
        let done = self.completed.fetch_add(1, Ordering::AcqRel) + 1;
        if done == self.total_jobs {
            self.done.store(true, Ordering::Release);
        }
    }
}

fn round_to_duration(round: u64) -> Duration {
    Duration::from_nanos(round.saturating_mul(NS_PER_TICK))
}

/// `arrival_ns` of a job due `offset` after the run's base instant: the
/// release time `r_i` of the paper's `F_i = c_i − r_i`, not the moment the
/// submitter got around to it — a submitter starved of CPU by spinning
/// workers must not shorten the flows it delays. `max(1)` so that 0 still
/// means "never arrived".
fn arrival_stamp(offset: Duration) -> u64 {
    u64::try_from(offset.as_nanos()).unwrap_or(u64::MAX).max(1)
}

/// Run a workload: `(arrival offset, spec)` pairs, offsets non-decreasing.
///
/// Spawns `config.workers` worker threads plus a submitter thread that
/// releases jobs at their arrival offsets; blocks until every job reaches
/// a terminal state (or the watchdog aborts) and returns per-job
/// wall-clock flow times and statuses.
///
/// Panics on engine-level failures; use [`try_run_workload`] to handle
/// them as errors instead.
pub fn run_workload(config: &RuntimeConfig, workload: &[(Duration, JobSpec)]) -> RuntimeResult {
    // lint: allow(panicking) documented panicking wrapper; try_run_workload is the error API
    try_run_workload(config, workload).unwrap_or_else(|e| panic!("runtime failure: {e}"))
}

/// Fallible variant of [`run_workload`]: engine-level problems (invalid
/// fault plan, a genuinely dead thread) come back as a [`FailedRun`]
/// carrying the salvaged partial [`RuntimeResult`] instead of panicking
/// and losing it. Job-level failures never produce an `Err` — they are
/// reported per job via [`RtJobResult::status`].
pub fn try_run_workload(
    config: &RuntimeConfig,
    workload: &[(Duration, JobSpec)],
) -> Result<RuntimeResult, FailedRun> {
    if let Err(msg) = config.faults.validate(config.workers) {
        return Err(FailedRun::before_start(RuntimeError::InvalidFaultPlan(msg)));
    }
    if workload.len() > u32::MAX as usize {
        // Guard the dense-u32 job-id space once, here, so every
        // `index as u32` below is provably lossless.
        return Err(FailedRun::before_start(RuntimeError::TooManyJobs(
            workload.len(),
        )));
    }
    let inject_panics =
        config.faults.panic_ppm > 0 || workload.iter().any(|&(_, s)| s.shape == JobShape::Poison);
    if inject_panics {
        silence_injected_panics();
    }

    let n = workload.len();
    let deques: Vec<Deque<Task>> = (0..config.workers).map(|_| Deque::new_lifo()).collect();
    let stealers: Vec<Stealer<Task>> = deques.iter().map(|d| d.stealer()).collect();
    let states: Vec<JobState> = workload
        .iter()
        .enumerate()
        .map(|(i, &(_, spec))| JobState::new(i as u32, spec)) // lint: allow(truncating-cast) bounded by the TooManyJobs guard at run entry
        .collect();
    let base = Instant::now();
    let shared = Arc::new(Shared {
        states: states.into_boxed_slice(),
        injector: Injector::new(),
        orphans: Injector::new(),
        stealers,
        done: AtomicBool::new(n == 0),
        aborted: AtomicBool::new(false),
        completed: AtomicUsize::new(0),
        submitted: AtomicUsize::new(0),
        total_jobs: n,
        base,
        faults: config.faults.clone(),
        sampler: PanicSampler::new(config.seed, config.faults.panic_ppm),
        blackholed: (0..config.workers)
            .map(|p| config.faults.is_blackhole(p))
            .collect(),
        counters: (0..config.workers)
            .map(|_| WorkerCounters::default())
            .collect(),
        events: Mutex::new(Vec::new()),
    });

    // The submitter releases jobs at their arrival offsets, sleeping in
    // short slices so a watchdog abort interrupts it promptly.
    let submitter = {
        let shared = Arc::clone(&shared);
        let offsets: Vec<Duration> = workload.iter().map(|&(d, _)| d).collect();
        std::thread::spawn(move || {
            // Carried across jobs: a batch of jobs that are all due costs
            // one clock read, not one per job.
            let mut now = shared.base.elapsed();
            for (i, offset) in offsets.into_iter().enumerate() {
                loop {
                    if shared.done.load(Ordering::Acquire) {
                        return;
                    }
                    if offset <= now {
                        break;
                    }
                    std::thread::sleep((offset - now).min(Duration::from_millis(10)));
                    now = shared.base.elapsed();
                }
                shared.states[i]
                    .arrival_ns
                    .store(arrival_stamp(offset), Ordering::Release);
                shared.submitted.fetch_add(1, Ordering::Release);
                shared.injector.push(i as u32); // lint: allow(truncating-cast) bounded by the TooManyJobs guard at run entry
            }
        })
    };

    // Watchdog: aborts the run when released-but-unfinished jobs exist and
    // no counter moves for the configured deadline. Task-level progress is
    // read from the workers' own slots.
    let watchdog = config.deadline.map(|deadline| {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            let poll = (deadline / 8)
                .max(Duration::from_millis(1))
                .min(Duration::from_millis(25));
            let mut last_snapshot = (0u64, 0u64, 0u64, 0usize, 0usize);
            let mut stagnant_since = Instant::now();
            loop {
                if shared.done.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(poll);
                let totals = shared.totals();
                let snapshot = (
                    totals.tasks_executed,
                    totals.admissions,
                    totals.task_panics,
                    shared.completed.load(Ordering::Acquire),
                    shared.submitted.load(Ordering::Acquire),
                );
                let outstanding = snapshot.4 > snapshot.3;
                if snapshot != last_snapshot || !outstanding {
                    last_snapshot = snapshot;
                    stagnant_since = Instant::now();
                    continue;
                }
                if stagnant_since.elapsed() >= deadline {
                    shared.push_event(FaultKind::Abort, None, None, 0);
                    shared.aborted.store(true, Ordering::Release);
                    shared.done.store(true, Ordering::Release);
                    return;
                }
            }
        })
    });

    // Worker threads. Each deque moves straight into its worker's
    // closure; ownership is by construction, so the worker path has no
    // `expect` to reach for (this replaced a `Mutex<Option<Deque>>`
    // take-once dance whose failure mode was a worker-thread panic).
    let mut handles = Vec::with_capacity(config.workers);
    for (p, local) in deques.into_iter().enumerate() {
        let shared = Arc::clone(&shared);
        let policy = config.policy;
        let seed = config.seed.wrapping_add(p as u64);
        handles.push(std::thread::spawn(move || {
            worker_loop(p, &local, policy, seed, &shared);
        }));
    }

    let mut error = None;
    if submitter.join().is_err() {
        error = Some(RuntimeError::SubmitterPanicked);
    }
    for (p, h) in handles.into_iter().enumerate() {
        if h.join().is_err() {
            error.get_or_insert(RuntimeError::WorkerPanicked(p));
        }
    }
    if let Some(w) = watchdog {
        if w.join().is_err() {
            error.get_or_insert(RuntimeError::WatchdogPanicked);
        }
    }

    let end_ns = base.elapsed().as_nanos() as u64; // lint: allow(truncating-cast) u64 nanoseconds wrap after ~584 years of run wall-clock
    let fault_events = std::mem::take(&mut *shared.events());
    let jobs = shared
        .states
        .iter()
        .map(|s| {
            let status = s.status();
            let flow = match s.flow_ns() {
                Some(ns) => Duration::from_nanos(ns),
                None => {
                    // Aborted before finishing: time in system up to the
                    // end of the run, zero if the job never arrived.
                    let arrival = s.arrival_ns.load(Ordering::Acquire);
                    if arrival == 0 {
                        Duration::ZERO
                    } else {
                        Duration::from_nanos(end_ns.saturating_sub(arrival))
                    }
                }
            };
            RtJobResult {
                id: s.id,
                flow,
                status,
            }
        })
        .collect();
    let result = RuntimeResult {
        jobs,
        stats: shared.totals(),
        worker_stats: shared
            .counters
            .iter()
            .map(WorkerCounters::snapshot)
            .collect(),
        elapsed: base.elapsed(),
        aborted: shared.aborted.load(Ordering::Acquire),
        fault_events,
    };
    match error {
        // A dead thread loses none of the completed-job telemetry: the
        // partial result rides along so supervisors can re-admit only the
        // truly unfinished jobs.
        Some(e) => Err(FailedRun {
            error: e,
            partial: Some(Box::new(result)),
        }),
        None => Ok(result),
    }
}

fn execute(p: usize, task: Task, local: &Deque<Task>, shared: &Shared, rate_ppm: u32) {
    let counters = &shared.counters[p];
    let job = &shared.states[task.job as usize];
    // Tasks of an already-failed job are dropped, not executed.
    if job.is_failed() {
        return;
    }
    match task.kind {
        TaskKind::Spawn { depth } => {
            // Fork: expand into two children on the executing worker's
            // deque (Cilk/TBB spawn semantics; stolen spawns expand on the
            // thief). Spawn strands carry no measurable work themselves.
            let child_kind = if depth <= 1 {
                TaskKind::Chunk
            } else {
                TaskKind::Spawn { depth: depth - 1 }
            };
            for _ in 0..2 {
                local.push(Task {
                    job: task.job,
                    kind: child_kind,
                });
            }
        }
        TaskKind::Chunk => {
            // The sequence number keys the panic sampler and labels the
            // TaskPanic event; drawing it is an RMW on a line every worker
            // running this job shares, so it is drawn only when a chunk
            // can be made to panic. Full-width: `as u32` here silently
            // recycled panic decisions past 2³² chunks per job (see
            // should_panic_seq).
            let poison = job.shape == JobShape::Poison;
            let seq = if poison || shared.faults.panic_ppm > 0 {
                job.next_seq()
            } else {
                0
            };
            let injected = poison || shared.sampler.should_panic_seq(job.id, seq);
            // Only a slowed-down worker times its chunks.
            let started = (rate_ppm < PPM).then(Instant::now);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if injected {
                    std::panic::panic_any(InjectedPanic);
                }
                spin_kernel(job.iters_per_chunk, job.id as u64 + 1)
            }));
            match outcome {
                Ok(out) => {
                    std::hint::black_box(out);
                    WorkerCounters::add(&counters.tasks_executed, 1);
                    if let Some(started) = started {
                        // Injected slowdown: stretch the chunk so the worker
                        // delivers `rate_ppm`/1e6 of full throughput.
                        let ns = started.elapsed().as_nanos() as u64; // lint: allow(truncating-cast) u64 nanoseconds wrap after ~584 years of run wall-clock
                        let extra =
                            ns.saturating_mul((PPM - rate_ppm) as u64) / rate_ppm.max(1) as u64;
                        std::thread::sleep(Duration::from_nanos(extra.min(10_000_000)));
                    }
                    if job.finish_chunk(shared.base) {
                        shared.job_terminal();
                    }
                }
                Err(_) => {
                    WorkerCounters::add(&counters.task_panics, 1);
                    shared.push_event(FaultKind::TaskPanic, Some(p), Some(job.id), seq);
                    if job.fail(shared.base) {
                        shared.job_terminal();
                    }
                }
            }
        }
    }
}

/// Admit one job from the global queue, expanding its chunks onto `local`.
/// Returns false if the queue was empty.
fn try_admit(local: &Deque<Task>, shared: &Shared, counters: &WorkerCounters) -> bool {
    loop {
        match shared.injector.steal() {
            Steal::Success(ji) => {
                WorkerCounters::add(&counters.admissions, 1);
                let job = &shared.states[ji as usize];
                match job.shape {
                    JobShape::Flat | JobShape::Poison => {
                        for _ in 0..job.chunks {
                            local.push(Task {
                                job: ji,
                                kind: TaskKind::Chunk,
                            });
                        }
                    }
                    JobShape::ForkJoin { depth } => {
                        let kind = if depth == 0 {
                            TaskKind::Chunk
                        } else {
                            TaskKind::Spawn { depth }
                        };
                        local.push(Task { job: ji, kind });
                    }
                }
                return true;
            }
            Steal::Empty => return false,
            Steal::Retry => continue,
        }
    }
}

fn worker_loop(p: usize, local: &Deque<Task>, policy: RtPolicy, seed: u64, shared: &Shared) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let counters = &shared.counters[p];
    let mut fails: u32 = 0;
    let mut backoff = Backoff::new();
    let mut was_stalled = false;
    let m = shared.stealers.len();

    // Fault schedule for this worker, rounds mapped to wall-clock.
    let crash_at = shared.faults.crash_round_of(p).map(round_to_duration);
    let rate_ppm = shared.faults.rate_ppm_of(p);
    let stall_windows: Vec<(Duration, Duration)> = shared
        .faults
        .stalls
        .iter()
        .filter(|s| s.worker == p)
        .map(|s| {
            (
                round_to_duration(s.from_round),
                round_to_duration(s.from_round.saturating_add(s.duration)),
            )
        })
        .collect();

    // Does the plan ever ask this worker to look at the time? Fixed for the
    // whole run, so an unscheduled worker's loop never reads the clock.
    let scheduled = crash_at.is_some() || !stall_windows.is_empty();

    loop {
        if scheduled {
            let elapsed = shared.base.elapsed();

            // Injected crash: drain the local deque into the orphan queue
            // so survivors adopt the work, then leave service for good.
            if crash_at.is_some_and(|at| elapsed >= at) {
                let mut orphaned = 0u64;
                while let Some(task) = local.pop() {
                    shared.orphans.push(task);
                    orphaned += 1;
                }
                WorkerCounters::add(&counters.orphaned_tasks, orphaned);
                shared.push_event(FaultKind::Crash, Some(p), None, 0);
                if orphaned > 0 {
                    shared.push_event(FaultKind::OrphanReinjection, Some(p), None, orphaned);
                }
                return;
            }

            // Injected stall: freeze inside the window. The deque stays
            // stealable the whole time (the blackhole fault is the separate
            // "deque unreachable" failure mode).
            if let Some(&(_, until)) = stall_windows
                .iter()
                .find(|&&(from, until)| elapsed >= from && elapsed < until)
            {
                if !was_stalled {
                    shared.push_event(FaultKind::StallBegin, Some(p), None, 0);
                    was_stalled = true;
                }
                if shared.done.load(Ordering::Acquire) {
                    return;
                }
                let remaining = until.saturating_sub(shared.base.elapsed());
                std::thread::sleep(remaining.min(Duration::from_micros(200)));
                continue;
            } else if was_stalled {
                shared.push_event(FaultKind::StallEnd, Some(p), None, 0);
                was_stalled = false;
            }
        }

        if let Some(task) = local.pop() {
            fails = 0;
            backoff.reset();
            execute(p, task, local, shared, rate_ppm);
            continue;
        }

        // Adopt work orphaned by crashed workers before admitting or
        // stealing: reinjected tasks go to the front of the line, exactly
        // like the simulator's global orphan FIFO.
        match shared.orphans.steal() {
            Steal::Success(task) => {
                fails = 0;
                backoff.reset();
                WorkerCounters::add(&counters.adopted_orphans, 1);
                execute(p, task, local, shared, rate_ppm);
                continue;
            }
            Steal::Retry => continue,
            Steal::Empty => {}
        }

        let admit_now = match policy {
            RtPolicy::AdmitFirst => true,
            RtPolicy::StealKFirst { k } => fails >= k,
        };
        if admit_now && try_admit(local, shared, counters) {
            fails = 0;
            backoff.reset();
            continue;
        }

        // Steal attempt from a random other worker.
        if m > 1 {
            WorkerCounters::add(&counters.steal_attempts, 1);
            let mut victim = rng.gen_range(0..m - 1);
            if victim >= p {
                victim += 1;
            }
            if shared.blackholed[victim] {
                // A blackholed victim consumes the attempt, never yields.
                fails = fails.saturating_add(1);
            } else {
                match shared.stealers[victim].steal() {
                    Steal::Success(task) => {
                        WorkerCounters::add(&counters.successful_steals, 1);
                        fails = 0;
                        backoff.reset();
                        execute(p, task, local, shared, rate_ppm);
                        continue;
                    }
                    Steal::Empty => {
                        fails = fails.saturating_add(1);
                    }
                    Steal::Retry => {
                        // Lost a race with the victim, which says nothing
                        // about whether work exists: do not let contention
                        // count toward the steal-k admission threshold.
                    }
                }
            }
        } else {
            fails = fails.saturating_add(1);
        }

        // For steal-k-first the threshold may now be reached even though the
        // loop above already tried; without this a single worker (m=1) would
        // never admit.
        if let RtPolicy::StealKFirst { k } = policy {
            if fails >= k && try_admit(local, shared, counters) {
                fails = 0;
                backoff.reset();
                continue;
            }
        }

        if shared.done.load(Ordering::Acquire) {
            break;
        }
        // Nothing anywhere: back off progressively (spin, then yield, then
        // short parks) so idle workers stay responsive without burning a
        // full core each during long arrival gaps.
        backoff.pause();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn burst_workload(n: usize, chunks: usize, iters: u64) -> Vec<(Duration, JobSpec)> {
        (0..n)
            .map(|_| {
                (
                    Duration::ZERO,
                    JobSpec {
                        chunks,
                        iters_per_chunk: iters,
                        shape: crate::task::JobShape::Flat,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn fork_join_jobs_complete() {
        let cfg = RuntimeConfig::new(3, RtPolicy::AdmitFirst);
        let workload: Vec<(Duration, JobSpec)> = (0..8)
            .map(|_| (Duration::ZERO, JobSpec::fork_join(8_000, 4)))
            .collect();
        let r = run_workload(&cfg, &workload);
        assert_eq!(r.jobs.len(), 8);
        // 16 leaves per job; spawn strands are not counted as tasks.
        assert_eq!(r.stats.tasks_executed, 8 * 16);
        assert!(r.jobs.iter().all(|j| j.flow > Duration::ZERO));
        assert!(r.all_completed());
    }

    #[test]
    fn fork_join_and_flat_mix() {
        let cfg = RuntimeConfig::new(2, RtPolicy::StealKFirst { k: 4 });
        let workload = vec![
            (Duration::ZERO, JobSpec::fork_join(4_000, 3)),
            (Duration::ZERO, JobSpec::split(4_000, 4)),
            (Duration::ZERO, JobSpec::fork_join(4_000, 0)),
        ];
        let r = run_workload(&cfg, &workload);
        assert_eq!(r.jobs.len(), 3);
        assert_eq!(r.stats.tasks_executed, 8 + 4 + 1);
    }

    #[test]
    fn empty_workload() {
        let cfg = RuntimeConfig::new(2, RtPolicy::AdmitFirst);
        let r = run_workload(&cfg, &[]);
        assert!(r.jobs.is_empty());
        assert_eq!(r.max_flow(), Duration::ZERO);
        assert!(!r.aborted);
        assert!(r.fault_events.is_empty());
    }

    #[test]
    fn single_job_completes() {
        let cfg = RuntimeConfig::new(2, RtPolicy::AdmitFirst);
        let r = run_workload(&cfg, &burst_workload(1, 4, 10_000));
        assert_eq!(r.jobs.len(), 1);
        assert!(r.jobs[0].flow > Duration::ZERO);
        assert_eq!(r.jobs[0].status, JobStatus::Completed);
        assert_eq!(r.stats.tasks_executed, 4);
        assert_eq!(r.stats.admissions, 1);
    }

    #[test]
    fn admit_first_many_jobs() {
        let cfg = RuntimeConfig::new(4, RtPolicy::AdmitFirst);
        let r = run_workload(&cfg, &burst_workload(32, 8, 2_000));
        assert_eq!(r.jobs.len(), 32);
        assert_eq!(r.stats.tasks_executed, 32 * 8);
        assert_eq!(r.stats.admissions, 32);
        assert!(r.jobs.iter().all(|j| j.flow > Duration::ZERO));
    }

    #[test]
    fn steal_k_first_many_jobs() {
        let cfg = RuntimeConfig::new(4, RtPolicy::StealKFirst { k: 8 });
        let r = run_workload(&cfg, &burst_workload(32, 8, 2_000));
        assert_eq!(r.jobs.len(), 32);
        assert_eq!(r.stats.tasks_executed, 32 * 8);
        assert_eq!(r.stats.admissions, 32);
    }

    #[test]
    fn single_worker_still_completes() {
        let cfg = RuntimeConfig::new(1, RtPolicy::StealKFirst { k: 4 });
        let r = run_workload(&cfg, &burst_workload(4, 2, 1_000));
        assert_eq!(r.jobs.len(), 4);
        assert_eq!(r.stats.tasks_executed, 8);
    }

    #[test]
    fn staggered_arrivals_respected() {
        let cfg = RuntimeConfig::new(2, RtPolicy::AdmitFirst);
        let workload = vec![
            (Duration::ZERO, JobSpec::split(200, 2)),
            (Duration::from_millis(5), JobSpec::split(200, 2)),
        ];
        let start = Instant::now();
        let r = run_workload(&cfg, &workload);
        assert!(start.elapsed() >= Duration::from_millis(5));
        assert_eq!(r.jobs.len(), 2);
        // The second job arrived 5ms in; its flow should be small (machine
        // idle), certainly below the total elapsed time.
        assert!(r.jobs[1].flow <= r.elapsed);
    }

    #[test]
    fn arrival_is_stamped_with_the_due_offset() {
        // The release time, not the time the submitter got to the job;
        // 0 is reserved for "never arrived".
        assert_eq!(arrival_stamp(Duration::ZERO), 1);
        assert_eq!(arrival_stamp(Duration::from_millis(5)), 5_000_000);
        assert_eq!(arrival_stamp(Duration::MAX), u64::MAX);
    }

    #[test]
    fn mean_and_max_flow() {
        let cfg = RuntimeConfig::new(2, RtPolicy::AdmitFirst);
        let r = run_workload(&cfg, &burst_workload(8, 2, 5_000));
        assert!(r.mean_flow() <= r.max_flow());
        assert!(r.max_flow() > Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = RuntimeConfig::new(0, RtPolicy::AdmitFirst);
    }

    // ---- fault injection and hardening ----

    #[test]
    fn poison_job_fails_without_hanging_the_run() {
        let cfg = RuntimeConfig::new(2, RtPolicy::AdmitFirst);
        let workload = vec![
            (Duration::ZERO, JobSpec::split(2_000, 2)),
            (Duration::ZERO, JobSpec::poison(2_000, 2)),
            (Duration::ZERO, JobSpec::split(2_000, 2)),
        ];
        let r = run_workload(&cfg, &workload);
        assert_eq!(r.jobs.len(), 3);
        assert_eq!(r.jobs[0].status, JobStatus::Completed);
        assert_eq!(r.jobs[1].status, JobStatus::Failed);
        assert_eq!(r.jobs[2].status, JobStatus::Completed);
        assert!(!r.aborted);
        assert!(r.stats.task_panics >= 1);
        assert!(r
            .fault_events
            .iter()
            .any(|e| e.kind == FaultKind::TaskPanic && e.job == Some(1)));
        // The failed job still records a (time-to-failure) flow.
        assert!(r.jobs[1].flow > Duration::ZERO);
    }

    #[test]
    fn panic_ppm_full_fails_every_job() {
        let cfg = RuntimeConfig::new(2, RtPolicy::AdmitFirst)
            .with_faults(FaultPlan::none().with_panic_ppm(PPM));
        let r = run_workload(&cfg, &burst_workload(4, 2, 500));
        assert!(r.jobs.iter().all(|j| j.status == JobStatus::Failed));
        // Every executed chunk panics; a job's sibling chunk may race in
        // on the other worker before the failure flag lands, so anywhere
        // between one and all chunks per job can panic.
        assert!(
            (4..=8).contains(&r.stats.task_panics),
            "{}",
            r.stats.task_panics
        );
        assert_eq!(r.stats.tasks_executed, 0);
    }

    #[test]
    fn crash_at_start_leaves_survivor_to_finish() {
        // Worker 0 crashes before doing anything; the single survivor must
        // finish every job alone.
        let cfg =
            RuntimeConfig::new(2, RtPolicy::AdmitFirst).with_faults(FaultPlan::none().crash(0, 0));
        let r = run_workload(&cfg, &burst_workload(6, 4, 2_000));
        assert!(r.all_completed());
        assert_eq!(r.stats.tasks_executed, 6 * 4);
        assert!(r
            .fault_events
            .iter()
            .any(|e| e.kind == FaultKind::Crash && e.worker == Some(0)));
    }

    #[test]
    fn mid_run_crash_still_completes_all_work() {
        // A straggler arriving at 30 ms keeps the run alive past worker
        // 0's crash at round 100 (10 ms), so the crash is guaranteed to
        // fire mid-run; whatever worker 0 held is reinjected and adopted.
        let mut wl = burst_workload(4, 8, 200_000);
        wl.push((Duration::from_millis(30), JobSpec::split(4_000, 2)));
        let cfg = RuntimeConfig::new(2, RtPolicy::AdmitFirst)
            .with_faults(FaultPlan::none().crash(0, 100));
        let r = run_workload(&cfg, &wl);
        assert!(r.all_completed());
        assert_eq!(r.stats.tasks_executed, 4 * 8 + 2);
        assert!(r
            .fault_events
            .iter()
            .any(|e| e.kind == FaultKind::Crash && e.worker == Some(0)));
    }

    #[test]
    fn stalled_worker_does_not_block_completion() {
        // Worker 1 stalls for the first 50 ms (500 rounds); worker 0 does
        // all the work in the meantime.
        let cfg = RuntimeConfig::new(2, RtPolicy::AdmitFirst)
            .with_faults(FaultPlan::none().stall(1, 0, 500));
        let r = run_workload(&cfg, &burst_workload(4, 2, 2_000));
        assert!(r.all_completed());
        assert!(r
            .fault_events
            .iter()
            .any(|e| e.kind == FaultKind::StallBegin && e.worker == Some(1)));
    }

    #[test]
    fn watchdog_aborts_unfinishable_run() {
        // One worker, slowed to rate 1 ppm: each chunk stretches ~1e6×
        // (capped at 10 ms of extra sleep per chunk), so a moderately sized
        // job cannot finish before the watchdog fires... but chunk
        // *completions* are progress. To get a genuine no-progress stall,
        // stall the only worker forever instead.
        let cfg = RuntimeConfig::new(1, RtPolicy::AdmitFirst)
            .with_faults(FaultPlan::none().stall(0, 0, u64::MAX / NS_PER_TICK))
            .with_deadline(Duration::from_millis(50));
        let r = run_workload(&cfg, &burst_workload(2, 2, 1_000));
        assert!(r.aborted);
        assert!(r.jobs.iter().all(|j| j.status == JobStatus::Aborted));
        assert!(r.fault_events.iter().any(|e| e.kind == FaultKind::Abort));
    }

    #[test]
    fn watchdog_counts_executed_tasks_as_progress() {
        // One job, admitted in the first microsecond: from then on
        // `completed`, `submitted` and `admissions` stand still and only
        // the workers' executed-task counts move. The run lasts many
        // deadlines; a watchdog that could not see those counts would
        // abort it.
        let deadline = Duration::from_millis(10);
        let cfg = RuntimeConfig::new(2, RtPolicy::AdmitFirst).with_deadline(deadline);
        let r = run_workload(&cfg, &burst_workload(1, 30_000, 4_000));
        assert!(
            r.elapsed >= 3 * deadline,
            "run too short to prove anything: {:?}",
            r.elapsed
        );
        assert!(!r.aborted);
        assert!(r.all_completed());
        assert_eq!(r.stats.tasks_executed, 30_000);
        assert_eq!(r.stats.admissions, 1);
    }

    #[test]
    fn watchdog_stays_quiet_on_healthy_runs() {
        let cfg = RuntimeConfig::new(2, RtPolicy::AdmitFirst).with_deadline(Duration::from_secs(5));
        let r = run_workload(&cfg, &burst_workload(8, 2, 1_000));
        assert!(!r.aborted);
        assert!(r.all_completed());
    }

    #[test]
    fn blackholed_victim_yields_no_steals() {
        // All work enters through worker 0 (the only non-blackholed jobs
        // source is admission, and with one big job everything sits in the
        // admitting worker's deque) — with that deque blackholed, no steal
        // ever succeeds.
        let cfg = RuntimeConfig::new(2, RtPolicy::AdmitFirst)
            .with_faults(FaultPlan::none().blackhole(0).blackhole(1));
        let r = run_workload(&cfg, &burst_workload(4, 4, 1_000));
        assert!(r.all_completed());
        assert_eq!(r.stats.successful_steals, 0);
    }

    #[test]
    fn invalid_fault_plan_is_an_error() {
        let cfg =
            RuntimeConfig::new(2, RtPolicy::AdmitFirst).with_faults(FaultPlan::none().crash(7, 0));
        match try_run_workload(&cfg, &burst_workload(1, 1, 100)) {
            Err(FailedRun {
                error: RuntimeError::InvalidFaultPlan(msg),
                partial,
            }) => {
                assert!(msg.contains("worker 7"), "{msg}");
                assert!(partial.is_none(), "pre-start failures have no partial");
            }
            other => panic!("expected InvalidFaultPlan, got {other:?}"),
        }
    }

    #[test]
    fn failed_run_reports_unfinished_jobs() {
        // A hand-built failure: jobs 0 and 2 finished, 1 and 3 did not.
        // `unfinished_jobs` is the supervisor's re-admission set.
        let jobs = vec![
            (JobStatus::Completed, 0),
            (JobStatus::Aborted, 1),
            (JobStatus::Failed, 2),
            (JobStatus::Aborted, 3),
        ]
        .into_iter()
        .map(|(status, id)| RtJobResult {
            id,
            flow: Duration::ZERO,
            status,
        })
        .collect();
        let partial = RuntimeResult {
            jobs,
            stats: RuntimeStats::default(),
            worker_stats: Vec::new(),
            elapsed: Duration::ZERO,
            aborted: true,
            fault_events: Vec::new(),
        };
        let failed = FailedRun {
            error: RuntimeError::WorkerPanicked(1),
            partial: Some(Box::new(partial)),
        };
        assert_eq!(failed.unfinished_jobs(), vec![1, 3]);
        assert_eq!(failed.to_string(), "worker thread 1 panicked");
        assert_eq!(RuntimeError::from(failed), RuntimeError::WorkerPanicked(1));
        assert!(FailedRun::before_start(RuntimeError::SubmitterPanicked)
            .unfinished_jobs()
            .is_empty());
    }

    #[test]
    fn new_error_variants_display() {
        let io = RuntimeError::Io("listener refused".into());
        assert!(io.to_string().contains("listener refused"));
        let shed = RuntimeError::ShedOverflow { capacity: 64 };
        assert!(shed.to_string().contains("capacity 64"), "{shed}");
        assert!(shed.to_string().contains("shed"));
        // std::error::Error source chain through FailedRun.
        let f = FailedRun::before_start(io.clone());
        let src = std::error::Error::source(&f).expect("source");
        assert_eq!(src.to_string(), io.to_string());
    }

    #[test]
    fn slowdown_stretches_flow() {
        let job = || burst_workload(1, 4, 500_000);
        let fast = run_workload(&RuntimeConfig::new(1, RtPolicy::AdmitFirst), &job());
        let slow = run_workload(
            &RuntimeConfig::new(1, RtPolicy::AdmitFirst)
                .with_faults(FaultPlan::none().slowdown(0, 250_000)),
            &job(),
        );
        assert!(fast.all_completed() && slow.all_completed());
        // Quarter speed adds ~3 chunk-times of sleep per chunk; timing
        // noise makes exact ratios flaky, so only require a clear gap.
        assert!(
            slow.elapsed > fast.elapsed + Duration::from_millis(2),
            "slow {:?} vs fast {:?}",
            slow.elapsed,
            fast.elapsed
        );
    }

    #[test]
    fn retry_does_not_count_toward_steal_k() {
        // Behavioural proxy for the Steal::Retry fix: with a huge k and a
        // single job in the queue, the only path to admission for m=1 is
        // accumulating genuine failures; the run must still finish.
        let cfg = RuntimeConfig::new(1, RtPolicy::StealKFirst { k: 64 });
        let r = run_workload(&cfg, &burst_workload(2, 2, 500));
        assert!(r.all_completed());
    }

    #[test]
    fn worker_stats_partition_aggregates() {
        // Fault-free, and a plan that takes every counting path at once:
        // worker 0 crashes mid-run (a straggler at 30 ms keeps the run
        // alive past round 100 = 10 ms) and orphans what it holds, worker 1
        // sits out the first 5 ms, and one chunk in twenty panics. Under
        // admit-first each worker fills its own deque, so the crash
        // normally finds tasks to orphan.
        let mut faulted_wl = burst_workload(16, 8, 400_000);
        faulted_wl.push((Duration::from_millis(30), JobSpec::split(4_000, 2)));
        let faulted = FaultPlan::none()
            .crash(0, 100)
            .stall(1, 0, 50)
            .with_panic_ppm(50_000);
        let steal4 = RtPolicy::StealKFirst { k: 4 };
        for (policy, faults, wl) in [
            (steal4, FaultPlan::none(), burst_workload(16, 4, 2_000)),
            (RtPolicy::AdmitFirst, faulted, faulted_wl),
        ] {
            let cfg = RuntimeConfig::new(3, policy).with_faults(faults);
            let r = run_workload(&cfg, &wl);
            assert_eq!(r.worker_stats.len(), 3);
            let sum = |f: fn(&RtWorkerStats) -> u64| r.worker_stats.iter().map(f).sum::<u64>();
            assert_eq!(sum(|w| w.tasks_executed), r.stats.tasks_executed);
            assert_eq!(sum(|w| w.steal_attempts), r.stats.steal_attempts);
            assert_eq!(sum(|w| w.successful_steals), r.stats.successful_steals);
            assert_eq!(sum(|w| w.admissions), r.stats.admissions);
            assert_eq!(sum(|w| w.task_panics), r.stats.task_panics);
            // A task is adopted at most once, and only after it was orphaned.
            assert!(r.stats.orphaned_tasks >= sum(|w| w.adopted_orphans));
            let reinjected: u64 = r
                .fault_events
                .iter()
                .filter(|e| e.kind == FaultKind::OrphanReinjection)
                .map(|e| e.detail)
                .sum();
            assert_eq!(r.stats.orphaned_tasks, reinjected);
        }
    }

    #[test]
    fn observe_into_reports_latency_and_counters() {
        let cfg = RuntimeConfig::new(2, RtPolicy::AdmitFirst);
        let r = run_workload(&cfg, &burst_workload(6, 2, 2_000));
        let mut rec = parflow_obs::AggregatingRecorder::new();
        r.observe_into(&mut rec);
        assert_eq!(
            rec.counter_value("rt.tasks_executed", None),
            r.stats.tasks_executed
        );
        let per_worker: u64 = (0..2)
            .map(|p| rec.counter_value("rt.worker.tasks_executed", Some(p)))
            .sum();
        assert_eq!(per_worker, r.stats.tasks_executed);
        // One latency sample per job, summarized as a histogram.
        assert_eq!(rec.samples("rt.job_flow_ms").len(), 6);
        let report = rec.report();
        assert!(report.histograms.iter().any(|h| h.name == "rt.job_flow_ms"));
        // Disabled recorder: nothing recorded, nothing perturbed.
        let mut null = parflow_obs::NullRecorder;
        r.observe_into(&mut null);
    }

    #[test]
    fn flow_histogram_covers_all_jobs() {
        let cfg = RuntimeConfig::new(2, RtPolicy::AdmitFirst);
        let r = run_workload(&cfg, &burst_workload(5, 2, 2_000));
        let h = r.flow_histogram(8).expect("non-empty run");
        assert_eq!(h.total(), 5);
        assert_eq!(h.nan(), 0);
        let empty = run_workload(&cfg, &[]);
        assert!(empty.flow_histogram(8).is_none());
    }

    #[test]
    fn fault_free_config_reports_no_events() {
        let cfg = RuntimeConfig::new(2, RtPolicy::StealKFirst { k: 4 });
        let r = run_workload(&cfg, &burst_workload(8, 4, 1_000));
        assert!(r.fault_events.is_empty());
        assert_eq!(r.stats.task_panics, 0);
        assert_eq!(r.stats.orphaned_tasks, 0);
        assert!(!r.aborted);
    }
}
