//! # parflow-certify
//!
//! Engine-independent certifier for recorded schedules. Every engine in
//! this workspace can emit a [`ScheduleTrace`] plus a [`SimResult`]; this
//! crate replays that pair against the instance and *machine-checks* the
//! feasibility model every competitive-ratio claim of AgrawalLLM16 (SPAA
//! 2016) is stated over — without trusting any engine state:
//!
//! | Invariant | Checked property |
//! |-----------|------------------|
//! | **P1 precedence** | no node receives a unit before its arrival or before every DAG predecessor completed in a strictly earlier round; every node receives exactly `work` units |
//! | **P2 capacity**   | every span covers at least one round and every busy row exactly `m` processors; RLE idle spans never skip rounds in which an arrived job was incomplete; trace action counts equal the engine's reported counters |
//! | **P3 policy**     | admit-first never steals or idles past a non-empty global queue; steal-k-first admits only after `k` consecutive failed steals; FIFO admission order is respected |
//! | **P4 flow accounting** | every reported start/completion round and flow is recomputed exactly from the trace |
//! | **P5 lower bound** | at speed 1 the observed max flow dominates the independently recomputed `combined_lower_bound`; every job's flow dominates `span / speed` |
//!
//! The certifier stops at the **first** violation and reports it as a
//! structured [`Violation`] naming the round, worker, job and invariant,
//! so a failure always points at the root cause instead of the cascade
//! it produces downstream. Fault-injected runs are out of scope (the
//! feasibility model above is fault-free); certifying one yields a
//! [`CertReport::skipped`] reason, never a false violation.
//!
//! The feasibility facts themselves — all of P1 and P2's span shape —
//! are not implemented here: the certifier drives the one
//! [`TraceChecker`] that also sits behind `ScheduleTrace::validate`, and
//! turns its [`TraceViolation`] into a [`Violation`] in one function.
//! What lives in this crate is policy and accounting: the admission-queue
//! replay (P3), idle-span conservation and counter tallies (P2), and each
//! job's reported outcome, checked at the round of its last unit from
//! the first and last work round the checker reports (P4, P5).
//!
//! A busy span repeating one row for many rounds goes through the
//! checker's one window path: its first and last rounds are replayed
//! unit by unit, and the rounds between are counted in O(m) when neither
//! the checker nor the policy replay could find anything in them, else
//! replayed round by round. So a broken trace gets the finding its
//! expansion gets.
//!
//! Policy conformance (P3) replays the global admission queue from the
//! trace alone: arrivals enter at round start, workers act in index
//! order, and an admission is the first-ever unit of work on a job. Two
//! engine behaviours are *not* reconstructable from a trace and are
//! deliberately unchecked: steal victim choice (the trace does not name
//! victims) and the free-steal-cost probe counter (free probes leave no
//! trace actions).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::fmt;

use parflow_core::{
    combined_lower_bound, Action, AdmissionOrder, JobStatus, ScheduleTrace, SimConfig, SimResult,
    StealCost, StealPolicy, TraceChecker, TraceSpan, TraceViolation,
};
use parflow_dag::{Instance, JobId};
use parflow_time::{Rational, Round, Speed};

/// The paper-level invariant a certifier finding violates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Invariant {
    /// P1: precedence-respecting execution (arrivals, DAG order, exact
    /// unit counts).
    Precedence,
    /// P2: machine capacity (row width, idle-span consistency, counter
    /// cross-checks).
    Capacity,
    /// P3: scheduling-policy conformance (admit-first / steal-k-first /
    /// FIFO admission order).
    Policy,
    /// P4: reported flow accounting recomputed exactly from the trace.
    FlowAccounting,
    /// P5: observed max flow dominates the OPT lower bound
    /// `max(W/m, span)`.
    LowerBound,
}

impl Invariant {
    /// Short code used in diagnostics and docs ("P1".."P5").
    pub fn code(self) -> &'static str {
        match self {
            Invariant::Precedence => "P1",
            Invariant::Capacity => "P2",
            Invariant::Policy => "P3",
            Invariant::FlowAccounting => "P4",
            Invariant::LowerBound => "P5",
        }
    }

    /// Human-readable invariant name.
    pub fn name(self) -> &'static str {
        match self {
            Invariant::Precedence => "precedence",
            Invariant::Capacity => "capacity",
            Invariant::Policy => "policy",
            Invariant::FlowAccounting => "flow-accounting",
            Invariant::LowerBound => "lower-bound",
        }
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code(), self.name())
    }
}

/// One certified-schedule violation: the invariant plus every locus the
/// replay could attribute (absent fields mean "not applicable", e.g. a
/// stats mismatch has no single round).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The violated invariant.
    pub invariant: Invariant,
    /// Offending round, when the violation is localized in time.
    pub round: Option<Round>,
    /// Offending worker (processor index), when localized.
    pub worker: Option<usize>,
    /// Offending job, when localized.
    pub job: Option<JobId>,
    /// What exactly went wrong.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:", self.invariant)?;
        if let Some(r) = self.round {
            write!(f, " round {r}")?;
        }
        if let Some(w) = self.worker {
            write!(f, " worker {w}")?;
        }
        if let Some(j) = self.job {
            write!(f, " job {j}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The outcome of one certification: at most one violation (the first
/// found, in replay order) plus coverage counters.
#[derive(Clone, Debug, Default)]
pub struct CertReport {
    /// The first violation found, `None` for a clean schedule.
    pub violation: Option<Violation>,
    /// Rounds replayed (busy rows plus RLE idle rounds).
    pub rounds: u64,
    /// Work units replayed.
    pub units: u64,
    /// Jobs whose accounting was cross-checked.
    pub jobs: usize,
    /// Set when the run was not certifiable (fault-injected traces are
    /// outside the fault-free feasibility model). A skipped report is
    /// *not* clean-by-default: callers decide how to treat it.
    pub skipped: Option<String>,
    /// Which invariants the verdict covers, as rendered: `P1-P5` for a
    /// certified trace, `P5 only` for a stream summary at speed 1,
    /// `nothing checkable at speed s` for one at any other speed. Empty
    /// (the default) renders as `nothing checked`.
    pub checked: String,
}

impl CertReport {
    /// True iff certification ran to completion and found nothing.
    pub fn is_clean(&self) -> bool {
        self.violation.is_none() && self.skipped.is_none()
    }

    /// One-line human rendering for CLI output and CI logs.
    pub fn render(&self) -> String {
        if let Some(reason) = &self.skipped {
            return format!("certify: skipped ({reason})");
        }
        match &self.violation {
            Some(v) => format!("certify: VIOLATION {v}"),
            None => format!(
                "certify: clean ({} rounds, {} units, {} jobs; {})",
                self.rounds,
                self.units,
                self.jobs,
                match self.checked.as_str() {
                    "" => "nothing checked",
                    checked => checked,
                }
            ),
        }
    }
}

/// Shorthand for building a [`Violation`].
fn violation(
    invariant: Invariant,
    round: Option<Round>,
    worker: Option<usize>,
    job: Option<JobId>,
    message: String,
) -> Violation {
    Violation {
        invariant,
        round,
        worker,
        job,
        message,
    }
}

/// The one place a feasibility fact found by the shared
/// [`TraceChecker`] becomes a certifier finding: span shape is P2,
/// everything else P1; the locus carries over, plus the worker when the
/// fact is about one work unit.
fn from_trace(v: TraceViolation, worker: Option<usize>) -> Violation {
    use TraceViolation as T;
    let (round, job, message) = match v {
        T::EmptySpan { round } => {
            let message = "span covers no rounds".to_string();
            return violation(Invariant::Capacity, Some(round), None, None, message);
        }
        T::BadRowWidth { round, width, m } => {
            let message = format!("row covers {width} processors, machine has {m}");
            return violation(Invariant::Capacity, Some(round), None, None, message);
        }
        T::UnknownTarget { round, job, node } => (
            Some(round),
            job,
            format!("work on unknown job or node {node}"),
        ),
        T::EarlyStart { round, job } => (Some(round), job, "executed before arrival".to_string()),
        T::ConcurrentNode { round, job, node } => {
            let message = format!("node {node} executed on two processors in the same round");
            (Some(round), job, message)
        }
        T::PrecedenceViolation { round, job, node } => {
            let message = format!("node {node} ran before every predecessor completed");
            (Some(round), job, message)
        }
        T::OverExecution { round, job, node } => {
            (Some(round), job, format!("node {node} over-executed"))
        }
        T::IncompleteNode {
            job,
            node,
            executed,
        } => {
            let message =
                format!("incomplete at end of trace: node {node} received {executed} units");
            (None, job, message)
        }
    };
    violation(Invariant::Precedence, round, worker, Some(job), message)
}

/// What the certifier adds to the [`TraceChecker`] it drives: the
/// admission-queue replay and failed-steal streaks (P3), idle-span
/// conservation and action tallies (P2), and each job's reported outcome
/// against its first and last work round (P4, P5).
struct Replay<'a> {
    instance: &'a Instance,
    result: &'a SimResult,
    speed: Speed,
    m: usize,
    policy: Option<StealPolicy>,
    unit_steals: bool,
    fifo_admission: bool,
    checker: TraceChecker<'a>,
    /// Next not-yet-released arrival index (jobs are arrival-sorted).
    next_release: usize,
    /// Released-but-unadmitted jobs, in release (= id) order.
    queue: VecDeque<JobId>,
    /// Admitted jobs that still have unexecuted units.
    live_admitted: usize,
    /// Consecutive failed steal attempts per worker (unit-step replay).
    failed_steals: Vec<u64>,
    /// Largest recomputed flow over the jobs completed so far.
    max_flow: Rational,
    // Action tallies for the P2 counter cross-check.
    work_units: u64,
    steal_actions: u64,
    steal_hits: u64,
    idle_units: u64,
    admissions: u64,
}

impl<'a> Replay<'a> {
    fn new(
        instance: &'a Instance,
        cfg: &SimConfig,
        policy: Option<StealPolicy>,
        result: &'a SimResult,
    ) -> Self {
        Replay {
            instance,
            result,
            speed: cfg.speed,
            m: cfg.m,
            policy,
            unit_steals: matches!(cfg.steal_cost, StealCost::UnitStep),
            fifo_admission: matches!(cfg.admission, AdmissionOrder::Fifo),
            checker: TraceChecker::new(instance, cfg.m, cfg.speed),
            next_release: 0,
            queue: VecDeque::new(),
            live_admitted: 0,
            failed_steals: vec![0; cfg.m],
            max_flow: Rational::from_int(0),
            work_units: 0,
            steal_actions: 0,
            steal_hits: 0,
            idle_units: 0,
            admissions: 0,
        }
    }

    /// Replay the whole trace, then close it: P1 completeness, the P2
    /// counter cross-check, and the global halves of P4 and P5.
    fn run(&mut self, trace: &ScheduleTrace) -> Result<(), Violation> {
        for span in &trace.spans {
            let start = self.checker.span(span).map_err(|v| from_trace(v, None))?;
            match span {
                TraceSpan::Idle { count } => self.idle_span(start, *count)?,
                TraceSpan::Busy { row, rounds } => {
                    let mut round = Some(start);
                    while let Some(r) = round {
                        self.busy_row(r, row)?;
                        let window = r == start && *rounds > 2 && self.quiet(r, row, rounds - 2);
                        round = self.checker.next_round(row, window);
                        if round.is_some_and(|next| next > r + 1) {
                            self.tally(row, rounds - 2);
                        }
                    }
                }
            }
        }
        self.checker.finish().map_err(|v| from_trace(v, None))?;

        let fail =
            |invariant, message: String| Err(violation(invariant, None, None, None, message));
        let stats = &self.result.stats;
        let mut counter_checks: Vec<(&str, u64, u64)> = vec![
            ("work_steps", self.work_units, stats.work_steps),
            ("idle_steps", self.idle_units, stats.idle_steps),
        ];
        if self.policy.is_some() {
            counter_checks.push(("admissions", self.admissions, stats.admissions));
            if self.unit_steals {
                let (attempts, hits) = (stats.steal_attempts, stats.successful_steals);
                counter_checks.push(("steal_attempts", self.steal_actions, attempts));
                counter_checks.push(("successful_steals", self.steal_hits, hits));
            }
        }
        for (name, traced, reported) in counter_checks {
            if traced != reported {
                let message = format!("trace shows {traced} {name}, engine reported {reported}");
                return fail(Invariant::Capacity, message);
            }
        }
        let (reported, traced) = (self.result.total_rounds, trace.num_rounds());
        if reported != traced {
            let message =
                format!("reported total_rounds {reported} but the trace covers {traced} rounds");
            return fail(Invariant::FlowAccounting, message);
        }
        // Globally at speed 1: no schedule beats OPT's own lower bound
        // max(W/m, span).
        if self.speed == Speed::ONE && !self.instance.is_empty() {
            let (max_flow, bound) = (self.max_flow, combined_lower_bound(self.instance, self.m));
            if max_flow < bound {
                let message =
                    format!("observed max flow {max_flow:?} beats the OPT lower bound {bound:?}");
                return fail(Invariant::LowerBound, message);
            }
        }
        Ok(())
    }

    /// Move every job that has arrived by the start of round `r` into the
    /// queue.
    fn release_arrivals(&mut self, r: Round) {
        let jobs = self.instance.jobs();
        while let Some(job) = jobs.get(self.next_release) {
            if !self.speed.arrived_by_round(job.arrival, r) {
                break;
            }
            self.queue.push_back(job.id);
            self.next_release += 1;
        }
    }

    /// An RLE idle span covering rounds `[start, start + count)`. The
    /// engines only fast-forward when the system is fully drained, so an
    /// arrived-but-incomplete job anywhere inside the span breaks work
    /// conservation (P2): every scheduler in this workspace is greedy.
    fn idle_span(&mut self, start: Round, count: u64) -> Result<(), Violation> {
        self.release_arrivals(start);
        let fail = |round, job, message: String| {
            Err(violation(
                Invariant::Capacity,
                Some(round),
                None,
                job,
                message,
            ))
        };
        if self.live_admitted > 0 {
            let live = self.live_admitted;
            return fail(
                start,
                None,
                format!("idle span of {count} rounds while {live} admitted job(s) are incomplete"),
            );
        }
        if let Some(&job) = self.queue.front() {
            return fail(
                start,
                Some(job),
                format!("idle span of {count} rounds while the global queue holds an arrived job"),
            );
        }
        // An arrival whose first eligible round falls strictly inside the
        // span: a greedy engine would have woken exactly at that round.
        if let Some(job) = self.instance.jobs().get(self.next_release) {
            let eligible = self.speed.first_round_at_or_after(job.arrival);
            if eligible < start + count {
                return fail(
                    eligible,
                    Some(job.id),
                    "idle span covers a round in which a new job became eligible".to_string(),
                );
            }
        }
        for c in &mut self.failed_steals {
            *c = c.saturating_add(count);
        }
        self.idle_units += count * self.m as u64;
        Ok(())
    }

    /// Worker `p` admits `job` — its first-ever unit of work — at round
    /// `r`: pop it from the replayed queue and check policy conformance.
    fn admit(&mut self, r: Round, p: usize, job: JobId) -> Result<(), Violation> {
        let fail = |message: String| {
            Err(violation(
                Invariant::Policy,
                Some(r),
                Some(p),
                Some(job),
                message,
            ))
        };
        let queued = if self.fifo_admission && self.policy.is_some() {
            match self.queue.front() {
                Some(&front) if front == job => Some(0),
                Some(&front) => {
                    return fail(format!(
                        "admitted out of FIFO order (queue front is job {front})"
                    ))
                }
                None => return fail("admitted from an empty global queue".to_string()),
            }
        } else {
            self.queue.iter().position(|&q| q == job)
        };
        match (queued, self.policy) {
            (Some(pos), _) => {
                self.queue.remove(pos);
            }
            (None, Some(_)) => {
                return fail("admitted a job that is not in the global queue".to_string())
            }
            // Centralized engines have no admission policy to conform to;
            // the queue only feeds the idle-span work-conservation check.
            (None, None) => {}
        }
        if let (true, Some(StealPolicy::StealKFirst { k })) = (self.unit_steals, self.policy) {
            let c = self.failed_steals[p];
            if c < k as u64 {
                return fail(format!(
                    "admitted after {c} consecutive failed steals (policy requires {k})"
                ));
            }
        }
        self.live_admitted += 1;
        self.admissions += 1;
        Ok(())
    }

    /// P4 and the per-job half of P5 for `job`, whose units the trace
    /// places in rounds `first ..= last`: every reported outcome field is
    /// recomputed exactly, and a span of `P_i` units serializes over
    /// ≥ `P_i` rounds, so `F_i ≥ P_i / s` at any speed `s`.
    fn job_done(&mut self, job: JobId, first: Round, last: Round) -> Result<(), Violation> {
        let (spec, o) = (
            &self.instance.jobs()[job as usize],
            &self.result.outcomes[job as usize],
        );
        let fail =
            |invariant, message: String| Err(violation(invariant, None, None, Some(job), message));
        let p4 = |message: String| fail(Invariant::FlowAccounting, message);
        if (o.job, o.arrival, o.weight) != (job, spec.arrival, spec.weight) {
            let (j, a, w) = (o.job, o.arrival, o.weight);
            return p4(format!(
                "outcome identity mismatch (job {j} arrival {a} weight {w})"
            ));
        }
        if o.status != JobStatus::Completed {
            let status = o.status;
            return p4(format!(
                "fault-free run reported non-completed status {status:?}"
            ));
        }
        let (start, end) = (o.start_round, o.completion_round);
        if start != first {
            return p4(format!(
                "reported start_round {start} but first trace work is in round {first}"
            ));
        }
        if end != last {
            return p4(format!(
                "reported completion_round {end} but last trace work is in round {last}"
            ));
        }
        let (reported, flow) = (o.flow, self.speed.flow_time(spec.arrival, last));
        if reported != flow {
            return p4(format!(
                "reported flow {reported:?} but the trace yields {flow:?}"
            ));
        }
        let (span, num, den) = (spec.span(), self.speed.num(), self.speed.den());
        let span_bound = Rational::new(span as i128 * den as i128, num as i128);
        if flow < span_bound {
            let message = format!(
                "flow {flow:?} beats the span bound {span_bound:?} (span {span} at speed {num}/{den})"
            );
            return fail(Invariant::LowerBound, message);
        }
        self.max_flow = self.max_flow.max(flow);
        Ok(())
    }

    /// One explicit busy row at round `r`, workers in index order.
    fn busy_row(&mut self, r: Round, row: &[Action]) -> Result<(), Violation> {
        self.release_arrivals(r);
        for (p, action) in row.iter().enumerate() {
            match *action {
                Action::Work { job, node } => {
                    let unit = self.checker.work(job, node);
                    let (first, done) = unit.map_err(|v| from_trace(v, Some(p)))?;
                    if first {
                        self.admit(r, p, job)?;
                    }
                    if let Some(first_round) = done {
                        self.live_admitted -= 1;
                        self.job_done(job, first_round, r)?;
                    }
                    self.work_units += 1;
                    // A failed-steal streak is *consecutive*: the engine
                    // resets the counter on every work step (an admission
                    // is one), and on a successful steal.
                    self.failed_steals[p] = 0;
                }
                Action::Steal { hit } => self.steal(r, p, hit)?,
                Action::Idle => self.idle_worker(r, p)?,
            }
        }
        Ok(())
    }

    /// Whether no P3 check can fire in the `rounds` rounds of `row` after
    /// round `r`, just replayed: the row only works; or it holds no steal
    /// hit, no arrival becomes eligible in those rounds, and the queue is
    /// empty or every other worker is a steal-k thief staying short of
    /// `k`. (Round `r` already rejected a steal without a policy or under
    /// free steals.)
    fn quiet(&self, r: Round, row: &[Action], rounds: u64) -> bool {
        let works = |a: &Action| matches!(a, Action::Work { .. });
        let next = self.instance.jobs().get(self.next_release);
        let arrives = next.is_some_and(|job| self.speed.arrived_by_round(job.arrival, r + rounds));
        match self.policy {
            _ if row.iter().all(works) => true,
            _ if arrives || row.contains(&Action::Steal { hit: true }) => false,
            _ if self.queue.is_empty() => true,
            Some(StealPolicy::StealKFirst { k }) => (row.iter().zip(&self.failed_steals))
                .all(|(a, &c)| works(a) || *a != Action::Idle && c + rounds <= k as u64),
            _ => false,
        }
    }

    /// Count `rounds` more rounds of `row`, which [`Replay::quiet`] passed
    /// and the checker applied.
    fn tally(&mut self, row: &[Action], rounds: u64) {
        for (a, c) in row.iter().zip(&mut self.failed_steals) {
            match a {
                Action::Work { .. } => self.work_units += rounds,
                Action::Steal { .. } => {
                    (self.steal_actions, *c) = (self.steal_actions + rounds, *c + rounds)
                }
                Action::Idle => self.idle_units += rounds,
            }
        }
    }

    /// A recorded steal attempt by worker `p` at round `r`.
    fn steal(&mut self, r: Round, p: usize, hit: bool) -> Result<(), Violation> {
        let Some(policy) = self.policy else {
            return Err(violation(
                Invariant::Policy,
                Some(r),
                Some(p),
                None,
                "steal action in a centralized trace".to_string(),
            ));
        };
        if !self.unit_steals {
            return Err(violation(
                Invariant::Policy,
                Some(r),
                Some(p),
                None,
                "steal action recorded under the free steal-cost model".to_string(),
            ));
        }
        if let Some(&front) = self.queue.front() {
            match policy {
                StealPolicy::AdmitFirst => {
                    return Err(violation(
                        Invariant::Policy,
                        Some(r),
                        Some(p),
                        Some(front),
                        "stole while the global queue is non-empty (admit-first)".to_string(),
                    ));
                }
                StealPolicy::StealKFirst { k } => {
                    let c = self.failed_steals[p];
                    if c >= k as u64 {
                        return Err(violation(
                            Invariant::Policy,
                            Some(r),
                            Some(p),
                            Some(front),
                            format!(
                                "stole with {c} ≥ k = {k} failed attempts while the queue is non-empty"
                            ),
                        ));
                    }
                }
            }
        }
        self.steal_actions += 1;
        if hit {
            self.steal_hits += 1;
            self.failed_steals[p] = 0;
        } else {
            self.failed_steals[p] = self.failed_steals[p].saturating_add(1);
        }
        Ok(())
    }

    /// A recorded idle by worker `p` at round `r` inside a busy row.
    fn idle_worker(&mut self, r: Round, p: usize) -> Result<(), Violation> {
        if self.policy.is_some() && !self.queue.is_empty() {
            // Under free steals (both policies) and unit-step admit-first
            // an idle-handed worker always reaches the admission attempt;
            // unit-step steal-k idles never occur (the worker steals), so
            // an idle there is only provably wrong past the k threshold.
            let must_admit = !self.unit_steals
                || match self.policy {
                    Some(StealPolicy::AdmitFirst) => true,
                    Some(StealPolicy::StealKFirst { k }) => self.failed_steals[p] >= k as u64,
                    None => false,
                };
            if must_admit {
                let front = self.queue.front().copied();
                return Err(violation(
                    Invariant::Policy,
                    Some(r),
                    Some(p),
                    front,
                    "worker idled while the global queue holds an admissible job".to_string(),
                ));
            }
        }
        self.idle_units += 1;
        Ok(())
    }
}

/// Certify a recorded run: replay `trace` against `instance` and
/// cross-check `result` (invariants P1-P5, stopping at the first
/// violation in replay order — a job's P4 / P5 findings surface at the
/// round of its last unit).
///
/// `policy` selects the P3 conformance model: `Some(_)` for
/// work-stealing traces (the policy the engine was run with), `None` for
/// centralized traces (which have no admission queue to conform to; P1,
/// P2, P4 and P5 still apply in full).
pub fn certify_run(
    instance: &Instance,
    cfg: &SimConfig,
    policy: Option<StealPolicy>,
    result: &SimResult,
    trace: &ScheduleTrace,
) -> CertReport {
    let mut report = CertReport {
        jobs: instance.len(),
        checked: "P1-P5".to_string(),
        ..CertReport::default()
    };
    let stats = &result.stats;
    if !result.fault_events.is_empty()
        || stats.crashed_workers > 0
        || stats.injected_panics > 0
        || stats.faulted_steps > 0
        || stats.reinjected_tasks > 0
    {
        report.skipped =
            Some("fault-injected run: the fault-free feasibility model does not apply".to_string());
        return report;
    }
    // Configuration consistency: the three sources must agree before any
    // per-round arithmetic (or per-job outcome lookup) can be trusted.
    let mismatch = if trace.m != cfg.m || result.m != cfg.m {
        Some((
            Invariant::Capacity,
            format!(
                "machine-size mismatch: config m={}, trace m={}, result m={}",
                cfg.m, trace.m, result.m
            ),
        ))
    } else if trace.speed != cfg.speed || result.speed != cfg.speed {
        Some((
            Invariant::Capacity,
            format!(
                "speed mismatch: config {:?}, trace {:?}, result {:?}",
                cfg.speed, trace.speed, result.speed
            ),
        ))
    } else if result.outcomes.len() != instance.len() {
        Some((
            Invariant::FlowAccounting,
            format!(
                "{} outcomes reported for {} jobs",
                result.outcomes.len(),
                instance.len()
            ),
        ))
    } else {
        None
    };
    if let Some((invariant, message)) = mismatch {
        report.violation = Some(violation(invariant, None, None, None, message));
        return report;
    }

    let mut replay = Replay::new(instance, cfg, policy, result);
    report.violation = replay.run(trace).err();
    report.rounds = trace.num_rounds();
    report.units = replay.work_units;
    report
}

/// P5-only certification for streaming runs, where no trace is retained:
/// at speed 1 the exact streamed max flow must dominate the incremental
/// OPT lower bound computed over the same arrivals. P1-P4 are *not*
/// evaluated on streams, and the report says so.
///
/// At any other speed nothing is checkable here (the bound constrains
/// the speed-1 adversary, which an augmented schedule may legitimately
/// beat) and the report says that instead; materialized certification
/// covers those paths in full.
pub fn certify_stream_summary(
    speed: Speed,
    jobs: u64,
    max_flow: Rational,
    opt_bound: Rational,
) -> CertReport {
    let mut report = CertReport {
        jobs: jobs as usize,
        ..CertReport::default()
    };
    if speed != Speed::ONE {
        report.checked = format!("nothing checkable at speed {}/{}", speed.num(), speed.den());
        return report;
    }
    report.checked = "P5 only".to_string();
    if jobs > 0 && max_flow < opt_bound {
        report.violation = Some(violation(
            Invariant::LowerBound,
            None,
            None,
            None,
            format!("streamed max flow {max_flow:?} beats the OPT lower bound {opt_bound:?}"),
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use parflow_core::{run_priority, run_worksteal, Fifo};
    use parflow_dag::{shapes, Job};
    use std::sync::Arc;

    fn two_job_instance() -> Instance {
        Instance::new(vec![
            Job::new(0, 0, Arc::new(shapes::chain(3, 1))),
            Job::new(1, 2, Arc::new(shapes::fork_join(2, 2))),
        ])
    }

    #[test]
    fn worksteal_run_certifies_clean() {
        let inst = two_job_instance();
        let cfg = SimConfig::new(2).with_trace();
        let (result, trace) = run_worksteal(&inst, &cfg, StealPolicy::AdmitFirst, 7);
        let trace = trace.expect("trace recording was requested");
        let report = certify_run(&inst, &cfg, Some(StealPolicy::AdmitFirst), &result, &trace);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.jobs, 2);
        assert!(report.units > 0);
    }

    #[test]
    fn fifo_run_certifies_clean() {
        let inst = two_job_instance();
        let cfg = SimConfig::new(2).with_trace();
        let (result, trace) = run_priority(&inst, &cfg, &Fifo);
        let trace = trace.expect("trace recording was requested");
        let report = certify_run(&inst, &cfg, None, &result, &trace);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn stream_summary_bound_violation_is_p5() {
        let report =
            certify_stream_summary(Speed::ONE, 10, Rational::from_int(3), Rational::from_int(5));
        let v = report.violation.expect("3 < 5 must violate P5");
        assert_eq!(v.invariant, Invariant::LowerBound);
        assert!(certify_stream_summary(
            Speed::ONE,
            10,
            Rational::from_int(5),
            Rational::from_int(5)
        )
        .is_clean());
        // Augmented runs may beat the speed-1 bound.
        assert!(certify_stream_summary(
            Speed::new(3, 2),
            10,
            Rational::from_int(3),
            Rational::from_int(5)
        )
        .is_clean());
    }

    #[test]
    fn reports_render_what_was_checked() {
        let five = Rational::from_int(5);
        let at = |speed| certify_stream_summary(speed, 10, five, five).render();
        assert_eq!(
            at(Speed::ONE),
            "certify: clean (0 rounds, 0 units, 10 jobs; P5 only)"
        );
        assert_eq!(
            at(Speed::new(3, 2)),
            "certify: clean (0 rounds, 0 units, 10 jobs; nothing checkable at speed 3/2)"
        );
        assert!(CertReport::default()
            .render()
            .ends_with("; nothing checked)"));

        let inst = two_job_instance();
        let cfg = SimConfig::new(2).with_trace();
        let (result, trace) = run_priority(&inst, &cfg, &Fifo);
        let trace = trace.expect("trace recording was requested");
        let line = certify_run(&inst, &cfg, None, &result, &trace).render();
        assert!(line.starts_with("certify: clean ("), "{line}");
        assert!(line.ends_with(" 2 jobs; P1-P5)"), "{line}");
    }
}
