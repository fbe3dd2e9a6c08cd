//! The per-unit replay: the oracle the run-based checker and certifier
//! are held to.
//!
//! It feeds every unit of every dense row through the feasibility model
//! and through the certifier's policy and accounting checks, workers in
//! index order — the way `ScheduleTrace::validate` and `certify_run`
//! replayed a trace before they consumed per-worker runs. A run of
//! all-idle rows is one idle span, as `ScheduleTrace::from_dense` encodes
//! it. The suites require the library's finding on a trace (its rendered
//! line) to equal this replay's on the trace's dense rows.
//!
//! Shared by `crates/certify/tests/mutation.rs` and `tests/trace_fuzz.rs`.

#![allow(dead_code)]

use parflow_certify::{CertReport, Invariant, Violation};
use parflow_core::{
    combined_lower_bound, Action, AdmissionOrder, JobStatus, SimConfig, SimResult, StealCost,
    StealPolicy, TraceViolation,
};
use parflow_dag::{Instance, JobId, NodeId};
use parflow_time::{Rational, Round, Speed};
use std::collections::VecDeque;

/// `rows` grouped as the trace encodes them: `(first round, row)` for a
/// row that is not all idle, `(first round, None)` with the count for a
/// run of all-idle rows.
fn spans(rows: &[Vec<Action>]) -> Vec<(Round, Option<&[Action]>, u64)> {
    let mut out: Vec<(Round, Option<&[Action]>, u64)> = Vec::new();
    for (r, row) in (0..).zip(rows) {
        if row.iter().all(|a| *a == Action::Idle) {
            if let Some((_, None, count)) = out.last_mut() {
                *count += 1;
                continue;
            }
            out.push((r, None, 1));
        } else {
            out.push((r, Some(row.as_slice()), 1));
        }
    }
    out
}

#[derive(Clone, Copy, Default)]
struct NodeState {
    executed: u64,
    preds_done: u32,
    /// One past the latest round in which a predecessor finished.
    ready: Round,
    /// One past the round of the node's latest unit (0: none yet).
    stamp: Round,
}

/// The feasibility model, one unit at a time.
struct Units<'a> {
    inst: &'a Instance,
    speed: Speed,
    nodes: Vec<Vec<NodeState>>,
    remaining: Vec<u64>,
    first_round: Vec<Option<Round>>,
}

impl<'a> Units<'a> {
    fn new(inst: &'a Instance, speed: Speed) -> Self {
        let jobs = inst.jobs();
        Units {
            inst,
            speed,
            nodes: jobs
                .iter()
                .map(|j| vec![NodeState::default(); j.dag.num_nodes()])
                .collect(),
            remaining: jobs.iter().map(|j| j.dag.total_work()).collect(),
            first_round: vec![None; jobs.len()],
        }
    }

    /// One unit on `node` of `job` in round `round`: whether it was the
    /// job's first, and the job's first round when it was its last.
    fn work(
        &mut self,
        round: Round,
        job: JobId,
        node: NodeId,
    ) -> Result<(bool, Option<Round>), TraceViolation> {
        let spec = match self.inst.jobs().get(job as usize) {
            Some(j) if (node as usize) < j.dag.num_nodes() => j,
            _ => return Err(TraceViolation::UnknownTarget { round, job, node }),
        };
        let j = job as usize;
        if self.remaining[j] == 0 {
            return Err(TraceViolation::OverExecution { round, job, node });
        }
        let first = self.first_round[j].is_none();
        if first {
            if !self.speed.arrived_by_round(spec.arrival, round) {
                return Err(TraceViolation::EarlyStart { round, job });
            }
            self.first_round[j] = Some(round);
        }
        let dag = &spec.dag;
        let n = &mut self.nodes[j][node as usize];
        if n.stamp == round + 1 {
            return Err(TraceViolation::ConcurrentNode { round, job, node });
        }
        if n.executed == 0 && (n.preds_done < dag.pred_count(node) || n.ready > round) {
            return Err(TraceViolation::PrecedenceViolation { round, job, node });
        }
        if n.executed == dag.work(node) {
            return Err(TraceViolation::OverExecution { round, job, node });
        }
        n.executed += 1;
        n.stamp = round + 1;
        if n.executed == dag.work(node) {
            for &s in dag.succs(node) {
                let succ = &mut self.nodes[j][s as usize];
                succ.preds_done += 1;
                succ.ready = round + 1;
            }
        }
        self.remaining[j] -= 1;
        Ok((
            first,
            (self.remaining[j] == 0).then(|| self.first_round[j].unwrap_or(round)),
        ))
    }

    /// Every node of every job received all its units.
    fn finish(&self) -> Result<(), TraceViolation> {
        for (j, spec) in self.inst.jobs().iter().enumerate() {
            if self.remaining[j] == 0 {
                continue;
            }
            let (node, executed) = (0..spec.dag.num_nodes() as NodeId)
                .map(|v| (v, self.nodes[j][v as usize].executed))
                .find(|&(v, executed)| executed < spec.dag.work(v))
                .unwrap_or((0, 0));
            return Err(TraceViolation::IncompleteNode {
                job: spec.id,
                node,
                executed,
            });
        }
        Ok(())
    }
}

/// `ScheduleTrace::validate`'s verdict on the trace of `rows`.
pub fn validate(
    inst: &Instance,
    m: usize,
    speed: Speed,
    rows: &[Vec<Action>],
) -> Result<(), TraceViolation> {
    let mut units = Units::new(inst, speed);
    for (round, row, _) in spans(rows) {
        let Some(row) = row else { continue };
        if row.len() != m {
            let width = row.len();
            return Err(TraceViolation::BadRowWidth { round, width, m });
        }
        for a in row {
            if let Action::Work { job, node } = *a {
                units.work(round, job, node)?;
            }
        }
    }
    units.finish()
}

/// `certify_run`'s report on the trace of `rows` (for a fault-free run
/// whose config, trace and result agree on `m` and speed).
pub fn certify(
    inst: &Instance,
    cfg: &SimConfig,
    policy: Option<StealPolicy>,
    result: &SimResult,
    rows: &[Vec<Action>],
) -> CertReport {
    let mut replay = Replay {
        inst,
        result,
        speed: cfg.speed,
        m: cfg.m,
        policy,
        unit_steals: matches!(cfg.steal_cost, StealCost::UnitStep),
        fifo_admission: matches!(cfg.admission, AdmissionOrder::Fifo),
        units: Units::new(inst, cfg.speed),
        next_release: 0,
        queue: VecDeque::new(),
        live_admitted: 0,
        failed_steals: vec![0; cfg.m],
        max_flow: Rational::from_int(0),
        tallies: [0; 5],
    };
    CertReport {
        violation: replay.run(rows).err(),
        rounds: rows.len() as u64,
        units: replay.tallies[0],
        jobs: inst.len(),
        skipped: None,
        checked: "P1-P5".to_string(),
    }
}

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

/// A feasibility finding as the certifier reports it.
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

struct Replay<'a> {
    inst: &'a Instance,
    result: &'a SimResult,
    speed: Speed,
    m: usize,
    policy: Option<StealPolicy>,
    unit_steals: bool,
    fifo_admission: bool,
    units: Units<'a>,
    next_release: usize,
    queue: VecDeque<JobId>,
    live_admitted: usize,
    failed_steals: Vec<u64>,
    max_flow: Rational,
    /// Work units, steal actions, steal hits, idle units, admissions.
    tallies: [u64; 5],
}

impl Replay<'_> {
    fn run(&mut self, rows: &[Vec<Action>]) -> Result<(), Violation> {
        for (round, row, count) in spans(rows) {
            match row {
                None => self.idle_span(round, count)?,
                Some(row) if row.len() != self.m => {
                    let width = row.len();
                    let v = TraceViolation::BadRowWidth {
                        round,
                        width,
                        m: self.m,
                    };
                    return Err(from_trace(v, None));
                }
                Some(row) => self.busy_row(round, row)?,
            }
        }
        self.units.finish().map_err(|v| from_trace(v, None))?;

        let fail =
            |invariant, message: String| Err(violation(invariant, None, None, None, message));
        let stats = &self.result.stats;
        let [work, steals, hits, idle, admissions] = self.tallies;
        let mut counter_checks: Vec<(&str, u64, u64)> = vec![
            ("work_steps", work, stats.work_steps),
            ("idle_steps", idle, stats.idle_steps),
        ];
        if self.policy.is_some() {
            counter_checks.push(("admissions", admissions, stats.admissions));
            if self.unit_steals {
                counter_checks.push(("steal_attempts", steals, stats.steal_attempts));
                counter_checks.push(("successful_steals", hits, stats.successful_steals));
            }
        }
        for (name, traced, reported) in counter_checks {
            if traced != reported {
                let message = format!("trace shows {traced} {name}, engine reported {reported}");
                return fail(Invariant::Capacity, message);
            }
        }
        let (reported, traced) = (self.result.total_rounds, rows.len() as u64);
        if reported != traced {
            let message =
                format!("reported total_rounds {reported} but the trace covers {traced} rounds");
            return fail(Invariant::FlowAccounting, message);
        }
        if self.speed == Speed::ONE && !self.inst.is_empty() {
            let (max_flow, bound) = (self.max_flow, combined_lower_bound(self.inst, self.m));
            if max_flow < bound {
                let message =
                    format!("observed max flow {max_flow:?} beats the OPT lower bound {bound:?}");
                return fail(Invariant::LowerBound, message);
            }
        }
        Ok(())
    }

    fn release_arrivals(&mut self, r: Round) {
        let jobs = self.inst.jobs();
        while let Some(job) = jobs.get(self.next_release) {
            if !self.speed.arrived_by_round(job.arrival, r) {
                break;
            }
            self.queue.push_back(job.id);
            self.next_release += 1;
        }
    }

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
        if let Some(job) = self.inst.jobs().get(self.next_release) {
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
        self.tallies[3] += count * self.m as u64;
        Ok(())
    }

    fn busy_row(&mut self, r: Round, row: &[Action]) -> Result<(), Violation> {
        self.release_arrivals(r);
        for (p, action) in row.iter().enumerate() {
            match *action {
                Action::Work { job, node } => {
                    let unit = self.units.work(r, job, node);
                    let (first, done) = unit.map_err(|v| from_trace(v, Some(p)))?;
                    if first {
                        self.admit(r, p, job)?;
                    }
                    if let Some(first_round) = done {
                        self.live_admitted -= 1;
                        self.job_done(job, first_round, r)?;
                    }
                    self.tallies[0] += 1;
                    self.failed_steals[p] = 0;
                }
                Action::Steal { hit } => self.steal(r, p, hit)?,
                Action::Idle => self.idle_worker(r, p)?,
            }
        }
        Ok(())
    }

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
        self.tallies[4] += 1;
        Ok(())
    }

    fn job_done(&mut self, job: JobId, first: Round, last: Round) -> Result<(), Violation> {
        let (spec, o) = (
            &self.inst.jobs()[job as usize],
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

    fn steal(&mut self, r: Round, p: usize, hit: bool) -> Result<(), Violation> {
        let fail = |job, message: String| {
            Err(violation(Invariant::Policy, Some(r), Some(p), job, message))
        };
        let Some(policy) = self.policy else {
            return fail(None, "steal action in a centralized trace".to_string());
        };
        if !self.unit_steals {
            return fail(
                None,
                "steal action recorded under the free steal-cost model".to_string(),
            );
        }
        if let Some(&front) = self.queue.front() {
            match policy {
                StealPolicy::AdmitFirst => {
                    return fail(
                        Some(front),
                        "stole while the global queue is non-empty (admit-first)".to_string(),
                    );
                }
                StealPolicy::StealKFirst { k } => {
                    let c = self.failed_steals[p];
                    if c >= k as u64 {
                        return fail(
                            Some(front),
                            format!(
                                "stole with {c} ≥ k = {k} failed attempts while the queue is non-empty"
                            ),
                        );
                    }
                }
            }
        }
        self.tallies[1] += 1;
        if hit {
            self.tallies[2] += 1;
            self.failed_steals[p] = 0;
        } else {
            self.failed_steals[p] = self.failed_steals[p].saturating_add(1);
        }
        Ok(())
    }

    fn idle_worker(&mut self, r: Round, p: usize) -> Result<(), Violation> {
        if self.policy.is_some() && !self.queue.is_empty() {
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
        self.tallies[3] += 1;
        Ok(())
    }
}
