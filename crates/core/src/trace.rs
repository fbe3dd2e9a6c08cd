//! Schedule traces and an independent validity checker.
//!
//! Every engine can record what each processor did in each round.
//! [`TraceChecker`] replays such a record against the instance *without
//! trusting the engine*: arrivals, precedence constraints, exclusive node
//! execution and work conservation. It is the one implementation of that
//! feasibility model — [`ScheduleTrace::validate`] folds a whole trace
//! through it (property tests run every scheduler through that), and
//! `parflow-certify` drives the same checker and adds policy and
//! accounting on top.
//!
//! A trace is run-length encoded: each maximal run of identical
//! consecutive rows is one [`TraceSpan::Busy`] carrying its round count,
//! and each run of all-idle rounds (quiescent gaps between arrivals) one
//! [`TraceSpan::Idle`]. So a trace costs O(distinct consecutive rows),
//! not O(total rounds). The checker feeds a busy span's first and last
//! rounds unit by unit; the rounds between are applied in O(m) when an
//! O(m) pre-check shows no check can fire in them, and replayed round by
//! round otherwise — so a span gets exactly the finding its expansion
//! gets.

use crate::bits::BitWords;
use parflow_dag::{Instance, Job, JobId, NodeId};
use parflow_time::{Round, Speed, Work};
use std::fmt;

/// What one processor did during one round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Executed one unit of work of node `node` of job `job`.
    Work {
        /// Job worked on.
        job: JobId,
        /// Node worked on.
        node: NodeId,
    },
    /// Performed a steal attempt (work stealing only). `hit` is true if the
    /// victim had work.
    Steal {
        /// Whether the attempt found work.
        hit: bool,
    },
    /// Nothing to do.
    Idle,
}

/// A run of consecutive rounds in a [`ScheduleTrace`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceSpan {
    /// `rounds` consecutive rounds in which each of the `m` processors
    /// did what `row` says.
    Busy {
        /// What each processor did in every round of the span.
        row: Vec<Action>,
        /// Number of rounds this span covers.
        rounds: u64,
    },
    /// `count` consecutive rounds in which every processor idled.
    Idle {
        /// Number of all-idle rounds this span covers.
        count: u64,
    },
}

/// A complete record of a simulated schedule, as a sequence of rounds.
///
/// Runs of identical rows and of all-idle rounds are run-length encoded
/// (the canonical form every engine records and
/// [`ScheduleTrace::from_dense`] rebuilds). Use [`ScheduleTrace::rounds`]
/// to iterate per-round rows (idle rounds yield `None`), or
/// [`ScheduleTrace::to_dense`] for the expanded `rounds[r][p]` form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleTrace {
    /// Number of processors.
    pub m: usize,
    /// Speed of the schedule.
    pub speed: Speed,
    /// Run-length encoded rounds.
    pub spans: Vec<TraceSpan>,
}

/// A violation found by [`TraceChecker`] (and so by
/// [`ScheduleTrace::validate`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceViolation {
    /// A span covers no rounds.
    EmptySpan {
        /// Round the span would start at.
        round: Round,
    },
    /// A round row has the wrong number of processor entries.
    BadRowWidth {
        /// Offending round.
        round: Round,
        /// Entries in the row.
        width: usize,
        /// Processors of the machine.
        m: usize,
    },
    /// Work on a job before it arrived.
    EarlyStart {
        /// Offending round.
        round: Round,
        /// Offending job.
        job: JobId,
    },
    /// Work on an unknown job or node.
    UnknownTarget {
        /// Offending round.
        round: Round,
        /// Offending job.
        job: JobId,
        /// Offending node.
        node: NodeId,
    },
    /// Two processors executed the same node in the same round.
    ConcurrentNode {
        /// Offending round.
        round: Round,
        /// Offending job.
        job: JobId,
        /// Offending node.
        node: NodeId,
    },
    /// A node received a unit before all its predecessors completed.
    PrecedenceViolation {
        /// Offending round.
        round: Round,
        /// Offending job.
        job: JobId,
        /// Offending node.
        node: NodeId,
    },
    /// A node received more units than its work.
    OverExecution {
        /// Offending round.
        round: Round,
        /// Offending job.
        job: JobId,
        /// Offending node.
        node: NodeId,
    },
    /// At the end of the trace some node had not received all its units.
    IncompleteNode {
        /// Offending job.
        job: JobId,
        /// Offending node.
        node: NodeId,
        /// Units actually executed.
        executed: u64,
    },
}

impl fmt::Display for TraceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceViolation::EmptySpan { round } => write!(f, "round {round}: span of no rounds"),
            TraceViolation::BadRowWidth { round, width, m } => {
                write!(f, "round {round}: row covers {width} of {m} processors")
            }
            TraceViolation::EarlyStart { round, job } => {
                write!(f, "round {round}: job {job} executed before arrival")
            }
            TraceViolation::UnknownTarget { round, job, node } => {
                write!(f, "round {round}: unknown target job {job} node {node}")
            }
            TraceViolation::ConcurrentNode { round, job, node } => {
                write!(f, "round {round}: node {node} of job {job} on 2 processors")
            }
            TraceViolation::PrecedenceViolation { round, job, node } => {
                write!(f, "round {round}: job {job} node {node} ran before preds")
            }
            TraceViolation::OverExecution { round, job, node } => {
                write!(f, "round {round}: job {job} node {node} over-executed")
            }
            TraceViolation::IncompleteNode {
                job,
                node,
                executed,
            } => write!(f, "job {job} node {node} incomplete ({executed} units)"),
        }
    }
}

impl ScheduleTrace {
    /// An empty trace for `m` processors at `speed`.
    pub fn new(m: usize, speed: Speed) -> Self {
        ScheduleTrace {
            m,
            speed,
            spans: Vec::new(),
        }
    }

    /// Total number of rounds covered (busy and idle spans).
    pub fn num_rounds(&self) -> u64 {
        self.spans.iter().map(TraceSpan::rounds).sum()
    }

    /// Append `rounds` rounds of `row`, merging into a trailing busy span
    /// of the same row; the row is copied only when it differs.
    pub(crate) fn push_row(&mut self, row: &[Action], rounds: u64) {
        match self.spans.last_mut() {
            Some(TraceSpan::Busy {
                row: last,
                rounds: r,
            }) if last.as_slice() == row => *r += rounds,
            _ => self.spans.push(TraceSpan::Busy {
                row: row.to_vec(),
                rounds,
            }),
        }
    }

    /// Append `count` all-idle rounds, merging into a trailing idle span.
    pub(crate) fn push_idle_rounds(&mut self, count: u64) {
        if count == 0 {
            return;
        }
        if let Some(TraceSpan::Idle { count: c }) = self.spans.last_mut() {
            *c += count;
        } else {
            self.spans.push(TraceSpan::Idle { count });
        }
    }

    /// Iterate rounds in order. Busy rounds yield `Some(row)`, RLE idle
    /// rounds yield `None` (semantically a row of `m` idles).
    pub fn rounds(&self) -> impl Iterator<Item = Option<&[Action]>> {
        self.spans.iter().flat_map(|s| {
            let row = match s {
                TraceSpan::Busy { row, .. } => Some(row.as_slice()),
                TraceSpan::Idle { .. } => None,
            };
            std::iter::repeat_n(row, s.rounds() as usize)
        })
    }

    /// Expand to the dense `rounds[r][p]` form (idle spans materialized).
    pub fn to_dense(&self) -> Vec<Vec<Action>> {
        let idle = vec![Action::Idle; self.m];
        self.rounds()
            .map(|row| row.unwrap_or(&idle).to_vec())
            .collect()
    }

    /// Build the canonical trace of dense rows (the inverse of
    /// [`ScheduleTrace::to_dense`]): all-idle rows and runs of equal
    /// rows are re-encoded.
    pub fn from_dense(m: usize, speed: Speed, rows: Vec<Vec<Action>>) -> Self {
        let mut t = ScheduleTrace::new(m, speed);
        for row in rows {
            if !row.is_empty() && row.len() == m && row.iter().all(|a| *a == Action::Idle) {
                t.push_idle_rounds(1);
            } else {
                t.push_row(&row, 1);
            }
        }
        t
    }

    /// Exhaustively validate this trace against `instance`: a fold of
    /// every span, and every work unit of every round, through one
    /// [`TraceChecker`].
    pub fn validate(&self, instance: &Instance) -> Result<(), TraceViolation> {
        let mut checker = TraceChecker::new(instance, self.m, self.speed);
        for span in &self.spans {
            let start = checker.span(span)?;
            let TraceSpan::Busy { row, .. } = span else {
                continue;
            };
            let mut round = Some(start);
            while let Some(r) = round {
                for action in row {
                    if let Action::Work { job, node } = *action {
                        checker.work(job, node)?;
                    }
                }
                round = checker.next_round(row, r == start);
            }
        }
        checker.finish()
    }

    /// Count processor-rounds by action type: (work, steals, idle).
    pub fn action_counts(&self) -> (u64, u64, u64) {
        let (mut w, mut s, mut i) = (0, 0, 0);
        for span in &self.spans {
            match span {
                TraceSpan::Idle { count } => i += count * self.m as u64,
                TraceSpan::Busy { row, rounds } => {
                    for act in row {
                        match act {
                            Action::Work { .. } => w += rounds,
                            Action::Steal { .. } => s += rounds,
                            Action::Idle => i += rounds,
                        }
                    }
                }
            }
        }
        (w, s, i)
    }
}

impl TraceSpan {
    /// Number of rounds the span covers.
    pub(crate) fn rounds(&self) -> u64 {
        match self {
            TraceSpan::Busy { rounds, .. } => *rounds,
            TraceSpan::Idle { count } => *count,
        }
    }
}

/// Replay state of one node of a live job.
#[derive(Clone, Copy, Default)]
struct NodeState {
    /// Units executed so far.
    executed: Work,
    /// Predecessors that have received all their units.
    preds_done: u32,
    /// The first round the node may run in: one past the latest round in
    /// which a predecessor finished.
    ready: Round,
    /// One past the round of the node's latest unit (0: none yet) — a
    /// second unit carrying the same stamp ran in the same round.
    stamp: Round,
}

/// Node state of one live job: allocated at the job's first unit and
/// handed back to [`TraceChecker::free`] at its last.
#[derive(Default)]
struct LiveJob {
    first_round: Round,
    /// Units of the job not yet executed.
    remaining: Work,
    nodes: Vec<NodeState>,
}

/// The feasibility model, replayed one span and one work unit at a time.
///
/// Enter each [`TraceSpan`] through [`TraceChecker::span`] (which keeps
/// the running round), feed every `Work` action of a busy span's row, in
/// processor order, through [`TraceChecker::work`], and close the trace
/// with [`TraceChecker::finish`]. Each further round of a busy span is
/// [`TraceChecker::next_round`] and the row's units again; it may skip
/// to the span's last round.
/// Checked, independently of any engine state:
/// 1. every span covers at least one round, and every busy row all `m`
///    processors;
/// 2. no job is worked on before its arrival becomes visible
///    (`arrival ≤ round-start`);
/// 3. no node runs on two processors in the same round;
/// 4. a node's first unit comes strictly after the round in which its
///    last predecessor finished (units occupy whole rounds);
/// 5. every node receives exactly `work` units over the trace.
///
/// Node state exists only while a job is live (between its first and
/// last unit) and is recycled; what grows with the instance is one
/// completed bit per job.
pub struct TraceChecker<'a> {
    jobs: &'a [Job],
    m: usize,
    speed: Speed,
    /// The round being fed: the first of the span entered last, unless
    /// [`TraceChecker::next_round`] moved on.
    round: Round,
    /// First round of the span to enter next.
    next_round: Round,
    /// Jobs that received all their units.
    completed: BitWords,
    /// Live jobs as `(job, index into slabs)`, ascending by job.
    live: Vec<(JobId, usize)>,
    slabs: Vec<LiveJob>,
    /// Slabs of completed jobs, for the next job to start.
    free: Vec<usize>,
}

impl<'a> TraceChecker<'a> {
    /// A checker at round 0 of a schedule of `instance` on `m`
    /// processors at `speed`.
    pub fn new(instance: &'a Instance, m: usize, speed: Speed) -> Self {
        let mut completed = BitWords::default();
        completed.reset(instance.len());
        TraceChecker {
            jobs: instance.jobs(),
            m,
            speed,
            round: 0,
            next_round: 0,
            completed,
            live: Vec::new(),
            slabs: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Enter the next span and return the round it starts at; a span
    /// must cover a round, and a busy row be `m` wide.
    pub fn span(&mut self, span: &TraceSpan) -> Result<Round, TraceViolation> {
        self.round = self.next_round;
        if let TraceSpan::Busy { row, .. } = span {
            if row.len() != self.m {
                return Err(TraceViolation::BadRowWidth {
                    round: self.round,
                    width: row.len(),
                    m: self.m,
                });
            }
        }
        if span.rounds() == 0 {
            return Err(TraceViolation::EmptySpan { round: self.round });
        }
        self.next_round += span.rounds();
        Ok(self.round)
    }

    /// Move on from the round just fed (every unit of `row` accepted) to
    /// the next round of the busy span `row` entered last, to feed its
    /// units again; `None` past the span's last round.
    ///
    /// `window` says the caller's own checks cannot fire in the rounds
    /// strictly between this one and the span's last. If the checker's
    /// cannot either — every node of the row belongs to a live job and
    /// keeps more units than those rounds, so none starts, completes or
    /// over-runs in them — they are applied at once and the span's last
    /// round is returned.
    pub fn next_round(&mut self, row: &[Action], window: bool) -> Option<Round> {
        let last = self.next_round - 1;
        let between = last.checked_sub(self.round + 1)?;
        self.round += 1;
        if window && between > 0 && self.units(row, between, None) {
            self.units(row, between, Some(last));
            self.round = last;
        }
        Some(self.round)
    }

    /// Whether every node `row` works on belongs to a live job and keeps
    /// more than `rounds` units; with `stamp`, also give each of them
    /// those `rounds` units, the last in the round before `stamp`.
    fn units(&mut self, row: &[Action], rounds: u64, stamp: Option<Round>) -> bool {
        for action in row {
            if let Action::Work { job, node } = *action {
                let Ok(at) = self.live.binary_search_by_key(&job, |&(j, _)| j) else {
                    return false;
                };
                let state = &mut self.slabs[self.live[at].1];
                let n = &mut state.nodes[node as usize];
                if self.jobs[job as usize].dag.work(node) - n.executed <= rounds {
                    return false;
                }
                if let Some(stamp) = stamp {
                    (n.executed, n.stamp) = (n.executed + rounds, stamp);
                    state.remaining -= rounds;
                }
            }
        }
        true
    }

    /// One unit of work on `node` of `job` in the round being fed.
    ///
    /// Returns whether this was the job's first unit and, when it was its
    /// last, the round of its first.
    pub fn work(
        &mut self,
        job: JobId,
        node: NodeId,
    ) -> Result<(bool, Option<Round>), TraceViolation> {
        let round = self.round;
        let (arrival, dag) = match self.jobs.get(job as usize) {
            Some(j) if (node as usize) < j.dag.num_nodes() => (j.arrival, &j.dag),
            _ => return Err(TraceViolation::UnknownTarget { round, job, node }),
        };
        if self.completed.get(job as usize) {
            return Err(TraceViolation::OverExecution { round, job, node });
        }
        let (at, first) = match self.live.binary_search_by_key(&job, |&(j, _)| j) {
            Ok(at) => (at, false),
            // Rounds are fed in order, so a job's first unit is the one
            // that has to be visible.
            Err(_) if !self.speed.arrived_by_round(arrival, round) => {
                return Err(TraceViolation::EarlyStart { round, job });
            }
            Err(at) => {
                let slab = self.free.pop().unwrap_or_else(|| {
                    self.slabs.push(LiveJob::default());
                    self.slabs.len() - 1
                });
                let state = &mut self.slabs[slab];
                state.first_round = round;
                state.remaining = dag.total_work();
                state.nodes.clear();
                state.nodes.resize(dag.num_nodes(), NodeState::default());
                self.live.insert(at, (job, slab));
                (at, true)
            }
        };
        let slab = self.live[at].1;
        let state = &mut self.slabs[slab];
        let n = &mut state.nodes[node as usize];
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
                let succ = &mut state.nodes[s as usize];
                succ.preds_done += 1;
                succ.ready = round + 1;
            }
        }
        state.remaining -= 1;
        if state.remaining > 0 {
            return Ok((first, None));
        }
        self.completed.set(job as usize);
        self.live.remove(at);
        self.free.push(slab);
        Ok((first, Some(self.slabs[slab].first_round)))
    }

    /// Close the trace: every node of every job must have received all
    /// its units.
    pub fn finish(&self) -> Result<(), TraceViolation> {
        let Some(short) = self
            .jobs
            .iter()
            .find(|j| !self.completed.get(j.id as usize))
        else {
            return Ok(());
        };
        // A job that never started is short at node 0; a live one at the
        // first node still owed units.
        let (node, executed) = match self.live.binary_search_by_key(&short.id, |&(j, _)| j) {
            Ok(at) => {
                let nodes = self.slabs[self.live[at].1].nodes.iter().enumerate();
                nodes
                    // lint: allow(truncating-cast) NodeId is u32; JobDag construction caps node count at u32 range
                    .map(|(v, n)| (v as NodeId, n.executed))
                    .find(|&(v, executed)| executed < short.dag.work(v))
                    .unwrap_or((0, 0))
            }
            Err(_) => (0, 0),
        };
        Err(TraceViolation::IncompleteNode {
            job: short.id,
            node,
            executed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parflow_dag::{shapes, Instance, Job};
    use std::sync::Arc;

    fn one_job_instance(arrival: u64) -> Instance {
        let dag = Arc::new(shapes::chain(2, 1)); // nodes 0 -> 1, 1 unit each
        Instance::new(vec![Job::new(0, arrival, dag)])
    }

    fn trace(m: usize, rounds: Vec<Vec<Action>>) -> ScheduleTrace {
        let mut t = ScheduleTrace::new(m, Speed::ONE);
        for row in rounds {
            t.push_row(&row, 1);
        }
        t
    }

    #[test]
    fn valid_chain_trace() {
        let inst = one_job_instance(0);
        let t = trace(
            1,
            vec![
                vec![Action::Work { job: 0, node: 0 }],
                vec![Action::Work { job: 0, node: 1 }],
            ],
        );
        assert_eq!(t.validate(&inst), Ok(()));
        assert_eq!(t.action_counts(), (2, 0, 0));
    }

    #[test]
    fn early_start_detected() {
        let inst = one_job_instance(5);
        let t = trace(1, vec![vec![Action::Work { job: 0, node: 0 }]]);
        assert_eq!(
            t.validate(&inst),
            Err(TraceViolation::EarlyStart { round: 0, job: 0 })
        );
    }

    #[test]
    fn precedence_violation_detected() {
        let inst = one_job_instance(0);
        // Node 1 before node 0.
        let t = trace(
            1,
            vec![
                vec![Action::Work { job: 0, node: 1 }],
                vec![Action::Work { job: 0, node: 0 }],
            ],
        );
        assert!(matches!(
            t.validate(&inst),
            Err(TraceViolation::PrecedenceViolation { node: 1, .. })
        ));
    }

    #[test]
    fn same_round_succ_violation_detected() {
        // Executing succ in the same round as the pred's completion is a
        // violation (rounds are atomic time steps).
        let dag = Arc::new(shapes::chain(2, 1));
        let inst = Instance::new(vec![Job::new(0, 0, dag)]);
        let t = trace(
            2,
            vec![vec![
                Action::Work { job: 0, node: 0 },
                Action::Work { job: 0, node: 1 },
            ]],
        );
        assert!(matches!(
            t.validate(&inst),
            Err(TraceViolation::PrecedenceViolation { .. })
        ));
    }

    #[test]
    fn concurrent_node_detected() {
        let dag = Arc::new(shapes::single_node(2));
        let inst = Instance::new(vec![Job::new(0, 0, dag)]);
        let t = trace(
            2,
            vec![vec![
                Action::Work { job: 0, node: 0 },
                Action::Work { job: 0, node: 0 },
            ]],
        );
        assert!(matches!(
            t.validate(&inst),
            Err(TraceViolation::ConcurrentNode { .. })
        ));
    }

    #[test]
    fn over_execution_detected() {
        let inst = Instance::new(vec![Job::new(0, 0, Arc::new(shapes::single_node(1)))]);
        let t = trace(
            1,
            vec![
                vec![Action::Work { job: 0, node: 0 }],
                vec![Action::Work { job: 0, node: 0 }],
            ],
        );
        assert!(matches!(
            t.validate(&inst),
            Err(TraceViolation::OverExecution { .. })
        ));
    }

    #[test]
    fn incomplete_detected() {
        let inst = Instance::new(vec![Job::new(0, 0, Arc::new(shapes::single_node(2)))]);
        let t = trace(1, vec![vec![Action::Work { job: 0, node: 0 }]]);
        assert!(matches!(
            t.validate(&inst),
            Err(TraceViolation::IncompleteNode { executed: 1, .. })
        ));
    }

    #[test]
    fn unknown_job_detected() {
        let inst = one_job_instance(0);
        let t = trace(1, vec![vec![Action::Work { job: 7, node: 0 }]]);
        assert!(matches!(
            t.validate(&inst),
            Err(TraceViolation::UnknownTarget { job: 7, .. })
        ));
    }

    #[test]
    fn bad_row_width_detected() {
        let inst = one_job_instance(0);
        let t = trace(2, vec![vec![Action::Idle]]);
        assert_eq!(
            t.validate(&inst),
            Err(TraceViolation::BadRowWidth {
                round: 0,
                width: 1,
                m: 2
            })
        );
    }

    #[test]
    fn augmented_speed_arrival_check() {
        // Speed 2: round r starts at r/2. Job arrives at tick 1 → first
        // valid round is 2.
        let dag = Arc::new(shapes::single_node(1));
        let inst = Instance::new(vec![Job::new(0, 1, dag)]);
        let mut t = trace(
            1,
            vec![vec![Action::Idle], vec![Action::Work { job: 0, node: 0 }]],
        );
        t.speed = Speed::integer(2);
        assert_eq!(
            t.validate(&inst),
            Err(TraceViolation::EarlyStart { round: 1, job: 0 })
        );
        let mut t2 = trace(
            1,
            vec![
                vec![Action::Idle],
                vec![Action::Idle],
                vec![Action::Work { job: 0, node: 0 }],
            ],
        );
        t2.speed = Speed::integer(2);
        assert_eq!(t2.validate(&inst), Ok(()));
    }

    #[test]
    fn idle_spans_rle_round_trip() {
        // Idle gaps are RLE'd, merge with adjacent idle pushes, and
        // round-trip through the dense form.
        let mut t = ScheduleTrace::new(2, Speed::ONE);
        t.push_row(&[Action::Work { job: 0, node: 0 }, Action::Idle], 1);
        t.push_idle_rounds(3);
        t.push_idle_rounds(2);
        t.push_row(&[Action::Work { job: 0, node: 1 }, Action::Idle], 1);
        assert_eq!(t.spans.len(), 3, "adjacent idle spans merged");
        assert_eq!(t.num_rounds(), 7);
        assert_eq!(t.action_counts(), (2, 0, 12));

        let dense = t.to_dense();
        assert_eq!(dense.len(), 7);
        assert_eq!(dense[1], vec![Action::Idle; 2]);
        let back = ScheduleTrace::from_dense(2, Speed::ONE, dense);
        assert_eq!(back.spans, t.spans);
    }

    #[test]
    fn idle_spans_validate_like_dense_rows() {
        // A trace with an RLE gap validates iff its dense expansion does:
        // the precedence round arithmetic must count skipped rounds.
        let dag = Arc::new(shapes::chain(2, 1));
        let inst = Instance::new(vec![Job::new(0, 0, dag)]);
        let mut t = ScheduleTrace::new(1, Speed::ONE);
        t.push_row(&[Action::Work { job: 0, node: 0 }], 1);
        t.push_idle_rounds(4);
        t.push_row(&[Action::Work { job: 0, node: 1 }], 1);
        assert_eq!(t.validate(&inst), Ok(()));
        assert_eq!(
            ScheduleTrace::from_dense(1, Speed::ONE, t.to_dense()).validate(&inst),
            Ok(())
        );
    }

    #[test]
    fn checker_state_is_o_live() {
        // 10 000 chain jobs back to back on one processor: exactly one
        // job is live at any unit, and the slab of the first job serves
        // all the others.
        const JOBS: u32 = 10_000;
        let dag = Arc::new(shapes::chain(3, 1));
        let inst = Instance::new(
            (0..JOBS)
                .map(|i| Job::new(i, 3 * i as u64, dag.clone()))
                .collect(),
        );
        let mut checker = TraceChecker::new(&inst, 1, Speed::ONE);
        for job in 0..JOBS {
            for node in 0..3 {
                let row = TraceSpan::Busy {
                    row: vec![Action::Work { job, node }],
                    rounds: 1,
                };
                assert_eq!(checker.span(&row), Ok(3 * job as u64 + node as u64));
                let first_round = 3 * job as u64;
                assert_eq!(
                    checker.work(job, node),
                    Ok((node == 0, (node == 2).then_some(first_round)))
                );
                assert!(checker.live.len() <= 1);
                assert_eq!(checker.slabs.len(), 1);
            }
            assert!(checker.live.is_empty());
            assert_eq!(checker.free.len(), 1);
        }
        assert_eq!(checker.finish(), Ok(()));
    }

    #[test]
    fn wide_row_on_distinct_nodes_validates() {
        // One m = 256 row, every processor on its own node: exclusivity is
        // a per-node stamp, not a scan of the row so far.
        const M: usize = 256;
        // Node 0 forks into chunks 1..=M, which join in node M + 1.
        let dag = Arc::new(shapes::parallel_for(M as u64, M));
        let inst = Instance::new(vec![Job::new(0, 0, dag)]);
        let alone = |node| {
            let mut row = vec![Action::Idle; M];
            row[0] = Action::Work { job: 0, node };
            row
        };
        let wide = (1..=M as NodeId).map(|node| Action::Work { job: 0, node });
        let mut t = trace(M, vec![alone(0), wide.collect(), alone(M as NodeId + 1)]);
        assert_eq!(t.validate(&inst), Ok(()));
        // The same row with one node on two processors is caught at it.
        let TraceSpan::Busy { row, .. } = &mut t.spans[1] else {
            panic!("row 1 is busy");
        };
        row[M - 1] = row[0];
        assert_eq!(
            t.validate(&inst),
            Err(TraceViolation::ConcurrentNode {
                round: 1,
                job: 0,
                node: 1
            })
        );
    }

    #[test]
    fn equal_rows_merge_into_one_span_and_replay_as_their_expansion() {
        // Job 0: a chain of two 5-unit nodes; job 1 (arriving at 2): a
        // 3-unit node. Rows repeat while no node runs out.
        let inst = Instance::new(vec![
            Job::new(0, 0, Arc::new(shapes::chain(2, 5))),
            Job::new(1, 2, Arc::new(shapes::single_node(3))),
        ]);
        let (a, b) = (
            Action::Work { job: 0, node: 0 },
            Action::Work { job: 1, node: 0 },
        );
        let mut t = ScheduleTrace::new(2, Speed::ONE);
        t.push_row(&[a, Action::Idle], 2);
        t.push_row(&[a, b], 1);
        t.push_row(&[a, b], 2);
        t.push_row(&[Action::Work { job: 0, node: 1 }, Action::Idle], 5);
        assert_eq!(t.spans.len(), 3, "equal consecutive rows merged");
        assert_eq!(t.num_rounds(), 10);
        assert_eq!(t.action_counts(), (13, 0, 7));
        assert_eq!(ScheduleTrace::from_dense(2, Speed::ONE, t.to_dense()), t);
        assert_eq!(t.validate(&inst), Ok(()));

        // One round too many: the replay finds the over-execution where
        // the expansion has it.
        let mut long = t.clone();
        let TraceSpan::Busy { rounds, .. } = &mut long.spans[1] else {
            panic!("span 1 is busy");
        };
        *rounds += 1;
        let over = Err(TraceViolation::OverExecution {
            round: 5,
            job: 0,
            node: 0,
        });
        assert_eq!(long.validate(&inst), over);
        let dense = ScheduleTrace::from_dense(2, Speed::ONE, long.to_dense());
        assert_eq!(dense.validate(&inst), over);

        long.spans[1] = TraceSpan::Busy {
            row: vec![a, b],
            rounds: 0,
        };
        assert_eq!(
            long.validate(&inst),
            Err(TraceViolation::EmptySpan { round: 2 })
        );
    }
}
