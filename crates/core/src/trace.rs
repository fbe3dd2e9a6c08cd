//! Schedule traces and an independent validity checker.
//!
//! Every engine can record what each processor did in each round. The
//! checker replays such a record against the instance *without trusting
//! the engine*: arrivals, precedence constraints, exclusive node
//! execution and work conservation. It is the one implementation of that
//! feasibility model — [`ScheduleTrace::validate`] is the checker alone
//! (property tests run every scheduler through it), and `parflow-certify`
//! drives the same checker through [`ScheduleTrace::replay`] and adds
//! policy and accounting on top, as a set of [`RunHooks`].
//!
//! A trace is run-length encoded: each maximal run of identical
//! consecutive rows is one [`TraceSpan::Busy`] carrying its round count,
//! and each run of all-idle rounds (quiescent gaps between arrivals) one
//! [`TraceSpan::Idle`]. The rows live in one arena of `m`-wide cells, a
//! `u64` per processor, kept in blocks of up to 32 KiB, so two rows
//! compare as integers and a trace is a few allocations, not one per row.
//!
//! The checker consumes *runs*: each worker's current action and the
//! round it began. A span only diffs its cells against the current runs.
//! A work run that closes adds its length to its node at once; one that
//! opens does the checks of a node's first unit. What can fail later —
//! the node running out of work inside the run, or a hook's policy limit
//! — becomes a due round, and the replay stops only at due rounds, in
//! (round, worker) order. So a trace costs O(runs + spans · m), not
//! O(units), and gets exactly the finding a unit-by-unit replay of its
//! expansion gets.

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

/// A trace cell: `job << 32 | node` for work. A node id of `u32::MAX`
/// (which no DAG has: node counts fit in a `u32`) tags the other actions
/// by the job field, so `Work` on node `u32::MAX` has no cell.
const TAG: u64 = NodeId::MAX as u64;
pub(crate) const IDLE: u64 = TAG;
const MISS: u64 = 1 << 32 | TAG;
const HIT: u64 = 2 << 32 | TAG;
/// No run: every worker at the trace's start and after an idle span.
const NONE: u64 = 3 << 32 | TAG;

/// Cells to an arena block (32 KiB): blocks this small come out of the
/// allocator's heap and go back to it, where one arena grown by
/// doubling is mapped fresh, page by page, for every trace.
const BLOCK: usize = 4096;

/// The cell of `action`; see [`TAG`] for the one action it cannot hold.
pub(crate) fn cell(action: Action) -> u64 {
    match action {
        Action::Work { job, node } => {
            debug_assert!(node != NodeId::MAX, "work on node u32::MAX has no cell");
            (job as u64) << 32 | node as u64
        }
        Action::Steal { hit: false } => MISS,
        Action::Steal { hit: true } => HIT,
        Action::Idle => IDLE,
    }
}

/// Whether `cell` is a unit of work.
fn is_work(cell: u64) -> bool {
    cell & TAG != TAG
}

/// The job and node of a work cell.
fn target(cell: u64) -> (JobId, NodeId) {
    // lint: allow(truncating-cast) a cell is two u32 halves
    ((cell >> 32) as JobId, cell as NodeId)
}

/// The action `cell` holds.
fn action(cell: u64) -> Action {
    match cell {
        IDLE => Action::Idle,
        MISS => Action::Steal { hit: false },
        HIT => Action::Steal { hit: true },
        _ => {
            let (job, node) = target(cell);
            Action::Work { job, node }
        }
    }
}

/// Names one row of a [`ScheduleTrace`]'s arena. Only a trace hands
/// these out, and one names a row of that trace only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowId(u32);

/// A run of consecutive rounds in a [`ScheduleTrace`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceSpan {
    /// `rounds` consecutive rounds in which each of the `m` processors
    /// did what the trace's row `row` says.
    Busy {
        /// What each processor did in every round of the span.
        row: RowId,
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
/// [`ScheduleTrace::from_dense`] rebuilds), and the busy rows are kept in
/// one arena of `m`-wide cells that [`TraceSpan::Busy`] names. Use
/// [`ScheduleTrace::to_dense`] for the expanded `rounds[r][p]` form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleTrace {
    /// Number of processors.
    pub m: usize,
    /// Speed of the schedule.
    pub speed: Speed,
    /// Run-length encoded rounds.
    pub spans: Vec<TraceSpan>,
    /// The busy rows, `m` cells each, in the order they were recorded,
    /// `1 << shift` rows to a block.
    blocks: Vec<Vec<u64>>,
    /// Rows recorded.
    rows: u32,
    /// Log2 of the rows to a block: as many as fit in [`BLOCK`] cells,
    /// rounded down to a power of two, and at least one.
    shift: u32,
}

/// A violation found by the checker (and so by
/// [`ScheduleTrace::validate`]), or a dense row that
/// [`ScheduleTrace::from_dense`] cannot encode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceViolation {
    /// A span covers no rounds.
    EmptySpan {
        /// Round the span would start at.
        round: Round,
    },
    /// A dense row has the wrong number of processor entries.
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
            blocks: Vec::new(),
            rows: 0,
            shift: (BLOCK / m.max(1)).max(1).ilog2(),
        }
    }

    /// Total number of rounds covered (busy and idle spans).
    pub fn num_rounds(&self) -> u64 {
        self.spans.iter().map(TraceSpan::rounds).sum()
    }

    /// The cells of row `row`.
    fn row(&self, row: RowId) -> &[u64] {
        let (block, at) = (row.0 >> self.shift, row.0 & ((1 << self.shift) - 1));
        let at = at as usize * self.m;
        &self.blocks[block as usize][at..at + self.m]
    }

    /// Append `rounds` rounds of the `m`-wide `row`, merging into a
    /// trailing busy span of the same row; the row is kept only when it
    /// differs.
    pub(crate) fn push_row(&mut self, row: &[Action], rounds: u64) {
        let cells: Vec<u64> = row.iter().map(|&a| cell(a)).collect();
        self.push_cells(&cells, rounds);
    }

    /// [`ScheduleTrace::push_row`] for a row of `m` cells.
    pub(crate) fn push_cells(&mut self, row: &[u64], rounds: u64) {
        debug_assert_eq!(row.len(), self.m, "a busy row covers every processor");
        if let Some(TraceSpan::Busy { row: last, .. }) = self.spans.last() {
            // Rows mostly differ early, so compare cell by cell.
            let same = || self.row(*last).iter().zip(row).all(|(a, b)| a == b);
            if last.0 + 1 == self.rows && same() {
                if let Some(TraceSpan::Busy { rounds: r, .. }) = self.spans.last_mut() {
                    *r += rounds;
                }
                return;
            }
        }
        let cells = self.m << self.shift;
        match self.blocks.last_mut() {
            Some(block) if block.len() < cells => block.extend_from_slice(row),
            _ => {
                let mut block = Vec::with_capacity(cells);
                block.extend_from_slice(row);
                self.blocks.push(block);
            }
        }
        self.spans.push(TraceSpan::Busy {
            row: RowId(self.rows),
            rounds,
        });
        self.rows += 1;
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

    /// Iterate rounds in order. Busy rounds yield `Some(cells)`, RLE idle
    /// rounds yield `None` (semantically a row of `m` idles).
    fn rounds(&self) -> impl Iterator<Item = Option<&[u64]>> {
        self.spans.iter().flat_map(|s| {
            let row = match s {
                TraceSpan::Busy { row, .. } => Some(self.row(*row)),
                TraceSpan::Idle { .. } => None,
            };
            std::iter::repeat_n(row, s.rounds() as usize)
        })
    }

    /// The dense rows of rounds `[from, to)`, clamped to the trace.
    pub(crate) fn dense(&self, from: usize, to: usize) -> Vec<Vec<Action>> {
        let rounds = self.rounds().skip(from).take(to.saturating_sub(from));
        rounds
            .map(|row| match row {
                Some(row) => row.iter().map(|&c| action(c)).collect(),
                None => vec![Action::Idle; self.m],
            })
            .collect()
    }

    /// Expand to the dense `rounds[r][p]` form (idle spans materialized).
    pub fn to_dense(&self) -> Vec<Vec<Action>> {
        self.dense(0, usize::MAX)
    }

    /// Build the canonical trace of dense rows (the inverse of
    /// [`ScheduleTrace::to_dense`]): all-idle rows and runs of equal
    /// rows are re-encoded.
    ///
    /// A row that is not `m` wide is [`TraceViolation::BadRowWidth`], and
    /// work on node `u32::MAX` — which no DAG has, and a cell cannot hold —
    /// is [`TraceViolation::UnknownTarget`], both at the row's round.
    pub fn from_dense(
        m: usize,
        speed: Speed,
        rows: Vec<Vec<Action>>,
    ) -> Result<Self, TraceViolation> {
        let mut t = ScheduleTrace::new(m, speed);
        for (round, row) in (0..).zip(rows) {
            if row.len() != m {
                let width = row.len();
                return Err(TraceViolation::BadRowWidth { round, width, m });
            }
            for &a in &row {
                if let Action::Work {
                    job,
                    node: NodeId::MAX,
                } = a
                {
                    let node = NodeId::MAX;
                    return Err(TraceViolation::UnknownTarget { round, job, node });
                }
            }
            if row.iter().all(|a| *a == Action::Idle) {
                t.push_idle_rounds(1);
            } else {
                t.push_row(&row, 1);
            }
        }
        Ok(t)
    }

    /// Exhaustively validate this trace against `instance`: the checker
    /// alone, with no hooks.
    pub fn validate(&self, instance: &Instance) -> Result<(), TraceViolation> {
        self.replay(instance, &mut Feasibility)
    }

    /// Replay this trace against `instance` through the checker, calling
    /// `hooks` at every run event in (round, worker) order, and stop at
    /// the first finding of either.
    ///
    /// # Panics
    ///
    /// If a span names a row of another trace that this one does not have.
    pub fn replay<H: RunHooks>(&self, instance: &Instance, hooks: &mut H) -> Result<(), H::Error> {
        TraceChecker::new(instance, self.m, self.speed).run(self, hooks)
    }

    /// Count processor-rounds by action type: (work, steals, idle).
    pub fn action_counts(&self) -> (u64, u64, u64) {
        let (mut w, mut s, mut i) = (0, 0, 0);
        for span in &self.spans {
            match *span {
                TraceSpan::Idle { count } => i += count * self.m as u64,
                TraceSpan::Busy { row, rounds } => {
                    for &c in self.row(row) {
                        match c {
                            IDLE => i += rounds,
                            MISS | HIT => s += rounds,
                            _ => w += rounds,
                        }
                    }
                }
            }
        }
        (w, s, i)
    }

    /// Processors working in each busy span's row, and its round count
    /// (0 workers for an idle span).
    pub(crate) fn working(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.spans.iter().map(|span| match *span {
            TraceSpan::Busy { row, rounds } => (
                self.row(row).iter().filter(|&&c| is_work(c)).count(),
                rounds,
            ),
            TraceSpan::Idle { count } => (0, count),
        })
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

/// What a replay adds to the feasibility model.
///
/// [`ScheduleTrace::replay`] calls these at run events, in the (round,
/// worker) order in which a unit-by-unit replay of the trace's expansion
/// meets them, and stops at the first error. Between two rounds it stops
/// at, it assumes [`RunHooks::act`] cannot fail: [`RunHooks::due`] says
/// where it could. Every method but [`RunHooks::infeasible`] does nothing
/// by default.
pub trait RunHooks {
    /// What the replay stops with.
    type Error;

    /// A finding of the checker itself, about `worker`'s unit when it
    /// names one.
    fn infeasible(&mut self, violation: TraceViolation, worker: Option<usize>) -> Self::Error;

    /// An all-idle span of `count` rounds from `start`; every run has
    /// closed.
    fn idle_span(&mut self, _start: Round, _count: u64) -> Result<(), Self::Error> {
        Ok(())
    }

    /// `worker`'s run of `action` ended after `rounds` rounds.
    fn close(&mut self, _worker: usize, _action: Action, _rounds: u64) {}

    /// `worker` gave `job` its first unit in `round`.
    fn admit(&mut self, _round: Round, _worker: usize, _job: JobId) -> Result<(), Self::Error> {
        Ok(())
    }

    /// `worker` gave `job` its last unit in `round`; its first was in
    /// `first`.
    fn job_done(
        &mut self,
        _round: Round,
        _worker: usize,
        _job: JobId,
        _first: Round,
    ) -> Result<(), Self::Error> {
        Ok(())
    }

    /// `worker`, in a run of `action` (a steal or an idle) since round
    /// `first`, acts in `round`: in the run's first round and in every
    /// later round the replay stops at.
    fn act(
        &mut self,
        _round: Round,
        _worker: usize,
        _action: Action,
        _first: Round,
    ) -> Result<(), Self::Error> {
        Ok(())
    }

    /// The earliest round at or after `from` in which [`RunHooks::act`]
    /// could fail for `worker`'s run of `action` since `first`, if only
    /// arrivals change until then. Rounding down is safe; rounding up
    /// skips a finding.
    fn due(&self, _worker: usize, _action: Action, _first: Round, _from: Round) -> Round {
        Round::MAX
    }
}

/// The hooks of [`ScheduleTrace::validate`]: the feasibility model alone.
struct Feasibility;

impl RunHooks for Feasibility {
    type Error = TraceViolation;

    fn infeasible(&mut self, violation: TraceViolation, _worker: Option<usize>) -> TraceViolation {
        violation
    }
}

/// Replay state of one node of a live job.
#[derive(Clone, Copy, Default)]
struct NodeState {
    /// Units counted so far: runs add theirs when they close, or when
    /// the node completes.
    executed: Work,
    /// Predecessors that have received all their units.
    preds_done: u32,
    /// The first round the node may run in: one past the latest round in
    /// which a predecessor finished.
    ready: Round,
    /// The worker that opened the node's latest run (0 before the first:
    /// a worker holds a node only once it has opened it).
    on: u32,
}

/// Node state of one live job: allocated at the job's first unit and
/// handed back to [`TraceChecker::free`] at its last.
#[derive(Default)]
struct LiveJob {
    first_round: Round,
    /// Nodes of the job not yet complete.
    incomplete: usize,
    nodes: Vec<NodeState>,
}

/// One worker's current run, beside its cell and due round (which the
/// checker keeps in arrays of their own, scanned once per span).
#[derive(Clone, Copy, Default)]
struct Run {
    /// The run's first round.
    first: Round,
    /// Work runs: the first round whose unit its node has not counted
    /// yet; `Round::MAX` once the node completed, and for other runs.
    from: Round,
    /// Work runs: the live job's slab.
    slab: usize,
}

/// [`TraceChecker::slab_of`] a job before its first unit, and after its
/// last.
const NOT_STARTED: u32 = u32::MAX;
const DONE: u32 = u32::MAX - 1;

/// What a checker step ends with: a finding of the checker or its hooks.
type Step<H> = Result<(), <H as RunHooks>::Error>;

/// The feasibility model, replayed one run at a time.
///
/// Checked, independently of any engine state:
/// 1. every span covers at least one round;
/// 2. no job is worked on before its arrival becomes visible
///    (`arrival ≤ round-start`);
/// 3. no node runs on two processors in the same round;
/// 4. a node's first unit comes strictly after the round in which its
///    last predecessor finished (units occupy whole rounds);
/// 5. every node receives exactly `work` units over the trace.
///
/// Node state exists only while a job is live (between its first and
/// last unit) and is recycled; what grows with the instance is one slab
/// index per job.
struct TraceChecker<'a> {
    jobs: &'a [Job],
    speed: Speed,
    /// Each job's slab while it is live, else [`NOT_STARTED`] or [`DONE`].
    slab_of: Vec<u32>,
    slabs: Vec<LiveJob>,
    /// Slabs of completed jobs, for the next job to start.
    free: Vec<usize>,
    /// What each worker does in its current run ([`NONE`]: no run).
    cells: Vec<u64>,
    /// The first round at which each worker's run needs the checker: 0
    /// for no run (one opens in the next busy round); for work the round
    /// the node completes in, then the round it would over-run in; for a
    /// steal or idle the hooks' [`RunHooks::due`].
    dues: Vec<Round>,
    /// The rest of each worker's current run.
    runs: Vec<Run>,
    /// In the round being opened, the lowest-index worker whose older run
    /// holds a node a lower-index worker opened: its unit is the second.
    clash: Option<usize>,
}

impl<'a> TraceChecker<'a> {
    /// A checker at round 0 of a schedule of `instance` on `m`
    /// processors at `speed`.
    fn new(instance: &'a Instance, m: usize, speed: Speed) -> Self {
        TraceChecker {
            jobs: instance.jobs(),
            speed,
            slab_of: vec![NOT_STARTED; instance.len()],
            slabs: Vec::new(),
            free: Vec::new(),
            cells: vec![NONE; m],
            dues: vec![0; m],
            runs: vec![Run::default(); m],
            clash: None,
        }
    }

    /// Replay every span of `trace`, then close it.
    fn run<H: RunHooks>(&mut self, trace: &ScheduleTrace, h: &mut H) -> Step<H> {
        let mut start = 0;
        for span in &trace.spans {
            let rounds = span.rounds();
            if rounds == 0 {
                return Err(h.infeasible(TraceViolation::EmptySpan { round: start }, None));
            }
            if let TraceSpan::Busy { row, .. } = *span {
                self.busy(trace.row(row), start, start + rounds, h)?;
            } else {
                (0..self.cells.len()).for_each(|p| self.close(p, start, h));
                h.idle_span(start, rounds)?;
            }
            start += rounds;
        }
        (0..self.cells.len()).for_each(|p| self.close(p, start, h));
        self.finish().map_err(|v| h.infeasible(v, None))
    }

    /// Rounds `[s, e)` of `row`: in round `s`, close each run the row
    /// ends and open the one it starts; then stop at every round in
    /// which a run is due. Each round attends to its workers in index
    /// order.
    fn busy<H: RunHooks>(&mut self, row: &[u64], s: Round, e: Round, h: &mut H) -> Step<H> {
        // Round s, 64 workers at a time: a mask of those whose cell
        // changes or whose run is due, and the earliest due of the rest,
        // both built without branching.
        let mut next = e;
        self.clash = None;
        for base in (0..row.len()).step_by(64) {
            let end = row.len().min(base + 64);
            let (cells, dues) = (&self.cells[base..end], &self.dues[base..end]);
            let mut todo = 0u64;
            for (i, &c) in row[base..end].iter().enumerate() {
                let due = (c != cells[i]) | (dues[i] <= s);
                todo |= u64::from(due) << i;
                next = next.min(if due { e } else { dues[i] });
            }
            while todo != 0 {
                let p = base + todo.trailing_zeros() as usize;
                todo &= todo - 1;
                if row[p] != self.cells[p] {
                    self.close(p, s, h);
                }
                self.attend(p, row, s, h)?;
                next = next.min(self.dues[p]);
                if let Some(q) = self.clash.filter(|&q| q < end) {
                    todo |= 1 << (q - base);
                }
            }
        }
        while next < e {
            let r = next;
            next = e;
            for p in 0..row.len() {
                if self.dues[p] <= r {
                    self.attend(p, row, r, h)?;
                }
                next = next.min(self.dues[p]);
            }
        }
        Ok(())
    }

    /// Worker `p`'s run of `row[p]` is due in `round`: open it, or
    /// complete (or over-run) its node, or ask the hooks about its steal
    /// or idle. Afterwards it is due after `round`.
    fn attend<H: RunHooks>(&mut self, p: usize, row: &[u64], round: Round, h: &mut H) -> Step<H> {
        let c = row[p];
        if self.clash == Some(p) {
            // Its unit fails the job check first, if the earlier one
            // completed the job.
            let (job, node) = target(c);
            let v = match self.slab_of[job as usize] {
                DONE => TraceViolation::OverExecution { round, job, node },
                _ => TraceViolation::ConcurrentNode { round, job, node },
            };
            return Err(h.infeasible(v, Some(p)));
        }
        if self.cells[p] == NONE {
            self.cells[p] = c;
            self.runs[p] = Run {
                first: round,
                from: Round::MAX,
                slab: 0,
            };
            if is_work(c) {
                self.open(p, row, round, h)?;
                if self.dues[p] > round {
                    return Ok(());
                }
            }
        }
        if is_work(c) {
            return self.fire(p, round, h);
        }
        let (a, first) = (action(c), self.runs[p].first);
        h.act(round, p, a, first)?;
        self.dues[p] = h.due(p, a, first, round + 1);
        Ok(())
    }

    /// End worker `p`'s run before round `r`: its node counts the units
    /// it has not yet.
    fn close<H: RunHooks>(&mut self, p: usize, r: Round, h: &mut H) {
        let c = std::mem::replace(&mut self.cells[p], NONE);
        if c == NONE {
            return;
        }
        self.dues[p] = 0;
        let run = self.runs[p];
        if r > run.from {
            let (_, node) = target(c);
            self.slabs[run.slab].nodes[node as usize].executed += r - run.from;
        }
        h.close(p, action(c), r - run.first);
    }

    /// Open worker `p`'s work run of `row[p]` in `round`, after the runs
    /// of lower-index workers opened there and before those of
    /// higher-index ones: the checks of a unit in its first round, and
    /// the round its node completes in.
    fn open<H: RunHooks>(&mut self, p: usize, row: &[u64], round: Round, h: &mut H) -> Step<H> {
        let (c, jobs) = (row[p], self.jobs);
        let (job, node) = target(c);
        let fail = |h: &mut H, v| Err(h.infeasible(v, Some(p)));
        let Some(spec) = jobs
            .get(job as usize)
            .filter(|j| (node as usize) < j.dag.num_nodes())
        else {
            return fail(h, TraceViolation::UnknownTarget { round, job, node });
        };
        let dag = &spec.dag;
        let (slab, first) = match self.slab_of[job as usize] {
            DONE => return fail(h, TraceViolation::OverExecution { round, job, node }),
            // Rounds are fed in order, so a job's first unit is the one
            // that has to be visible.
            NOT_STARTED if !self.speed.arrived_by_round(spec.arrival, round) => {
                return fail(h, TraceViolation::EarlyStart { round, job });
            }
            NOT_STARTED => {
                let slab = self.free.pop().unwrap_or(self.slabs.len());
                if slab == self.slabs.len() {
                    self.slabs.push(LiveJob::default());
                }
                let state = &mut self.slabs[slab];
                (state.first_round, state.incomplete) = (round, dag.num_nodes());
                state.nodes.clear();
                state.nodes.resize(dag.num_nodes(), NodeState::default());
                // lint: allow(truncating-cast) slabs are live jobs, far below 2^32
                self.slab_of[job as usize] = slab as u32;
                (slab, true)
            }
            slab => (slab as usize, false),
        };
        let n = &mut self.slabs[slab].nodes[node as usize];
        let holder = n.on as usize;
        if holder != p && self.cells[holder] == c {
            // A lower-index holder has moved on to this round already.
            if holder < p {
                return fail(h, TraceViolation::ConcurrentNode { round, job, node });
            }
            // A higher-index one has not: count its units before this
            // round now. If it keeps the node, its unit in this round is
            // the second, reported when its turn comes.
            let run = &mut self.runs[holder];
            if let Some(units) = round.checked_sub(run.from) {
                (n.executed, run.from) = (n.executed + units, round);
            }
            if row[holder] == c {
                self.dues[holder] = round;
                self.clash = Some(self.clash.map_or(holder, |q| q.min(holder)));
            }
        }
        // lint: allow(truncating-cast) worker indices are below m, itself far below 2^32
        n.on = p as u32;
        if n.executed == 0 && (n.preds_done < dag.pred_count(node) || n.ready > round) {
            let v = TraceViolation::PrecedenceViolation { round, job, node };
            return fail(h, v);
        }
        let left = dag.work(node) - n.executed;
        if left == 0 {
            return fail(h, TraceViolation::OverExecution { round, job, node });
        }
        (self.runs[p].from, self.runs[p].slab) = (round, slab);
        self.dues[p] = round + left - 1;
        if first {
            h.admit(round, p, job)?;
        }
        Ok(())
    }

    /// Worker `p`'s work run is due in `round`: its node completes, or
    /// — completed already — over-runs.
    fn fire<H: RunHooks>(&mut self, p: usize, round: Round, h: &mut H) -> Step<H> {
        let (job, node) = target(self.cells[p]);
        let run = &mut self.runs[p];
        if run.from == Round::MAX {
            let v = TraceViolation::OverExecution { round, job, node };
            return Err(h.infeasible(v, Some(p)));
        }
        (run.from, self.dues[p]) = (Round::MAX, round + 1);
        let dag = &self.jobs[job as usize].dag;
        let state = &mut self.slabs[run.slab];
        state.nodes[node as usize].executed = dag.work(node);
        for &s in dag.succs(node) {
            let succ = &mut state.nodes[s as usize];
            (succ.preds_done, succ.ready) = (succ.preds_done + 1, round + 1);
        }
        state.incomplete -= 1;
        if state.incomplete > 0 {
            return Ok(());
        }
        self.slab_of[job as usize] = DONE;
        self.free.push(run.slab);
        h.job_done(round, p, job, state.first_round)
    }

    /// Close the trace: every node of every job must have received all
    /// its units. A job that never started is short at node 0; a live
    /// one at the first node still owed units.
    fn finish(&self) -> Result<(), TraceViolation> {
        let Some(short) = self
            .jobs
            .iter()
            .find(|j| self.slab_of[j.id as usize] != DONE)
        else {
            return Ok(());
        };
        let (node, executed) = match self.slab_of[short.id as usize] {
            NOT_STARTED => (0, 0),
            slab => (0..)
                .zip(&self.slabs[slab as usize].nodes)
                .map(|(v, n)| (v, n.executed))
                .find(|&(v, executed)| executed < short.dag.work(v))
                .unwrap_or((0, 0)),
        };
        let job = short.id;
        Err(TraceViolation::IncompleteNode {
            job,
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
    fn bad_row_width_is_rejected_by_from_dense() {
        // The arena holds m-wide rows only: a dense row of another width
        // has no encoding.
        assert_eq!(
            ScheduleTrace::from_dense(
                2,
                Speed::ONE,
                vec![vec![Action::Idle; 2], vec![Action::Idle]]
            ),
            Err(TraceViolation::BadRowWidth {
                round: 1,
                width: 1,
                m: 2
            })
        );
    }

    #[test]
    fn every_action_round_trips_through_its_cell() {
        let edges = [0, 1, 7, u32::MAX - 1, u32::MAX];
        let mut actions = vec![
            Action::Idle,
            Action::Steal { hit: false },
            Action::Steal { hit: true },
        ];
        for job in edges {
            for node in edges.iter().filter(|&&n| n != NodeId::MAX) {
                actions.push(Action::Work { job, node: *node });
            }
        }
        for &a in &actions {
            assert_eq!(action(cell(a)), a, "{a:?}");
            assert_eq!(is_work(cell(a)), matches!(a, Action::Work { .. }), "{a:?}");
            assert_ne!(cell(a), NONE, "{a:?}");
        }
        for (i, &a) in actions.iter().enumerate() {
            for &b in &actions[i + 1..] {
                assert_ne!(cell(a), cell(b), "{a:?} and {b:?} share a cell");
            }
        }
        let rows: Vec<Vec<Action>> = actions
            .chunks(3)
            .filter(|c| c.len() == 3)
            .map(<[Action]>::to_vec)
            .collect();
        let t = ScheduleTrace::from_dense(3, Speed::ONE, rows.clone()).expect("encodable");
        assert_eq!(t.to_dense(), rows);
        // The one value a cell cannot hold is refused, not aliased to Idle.
        let unheld = Action::Work {
            job: 0,
            node: NodeId::MAX,
        };
        assert_eq!(
            ScheduleTrace::from_dense(1, Speed::ONE, vec![vec![Action::Idle], vec![unheld]]),
            Err(TraceViolation::UnknownTarget {
                round: 1,
                job: 0,
                node: NodeId::MAX
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
        let back = ScheduleTrace::from_dense(2, Speed::ONE, dense).expect("m wide");
        assert_eq!(back, t);
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
            ScheduleTrace::from_dense(1, Speed::ONE, t.to_dense())
                .expect("m wide")
                .validate(&inst),
            Ok(())
        );
    }

    #[test]
    fn checker_state_is_o_live() {
        // 10 000 chain jobs back to back on one processor: exactly one
        // job is live at any round, and the slab of the first job serves
        // all the others.
        const JOBS: u32 = 10_000;
        let dag = Arc::new(shapes::chain(3, 1));
        let inst = Instance::new(
            (0..JOBS)
                .map(|i| Job::new(i, 3 * i as u64, dag.clone()))
                .collect(),
        );
        let mut t = ScheduleTrace::new(1, Speed::ONE);
        for job in 0..JOBS {
            for node in 0..3 {
                t.push_row(&[Action::Work { job, node }], 1);
            }
        }
        assert_eq!(t.spans.len(), 3 * JOBS as usize);
        let mut checker = TraceChecker::new(&inst, 1, Speed::ONE);
        assert_eq!(checker.run(&t, &mut Feasibility), Ok(()));
        assert!(checker.slab_of.iter().all(|&slab| slab == DONE));
        assert_eq!((checker.slabs.len(), checker.free.len()), (1, 1));
    }

    #[test]
    fn wide_row_on_distinct_nodes_validates() {
        // One m = 256 row, every processor on its own node: exclusivity is
        // the worker a node records as holding it, not a scan of the row.
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
        let t = trace(M, vec![alone(0), wide.collect(), alone(M as NodeId + 1)]);
        assert_eq!(t.validate(&inst), Ok(()));
        // The same row with one node on two processors is caught at the
        // later one.
        let mut rows = t.to_dense();
        rows[1][M - 1] = rows[1][0];
        let t = ScheduleTrace::from_dense(M, Speed::ONE, rows).expect("m wide");
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
        assert_eq!(
            ScheduleTrace::from_dense(2, Speed::ONE, t.to_dense()),
            Ok(t.clone())
        );
        assert_eq!(t.validate(&inst), Ok(()));

        // One round too many: the over-execution is due inside the span,
        // where the expansion has it.
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
        let dense = ScheduleTrace::from_dense(2, Speed::ONE, long.to_dense()).expect("m wide");
        assert_eq!(dense.validate(&inst), over);

        let TraceSpan::Busy { rounds, .. } = &mut long.spans[1] else {
            panic!("span 1 is busy");
        };
        *rounds = 0;
        assert_eq!(
            long.validate(&inst),
            Err(TraceViolation::EmptySpan { round: 2 })
        );
    }
}
