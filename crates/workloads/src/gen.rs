//! Workload specification and instance generation.

use crate::arrivals::{
    take_arrivals, ArrivalSource, PeriodicArrivals, PoissonArrivals, ARRIVAL_CEILING,
};
use crate::dist::{bing, finance, LogNormalDist, WorkDistribution};
use parflow_dag::{shapes, Instance, Job, JobDag};
use parflow_time::Work;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Tick resolution: 1 tick = 0.1 ms, so 10 000 ticks per second. A job of
/// `w` work units takes `w/10` ms on one unit-speed processor.
pub const TICKS_PER_SECOND: f64 = 10_000.0;

/// Which work distribution to draw job sizes from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DistKind {
    /// Bing web search (Figure 3a).
    Bing,
    /// Finance option pricing (Figure 3b).
    Finance,
    /// Log-normal synthetic (Section 6).
    LogNormal,
    /// Uniform over an inclusive range (testing).
    Uniform {
        /// Inclusive lower bound (work units).
        lo: Work,
        /// Inclusive upper bound (work units).
        hi: Work,
    },
    /// Constant work (testing / adversarial).
    Constant(
        /// The work value (units).
        Work,
    ),
}

impl DistKind {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Work {
        match *self {
            DistKind::Bing => bing().sample(rng),
            DistKind::Finance => finance().sample(rng),
            DistKind::LogNormal => LogNormalDist::paper().sample(rng),
            DistKind::Uniform { lo, hi } => rng.gen_range(lo..=hi),
            DistKind::Constant(w) => w,
        }
    }

    /// Expected work in units.
    pub fn mean(&self) -> f64 {
        match *self {
            DistKind::Bing => bing().mean(),
            DistKind::Finance => finance().mean(),
            DistKind::LogNormal => LogNormalDist::paper().mean(),
            DistKind::Uniform { lo, hi } => (lo + hi) as f64 / 2.0,
            DistKind::Constant(w) => w as f64,
        }
    }

    /// Name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            DistKind::Bing => "bing",
            DistKind::Finance => "finance",
            DistKind::LogNormal => "log-normal",
            DistKind::Uniform { .. } => "uniform",
            DistKind::Constant(_) => "constant",
        }
    }
}

/// The paper's three named workloads: `bing`, `finance`, `lognormal` (or
/// `log-normal`), ASCII-case-insensitive. The only place a workload name
/// from outside becomes a [`DistKind`].
impl std::str::FromStr for DistKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "bing" => Ok(DistKind::Bing),
            "finance" => Ok(DistKind::Finance),
            "lognormal" | "log-normal" => Ok(DistKind::LogNormal),
            _ => Err(format!("unknown dist `{s}` (want bing|finance|lognormal)")),
        }
    }
}

/// How each job's work is structured as a DAG.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShapeKind {
    /// Parallel-for with the given grain size: a job of `w` units becomes
    /// `ceil(w/grain)` chunks between a source and a sink — the paper's
    /// job structure ("parallelized using parallel for loops").
    ParallelFor {
        /// Units of work per chunk.
        grain: Work,
    },
    /// Fully sequential single node.
    Sequential,
    /// Recursive binary fork-join with ~`w/leaf` leaves of `leaf` units.
    ForkJoin {
        /// Units of work per leaf.
        leaf: Work,
    },
}

impl ShapeKind {
    /// Materialize a DAG carrying (approximately, exactly for
    /// `Sequential`/`ParallelFor`) `work` units.
    pub fn build(&self, work: Work) -> JobDag {
        match *self {
            ShapeKind::Sequential => shapes::single_node(work),
            ShapeKind::ParallelFor { grain } => {
                let grain = grain.max(1);
                let chunks = work.div_ceil(grain).max(1) as usize;
                shapes::parallel_for(work, chunks)
            }
            ShapeKind::ForkJoin { leaf } => {
                let leaf = leaf.max(1);
                let leaves = (work / leaf).max(1);
                let depth = (64 - leaves.leading_zeros() - 1).min(12);
                shapes::fork_join(depth, leaf)
            }
        }
    }
}

/// Distinct works a [`DagCache`] holds before it starts over. Work
/// distributions quantize to ticks, so real workloads saturate a few
/// thousand distinct values; the reset bounds memory for adversarial
/// continuous distributions.
const DAG_CACHE_CAP: usize = 4096;

/// Built DAGs of one [`ShapeKind`] by work. A job's DAG depends only on
/// its work, so jobs of equal work share one `Arc<JobDag>`, and `n` jobs
/// build O(distinct works) DAGs, not `n`.
#[derive(Debug)]
pub struct DagCache {
    shape: ShapeKind,
    dags: BTreeMap<Work, Arc<JobDag>>,
}

impl DagCache {
    /// An empty cache for `shape`.
    pub fn new(shape: ShapeKind) -> Self {
        DagCache {
            shape,
            dags: BTreeMap::new(),
        }
    }

    /// The DAG of a job of `work` units, built on first use.
    pub fn dag(&mut self, work: Work) -> Arc<JobDag> {
        if self.dags.len() >= DAG_CACHE_CAP && !self.dags.contains_key(&work) {
            // Jobs keep their Arcs; only the cache's references drop.
            self.dags.clear();
        }
        let shape = self.shape;
        let built = || Arc::new(shape.build(work));
        self.dags.entry(work).or_insert_with(built).clone()
    }
}

/// A complete workload specification; `generate` turns it into an
/// [`Instance`], deterministically for a given seed.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Work distribution.
    pub dist: DistKind,
    /// Job structure.
    pub shape: ShapeKind,
    /// Arrival rate in queries per second (Poisson); `None` for periodic
    /// arrivals with `period_ticks`.
    pub qps: Option<f64>,
    /// Fixed period in ticks when `qps` is `None`.
    pub period_ticks: u64,
    /// Number of jobs `n`.
    pub n_jobs: usize,
    /// RNG seed (workload generation only; engines take their own seeds).
    pub seed: u64,
}

impl WorkloadSpec {
    /// The paper's Figure 2 setup: given distribution and QPS, parallel-for
    /// jobs with a 1 ms grain (10 units).
    ///
    /// ```
    /// use parflow_workloads::{DistKind, WorkloadSpec};
    /// let inst = WorkloadSpec::paper_fig2(DistKind::Bing, 1000.0, 100, 42).generate();
    /// assert_eq!(inst.len(), 100);
    /// assert!(inst.jobs().iter().all(|j| j.dag.validate().is_ok()));
    /// ```
    pub fn paper_fig2(dist: DistKind, qps: f64, n_jobs: usize, seed: u64) -> Self {
        WorkloadSpec {
            dist,
            shape: ShapeKind::ParallelFor { grain: 10 },
            qps: Some(qps),
            period_ticks: 0,
            n_jobs,
            seed,
        }
    }

    /// Generate the instance.
    ///
    /// Implemented over the streaming arrival view; the draw
    /// order (all arrivals, then one work sample per job) is unchanged, so
    /// generated instances are byte-identical to the pre-stream layout.
    pub fn generate(&self) -> Instance {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let arrivals = match self.qps {
            Some(qps) => take_arrivals(
                &mut PoissonArrivals::from_qps(qps, TICKS_PER_SECOND).stream(&mut rng),
                self.n_jobs,
            ),
            None => take_arrivals(
                &mut PeriodicArrivals {
                    gap: self.period_ticks,
                }
                .stream(),
                self.n_jobs,
            ),
        };
        let mut dags = DagCache::new(self.shape);
        let jobs = arrivals
            .into_iter()
            .enumerate()
            .map(|(i, arrival)| {
                let dag = dags.dag(self.dist.sample(&mut rng));
                Job::new(i as u32, arrival, dag)
            })
            .collect();
        Instance::new(jobs)
    }
}

/// One job pulled from a [`JobSource`] stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamJob {
    /// Zero-based position in the stream (doubles as a submission id).
    pub index: u64,
    /// Arrival time in ticks (non-decreasing across the stream).
    pub arrival: parflow_time::Ticks,
    /// Work in units (ticks of service on one unit-speed processor).
    pub work: Work,
}

/// An endless, seeded stream of jobs for the streaming admission service
/// and soak drivers: jobs are produced one at a time, so a sustained-QPS
/// run never materializes an [`Instance`].
///
/// The arrival and work streams draw from two *independent* RNG streams
/// derived from the spec seed, so interleaved pulling cannot perturb
/// either sequence. This is a deliberately different stream layout from
/// [`WorkloadSpec::generate`] (which draws all arrivals before any work
/// samples, and stays byte-compatible with the finite goldens): use
/// `generate` for finite golden-compared instances and `JobSource` for
/// endless serving. Replay is exact: re-creating a `JobSource` from the
/// same spec yields the same stream, any prefix length.
pub struct JobSource {
    dist: DistKind,
    arrivals: Box<dyn ArrivalSource + Send>,
    work_rng: SmallRng,
    produced: u64,
}

/// Seed salt separating the work-sample stream from the arrival stream.
const WORK_STREAM_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

impl JobSource {
    /// Pull the next job off the stream.
    pub fn next_job(&mut self) -> StreamJob {
        let index = self.produced;
        self.produced += 1;
        StreamJob {
            index,
            arrival: self.arrivals.next_arrival(),
            work: self.dist.sample(&mut self.work_rng),
        }
    }

    /// Jobs produced so far.
    pub fn produced(&self) -> u64 {
        self.produced
    }
}

impl std::fmt::Debug for JobSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSource")
            .field("dist", &self.dist)
            .field("arrivals", &self.arrivals.source_name())
            .field("produced", &self.produced)
            .finish()
    }
}

impl WorkloadSpec {
    /// The endless streaming view of this spec (see [`JobSource`]).
    pub fn job_source(&self) -> JobSource {
        let arrivals: Box<dyn ArrivalSource + Send> = match self.qps {
            Some(qps) => Box::new(
                PoissonArrivals::from_qps(qps, TICKS_PER_SECOND)
                    .stream(SmallRng::seed_from_u64(self.seed)),
            ),
            None => Box::new(
                PeriodicArrivals {
                    gap: self.period_ticks,
                }
                .stream(),
            ),
        };
        JobSource {
            dist: self.dist,
            arrivals,
            work_rng: SmallRng::seed_from_u64(self.seed ^ WORK_STREAM_SALT),
            produced: 0,
        }
    }
}

/// The QPS at which `dist` reaches a target utilization on `m` processors.
pub fn qps_for_utilization(dist: DistKind, m: usize, target: f64) -> f64 {
    assert!(target > 0.0);
    target * TICKS_PER_SECOND * m as f64 / dist.mean()
}

/// The slowest Poisson rate whose first `n_jobs` arrivals stay within
/// [`ARRIVAL_CEILING`] whatever the draws: the uniform behind a gap is at
/// least `f64::MIN_POSITIVE`, so one gap is at most `-ln` of that (≈ 708)
/// mean gaps.
pub fn min_qps(n_jobs: usize) -> f64 {
    let max_gap_in_means = -f64::MIN_POSITIVE.ln();
    n_jobs as f64 * max_gap_in_means * TICKS_PER_SECOND / ARRIVAL_CEILING as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_names_parse_and_round_trip() {
        for d in [DistKind::Bing, DistKind::Finance, DistKind::LogNormal] {
            assert_eq!(d.name().parse::<DistKind>(), Ok(d));
        }
        assert_eq!("LogNormal".parse::<DistKind>(), Ok(DistKind::LogNormal));
        assert_eq!("BING".parse::<DistKind>(), Ok(DistKind::Bing));
        let e = "zipf".parse::<DistKind>().unwrap_err();
        assert!(e.contains("`zipf`") && e.contains("bing|finance|lognormal"));
    }

    #[test]
    fn generate_is_deterministic() {
        let spec = WorkloadSpec::paper_fig2(DistKind::Bing, 1000.0, 200, 42);
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.jobs().iter().zip(b.jobs()) {
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.work(), y.work());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = WorkloadSpec::paper_fig2(DistKind::Bing, 1000.0, 200, 1).generate();
        let b = WorkloadSpec::paper_fig2(DistKind::Bing, 1000.0, 200, 2).generate();
        let same = a
            .jobs()
            .iter()
            .zip(b.jobs())
            .filter(|(x, y)| x.arrival == y.arrival)
            .count();
        assert!(same < a.len(), "seeds should change arrivals");
    }

    #[test]
    fn fig2_loads_are_paper_like() {
        // QPS 800 / 1000 / 1200 on m=16 must give ≈ 53 / 66 / 80 %.
        for (qps, lo, hi) in [
            (800.0, 0.45, 0.60),
            (1000.0, 0.58, 0.73),
            (1200.0, 0.70, 0.88),
        ] {
            let inst = WorkloadSpec::paper_fig2(DistKind::Bing, qps, 5_000, 0).generate();
            let u = inst.utilization(16).unwrap().to_f64();
            assert!((lo..hi).contains(&u), "qps {qps} → util {u}");
        }
    }

    #[test]
    fn parallel_for_shape_has_grain_chunks() {
        let dag = ShapeKind::ParallelFor { grain: 10 }.build(95);
        // 95 units → 10 chunks + source + sink.
        assert_eq!(dag.num_nodes(), 12);
        assert_eq!(dag.total_work(), 97);
    }

    #[test]
    fn sequential_shape() {
        let dag = ShapeKind::Sequential.build(55);
        assert_eq!(dag.num_nodes(), 1);
        assert_eq!(dag.total_work(), 55);
    }

    #[test]
    fn fork_join_shape_reasonable() {
        let dag = ShapeKind::ForkJoin { leaf: 10 }.build(160);
        // 16 leaves → depth 4.
        assert_eq!(dag.span(), 10 + 2 * 4);
        assert!(dag.total_work() >= 160);
    }

    #[test]
    fn equal_works_share_one_dag() {
        use std::collections::BTreeSet;
        let spec = WorkloadSpec::paper_fig2(DistKind::LogNormal, 1000.0, 2_000, 9);
        // Through the cache directly, over sampled works: the first DAG of
        // each work is the one every later job of that work gets.
        let (mut source, mut dags) = (spec.job_source(), DagCache::new(spec.shape));
        let mut first: BTreeMap<Work, Arc<JobDag>> = BTreeMap::new();
        for _ in 0..spec.n_jobs {
            let work = source.next_job().work;
            let dag = dags.dag(work);
            assert!(Arc::ptr_eq(first.entry(work).or_insert(dag.clone()), &dag));
        }
        assert!(first.len() < spec.n_jobs / 2, "log-normal works repeat");
        // And in a generated instance: distinct `Arc`s == distinct works.
        let inst = spec.generate();
        let works: BTreeSet<Work> = inst.jobs().iter().map(|j| j.work()).collect();
        let arcs: BTreeSet<*const JobDag> =
            inst.jobs().iter().map(|j| Arc::as_ptr(&j.dag)).collect();
        assert_eq!(arcs.len(), works.len());
    }

    #[test]
    fn qps_for_utilization_roundtrip() {
        let qps = qps_for_utilization(DistKind::Constant(100), 16, 0.5);
        // 0.5 · 10_000 · 16 / 100 = 800.
        assert!((qps - 800.0).abs() < 1e-9);
    }

    #[test]
    fn periodic_spec() {
        let spec = WorkloadSpec {
            dist: DistKind::Constant(5),
            shape: ShapeKind::Sequential,
            qps: None,
            period_ticks: 100,
            n_jobs: 5,
            seed: 0,
        };
        let inst = spec.generate();
        let arrivals: Vec<_> = inst.jobs().iter().map(|j| j.arrival).collect();
        assert_eq!(arrivals, vec![0, 100, 200, 300, 400]);
        assert!(inst.jobs().iter().all(|j| j.work() == 5));
    }

    #[test]
    fn job_source_replays_and_streams_endlessly() {
        let spec = WorkloadSpec::paper_fig2(DistKind::Bing, 1500.0, 10, 77);
        let mut a = spec.job_source();
        let mut b = spec.job_source();
        let mut prev = 0;
        for i in 0..5_000u64 {
            let (x, y) = (a.next_job(), b.next_job());
            assert_eq!(x, y, "same spec must replay the same stream");
            assert_eq!(x.index, i);
            assert!(x.arrival >= prev, "arrivals must be non-decreasing");
            assert!(x.work >= 1);
            prev = x.arrival;
        }
        assert_eq!(a.produced(), 5_000);
    }

    #[test]
    fn job_source_periodic_mode() {
        let spec = WorkloadSpec {
            dist: DistKind::Constant(7),
            shape: ShapeKind::Sequential,
            qps: None,
            period_ticks: 50,
            n_jobs: 0, // ignored by the stream: it is endless
            seed: 3,
        };
        let mut s = spec.job_source();
        for i in 0..10u64 {
            let j = s.next_job();
            assert_eq!(j.arrival, i * 50);
            assert_eq!(j.work, 7);
        }
    }
}
