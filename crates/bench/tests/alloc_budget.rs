//! Deterministic gates on the six engine probes: allocation ceilings and
//! the exact `rounds` / `steal_attempts` of each series. A seventh probe
//! holds the serve path (parse → ledger → dispatch → ack) to an
//! allocations-per-submission ceiling and its merged digest, and two more
//! hold workload generation and the endless job source to theirs.
//!
//! None of this is a timing. Round, steal-attempt and allocation-event
//! counts of a fixed (instance, config, seed) repeat exactly run to run,
//! so they are asserted, not compared within a tolerance; the exact counts
//! are the bit-identity evidence an engine refactor must leave untouched
//! (or re-record here, as its headline). Speed is `parflow-perf`'s job.
//!
//! One `#[test]` because the allocation counter is process-wide: a second
//! test running on a sibling thread would leak its allocations into these
//! deltas. Needs `--features bench-alloc` (`required-features` skips the
//! target without it).

use parflow_bench::alloc_probe::alloc_count;
use parflow_bench::experiments::{PAPER_K, PAPER_M};
use parflow_bench::stream::run_stream;
use parflow_core::{
    run_priority, simulate_batched, simulate_worksteal, Fifo, ReplicaSpec, SimConfig, StealPolicy,
};
use parflow_dag::{shapes, Instance, Job};
use parflow_obs::NullRecorder;
use parflow_serve::{run_jsonl, ServeConfig, Submission, Supervisor};
use parflow_workloads::{qps_for_utilization, DistKind, WorkloadSpec, TICKS_PER_SECOND};
use std::hint::black_box;
use std::sync::Arc;

/// The probe instance: the default experiment seed (`Ctx::from_env`'s
/// seed with `PARFLOW_SEED` unset), 20 000 jobs, the paper's m = 16. Fixed here, not
/// read from the environment, so the exact counts below hold.
const SEED: u64 = 0x9af1;
const N: usize = 20_000;

/// Replicas in the batched seed sweep (`batched_ws`).
const BATCH_B: u64 = 8;
/// Steal bound of the batched sweep: unit-step steal-`k`-first is the
/// configuration whose idle probing spans the stepper's k-burn lockout
/// collapses into jumps.
const BATCH_SWEEP_K: u32 = 128;
/// Machine size of the `giant_m` probe (bitset idle/victim tracking).
const GIANT_MACHINE: usize = 256;
/// The stream probe pulls this many times `N` jobs, so slab/cursor slots
/// recycle through many generations.
const STREAM_FACTOR: u64 = 5;

/// Steady-state budget of the materialized engines (arena recycling).
const ALLOCS_PER_ROUND_CEILING: f64 = 0.005;
/// Streaming budget: measured ~0.008 allocs/job (DAG builds on cache
/// misses, slab and arena growth); an O(n)-memory relapse shows up well
/// above 4.
const STREAM_ALLOCS_PER_JOB_CEILING: f64 = 4.0;

/// `generate` builds one DAG per distinct work and each histogram once per
/// process: ~0.017 allocs/job measured, 15.2 when it built both per job.
const GENERATE_ALLOCS_PER_JOB_CEILING: f64 = 0.05;

/// One series as last recorded (PR 13): `rounds` and `steal_attempts` are
/// exact; `allocs` is a ceiling base — a run may use at most twice as many.
struct Recorded {
    name: &'static str,
    rounds: u64,
    steal_attempts: u64,
    allocs: u64,
}

const fn recorded(name: &'static str, rounds: u64, steal_attempts: u64, allocs: u64) -> Recorded {
    Recorded {
        name,
        rounds,
        steal_attempts,
        allocs,
    }
}

const WS_STEAL16: Recorded = recorded("ws_steal16", 197_851, 10_203_265, 423);
const WS_ADMIT: Recorded = recorded("ws_admit", 197_851, 18_343_011, 559);
const CENTRALIZED_FIFO: Recorded = recorded("centralized_fifo", 197_851, 0, 909);
const BATCHED_WS: Recorded = recorded("batched_ws", 1_320_000, 20_480_000, 163);
const GIANT_M: Recorded = recorded("giant_m", 12_650, 18_754_905, 1);
const STREAM_WS: Recorded = recorded("stream_ws", 999_136, 53_276_875, 201_440);

/// Run `f` and return its result with the allocation events it caused.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = alloc_count().expect("built with bench-alloc");
    let out = f();
    let after = alloc_count().expect("built with bench-alloc");
    (out, after - before)
}

/// Exact counts and the 2× allocation-count ceiling, shared by all six.
fn check(want: &Recorded, rounds: u64, steal_attempts: u64, allocs: u64) {
    let name = want.name;
    assert_eq!(rounds, want.rounds, "{name}: rounds");
    assert_eq!(
        steal_attempts, want.steal_attempts,
        "{name}: steal attempts"
    );
    assert!(
        allocs <= 2 * want.allocs,
        "{name}: {allocs} allocation events, more than twice the recorded {}",
        want.allocs
    );
}

/// [`check`] plus the per-round budget of the materialized engines.
fn check_materialized(want: &Recorded, rounds: u64, steal_attempts: u64, allocs: u64) {
    check(want, rounds, steal_attempts, allocs);
    let per_round = allocs as f64 / rounds as f64;
    assert!(
        per_round <= ALLOCS_PER_ROUND_CEILING,
        "{}: {per_round:.4} allocs/round above {ALLOCS_PER_ROUND_CEILING}",
        want.name
    );
}

#[test]
fn engine_probes_stay_within_alloc_budget_and_reproduce_exact_counts() {
    let m = PAPER_M;
    let cfg = SimConfig::new(m).with_free_steals();
    let steal16 = StealPolicy::StealKFirst { k: PAPER_K };

    // Streaming probe (first, the order the counts were recorded in): the
    // Bing QPS-1000 spec pulled as an endless source through the streaming
    // engine, long enough for steady-state retirement. (A different
    // workload realization than `ws_steal16` — the streaming source draws
    // its RNG in a different order than `generate()` — hence its own
    // counts.)
    let stream_jobs = N as u64 * STREAM_FACTOR;
    let spec = WorkloadSpec::paper_fig2(DistKind::Bing, 1000.0, N, SEED);
    let (run, allocs) = counted(|| {
        run_stream(
            &spec,
            &cfg,
            Some(steal16),
            SEED,
            stream_jobs,
            &mut NullRecorder,
        )
        .expect("probe spec is fault-free and sorted")
    });
    check(
        &STREAM_WS,
        run.summary.total_rounds,
        run.summary.stats.steal_attempts,
        allocs,
    );
    let per_job = allocs as f64 / stream_jobs as f64;
    assert!(
        per_job <= STREAM_ALLOCS_PER_JOB_CEILING,
        "stream_ws: {per_job:.4} allocs/job above {STREAM_ALLOCS_PER_JOB_CEILING}"
    );

    // One Bing instance at QPS 1000 (the Figure 2 midpoint) drives the
    // three sequential series.
    let (inst, allocs) = counted(|| spec.generate());
    let per_job = allocs as f64 / N as f64;
    assert!(
        per_job <= GENERATE_ALLOCS_PER_JOB_CEILING,
        "generate: {per_job:.4} allocs/job above {GENERATE_ALLOCS_PER_JOB_CEILING}"
    );
    // The endless source behind every stream: no allocation per job.
    let mut source = spec.job_source();
    let ((), allocs) = counted(|| {
        for _ in 0..N {
            black_box(source.next_job());
        }
    });
    assert_eq!(allocs, 0, "JobSource::next_job allocated");

    let (r, allocs) = counted(|| simulate_worksteal(&inst, &cfg, steal16, SEED));
    check_materialized(&WS_STEAL16, r.total_rounds, r.stats.steal_attempts, allocs);

    let (r, allocs) = counted(|| simulate_worksteal(&inst, &cfg, StealPolicy::AdmitFirst, SEED));
    check_materialized(&WS_ADMIT, r.total_rounds, r.stats.steal_attempts, allocs);

    let ((r, _), allocs) = counted(|| run_priority(&inst, &SimConfig::new(m), &Fifo));
    check_materialized(&CENTRALIZED_FIFO, r.total_rounds, 0, allocs);

    // Replica sweep: BATCH_B seeds of the unit-step steal-BATCH_SWEEP_K
    // config on an admission-bound burst — N short sequential jobs
    // arriving at once, so between admissions every worker spends k costly
    // probe rounds (the paper's non-free-steal regime). Those spans are
    // exactly what the stepper's k-burn lockout jumps over. Victim
    // selection is the round-robin scan, whose probe cursor fast-forwards
    // in closed form (`advance_scan`).
    let dag = Arc::new(shapes::single_node(4));
    let sweep_inst = Instance::new((0..N as u32).map(|i| Job::new(i, 0, dag.clone())).collect());
    let sweep_cfg = SimConfig::new(m).with_victim_scan();
    let specs: Vec<ReplicaSpec> = (0..BATCH_B)
        .map(|i| {
            ReplicaSpec::new(
                sweep_cfg.clone(),
                StealPolicy::StealKFirst { k: BATCH_SWEEP_K },
                SEED ^ (i + 1),
            )
        })
        .collect();
    let (rs, allocs) = counted(|| simulate_batched(&sweep_inst, &specs, 1));
    check_materialized(
        &BATCHED_WS,
        rs.iter().map(|r| r.total_rounds).sum(),
        rs.iter().map(|r| r.stats.steal_attempts).sum(),
        allocs,
    );

    // Giant-m probe: m = GIANT_MACHINE, load scaled to ~65 % utilization so the
    // machine is neither idle nor drowning. The series is the second of
    // two identical replicas in one driver call — the warm one, whose
    // buffers (deques, bitset words, slab and arena slots — O(m + jobs))
    // the first already grew to their high-water marks. Re-running the
    // *same* seed makes its allocation count a pure leak detector: any
    // allocation the warm replica performs is per-replica overhead that
    // buffer reuse missed. The driver gives no hook between replicas, so
    // the cold replica is measured alone first and subtracted from the
    // pair.
    let giant_qps = qps_for_utilization(DistKind::Bing, GIANT_MACHINE, 0.65);
    let giant_inst = WorkloadSpec::paper_fig2(DistKind::Bing, giant_qps, N, SEED).generate();
    let giant_cfg = SimConfig::new(GIANT_MACHINE).with_free_steals();
    let cold = ReplicaSpec::new(giant_cfg.clone(), steal16, SEED);
    let warm = ReplicaSpec::new(giant_cfg, steal16, SEED);
    let (single, cold_allocs) =
        counted(|| simulate_batched(&giant_inst, std::slice::from_ref(&cold), 1));
    let (pair, pair_allocs) = counted(|| simulate_batched(&giant_inst, &[cold, warm], 1));
    assert_eq!(single[0], pair[0], "giant_m: the cold replica repeats");
    check_materialized(
        &GIANT_M,
        pair[1].total_rounds,
        pair[1].stats.steal_attempts,
        pair_allocs.saturating_sub(cold_allocs),
    );

    serve_probe();
}

/// Lines per phase of the serve probe (the `serve_replay` file's size).
const SERVE_PER_PHASE: u64 = 60_000;
/// Allocation events per submission of the serve probe's replay. A
/// ceiling, not an exact count: how many acknowledgements one pump drains
/// depends on timing, and so do the sample vectors' regrowths.
const SERVE_ALLOCS_PER_SUBMISSION_CEILING: f64 = 0.5;
/// The probe's merged digest: a pure function of the file and the ledger
/// config, shed and SLO rejections included.
const SERVE_DIGEST: &str = "19640fcb0998a60f";

/// The serve path (parse → ledger → dispatch → ack) under the counter:
/// `serve_replay`'s two-phase Bing file — 80 % then 200 % utilization of a
/// 16-slot ledger, SLO 2 s, queue bound 64 — replayed through `run_jsonl`
/// with one worker and a one-iteration kernel. Only the replay is counted;
/// spawning the fleet and `finish` are not per-submission work.
fn serve_probe() {
    const SLOTS: usize = 16;
    let mut body = Vec::new();
    let (mut id, mut base) = (0u64, 0u64);
    for (util, phase_seed) in [0.8, 2.0].into_iter().zip(SEED..) {
        let qps = qps_for_utilization(DistKind::Bing, SLOTS, util);
        let mut source = WorkloadSpec::paper_fig2(DistKind::Bing, qps, 0, phase_seed).job_source();
        let mut last = base;
        for _ in 0..SERVE_PER_PHASE {
            let job = source.next_job();
            last = base + job.arrival;
            let sub = Submission {
                id,
                arrival: last,
                work: job.work,
                poison: false,
            };
            body.extend_from_slice(sub.to_jsonl().as_bytes());
            body.push(b'\n');
            id += 1;
        }
        base = last;
    }
    let mut cfg = ServeConfig::new(1);
    cfg.capacity_slots = SLOTS;
    cfg.queue_cap = 64;
    cfg.slo_ticks = Some(2 * TICKS_PER_SECOND as u64);
    cfg.seed = SEED;
    cfg.iters_per_unit = 1;
    let mut sup = Supervisor::new(cfg).expect("probe config is valid");
    let (stats, allocs) =
        counted(|| run_jsonl(&mut sup, body.as_slice()).expect("in-memory replay"));
    let report = sup.finish();
    assert_eq!(stats.offered, 2 * SERVE_PER_PHASE, "serve: lines offered");
    assert_eq!(stats.parse_errors, 0, "serve: parse errors");
    assert_eq!(
        report.completed, report.admitted,
        "serve: every admitted job acked"
    );
    assert_eq!(report.digest, SERVE_DIGEST, "serve: merged digest");
    let per_submission = allocs as f64 / stats.offered as f64;
    assert!(
        per_submission <= SERVE_ALLOCS_PER_SUBMISSION_CEILING,
        "serve: {per_submission:.4} allocs/submission above {SERVE_ALLOCS_PER_SUBMISSION_CEILING}"
    );
}
