//! Mutation harness for the certifier.
//!
//! Four obligations, mirroring docs/STATIC_ANALYSIS.md:
//!
//! 1. **Soundness on real schedules** — every trace produced by the
//!    engines across random instances, policies, steal-cost models and
//!    speeds certifies clean (property test).
//! 2. **Sensitivity to corruption** — each deliberate mutation of a
//!    known-clean trace/result is rejected with *exactly one* diagnostic
//!    (the certifier stops at the first violation by construction) that
//!    names the *right* invariant and locus. A certifier that flags the
//!    downstream cascade instead of the root cause fails these tests.
//! 3. **One checker behind both fuzz surfaces** — the corruptions of
//!    `tests/trace_fuzz.rs` and the P1 / P2 trace mutants below are
//!    rejected by `ScheduleTrace::validate` *and* by `certify_run`, each
//!    with the finding of the per-unit oracle (`oracle/mod.rs`) on the
//!    mutant's dense rows.
//! 4. **Runs replay as their expansion** — a trace mutated at a span or
//!    run boundary is rejected at the round, worker and job where its
//!    expansion breaks the model: the certifier's rendered finding equals
//!    the oracle's on the dense rows (`tests/trace_fuzz.rs` holds every
//!    engine's verdicts to the oracle too).

mod oracle;

use parflow_certify::{certify_run, certify_stream_summary, CertReport, Invariant};
use parflow_core::{
    run_priority, run_worksteal, Action, Fifo, ScheduleTrace, SimConfig, SimResult, StealPolicy,
    TraceSpan, TraceViolation,
};
use parflow_dag::{shapes, Instance, Job};
use parflow_time::{Rational, Speed};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The canonical trace of mutated dense rows, which the mutants keep
/// `m` wide.
fn encode(trace: &ScheduleTrace, rows: Vec<Vec<Action>>) -> ScheduleTrace {
    ScheduleTrace::from_dense(trace.m, trace.speed, rows).expect("m-wide rows")
}

/// A random small instance of mixed DAG shapes and arrival patterns
/// (same population as the differential suites).
fn arb_instance() -> impl Strategy<Value = Instance> {
    (any::<u64>(), 1usize..8, 0u64..60).prop_map(|(seed, njobs, spread)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let jobs = (0..njobs)
            .map(|i| {
                let arrival = if spread == 0 {
                    0
                } else {
                    rng.gen_range(0..=spread)
                };
                let dag = match rng.gen_range(0..4u8) {
                    0 => shapes::single_node(rng.gen_range(1..25)),
                    1 => shapes::chain(rng.gen_range(1..5), rng.gen_range(1..5)),
                    2 => shapes::parallel_for(rng.gen_range(1..30), rng.gen_range(1..6)),
                    _ => shapes::fork_join(rng.gen_range(0..4), rng.gen_range(1..5)),
                };
                Job::weighted(i as u32, arrival, rng.gen_range(1..8u64), Arc::new(dag))
            })
            .collect();
        Instance::new(jobs)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every engine-produced trace certifies clean: work stealing across
    /// both policies and steal-cost models, and centralized FIFO,
    /// including speed augmentation.
    #[test]
    fn engine_traces_certify_clean(
        inst in arb_instance(),
        m in 1usize..5,
        k in 0u32..4,
        free in any::<bool>(),
        fast in any::<bool>(),
        seed in any::<u64>()
    ) {
        let mut cfg = SimConfig::new(m).with_trace();
        if free {
            cfg = cfg.with_free_steals();
        }
        if fast {
            cfg = cfg.with_speed(Speed::new(11, 10));
        }
        let policy = if k == 0 {
            StealPolicy::AdmitFirst
        } else {
            StealPolicy::StealKFirst { k }
        };
        let (result, trace) = run_worksteal(&inst, &cfg, policy, seed);
        let trace = trace.expect("trace requested");
        let report = certify_run(&inst, &cfg, Some(policy), &result, &trace);
        prop_assert!(report.is_clean(), "worksteal: {}", report.render());
        prop_assert_eq!(report.jobs, inst.len());

        let fifo_cfg = SimConfig::new(m)
            .with_speed(cfg.speed)
            .with_trace();
        let (result, trace) = run_priority(&inst, &fifo_cfg, &Fifo);
        let trace = trace.expect("trace requested");
        let report = certify_run(&inst, &fifo_cfg, None, &result, &trace);
        prop_assert!(report.is_clean(), "fifo: {}", report.render());
    }
}

/// One clean, fully deterministic baseline: a 3-node chain job on one
/// machine under admit-first (trace `[W(0,0)], [W(0,1)], [W(0,2)]`).
fn chain_baseline() -> (Instance, SimConfig, SimResult, ScheduleTrace) {
    let inst = Instance::new(vec![Job::new(0, 0, Arc::new(shapes::chain(3, 1)))]);
    let cfg = SimConfig::new(1).with_trace();
    let (result, trace) = run_worksteal(&inst, &cfg, StealPolicy::AdmitFirst, 1);
    let trace = trace.expect("trace requested");
    let report = certify_run(&inst, &cfg, Some(StealPolicy::AdmitFirst), &result, &trace);
    assert!(
        report.is_clean(),
        "baseline must be clean: {}",
        report.render()
    );
    (inst, cfg, result, trace)
}

/// Certify the mutated pair and return the single diagnostic.
fn expect_violation(
    inst: &Instance,
    cfg: &SimConfig,
    result: &SimResult,
    trace: &ScheduleTrace,
) -> parflow_certify::Violation {
    let report = certify_run(inst, cfg, Some(StealPolicy::AdmitFirst), result, trace);
    let rendered = report.render();
    report
        .violation
        .unwrap_or_else(|| panic!("mutation must be rejected: {rendered}"))
}

/// Mutation 1: swap two busy spans. Units of a chain now execute out of
/// DAG order — a P1 precedence violation at the earlier round.
#[test]
fn swapped_spans_violate_precedence() {
    let (inst, cfg, result, trace) = chain_baseline();
    let mut rows = trace.to_dense();
    rows.swap(0, 1);
    let mutated = encode(&trace, rows);
    let v = expect_violation(&inst, &cfg, &result, &mutated);
    assert_eq!(v.invariant, Invariant::Precedence, "{v}");
    assert_eq!(v.round, Some(0), "{v}");
    assert_eq!(v.job, Some(0), "{v}");
    assert!(v.message.contains("predecessor"), "{v}");
}

/// Mutation 2: drop a completion. The final unit of the job never
/// executes — P1 work conservation, attributed to the job and the short
/// node.
#[test]
fn dropped_completion_violates_precedence_completeness() {
    let (inst, cfg, result, trace) = chain_baseline();
    let mut rows = trace.to_dense();
    rows.pop();
    let mutated = encode(&trace, rows);
    let v = expect_violation(&inst, &cfg, &result, &mutated);
    assert_eq!(v.invariant, Invariant::Precedence, "{v}");
    assert_eq!(v.job, Some(0), "{v}");
    assert!(v.message.contains("incomplete"), "{v}");
}

/// Mutation 3: exceed capacity. A round row with m+1 busy processors has
/// no encoding: the trace arena holds `m`-wide rows only, so
/// `from_dense` refuses it as P2's row width at exactly that round — the
/// finding the per-unit oracle gives the dense rows.
#[test]
fn exceeded_capacity_violates_capacity() {
    let (inst, cfg, result, trace) = chain_baseline();
    let mut rows = trace.to_dense();
    rows[1].push(Action::Work { job: 0, node: 1 });
    let refused = ScheduleTrace::from_dense(trace.m, trace.speed, rows.clone());
    let width = TraceViolation::BadRowWidth {
        round: 1,
        width: 2,
        m: 1,
    };
    assert_eq!(refused, Err(width.clone()));
    assert_eq!(
        oracle::validate(&inst, trace.m, trace.speed, &rows),
        Err(width)
    );
    let report = oracle::certify(&inst, &cfg, Some(StealPolicy::AdmitFirst), &result, &rows);
    let v = report.violation.expect("the oracle rejects it");
    assert_eq!(v.invariant, Invariant::Capacity, "{v}");
    assert_eq!(v.round, Some(1), "{v}");
    assert!(v.message.contains("row covers 2 processors"), "{v}");
}

/// Mutation 4: reorder a precedence pair onto one round. Running a chain
/// successor in the same round as its predecessor (two processors) is a
/// P1 violation — rounds are atomic time steps.
#[test]
fn same_round_pair_violates_precedence() {
    let inst = Instance::new(vec![Job::new(0, 0, Arc::new(shapes::chain(2, 1)))]);
    let cfg = SimConfig::new(2).with_trace();
    let (result, trace) = run_worksteal(&inst, &cfg, StealPolicy::AdmitFirst, 1);
    let trace = trace.expect("trace requested");
    assert!(certify_run(&inst, &cfg, Some(StealPolicy::AdmitFirst), &result, &trace).is_clean());
    // Compress the two sequential rounds into one parallel round.
    let rows = vec![vec![
        Action::Work { job: 0, node: 0 },
        Action::Work { job: 0, node: 1 },
    ]];
    let mutated = encode(&trace, rows);
    let v = expect_violation(&inst, &cfg, &result, &mutated);
    assert_eq!(v.invariant, Invariant::Precedence, "{v}");
    assert_eq!(v.round, Some(0), "{v}");
    assert_eq!(v.worker, Some(1), "{v}");
    assert!(v.message.contains("predecessor"), "{v}");
}

/// The six corruptions of `tests/trace_fuzz.rs` and the three P1 trace
/// mutants above that encode, each through both entry points of the one
/// checker: `validate` and `certify_run` must reject the trace with the
/// per-unit oracle's finding on its dense rows — `validate`'s violation
/// and `certify_run`'s rendered line — and agree with each other on the
/// job and round.
#[test]
fn validate_and_certify_reject_with_the_oracles_finding() {
    type Rows = Vec<Vec<Action>>;
    type Corruption = (&'static str, fn(&mut Rows));
    fn on(job: u32, node: u32) -> Action {
        Action::Work { job, node }
    }
    fn drop_last_row(rows: &mut Rows) {
        rows.pop();
    }
    // The trace_fuzz corruptions run on a centralized FIFO schedule (no
    // policy to conform to, so no P3 finding can come first): two early
    // jobs, and one that arrives at tick 40.
    let fifo_inst = Instance::new(vec![
        Job::new(0, 0, Arc::new(shapes::chain(3, 2))),
        Job::new(1, 1, Arc::new(shapes::fork_join(3, 2))),
        Job::new(2, 40, Arc::new(shapes::parallel_for(12, 3))),
    ]);
    let fifo_cfg = SimConfig::new(2).with_trace();
    let (fifo_result, fifo_trace) = run_priority(&fifo_inst, &fifo_cfg, &Fifo);
    let fifo_trace = fifo_trace.expect("trace requested");
    assert_eq!(fifo_trace.validate(&fifo_inst), Ok(()));
    let fuzz: Vec<Corruption> = vec![
        // Processor 1 keeps row 1 busy, so it stays an explicit row.
        ("drop a work unit", |rows| rows[1][0] = Action::Idle),
        ("duplicate the terminal unit", |rows| {
            let last = rows.last().expect("non-empty trace");
            rows.push(vec![last[0], Action::Idle]);
        }),
        ("retarget to an unknown job", |rows| rows[3][0] = on(8, 0)),
        ("move work before arrival", |rows| {
            rows.insert(0, vec![on(2, 0), Action::Idle])
        }),
        ("reorder chain execution", |rows| rows.swap(0, 2)),
        ("truncate the tail", drop_last_row),
    ];

    // The certifier's own P1 mutants run on work-stealing schedules under
    // admit-first.
    let (chain_inst, chain_cfg, chain_result, chain_trace) = chain_baseline();
    let mutants: Vec<Corruption> = vec![
        ("swapped spans", |rows| rows.swap(0, 1)),
        ("dropped completion", drop_last_row),
    ];
    let pair_inst = Instance::new(vec![Job::new(0, 0, Arc::new(shapes::chain(2, 1)))]);
    let pair_cfg = SimConfig::new(2).with_trace();
    let (pair_result, pair_trace) =
        run_worksteal(&pair_inst, &pair_cfg, StealPolicy::AdmitFirst, 1);
    let pair_trace = pair_trace.expect("trace requested");
    let same_round: Vec<Corruption> = vec![("same-round pair", |rows| {
        *rows = vec![vec![on(0, 0), on(0, 1)]]
    })];

    let ws = Some(StealPolicy::AdmitFirst);
    let (chain, pair) = ((&chain_inst, &chain_cfg), (&pair_inst, &pair_cfg));
    let surfaces = [
        (
            (&fifo_inst, &fifo_cfg),
            None,
            &fifo_result,
            &fifo_trace,
            fuzz,
        ),
        (chain, ws, &chain_result, &chain_trace, mutants),
        (pair, ws, &pair_result, &pair_trace, same_round),
    ];
    let mut cases = 0;
    for ((inst, cfg), policy, result, trace, corruptions) in surfaces {
        for (name, corrupt) in corruptions {
            let mut rows = trace.to_dense();
            corrupt(&mut rows);
            let bad = encode(trace, rows.clone());
            let found = bad.validate(inst).expect_err(name);
            assert_eq!(
                Err(found.clone()),
                oracle::validate(inst, trace.m, trace.speed, &rows),
                "{name}: validate disagrees with the oracle"
            );
            use TraceViolation as T;
            let (invariant, round, job) = match found {
                T::EmptySpan { round } | T::BadRowWidth { round, .. } => {
                    (Invariant::Capacity, Some(round), None)
                }
                T::IncompleteNode { job, .. } => (Invariant::Precedence, None, Some(job)),
                T::UnknownTarget { round, job, .. }
                | T::EarlyStart { round, job }
                | T::ConcurrentNode { round, job, .. }
                | T::PrecedenceViolation { round, job, .. }
                | T::OverExecution { round, job, .. } => {
                    (Invariant::Precedence, Some(round), Some(job))
                }
            };
            let report = certify_run(inst, cfg, policy, result, &bad);
            assert_eq!(
                report.render(),
                oracle::certify(inst, cfg, policy, result, &rows).render(),
                "{name}: certify_run disagrees with the oracle"
            );
            let v = report
                .violation
                .unwrap_or_else(|| panic!("{name}: validate says {found}, certify says clean"));
            assert_eq!(
                (v.invariant, v.round, v.job),
                (invariant, round, job),
                "{name}: validate says {found}, certify says {v}"
            );
            cases += 1;
        }
    }
    assert_eq!(cases, 9);
}

/// Mutation 5: corrupt a reported flow. The trace is untouched; the
/// result's flow disagrees with the recomputation — P4, attributed to
/// the job.
#[test]
fn corrupted_flow_violates_flow_accounting() {
    let (inst, cfg, mut result, trace) = chain_baseline();
    result.outcomes[0].flow += Rational::from_int(1);
    let v = expect_violation(&inst, &cfg, &result, &trace);
    assert_eq!(v.invariant, Invariant::FlowAccounting, "{v}");
    assert_eq!(v.job, Some(0), "{v}");
    assert!(v.message.contains("flow"), "{v}");
}

/// Mutation 6: inflate the claimed performance past the OPT bound. A
/// summary whose max flow undercuts the independently computed lower
/// bound is impossible — P5. (A *trace* that beats OPT necessarily
/// breaks P1/P2 first; the paper's bound is exactly why.)
#[test]
fn max_flow_below_opt_bound_violates_lower_bound() {
    let report = certify_stream_summary(
        Speed::ONE,
        1_000,
        Rational::new(7, 2),
        Rational::from_int(4),
    );
    let v = report.violation.expect("7/2 < 4 must violate P5");
    assert_eq!(v.invariant, Invariant::LowerBound, "{v}");
    assert!(v.message.contains("OPT lower bound"), "{v}");
    // The boundary itself is feasible.
    assert!(certify_stream_summary(
        Speed::ONE,
        1_000,
        Rational::from_int(4),
        Rational::from_int(4)
    )
    .is_clean());
}

/// Mutation 7 (policy): a worker idles inside a busy round while the
/// global queue still holds an admissible job — breaks admit-first
/// work conservation, P3 at that round and worker, naming the waiting
/// queue-front job.
#[test]
fn idle_past_nonempty_queue_violates_policy() {
    let inst = Instance::new(vec![
        Job::new(0, 0, Arc::new(shapes::single_node(1))),
        Job::new(1, 0, Arc::new(shapes::single_node(1))),
        Job::new(2, 0, Arc::new(shapes::single_node(1))),
    ]);
    let cfg = SimConfig::new(2).with_trace();
    let (result, trace) = run_worksteal(&inst, &cfg, StealPolicy::AdmitFirst, 1);
    let trace = trace.expect("trace requested");
    assert!(certify_run(&inst, &cfg, Some(StealPolicy::AdmitFirst), &result, &trace).is_clean());
    // Delay job 1 by one round: worker 1 now idles at round 0 while the
    // queue holds jobs 1 and 2.
    let rows = vec![
        vec![Action::Work { job: 0, node: 0 }, Action::Idle],
        vec![
            Action::Work { job: 2, node: 0 },
            Action::Work { job: 1, node: 0 },
        ],
    ];
    let mutated = encode(&trace, rows);
    let v = expect_violation(&inst, &cfg, &result, &mutated);
    assert_eq!(v.invariant, Invariant::Policy, "{v}");
    assert_eq!(v.round, Some(0), "{v}");
    assert_eq!(v.worker, Some(1), "{v}");
    assert_eq!(v.job, Some(1), "{v}");
}

/// Mutation 8 (policy): the same trace certified against a stricter
/// declared policy. An admit-first schedule admits long before k = 5
/// failed steals — P3 at the admission.
#[test]
fn premature_admission_violates_steal_k_policy() {
    let (inst, cfg, result, trace) = chain_baseline();
    let report = certify_run(
        &inst,
        &cfg,
        Some(StealPolicy::StealKFirst { k: 5 }),
        &result,
        &trace,
    );
    let v = report.violation.expect("k=5 conformance must fail");
    assert_eq!(v.invariant, Invariant::Policy, "{v}");
    assert_eq!(v.round, Some(0), "{v}");
    assert_eq!(v.worker, Some(0), "{v}");
    assert_eq!(v.job, Some(0), "{v}");
    assert!(v.message.contains("failed steals"), "{v}");
}

/// Faulted runs are skipped, not certified — and never reported clean.
#[test]
fn faulted_runs_are_skipped_not_certified() {
    use parflow_core::FaultPlan;
    let inst = Instance::new(vec![Job::new(0, 0, Arc::new(shapes::parallel_for(8, 2)))]);
    let cfg = SimConfig::new(3)
        .with_trace()
        .with_faults(FaultPlan::none().crash(1, 2));
    let (result, trace) = run_worksteal(&inst, &cfg, StealPolicy::AdmitFirst, 9);
    let trace = trace.expect("trace requested");
    let report = certify_run(&inst, &cfg, Some(StealPolicy::AdmitFirst), &result, &trace);
    assert!(report.skipped.is_some(), "{}", report.render());
    assert!(report.violation.is_none());
    assert!(!report.is_clean());
}

/// The report renders violations with full attribution (round, worker,
/// job, invariant code) for CI logs.
#[test]
fn report_rendering_names_the_locus() {
    let (inst, cfg, result, trace) = chain_baseline();
    let mut rows = trace.to_dense();
    rows.swap(0, 1);
    let mutated = encode(&trace, rows);
    let report = certify_run(
        &inst,
        &cfg,
        Some(StealPolicy::AdmitFirst),
        &result,
        &mutated,
    );
    let line = report.render();
    assert!(line.contains("VIOLATION"), "{line}");
    assert!(line.contains("P1 precedence"), "{line}");
    assert!(line.contains("round 0"), "{line}");
    assert!(line.contains("job 0"), "{line}");
    let clean = CertReport::default();
    assert!(clean.render().contains("clean"), "{}", clean.render());
}

/// Run `inst` traced (work stealing under `policy`, or FIFO for `None`),
/// check it clean, mutate it, and return the one finding, whose rendered
/// line must be the per-unit oracle's on the mutant's dense rows.
fn span_mutant(
    inst: &Instance,
    cfg: &SimConfig,
    policy: Option<StealPolicy>,
    mutate: impl FnOnce(&mut ScheduleTrace),
) -> parflow_certify::Violation {
    let (result, trace) = match policy {
        Some(policy) => run_worksteal(inst, cfg, policy, 1),
        None => run_priority(inst, cfg, &Fifo),
    };
    let mut trace = trace.expect("trace requested");
    let clean = certify_run(inst, cfg, policy, &result, &trace);
    assert!(clean.is_clean(), "{}", clean.render());
    mutate(&mut trace);
    let report = certify_run(inst, cfg, policy, &result, &trace);
    let dense = trace.to_dense();
    let expected = oracle::certify(inst, cfg, policy, &result, &dense);
    assert_eq!(report.render(), expected.render(), "the oracle disagrees");
    report.violation.expect("mutant must be rejected")
}

/// The round count of a busy or idle span.
fn rounds_of(span: &mut TraceSpan) -> &mut u64 {
    match span {
        TraceSpan::Busy { rounds, .. } => rounds,
        TraceSpan::Idle { count } => count,
    }
}

/// Span mutant 1: a span one round longer than a node's remaining
/// work. Jobs of 4 and 2 units share the first two rounds; a third round
/// of that row over-executes job 1 — P1 at that round and worker.
#[test]
fn span_past_a_nodes_work_violates_precedence() {
    let inst = Instance::new(vec![
        Job::new(0, 0, Arc::new(shapes::single_node(4))),
        Job::new(1, 0, Arc::new(shapes::single_node(2))),
    ]);
    let cfg = SimConfig::new(2).with_trace();
    let v = span_mutant(&inst, &cfg, Some(StealPolicy::AdmitFirst), |trace| {
        let spans = &mut trace.spans;
        assert_eq!(*rounds_of(&mut spans[0]), 2);
        *rounds_of(&mut spans[0]) += 1;
    });
    assert_eq!(v.invariant, Invariant::Precedence, "{v}");
    assert_eq!(
        (v.round, v.worker, v.job),
        (Some(2), Some(1), Some(1)),
        "{v}"
    );
    assert!(v.message.contains("over-executed"), "{v}");
}

/// Span mutant 2: under free steals, the first row `[job 0, idle]`
/// stretched over the whole trace keeps worker 1 idle through round 5,
/// where job 1 becomes eligible — P3 at that round, naming job 1.
#[test]
fn idle_row_across_an_arrival_violates_policy() {
    let inst = Instance::new(vec![
        Job::new(0, 0, Arc::new(shapes::single_node(10))),
        Job::new(1, 5, Arc::new(shapes::single_node(2))),
    ]);
    let cfg = SimConfig::new(2).with_free_steals().with_trace();
    let v = span_mutant(&inst, &cfg, Some(StealPolicy::AdmitFirst), |trace| {
        let spans = &mut trace.spans;
        let total = spans.iter_mut().map(|s| *rounds_of(s)).sum();
        spans.truncate(1);
        *rounds_of(&mut spans[0]) = total;
    });
    assert_eq!(v.invariant, Invariant::Policy, "{v}");
    assert_eq!(
        (v.round, v.worker, v.job),
        (Some(5), Some(1), Some(1)),
        "{v}"
    );
}

/// Span mutant 3: FIFO's first span one round too long shifts job 1
/// (arriving at 3) a round later than the engine reported — P4 at job 1,
/// before the trace's extra unit over-executes job 0. A span of no
/// rounds is P2.
#[test]
fn span_off_by_one_violates_flow_accounting() {
    let inst = Instance::new(vec![
        Job::new(0, 0, Arc::new(shapes::single_node(10))),
        Job::new(1, 3, Arc::new(shapes::single_node(2))),
    ]);
    let cfg = SimConfig::new(2).with_trace();
    let v = span_mutant(&inst, &cfg, None, |trace| {
        let spans = &mut trace.spans;
        assert_eq!(*rounds_of(&mut spans[0]), 3);
        *rounds_of(&mut spans[0]) += 1;
    });
    assert_eq!(v.invariant, Invariant::FlowAccounting, "{v}");
    assert_eq!((v.round, v.worker, v.job), (None, None, Some(1)), "{v}");
    assert!(v.message.contains("start_round 3"), "{v}");

    // A span of no rounds has no expansion to compare with.
    let (result, trace) = run_priority(&inst, &cfg, &Fifo);
    let mut trace = trace.expect("trace requested");
    *rounds_of(&mut trace.spans[1]) = 0;
    assert_eq!(
        trace.validate(&inst),
        Err(TraceViolation::EmptySpan { round: 3 })
    );
    let empty = certify_run(&inst, &cfg, None, &result, &trace).violation;
    let empty = empty.expect("an empty span must be rejected");
    assert_eq!(empty.invariant, Invariant::Capacity, "{empty}");
    assert_eq!(empty.round, Some(3), "{empty}");
}

/// Span mutant 4: unit-step steal-3-first with two queued jobs and
/// nothing to steal burns rounds 0..3 in one span of misses. Stretched,
/// both thieves reach 3 failures with the queue still holding job 0, and
/// worker 0 steals again in round 3 — the span's last round (4 rounds)
/// or a streak limit due strictly inside it (5, 8).
#[test]
fn steal_k_span_past_k_failures_violates_policy() {
    let inst = Instance::new(vec![
        Job::new(0, 0, Arc::new(shapes::single_node(1))),
        Job::new(1, 0, Arc::new(shapes::single_node(1))),
    ]);
    let cfg = SimConfig::new(2).with_trace();
    let policy = StealPolicy::StealKFirst { k: 3 };
    for rounds in [4, 5, 8] {
        let v = span_mutant(&inst, &cfg, Some(policy), |trace| {
            *rounds_of(&mut trace.spans[0]) = rounds;
        });
        assert_eq!(v.invariant, Invariant::Policy, "{v}");
        assert_eq!(
            (v.round, v.worker, v.job),
            (Some(3), Some(0), Some(0)),
            "{v}"
        );
        assert!(v.message.contains("stole with 3 ≥ k = 3"), "{v}");
    }
}

/// Span mutant 5: under free steals the row `[job 0, idle]` stretched
/// past round 5, where job 1 becomes eligible: worker 1 idles beside a
/// queued job in round 5 — the span's last round (6 rounds) or strictly
/// inside it (7, 9).
#[test]
fn free_steal_span_across_an_arrival_violates_policy() {
    let inst = Instance::new(vec![
        Job::new(0, 0, Arc::new(shapes::single_node(10))),
        Job::new(1, 5, Arc::new(shapes::single_node(2))),
    ]);
    let cfg = SimConfig::new(2).with_free_steals().with_trace();
    for rounds in [6, 7, 9] {
        let v = span_mutant(&inst, &cfg, Some(StealPolicy::AdmitFirst), |trace| {
            *rounds_of(&mut trace.spans[0]) = rounds;
        });
        assert_eq!(v.invariant, Invariant::Policy, "{v}");
        assert_eq!(
            (v.round, v.worker, v.job),
            (Some(5), Some(1), Some(1)),
            "{v}"
        );
        assert!(v.message.contains("idled"), "{v}");
    }
}

/// Span mutant 6: jobs of 10 and 6 units share six rounds; the shared
/// row stretched to 7 or 12 rounds over-executes job 1 in round 6.
#[test]
fn span_outlasting_a_nodes_work_violates_precedence() {
    let inst = Instance::new(vec![
        Job::new(0, 0, Arc::new(shapes::single_node(10))),
        Job::new(1, 0, Arc::new(shapes::single_node(6))),
    ]);
    let cfg = SimConfig::new(2).with_trace();
    for rounds in [7, 12] {
        let v = span_mutant(&inst, &cfg, Some(StealPolicy::AdmitFirst), |trace| {
            *rounds_of(&mut trace.spans[0]) = rounds;
        });
        assert_eq!(v.invariant, Invariant::Precedence, "{v}");
        assert_eq!(
            (v.round, v.worker, v.job),
            (Some(6), Some(1), Some(1)),
            "{v}"
        );
        assert!(v.message.contains("over-executed"), "{v}");
    }
}

/// Span mutant 7: FIFO runs jobs of 4 and 3 units back to back on one
/// processor; job 1 put over job 0's 4 rounds ends job 1 inside the
/// run, in round 2, where its outcome is checked: P4 there, before the
/// over-execution of round 3.
#[test]
fn span_ending_a_job_inside_checks_its_outcome_there() {
    let inst = Instance::new(vec![
        Job::new(0, 0, Arc::new(shapes::single_node(4))),
        Job::new(1, 0, Arc::new(shapes::single_node(3))),
    ]);
    let cfg = SimConfig::new(1).with_trace();
    let v = span_mutant(&inst, &cfg, None, |trace| {
        assert_eq!(*rounds_of(&mut trace.spans[0]), 4);
        let mut rows = trace.to_dense();
        rows[..4].fill(vec![Action::Work { job: 1, node: 0 }]);
        *trace = encode(trace, rows);
    });
    assert_eq!(v.invariant, Invariant::FlowAccounting, "{v}");
    assert_eq!((v.round, v.worker, v.job), (None, None, Some(1)), "{v}");
    assert!(v.message.contains("start_round 4"), "{v}");
}

/// Span mutant 8: a 5-unit job runs on worker 0 while workers 1 and 2
/// miss, one span of 5 rounds; worker 2's misses turned into hits are 5
/// hits the engine never reported — P2, counting every round of the run.
#[test]
fn repeated_steal_hit_row_counts_every_round() {
    let inst = Instance::new(vec![Job::new(0, 0, Arc::new(shapes::single_node(5)))]);
    let cfg = SimConfig::new(3).with_trace();
    let v = span_mutant(&inst, &cfg, Some(StealPolicy::AdmitFirst), |trace| {
        assert_eq!(*rounds_of(&mut trace.spans[0]), 5);
        let mut rows = trace.to_dense();
        for row in &mut rows[..5] {
            assert_eq!(row[2], Action::Steal { hit: false });
            row[2] = Action::Steal { hit: true };
        }
        *trace = encode(trace, rows);
    });
    assert_eq!(v.invariant, Invariant::Capacity, "{v}");
    assert_eq!((v.round, v.worker, v.job), (None, None, None), "{v}");
    assert!(
        v.message
            .contains("trace shows 5 successful_steals, engine reported 0"),
        "{v}"
    );
}

/// Run mutant 1: FIFO runs a 2-unit job 0 on processor 0 and a 6-unit
/// job 1 on processor 1 from round 0; processor 1 keeps job 1 through
/// round 5. Processor 0 also running job 1 in round 2 opens a run on a
/// node whose older run sits on the higher-index processor: the second
/// unit of round 2 is processor 1's — P1 there, once.
#[test]
fn node_opened_below_an_older_run_is_concurrent_at_the_higher_worker() {
    let inst = Instance::new(vec![
        Job::new(0, 0, Arc::new(shapes::single_node(2))),
        Job::new(1, 0, Arc::new(shapes::single_node(6))),
    ]);
    let cfg = SimConfig::new(2).with_trace();
    let v = span_mutant(&inst, &cfg, None, |trace| {
        let mut rows = trace.to_dense();
        let job1 = Action::Work { job: 1, node: 0 };
        assert!(rows[..6].iter().all(|row| row[1] == job1));
        assert_eq!(rows[2][0], Action::Idle);
        rows[2][0] = job1;
        *trace = encode(trace, rows);
    });
    assert_eq!(v.invariant, Invariant::Precedence, "{v}");
    assert_eq!(
        (v.round, v.worker, v.job),
        (Some(2), Some(1), Some(1)),
        "{v}"
    );
    assert!(v.message.contains("two processors"), "{v}");
}

/// Run mutant 2: FIFO runs jobs of 5, 8 and 3 units side by side on
/// three processors. The first row stretched over 8 rounds leaves job
/// 2's run due to over-run in round 3, inside the span, ahead of job 0's
/// over-run in round 5 on the lower-index processor 0.
#[test]
fn over_execution_due_inside_a_span_comes_first() {
    let inst = Instance::new(vec![
        Job::new(0, 0, Arc::new(shapes::single_node(5))),
        Job::new(1, 0, Arc::new(shapes::single_node(8))),
        Job::new(2, 0, Arc::new(shapes::single_node(3))),
    ]);
    let cfg = SimConfig::new(3).with_trace();
    let v = span_mutant(&inst, &cfg, None, |trace| {
        assert_eq!(*rounds_of(&mut trace.spans[0]), 3);
        *rounds_of(&mut trace.spans[0]) = 8;
    });
    assert_eq!(v.invariant, Invariant::Precedence, "{v}");
    assert_eq!(
        (v.round, v.worker, v.job),
        (Some(3), Some(2), Some(2)),
        "{v}"
    );
    assert!(v.message.contains("over-executed"), "{v}");
}

/// Run mutant 3: under free steals, processors 1 and 2 idle from round
/// 0 while processor 0 runs a chain of two 5-unit nodes; job 1 arrives
/// at 7 and processor 1 admits it. With its two rounds of job 1 idled
/// away, one idle run spans rounds 0..10 across the span boundary at 5,
/// and job 1's arrival falls strictly inside the second span: P3 at
/// round 7, at the lowest idle processor, naming job 1.
#[test]
fn arrival_inside_a_free_steal_idle_run_violates_policy() {
    let inst = Instance::new(vec![
        Job::new(0, 0, Arc::new(shapes::chain(2, 5))),
        Job::new(1, 7, Arc::new(shapes::single_node(2))),
    ]);
    let cfg = SimConfig::new(3).with_free_steals().with_trace();
    let v = span_mutant(&inst, &cfg, Some(StealPolicy::AdmitFirst), |trace| {
        let mut rows = trace.to_dense();
        assert_eq!(rows[7][1], Action::Work { job: 1, node: 0 });
        for row in &mut rows[7..9] {
            row[1] = Action::Idle;
        }
        *trace = encode(trace, rows);
        assert_eq!(*rounds_of(&mut trace.spans[1]), 5, "one span from 5 to 10");
    });
    assert_eq!(v.invariant, Invariant::Policy, "{v}");
    assert_eq!(
        (v.round, v.worker, v.job),
        (Some(7), Some(1), Some(1)),
        "{v}"
    );
    assert!(v.message.contains("idled"), "{v}");
}

/// Run mutant 4 (a clean one): under FIFO, job 0's fork preempts job 1
/// in round 1, and job 1 resumes in round 3 beside job 0's longer branch,
/// which keeps its processor — so job 1 resumes on the other processor.
/// A node that moves between runs is feasible, and certifies clean, as
/// the oracle has it.
#[test]
fn fifo_node_resumed_on_another_processor_certifies_clean() {
    let inst = Instance::new(vec![
        Job::new(0, 0, Arc::new(forked(&[1, 2, 5]))),
        Job::new(1, 0, Arc::new(shapes::single_node(10))),
    ]);
    let cfg = SimConfig::new(2).with_trace();
    let (result, trace) = run_priority(&inst, &cfg, &Fifo);
    let trace = trace.expect("trace requested");
    let rows = trace.to_dense();
    let job1 = Action::Work { job: 1, node: 0 };
    assert_eq!(rows[0][1], job1, "job 1 starts on processor 1");
    assert!(!rows[1].contains(&job1), "job 0's fork preempts it");
    assert_eq!(rows[3][0], job1, "and it resumes on processor 0");
    assert_eq!(rows[3][1], Action::Work { job: 0, node: 2 });
    let report = certify_run(&inst, &cfg, None, &result, &trace);
    assert!(report.is_clean(), "{}", report.render());
    let expected = oracle::certify(&inst, &cfg, None, &result, &rows);
    assert_eq!(report.render(), expected.render());
}

/// Run mutant 5 (a clean one): a 6-unit node that FIFO runs on processor
/// 0 is moved to processor 1 for its first three rounds, so it passes
/// from a higher-index worker to a lower-index one mid-run. Worker 0
/// opens the node in round 3 before worker 1's run on it closes; the
/// three units of that run still count, and the trace certifies clean,
/// as the oracle has it.
#[test]
fn node_moved_to_a_lower_processor_mid_run_certifies_clean() {
    let inst = Instance::new(vec![Job::new(0, 0, Arc::new(shapes::single_node(6)))]);
    let cfg = SimConfig::new(2).with_trace();
    let (result, trace) = run_priority(&inst, &cfg, &Fifo);
    let trace = trace.expect("trace requested");
    let mut rows = trace.to_dense();
    let work = Action::Work { job: 0, node: 0 };
    assert!(rows.iter().all(|row| *row == [work, Action::Idle]));
    for row in &mut rows[..3] {
        row.swap(0, 1);
    }
    let moved = encode(&trace, rows.clone());
    let report = certify_run(&inst, &cfg, None, &result, &moved);
    assert!(report.is_clean(), "{}", report.render());
    let expected = oracle::certify(&inst, &cfg, None, &result, &rows);
    assert_eq!(report.render(), expected.render());
    assert_eq!(moved.validate(&inst), Ok(()));
}

/// A source of `works[0]` units forking into one node per further entry.
fn forked(works: &[u64]) -> parflow_dag::JobDag {
    let mut b = parflow_dag::DagBuilder::new();
    let source = b.add_node(works[0]);
    for &w in &works[1..] {
        let v = b.add_node(w);
        b.add_edge(source, v).expect("acyclic");
    }
    b.build().expect("valid DAG")
}
