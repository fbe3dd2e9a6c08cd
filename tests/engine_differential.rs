//! Differential proof of the event-horizon centralized engine.
//!
//! `run_priority` advances in bulk between scheduling events (arrivals and
//! node completions of claimed work); `run_priority_reference` — compiled in
//! via the `reference-engine` feature — is the original round-by-round loop,
//! kept verbatim as the behavioural spec. Across random instances, processor
//! counts, speeds (including fractional augmentation) and priority policies,
//! the two must be **bit-identical**: same outcomes, same stats, same round
//! counts, and the same trace round-for-round.

use parflow::core::{
    run_priority, run_priority_reference, BiggestWeightFirst, Fifo, JobPriority, Lifo,
    ShortestJobFirst, SimConfig,
};
use parflow::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A random small instance of mixed DAG shapes and arrival patterns,
/// including bursts (equal arrivals) and sparse gaps that exercise the
/// quiescent fast-forward path.
fn arb_instance() -> impl Strategy<Value = Instance> {
    (any::<u64>(), 1usize..14, 0u64..60)
        .prop_map(|(seed, njobs, spread)| gen_instance(seed, njobs, spread))
}

/// `njobs` jobs of mixed shapes with arrivals uniform in `0..=spread`.
fn gen_instance(seed: u64, njobs: usize, spread: u64) -> Instance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let jobs = (0..njobs)
        .map(|i| {
            let arrival = if spread == 0 {
                0
            } else {
                rng.gen_range(0..=spread)
            };
            let dag = match rng.gen_range(0..5u8) {
                0 => shapes::single_node(rng.gen_range(1..25)),
                1 => shapes::chain(rng.gen_range(1..6), rng.gen_range(1..5)),
                2 => shapes::parallel_for(rng.gen_range(1..40), rng.gen_range(1..8)),
                3 => shapes::fork_join(rng.gen_range(0..4), rng.gen_range(1..5)),
                _ => shapes::layered_random(&mut rng, shapes::LayeredParams::default()),
            };
            let weight = rng.gen_range(1..10u64);
            Job::weighted(i as u32, arrival, weight, Arc::new(dag))
        })
        .collect();
    Instance::new(jobs)
}

fn arb_speed() -> impl Strategy<Value = Speed> {
    prop_oneof![
        Just(Speed::ONE),
        Just(Speed::new(11, 10)),
        Just(Speed::new(3, 2)),
        Just(Speed::new(21, 20)),
        Just(Speed::integer(2)),
        Just(Speed::integer(3)),
    ]
}

/// Assert the fast and reference engines agree bit-for-bit on `inst`.
fn assert_identical<P: JobPriority>(inst: &Instance, cfg: &SimConfig, policy: &P, name: &str) {
    let (fast, fast_trace) = run_priority(inst, cfg, policy);
    let (slow, slow_trace) = run_priority_reference(inst, cfg, policy);
    assert_eq!(fast.m, slow.m, "{name}: m");
    assert_eq!(fast.speed, slow.speed, "{name}: speed");
    assert_eq!(fast.total_rounds, slow.total_rounds, "{name}: total_rounds");
    assert_eq!(fast.outcomes, slow.outcomes, "{name}: outcomes");
    assert_eq!(fast.stats, slow.stats, "{name}: stats");
    assert_eq!(fast.samples, slow.samples, "{name}: samples");
    match (fast_trace, slow_trace) {
        (None, None) => {}
        (Some(f), Some(s)) => {
            assert_eq!(f.spans, s.spans, "{name}: trace spans");
            assert_eq!(f.validate(inst), Ok(()), "{name}: trace validity");
            // Independent machine-check of the paper invariants (P1–P5)
            // on the agreed-upon schedule.
            let report = parflow_certify::certify_run(inst, cfg, None, &fast, &f);
            assert!(report.is_clean(), "{name}: {}", report.render());
        }
        _ => panic!("{name}: trace presence mismatch"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fifo_event_horizon_is_bit_identical(
        inst in arb_instance(), m in 1usize..6, speed in arb_speed(), traced in any::<bool>()
    ) {
        let mut cfg = SimConfig::new(m).with_speed(speed);
        if traced {
            cfg = cfg.with_trace();
        }
        assert_identical(&inst, &cfg, &Fifo, "fifo");
    }

    #[test]
    fn bwf_event_horizon_is_bit_identical(
        inst in arb_instance(), m in 1usize..6, speed in arb_speed()
    ) {
        let cfg = SimConfig::new(m).with_speed(speed).with_trace();
        assert_identical(&inst, &cfg, &BiggestWeightFirst, "bwf");
    }

    #[test]
    fn lifo_event_horizon_is_bit_identical(
        inst in arb_instance(), m in 1usize..6, speed in arb_speed()
    ) {
        let cfg = SimConfig::new(m).with_speed(speed).with_trace();
        assert_identical(&inst, &cfg, &Lifo, "lifo");
    }

    #[test]
    fn sjf_event_horizon_is_bit_identical(
        inst in arb_instance(), m in 1usize..6, speed in arb_speed()
    ) {
        let cfg = SimConfig::new(m).with_speed(speed).with_trace();
        assert_identical(&inst, &cfg, &ShortestJobFirst, "sjf");
    }
}

#[test]
fn single_processor_long_chain_is_bit_identical() {
    // Degenerate shapes the proptest generator rarely hits: m=1 with a
    // long sequential chain (maximal event-horizon spans) and a huge gap.
    let jobs = vec![
        Job::new(0, 0, Arc::new(shapes::chain(4, 50))),
        Job::new(1, 100_000, Arc::new(shapes::single_node(3))),
    ];
    let inst = Instance::new(jobs);
    for speed in [Speed::ONE, Speed::new(11, 10)] {
        let cfg = SimConfig::new(1).with_speed(speed).with_trace();
        assert_identical(&inst, &cfg, &Fifo, "chain-gap");
    }
}

// ---------------------------------------------------------------------------
// Event-driven stepper differentials: `run_worksteal` with an empty fault
// plan runs the event-driven stepper (only idle and completing workers act,
// uneventful spans are jumped); `run_worksteal_reference` is the per-round
// loop — every worker every round, one unit at a time — kept as the
// independent behavioural spec. They must agree on outcomes, stats,
// samples, trace and the whole obs report.
// ---------------------------------------------------------------------------

use parflow::core::{run_worksteal_observed, run_worksteal_reference, FaultPlan, PPM};
use parflow::obs::AggregatingRecorder;

/// Plans on the fault axis.
const FAULT_AXIS: u8 = 9;

/// The fault axis for a machine of `m`: none, crash, stall, slow 1/2,
/// slow 1/3, blackhole, panic, certain panic, everything at once. On
/// `m = 1`, where nobody could adopt a crashed worker's tasks, the crash
/// becomes a stall.
fn fault_plan(axis: u8, m: usize) -> FaultPlan {
    let (last, plan) = (m - 1, FaultPlan::none());
    let crash = |plan: FaultPlan, at| {
        if m > 1 {
            plan.crash(last, at)
        } else {
            plan.stall(0, at, 9)
        }
    };
    match axis % FAULT_AXIS {
        0 => plan,
        1 => crash(plan, 6),
        2 => plan.stall(0, 3, 25).stall(0, 20, 30).stall(last, 40, 2),
        3 => plan.slowdown(0, PPM / 2),
        4 => plan.slowdown(last, 333_333),
        5 => plan.blackhole(0),
        6 => plan.with_panic_ppm(150_000),
        7 => plan.with_panic_ppm(PPM),
        _ => crash(plan, 9)
            .slowdown(0, PPM / 2)
            .stall(0, 12, 15)
            .blackhole(last)
            .with_panic_ppm(50_000),
    }
}

/// Assert stepper and per-round reference agree bit-for-bit, through the
/// observed entry points so the per-worker telemetry is compared too.
fn assert_stepper_matches_reference(
    inst: &Instance,
    cfg: &SimConfig,
    policy: StealPolicy,
    seed: u64,
    name: &str,
) {
    let mut fast_rec = AggregatingRecorder::new();
    let mut slow_rec = AggregatingRecorder::new();
    let (fast, fast_trace) = run_worksteal_observed(inst, cfg, policy, seed, &mut fast_rec);
    let (slow, slow_trace) = run_worksteal_reference(inst, cfg, policy, seed, &mut slow_rec);
    assert_eq!(fast.outcomes, slow.outcomes, "{name}: outcomes");
    assert_eq!(fast.stats, slow.stats, "{name}: stats");
    assert_eq!(fast.samples, slow.samples, "{name}: samples");
    assert_eq!(fast, slow, "{name}: result");
    assert_eq!(fast_trace, slow_trace, "{name}: trace");
    assert_eq!(
        fast_rec.report().to_json(),
        slow_rec.report().to_json(),
        "{name}: obs report"
    );
    // The unobserved entry point is the same run.
    let (plain, plain_trace) = run_worksteal(inst, cfg, policy, seed);
    assert_eq!(plain, fast, "{name}: NullRecorder result");
    assert_eq!(plain_trace, fast_trace, "{name}: NullRecorder trace");
    // The certifier's feasibility model is fault-free (ROADMAP item 2).
    if let Some(t) = fast_trace.as_ref().filter(|_| cfg.faults.is_empty()) {
        assert_eq!(t.validate(inst), Ok(()), "{name}: trace validity");
        let report = parflow_certify::certify_run(inst, cfg, Some(policy), &fast, t);
        assert!(report.is_clean(), "{name}: {}", report.render());
    }
}

/// The full knob grid — steal cost × victim × steal amount × admission
/// order × k × trace × sampling × m (word boundaries 64/65/130 included) —
/// on a burst, a steady trickle and a sparse instance with quiescent gaps.
/// Every case runs fault-free and under one plan of the fault axis, the
/// plan rotating so each knob setting meets every kind of fault.
#[test]
fn stepper_matches_reference_on_the_full_config_grid() {
    let instances = [
        gen_instance(0xA11CE, 12, 0),
        gen_instance(0xB0B, 13, 40),
        gen_instance(0xCAB, 9, 600),
    ];
    let mut cases = 0u32;
    for (ii, inst) in instances.iter().enumerate() {
        for m in [1usize, 2, 7, 16, 64, 65, 130] {
            for knobs in 0u32..64 {
                let (free, scan, half, weighted, traced, sampled) = (
                    knobs & 1 != 0,
                    knobs & 2 != 0,
                    knobs & 4 != 0,
                    knobs & 8 != 0,
                    knobs & 16 != 0,
                    knobs & 32 != 0,
                );
                let mut cfg = SimConfig::new(m);
                if free {
                    cfg = cfg.with_free_steals();
                }
                if scan {
                    cfg = cfg.with_victim_scan();
                }
                if half {
                    cfg = cfg.with_half_steals();
                }
                if weighted {
                    cfg = cfg.with_weighted_admission();
                }
                if traced {
                    cfg = cfg.with_trace();
                }
                if sampled {
                    cfg = cfg.with_sampling(7);
                }
                for (ki, k) in [0u32, 1, 4, 16].into_iter().enumerate() {
                    let policy = if k == 0 {
                        StealPolicy::AdmitFirst
                    } else {
                        StealPolicy::StealKFirst { k }
                    };
                    let seed = 0x5eed ^ (knobs as u64) << 8 ^ k as u64;
                    let axis = 1 + (knobs as usize + ki + m + ii) % (FAULT_AXIS as usize - 1);
                    for axis in [0, axis as u8] {
                        let cfg = cfg.clone().with_faults(fault_plan(axis, m));
                        let name = format!("inst {ii} m {m} knobs {knobs:06b} k {k} fault {axis}");
                        assert_stepper_matches_reference(inst, &cfg, policy, seed, &name);
                        cases += 1;
                    }
                }
            }
        }
    }
    assert_eq!(cases, 3 * 7 * 64 * 4 * 2);
}

// Named regressions for the edges the event form introduces. Each runs
// traced and untraced through `assert_stepper_matches_reference` and pins
// a concrete value showing the edge was actually hit.

/// Run `cfg` untraced and traced against the reference; hand back the
/// traced stepper run.
fn edge_case(
    inst: &Instance,
    cfg: &SimConfig,
    policy: StealPolicy,
    seed: u64,
    name: &str,
) -> (parflow::core::SimResult, parflow::core::ScheduleTrace) {
    assert_stepper_matches_reference(inst, cfg, policy, seed, name);
    let traced = cfg.clone().with_trace();
    assert_stepper_matches_reference(inst, &traced, policy, seed, name);
    let (result, trace) = run_worksteal(inst, &traced, policy, seed);
    (result, trace.expect("traced"))
}

fn one_job(dag: JobDag) -> Instance {
    Instance::new(vec![Job::new(0, 0, Arc::new(dag))])
}

#[test]
fn edge_work_one_nodes_complete_in_their_acquisition_round() {
    // A chain of unit nodes: every node is popped, executed and completed
    // in one round, never held into the next.
    let inst = one_job(shapes::chain(6, 1));
    for cfg in [SimConfig::new(2), SimConfig::new(2).with_free_steals()] {
        let (r, _) = edge_case(&inst, &cfg, StealPolicy::AdmitFirst, 3, "work-1 chain");
        assert_eq!(r.outcomes[0].completion_round, 5);
        assert_eq!(r.stats.work_steps, 6);
    }
}

#[test]
fn edge_unit_step_steal_hit_starts_the_node_next_round() {
    use parflow::core::Action;
    // source(1) → two chunks of 4 → sink(1) on two workers. Round 0:
    // worker 0 admits and finishes the source, worker 1's steal misses.
    // Round 1: worker 0 pops one chunk, worker 1 steals the other — and
    // first works on it in round 2, finishing in round 5.
    let inst = one_job(shapes::parallel_for(8, 2));
    let (r, t) = edge_case(
        &inst,
        &SimConfig::new(2),
        StealPolicy::AdmitFirst,
        9,
        "steal hit",
    );
    let rows = t.to_dense();
    assert_eq!(rows[0][1], Action::Steal { hit: false });
    assert_eq!(rows[1][1], Action::Steal { hit: true });
    assert!(matches!(rows[2][1], Action::Work { job: 0, .. }));
    assert!(matches!(rows[5][1], Action::Work { job: 0, .. }));
    // The sink lands on worker 1's deque at the end of round 5; worker 0
    // acts first in round 6, steals it and runs it in round 7.
    assert_eq!(rows[6][0], Action::Steal { hit: true });
    assert_eq!(r.outcomes[0].completion_round, 7);
    assert_eq!(r.stats.successful_steals, 2);
}

#[test]
fn edge_arrival_lands_on_the_round_of_the_earliest_completion() {
    // Job 0 finishes in round 4, exactly when job 1 arrives: the jump
    // stops at 4 for both reasons and the round is explicit.
    let inst = Instance::new(vec![
        Job::new(0, 0, Arc::new(shapes::single_node(5))),
        Job::new(1, 4, Arc::new(shapes::single_node(3))),
    ]);
    for m in [1usize, 2] {
        for cfg in [SimConfig::new(m), SimConfig::new(m).with_free_steals()] {
            let (r, _) = edge_case(
                &inst,
                &cfg,
                StealPolicy::AdmitFirst,
                1,
                "arrival = completion",
            );
            assert_eq!(r.outcomes[0].completion_round, 4);
            // One worker: it is still finishing job 0 in round 4. Two:
            // the idle one admits job 1 on arrival.
            assert_eq!(r.outcomes[1].start_round, if m == 1 { 5 } else { 4 });
        }
    }
}

#[test]
fn edge_k_burn_jump_stops_one_round_before_the_admission() {
    // Unit-step steal-3-first, nothing stealable: both workers burn
    // rounds 0..3 in one jump and admit in round 3.
    let inst = Instance::new(vec![
        Job::new(0, 0, Arc::new(shapes::single_node(1))),
        Job::new(1, 0, Arc::new(shapes::single_node(1))),
    ]);
    let policy = StealPolicy::StealKFirst { k: 3 };
    let (r, _) = edge_case(&inst, &SimConfig::new(2), policy, 7, "k-burn");
    assert_eq!(r.outcomes[0].start_round, 3);
    assert_eq!(r.outcomes[1].start_round, 3);
    assert_eq!(r.stats.steal_attempts, 6);
    // An arrival inside the burn caps the jump; a busy worker's completion
    // inside it does too, and its idle peers keep burning through it.
    let inst = Instance::new(vec![
        Job::new(0, 0, Arc::new(shapes::single_node(4))),
        Job::new(1, 2, Arc::new(shapes::single_node(1))),
        Job::new(2, 2, Arc::new(shapes::single_node(9))),
    ]);
    for m in [1usize, 2, 3] {
        for k in [2u32, 5, 16] {
            let policy = StealPolicy::StealKFirst { k };
            edge_case(&inst, &SimConfig::new(m), policy, 7, "k-burn capped");
            edge_case(
                &inst,
                &SimConfig::new(m).with_victim_scan(),
                policy,
                7,
                "k-burn scan",
            );
        }
    }
}

#[test]
fn edge_traced_k_burn_is_one_span_of_misses() {
    use parflow::core::{Action, TraceSpan};
    // Unit-step steal-3-first, two workers, three queued jobs and nothing
    // stealable. Both workers burn rounds 0..3 and admit jobs 0 and 1 in
    // round 3; job 1 ends in round 4, and worker 1 burns rounds 5..8
    // beside the busy worker 0 before admitting job 2. The traced run
    // takes both burn jumps: each window is one span of its row, idlers
    // missing, and the schedule certifies clean.
    let inst = Instance::new(vec![
        Job::new(0, 0, Arc::new(shapes::single_node(8))),
        Job::new(1, 0, Arc::new(shapes::single_node(2))),
        Job::new(2, 0, Arc::new(shapes::single_node(2))),
    ]);
    let policy = StealPolicy::StealKFirst { k: 3 };
    let (r, t) = edge_case(&inst, &SimConfig::new(2), policy, 7, "traced k-burn");
    let miss = Action::Steal { hit: false };
    let on = |job| Action::Work { job, node: 0 };
    let busy = |row: Vec<Action>, rounds| TraceSpan::Busy { row, rounds };
    assert_eq!(
        t.spans,
        vec![
            busy(vec![miss, miss], 3),
            busy(vec![on(0), on(1)], 2),
            busy(vec![on(0), miss], 3),
            busy(vec![on(0), on(2)], 2),
            busy(vec![on(0), miss], 1),
        ]
    );
    assert_eq!(r.outcomes[2].start_round, 8);
    assert_eq!(r.stats.steal_attempts, 10);
}

#[test]
fn edge_idle_locked_round_records_the_idlers_misses() {
    use parflow::core::{Action, TraceSpan};
    // A chain of two 3-unit nodes on two unit-step workers. Worker 1 is
    // locked out while worker 0 runs each node (nothing stealable, the
    // queue empty), also in the completion rounds 2 and 5, where only
    // worker 0 is visited: worker 1's row there is still a failed steal.
    let inst = one_job(shapes::chain(2, 3));
    let (r, t) = edge_case(
        &inst,
        &SimConfig::new(2),
        StealPolicy::AdmitFirst,
        7,
        "idle-locked round",
    );
    let row = |node| vec![Action::Work { job: 0, node }, Action::Steal { hit: false }];
    let busy = |row, rounds| TraceSpan::Busy { row, rounds };
    assert_eq!(t.spans, vec![busy(row(0), 3), busy(row(1), 3)]);
    assert_eq!(r.stats.steal_attempts, 6);
}

#[test]
fn edge_steal_half_refills_the_thiefs_deque_mid_round() {
    use parflow::core::Action;
    // Worker 0 holds 16 chunks after round 0. In round 1 worker 1 takes
    // the top half — one to run, the rest onto its own deque — so a
    // higher-indexed thief can already hit worker 1 in the same round.
    let inst = one_job(shapes::diamond(16, 8));
    let mut two_hits_in_a_round = false;
    for seed in 0..8 {
        for cfg in [
            SimConfig::new(4).with_half_steals(),
            SimConfig::new(4).with_half_steals().with_free_steals(),
            SimConfig::new(4).with_half_steals().with_victim_scan(),
        ] {
            let (r, t) = edge_case(&inst, &cfg, StealPolicy::AdmitFirst, seed, "steal-half");
            assert_eq!(r.stats.work_steps, inst.total_work());
            two_hits_in_a_round |= t.to_dense().iter().any(|row| {
                row.iter()
                    .filter(|a| **a == Action::Steal { hit: true })
                    .count()
                    >= 2
            });
        }
    }
    assert!(two_hits_in_a_round);
}

#[test]
fn edge_by_weight_admission_pops_the_heaviest_queued_job() {
    let inst = Instance::new(vec![
        Job::weighted(0, 0, 1, Arc::new(shapes::single_node(3))),
        Job::weighted(1, 0, 100, Arc::new(shapes::single_node(3))),
        Job::weighted(2, 0, 10, Arc::new(shapes::single_node(3))),
        Job::weighted(3, 1, 100, Arc::new(shapes::single_node(3))),
    ]);
    for cfg in [
        SimConfig::new(1).with_weighted_admission(),
        SimConfig::new(1)
            .with_weighted_admission()
            .with_free_steals(),
    ] {
        let (r, _) = edge_case(&inst, &cfg, StealPolicy::AdmitFirst, 3, "by-weight");
        // 100 (older first), 100, 10, 1.
        let order = |j: usize| r.outcomes[j].start_round;
        assert!(order(1) < order(3) && order(3) < order(2) && order(2) < order(0));
    }
}

#[test]
fn edge_single_worker_never_steals_successfully() {
    // m = 1: every steal attempt misses without consuming a draw; the
    // k-burn lockout applies with nobody busy at all.
    let inst = gen_instance(0x51, 10, 30);
    for cfg in [
        SimConfig::new(1),
        SimConfig::new(1).with_free_steals(),
        SimConfig::new(1).with_victim_scan().with_half_steals(),
    ] {
        for k in [0u32, 2, 16] {
            let policy = if k == 0 {
                StealPolicy::AdmitFirst
            } else {
                StealPolicy::StealKFirst { k }
            };
            let (r, _) = edge_case(&inst, &cfg, policy, 5, "m = 1");
            assert_eq!(r.stats.successful_steals, 0);
            assert_eq!(r.stats.work_steps, inst.total_work());
        }
    }
}

#[test]
fn edge_own_deque_refilled_at_round_end_is_popped_next_round() {
    use parflow::core::Action;
    // A chain on one worker: each node's successor is published at the
    // end of the completion round and popped in the very next one, so the
    // worker works in every round.
    let inst = one_job(shapes::chain(3, 2));
    for cfg in [SimConfig::new(1), SimConfig::new(1).with_free_steals()] {
        let (r, t) = edge_case(&inst, &cfg, StealPolicy::AdmitFirst, 2, "own-deque refill");
        assert_eq!(r.outcomes[0].completion_round, 5);
        assert!(t
            .to_dense()
            .iter()
            .all(|row| matches!(row[0], Action::Work { .. })));
    }
}

// Named regressions for the fault events and masks: each pins what the
// per-round loop does at one edge the event form has to reproduce.

use parflow::core::{Action, FaultKind, JobStatus, PanicSampler};

fn kinds(r: &parflow::core::SimResult) -> Vec<(u64, Option<usize>, FaultKind)> {
    r.fault_events
        .iter()
        .map(|e| (e.round, e.worker, e.kind))
        .collect()
}

#[test]
fn edge_crash_mid_node_the_adopter_resumes_the_remainder() {
    // Worker 0 admits a 10-unit node and runs 4 units; it dies at the start
    // of round 4 and worker 1 adopts the node there, running the 6 left.
    let inst = one_job(shapes::single_node(10));
    for cfg in [SimConfig::new(2), SimConfig::new(2).with_free_steals()] {
        let cfg = cfg.with_faults(FaultPlan::none().crash(0, 4));
        let (r, t) = edge_case(&inst, &cfg, StealPolicy::AdmitFirst, 5, "crash mid-node");
        assert_eq!(r.outcomes[0].completion_round, 9);
        assert_eq!((r.stats.work_steps, r.stats.reinjected_tasks), (10, 1));
        let rows = t.to_dense();
        assert_eq!(rows[3][0], Action::Work { job: 0, node: 0 });
        assert_eq!((rows[4][0], rows[4][1]), (Action::Idle, rows[3][0]));
    }
}

#[test]
fn edge_crash_while_idle_reinjects_nothing() {
    let inst = one_job(shapes::single_node(10));
    let cfg = SimConfig::new(2).with_faults(FaultPlan::none().crash(1, 3));
    let (r, _) = edge_case(&inst, &cfg, StealPolicy::AdmitFirst, 5, "crash idle");
    assert_eq!(kinds(&r), [(3, Some(1), FaultKind::Crash)]);
    assert_eq!(r.stats.reinjected_tasks, 0);
}

#[test]
fn edge_crash_in_a_quiescent_gap_fires_on_time() {
    let inst = Instance::new(vec![
        Job::new(0, 0, Arc::new(shapes::single_node(2))),
        Job::new(1, 1000, Arc::new(shapes::parallel_for(12, 3))),
    ]);
    for k in [0u32, 3] {
        let policy = StealPolicy::StealKFirst { k };
        let cfg = SimConfig::new(3).with_faults(FaultPlan::none().crash(1, 50));
        let (r, _) = edge_case(&inst, &cfg, policy, 1, "crash in gap");
        assert_eq!(kinds(&r), [(50, Some(1), FaultKind::Crash)]);
    }
}

#[test]
fn edge_stall_covering_a_completion_round_postpones_it() {
    // Rounds 0–2 run, 3–7 are stalled, 8–10 finish the 6-unit node.
    let inst = one_job(shapes::single_node(6));
    let cfg = SimConfig::new(1).with_faults(FaultPlan::none().stall(0, 3, 5));
    let (r, _) = edge_case(
        &inst,
        &cfg,
        StealPolicy::AdmitFirst,
        2,
        "stall over completion",
    );
    assert_eq!(r.outcomes[0].completion_round, 10);
    let want = [
        (3, Some(0), FaultKind::StallBegin),
        (8, Some(0), FaultKind::StallEnd),
    ];
    assert_eq!(kinds(&r), want);
    assert_eq!(r.stats.faulted_steps, 5);
}

#[test]
fn edge_stall_inside_a_quiescent_gap_emits_nothing() {
    let inst = Instance::new(vec![
        Job::new(0, 0, Arc::new(shapes::single_node(2))),
        Job::new(1, 1000, Arc::new(shapes::single_node(300))),
    ]);
    // [100, 150) lies wholly in the gap; [900, 1100) begins in it, so its
    // first explicit round, the arrival, sees it begin.
    let plan = FaultPlan::none().stall(0, 100, 50).stall(1, 900, 200);
    let cfg = SimConfig::new(2).with_faults(plan);
    let (r, _) = edge_case(&inst, &cfg, StealPolicy::AdmitFirst, 4, "stall in gap");
    let want = [
        (1000, Some(1), FaultKind::StallBegin),
        (1100, Some(1), FaultKind::StallEnd),
    ];
    assert_eq!(kinds(&r), want);
    assert_eq!(r.stats.faulted_steps, 100);
}

#[test]
fn edge_slowed_worker_burns_its_k_misses_in_its_own_rounds() {
    // Unit-step steal-4-first: worker 0 misses rounds 0–3 and admits in 4;
    // worker 1 runs at 1/3 and misses in its open rounds 2, 5, 8, 11, so
    // it admits in 14.
    let inst = Instance::new(
        (0..3)
            .map(|i| Job::new(i, 0, Arc::new(shapes::single_node(50))))
            .collect(),
    );
    let cfg = SimConfig::new(2).with_faults(FaultPlan::none().slowdown(1, 333_334));
    let policy = StealPolicy::StealKFirst { k: 4 };
    let (r, _) = edge_case(&inst, &cfg, policy, 6, "slow k-burn");
    assert_eq!(
        (r.outcomes[0].start_round, r.outcomes[1].start_round),
        (4, 14)
    );
}

#[test]
fn edge_blackholed_sole_victim_never_yields() {
    let inst = one_job(shapes::diamond(12, 3));
    for cfg in [SimConfig::new(3), SimConfig::new(3).with_free_steals()] {
        let cfg = cfg.with_faults(FaultPlan::none().blackhole(0));
        let (r, _) = edge_case(&inst, &cfg, StealPolicy::AdmitFirst, 8, "blackhole");
        assert_eq!(r.stats.successful_steals, 0);
        assert!(r.stats.steal_attempts > 0);
        assert_eq!(r.outcomes[0].completion_round + 1, inst.total_work());
    }
}

#[test]
fn edge_panic_purges_holders_on_both_sides_mid_round() {
    // source → (5, 9, 9) → sink on three workers with free steals: in
    // round 1 worker 0 pops the last 9, workers 1 and 2 steal the 5 and the
    // other 9. The 5 completes and panics in round 5, while worker 0 (lower
    // index) has run its node that round and worker 2 (higher) has not yet
    // — so worker 2 acts afresh in round 5 and admits the job arriving then.
    let mut b = DagBuilder::new();
    let src = b.add_node(1);
    let sink = b.add_node(1);
    let kids = [5, 9, 9].map(|w| b.add_node(w));
    for k in kids {
        b.add_edge(src, k).unwrap();
        b.add_edge(k, sink).unwrap();
    }
    let inst = Instance::new(vec![
        Job::new(0, 0, Arc::new(b.build().unwrap())),
        Job::new(1, 5, Arc::new(shapes::single_node(3))),
    ]);
    let seed = (0u64..)
        .find(|&s| {
            let sampler = PanicSampler::new(s, PPM / 2);
            sampler.should_panic(0, kids[0])
                && !sampler.should_panic(0, src)
                && !(0..3).any(|n| sampler.should_panic(1, n))
        })
        .unwrap();
    let cfg = SimConfig::new(3)
        .with_free_steals()
        .with_faults(FaultPlan::none().with_panic_ppm(PPM / 2));
    let (r, t) = edge_case(
        &inst,
        &cfg,
        StealPolicy::AdmitFirst,
        seed,
        "panic both sides",
    );
    assert_eq!(kinds(&r), [(5, Some(1), FaultKind::TaskPanic)]);
    assert_eq!(r.outcomes[0].status, JobStatus::Failed);
    // 1 + 5 + 5 (worker 0 through round 5) + 4 (worker 2 through round 4),
    // then job 1's 3.
    assert_eq!(r.stats.work_steps, 15 + 3);
    let row = &t.to_dense()[5];
    assert_eq!(
        row[0],
        Action::Work {
            job: 0,
            node: kids[2]
        }
    );
    assert_eq!(row[2], Action::Work { job: 1, node: 0 });
    assert_eq!(r.outcomes[1].start_round, 5);
}

/// The Figure 2 regime (loaded machine, long busy stretches, frequent
/// steals): paper workloads at 75 % and 90 % utilization.
#[test]
fn stepper_matches_reference_on_paper_workloads() {
    use parflow::workloads::qps_for_utilization;
    for (dist, util, m) in [
        (DistKind::Bing, 0.75, 16usize),
        (DistKind::Finance, 0.9, 16),
        (DistKind::LogNormal, 0.75, 4),
        (DistKind::Bing, 0.5, 48),
    ] {
        let qps = qps_for_utilization(dist, m, util);
        let inst = WorkloadSpec::paper_fig2(dist, qps, 300, 0xF162).generate();
        for free in [true, false] {
            for k in [0u32, 16] {
                let mut cfg = SimConfig::new(m).with_sampling(7);
                if free {
                    cfg = cfg.with_free_steals();
                }
                let policy = if k == 0 {
                    StealPolicy::AdmitFirst
                } else {
                    StealPolicy::StealKFirst { k }
                };
                let name = format!("{dist:?} util {util} m {m} free {free} k {k}");
                assert_stepper_matches_reference(&inst, &cfg, policy, 77, &name);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random instances × random specs (incl. fractional speeds).
    #[test]
    fn stepper_matches_reference_on_random_specs(
        inst in arb_instance(), spec in arb_replica_spec()
    ) {
        assert_stepper_matches_reference(&inst, &spec.config, spec.policy, spec.seed, "random");
    }

    /// Machines wider than one bitset word, mostly idle.
    #[test]
    fn stepper_matches_reference_on_wide_machines(
        inst in arb_instance(),
        spec in arb_replica_spec(),
        m in prop_oneof![Just(63usize), Just(64usize), Just(65usize), Just(130usize), Just(256usize)]
    ) {
        let mut cfg = spec.config.clone();
        cfg.m = m;
        assert_stepper_matches_reference(&inst, &cfg, spec.policy, spec.seed, "wide");
    }
}

// ---------------------------------------------------------------------------
// Replica-driver differentials: `run_batched` runs its replicas one after
// another through the event-driven stepper on one shared, per-replica
// reset set of buffers. Replica by replica it must be bit-identical to the
// per-round reference loop (`run_worksteal` is the same stepper on fresh
// buffers, so comparing against it alone would compare a path with itself).
// ---------------------------------------------------------------------------

use parflow::core::{run_batched, run_worksteal, ReplicaSpec};

/// A random work-stealing replica spec: config knobs that all interact
/// with the stepper's jumps (steal cost, victim strategy, steal amount,
/// admission order, sampling cadence, trace recording) plus policy + seed.
fn arb_replica_spec() -> impl Strategy<Value = ReplicaSpec> {
    (
        1usize..6, // m
        arb_speed(),
        0u32..5,       // k (0 = admit-first)
        any::<bool>(), // free steals
        any::<bool>(), // round-robin scan victims
        any::<bool>(), // half steals
        any::<bool>(), // weighted admission
        0u64..4,       // sample_every (0 = off)
        any::<bool>(), // record trace
        any::<u64>(),  // rng seed
        0..FAULT_AXIS, // fault plan
    )
        .prop_map(
            |(m, speed, k, free, scan, half, weighted, sample, traced, seed, fault)| {
                let mut cfg = SimConfig::new(m)
                    .with_speed(speed)
                    .with_faults(fault_plan(fault, m));
                if free {
                    cfg = cfg.with_free_steals();
                }
                if scan {
                    cfg = cfg.with_victim_scan();
                }
                if half {
                    cfg = cfg.with_half_steals();
                }
                if weighted {
                    cfg = cfg.with_weighted_admission();
                }
                if sample > 0 {
                    cfg = cfg.with_sampling(sample);
                }
                if traced {
                    cfg = cfg.with_trace();
                }
                let policy = if k == 0 {
                    StealPolicy::AdmitFirst
                } else {
                    StealPolicy::StealKFirst { k }
                };
                ReplicaSpec::new(cfg, policy, seed)
            },
        )
}

/// Assert every replica of one driver call matches the per-round reference
/// bit-for-bit, including the trace.
fn assert_batch_identical(inst: &Instance, specs: &[ReplicaSpec]) {
    let batched = run_batched(inst, specs, 1);
    assert_eq!(batched.len(), specs.len());
    for (i, (spec, (result, trace))) in specs.iter().zip(&batched).enumerate() {
        let (want_result, want_trace) = run_worksteal_reference(
            inst,
            &spec.config,
            spec.policy,
            spec.seed,
            &mut NullRecorder,
        );
        assert_eq!(*result, want_result, "replica {i}: result");
        assert_eq!(*trace, want_trace, "replica {i}: trace");
        if let Some(t) = trace.as_ref().filter(|_| spec.config.faults.is_empty()) {
            assert_eq!(t.validate(inst), Ok(()), "replica {i}: trace validity");
            let report =
                parflow_certify::certify_run(inst, &spec.config, Some(spec.policy), result, t);
            assert!(report.is_clean(), "replica {i}: {}", report.render());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn batched_mixed_config_replicas_are_bit_identical(
        inst in arb_instance(),
        specs in proptest::collection::vec(arb_replica_spec(), 1..8)
    ) {
        assert_batch_identical(&inst, &specs);
    }

    #[test]
    fn batched_same_config_seed_sweep_is_bit_identical(
        inst in arb_instance(), spec in arb_replica_spec(), seed0 in any::<u64>()
    ) {
        // The bench drivers' shape: one config, many seeds.
        let specs: Vec<ReplicaSpec> = (0..7)
            .map(|i| ReplicaSpec::new(spec.config.clone(), spec.policy, seed0 ^ (i + 1)))
            .collect();
        assert_batch_identical(&inst, &specs);
    }
}

proptest! {
    // Giant-m runs are slower per case; fewer cases keep the suite quick.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batched_giant_m_256_is_bit_identical(
        inst in arb_instance(), seed in any::<u64>(), k in 0u32..20, traced in any::<bool>()
    ) {
        let mut cfg = SimConfig::new(256);
        if traced {
            cfg = cfg.with_trace();
        }
        let policy = if k == 0 {
            StealPolicy::AdmitFirst
        } else {
            StealPolicy::StealKFirst { k }
        };
        assert_batch_identical(&inst, &[ReplicaSpec::new(cfg, policy, seed)]);
    }
}

/// Storage-reuse isolation: a wide traced half-steal replica, then a
/// narrow scan-victim one, then the wide one again, all on the buffers of
/// one driver call. Columns shrink from 256 workers to 2 and grow back,
/// the slab and arena are recycled twice, and each run must still equal
/// the same spec on fresh buffers.
#[test]
fn batched_storage_reuse_leaks_nothing_between_replicas() {
    let inst = gen_instance(0x1501A7E, 13, 25);
    let wide = ReplicaSpec::new(
        SimConfig::new(256).with_half_steals().with_trace(),
        StealPolicy::StealKFirst { k: 4 },
        0xAB,
    );
    let narrow = ReplicaSpec::new(
        SimConfig::new(2).with_victim_scan().with_sampling(3),
        StealPolicy::StealKFirst { k: 2 },
        0xCD,
    );
    let specs = [wide.clone(), narrow, wide];
    let batched = run_batched(&inst, &specs, 1);
    for (i, (spec, got)) in specs.iter().zip(&batched).enumerate() {
        let fresh = run_worksteal(&inst, &spec.config, spec.policy, spec.seed);
        assert_eq!(*got, fresh, "replica {i}");
    }
    assert_eq!(batched[0], batched[2]);
    assert!(batched[0].1.is_some() && batched[1].1.is_none());
    assert!(!batched[1].0.samples.is_empty());
    // The reference agrees too, so "equal to fresh" is not two wrongs.
    assert_batch_identical(&inst, &specs);
}

/// Satellite regression: the admit-first (`ws_admit`) free-steal
/// configuration counts `2m` bounded steal attempts per idle worker per
/// round; the driver must report per-replica `steal_attempts` (and every
/// other counter) identical to the per-round reference.
#[test]
fn ws_admit_steal_attempts_match_reference_exactly() {
    let jobs = vec![
        Job::new(0, 0, Arc::new(shapes::parallel_for(24, 6))),
        Job::new(1, 4, Arc::new(shapes::chain(3, 5))),
        Job::new(2, 4, Arc::new(shapes::single_node(9))),
        Job::new(3, 90, Arc::new(shapes::fork_join(3, 2))),
    ];
    let inst = Instance::new(jobs);
    let cfg = SimConfig::new(4).with_free_steals();
    let specs: Vec<ReplicaSpec> = (0..3)
        .map(|i| ReplicaSpec::new(cfg.clone(), StealPolicy::AdmitFirst, 0x5eed ^ i))
        .collect();
    assert_batch_identical(&inst, &specs);
    // Pin the absolute value so both loops regressing together still
    // trips the test (seed 0x5eed, the exact stream the goldens freeze).
    let batched = run_batched(&inst, &specs, 1);
    assert_eq!(batched[0].0.stats.steal_attempts, 354);
}
