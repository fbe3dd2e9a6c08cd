//! Differential proof of the arena-backed cursor storage.
//!
//! PR 4 moved both engines' per-job `DagCursor` state into a recycled
//! [`CursorArena`]: slots are allocated at arrival/admission and released
//! at completion, so a slot that served one job is handed — buffers and
//! all — to a later arrival. These tests pin that the recycling is
//! observationally invisible:
//!
//! * the arena-backed `run_priority` stays bit-identical (outcomes, stats,
//!   rounds, full `ScheduleTrace`) to `run_priority_reference`, which still
//!   constructs a fresh non-arena `DagCursor` per job;
//! * arbitrary interleavings of arena alloc/release against live cursor
//!   stepping behave exactly like fresh `DagCursor`s driven in lockstep;
//! * the work-stealing engine (same arena plumbing) stays deterministic
//!   with recycling in the loop — its absolute values are pinned
//!   separately by `tests/golden.rs`.

use parflow::core::{
    run_priority, run_priority_reference, run_worksteal, BiggestWeightFirst, Fifo, JobPriority,
    SimConfig, StealPolicy,
};
use parflow::prelude::*;
use parflow_dag::{CursorArena, DagCursor, JobDag, UnitOutcome};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Instances biased toward heavy slot recycling: few processors relative
/// to job count and spread-out arrivals, so jobs continually complete
/// (releasing their arena slot) while later jobs arrive into the freed
/// slots — the interleaved arrival/completion pattern the arena must
/// survive.
fn arb_recycling_instance() -> impl Strategy<Value = Instance> {
    (any::<u64>(), 4usize..20, 0u64..120).prop_map(|(seed, njobs, spread)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let jobs = (0..njobs)
            .map(|i| {
                let arrival = if spread == 0 {
                    0
                } else {
                    rng.gen_range(0..=spread)
                };
                let dag = match rng.gen_range(0..5u8) {
                    0 => shapes::single_node(rng.gen_range(1..20)),
                    1 => shapes::chain(rng.gen_range(1..6), rng.gen_range(1..5)),
                    2 => shapes::parallel_for(rng.gen_range(1..30), rng.gen_range(1..8)),
                    3 => shapes::fork_join(rng.gen_range(0..4), rng.gen_range(1..4)),
                    _ => shapes::layered_random(&mut rng, shapes::LayeredParams::default()),
                };
                let weight = rng.gen_range(1..10u64);
                Job::weighted(i as u32, arrival, weight, Arc::new(dag))
            })
            .collect();
        Instance::new(jobs)
    })
}

fn assert_identical<P: JobPriority>(inst: &Instance, cfg: &SimConfig, policy: &P, name: &str) {
    let (fast, fast_trace) = run_priority(inst, cfg, policy);
    let (slow, slow_trace) = run_priority_reference(inst, cfg, policy);
    assert_eq!(fast.total_rounds, slow.total_rounds, "{name}: total_rounds");
    assert_eq!(fast.outcomes, slow.outcomes, "{name}: outcomes");
    assert_eq!(fast.stats, slow.stats, "{name}: stats");
    match (fast_trace, slow_trace) {
        (None, None) => {}
        (Some(f), Some(s)) => {
            assert_eq!(f, s, "{name}: trace");
            assert_eq!(f.validate(inst), Ok(()), "{name}: trace validity");
        }
        _ => panic!("{name}: trace presence mismatch"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arena-backed centralized engine vs the per-job-cursor reference,
    /// with the trace recorded: recycling must not shift a single action.
    #[test]
    fn arena_engine_matches_reference_with_trace(
        inst in arb_recycling_instance(),
        m in 1usize..5
    ) {
        let cfg = SimConfig::new(m).with_trace();
        assert_identical(&inst, &cfg, &Fifo, "fifo");
        assert_identical(&inst, &cfg, &BiggestWeightFirst, "bwf");
    }

    /// Same, at augmented speeds (bulk windows shrink and grow) without
    /// the trace, which exercises the non-traced release path.
    #[test]
    fn arena_engine_matches_reference_across_speeds(
        inst in arb_recycling_instance(),
        m in 1usize..5,
        num in 1u64..4
    ) {
        let cfg = SimConfig::new(m).with_speed(Speed::new(num + 1, num.min(2)));
        assert_identical(&inst, &cfg, &Fifo, "fifo-speed");
    }

    /// The work-stealing engine with arena recycling in the loop is still
    /// a pure function of (instance, config, policy, seed): two runs agree
    /// on everything including the trace. Absolute output values are
    /// pinned against the pre-arena engine by tests/golden.rs.
    #[test]
    fn worksteal_arena_runs_are_reproducible(
        inst in arb_recycling_instance(),
        m in 1usize..4,
        seed in any::<u64>()
    ) {
        let cfg = SimConfig::new(m).with_free_steals().with_trace();
        let policy = StealPolicy::StealKFirst { k: 4 };
        let (a, ta) = run_worksteal(&inst, &cfg, policy, seed);
        let (b, tb) = run_worksteal(&inst, &cfg, policy, seed);
        prop_assert_eq!(a.outcomes, b.outcomes);
        prop_assert_eq!(a.stats, b.stats);
        prop_assert_eq!(a.total_rounds, b.total_rounds);
        prop_assert_eq!(ta, tb);
    }

    /// Drive an arena slot and a fresh cursor in lockstep through random
    /// greedy executions with arbitrary alloc/release interleavings in
    /// between: a recycled slot must be indistinguishable from a fresh
    /// `DagCursor` at every step.
    #[test]
    fn recycled_slots_track_fresh_cursors(seed in any::<u64>(), rounds in 1usize..12) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut arena = CursorArena::new();
        for _ in 0..rounds {
            let dag: JobDag = match rng.gen_range(0..4u8) {
                0 => shapes::single_node(rng.gen_range(1..10)),
                1 => shapes::chain(rng.gen_range(1..5), rng.gen_range(1..4)),
                2 => shapes::parallel_for(rng.gen_range(1..25), rng.gen_range(1..7)),
                _ => shapes::fork_join(rng.gen_range(0..3), rng.gen_range(1..4)),
            };
            let id = arena.alloc(&dag);
            let mut fresh = DagCursor::new(&dag);
            // Greedy random execution, possibly abandoned partway (the
            // slot is released mid-flight, like a failed job).
            let abandon = rng.gen_bool(0.3);
            let stop_after = rng.gen_range(0..=dag.total_work());
            let mut units = 0u64;
            while !fresh.is_complete() {
                if abandon && units >= stop_after {
                    break;
                }
                let pick = rng.gen_range(0..fresh.ready_count());
                let v = fresh.ready_nodes()[pick];
                prop_assert_eq!(arena.get(id).ready_nodes(), fresh.ready_nodes());
                fresh.claim(v).unwrap();
                arena.get_mut(id).claim(v).unwrap();
                loop {
                    units += 1;
                    let a = arena.get_mut(id).execute_unit(&dag, v).unwrap();
                    let f = fresh.execute_unit(&dag, v).unwrap();
                    prop_assert_eq!(&a, &f);
                    if matches!(f, UnitOutcome::NodeCompleted { .. }) {
                        break;
                    }
                }
                prop_assert_eq!(arena.get(id).executed_units(), fresh.executed_units());
            }
            prop_assert_eq!(arena.get(id).is_complete(), fresh.is_complete());
            prop_assert_eq!(arena.get(id).completed_nodes(), fresh.completed_nodes());
            arena.release(id);
        }
        // The pool never grew past one slot: every iteration recycled.
        prop_assert_eq!(arena.capacity(), 1);
    }
}
