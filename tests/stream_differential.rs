//! Differential proof of the streaming engines and the incremental OPT
//! tracker.
//!
//! The O(active)-memory streaming paths (`run_worksteal_stream`,
//! `run_priority_stream`) retire completed jobs into a free-listed slab
//! instead of materializing the instance. Across random instances, for
//! **every prefix length n**, replaying the first n jobs through the
//! stream must be bit-identical to the materialized engine run on an
//! instance of those same n jobs — same stats, round count, outcomes,
//! backlog samples, max flow and schedule trace. The materialized side is
//! the per-round loop of each family, `run_worksteal_reference` and
//! `run_priority_reference`: `run_worksteal` and `run_priority` are
//! themselves the streaming steppers over a replay, so comparing against
//! them would compare a stepper with itself. Likewise the incremental
//! [`OptTracker`] must equal the batch lower bounds after every single
//! arrival. (The `u32` job-id boundary is a unit test of the core's
//! stream module, which can start ids near `u32::MAX`.)

use parflow::core::{
    combined_lower_bound, opt_flows, opt_max_flow, run_priority, run_priority_reference,
    run_priority_stream, run_worksteal, run_worksteal_reference, run_worksteal_stream,
    span_lower_bound, BiggestWeightFirst, FaultPlan, Fifo, InstanceReplay, JobPriority, JobStream,
    Lifo, OptTracker, ShortestJobFirst, SimConfig, StreamError, StreamedJob, PPM,
};
use parflow::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A random small instance of mixed DAG shapes and arrival patterns —
/// kept smaller than `engine_differential`'s generator because every case
/// here runs all n prefixes (O(n²) simulations per case).
fn arb_instance() -> impl Strategy<Value = Instance> {
    (any::<u64>(), 1usize..9, 0u64..50).prop_map(|(seed, njobs, spread)| {
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

/// The first `n` jobs of `inst` as a materialized instance. The jobs are
/// already arrival-sorted with dense ids, so `Instance::new` is an
/// identity re-wrap and the stream-assigned ids line up exactly.
fn prefix_instance(inst: &Instance, n: usize) -> Instance {
    Instance::new(inst.jobs()[..n].to_vec())
}

/// Stream the first `n` jobs through the work-stealing engine and assert
/// bit-identity with the materialized run of the same prefix.
fn assert_ws_prefix_identical(
    inst: &Instance,
    n: usize,
    cfg: &SimConfig,
    policy: StealPolicy,
    seed: u64,
) {
    let prefix = prefix_instance(inst, n);
    let (batch, batch_trace) =
        run_worksteal_reference(&prefix, cfg, policy, seed, &mut NullRecorder);
    // The materialized entry point collects the same run back into job order.
    assert_eq!(
        run_worksteal(&prefix, cfg, policy, seed),
        (batch.clone(), batch_trace.clone()),
        "prefix {n}: materialized"
    );
    let mut outs = Vec::new();
    let mut replay = InstanceReplay::prefix(inst, n);
    let (sum, trace) = run_worksteal_stream(&mut replay, cfg, policy, seed, &mut |o| {
        outs.push(o.clone())
    })
    .expect("replay of an instance is sorted and fault-free");
    assert_eq!(sum.jobs, n as u64, "prefix {n}: jobs");
    assert_eq!(sum.stats, batch.stats, "prefix {n}: stats");
    assert_eq!(sum.total_rounds, batch.total_rounds, "prefix {n}: rounds");
    assert_eq!(sum.max_flow, batch.max_flow(), "prefix {n}: max flow");
    assert_eq!(sum.samples, batch.samples, "prefix {n}: samples");
    // Outcomes reach the sink in completion order; compare keyed by id.
    outs.sort_by_key(|o| o.job);
    assert_eq!(outs, batch.outcomes, "prefix {n}: outcomes");
    assert_eq!(trace, batch_trace, "prefix {n}: trace");
    assert_eq!(
        sum.fault_events, batch.fault_events,
        "prefix {n}: fault events"
    );
    // All n jobs retired, and the slab never held more than the prefix.
    assert_eq!(sum.retire.jobs_retired, n as u64, "prefix {n}: retired");
    assert!(sum.retire.live_jobs_high_water <= n as u64, "prefix {n}");
    // The agreed-upon schedule must also satisfy the paper invariants
    // (P1–P5), machine-checked by the independent certifier.
    if let Some(t) = batch_trace.as_ref().filter(|_| cfg.faults.is_empty()) {
        let report = parflow_certify::certify_run(&prefix, cfg, Some(policy), &batch, t);
        assert!(report.is_clean(), "prefix {n}: {}", report.render());
    }
}

/// Same contract for the centralized streaming engine under `policy`.
fn assert_priority_prefix_identical<P: JobPriority>(
    inst: &Instance,
    n: usize,
    cfg: &SimConfig,
    policy: &P,
) {
    let name = policy.name();
    let prefix = prefix_instance(inst, n);
    let (batch, batch_trace) = run_priority_reference(&prefix, cfg, policy);
    // The materialized entry point collects the same run back into job order.
    assert_eq!(
        run_priority(&prefix, cfg, policy),
        (batch.clone(), batch_trace.clone()),
        "{name} prefix {n}: materialized"
    );
    let mut outs = Vec::new();
    let mut replay = InstanceReplay::prefix(inst, n);
    let (sum, trace) = run_priority_stream(
        &mut replay,
        cfg,
        policy,
        &mut |o| outs.push(o.clone()),
        &mut NullRecorder,
    )
    .expect("replay of an instance is sorted and fault-free");
    assert_eq!(sum.jobs, n as u64, "{name} prefix {n}: jobs");
    assert_eq!(sum.stats, batch.stats, "{name} prefix {n}: stats");
    assert_eq!(
        sum.total_rounds, batch.total_rounds,
        "{name} prefix {n}: rounds"
    );
    assert_eq!(
        sum.max_flow,
        batch.max_flow(),
        "{name} prefix {n}: max flow"
    );
    assert_eq!(sum.samples, batch.samples, "{name} prefix {n}: samples");
    outs.sort_by_key(|o| o.job);
    assert_eq!(outs, batch.outcomes, "{name} prefix {n}: outcomes");
    assert_eq!(trace, batch_trace, "{name} prefix {n}: trace");
    if let Some(t) = &batch_trace {
        let report = parflow_certify::certify_run(&prefix, cfg, None, &batch, t);
        assert!(report.is_clean(), "{name} prefix {n}: {}", report.render());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Work-stealing stream ≡ materialized run, for every prefix length.
    #[test]
    fn worksteal_stream_is_bit_identical_on_every_prefix(
        inst in arb_instance(),
        m in 1usize..5,
        k in 0u32..4,
        seed in any::<u64>(),
        traced in any::<bool>(),
        free in any::<bool>(),
        sample in 0u64..3
    ) {
        let mut cfg = SimConfig::new(m);
        if traced {
            cfg = cfg.with_trace();
        }
        if free {
            cfg = cfg.with_free_steals();
        }
        if sample > 0 {
            cfg = cfg.with_sampling(sample);
        }
        let policy = if k == 0 {
            StealPolicy::AdmitFirst
        } else {
            StealPolicy::StealKFirst { k }
        };
        for n in 1..=inst.len() {
            assert_ws_prefix_identical(&inst, n, &cfg, policy, seed);
        }
    }

    /// The same under faults: a crash, stalls, a slow worker, a blackhole
    /// and panics, alone and together — the stream runs the one stepper
    /// the materialized engine runs, and both match the per-round loop.
    #[test]
    fn faulted_worksteal_stream_is_bit_identical_on_every_prefix(
        inst in arb_instance(),
        m in 1usize..5,
        k in 0u32..4,
        seed in any::<u64>(),
        traced in any::<bool>(),
        free in any::<bool>(),
        kind in 0u8..6
    ) {
        let last = m - 1;
        let plan = match kind {
            0 if m > 1 => FaultPlan::none().crash(last, 7),
            0 | 1 => FaultPlan::none().stall(0, 4, 20).stall(last, 30, 3),
            2 => FaultPlan::none().slowdown(last, 333_333),
            3 => FaultPlan::none().blackhole(0).with_panic_ppm(100_000),
            4 => FaultPlan::none().with_panic_ppm(PPM),
            _ => FaultPlan::none().stall(0, 2, 9).slowdown(0, PPM / 2).with_panic_ppm(50_000),
        };
        let mut cfg = SimConfig::new(m).with_faults(plan);
        if traced {
            cfg = cfg.with_trace();
        }
        if free {
            cfg = cfg.with_free_steals();
        }
        let policy = if k == 0 {
            StealPolicy::AdmitFirst
        } else {
            StealPolicy::StealKFirst { k }
        };
        for n in 1..=inst.len() {
            assert_ws_prefix_identical(&inst, n, &cfg, policy, seed);
        }
    }

    /// Centralized stream ≡ materialized run, for every prefix length and
    /// all four priority policies, including fractional speed augmentation
    /// and backlog sampling.
    #[test]
    fn centralized_stream_is_bit_identical_on_every_prefix(
        inst in arb_instance(),
        m in 1usize..5,
        fast in any::<bool>(),
        sample in 0u64..3
    ) {
        let mut cfg = SimConfig::new(m).with_trace();
        if fast {
            cfg = cfg.with_speed(Speed::new(11, 10));
        }
        if sample > 0 {
            cfg = cfg.with_sampling(sample);
        }
        for n in 1..=inst.len() {
            assert_priority_prefix_identical(&inst, n, &cfg, &Fifo);
            assert_priority_prefix_identical(&inst, n, &cfg, &BiggestWeightFirst);
            assert_priority_prefix_identical(&inst, n, &cfg, &Lifo);
            assert_priority_prefix_identical(&inst, n, &cfg, &ShortestJobFirst);
        }
    }

    /// The incremental OPT tracker equals the batch lower bounds after
    /// EVERY arrival, and `on_arrival` returns exactly the per-job flow
    /// `opt_flows` would compute at that index.
    #[test]
    fn opt_tracker_matches_batch_after_every_arrival(
        inst in arb_instance(),
        m in 1usize..9
    ) {
        let mut tracker = OptTracker::new(m);
        let flows = opt_flows(&inst, m);
        for (i, job) in inst.jobs().iter().enumerate() {
            let flow = tracker.on_arrival(job.arrival, job.work(), job.span());
            assert_eq!(flow, flows[i], "arrival {i}: per-job OPT flow");
            let prefix = prefix_instance(&inst, i + 1);
            assert_eq!(
                tracker.opt_max_flow(),
                opt_max_flow(&prefix, m),
                "arrival {i}: opt_max_flow"
            );
            assert_eq!(
                tracker.span_lower_bound(),
                span_lower_bound(&prefix),
                "arrival {i}: span_lower_bound"
            );
            assert_eq!(
                tracker.combined_lower_bound(),
                combined_lower_bound(&prefix, m),
                "arrival {i}: combined_lower_bound"
            );
            assert_eq!(tracker.arrivals(), (i + 1) as u64);
        }
    }
}

/// An out-of-order stream is rejected with the offending pull index, not
/// simulated wrong.
#[test]
fn unsorted_stream_is_a_checked_error() {
    struct Unsorted(u32);
    impl parflow::core::JobStream for Unsorted {
        fn next_job(&mut self) -> Option<parflow::core::StreamedJob> {
            self.0 += 1;
            (self.0 <= 3).then(|| parflow::core::StreamedJob {
                // Arrivals 20, 10, ... — the second pull violates order.
                arrival: if self.0 == 1 { 20 } else { 10 },
                weight: 1,
                dag: Arc::new(shapes::single_node(2)),
            })
        }
    }
    let err = run_worksteal_stream(
        &mut Unsorted(0),
        &SimConfig::new(2),
        StealPolicy::AdmitFirst,
        1,
        &mut |_| {},
    )
    .expect_err("second job arrives before the first");
    assert_eq!(err, StreamError::UnsortedArrivals { index: 1 });
}

/// A weight-0 job is a typed error at the pull on both streaming entry
/// points, not `Job::weighted`'s assertion firing inside the engine loop.
#[test]
fn zero_weight_job_is_a_checked_error() {
    struct ThirdWeightless(u32);
    impl JobStream for ThirdWeightless {
        fn next_job(&mut self) -> Option<StreamedJob> {
            self.0 += 1;
            (self.0 <= 4).then(|| StreamedJob {
                arrival: 5 * self.0 as u64,
                weight: if self.0 == 3 { 0 } else { 1 },
                dag: Arc::new(shapes::single_node(2)),
            })
        }
    }
    let cfg = SimConfig::new(2);
    let err = run_worksteal_stream(
        &mut ThirdWeightless(0),
        &cfg,
        StealPolicy::AdmitFirst,
        1,
        &mut |_| {},
    )
    .expect_err("third job has weight 0");
    assert_eq!(err, StreamError::ZeroWeight { index: 2 });
    assert!(err.to_string().contains("weight 0"));
    let err = run_priority_stream(
        &mut ThirdWeightless(0),
        &cfg,
        &Fifo,
        &mut |_| {},
        &mut NullRecorder,
    )
    .expect_err("third job has weight 0");
    assert_eq!(err, StreamError::ZeroWeight { index: 2 });
}
