//! Golden regression tests: exact outputs pinned for fixed seeds.
//!
//! Every engine in this workspace is bit-deterministic given its inputs;
//! these tests freeze that behaviour so refactors cannot silently change
//! schedules. If a change *intentionally* alters scheduling behaviour,
//! update the constants here and say so in the commit message.
//!
//! Constants re-frozen 2026-08: the original pinned values predate the
//! first successful build of this workspace and did not correspond to any
//! runnable RNG stream. The current values were produced by a rand-0.8.5
//! compatible `SmallRng` (xoshiro256++ / SplitMix64 seeding) validated
//! against the official xoshiro reference vectors
//! (`vendor/offline-stubs/rand/tests/reference.rs`).

use parflow::core::SchedulerKind;
use parflow::prelude::*;

fn golden_instance() -> Instance {
    WorkloadSpec::paper_fig2(DistKind::Bing, 600.0, 500, 0xC0FFEE).generate()
}

#[test]
fn workload_generation_is_frozen() {
    let inst = golden_instance();
    assert_eq!(inst.len(), 500);
    assert_eq!(inst.total_work(), 59_950);
    assert_eq!(inst.last_arrival(), 8_439);
    assert_eq!(inst.max_work(), 1_452);
    assert_eq!(inst.max_span(), 12);
}

#[test]
fn scheduler_outputs_are_frozen() {
    let inst = golden_instance();
    let cfg = SimConfig::new(8).with_free_steals();
    // (scheduler, expected max flow in ticks as (num, den))
    let expectations: &[(SchedulerKind, i128, i128)] = &[
        (SchedulerKind::Fifo, 345, 1),
        (SchedulerKind::Bwf, 345, 1),
        (SchedulerKind::Equi, 1_527, 1),
        (SchedulerKind::AdmitFirst, 1_305, 1),
        (SchedulerKind::StealKFirst(16), 467, 1),
    ];
    for &(kind, num, den) in expectations {
        let r = kind.run(&inst, &cfg, 12345).0;
        assert_eq!(
            r.max_flow(),
            Rational::new(num, den),
            "{kind} max flow drifted (got {})",
            r.max_flow()
        );
    }
}

#[test]
fn opt_bound_is_frozen() {
    let inst = golden_instance();
    assert_eq!(opt_max_flow(&inst, 8), Rational::from_int(336));
}

#[test]
fn lower_bound_instance_is_frozen() {
    let inst = lower_bound_instance(64, 40);
    let cfg = SimConfig::new(40);
    let r = simulate_worksteal(&inst, &cfg, StealPolicy::AdmitFirst, 99);
    // Deterministic for this seed: pinned exact value.
    assert_eq!(r.max_flow(), Rational::from_int(5));
    assert_eq!(r.stats.work_steps, inst.total_work());
}

/// FNV-1a over every field of every fault event, in order.
fn fault_digest(events: &[parflow::core::FaultEvent]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in events {
        let fields = [
            e.round,
            e.worker.map_or(u64::MAX, |w| w as u64),
            e.job.map_or(u64::MAX, u64::from),
            e.kind as u64,
            e.detail,
        ];
        for byte in fields.iter().flat_map(|f| f.to_le_bytes()) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Every fault kind at once on the golden instance: frozen at the commit
/// whose per-round loop still served faulted plans, so the event-driven
/// stepper that serves them now is held to that loop's exact schedule.
#[test]
fn faulted_outputs_are_frozen() {
    use parflow::core::FaultPlan;
    let inst = golden_instance();
    let plan = FaultPlan::none()
        .crash(3, 2_000)
        .slowdown(2, 500_000)
        .slowdown(5, 333_333)
        .stall(1, 1_000, 800)
        .stall(6, 5_000, 40)
        .blackhole(0)
        .with_panic_ppm(20_000);
    // (policy, free steals, max flow, total rounds, steal attempts, failed
    // jobs, fault-event digest)
    type Row = (StealPolicy, bool, i128, u64, u64, usize, u64);
    let expectations: &[Row] = &[
        (
            StealPolicy::AdmitFirst,
            false,
            961,
            8_567,
            5_627,
            110,
            0xaafe_5ad6_27b6_52db,
        ),
        (
            StealPolicy::StealKFirst { k: 16 },
            false,
            3_700,
            11_876,
            23_726,
            110,
            0xc9e2_9b47_6078_2119,
        ),
        (
            StealPolicy::AdmitFirst,
            true,
            1_419,
            8_541,
            85_025,
            110,
            0x5158_add3_f4f6_b6cc,
        ),
        (
            StealPolicy::StealKFirst { k: 16 },
            true,
            852,
            8_569,
            102_076,
            110,
            0xd8e5_f78a_5972_583e,
        ),
    ];
    for &(policy, free, flow, rounds, attempts, failed, digest) in expectations {
        let mut cfg = SimConfig::new(8).with_faults(plan.clone());
        if free {
            cfg = cfg.with_free_steals();
        }
        let r = simulate_worksteal(&inst, &cfg, policy, 4242);
        let got = (
            r.max_flow(),
            r.total_rounds,
            r.stats.steal_attempts,
            r.unfinished().len(),
            fault_digest(&r.fault_events),
        );
        assert_eq!(
            got,
            (Rational::from_int(flow), rounds, attempts, failed, digest),
            "{} free {free} drifted",
            policy.name()
        );
    }
}

#[test]
fn stats_are_frozen_for_ws() {
    let inst = golden_instance();
    let cfg = SimConfig::new(8);
    let r = simulate_worksteal(&inst, &cfg, StealPolicy::StealKFirst { k: 4 }, 777);
    assert_eq!(r.stats.work_steps, 59_950);
    assert_eq!(r.stats.admissions, 500);
    // Steal counters are part of the frozen behaviour too.
    assert_eq!(
        (r.stats.steal_attempts, r.stats.successful_steals),
        (9_650, 3_121),
        "steal accounting drifted: {:?}",
        r.stats
    );
}
