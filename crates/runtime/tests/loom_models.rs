//! Loom models of the executor's synchronization protocols.
//!
//! Each test is an executable translation of an invariant from the TLA+
//! `WorkStealing` specification (see `docs/STATIC_ANALYSIS.md` for the
//! full correspondence table):
//!
//! * **W1 (no lost tasks)** — every admitted task is executed or still
//!   queued: the injector admission model, the crash-purge/orphan model,
//!   and the terminal-state latch (a run is declared done only when every
//!   completion is visible);
//! * **W2 (no double execution)** — a task is executed by at most one
//!   worker: the steal-claim model and the absorbing terminal-state model
//!   (completed/aborted are set exactly once, never overwritten);
//! * **W6 (bounded stealing)** — steal-k-first admits after exactly `k`
//!   consecutive failed steal attempts, never more.
//!
//! One model has no TLA+ counterpart: the per-worker counter shards, whose
//! single-writer `Relaxed` load+store must lose no count and must never
//! show the watchdog a total that goes backwards.
//!
//! The models are deliberately small (loom explores every interleaving;
//! 2–3 threads is the tractable regime) and mirror the protocol shape of
//! `src/executor.rs` — the same atomics, the same orderings, the same
//! decision structure — not its full data plane.
//!
//! ## Two execution modes
//!
//! * `RUSTFLAGS="--cfg loom" cargo test -p parflow-runtime --test
//!   loom_models` — the real loom crate exhaustively model-checks every
//!   interleaving (CI's loom job; offline the loom stub stress-runs).
//! * plain `cargo test` — the inline harness below re-runs each model
//!   `STRESS_ITERS` times on std primitives, so the models are exercised
//!   on every tier-1 test run without any special flags.

#[cfg(loom)]
use loom::{
    model,
    sync::{
        atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering},
        Arc, Mutex,
    },
    thread,
};

#[cfg(not(loom))]
use std::{
    sync::{
        atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering},
        Arc, Mutex,
    },
    thread,
};

/// Iterations per model when running as a std stress test (plain
/// `cargo test`). Under loom this path is compiled out.
#[cfg(not(loom))]
const STRESS_ITERS: usize = 200;

/// Stand-in for `loom::model` on the std path: rerun the closure under
/// the OS scheduler. Assertion failures still fail the test; they just
/// lack loom's minimal-trace shrinking.
#[cfg(not(loom))]
fn model<F>(f: F)
where
    F: Fn() + Sync + Send + 'static,
{
    for _ in 0..STRESS_ITERS {
        f();
    }
}

/// Job terminal states, as in `JobStatus` (0 = running is the only
/// non-terminal state in these models).
const RUNNING: usize = 0;
const COMPLETED: usize = 1;
const ABORTED: usize = 2;

/// W1 — terminal-state latch: the worker that completes the last job
/// increments the completion counter *before* setting the `done` flag
/// (AcqRel increment, Release store), so any thread that observes
/// `done == true` (Acquire) also observes every completion.
///
/// This is the latch `Shared::completed` / `Shared::done` in
/// `src/executor.rs`: the run-loop exit and the final result assembly
/// both trust `done` to imply "all jobs accounted".
#[test]
fn terminal_latch_completion_visible() {
    model(|| {
        const TOTAL: usize = 2;
        let completed = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(AtomicBool::new(false));

        let workers: Vec<_> = (0..TOTAL)
            .map(|_| {
                let completed = completed.clone();
                let done = done.clone();
                thread::spawn(move || {
                    // Finish one job: count it, then latch if it was the last.
                    let now = completed.fetch_add(1, Ordering::AcqRel) + 1;
                    if now == TOTAL {
                        done.store(true, Ordering::Release);
                    }
                })
            })
            .collect();

        // Concurrent observer (the main thread): done implies every
        // completion is visible — the heart of the latch.
        if done.load(Ordering::Acquire) {
            assert_eq!(
                completed.load(Ordering::Acquire),
                TOTAL,
                "done observed before all completions were visible"
            );
        }

        for w in workers {
            w.join().unwrap();
        }
        assert!(done.load(Ordering::Acquire), "latch never fired");
        assert_eq!(completed.load(Ordering::Acquire), TOTAL);
    });
}

/// Regression pin for the latch ordering (satellite of
/// [`terminal_latch_completion_visible`]): a dedicated observer *thread*
/// races the final completion. If the `done` store were weakened to
/// `Relaxed` (or the counter increment to `Relaxed`), loom finds an
/// interleaving where the observer sees `done` without the final count;
/// this test pins the Release/Acquire pairing against that edit.
#[test]
fn regression_terminal_latch_release_acquire() {
    model(|| {
        const TOTAL: usize = 2;
        // One job already completed; the spawned worker finishes the last.
        let completed = Arc::new(AtomicUsize::new(TOTAL - 1));
        let done = Arc::new(AtomicBool::new(false));

        let worker = {
            let completed = completed.clone();
            let done = done.clone();
            thread::spawn(move || {
                let now = completed.fetch_add(1, Ordering::AcqRel) + 1;
                if now == TOTAL {
                    done.store(true, Ordering::Release);
                }
            })
        };
        let observer = {
            let completed = completed.clone();
            let done = done.clone();
            thread::spawn(move || {
                if done.load(Ordering::Acquire) {
                    assert_eq!(completed.load(Ordering::Acquire), TOTAL);
                }
            })
        };

        worker.join().unwrap();
        observer.join().unwrap();
    });
}

/// Counter shards: each worker counts into its own slot with a `Relaxed`
/// load followed by a `Relaxed` store — not an RMW — which is sound only
/// because the slot has a single writer. The watchdog sums the slots while
/// the owners are still counting; the run totals are the same sum taken
/// after the workers are joined.
///
/// Mirrors `WorkerCounters::add` / `Shared::totals` in `src/executor.rs`,
/// orderings included: a mid-run sum is a lower bound on the final one and
/// never decreases from one read to the next (so a stalled run cannot look
/// like progress, nor progress like a stall), and after `join` the sum is
/// exact — no increment is lost.
#[test]
fn counter_shards_monotone_sum_exact_total() {
    model(|| {
        const OWNERS: usize = 2;
        const BUMPS: u64 = 2;
        let slots: Arc<Vec<AtomicU64>> = Arc::new((0..OWNERS).map(|_| AtomicU64::new(0)).collect());
        let sum = |slots: &[AtomicU64]| {
            slots
                .iter()
                .fold(0u64, |t, c| t.saturating_add(c.load(Ordering::Relaxed)))
        };

        let owners: Vec<_> = (0..OWNERS)
            .map(|p| {
                let slots = slots.clone();
                thread::spawn(move || {
                    let mine = &slots[p];
                    for _ in 0..BUMPS {
                        mine.store(
                            mine.load(Ordering::Relaxed).saturating_add(1),
                            Ordering::Relaxed,
                        );
                    }
                })
            })
            .collect();

        // Concurrent observer (the watchdog): two snapshots in a row.
        let first = sum(&slots);
        let second = sum(&slots);
        assert!(first <= second, "a total went backwards");
        assert!(second <= OWNERS as u64 * BUMPS, "a total overshot");

        for o in owners {
            o.join().unwrap();
        }
        assert_eq!(sum(&slots), OWNERS as u64 * BUMPS, "an increment was lost");
    });
}

/// W1 — injector admission loses no tasks: both workers push their task
/// into the shared admission queue, then drain it to empty. Exclusive
/// pops mean every pushed task is executed exactly once, regardless of
/// which worker drains it.
///
/// Mirrors the admission path: the submitter pushes job ids into
/// `Shared::injector` (a `Mutex<VecDeque>`), workers pop until the latch
/// fires.
#[test]
fn injector_admission_no_lost_tasks() {
    model(|| {
        let injector: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let executed = Arc::new(AtomicUsize::new(0));

        let workers: Vec<_> = (0..2)
            .map(|id| {
                let injector = injector.clone();
                let executed = executed.clone();
                thread::spawn(move || {
                    injector.lock().unwrap().push(id);
                    // Drain until observed empty; each pop is exclusive.
                    loop {
                        let task = injector.lock().unwrap().pop();
                        match task {
                            Some(_) => {
                                executed.fetch_add(1, Ordering::AcqRel);
                            }
                            None => break,
                        }
                    }
                })
            })
            .collect();

        for w in workers {
            w.join().unwrap();
        }
        // No lost tasks, no duplicated tasks: exactly the 2 pushed.
        assert_eq!(executed.load(Ordering::Acquire), 2);
        assert!(injector.lock().unwrap().is_empty());
    });
}

/// W2 — no double execution: two thieves race to claim one task with a
/// compare-exchange; exactly one wins and executes it.
///
/// Mirrors the steal path: a chunk task is owned by whoever dequeues it,
/// and the claim is the CAS on `top` in `src/deque.rs` (a thief's
/// `Steal::Success`, or the owner's `pop` of the last task). The model
/// reduces that ownership transfer to its essential CAS; the deque's own
/// code is model-checked by the `loom_*` tests in `src/deque.rs`.
#[test]
fn steal_claim_single_winner() {
    model(|| {
        let claimed = Arc::new(AtomicBool::new(false));
        let executions = Arc::new(AtomicUsize::new(0));

        let thieves: Vec<_> = (0..2)
            .map(|_| {
                let claimed = claimed.clone();
                let executions = executions.clone();
                thread::spawn(move || {
                    if claimed
                        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        executions.fetch_add(1, Ordering::AcqRel);
                    }
                })
            })
            .collect();

        for t in thieves {
            t.join().unwrap();
        }
        assert_eq!(
            executions.load(Ordering::Acquire),
            1,
            "a task must be executed by exactly one worker"
        );
    });
}

/// W2 — terminal states are absorbing: a job's completion (worker) and
/// abort (watchdog) race through compare-exchange from RUNNING; exactly
/// one terminal state wins and is never overwritten.
///
/// Mirrors the `JobStatus` latch in `src/task.rs`: `finish_chunk` /
/// `fail` / the watchdog's abort sweep all CAS from the running state,
/// so a completed job can never be re-marked aborted (and vice versa).
#[test]
fn terminal_state_absorbing() {
    model(|| {
        let status = Arc::new(AtomicUsize::new(RUNNING));

        let worker = {
            let status = status.clone();
            thread::spawn(move || {
                status
                    .compare_exchange(RUNNING, COMPLETED, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            })
        };
        let watchdog = {
            let status = status.clone();
            thread::spawn(move || {
                status
                    .compare_exchange(RUNNING, ABORTED, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            })
        };

        let worker_won = worker.join().unwrap();
        let watchdog_won = watchdog.join().unwrap();
        assert!(
            worker_won ^ watchdog_won,
            "exactly one terminal transition must win"
        );
        let terminal = status.load(Ordering::Acquire);
        assert_eq!(
            terminal,
            if worker_won { COMPLETED } else { ABORTED },
            "the winning terminal state must persist"
        );
    });
}

/// No-progress watchdog: the watchdog compares two snapshots of the
/// progress counter and fires only when they are equal *and* jobs are
/// outstanding. Firing is advisory — the abort still goes through the
/// absorbing terminal CAS, so a completion that lands between the
/// watchdog's decision and its sweep wins and stays COMPLETED.
///
/// Mirrors `src/executor.rs`: the watchdog thread snapshots
/// `tasks_executed`+`admissions`, sleeps, re-snapshots, and aborts only
/// on a stable snapshot with outstanding jobs; job status transitions
/// stay CAS-guarded either way.
#[test]
fn watchdog_snapshot_and_cas_resolution() {
    model(|| {
        let progress = Arc::new(AtomicUsize::new(0));
        let status = Arc::new(AtomicUsize::new(RUNNING));

        let worker = {
            let progress = progress.clone();
            let status = status.clone();
            thread::spawn(move || {
                progress.fetch_add(1, Ordering::AcqRel);
                status
                    .compare_exchange(RUNNING, COMPLETED, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            })
        };
        let watchdog = {
            let progress = progress.clone();
            let status = status.clone();
            thread::spawn(move || {
                let snap1 = progress.load(Ordering::Acquire);
                thread::yield_now();
                let snap2 = progress.load(Ordering::Acquire);
                let outstanding = status.load(Ordering::Acquire) == RUNNING;
                let fired = snap1 == snap2 && outstanding;
                let aborted = fired
                    && status
                        .compare_exchange(RUNNING, ABORTED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok();
                (snap1, snap2, aborted)
            })
        };

        let worker_won = worker.join().unwrap();
        let (snap1, snap2, watchdog_aborted) = watchdog.join().unwrap();
        // The watchdog never aborts after observing progress between its
        // snapshots...
        if snap2 != snap1 {
            assert!(!watchdog_aborted, "abort despite observed progress");
        }
        // ...and whatever raced, the job ended in exactly one terminal
        // state that matches the winning transition.
        assert!(worker_won ^ watchdog_aborted);
        let terminal = status.load(Ordering::Acquire);
        assert_eq!(terminal, if worker_won { COMPLETED } else { ABORTED });
        assert_ne!(terminal, RUNNING, "the job must reach a terminal state");
    });
}

/// W1 under crashes — crash-purge preserves tasks: a crashing worker
/// drains its private deque into the shared orphan queue; a survivor
/// adopts and executes the orphans. Every task the crashed worker held
/// is executed exactly once by the survivor; none are lost.
///
/// Mirrors the executor's crash path: a `FaultKind::Crash` worker moves
/// its remaining chunk tasks into `Shared::orphans`, and live workers
/// poll the orphan queue before declaring quiescence.
#[test]
fn crash_purge_preserves_tasks() {
    model(|| {
        const HELD: usize = 2;
        let orphans: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let purged = Arc::new(AtomicBool::new(false));
        let executed = Arc::new(AtomicUsize::new(0));

        let crasher = {
            let orphans = orphans.clone();
            let purged = purged.clone();
            thread::spawn(move || {
                // Crash: drain the private deque into the orphan queue,
                // then (Release) publish that purging is finished.
                let mut q = orphans.lock().unwrap();
                for task in 0..HELD {
                    q.push(task);
                }
                drop(q);
                purged.store(true, Ordering::Release);
            })
        };
        let survivor = {
            let orphans = orphans.clone();
            let purged = purged.clone();
            let executed = executed.clone();
            thread::spawn(move || {
                // Adopt until the purge is published AND the queue is
                // observed empty afterwards (the executor's quiescence
                // check orders the flag read before the final drain).
                loop {
                    while let Some(_task) = { orphans.lock().unwrap().pop() } {
                        executed.fetch_add(1, Ordering::AcqRel);
                    }
                    if purged.load(Ordering::Acquire) && orphans.lock().unwrap().is_empty() {
                        break;
                    }
                    thread::yield_now();
                }
            })
        };

        crasher.join().unwrap();
        survivor.join().unwrap();
        assert_eq!(
            executed.load(Ordering::Acquire),
            HELD,
            "every task held by the crashed worker must be adopted exactly once"
        );
        assert!(orphans.lock().unwrap().is_empty());
    });
}

/// W6 — bounded stealing: under steal-k-first a worker admits from the
/// global queue only after exactly `k` consecutive failed steal attempts,
/// and its failure counter never exceeds `k`.
///
/// Mirrors the policy loop in `src/executor.rs` (`RtPolicy::StealKFirst`):
/// the thief probes an empty victim, counts failures, and admits at the
/// threshold; a successful steal resets the counter.
#[test]
fn steal_k_first_bounded() {
    model(|| {
        const K: usize = 3;
        // Victim deque with one task; whether the thief's first probe
        // hits it depends on the interleaving with the victim's own pop.
        let victim: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(vec![0]));

        let owner = {
            let victim = victim.clone();
            thread::spawn(move || {
                // The owner may pop its own task first.
                victim.lock().unwrap().pop();
            })
        };
        let thief = {
            let victim = victim.clone();
            thread::spawn(move || {
                let mut fails = 0usize;
                let mut admissions = 0usize;
                let mut max_fails = 0usize;
                let mut stolen = 0usize;
                while admissions == 0 {
                    match victim.lock().unwrap().pop() {
                        Some(_) => {
                            stolen += 1;
                            fails = 0;
                        }
                        None => {
                            fails += 1;
                            max_fails = max_fails.max(fails);
                            if fails == K {
                                admissions += 1;
                                fails = 0;
                            }
                        }
                    }
                }
                (max_fails, stolen, admissions)
            })
        };

        owner.join().unwrap();
        let (max_fails, stolen, admissions) = thief.join().unwrap();
        assert!(max_fails <= K, "failed-steal streak exceeded k");
        assert_eq!(admissions, 1, "the thief must fall back to admission");
        assert!(stolen <= 1, "at most the single task can be stolen");
    });
}
