//! The executor's work-stealing deque: a bounded Chase–Lev ring.
//!
//! Written against the `WorkStealing` TLA+ specification (SNIPPETS.md),
//! whose per-worker state is exactly this module's ring, `bottom` and
//! `top`; `docs/STATIC_ANALYSIS.md` §3 maps its invariants onto the tests:
//!
//! * the owner [`Deque::push`]es and [`Deque::pop`]s at `bottom` (newest
//!   first), a thief [`Stealer::steal`]s at `top` (oldest first) — W3;
//! * a task leaves the ring once: a thief claims index `top` with a CAS,
//!   and the owner takes the last task only by winning that same CAS —
//!   W1 and W2;
//! * a steal never spins: a thief that loses the CAS gets
//!   [`Steal::Retry`] — W6.
//!
//! A slot is an `AtomicU64` holding a packed [`Task`], so the ring needs no
//! `unsafe`: a thief that reads a slot while the owner overwrites it gets a
//! stale word, and since the owner reuses a slot only after `top` has moved
//! past it, that thief's CAS fails and the word is dropped.
//!
//! ## Capacity
//!
//! The ring never grows, and `push` never finds it full. Only the owner
//! pushes, and a worker takes new work — admits a job, adopts an orphan,
//! runs a stolen task — only after its own `pop` came back empty. So a
//! deque holds at most one admission's chunks (a flat or poison job), or
//! `depth + 1` tasks of a fork-join job (each expanded spawn leaves one
//! sibling behind). `try_run_workload` sizes every ring at the largest
//! such bound in the workload (`JobSpec::deque_bound`), rounded up to a
//! power of two.
//!
//! ## Orderings
//!
//! Those of Lê, Pop, Cohen and Zappa Nardelli, "Correct and efficient
//! work-stealing for weak memory models" (PPoPP 2013), with one change:
//! every store to `bottom` is `Release`, not only `push`'s. Under the C++20
//! model that Rust follows, a relaxed store no longer continues a release
//! sequence, so a thief that reads a `bottom` written by `pop` must
//! synchronize with that store itself to see the slots pushed before it.

use crate::task::{Task, TaskKind};
#[cfg(all(loom, test))]
use loom::sync::atomic::{fence, AtomicI64, AtomicU64, Ordering};
#[cfg(not(all(loom, test)))]
use std::sync::atomic::{fence, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Outcome of one steal attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Steal {
    /// The deque was empty.
    Empty,
    /// The oldest task, now the thief's.
    Success(Task),
    /// Another worker claimed the task first; it says nothing about
    /// whether work is left.
    Retry,
}

struct Ring {
    slots: Box<[AtomicU64]>,
    /// Index of the oldest task: the next one a thief steals.
    top: AtomicI64,
    /// One past the newest task: where the owner pushes next.
    bottom: AtomicI64,
}

impl Ring {
    fn slot(&self, index: i64) -> &AtomicU64 {
        // The length is a power of two, so masking is `index mod len`.
        &self.slots[index as usize & (self.slots.len() - 1)]
    }
}

/// The owner's end. Not `Clone`: the executor moves each one into its
/// worker's thread, so only that worker pushes and pops.
pub(crate) struct Deque(Arc<Ring>);

/// A thief's end: it can only steal.
pub(crate) struct Stealer(Arc<Ring>);

/// The job in the high half, the spawn depth in the low half (0: a chunk).
fn pack(task: Task) -> u64 {
    let depth = match task.kind {
        TaskKind::Chunk => 0,
        TaskKind::Spawn { depth } => depth,
    };
    (u64::from(task.job) << 32) | u64::from(depth)
}

fn unpack(word: u64) -> Task {
    let depth = word as u32; // lint: allow(truncating-cast) the low half of the packed word
    Task {
        job: (word >> 32) as u32, // lint: allow(truncating-cast) the high half of the packed word
        kind: if depth == 0 {
            TaskKind::Chunk
        } else {
            TaskKind::Spawn { depth }
        },
    }
}

impl Deque {
    /// An empty deque with room for `bound` tasks, rounded up to a power
    /// of two.
    pub(crate) fn new(bound: usize) -> Deque {
        Deque(Arc::new(Ring {
            slots: (0..bound.max(1).next_power_of_two())
                .map(|_| AtomicU64::new(0))
                .collect(),
            top: AtomicI64::new(0),
            bottom: AtomicI64::new(0),
        }))
    }

    pub(crate) fn stealer(&self) -> Stealer {
        Stealer(Arc::clone(&self.0))
    }

    /// Push `task` as the newest. The ring must have room (module doc).
    pub(crate) fn push(&self, task: Task) {
        let ring = &*self.0;
        let b = ring.bottom.load(Ordering::Relaxed);
        let t = ring.top.load(Ordering::Acquire);
        assert!(
            b - t < ring.slots.len() as i64,
            "deque overflow: the ring is sized from the workload's largest job"
        );
        ring.slot(b).store(pack(task), Ordering::Relaxed);
        ring.bottom.store(b + 1, Ordering::Release);
    }

    /// Take the newest task, or `None` when the deque is empty — which
    /// includes losing the last task to a thief.
    pub(crate) fn pop(&self) -> Option<Task> {
        let ring = &*self.0;
        let b = ring.bottom.load(Ordering::Relaxed) - 1;
        ring.bottom.store(b, Ordering::Release);
        // Order the claim on index `b` before reading `top`; a thief's
        // fence orders its read of `top` before its read of `bottom`.
        fence(Ordering::SeqCst);
        let t = ring.top.load(Ordering::Relaxed);
        if t > b {
            ring.bottom.store(b + 1, Ordering::Release);
            return None;
        }
        let word = ring.slot(b).load(Ordering::Relaxed);
        if t < b {
            return Some(unpack(word));
        }
        // The last task: thieves may be after it too, and the CAS on `top`
        // decides.
        let won = ring
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok();
        ring.bottom.store(b + 1, Ordering::Release);
        won.then(|| unpack(word))
    }
}

impl Stealer {
    /// Try to take the oldest task.
    pub(crate) fn steal(&self) -> Steal {
        let ring = &*self.0;
        let t = ring.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = ring.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        let word = ring.slot(t).load(Ordering::Relaxed);
        match ring
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
        {
            Ok(_) => Steal::Success(unpack(word)),
            Err(_) => Steal::Retry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(job: u32) -> Task {
        Task {
            job,
            kind: TaskKind::Chunk,
        }
    }

    #[test]
    #[cfg(not(loom))]
    fn tasks_pack_into_one_word_and_back() {
        for task in [
            chunk(0),
            chunk(u32::MAX),
            Task {
                job: 7,
                kind: TaskKind::Spawn { depth: 1 },
            },
            Task {
                job: u32::MAX,
                kind: TaskKind::Spawn { depth: 16 },
            },
        ] {
            assert_eq!(unpack(pack(task)), task);
        }
    }

    #[test]
    #[cfg(not(loom))]
    fn owner_pops_newest_thief_steals_oldest() {
        let owner = Deque::new(4);
        let thief = owner.stealer();
        for job in 1..=3 {
            owner.push(chunk(job));
        }
        assert_eq!(owner.pop(), Some(chunk(3)));
        assert_eq!(thief.steal(), Steal::Success(chunk(1)));
        assert_eq!(owner.pop(), Some(chunk(2)));
        assert_eq!(thief.steal(), Steal::Empty);
        assert_eq!(owner.pop(), None);
    }

    #[test]
    #[cfg(not(loom))]
    fn indices_run_many_laps_around_the_ring() {
        // Capacity 4, 1 000 laps: every slot is reused many times, by
        // pushes whose index is far past the ring's length.
        let owner = Deque::new(4);
        let thief = owner.stealer();
        let mut next = 0u32;
        for _ in 0..1_000 {
            let first = next;
            for _ in 0..3 {
                owner.push(chunk(next));
                next += 1;
            }
            assert_eq!(thief.steal(), Steal::Success(chunk(first)));
            assert_eq!(owner.pop(), Some(chunk(first + 2)));
            assert_eq!(owner.pop(), Some(chunk(first + 1)));
            assert_eq!(owner.pop(), None);
        }
    }

    #[test]
    #[cfg(not(loom))]
    fn pushes_fill_the_computed_capacity_exactly() {
        // The largest `exec_drain` job has 205 chunks: a 256-slot ring,
        // which takes 256 pushes and gives them back newest first.
        let owner = Deque::new(205);
        for job in 0..256 {
            owner.push(chunk(job));
        }
        for job in (0..256).rev() {
            assert_eq!(owner.pop(), Some(chunk(job)));
        }
        assert_eq!(owner.pop(), None);
    }

    #[test]
    #[cfg(not(loom))]
    #[should_panic(expected = "deque overflow")]
    fn a_push_past_capacity_is_refused() {
        let owner = Deque::new(2);
        for job in 0..3 {
            owner.push(chunk(job));
        }
    }

    /// One owner pushing bursts and popping them, two thieves stealing
    /// throughout: every value arrives exactly once (count and sum), each
    /// thief sees increasing values, and the owner pops each burst newest
    /// first.
    #[test]
    #[cfg(not(loom))]
    fn one_owner_two_thieves_receive_every_task_once() {
        use std::sync::atomic::AtomicBool;
        const TASKS: u32 = if cfg!(miri) { 2_000 } else { 1_000_000 };
        const BURST: u32 = 200;
        // A little work per task, so thieves get a share of each burst.
        fn run(task: Task) {
            std::hint::black_box(crate::task::spin_kernel(20, u64::from(task.job)));
        }
        let owner = Deque::new(BURST as usize);
        let done = Arc::new(AtomicBool::new(false));
        let thieves: Vec<_> = (0..2)
            .map(|_| {
                let thief = owner.stealer();
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let (mut count, mut sum, mut last) = (0u64, 0u64, 0u32);
                    loop {
                        match thief.steal() {
                            Steal::Success(task) => {
                                run(task);
                                assert!(task.job > last, "thief saw {} after {last}", task.job);
                                last = task.job;
                                count += 1;
                                sum += u64::from(task.job);
                            }
                            Steal::Empty if done.load(Ordering::Acquire) => return (count, sum),
                            Steal::Empty => std::thread::yield_now(),
                            Steal::Retry => {}
                        }
                    }
                })
            })
            .collect();
        let (mut count, mut sum) = (0u64, 0u64);
        for start in (1..=TASKS).step_by(BURST as usize) {
            let end = (start + BURST).min(TASKS + 1);
            for job in start..end {
                owner.push(chunk(job));
            }
            let mut previous = end;
            while let Some(task) = owner.pop() {
                run(task);
                assert!(
                    task.job < previous,
                    "owner popped {} after {previous}",
                    task.job
                );
                previous = task.job;
                count += 1;
                sum += u64::from(task.job);
            }
        }
        done.store(true, Ordering::Release);
        for thief in thieves {
            let (c, s) = thief.join().unwrap();
            count += c;
            sum += s;
        }
        let n = u64::from(TASKS);
        assert_eq!(count, n, "a task was lost or run twice");
        assert_eq!(sum, n * (n + 1) / 2, "a task was lost or run twice");
    }

    // ---- loom models of the deque's own code ----
    //
    // `RUSTFLAGS="--cfg loom" cargo test -p parflow-runtime --lib deque`
    // compiles the ring over loom's atomics and explores every
    // interleaving (CI's loom job; offline the loom stub stress-runs).
    // Plain `cargo test` re-runs each model on std, as
    // `tests/loom_models.rs` does.

    #[cfg(loom)]
    use loom::{model, thread};
    #[cfg(not(loom))]
    use std::thread;

    #[cfg(not(loom))]
    fn model(f: impl Fn()) {
        for _ in 0..if cfg!(miri) { 10 } else { 200 } {
            f();
        }
    }

    /// W1 + W2 on the last task: the owner's `pop` and a thief's `steal`
    /// race for it, and exactly one of them gets it.
    #[test]
    fn loom_pop_and_steal_race_for_the_last_task() {
        model(|| {
            let owner = Deque::new(1);
            owner.push(chunk(7));
            let thief = owner.stealer();
            let stealing = thread::spawn(move || thief.steal());
            let popped = owner.pop();
            match (popped, stealing.join().unwrap()) {
                (Some(task), Steal::Empty | Steal::Retry) | (None, Steal::Success(task)) => {
                    assert_eq!(task, chunk(7));
                }
                other => panic!("the last task was lost or taken twice: {other:?}"),
            }
            assert_eq!(owner.pop(), None);
        });
    }

    /// A thief racing pushes that wrap a 2-slot ring: task 3 overwrites
    /// task 1's slot. A thief that read the slot on the old lap loses its
    /// CAS and drops the stale word; every task is taken exactly once.
    #[test]
    fn loom_push_and_steal_across_a_ring_wrap() {
        model(|| {
            let owner = Deque::new(2);
            owner.push(chunk(1));
            let thief = owner.stealer();
            let stealing = thread::spawn(move || thief.steal());
            let mut taken: Vec<u32> = owner.pop().into_iter().map(|t| t.job).collect();
            owner.push(chunk(2));
            owner.push(chunk(3));
            if let Steal::Success(task) = stealing.join().unwrap() {
                taken.push(task.job);
            }
            while let Some(task) = owner.pop() {
                taken.push(task.job);
            }
            taken.sort_unstable();
            assert_eq!(taken, [1, 2, 3]);
        });
    }
}
