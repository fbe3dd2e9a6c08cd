//! Runtime jobs and tasks.
//!
//! A runtime job mirrors the paper's empirical setup: CPU-intensive work
//! parallelized with a parallel-for loop. On admission the job fans out
//! into `chunks` independent chunk tasks; the job completes when the last
//! chunk finishes. Work is measured in *iterations* of a deterministic
//! spin kernel so results do not depend on clock resolution.

use parflow_core::JobStatus;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// How a job's work is structured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobShape {
    /// A flat parallel-for: all chunks are pushed at admission.
    Flat,
    /// A recursive binary fork-join of the given depth: admission pushes
    /// one spawn task; each spawn task pushes two children (spawns until
    /// depth 0, then chunks). Produces `2^depth` leaf chunks and exercises
    /// deep deque nesting exactly like divide-and-conquer programs.
    ForkJoin {
        /// Recursion depth (`2^depth` leaves).
        depth: u32,
    },
    /// A flat job whose every chunk deliberately panics — the test fixture
    /// for the executor's panic isolation. The first executed chunk fails
    /// the whole job.
    Poison,
}

/// Specification of one job submitted to the executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Number of parallel-for chunks (leaves for fork-join).
    pub chunks: usize,
    /// Spin-kernel iterations per chunk.
    pub iters_per_chunk: u64,
    /// Structure of the job.
    pub shape: JobShape,
}

impl JobSpec {
    /// A flat job with `total_iters` of work split into `chunks` chunks.
    pub fn split(total_iters: u64, chunks: usize) -> Self {
        let chunks = chunks.max(1);
        JobSpec {
            chunks,
            iters_per_chunk: (total_iters / chunks as u64).max(1),
            shape: JobShape::Flat,
        }
    }

    /// A recursive fork-join job with `2^depth` leaves carrying
    /// `total_iters` of work in total.
    pub fn fork_join(total_iters: u64, depth: u32) -> Self {
        assert!(
            depth <= 16,
            "fork-join depth {depth} would exceed 65k leaves"
        );
        let leaves = 1usize << depth;
        JobSpec {
            chunks: leaves,
            iters_per_chunk: (total_iters / leaves as u64).max(1),
            shape: JobShape::ForkJoin { depth },
        }
    }

    /// A flat job whose chunks all panic when executed (see
    /// [`JobShape::Poison`]).
    pub fn poison(total_iters: u64, chunks: usize) -> Self {
        let chunks = chunks.max(1);
        JobSpec {
            chunks,
            iters_per_chunk: (total_iters / chunks as u64).max(1),
            shape: JobShape::Poison,
        }
    }

    /// Number of trackable tasks: leaves only (spawn strands are free).
    pub fn leaf_tasks(&self) -> usize {
        self.chunks
    }
}

/// Shared state of one in-flight job.
#[derive(Debug)]
pub struct JobState {
    /// Dense job index.
    pub id: u32,
    /// Chunks not yet finished.
    pub remaining: AtomicUsize,
    /// Nanoseconds from the run's base instant to arrival.
    pub arrival_ns: AtomicU64,
    /// Nanoseconds from the base instant to completion (0 = incomplete).
    /// For failed jobs this records the moment of failure instead, so the
    /// flow of a failed job measures time-to-failure (as in the simulator).
    pub completion_ns: AtomicU64,
    /// Iterations per chunk.
    pub iters_per_chunk: u64,
    /// Total chunks.
    pub chunks: usize,
    /// Structure of the job.
    pub shape: JobShape,
    /// Set when a chunk of this job panicked; remaining chunks are dropped.
    pub failed: AtomicBool,
    /// Single-shot terminal latch: exactly one of `finish_chunk` /
    /// [`JobState::fail`] wins the right to count this job as finished,
    /// even when a panicking chunk races the job's last healthy chunk.
    terminal: AtomicBool,
    /// Chunk execution sequence number, used to key the deterministic
    /// panic sampler. Drawn only for chunks that can be made to panic (see
    /// [`JobState::next_seq`]), so it is not a count of executed chunks.
    executed: AtomicU64,
}

impl JobState {
    /// Create the state for a job of `spec` shape.
    pub fn new(id: u32, spec: JobSpec) -> Self {
        JobState {
            id,
            remaining: AtomicUsize::new(spec.leaf_tasks()),
            arrival_ns: AtomicU64::new(0),
            completion_ns: AtomicU64::new(0),
            iters_per_chunk: spec.iters_per_chunk,
            chunks: spec.chunks,
            shape: spec.shape,
            failed: AtomicBool::new(false),
            terminal: AtomicBool::new(false),
            executed: AtomicU64::new(0),
        }
    }

    /// Mark one chunk finished; returns true if this finished the job
    /// (last chunk, and no concurrent failure already ended it).
    pub fn finish_chunk(&self, base: Instant) -> bool {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            if self.terminal.swap(true, Ordering::AcqRel) {
                return false;
            }
            let ns = base.elapsed().as_nanos() as u64; // lint: allow(truncating-cast) u64 nanoseconds wrap after ~584 years of run wall-clock
            self.completion_ns.store(ns.max(1), Ordering::Release);
            true
        } else {
            false
        }
    }

    /// Mark the whole job failed (a chunk panicked); returns true the
    /// first time, when the caller must count the job as terminal.
    pub fn fail(&self, base: Instant) -> bool {
        self.failed.store(true, Ordering::Release);
        if self.terminal.swap(true, Ordering::AcqRel) {
            return false;
        }
        let ns = base.elapsed().as_nanos() as u64; // lint: allow(truncating-cast) u64 nanoseconds wrap after ~584 years of run wall-clock
        self.completion_ns.store(ns.max(1), Ordering::Release);
        true
    }

    /// True once a chunk of this job has panicked.
    pub fn is_failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    /// Next chunk sequence number (keys the deterministic panic sampler).
    ///
    /// An RMW on a line shared by every worker running this job: the
    /// executor calls it only when the sampler is armed or the job is
    /// [`JobShape::Poison`], the two cases in which the number is read.
    pub fn next_seq(&self) -> u64 {
        self.executed.fetch_add(1, Ordering::Relaxed)
    }

    /// Terminal status, meaningful once the run is over: failed jobs are
    /// [`JobStatus::Failed`], finished ones [`JobStatus::Completed`], and
    /// anything still open when the run ended [`JobStatus::Aborted`].
    pub fn status(&self) -> JobStatus {
        if self.failed.load(Ordering::Acquire) {
            JobStatus::Failed
        } else if self.completion_ns.load(Ordering::Acquire) > 0 {
            JobStatus::Completed
        } else {
            JobStatus::Aborted
        }
    }

    /// Flow time in nanoseconds, if the job reached a terminal time
    /// (completion, or failure time for failed jobs).
    pub fn flow_ns(&self) -> Option<u64> {
        let done = self.completion_ns.load(Ordering::Acquire);
        if done == 0 {
            return None;
        }
        Some(done.saturating_sub(self.arrival_ns.load(Ordering::Acquire)))
    }
}

/// A unit of schedulable work.
///
/// Tasks carry only the owning job's dense index; workers resolve it
/// against the executor's shared `JobState` slab. Keeping the task `Copy`
/// (12 bytes, no `Arc`) removes per-task refcount traffic from every
/// deque push, steal and drop on the hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Task {
    /// Owning job's dense index into the run's job-state slab.
    pub job: u32,
    /// What this task does.
    pub kind: TaskKind,
}

/// Task variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskKind {
    /// Execute one leaf chunk of spin work.
    Chunk,
    /// Spawn two subtasks (fork-join recursion); depth 1 spawns chunks.
    Spawn {
        /// Remaining recursion depth (≥ 1).
        depth: u32,
    },
}

/// The CPU-bound spin kernel: a splitmix-style integer recurrence the
/// optimizer cannot remove (the result is returned and consumed with
/// `std::hint::black_box` by the caller).
#[inline]
pub fn spin_kernel(iters: u64, seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_spec() {
        let s = JobSpec::split(100, 4);
        assert_eq!(s.chunks, 4);
        assert_eq!(s.iters_per_chunk, 25);
        let tiny = JobSpec::split(2, 8);
        assert_eq!(tiny.iters_per_chunk, 1);
        let zero_chunks = JobSpec::split(10, 0);
        assert_eq!(zero_chunks.chunks, 1);
    }

    #[test]
    fn job_state_completion() {
        let base = Instant::now();
        let js = JobState::new(
            0,
            JobSpec {
                chunks: 3,
                iters_per_chunk: 1,
                shape: JobShape::Flat,
            },
        );
        assert!(js.flow_ns().is_none());
        assert!(!js.finish_chunk(base));
        assert!(!js.finish_chunk(base));
        assert!(js.finish_chunk(base));
        assert!(js.flow_ns().is_some());
    }

    #[test]
    fn flow_subtracts_arrival() {
        let base = Instant::now();
        let js = JobState::new(
            0,
            JobSpec {
                chunks: 1,
                iters_per_chunk: 1,
                shape: JobShape::Flat,
            },
        );
        js.arrival_ns.store(100, Ordering::Release);
        js.finish_chunk(base);
        let flow = js.flow_ns().unwrap();
        let completion = js.completion_ns.load(Ordering::Acquire);
        assert_eq!(flow, completion.saturating_sub(100));
    }

    #[test]
    fn fork_join_spec() {
        let s = JobSpec::fork_join(1024, 4);
        assert_eq!(s.chunks, 16);
        assert_eq!(s.iters_per_chunk, 64);
        assert_eq!(s.shape, JobShape::ForkJoin { depth: 4 });
        assert_eq!(s.leaf_tasks(), 16);
    }

    #[test]
    #[should_panic(expected = "65k leaves")]
    fn fork_join_depth_cap() {
        let _ = JobSpec::fork_join(1, 17);
    }

    #[test]
    fn poison_spec() {
        let s = JobSpec::poison(100, 4);
        assert_eq!(s.shape, JobShape::Poison);
        assert_eq!(s.chunks, 4);
        assert_eq!(s.iters_per_chunk, 25);
    }

    #[test]
    fn fail_is_terminal_exactly_once() {
        let base = Instant::now();
        let js = JobState::new(
            0,
            JobSpec {
                chunks: 2,
                iters_per_chunk: 1,
                shape: JobShape::Flat,
            },
        );
        assert_eq!(js.status(), JobStatus::Aborted); // not yet terminal
        assert!(js.fail(base));
        assert!(!js.fail(base), "second failure must not double-count");
        assert!(js.is_failed());
        assert_eq!(js.status(), JobStatus::Failed);
        assert!(js.flow_ns().is_some(), "failed jobs record time-to-failure");
    }

    #[test]
    fn completion_loses_race_against_failure() {
        let base = Instant::now();
        let js = JobState::new(
            0,
            JobSpec {
                chunks: 1,
                iters_per_chunk: 1,
                shape: JobShape::Flat,
            },
        );
        assert!(js.fail(base));
        // The last chunk finishing after a failure must not count the job
        // as terminal a second time.
        assert!(!js.finish_chunk(base));
        assert_eq!(js.status(), JobStatus::Failed);
    }

    #[test]
    fn seq_increments() {
        let js = JobState::new(0, JobSpec::split(10, 2));
        assert_eq!(js.next_seq(), 0);
        assert_eq!(js.next_seq(), 1);
    }

    #[test]
    fn spin_kernel_depends_on_iters() {
        let a = spin_kernel(10, 42);
        let b = spin_kernel(11, 42);
        assert_ne!(a, b);
        assert_eq!(spin_kernel(10, 42), a, "deterministic");
    }
}
