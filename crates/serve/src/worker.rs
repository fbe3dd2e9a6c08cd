//! The execution layer: `ThreadWorker`, one in-process execution shard
//! (a thread with a bounded inbox), the only kind a supervisor runs.
//!
//! The contract is **at-least-once dispatch, at-most-once acknowledgement**:
//! a worker may die holding unacknowledged orders (its inbox and its
//! in-flight job are lost), but it never acknowledges a job it did not
//! finish. The supervisor re-admits unacknowledged orders after a death
//! and deduplicates acknowledgements by submission id, which composes to
//! exactly-once accounting end to end.
//!
//! Chaos is deterministic by construction: a worker dies after executing a
//! fixed *count* of orders (`kill_after`, first incarnation only), or when
//! it picks up a poisoned order — never on a timer. Wall clocks here only
//! pace the idle loop; they never decide an observable outcome.

use crate::protocol::Submission;
use parflow_runtime::spin_kernel;
use parflow_time::Work;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One unit of dispatched work (an admitted submission bound for a worker).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct WorkOrder {
    /// Submission id (the idempotency key acknowledgements carry back).
    pub id: u64,
    /// Service demand in work units.
    pub work: Work,
    /// Chaos: the executing worker dies mid-job without acknowledging.
    pub poison: bool,
}

impl WorkOrder {
    /// Build an order from an admitted submission.
    pub(crate) fn from_submission(sub: &Submission) -> WorkOrder {
        WorkOrder {
            id: sub.id,
            work: sub.work,
            poison: sub.poison,
        }
    }
}

/// A finished job, acknowledged by the worker that ran it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Completion {
    /// Submission id of the finished job.
    pub id: u64,
    /// Kernel checksum (proof of execution; folded into live telemetry).
    pub checksum: u64,
    /// Index of the worker that ran the job.
    pub worker: usize,
}

/// Why a non-blocking submit did not take the order (the caller still
/// holds it: `WorkOrder` is `Copy`).
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum SubmitError {
    /// Inbox full — back off and retry.
    Full,
    /// The worker is gone — re-admit elsewhere.
    Dead,
}

/// Spawn parameters for one [`ThreadWorker`] incarnation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WorkerConfig {
    /// Worker index (stable across incarnations; used in telemetry).
    pub index: usize,
    /// Spin-kernel iterations per work unit (sizes real CPU burn).
    pub iters_per_unit: u64,
    /// Bounded inbox depth (backpressure towards the supervisor).
    pub inbox_cap: usize,
    /// Chaos: die after acknowledging this many orders (`None` = never).
    pub kill_after: Option<u64>,
}

/// In-process worker: a thread with a bounded inbox, an acknowledgement
/// channel, a heartbeat, and a stop flag.
#[derive(Debug)]
pub(crate) struct ThreadWorker {
    inbox: Option<SyncSender<WorkOrder>>,
    acks: Receiver<Completion>,
    heartbeat: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl ThreadWorker {
    /// Spawn one worker incarnation.
    pub(crate) fn spawn(cfg: WorkerConfig) -> ThreadWorker {
        let (inbox_tx, inbox_rx) = std::sync::mpsc::sync_channel::<WorkOrder>(cfg.inbox_cap.max(1));
        let (ack_tx, ack_rx) = std::sync::mpsc::channel::<Completion>();
        let heartbeat = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let hb = Arc::clone(&heartbeat);
        let stop_flag = Arc::clone(&stop);
        let index = cfg.index;
        let iters = cfg.iters_per_unit.max(1);
        let join = std::thread::spawn(move || {
            let mut executed: u64 = 0;
            loop {
                hb.fetch_add(1, Ordering::Relaxed);
                if stop_flag.load(Ordering::Relaxed) {
                    return;
                }
                match inbox_rx.recv_timeout(Duration::from_millis(1)) {
                    Ok(order) => {
                        if order.poison {
                            // Simulated crash mid-job: no ack, loop exits,
                            // the thread "dies" with the inbox contents.
                            return;
                        }
                        let checksum =
                            spin_kernel(order.work.max(1).saturating_mul(iters), order.id);
                        executed += 1;
                        let acked = ack_tx
                            .send(Completion {
                                id: order.id,
                                checksum,
                                worker: index,
                            })
                            .is_ok();
                        if !acked || cfg.kill_after == Some(executed) {
                            // Deterministic chaos: die after acking the
                            // N-th order; anything still in the inbox is
                            // lost and must be re-admitted.
                            return;
                        }
                    }
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
                    Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
                }
            }
        });
        ThreadWorker {
            inbox: Some(inbox_tx),
            acks: ack_rx,
            heartbeat,
            stop,
            join: Some(join),
        }
    }

    /// Hand an order to the worker without blocking.
    pub(crate) fn try_submit(&mut self, order: WorkOrder) -> Result<(), SubmitError> {
        match &self.inbox {
            None => Err(SubmitError::Dead),
            Some(tx) => match tx.try_send(order) {
                Ok(()) => Ok(()),
                Err(TrySendError::Full(_)) => Err(SubmitError::Full),
                Err(TrySendError::Disconnected(_)) => Err(SubmitError::Dead),
            },
        }
    }

    /// Append every acknowledgement produced since the last call to `out`
    /// (a buffer the caller reuses, so draining allocates nothing).
    pub(crate) fn drain_completions(&mut self, out: &mut Vec<Completion>) {
        out.extend(self.acks.try_iter());
    }

    /// Monotone liveness counter bumped by the worker loop (watchdog food).
    pub(crate) fn heartbeat(&self) -> u64 {
        self.heartbeat.load(Ordering::Relaxed)
    }

    /// True once the worker thread has exited (crash or shutdown).
    pub(crate) fn is_finished(&mut self) -> bool {
        self.join.as_ref().map(|j| j.is_finished()).unwrap_or(true)
    }

    /// Ask the worker to stop, then join it. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.inbox = None; // disconnect wakes a blocked recv
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ThreadWorker {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wait_drain(w: &mut ThreadWorker, n: usize) -> Vec<Completion> {
        let mut out = Vec::new();
        for _ in 0..10_000 {
            w.drain_completions(&mut out);
            if out.len() >= n {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        out
    }

    fn cfg(kill_after: Option<u64>) -> WorkerConfig {
        WorkerConfig {
            index: 3,
            iters_per_unit: 1,
            inbox_cap: 8,
            kill_after,
        }
    }

    #[test]
    fn executes_and_acks_in_order() {
        let mut w = ThreadWorker::spawn(cfg(None));
        for id in 0..5u64 {
            w.try_submit(WorkOrder {
                id,
                work: 3,
                poison: false,
            })
            .unwrap();
        }
        let acks = wait_drain(&mut w, 5);
        assert_eq!(
            acks.iter().map(|c| c.id).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert!(acks.iter().all(|c| c.worker == 3));
        // Checksums are the deterministic kernel output, not zero.
        assert!(acks.iter().all(|c| c.checksum != 0));
        w.shutdown();
        assert!(w.is_finished());
    }

    #[test]
    fn kill_after_dies_past_nth_ack() {
        let mut w = ThreadWorker::spawn(cfg(Some(2)));
        for id in 0..4u64 {
            let _ = w.try_submit(WorkOrder {
                id,
                work: 1,
                poison: false,
            });
        }
        let acks = wait_drain(&mut w, 2);
        assert_eq!(acks.len(), 2);
        for _ in 0..10_000 {
            if w.is_finished() {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        assert!(w.is_finished(), "worker should crash after 2 acks");
        // Orders 2 and 3 were never acknowledged.
        assert!(wait_drain(&mut w, 0).is_empty());
    }

    #[test]
    fn poison_kills_without_ack() {
        let mut w = ThreadWorker::spawn(cfg(None));
        w.try_submit(WorkOrder {
            id: 9,
            work: 1,
            poison: true,
        })
        .unwrap();
        for _ in 0..10_000 {
            if w.is_finished() {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        assert!(w.is_finished());
        assert!(wait_drain(&mut w, 0).is_empty());
    }

    #[test]
    fn dead_worker_reports_submit_dead() {
        let mut w = ThreadWorker::spawn(cfg(None));
        w.shutdown();
        let order = WorkOrder {
            id: 1,
            work: 1,
            poison: false,
        };
        assert_eq!(w.try_submit(order), Err(SubmitError::Dead));
    }

    #[test]
    fn heartbeat_advances_while_idle() {
        let mut w = ThreadWorker::spawn(cfg(None));
        let h0 = w.heartbeat();
        std::thread::sleep(Duration::from_millis(10));
        assert!(w.heartbeat() > h0);
        w.shutdown();
    }

    #[test]
    fn full_inbox_backpressures() {
        // kill_after(0) is never triggered; use a poison first so the
        // worker dies instantly and the inbox (cap 8) fills behind it.
        let mut w = ThreadWorker::spawn(WorkerConfig {
            index: 0,
            iters_per_unit: 1,
            inbox_cap: 2,
            kill_after: None,
        });
        w.try_submit(WorkOrder {
            id: 0,
            work: 1,
            poison: true,
        })
        .unwrap();
        // Stuff the inbox until Full or Dead shows up; both are explicit.
        let mut saw_backpressure = false;
        for id in 1..100u64 {
            match w.try_submit(WorkOrder {
                id,
                work: 1,
                poison: false,
            }) {
                Ok(()) => {}
                Err(SubmitError::Full | SubmitError::Dead) => {
                    saw_backpressure = true;
                    break;
                }
            }
        }
        assert!(saw_backpressure, "unbounded inbox would be a memory leak");
    }
}
