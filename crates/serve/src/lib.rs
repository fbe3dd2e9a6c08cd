//! # parflow-serve
//!
//! A long-lived, crash-tolerant streaming admission service in front of
//! the runtime's execution kernels — the "production wrapper" around the
//! paper's admission question: *which jobs do you accept, and when, so
//! that maximum flow time stays bounded?*
//!
//! The crate is four layers, each its own module:
//!
//! * [`protocol`] — jsonl wire format with idempotent submission ids;
//! * [`admission`] — a deterministic virtual-time ledger deciding
//!   admit / shed / reject-SLO purely from the submission stream;
//! * `worker` — the in-process `ThreadWorker` execution shard (bounded
//!   inbox, heartbeat, deterministic crash hooks);
//! * [`supervisor`] — sharding, death detection, capped-backoff restarts,
//!   exactly-once re-admission, and the merged/live report split.
//!
//! [`run_jsonl`] (in `ingest`) feeds a supervisor from a replayable jsonl
//! source or a TCP socket, and [`cli`] is the shared command surface of the
//! `parflow-serve` binary and the root `parflow serve` subcommand.
//!
//! **The determinism contract** (pinned by `tests/chaos.rs` and the CI
//! smoke step): same seed + same jsonl stream ⇒ byte-identical merged
//! report digest, regardless of worker count and of crash/restart chaos.
//! See `docs/SERVE.md` for the full design.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cli;
mod ingest;
pub mod protocol;
pub mod supervisor;
mod worker;

pub use admission::{AdmissionConfig, AdmissionLedger, Outcome};
pub use ingest::{run_jsonl, IngestStats};
pub use protocol::{parse_submission, ParseError, Submission};
pub use supervisor::{FaultSpec, ServeConfig, ServeReport, Supervisor};
