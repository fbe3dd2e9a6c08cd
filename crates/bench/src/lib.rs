//! # parflow-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (see `DESIGN.md` for the experiment index). One
//! table, [`experiments::EXPERIMENTS`], names every experiment in run
//! order; among them:
//!
//! * `fig2-bing` / `fig2-finance` / `fig2-lognormal` — max flow vs QPS,
//!   three workloads × three schedulers (Figure 2 a/b/c);
//! * `fig3` — the Bing and finance work distributions (Figure 3 a/b);
//! * `lower-bound` — the Lemma 5.1 `Ω(log n)` construction;
//! * `theory-fifo` — Theorem 3.1 (FIFO, `3/ε` ceiling);
//! * `theory-ws` — Theorem 4.1 (steal-k-first, w.h.p.
//!   `O((1/ε²)·max{OPT, ln n})`);
//! * `theory-bwf` — Theorem 7.1 (BWF, `3/ε²` ceiling);
//! * `steal-k` — the k ablation;
//! * `intervals` — the Figure 1 interval decomposition.
//!
//! Run everything with `cargo run --release -p parflow-bench --bin repro`
//! (`repro --list` prints the table).
//! This crate reports what the schedulers *did* (flows, ratios, counters);
//! how fast the engines run is measured by `parflow-perf` (`crates/perf`,
//! `BENCHMARK.json`) and nowhere else.

#![warn(missing_docs)]

pub mod alloc_probe;
pub mod experiments;
pub mod probes;
mod report;
pub mod stream;
pub mod sweep;

pub use report::Reporter;
