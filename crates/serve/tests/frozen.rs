//! Frozen bytes: the merged report of a fixed stream, pinned in full.
//!
//! `chaos.rs` proves the merged digest agrees *across* worker counts and
//! chaos; this file pins *what* it agrees on — the digest and every byte
//! of `--merged-json` for `stream(0)` at 1, 2 and 8 workers, calm and with
//! kills. A change to the parse → ledger → dispatch → ack path that moves
//! any of them changes what the service reports.

use parflow_serve::protocol::Submission;
use parflow_serve::supervisor::{FaultSpec, ServeConfig, ServeReport, Supervisor};

/// The same deterministic 120-job stream as `chaos.rs`.
fn stream() -> Vec<Submission> {
    let mut subs = Vec::new();
    let mut x: u64 = 0x1234_5678_9abc_def1;
    let mut t: u64 = 0;
    for id in 0..120u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        t += x % 9;
        subs.push(Submission {
            id,
            arrival: t,
            work: 1 + x % 20,
            poison: false,
        });
    }
    subs
}

fn run_once(workers: usize, chaos: bool) -> ServeReport {
    let mut cfg = ServeConfig::new(workers);
    cfg.iters_per_unit = 1;
    cfg.backoff_base_ms = 0;
    cfg.backoff_cap_ms = 1;
    cfg.max_restarts = 8;
    cfg.capacity_slots = 4;
    cfg.queue_cap = 256;
    cfg.slo_ticks = Some(10_000);
    cfg.seed = 99;
    if chaos {
        // `chaos.rs`'s kills: worker 0 after 4 orders, worker 1 after 7.
        cfg.faults = (0..workers.min(2))
            .map(|w| FaultSpec {
                worker: w,
                after_orders: [4, 7][w],
            })
            .collect();
    }
    let mut sup = Supervisor::new(cfg).expect("config valid");
    for sub in stream() {
        sup.offer(sub);
        sup.pump();
    }
    sup.finish()
}

const FROZEN_DIGEST: &str = "14b42415f6bbd9df";

const FROZEN_MERGED: &str = r#"{
  "schema": 1,
  "counters": {
    "serve.admitted": 120,
    "serve.arrival_clamped": 0,
    "serve.completed": 120,
    "serve.lost": 0,
    "serve.rejected_slo": 0,
    "serve.shed": 0,
    "serve.submitted": 120
  },
  "gauges": {
    "serve.capacity_slots": 4.000000,
    "serve.checksum_xor_b32": 1962658480.000000,
    "serve.queue_cap": 256.000000,
    "serve.slo_ticks": 10000.000000
  },
  "histograms": [
    {
      "name": "serve.virtual_flow_ticks",
      "count": 120,
      "nan": 0,
      "min": 1.000000,
      "max": 21.000000,
      "mean": 10.325000,
      "p50": 10.000000,
      "p95": 19.000000,
      "p99": 20.000000,
      "bins": [8, 8, 6, 12, 8, 3, 10, 16, 8, 5, 6, 10, 5, 5, 4, 6]
    }
  ],
  "phases": []
}
"#;

#[test]
fn merged_report_bytes_are_frozen() {
    for workers in [1usize, 2, 8] {
        for chaos in [false, true] {
            let r = run_once(workers, chaos);
            assert_eq!(
                r.merged.to_json(),
                FROZEN_MERGED,
                "workers={workers} chaos={chaos}"
            );
            assert_eq!(r.digest, FROZEN_DIGEST, "workers={workers} chaos={chaos}");
        }
    }
}

/// The CI serve smoke, in process: `emit` → jsonl file → `run`, so the
/// parser and the line loop are on the frozen path too.
#[test]
fn smoke_digest_through_the_jsonl_path_is_frozen() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let subs = parflow_serve::cli::run(&argv("emit --n 300 --qps 2000 --dist bing --seed 42"))
        .expect("emit");
    let path = std::env::temp_dir().join("parflow_serve_frozen_smoke.jsonl");
    std::fs::write(&path, &subs).expect("write stream");
    for extra in ["--workers 1", "--workers 2", "--workers 8 --chaos 0:5,1:9"] {
        let digest = parflow_serve::cli::run(&argv(&format!(
            "run --input {} --seed 7 --iters-per-unit 1 --digest-only {extra}",
            path.display()
        )))
        .expect("run");
        assert_eq!(digest, "42c325ddf5eaf32c\n", "{extra}");
    }
    std::fs::remove_file(&path).ok();
}
