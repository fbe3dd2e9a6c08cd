//! Frozen bytes: the `ObsReport` JSON of an `AggregatingRecorder` fed a
//! fixed mixed sequence, pinned in full.
//!
//! The sequence covers what the recorder's storage layout decides:
//! indexed and engine-level counters and gauges, samples, keys touched
//! more than once, and names that sort around `[` — report order is
//! (name, then `None` before indices in numeric order), which is *not*
//! the lexical order of the rendered labels (`a[10]` after `a[2]`, and
//! `a.b` / `aZ` / `a_b` on either side of `a[…]`).

use parflow_obs::{AggregatingRecorder, Recorder};

fn feed() -> AggregatingRecorder {
    let mut r = AggregatingRecorder::new();
    r.counter("a_b", 1);
    r.counter_at("a", 10, 5);
    r.counter("a", 2);
    r.counter_at("a", 2, 3);
    r.counter("aZ", 4);
    r.counter("a.b", 6);
    r.counter_at("a", 2, 4); // re-touched
    r.counter("x[y", 1); // a bracket inside a plain name
    r.counter("a", u64::MAX); // saturates
    r.gauge_at("g", 1, 0.25);
    r.gauge("g", 1.5);
    r.gauge("g", 2.5); // last write wins
    r.gauge("g_h", f64::NAN);
    r.gauge_at("g", 0, -3.0);
    for i in 0..20 {
        r.sample("flow", f64::from(i % 7));
    }
    r.sample("d[0]", 1.0);
    r.sample("d", 2.0);
    r.sample("flow", 100.0); // re-touched after another name
    let mut other = AggregatingRecorder::new();
    other.counter_at("a", 2, 1);
    other.counter("b", 9);
    other.gauge_at("g", 1, 7.0);
    r.absorb_scalars(&other.report());
    r
}

/// Recorded from the `BTreeMap<(String, Option<usize>), _>` layout.
const FROZEN: &str = r#"{
  "schema": 1,
  "counters": {
    "a": 18446744073709551615,
    "a[2]": 8,
    "a[10]": 5,
    "a.b": 6,
    "aZ": 4,
    "a_b": 1,
    "b": 9,
    "x[y": 1
  },
  "gauges": {
    "g": 2.500000,
    "g[0]": -3.000000,
    "g[1]": 7.000000,
    "g_h": null
  },
  "histograms": [
    {
      "name": "d",
      "count": 1,
      "nan": 0,
      "min": 2.000000,
      "max": 2.000000,
      "mean": 2.000000,
      "p50": 2.000000,
      "p95": 2.000000,
      "p99": 2.000000,
      "bins": [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
    },
    {
      "name": "d[0]",
      "count": 1,
      "nan": 0,
      "min": 1.000000,
      "max": 1.000000,
      "mean": 1.000000,
      "p50": 1.000000,
      "p95": 1.000000,
      "p99": 1.000000,
      "bins": [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
    },
    {
      "name": "flow",
      "count": 21,
      "nan": 0,
      "min": 0.000000,
      "max": 100.000000,
      "mean": 7.476190,
      "p50": 3.000000,
      "p95": 6.000000,
      "p99": 100.000000,
      "bins": [20, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]
    }
  ],
  "phases": []
}
"#;

#[test]
fn mixed_sequence_report_is_frozen() {
    let r = feed();
    assert_eq!(r.report().to_json(), FROZEN);
    // Lookups agree with the rendered report.
    assert_eq!(r.counter_value("a", Some(2)), 8);
    assert_eq!(r.counter_value("a", Some(3)), 0);
    assert_eq!(r.gauge_value("g", Some(1)), Some(7.0));
    assert_eq!(r.gauge_value("g_h", Some(0)), None);
    assert_eq!(r.samples("flow").len(), 21);
}
