//! # parflow-obs
//!
//! A structured observability layer for the parflow engines: spans,
//! counters, gauges and sample streams, funnelled through a pluggable
//! [`Recorder`] trait.
//!
//! ## Design
//!
//! * **Zero cost when disabled.** Engines hoist `rec.enabled()` into a
//!   local `bool` before their hot loops; with the [`NullRecorder`] every
//!   instrumentation site is a predictable dead branch, no allocation
//!   happens, and — critically for the simulator — the RNG stream and all
//!   golden outputs stay byte-identical.
//! * **One funnel method.** A recorder implements [`Recorder::record`] over
//!   the [`Event`] taxonomy; the convenience methods (`counter`, `gauge`,
//!   `sample`, `span_begin`/`span_end`) are default trait methods, so
//!   `&mut dyn Recorder` stays object-safe and cheap to thread through
//!   engine entry points.
//! * **Deterministic reports.** The [`AggregatingRecorder`] stores counters
//!   and gauges in `BTreeMap`s and renders [`ObsReport`] JSON with a fixed
//!   key order, so two observed runs of a deterministic engine produce
//!   byte-identical counter sections (wall-clock phase timings are the only
//!   run-dependent part, and they are kept in a separate section).
//! * **Hand-rolled JSON.** [`ObsReport`] emits its fixed schema directly —
//!   same approach as the bench layer's `BenchReport`.
//!
//! ## Event taxonomy
//!
//! | Event | Meaning | Aggregation |
//! |-------|---------|-------------|
//! | `Counter { name, index, delta }` | monotone count (optionally per entity, e.g. per worker) | summed |
//! | `Gauge { name, index, value }` | last-write-wins scalar | overwritten |
//! | `Sample { name, value }` | one observation of a distribution | collected, summarized as a histogram |
//! | `SpanBegin` / `SpanEnd { name }` | phase boundaries | wall-clock duration per phase |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;

use parflow_metrics::{Histogram, SampleStats};
use std::collections::BTreeMap;
use std::time::Instant;

/// One structured observation. Engines emit these through a [`Recorder`];
/// the borrow keeps emission allocation-free.
#[derive(Clone, Copy, Debug)]
pub enum Event<'a> {
    /// A monotone counter increment; `index` scopes it to an entity
    /// (e.g. a worker).
    Counter {
        /// Metric name, dot-separated by convention (`"ws.steal_attempts"`).
        name: &'a str,
        /// Entity index (per-worker metrics), `None` for engine-level.
        index: Option<usize>,
        /// Amount to add.
        delta: u64,
    },
    /// A last-write-wins scalar.
    Gauge {
        /// Metric name.
        name: &'a str,
        /// Entity index, `None` for engine-level.
        index: Option<usize>,
        /// New value.
        value: f64,
    },
    /// One observation of a distribution (summarized as a histogram).
    Sample {
        /// Distribution name.
        name: &'a str,
        /// Observed value.
        value: f64,
    },
    /// A phase starts (wall-clock timing; spans may nest, matched by name).
    SpanBegin {
        /// Phase name.
        name: &'a str,
    },
    /// A phase ends.
    SpanEnd {
        /// Phase name (must match an open [`Event::SpanBegin`]).
        name: &'a str,
    },
}

/// Sink for [`Event`]s. Implementations must be cheap to call; engines
/// additionally guard hot-loop sites on [`Recorder::enabled`].
pub trait Recorder {
    /// Whether instrumentation should run at all. Engines hoist this out
    /// of their hot loops; `false` promises every `record` is a no-op.
    fn enabled(&self) -> bool {
        true
    }

    /// Consume one event.
    fn record(&mut self, event: Event<'_>);

    /// Add `delta` to the engine-level counter `name`.
    fn counter(&mut self, name: &str, delta: u64) {
        self.record(Event::Counter {
            name,
            index: None,
            delta,
        });
    }

    /// Add `delta` to counter `name` of entity `index` (e.g. a worker).
    fn counter_at(&mut self, name: &str, index: usize, delta: u64) {
        self.record(Event::Counter {
            name,
            index: Some(index),
            delta,
        });
    }

    /// Set the engine-level gauge `name`.
    fn gauge(&mut self, name: &str, value: f64) {
        self.record(Event::Gauge {
            name,
            index: None,
            value,
        });
    }

    /// Set gauge `name` of entity `index`.
    fn gauge_at(&mut self, name: &str, index: usize, value: f64) {
        self.record(Event::Gauge {
            name,
            index: Some(index),
            value,
        });
    }

    /// Record one observation of distribution `name`.
    fn sample(&mut self, name: &str, value: f64) {
        self.record(Event::Sample { name, value });
    }

    /// Open phase `name`.
    fn span_begin(&mut self, name: &str) {
        self.record(Event::SpanBegin { name });
    }

    /// Close phase `name`.
    fn span_end(&mut self, name: &str) {
        self.record(Event::SpanEnd { name });
    }
}

/// The disabled recorder: `enabled()` is `false` and every event is
/// dropped. Engines run bit-identically to their uninstrumented form.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: Event<'_>) {}
}

/// Aggregated metrics by name, then entity index. Nested `BTreeMap`s
/// flatten to (name, then `None` before indices) order, which fixes
/// report order deterministically, and a lookup by `&str` copies the name
/// only on its first sight.
type Metrics<T> = BTreeMap<String, BTreeMap<Option<usize>, T>>;

/// Apply `f` to the entry of `name`, creating it (and copying the name)
/// only if it is new.
fn update<T: Default>(map: &mut BTreeMap<String, T>, name: &str, f: impl FnOnce(&mut T)) {
    match map.get_mut(name) {
        Some(v) => f(v),
        None => f(map.entry(name.to_string()).or_default()),
    }
}

/// `(label, value)` rows of `metrics`, in report order.
fn labelled<T: Copy>(metrics: &Metrics<T>) -> Vec<(String, T)> {
    metrics
        .iter()
        .flat_map(|(name, per)| per.iter().map(move |(&i, &v)| (metric_label(name, i), v)))
        .collect()
}

fn metric_label(name: &str, index: Option<usize>) -> String {
    match index {
        Some(i) => format!("{name}[{i}]"),
        None => name.to_string(),
    }
}

/// Inverse of [`metric_label`]: `"name[3]"` → `("name", Some(3))`. A label
/// whose bracket suffix does not parse is treated as a plain name.
fn split_label(label: &str) -> (&str, Option<usize>) {
    if let Some(open) = label.rfind('[') {
        if let Some(idx) = label
            .strip_suffix(']')
            .and_then(|l| l[open + 1..].parse::<usize>().ok())
        {
            return (&label[..open], Some(idx));
        }
    }
    (label, None)
}

/// In-memory aggregation: counters summed, gauges last-write-wins, samples
/// collected verbatim, spans timed against a wall clock.
#[derive(Debug)]
pub struct AggregatingRecorder {
    counters: Metrics<u64>,
    gauges: Metrics<f64>,
    samples: BTreeMap<String, Vec<f64>>,
    /// Completed phases in completion order: `(name, wall_seconds)`.
    phases: Vec<(String, f64)>,
    /// Open span stack.
    open: Vec<(String, Instant)>,
}

impl AggregatingRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        AggregatingRecorder {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            samples: BTreeMap::new(),
            phases: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Current value of counter `name` at `index` (0 when never written).
    pub fn counter_value(&self, name: &str, index: Option<usize>) -> u64 {
        let per = self.counters.get(name);
        per.and_then(|p| p.get(&index)).copied().unwrap_or(0)
    }

    /// Current gauge value, if set.
    pub fn gauge_value(&self, name: &str, index: Option<usize>) -> Option<f64> {
        self.gauges.get(name).and_then(|p| p.get(&index)).copied()
    }

    /// Samples collected for distribution `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Completed phases as `(name, wall_seconds)`, in completion order.
    pub fn phases(&self) -> &[(String, f64)] {
        &self.phases
    }

    /// Fold another report's counters (summed) and gauges (last-write-wins,
    /// in report order) into this recorder. Used by the serve coordinator
    /// to merge per-worker live telemetry; histogram summaries cannot be
    /// re-expanded into samples and are deliberately not merged — merge raw
    /// samples instead where distribution fidelity matters.
    pub fn absorb_scalars(&mut self, report: &ObsReport) {
        for (label, v) in &report.counters {
            let (name, index) = split_label(label);
            self.counter_add(name, index, *v);
        }
        for (label, v) in &report.gauges {
            let (name, index) = split_label(label);
            self.gauge_set(name, index, *v);
        }
    }

    fn counter_add(&mut self, name: &str, index: Option<usize>, delta: u64) {
        update(&mut self.counters, name, |per| {
            let slot = per.entry(index).or_insert(0);
            *slot = slot.saturating_add(delta);
        });
    }

    fn gauge_set(&mut self, name: &str, index: Option<usize>, value: f64) {
        update(&mut self.gauges, name, |per| {
            per.insert(index, value);
        });
    }

    /// Summarize everything recorded so far into a machine-readable report.
    pub fn report(&self) -> ObsReport {
        ObsReport {
            schema: OBS_SCHEMA,
            counters: labelled(&self.counters),
            gauges: labelled(&self.gauges),
            histograms: self
                .samples
                .iter()
                .map(|(name, xs)| HistogramSummary::from_samples(name, xs))
                .collect(),
            phases: self.phases.clone(),
        }
    }
}

impl Default for AggregatingRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder for AggregatingRecorder {
    fn record(&mut self, event: Event<'_>) {
        match event {
            Event::Counter { name, index, delta } => self.counter_add(name, index, delta),
            Event::Gauge { name, index, value } => self.gauge_set(name, index, value),
            Event::Sample { name, value } => update(&mut self.samples, name, |xs| xs.push(value)),
            Event::SpanBegin { name } => {
                self.open.push((name.to_string(), Instant::now()));
            }
            Event::SpanEnd { name } => {
                // Match the innermost open span with this name; a stray end
                // is ignored rather than panicking inside instrumentation.
                if let Some(pos) = self.open.iter().rposition(|(n, _)| n == name) {
                    let (n, t0) = self.open.remove(pos);
                    self.phases.push((n, t0.elapsed().as_secs_f64()));
                }
            }
        }
    }
}

/// An [`AggregatingRecorder`] bound to an output path: [`JsonRecorder::flush`]
/// writes the aggregated [`ObsReport`] as JSON.
#[derive(Debug)]
pub struct JsonRecorder {
    inner: AggregatingRecorder,
    path: std::path::PathBuf,
}

impl JsonRecorder {
    /// Record into memory; JSON goes to `path` on [`flush`](Self::flush).
    pub fn new(path: impl Into<std::path::PathBuf>) -> Self {
        JsonRecorder {
            inner: AggregatingRecorder::new(),
            path: path.into(),
        }
    }

    /// The aggregation backing this recorder.
    pub fn aggregate(&self) -> &AggregatingRecorder {
        &self.inner
    }

    /// Write the current report to the bound path.
    pub fn flush(&self) -> std::io::Result<()> {
        std::fs::write(&self.path, self.inner.report().to_json())
    }
}

impl Recorder for JsonRecorder {
    fn record(&mut self, event: Event<'_>) {
        self.inner.record(event);
    }
}

/// Report format version.
pub(crate) const OBS_SCHEMA: u32 = 1;

/// Number of uniform bins in a [`HistogramSummary`].
pub(crate) const SUMMARY_BINS: usize = 16;

/// Distribution summary: count, moments, percentiles and fixed-bin counts.
/// Built on [`parflow_metrics::Histogram`], so NaN samples are counted
/// separately instead of polluting bin 0.
#[derive(Clone, Debug)]
pub struct HistogramSummary {
    /// Distribution name.
    pub name: String,
    /// Finite samples summarized.
    pub count: u64,
    /// NaN samples (excluded from every other field).
    pub nan: u64,
    /// Minimum finite sample.
    pub min: f64,
    /// Maximum finite sample.
    pub max: f64,
    /// Mean of finite samples.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 16 uniform bin counts over `[min, max]`.
    pub bins: Vec<u64>,
}

impl HistogramSummary {
    /// Summarize a raw sample stream.
    pub fn from_samples(name: &str, xs: &[f64]) -> Self {
        // Degrade, never panic: an empty or all-non-finite sample set
        // reports NaN fields (rendered `null` in the JSON report) and empty
        // bins — a sweep cell with no finite samples is a normal outcome.
        let stats = SampleStats::from_samples(xs);
        let mut bins = vec![0; SUMMARY_BINS];
        if let Some(s) = &stats {
            // Half-open bins need hi > lo; nudge hi so the max lands inside.
            let hi = if s.max > s.min {
                s.max + (s.max - s.min) * 1e-9
            } else {
                s.min + 1.0
            };
            let mut h = Histogram::new(s.min, hi, SUMMARY_BINS);
            h.extend(xs.iter().copied().filter(|x| x.is_finite()));
            bins = h.counts().to_vec();
        }
        let field = |get: fn(&SampleStats) -> f64| stats.as_ref().map_or(f64::NAN, get);
        HistogramSummary {
            name: name.to_string(),
            count: stats.map_or(0, |s| s.count as u64),
            nan: xs.iter().filter(|x| x.is_nan()).count() as u64,
            min: field(|s| s.min),
            max: field(|s| s.max),
            mean: field(|s| s.mean),
            p50: field(|s| s.p50),
            p95: field(|s| s.p95),
            p99: field(|s| s.p99),
            bins,
        }
    }
}

/// The machine-readable run report behind `--obs-json`: counters, gauges,
/// distribution summaries and per-phase wall times.
#[derive(Clone, Debug)]
pub struct ObsReport {
    /// Format version (1).
    pub schema: u32,
    /// `(label, value)` counters, sorted by label (`name` or `name[i]`).
    pub counters: Vec<(String, u64)>,
    /// `(label, value)` gauges, sorted by label.
    pub gauges: Vec<(String, f64)>,
    /// One summary per sampled distribution, sorted by name.
    pub histograms: Vec<HistogramSummary>,
    /// `(name, wall_seconds)` per completed phase, in completion order.
    /// The only run-dependent section for a deterministic engine.
    pub phases: Vec<(String, f64)>,
}

/// JSON number or `null` for non-finite values (JSON has no NaN/inf).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

fn json_escape(s: &str) -> String {
    // Metric names are ASCII identifiers by convention; escape the two
    // characters that could break a JSON string anyway.
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

impl ObsReport {
    /// Serialize to pretty JSON with a trailing newline.
    ///
    /// Hand-rolled against the fixed schema. Key order is deterministic
    /// (sorted labels; phases in completion order).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{{\n  \"schema\": {},\n", self.schema));

        out.push_str("  \"counters\": {");
        for (i, (label, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            out.push_str(&format!("{sep}    \"{}\": {v}", json_escape(label)));
        }
        out.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        out.push_str("  \"gauges\": {");
        for (i, (label, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            out.push_str(&format!(
                "{sep}    \"{}\": {}",
                json_escape(label),
                json_f64(*v)
            ));
        }
        out.push_str(if self.gauges.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        out.push_str("  \"histograms\": [");
        for (i, h) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let bins: Vec<String> = h.bins.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "{sep}    {{\n      \"name\": \"{}\",\n      \"count\": {},\n      \
                 \"nan\": {},\n      \"min\": {},\n      \"max\": {},\n      \
                 \"mean\": {},\n      \"p50\": {},\n      \"p95\": {},\n      \
                 \"p99\": {},\n      \"bins\": [{}]\n    }}",
                json_escape(&h.name),
                h.count,
                h.nan,
                json_f64(h.min),
                json_f64(h.max),
                json_f64(h.mean),
                json_f64(h.p50),
                json_f64(h.p95),
                json_f64(h.p99),
                bins.join(", ")
            ));
        }
        out.push_str(if self.histograms.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });

        out.push_str("  \"phases\": [");
        for (i, (name, secs)) in self.phases.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            out.push_str(&format!(
                "{sep}    {{ \"name\": \"{}\", \"wall_seconds\": {} }}",
                json_escape(name),
                json_f64(*secs)
            ));
        }
        out.push_str(if self.phases.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });

        out.push_str("}\n");
        out
    }

    /// A 64-bit FNV-1a digest of the serialized report, as 16 lowercase
    /// hex digits. Two reports digest equal iff their JSON is
    /// byte-identical — the determinism check the serve CI smoke and the
    /// chaos tests pin (same seed + same input ⇒ same digest, any worker
    /// count). Dependency-free by design; this is a fingerprint for
    /// regression detection, not a cryptographic commitment.
    pub fn digest(&self) -> String {
        format!("{:016x}", fnv1a64(self.to_json().as_bytes()))
    }
}

/// 64-bit FNV-1a over a byte string: the workspace's one deterministic,
/// dependency-free hash — behind [`ObsReport::digest`] and the sweep
/// harness's cell fingerprints and derived seeds.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled_and_silent() {
        let mut r = NullRecorder;
        assert!(!r.enabled());
        r.counter("x", 5);
        r.sample("y", 1.0);
        r.span_begin("p");
        r.span_end("p");
    }

    #[test]
    fn counters_sum_and_scope_by_index() {
        let mut r = AggregatingRecorder::new();
        r.counter("ws.steals", 3);
        r.counter("ws.steals", 4);
        r.counter_at("ws.steals", 1, 10);
        assert_eq!(r.counter_value("ws.steals", None), 7);
        assert_eq!(r.counter_value("ws.steals", Some(1)), 10);
        assert_eq!(r.counter_value("ws.steals", Some(0)), 0);
    }

    #[test]
    fn counters_exceed_u32_range() {
        // The whole point of the u64 event model: no silent saturation.
        let mut r = AggregatingRecorder::new();
        r.counter("gap", u32::MAX as u64);
        r.counter("gap", 2);
        assert_eq!(r.counter_value("gap", None), u32::MAX as u64 + 2);
    }

    #[test]
    fn gauges_last_write_wins() {
        let mut r = AggregatingRecorder::new();
        r.gauge("rounds", 10.0);
        r.gauge("rounds", 20.0);
        r.gauge_at("rate", 2, 0.5);
        assert_eq!(r.gauge_value("rounds", None), Some(20.0));
        assert_eq!(r.gauge_value("rate", Some(2)), Some(0.5));
        assert_eq!(r.gauge_value("rate", None), None);
    }

    #[test]
    fn spans_time_phases_in_completion_order() {
        let mut r = AggregatingRecorder::new();
        r.span_begin("outer");
        r.span_begin("inner");
        r.span_end("inner");
        r.span_end("outer");
        r.span_end("stray"); // ignored
        let phases = r.phases();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].0, "inner");
        assert_eq!(phases[1].0, "outer");
        assert!(phases.iter().all(|&(_, s)| s >= 0.0));
    }

    #[test]
    fn histogram_summary_handles_nan_and_percentiles() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).chain([f64::NAN]).collect();
        let h = HistogramSummary::from_samples("d", &xs);
        assert_eq!(h.count, 100);
        assert_eq!(h.nan, 1);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 100.0);
        assert_eq!(h.p50, 50.0);
        assert_eq!(h.p99, 99.0);
        assert_eq!(h.bins.iter().sum::<u64>(), 100);
        assert_eq!(h.bins.len(), SUMMARY_BINS);
    }

    #[test]
    fn histogram_summary_all_nan_or_empty() {
        let h = HistogramSummary::from_samples("d", &[f64::NAN, f64::NAN]);
        assert_eq!(h.count, 0);
        assert_eq!(h.nan, 2);
        assert!(h.min.is_nan());
        let e = HistogramSummary::from_samples("e", &[]);
        assert_eq!(e.count, 0);
        assert_eq!(e.nan, 0);
    }

    #[test]
    fn histogram_summary_constant_samples() {
        let h = HistogramSummary::from_samples("c", &[3.0; 7]);
        assert_eq!(h.count, 7);
        assert_eq!(h.min, 3.0);
        assert_eq!(h.max, 3.0);
        assert_eq!(h.bins[0], 7);
    }

    #[test]
    fn report_json_is_deterministic_and_wellformed() {
        let build = || {
            let mut r = AggregatingRecorder::new();
            r.counter_at("ws.worker.steals", 1, 7);
            r.counter_at("ws.worker.steals", 0, 3);
            r.counter("ws.rounds", 100);
            r.gauge("speed", 1.5);
            for i in 0..10 {
                r.sample("flow", i as f64);
            }
            r.report()
        };
        let (a, b) = (build(), build());
        let (ja, jb) = (a.to_json(), b.to_json());
        assert_eq!(ja, jb, "deterministic inputs must serialize identically");
        for key in [
            "\"schema\": 1",
            "\"ws.worker.steals[0]\": 3",
            "\"ws.worker.steals[1]\": 7",
            "\"ws.rounds\": 100",
            "\"flow\"",
            "\"phases\": []",
        ] {
            assert!(ja.contains(key), "missing {key} in:\n{ja}");
        }
        // Labels sorted: engine-level before per-index, index 0 before 1.
        let pos = |s: &str| ja.find(s).unwrap();
        assert!(pos("ws.rounds") < pos("ws.worker.steals[0]"));
        assert!(pos("ws.worker.steals[0]") < pos("ws.worker.steals[1]"));
    }

    #[test]
    fn json_null_for_nonfinite() {
        let mut r = AggregatingRecorder::new();
        r.sample("d", f64::NAN);
        r.gauge("g", f64::INFINITY);
        let j = r.report().to_json();
        assert!(j.contains("\"g\": null"), "{j}");
        assert!(j.contains("\"nan\": 1"), "{j}");
        assert!(!j.contains("NaN"), "JSON must not contain NaN literals");
    }

    /// Regression for the obs/lib.rs:412 panic family: the percentile
    /// epilogue did `try_percentile_sorted(..).expect("non-empty")`, so a
    /// distribution whose samples all filter out as non-finite (an empty
    /// or fully-shed sweep cell) panicked while building the report. It
    /// must degrade to `null` fields in the JSON instead.
    #[test]
    fn all_nonfinite_samples_degrade_to_null_report_fields() {
        let h = HistogramSummary::from_samples("dead", &[f64::NAN, f64::INFINITY, f64::NAN]);
        assert_eq!(h.count, 0);
        assert_eq!(h.nan, 2, "nan counts NaN samples; infinities only drop");
        assert!(h.p50.is_nan() && h.p95.is_nan() && h.p99.is_nan());

        let mut r = AggregatingRecorder::new();
        r.sample("dead", f64::NAN);
        r.sample("dead", f64::INFINITY);
        let j = r.report().to_json();
        assert!(j.contains("\"name\": \"dead\""), "{j}");
        assert!(j.contains("\"p50\": null"), "{j}");
        assert!(j.contains("\"p95\": null"), "{j}");
        assert!(j.contains("\"p99\": null"), "{j}");
        assert!(j.contains("\"count\": 0"), "{j}");
        assert!(!j.contains("NaN"), "JSON must not contain NaN literals");
    }

    #[test]
    fn json_recorder_flushes_to_path() {
        let path = std::env::temp_dir().join("parflow_obs_test.json");
        let mut r = JsonRecorder::new(&path);
        r.counter("x", 1);
        r.flush().unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"x\": 1"));
        assert_eq!(r.aggregate().counter_value("x", None), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn split_label_round_trips_metric_label() {
        for (name, idx) in [
            ("ws.steals", None),
            ("ws.steals", Some(0)),
            ("serve.shed", Some(17)),
            ("a[b", None), // bracket inside a plain name survives
        ] {
            let label = metric_label(name, idx);
            assert_eq!(split_label(&label), (name, idx));
        }
        // Unparsable bracket suffixes degrade to plain names.
        assert_eq!(split_label("x[y]"), ("x[y]", None));
        assert_eq!(split_label("x[3"), ("x[3", None));
        assert_eq!(split_label("x]"), ("x]", None));
    }

    #[test]
    fn absorb_scalars_sums_counters_and_overwrites_gauges() {
        let mut worker = AggregatingRecorder::new();
        worker.counter("serve.completed", 5);
        worker.counter_at("serve.orders", 2, 3);
        worker.gauge("serve.depth", 4.0);
        worker.sample("flow", 1.0); // histograms deliberately not merged
        let report = worker.report();

        let mut merged = AggregatingRecorder::new();
        merged.counter("serve.completed", 1);
        merged.gauge("serve.depth", 9.0);
        merged.absorb_scalars(&report);
        merged.absorb_scalars(&report);

        assert_eq!(merged.counter_value("serve.completed", None), 11);
        assert_eq!(merged.counter_value("serve.orders", Some(2)), 6);
        assert_eq!(merged.gauge_value("serve.depth", None), Some(4.0));
        assert!(merged.samples("flow").is_empty());
    }

    #[test]
    fn digest_is_deterministic_and_content_sensitive() {
        let build = |v: u64| {
            let mut r = AggregatingRecorder::new();
            r.counter("jobs", v);
            r.gauge("speed", 1.5);
            r.report()
        };
        let (a, b, c) = (build(7), build(7), build(8));
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_eq!(a.digest().len(), 16);
        assert!(a.digest().chars().all(|ch| ch.is_ascii_hexdigit()));
        // Pin the FNV-1a implementation itself.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
